import numpy as np
import pytest

from conftest import random_snapshots, small_schema
from tabfusion.checkpoint import (
    CheckpointError,
    config_digest,
    load_checkpoint,
    save_checkpoint,
)
from tabfusion.config import ConfigError, RunConfig
from tabfusion.finetune import FinetuneConfig, TaskSpec, finetune_loop, predict_scores
from tabfusion.model import Model


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path, rng):
        arrays = {
            "a": rng.standard_normal((3, 4)).astype(np.float32),
            "b.weight": rng.standard_normal(7).astype(np.float64),
            "scalar": np.float32(2.5).reshape(()),
        }
        cfg = {"d": 8, "seed": 1}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, arrays, cfg)
        loaded = load_checkpoint(path, cfg)
        assert set(loaded) == set(arrays)
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])
            assert loaded[k].dtype == arrays[k].dtype

    def test_digest_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.zeros(2, dtype=np.float32)}, {"d": 8})
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path, {"d": 16})

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"JUNKXXXX" + b"\x00" * 100)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path, {})

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {}, {})
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, {})

    @pytest.mark.parametrize("keep", [2, 40, 77, 80, 86, 100])
    def test_truncated_file_rejected(self, tmp_path, keep):
        # 2, 40: inside the fixed 76-byte header; then inside the array's
        # name length (77), dtype/ndim (80), shape (86) and data (100)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}, {})
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path, {})

    @pytest.mark.parametrize("offset,match", [(78, "utf-8"), (79, "dtype code")])
    def test_corrupt_array_header_rejected(self, tmp_path, offset, match):
        # byte 78 is the array's one-byte name, 79 its dtype code
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.zeros(2, dtype=np.float32)}, {})
        data = bytearray(path.read_bytes())
        data[offset] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path, {})

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.ones(3, dtype=np.float32)}, {})
        before = path.read_bytes()
        with pytest.raises(ValueError):  # "b" cannot be written as floats
            save_checkpoint(path, {"a": np.ones(3, dtype=np.float32), "b": np.array(["x"])}, {})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_digest_is_key_order_independent(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})


class TestModelPersistence:
    def build_trained(self, tmp_path):
        schema = small_schema()
        snaps = random_snapshots(schema, 20, seed=0)
        model = Model(schema, d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=3)
        cfg = FinetuneConfig(steps=4, batch_size=8, d_rf=32, seed=0, eval_every=1000)
        finetune_loop(model, snaps, [TaskSpec("risk", 2)], cfg)
        return schema, snaps, model

    def kwargs(self):
        return dict(d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=3)

    def test_reload_reproduces_predictions_exactly(self, tmp_path):
        schema, snaps, model = self.build_trained(tmp_path)
        before = predict_scores(model, snaps, "risk", calibrated=True)
        cfg = {"arch": "tiny"}
        model.save(tmp_path / "m.ckpt", cfg)
        clone = Model.load(tmp_path / "m.ckpt", schema, cfg, **self.kwargs())
        after = predict_scores(clone, snaps, "risk", calibrated=True)
        np.testing.assert_array_equal(before, after)

    def test_reload_restores_head_covariance(self, tmp_path):
        schema, snaps, model = self.build_trained(tmp_path)
        cfg = {"arch": "tiny"}
        model.save(tmp_path / "m.ckpt", cfg)
        clone = Model.load(tmp_path / "m.ckpt", schema, cfg, **self.kwargs())
        np.testing.assert_allclose(
            clone.heads["risk"].precision, model.heads["risk"].precision, rtol=1e-6
        )

    def test_embed_shape(self, tmp_path):
        schema, snaps, model = self.build_trained(tmp_path)
        emb = model.embed(snaps)
        assert emb.shape == (20, 8)
        assert np.all(np.isfinite(emb))


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("d", 7),
            ("heads", 5),
            ("cutmix_swap_prob", 1.5),
            ("mixup_alpha", -0.1),
            ("contrastive_tau", 0.0),
            ("folds", 1),
            ("gp_ridge", 0.0),
            ("focal_gamma", -1.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        cfg = RunConfig(**{field: value})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_json_round_trip(self, tmp_path):
        cfg = RunConfig(d=16, heads=4, seed=9)
        cfg.save(tmp_path / "c.json")
        loaded = RunConfig.load(tmp_path / "c.json")
        assert loaded == cfg

    def test_unknown_key_rejected(self):
        # threads and activation were fields once; nothing read them
        for key in ("bogus", "threads", "activation"):
            with pytest.raises(ConfigError, match="unknown"):
                RunConfig.from_dict({"d": 8, key: 1})

    def test_invalid_json_rejected(self, tmp_path):
        (tmp_path / "c.json").write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.load(tmp_path / "c.json")

    def test_model_record_is_the_model_kwargs(self):
        cfg = RunConfig(d=8, heads=2, n_layers=1, ffn_dim=16, d_prime=8, seed=3)
        record = cfg.model_record()
        assert set(record) == {
            "d", "n_layers", "heads", "ffn_dim", "d_prime", "spectral_norm", "asset_criterion", "seed"
        }
        assert Model(small_schema(), **record).trunk_config.ffn_dim == 16
        trained = RunConfig(**{**cfg.to_dict(), "pretrain_steps": 200, "finetune_steps": 3, "batch_size": 8})
        assert config_digest(trained.model_record()) == config_digest(record)
        assert config_digest(RunConfig(**{**cfg.to_dict(), "seed": 4}).model_record()) != config_digest(record)
