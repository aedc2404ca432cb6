import dataclasses
import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import random_snapshots, small_schema, traced
from tabfusion import nn
from tabfusion.checkpoint import (
    MAGIC,
    CheckpointError,
    config_digest,
    load_checkpoint,
    save_checkpoint,
)
import tabfusion.benchmark as bm
from tabfusion.config import AugmentConfig, ConfigError, FinetuneConfig, LossWeights, PretrainConfig, RunConfig
from tabfusion.data import FeatureSchema, FeatureSpec
from tabfusion.finetune import SngpHead, TaskSpec, finetune_loop, predict_scores
from tabfusion.model import HEAD_FIELDS, PARTS, Model
from tabfusion.pretrain import pretrain_loop
from tabfusion.optim import CosineWarmupSchedule
from tabfusion.tensor import Tensor


def layout(record: dict, arrays: dict) -> dict:
    """Byte range of each region of the file save_checkpoint writes, from the
    documented layout; an array's regions are keyed '<name>.<region>'."""
    sizes = [
        ("magic", 4), ("version", 4), ("digest", 64), ("record_length", 4),
        ("record", len(json.dumps(record, sort_keys=True).encode())), ("array_count", 4),
    ]
    for name, arr in arrays.items():
        sizes += [
            (f"{name}.name_length", 2), (f"{name}.name", len(name.encode())),
            (f"{name}.dtype_ndim", 2), (f"{name}.shape", 4 * arr.ndim), (f"{name}.data", arr.nbytes),
        ]
    sizes.append(("array_checksum", 4))  # CRC-32 of array_count through the last array's data
    out, start = {}, 0
    for region, size in sizes:
        out[region] = (start, start + size)
        start += size
    return out


ONE_ARRAY = {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}
REGIONS = list(layout({"d": 8}, ONE_ARRAY))


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path, rng):
        arrays = {
            "a": rng.standard_normal((3, 4)).astype(np.float32),
            "b.weight": rng.standard_normal(7).astype(np.float64),
            "scalar": np.float32(2.5).reshape(()),
        }
        cfg = {"d": 8, "seed": 1, "nested": {"names": ["x", "y"]}}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, arrays, cfg)
        record, loaded = load_checkpoint(path)
        assert record == cfg
        assert set(loaded) == set(arrays)
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])
            assert loaded[k].dtype == arrays[k].dtype
            assert loaded[k].shape == arrays[k].shape
        regions = layout(cfg, arrays)
        assert max(end for _, end in regions.values()) == path.stat().st_size

    def test_digest_mismatch_rejected(self, tmp_path):
        # a flipped byte inside the record, and one inside the stored digest
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ONE_ARRAY, {"d": 8})
        good = path.read_bytes()
        regions = layout({"d": 8}, ONE_ARRAY)
        for region in ("record", "digest"):
            start, end = regions[region]
            data = bytearray(good)
            data[(start + end) // 2] ^= 0x01
            path.write_bytes(bytes(data))
            with pytest.raises(CheckpointError, match="record digest mismatch"):
                load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"JUNKXXXX" + b"\x00" * 100)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {}, {})
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_version_1_file_must_be_recreated(self, tmp_path):
        # version 1: magic, version, a digest of the caller's config, no record;
        # version 2 began the same way and named arrays by hand-written prefixes
        path = tmp_path / "m.ckpt"
        for version in (1, 2):
            path.write_bytes(MAGIC + struct.pack("<I", version) + config_digest({}).encode() + struct.pack("<I", 0))
            with pytest.raises(CheckpointError, match=f"version {version}; re-create the checkpoint"):
                load_checkpoint(path)

    @pytest.mark.parametrize("region", REGIONS)
    def test_truncated_file_rejected(self, tmp_path, region):
        # cut in the middle of the region (at its start when it is one byte)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ONE_ARRAY, {"d": 8})
        start, end = layout({"d": 8}, ONE_ARRAY)[region]
        path.write_bytes(path.read_bytes()[: (start + end) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("region,match", [("a.name", "utf-8"), ("a.dtype_ndim", "dtype code")])
    def test_corrupt_array_header_rejected(self, tmp_path, region, match):
        # the first byte of the region: the one-byte name, or the dtype code
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ONE_ARRAY, {"d": 8})
        data = bytearray(path.read_bytes())
        data[layout({"d": 8}, ONE_ARRAY)[region][0]] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.ones(3, dtype=np.float32)}, {})
        before = path.read_bytes()
        with pytest.raises(ValueError):  # "b" cannot be written as floats
            save_checkpoint(path, {"a": np.ones(3, dtype=np.float32), "b": np.array(["x"])}, {})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_arrays_of_every_layout_round_trip_and_their_bytes_are_pinned(self, tmp_path):
        # digest of the file the array-copying writer made for the same
        # arrays: streaming each array's own buffer writes the same bytes
        grid = np.arange(24, dtype=np.float64).reshape(4, 6)
        arrays = {
            "strided": grid[:, ::2], "transposed": grid.T.astype(np.float32), "half": grid.astype(np.float16),
            "scalar": np.float64(2.5).reshape(()), "empty": np.zeros((0, 3), np.float32), "ints": np.arange(3),
        }
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, arrays, {"k": [1, 2]})
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "6a033ca070038fde0f932843ab83ce74c45764b2fbe34d0ca7709844280d151a")
        # the version-3 writer's pinned bytes, but for the version field
        assert hashlib.sha256(data[:4] + struct.pack("<I", 3) + data[8:]).hexdigest() == (
            "80398a2b84b0a71be8d1898060c481961d6260c6782ee759765b099297de2f40")
        _, loaded = load_checkpoint(path)
        for name, want in arrays.items():
            dtype = want.dtype if want.dtype in (np.float32, np.float64) else np.float32
            assert loaded[name].dtype == dtype and loaded[name].shape == want.shape, name
            np.testing.assert_array_equal(loaded[name], want.astype(dtype))

    def test_save_copies_no_array(self, tmp_path):
        # the writer made two copies of each array: 16 MB for this precision
        arrays = {"heads.risk.precision": np.eye(1024), "w": np.ones((256, 64), np.float32)}
        _, peak = traced(lambda: save_checkpoint(tmp_path / "m.ckpt", arrays, {"d": 8}))
        assert peak < 1 << 20

    def test_digest_is_key_order_independent(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})


class TestModelPersistence:
    def build_trained(self, tmp_path):
        schema = small_schema()
        snaps = random_snapshots(schema, 20, seed=0)
        model = Model(schema, RunConfig(**self.kwargs()))
        cfg = RunConfig(finetune_steps=4, batch_size=8, d_rf=32, seed=0).finetune_config()
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

    def test_loaded_state_is_writable_and_owns_its_memory(self, tmp_path):
        # load_checkpoint reads each array into memory of its own, and
        # Model.load sets those arrays in the model without copying them
        schema, snaps, model = self.build_trained(tmp_path)
        model.save(tmp_path / "m.ckpt", {"arch": "tiny"})
        _, arrays = load_checkpoint(tmp_path / "m.ckpt")
        assert all(a.flags.writeable and a.flags.owndata for a in arrays.values())
        clone = Model.load(tmp_path / "m.ckpt")
        state = {**{k: p.data for k, p in clone.parameters().items()}, **clone.buffers()}
        assert state.keys() == arrays.keys() and "heads.risk.factor" in state
        for name, value in state.items():
            root = value
            while isinstance(root, np.ndarray) and root.base is not None:
                root = root.base
            assert isinstance(root, np.ndarray) and value.flags.writeable, name
            assert not any(np.shares_memory(value, a) for a in arrays.values()), name

    def test_model_file_bytes_are_pinned(self, tmp_path):
        # format 4: no ISA or decoder arrays, and the head's packed factor in
        # place of its precision; a diagonal of powers of 4, whose factor
        # every LAPACK makes exactly
        model = Model(small_schema(), RunConfig(d=8, n_layers=2, heads=2, ffn_dim=16, d_prime=8, seed=0))
        head = model.heads["risk"] = SngpHead(8, 2, np.random.default_rng(1), d_rf=32, length_scale=2.0, ridge=1.0)
        head.precision = np.diag(4.0 ** (np.arange(32) % 4 - 1))
        model.save(tmp_path / "m.ckpt", {"arch": "tiny"})
        assert hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest() == (
            "22c7e700dda6054f1e2b47577eea1b91162cb3f025b73ebc935ea6d4a0132fa9")

    def test_load_holds_each_array_once(self, tmp_path):
        # peak minus kept was about the array bytes when the load held the
        # file's bytes and a copy of each array; what remains is mostly the
        # placeholders the module tree is built with before the swap
        model = Model(small_schema(), RunConfig(d=16, n_layers=2, heads=2, ffn_dim=64, d_prime=16, seed=0))
        for task, seed in (("risk", 1), ("churn", 2)):
            head = model.heads[task] = SngpHead(16, 2, np.random.default_rng(seed), 256, length_scale=2.0, ridge=1.0)
            head.precision = 2.0 * np.eye(256)
        model.save(tmp_path / "m.ckpt", {})
        nbytes = sum(a.nbytes for a in load_checkpoint(tmp_path / "m.ckpt")[1].values())
        loaded = []
        kept, peak = traced(lambda: loaded.append(Model.load(tmp_path / "m.ckpt")))
        assert kept >= nbytes
        assert peak - kept <= 0.35 * nbytes

    def test_schema_record_format_is_pinned(self, tmp_path):
        # a schema file and a checkpoint's record["schema"] hold each task as
        # exactly its name and classes (gamma is a run's, not the schema's),
        # so version-3 checkpoints written before the task records merged load
        schema = FeatureSchema(
            [FeatureSpec("x", "numeric"), FeatureSpec("c", "categorical", vocab_size=3)],
            [TaskSpec("risk", 2, gamma=0.5), TaskSpec("tier", 3)],
        )
        expected = {
            "features": [{"name": "x", "kind": "numeric"}, {"name": "c", "kind": "categorical", "vocab_size": 3}],
            "tasks": [{"name": "risk", "classes": 2}, {"name": "tier", "classes": 3}],
        }
        assert schema.to_dict() == expected
        schema.save(tmp_path / "schema.json")
        assert json.loads((tmp_path / "schema.json").read_text()) == expected
        Model(schema, RunConfig(d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8)).save(tmp_path / "m.ckpt", {})
        assert load_checkpoint(tmp_path / "m.ckpt")[0]["schema"] == expected
        assert Model.load(tmp_path / "m.ckpt").schema.tasks == [TaskSpec("risk", 2), TaskSpec("tier", 3)]

    def test_reload_restores_head_covariance(self, tmp_path):
        schema, snaps, model = self.build_trained(tmp_path)
        cfg = {"arch": "tiny"}
        model.save(tmp_path / "m.ckpt", cfg)
        clone = Model.load(tmp_path / "m.ckpt", schema, cfg, **self.kwargs())
        phi = model.heads["risk"].features(Tensor(model.embed(snaps))).data
        np.testing.assert_array_equal(clone.heads["risk"].variance(phi), model.heads["risk"].variance(phi))

    def test_file_alone_rebuilds_a_two_head_model(self, tmp_path):
        schema, snaps, model = self.build_trained(tmp_path)
        # a second head with another d_rf and GP prior, added to the fitted model
        for snap in snaps:
            snap.labels["churn"] = 1 - snap.labels["risk"]
        cfg = RunConfig(finetune_steps=2, batch_size=8, d_rf=16, gp_length_scale=1.5, gp_ridge=0.25, seed=1,
                        linear_probe=True).finetune_config()  # training the backbone too would leave risk stale
        finetune_loop(model, snaps, [TaskSpec("churn", 2)], cfg)
        model.heads["churn"].kappa = 0.3
        model.save(tmp_path / "m.ckpt", {"arch": "tiny"})
        clone = Model.load(tmp_path / "m.ckpt")
        assert clone.fields == model.fields == {**self.kwargs(), "spectral_norm": True, "asset_criterion": "recency"}
        assert clone.schema.to_dict() == model.schema.to_dict()
        np.testing.assert_array_equal(clone.embed(snaps), model.embed(snaps))
        assert set(clone.heads) == {"risk", "churn"}
        for task, head in model.heads.items():
            restored = clone.heads[task]
            assert [getattr(restored, k) for k in HEAD_FIELDS] == [getattr(head, k) for k in HEAD_FIELDS]
            want, got = model.predict(snaps, task), clone.predict(snaps, task)
            np.testing.assert_array_equal(got["probs"], want["probs"])
            np.testing.assert_array_equal(got["variance"], want["variance"])
        churn = clone.heads["churn"]
        assert (churn.d_rf, churn.length_scale, churn.ridge, churn.kappa) == (16, 1.5, 0.25, 0.3)
        assert clone.heads["risk"].kappa == math.pi / 8

    def test_save_load_save_keeps_the_head_order_and_the_bytes(self, tmp_path):
        # the record's JSON sorts its keys, and the heads came back as churn, risk
        schema, snaps, model = self.build_trained(tmp_path)
        for snap in snaps:
            snap.labels["churn"] = 1 - snap.labels["risk"]
        cfg = RunConfig(finetune_steps=2, batch_size=8, d_rf=16, seed=1, linear_probe=True).finetune_config()
        finetune_loop(model, snaps, [TaskSpec("churn", 2)], cfg)
        model.save(tmp_path / "a.ckpt", {"arch": "tiny"})
        clone = Model.load(tmp_path / "a.ckpt")
        clone.save(tmp_path / "b.ckpt", {"arch": "tiny"})
        assert list(clone.heads) == list(model.heads) == ["risk", "churn"]
        assert (tmp_path / "b.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()

    def test_flipped_byte_in_parameter_data_rejected(self, tmp_path):
        schema, snaps, model = self.build_trained(tmp_path)
        path = tmp_path / "m.ckpt"
        model.save(path, {"arch": "tiny"})
        record, arrays = load_checkpoint(path)
        start, end = layout(record, arrays)["heads.risk.beta.weight.data"]
        data = bytearray(path.read_bytes())
        data[(start + end) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="array checksum mismatch"):
            Model.load(path)

    @pytest.mark.parametrize("edit, message", [
        # each with a matching record digest: a bare TypeError
        (lambda r: r["heads"]["risk"].update(extra=1), "checkpoint head 'risk' is {"),
        (lambda r: r["heads"]["risk"].update(classes="2"), "checkpoint head 'risk' has classes '2'"),
        (lambda r: r.update(parts=5), "checkpoint parts are 5, not a list of names from"),
        # taken as pi/8
        (lambda r: r["heads"]["risk"].pop("kappa"), "checkpoint head 'risk' is {"),
        # ignored
        (lambda r: r.update(parts=["encoder", "trunk", "heads", "probe"]), "checkpoint parts are ['encoder'"),
        (lambda r: r["heads"]["risk"].update(ridge=float("nan")), "checkpoint head 'risk' has ridge nan"),
        (lambda r: r["heads"]["risk"].update(d_rf=True), "checkpoint head 'risk' has d_rf True"),
    ], ids=["extra-key", "string-classes", "int-parts", "no-kappa", "unknown-part", "nan-ridge", "bool-d_rf"])
    def test_load_refuses_a_malformed_head_or_parts_record(self, tmp_path, edit, message):
        _, _, model = self.build_trained(tmp_path)
        path = tmp_path / "m.ckpt"
        model.save(path, {"arch": "tiny"})
        record, arrays = load_checkpoint(path)
        edit(record)
        save_checkpoint(path, arrays, record)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            Model.load(path)

    def test_arrays_are_named_by_attribute_path(self, tmp_path):
        schema, snaps, model = self.build_trained(tmp_path)
        path = tmp_path / "m.ckpt"
        model.save(path, {"arch": "tiny"})
        record, arrays = load_checkpoint(path)
        clone = Model.load(path)
        assert set(arrays) == clone.parameters().keys() | clone.buffers().keys()
        for name in ("encoder.freqs.age", "trunk.layers.0.w_q.weight", "trunk.layers.0.ffn.fc1.u",
                     "heads.risk.beta.weight", "heads.risk.factor"):
            assert name in arrays, name
        # ISA and the decoders are parts this fine-tuned file leaves out, so its model has no slot for them
        for stray in ("trunk.layers.0.w_q.scale", "trunk.layers.1.w_q.u", "heads.churn.omega", "fields.d",
                      "trunk.layers.0.isa.ffn.fc1.u", "recon.decoders.num1.bias"):
            save_checkpoint(path, {**arrays, stray: np.zeros(2, dtype=np.float32)}, record)
            with pytest.raises(CheckpointError, match=f"array '{stray}' names no attribute"):
                Model.load(path)
        # a parameter, a buffer and a head array: a kept placeholder would serve zeros
        for missing in ("trunk.layers.0.w_q.weight", "trunk.layers.0.w_q.u", "heads.risk.omega"):
            save_checkpoint(path, {k: v for k, v in arrays.items() if k != missing}, record)
            with pytest.raises(CheckpointError, match=f"missing array '{missing}'"):
                Model.load(path)
        for name in ("heads.risk.omega", "heads.risk.factor"):
            save_checkpoint(path, {**arrays, name: arrays[name][1:]}, record)
            with pytest.raises(CheckpointError, match=f"shape mismatch for '{name}'"):
                Model.load(path)

    def test_load_only_reads_and_checks(self, tmp_path, monkeypatch):
        """The loaded model's every array is the file's: the load power-iterates
        nothing and draws from no generator."""
        schema, snaps, model = self.build_trained(tmp_path)
        model.save(tmp_path / "m.ckpt", {})
        iterate = nn.power_iteration
        calls = []
        monkeypatch.setattr(nn, "power_iteration", lambda *args: calls.append(args) or iterate(*args))
        want = model.predict(snaps, "risk")
        Model(schema, RunConfig(**self.kwargs()))  # a fresh model warm-starts each spectral layer
        assert calls

        def no_generator(*args, **kwargs):
            raise AssertionError("Model.load made a random generator")

        calls.clear()
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        clone = Model.load(tmp_path / "m.ckpt")
        monkeypatch.undo()
        assert calls == []
        got = clone.predict(snaps, "risk")
        np.testing.assert_array_equal(got["probs"], want["probs"])
        np.testing.assert_array_equal(got["variance"], want["variance"])

    def test_arguments_are_checked_not_used(self, tmp_path):
        schema, snaps, model = self.build_trained(tmp_path)
        model.save(tmp_path / "m.ckpt", {"arch": "tiny"})
        path = tmp_path / "m.ckpt"
        with pytest.raises(CheckpointError, match="config field 'arch' is 'wide' here but 'tiny'"):
            Model.load(path, schema, {"arch": "wide"})
        with pytest.raises(CheckpointError, match="config field 'extra'"):
            Model.load(path, schema, {"arch": "tiny", "extra": 1})
        with pytest.raises(CheckpointError, match="model field 'd' is 16 here but 8"):
            Model.load(path, schema, d=16)
        # a renamed feature and another vocabulary size: tests/test_cli.py
        with pytest.raises(CheckpointError, match="schema feature 'creatives' field .* is None here"):
            Model.load(path, small_schema(with_assets=False))
        # normalization is not part of the check: the record's is used
        other = small_schema()
        other.get("age").normalization = {"mean": 5.0, "std": 2.0}
        assert Model.load(path, other, {"arch": "tiny"}, **self.kwargs()).schema.get("age").normalization is None

    def test_embed_shape(self, tmp_path):
        schema, snaps, model = self.build_trained(tmp_path)
        emb = model.embed(snaps)
        assert emb.shape == (20, 8)
        assert np.all(np.isfinite(emb))


FIXTURES = Path(__file__).parent / "fixtures"


def predictions(model, rows) -> dict:
    return {task: model.predict(rows, task) for task in model.heads}


def assert_same_predictions(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for task in want:
        for key in ("probs", "variance"):
            np.testing.assert_array_equal(got[task][key], np.asarray(want[task][key]), err_msg=f"{task} {key}")


class TestServedCheckpoint:
    """Format 4: the file of a model with heads holds each head's variance
    factor in place of its precision and leaves out ISA and the decoders."""

    def build_two_heads(self):
        schema = small_schema()
        snaps = random_snapshots(schema, 20, seed=0)
        for snap in snaps:
            snap.labels["churn"] = 1 - snap.labels["risk"]
        model = Model(schema, RunConfig(d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=3))
        finetune_loop(model, snaps, [TaskSpec("risk", 2)],
                      RunConfig(finetune_steps=4, batch_size=8, d_rf=200, seed=0).finetune_config())
        finetune_loop(model, snaps, [TaskSpec("churn", 2)],
                      RunConfig(finetune_steps=2, batch_size=8, d_rf=32, seed=1, linear_probe=True).finetune_config())
        return snaps, model

    def test_version_3_file_loads_predicts_and_resaves_as_version_4(self, tmp_path):
        """A version-3 file written before format 4 (tiny model, two heads of
        d_rf 32: risk fine-tuned for 4 steps, then churn probed for 2), with
        the probabilities and variances its writer's code gave on 12 rows."""
        path = FIXTURES / "v3_two_heads.ckpt"
        assert struct.unpack("<I", path.read_bytes()[4:8]) == (3,)
        want = json.loads((FIXTURES / "v3_two_heads.json").read_text())
        rows = random_snapshots(small_schema(), 12, seed=7)
        model = Model.load(path)
        assert model.parts == PARTS and list(model.heads) == ["risk", "churn"]
        assert_same_predictions(predictions(model, rows), want)
        model.save(tmp_path / "v4.ckpt", {"arch": "tiny"})
        record, arrays = load_checkpoint(tmp_path / "v4.ckpt")
        assert struct.unpack("<I", (tmp_path / "v4.ckpt").read_bytes()[4:8]) == (4,)
        assert record["parts"] == ["encoder", "trunk", "heads"]
        assert {"heads.risk.factor", "heads.churn.factor"} <= arrays.keys()
        assert_same_predictions(predictions(Model.load(tmp_path / "v4.ckpt"), rows), want)

    def test_load_and_calibrated_predict_run_no_factorisation(self, tmp_path, monkeypatch):
        snaps, model = self.build_two_heads()
        want = predictions(model, snaps)
        model.save(tmp_path / "served.ckpt", {})
        fresh = Model(small_schema(), RunConfig(d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8))
        fresh.save(tmp_path / "pre.ckpt", {})

        def refuse(*args):
            raise AssertionError("a load or a calibrated answer factorised")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        clone = Model.load(tmp_path / "served.ckpt")
        got = predictions(clone, snaps)
        assert all(got[task]["calibrated"] for task in got)
        assert_same_predictions(got, want)
        # what each file holds
        names = load_checkpoint(tmp_path / "served.ckpt")[1].keys()
        assert not [n for n in names if ".isa." in n or n.startswith("recon.") or n.endswith(".precision")]
        assert clone.parts == ("encoder", "trunk", "heads") and clone.recon is None
        pre = Model.load(tmp_path / "pre.ckpt")
        names = load_checkpoint(tmp_path / "pre.ckpt")[1].keys()
        assert pre.parts == PARTS and names == pre.parameters().keys() | pre.buffers().keys()
        assert [n for n in names if ".isa." in n] and [n for n in names if n.startswith("recon.decoders.")]

    def test_save_reuses_cached_panels_and_writes_the_same_bytes(self, tmp_path):
        snaps, model = self.build_two_heads()
        model.save(tmp_path / "a.ckpt", {})  # factors made as they are written
        assert all(head.factor is None for head in model.heads.values())  # and not kept
        model.predict(snaps, "risk")  # makes risk's factor, which the next save writes
        assert model.heads["risk"].factor is not None
        model.save(tmp_path / "b.ckpt", {})
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        clone = Model.load(tmp_path / "a.ckpt")
        clone.predict(snaps, "risk")  # panels as views of the file's factor
        clone.save(tmp_path / "c.ckpt", {})
        assert (tmp_path / "c.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()

    def test_head_keeps_no_private_state(self, tmp_path):
        # every array a calibrated answer reads is a slot the walk names
        snaps, model = self.build_two_heads()  # init and fit
        model.predict(snaps, "risk")
        model.save(tmp_path / "m.ckpt", {})
        clone = Model.load(tmp_path / "m.ckpt")
        clone.predict(snaps, "risk")
        for head in (*model.heads.values(), *clone.heads.values()):
            assert [k for k in vars(head) if k.startswith("_")] == []

    def test_served_model_refuses_pretraining(self, tmp_path):
        snaps, model = self.build_two_heads()
        model.save(tmp_path / "served.ckpt", {})
        clone = Model.load(tmp_path / "served.ckpt")
        x, mask = clone.encoder.assemble_tokens(snaps[:4])
        with pytest.raises(ConfigError, match="part 'isa'"):
            clone.trunk(x, mask, mode="pretrain")
        clone.trunk(x, mask, mode="finetune")
        with pytest.raises(ConfigError, match="parts 'isa' and 'recon'"):
            pretrain_loop(clone, snaps, RunConfig(pretrain_steps=1, batch_size=8).pretrain_config())

    def test_served_model_fine_tunes_as_a_probe_and_as_a_full_run(self, tmp_path):
        snaps, model = self.build_two_heads()
        model.save(tmp_path / "served.ckpt", {})
        for snap in snaps:
            snap.labels["tier"] = int(snap.labels["risk"] == 0)
        probe = Model.load(tmp_path / "served.ckpt")
        before = predictions(probe, snaps)
        cfg = RunConfig(finetune_steps=2, batch_size=8, d_rf=32, seed=2, linear_probe=True).finetune_config()
        finetune_loop(probe, snaps, [TaskSpec("tier", 2)], cfg)
        after = predictions(probe, snaps)
        assert_same_predictions({t: after[t] for t in before}, before)
        full = Model.load(tmp_path / "served.ckpt")
        cfg = RunConfig(finetune_steps=2, batch_size=8, d_rf=32, seed=2).finetune_config()
        finetune_loop(full, snaps, [TaskSpec("risk", 2), TaskSpec("churn", 2)], cfg)
        for name, fitted in (("probe", probe), ("full", full)):
            fitted.save(tmp_path / f"{name}.ckpt", {})
            reloaded = Model.load(tmp_path / f"{name}.ckpt")
            assert_same_predictions(predictions(reloaded, snaps), predictions(fitted, snaps))


def state_digest(module, skip=()) -> str:
    """sha256 over every parameter and buffer of `module` in walk order:
    each one's path, dtype, shape and bytes."""
    digest = hashlib.sha256()
    for path, _, _, value in module.named_state():
        if value is None or path in skip:
            continue
        array = value.data if isinstance(value, Tensor) else value
        digest.update(f"{path} {array.dtype} {array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestFreshInitialisation:
    """Fixed digests of what a fresh model and a new head draw: `Model.load`
    builds the same module tree from placeholders, and a fresh draw must not
    change with it."""

    @pytest.mark.parametrize("seed,want", [
        (0, "95df7966b3f15f72fb2c747b19fa09c563746bbc072666f682b7b599bb1b5769"),
        (7, "a0a2486b31bc56b6b450a2497577d8d67b77b638917db42547e95a973142e8dc"),
    ])
    def test_model_digest(self, seed, want):
        model = Model(small_schema(), RunConfig(d=8, n_layers=2, heads=2, ffn_dim=16, d_prime=8, seed=seed))
        assert state_digest(model) == want

    def test_new_head_digest(self):
        schema = small_schema()
        model = Model(schema, RunConfig(d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=3))
        cfg = RunConfig(finetune_steps=0, batch_size=64, d_rf=32, seed=5).finetune_config()
        finetune_loop(model, random_snapshots(schema, 12, seed=0), [TaskSpec("risk", 2)], cfg)
        # the precision is fitted by the covariance pass, not drawn
        assert state_digest(model.heads["risk"], skip={"precision"}) == (
            "44be50bb8e4c3ba281640e17b5170051b067d68449f99301cd64a8a53b771e62")


def answers_digest(answers) -> str:
    """sha256 over the probs and variance bytes of calibrated answers."""
    digest = hashlib.sha256()
    for answer in answers:
        assert answer["calibrated"]
        digest.update(answer["probs"].tobytes())
        digest.update(answer["variance"].tobytes())
    return digest.hexdigest()


def test_served_answers_are_pinned(tmp_path):
    # a loaded model's answers run every no_grad weight path: spectral trunk
    # layers, the plain Mlp projectors of the embedding features and the
    # head's plain beta
    schema = small_schema()
    snaps = random_snapshots(schema, 40, seed=8, missing_rate=0.1)
    model = Model(schema, RunConfig(d=8, n_layers=2, heads=2, ffn_dim=16, d_prime=8, seed=8))
    cfg = RunConfig(finetune_steps=4, batch_size=16, d_rf=32, seed=8).finetune_config()
    finetune_loop(model, snaps, [TaskSpec("risk", 2)], cfg)
    model.save(tmp_path / "m.ckpt", {})
    served = Model.load(tmp_path / "m.ckpt")
    assert answers_digest(served.predict([s], "risk") for s in snaps[:8]) == (
        "8699d3dc3b77b0c80de4488a253bcc509036b302ee255094250de9199bb6811c")
    assert answers_digest([served.predict(snaps, "risk")]) == (
        "c617b6b69fda7cb91cb1831cefde050274c2afebd905d11b38edf3aea5402673")


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

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_fields_rejected(self, field, value, tmp_path):
        # json.loads reads Infinity and NaN; an infinite initial_lr trained
        # until the first non-finite loss
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            RunConfig.from_dict({field: value})
        (tmp_path / "c.json").write_text(json.dumps({field: value}))
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            RunConfig.load(tmp_path / "c.json")

    def test_json_round_trip(self, tmp_path):
        cfg = RunConfig(d=16, heads=4, seed=9)
        cfg.save(tmp_path / "c.json")
        loaded = RunConfig.load(tmp_path / "c.json")
        assert loaded == cfg

    def test_a_float_field_takes_an_int_and_a_bool_field_only_a_bool(self):
        assert RunConfig.from_dict({"gp_ridge": 1, "initial_lr": 0}).gp_ridge == 1
        for key in ("linear_probe", "spectral_norm"):
            with pytest.raises(ConfigError, match=f"{key} must be of type bool"):
                RunConfig.from_dict({key: 1})

    def test_unknown_key_rejected(self):
        # threads and activation were fields once; nothing read them
        for key in ("bogus", "threads", "activation"):
            with pytest.raises(ConfigError, match="unknown"):
                RunConfig.from_dict({"d": 8, key: 1})

    def test_invalid_json_rejected(self, tmp_path):
        (tmp_path / "c.json").write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.load(tmp_path / "c.json")

    def test_default_stage_records(self):
        # the records bench/workloads.py receives and replaces fields on
        pretrain = PretrainConfig(
            steps=0, batch_size=256,
            augment=AugmentConfig(cutmix_swap_prob=0.2, mixup_alpha=0.8, seed=0),
            weights=LossWeights(num=1.0, ce=1.0, mcat=1.0, con=1.0, emb=1.0, memb=1.0, tau=0.1),
            schedule=CosineWarmupSchedule(initial_lr=5e-5, warmup_target_multiplier=10.0, warmup_steps=100,
                                          cosine_alpha=0.1, decay_steps=10_000),
            weight_decay=0.0, seed=0,
        )
        finetune = FinetuneConfig(
            steps=500, batch_size=256,
            schedule=CosineWarmupSchedule(initial_lr=5e-5, warmup_target_multiplier=2.0, warmup_steps=100,
                                          cosine_alpha=0.1, decay_steps=10_000),
            weight_decay=0.0, d_rf=1024, length_scale=2.0, ridge=1.0, linear_probe=False, seed=0,
            eval_every=50, patience=10,
        )
        assert bm.pretrain_config(RunConfig()) == RunConfig().pretrain_config() == pretrain
        assert bm.finetune_config(RunConfig()) == RunConfig().finetune_config() == finetune

    @pytest.mark.parametrize("record", [PretrainConfig, FinetuneConfig, AugmentConfig, CosineWarmupSchedule])
    def test_stage_records_declare_no_run_default(self, record):
        # a stage record comes from a RunConfig, or names every value
        with pytest.raises(TypeError):
            record()

    def test_model_record_is_the_model_kwargs(self):
        cfg = RunConfig(d=8, heads=2, n_layers=1, ffn_dim=16, d_prime=8, seed=3)
        record = cfg.model_record()
        assert set(record) == {
            "d", "n_layers", "heads", "ffn_dim", "d_prime", "spectral_norm", "asset_criterion", "seed"
        }
        assert Model(small_schema(), cfg).fields == record
        assert Model(small_schema(), cfg).trunk.cfg.ffn_dim == 16
        trained = RunConfig(**{**cfg.to_dict(), "pretrain_steps": 200, "finetune_steps": 3, "batch_size": 8})
        assert config_digest(trained.model_record()) == config_digest(record)
        assert config_digest(RunConfig(**{**cfg.to_dict(), "seed": 4}).model_record()) != config_digest(record)
