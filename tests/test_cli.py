import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_snapshots, small_schema
from tabfusion.cli import EXIT_CONFIG, EXIT_DATA, EXIT_MISSING_FILE, EXIT_OK, main
from tabfusion.config import RunConfig
from tabfusion.data import TaskSpec, load_dataset, save_dataset
from tabfusion.finetune import predict_scores
from tabfusion.metrics import auprc, auroc, ece
from tabfusion.model import Model


@pytest.fixture
def workspace(tmp_path):
    """Small dataset + config on disk, ready for CLI runs."""
    schema = small_schema(with_assets=True)
    snaps = random_snapshots(schema, 24, seed=0, label_rule=lambda v, rng: int(v["age"] > 0))
    out_schema = save_dataset(snaps, schema, tmp_path / "data.csv", tmp_path / "emb.bin")
    out_schema.save(tmp_path / "schema.json")
    cfg = RunConfig(
        d=8,
        heads=2,
        n_layers=1,
        ffn_dim=16,
        d_prime=8,
        batch_size=8,
        pretrain_steps=2,
        finetune_steps=4,
        d_rf=32,
        warmup_steps=2,
        decay_steps=10,
        seed=1,
    )
    cfg.save(tmp_path / "config.json")
    return tmp_path


def base_args(ws):
    return [
        "--config", str(ws / "config.json"),
        "--schema", str(ws / "schema.json"),
        "--data", str(ws / "data.csv"),
        "--embeddings", str(ws / "emb.bin"),
    ]


def run_finetune(ws):
    rc = main(
        ["--config", str(ws / "config.json"), "finetune"]
        + base_args(ws)[2:]
        + ["--task", "risk", "--out-checkpoint", str(ws / "model.ckpt")]
    )
    assert rc == EXIT_OK
    return ws / "model.ckpt"


class TestBasics:
    def test_no_subcommand_is_config_error(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_dry_run_touches_nothing(self, workspace, capsys):
        rc = main(
            ["--config", str(workspace / "config.json"), "--dry-run", "pretrain"]
            + base_args(workspace)[2:]
            + ["--out-checkpoint", str(workspace / "x.ckpt")]
        )
        assert rc == EXIT_OK
        assert "dry-run ok" in capsys.readouterr().out
        assert not (workspace / "x.ckpt").exists()

    def test_missing_schema_file(self, workspace, capsys):
        rc = main(
            ["pretrain", "--schema", str(workspace / "nope.json"),
             "--data", str(workspace / "data.csv"),
             "--out-checkpoint", str(workspace / "x.ckpt")]
        )
        assert rc == EXIT_MISSING_FILE
        assert "error:missing-file" in capsys.readouterr().err

    def test_bad_config_file(self, workspace, capsys):
        (workspace / "bad.json").write_text("{broken")
        rc = main(
            ["--config", str(workspace / "bad.json"), "pretrain"]
            + base_args(workspace)[2:]
            + ["--out-checkpoint", str(workspace / "x.ckpt")]
        )
        assert rc == EXIT_CONFIG
        assert "error:config" in capsys.readouterr().err

    def test_unknown_config_key(self, workspace, capsys):
        (workspace / "bad.json").write_text('{"mystery_knob": 3}')
        rc = main(
            ["--config", str(workspace / "bad.json"), "pretrain"]
            + base_args(workspace)[2:]
            + ["--out-checkpoint", str(workspace / "x.ckpt")]
        )
        assert rc == EXIT_CONFIG



def rewrite_cell(ws, row, column, text):
    """Put `text` in `column` of file row `row` (the header is row 1) of data.csv."""
    path = ws / "data.csv"
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row - 1][rows[0].index(column)] = text
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TestMalformedData:
    """Malformed cells exit 4 naming the row and column; these used to exit 1
    with a bare int()/float() message, or (labels) pass the loader."""

    @pytest.mark.parametrize(
        "column, text",
        [
            ("creatives", "zz:1:2"),
            ("creatives", "2:abc:2"),
            ("page_vec", "abc"),
            ("label:risk", "7"),
            ("label:risk", "-1"),
            ("label:risk", "yes"),
        ],
    )
    def test_dry_run_exits_4(self, workspace, capsys, column, text):
        rewrite_cell(workspace, 5, column, text)
        rc = main(
            ["--config", str(workspace / "config.json"), "--dry-run", "pretrain"]
            + base_args(workspace)[2:]
            + ["--out-checkpoint", str(workspace / "x.ckpt")]
        )
        assert rc == EXIT_DATA
        assert f"(row 5, feature '{column}')" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["finetune", "pretrain"])
    @pytest.mark.parametrize("text", ["nan", "-inf"])
    def test_training_on_a_non_finite_numeric_exits_4(self, workspace, capsys, command, text):
        # float() accepts these: the column normalized to NaN, and training
        # exited 1 naming a gradient (finetune) or a step (pretrain)
        rewrite_cell(workspace, 5, "age", text)
        extra = ["--task", "risk"] if command == "finetune" else ["--steps", "2"]
        rc = main(
            ["--config", str(workspace / "config.json"), command]
            + base_args(workspace)[2:]
            + extra + ["--out-checkpoint", str(workspace / "model.ckpt")]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, err
        assert err.startswith("error:data: non-finite value") and "(row 5, feature 'age')" in err
        assert not (workspace / "model.ckpt").exists()

    def test_pretrain_on_a_non_finite_asset_timestamp_exits_4(self, workspace, capsys):
        # float() accepts these: the cell loaded, and the recency pick of its
        # assets depended on their order
        rewrite_cell(workspace, 5, "creatives", "0:nan:0;2:5:0;4:3:0;6:inf:0")
        rc = main(
            ["--config", str(workspace / "config.json"), "pretrain"]
            + base_args(workspace)[2:]
            + ["--steps", "2", "--out-checkpoint", str(workspace / "model.ckpt")]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, err
        assert err.startswith("error:data: non-finite value") and "(row 5, feature 'creatives')" in err
        assert not (workspace / "model.ckpt").exists()

    def test_finetune_on_a_non_finite_sidecar_vector_exits_4(self, workspace, capsys):
        # the NaN vector loaded, and training exited 1 naming a numeric
        # feature's parameter, not the embedding
        with (workspace / "data.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        offset = int(rows[4][rows[0].index("page_vec")])  # file row 5
        sidecar = np.fromfile(workspace / "emb.bin", dtype="<f4")
        sidecar[offset + 1] = np.nan
        sidecar.tofile(workspace / "emb.bin")
        rc = main(
            ["--config", str(workspace / "config.json"), "finetune"]
            + base_args(workspace)[2:]
            + ["--task", "risk", "--out-checkpoint", str(workspace / "model.ckpt")]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, err
        assert "non-finite" in err and "(row 5, feature 'page_vec')" in err
        assert not (workspace / "model.ckpt").exists()

    def test_finetune_on_an_out_of_range_label_exits_4(self, workspace, capsys):
        # label 7 on a 2-class task died in focal_loss with an IndexError (exit 1)
        rewrite_cell(workspace, 5, "label:risk", "7")
        rc = main(
            ["--config", str(workspace / "config.json"), "finetune"]
            + base_args(workspace)[2:]
            + ["--task", "risk", "--out-checkpoint", str(workspace / "model.ckpt")]
        )
        assert rc == EXIT_DATA
        assert "label 7 outside [0, 2) (row 5, feature 'label:risk')" in capsys.readouterr().err
        assert not (workspace / "model.ckpt").exists()

    def test_finetune_on_an_undeclared_task_with_an_out_of_range_label_exits_4(self, workspace, capsys):
        # the schema declares only risk; churn is trained as binary, and its
        # label 7 used to exit 1 from finetune_loop naming no row
        path = workspace / "data.csv"
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        rows[0].append("label:churn")
        for i, row in enumerate(rows[1:]):
            row.append(str(i % 2))
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        rewrite_cell(workspace, 7, "label:churn", "7")
        rc = main(
            ["--config", str(workspace / "config.json"), "finetune"]
            + base_args(workspace)[2:]
            + ["--task", "churn", "--out-checkpoint", str(workspace / "model.ckpt")]
        )
        assert rc == EXIT_DATA
        assert "label 7 outside [0, 2) (row 7, feature 'label:churn')" in capsys.readouterr().err
        assert not (workspace / "model.ckpt").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: "{broken", "is not valid JSON"),
            (lambda d: {"tasks": d["tasks"]}, "with a 'features' list"),
            (lambda d: {"features": d["features"], "task": d["tasks"]}, "with a 'features' list"),
            (lambda d: {**d, "features": [{**d["features"][0], "colour": "red"}]}, "has unknown keys ['colour']"),
            (lambda d: {**d, "tasks": [{"name": "risk", "classes": 2, "gamma": 1.0}]}, "has unknown keys ['gamma']"),
            (lambda d: {**d, "tasks": [{"name": "risk", "classes": "2"}]}, "integer classes >= 2, not '2'"),
            (lambda d: {**d, "tasks": [{"name": "risk", "classes": 1}]}, "integer classes >= 2, not 1"),
            (lambda d: {**d, "tasks": [{"name": "risk", "classes": 2}] * 2}, "duplicate task names"),
        ],
        ids=["invalid-json", "no-features", "unknown-schema-key", "unknown-feature-key", "task-gamma", "string-classes",
             "one-class", "duplicate-task"],
    )
    def test_finetune_on_a_malformed_schema_exits_4(self, workspace, capsys, edit, message):
        # each exited 1 with error:runtime or a raw TypeError traceback, but
        # an unknown top-level key, which dropped the schema's tasks unseen,
        # and a repeated task, whose last entry won unseen
        path = workspace / "schema.json"
        schema = edit(json.loads(path.read_text()))
        path.write_text(schema if isinstance(schema, str) else json.dumps(schema))
        rc = main(
            ["--config", str(workspace / "config.json"), "finetune"]
            + base_args(workspace)[2:]
            + ["--task", "risk", "--out-checkpoint", str(workspace / "model.ckpt")]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, err
        assert err.startswith("error:data: ") and message in err
        assert not (workspace / "model.ckpt").exists()

    def test_finetune_without_labeled_rows_exits_4(self, workspace, capsys):
        # finetune_loop raised a plain ValueError: exit 1 with error:runtime
        for row in range(2, 26):
            rewrite_cell(workspace, row, "label:risk", "")
        rc = main(
            ["--config", str(workspace / "config.json"), "finetune"]
            + base_args(workspace)[2:]
            + ["--task", "risk", "--out-checkpoint", str(workspace / "model.ckpt")]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, err
        assert err.startswith("error:data: ") and "no labeled examples for task 'risk'" in err
        assert not (workspace / "model.ckpt").exists()

    @pytest.mark.parametrize("rows", [0, 1])
    def test_pretrain_on_fewer_than_two_rows_exits_4(self, workspace, capsys, rows):
        # no rows exited 1 from a zero-size numpy reduction, one row from inside info_nce
        path = workspace / "data.csv"
        with path.open(newline="") as fh:
            kept = list(csv.reader(fh))[: 1 + rows]
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(kept)
        rc = main(
            ["--config", str(workspace / "config.json"), "pretrain"]
            + base_args(workspace)[2:]
            + ["--out-checkpoint", str(workspace / "pre.ckpt")]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, err
        assert err.startswith("error:data: ") and f"at least 2 rows, got {rows}" in err
        assert not (workspace / "pre.ckpt").exists()

    def test_pretrain_with_batch_size_1_exits_2(self, workspace, capsys):
        # exited 1 from inside info_nce; fine-tuning still accepts batch 1
        cfg = RunConfig.load(workspace / "config.json")
        cfg.batch_size = 1
        cfg.save(workspace / "config.json")
        rc = main(
            ["--config", str(workspace / "config.json"), "pretrain"]
            + base_args(workspace)[2:]
            + ["--out-checkpoint", str(workspace / "pre.ckpt")]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG, err
        assert err.startswith("error:config: ") and "batch_size must be at least 2, got 1" in err
        assert not (workspace / "pre.ckpt").exists()
        run_finetune(workspace)


class TestTrainingCommands:
    def test_pretrain_writes_checkpoint_and_manifest(self, workspace):
        rc = main(
            ["--config", str(workspace / "config.json"), "pretrain"]
            + base_args(workspace)[2:]
            + ["--out-checkpoint", str(workspace / "pre.ckpt"),
               "--loss-log", str(workspace / "loss.log")]
        )
        assert rc == EXIT_OK
        assert (workspace / "pre.ckpt").exists()
        assert "total=" in (workspace / "loss.log").read_text()
        manifest = json.loads((workspace / "pre.ckpt.manifest.json").read_text())
        assert set(manifest["inputs"]) == {"schema", "data"}
        assert manifest["config"]["d"] == 8

    def test_finetune_then_predict_deterministic(self, workspace):
        ckpt = run_finetune(workspace)
        common = (
            ["--config", str(workspace / "config.json"), "predict"]
            + base_args(workspace)[2:]
            + ["--checkpoint", str(ckpt), "--task", "risk"]
        )
        assert main(common + ["--out", str(workspace / "p1.jsonl")]) == EXIT_OK
        assert main(common + ["--out", str(workspace / "p2.jsonl")]) == EXIT_OK
        a = (workspace / "p1.jsonl").read_bytes()
        assert a == (workspace / "p2.jsonl").read_bytes()
        lines = [json.loads(l) for l in a.decode().splitlines()]
        assert len(lines) == 24
        for rec in lines:
            assert rec["calibrated"] is True
            assert abs(sum(rec["probs"]) - 1.0) < 1e-6
            assert rec["variance"] >= 0
        # the file is Model.predict's answer, rounded as written
        model = Model.load(ckpt)
        _, snaps = load_dataset(workspace / "data.csv", model.schema, workspace / "emb.bin")
        want = model.predict(snaps, "risk")
        assert [rec["probs"] for rec in lines] == [[round(float(v), 8) for v in p] for p in want["probs"]]
        assert [rec["variance"] for rec in lines] == [round(float(v), 8) for v in want["variance"]]

    def test_predict_unknown_task(self, workspace, capsys):
        ckpt = run_finetune(workspace)
        rc = main(
            ["--config", str(workspace / "config.json"), "predict"]
            + base_args(workspace)[2:]
            + ["--checkpoint", str(ckpt), "--task", "ghost", "--out", str(workspace / "p.jsonl")]
        )
        assert rc == EXIT_CONFIG
        assert "no head" in capsys.readouterr().err

    def test_eval_unknown_task(self, workspace, capsys):
        ckpt = run_finetune(workspace)
        rc = main(
            ["--config", str(workspace / "config.json"), "eval"]
            + base_args(workspace)[2:]
            + ["--checkpoint", str(ckpt), "--task", "ghost"]
        )
        assert rc == EXIT_CONFIG
        assert "no head for task 'ghost'" in capsys.readouterr().err

    def test_eval_without_labeled_rows(self, workspace, capsys):
        ckpt = run_finetune(workspace)
        schema = small_schema(with_assets=True)
        snaps = random_snapshots(schema, 5, seed=2)
        for s in snaps:
            s.labels["risk"] = None
        save_dataset(snaps, schema, workspace / "unlabeled.csv", workspace / "unlabeled.bin")
        rc = main(
            ["--config", str(workspace / "config.json"), "eval",
             "--schema", str(workspace / "schema.json"), "--data", str(workspace / "unlabeled.csv"),
             "--embeddings", str(workspace / "unlabeled.bin"),
             "--checkpoint", str(ckpt), "--task", "risk"]
        )
        assert rc == EXIT_DATA
        assert "labeled for task 'risk'" in capsys.readouterr().err

    def test_eval_on_one_class_is_a_data_error(self, workspace, capsys):
        # auroc raised "needs both classes present": exit 1 with error:runtime
        ckpt = run_finetune(workspace)
        schema = small_schema(with_assets=True)
        snaps = random_snapshots(schema, 5, seed=2, label_rule=lambda v, rng: 0)
        save_dataset(snaps, schema, workspace / "negatives.csv", workspace / "negatives.bin")
        rc = main(
            ["--config", str(workspace / "config.json"), "eval",
             "--schema", str(workspace / "schema.json"), "--data", str(workspace / "negatives.csv"),
             "--embeddings", str(workspace / "negatives.bin"),
             "--checkpoint", str(ckpt), "--task", "risk"]
        )
        assert rc == EXIT_DATA
        assert "error:data: the 5 rows labeled for task 'risk' are all one class" in capsys.readouterr().err

    def test_eval_reports_metrics(self, workspace, capsys):
        ckpt = run_finetune(workspace)
        rc = main(
            ["--config", str(workspace / "config.json"), "eval"]
            + base_args(workspace)[2:]
            + ["--checkpoint", str(ckpt), "--task", "risk", "--out", str(workspace / "m.json")]
        )
        assert rc == EXIT_OK
        result = json.loads((workspace / "m.json").read_text())
        assert set(result) >= {"auroc", "auprc", "ece", "n"}
        assert 0.0 <= result["auroc"] <= 1.0

    def test_eval_scores_a_multi_class_task_class_1_against_the_rest(self, tmp_path, capsys):
        # raw labels in {0, 1, 2} made auroc raise ("labels must be 0 or 1"): exit 1
        schema = small_schema(with_assets=True)
        schema.tasks[0] = TaskSpec("risk", 3)
        snaps = random_snapshots(schema, 30, seed=0, label_rule=lambda v, rng: int(rng.integers(3)))
        save_dataset(snaps, schema, tmp_path / "data.csv", tmp_path / "emb.bin").save(tmp_path / "schema.json")
        RunConfig(d=8, heads=2, n_layers=1, ffn_dim=16, d_prime=8, batch_size=8, finetune_steps=3, d_rf=32,
                  warmup_steps=2, decay_steps=10, seed=1).save(tmp_path / "config.json")
        ckpt = run_finetune(tmp_path)
        rc = main(["--config", str(tmp_path / "config.json"), "eval"] + base_args(tmp_path)[2:]
                  + ["--checkpoint", str(ckpt), "--task", "risk", "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_OK, capsys.readouterr().err
        result = json.loads((tmp_path / "m.json").read_text())
        model = Model.load(ckpt)
        rows = load_dataset(tmp_path / "data.csv", model.schema, tmp_path / "emb.bin")[1]
        scores = predict_scores(model, rows, "risk")
        y = np.array([s.labels["risk"] for s in rows])
        assert set(y.tolist()) == {0, 1, 2} and result["n"] == 30
        assert (result["auroc"], result["auprc"], result["ece"]) == (
            auroc(scores, y == 1), auprc(scores, y == 1), ece(scores, y == 1))

    def test_export_embeddings(self, workspace):
        ckpt = run_finetune(workspace)
        rc = main(
            ["--config", str(workspace / "config.json"), "export-embeddings"]
            + base_args(workspace)[2:]
            + ["--checkpoint", str(ckpt), "--out-prefix", str(workspace / "emb_out"),
               "--pca2d", "--task", "risk"]
        )
        assert rc == EXIT_OK
        raw = np.fromfile(workspace / "emb_out.f32", dtype="<f4")
        assert raw.size == 24 * 8
        index = (workspace / "emb_out.index.txt").read_text().splitlines()
        assert index[0].startswith("# n=24")
        pca = np.loadtxt(workspace / "emb_out.pca2d.txt")
        assert pca.shape == (24, 2)

    def test_select_features(self, workspace):
        rc = main(
            ["--config", str(workspace / "config.json"), "select-features"]
            + base_args(workspace)[2:]
            + ["--task", "risk", "--tolerance", "0.05",
               "--out-schema", str(workspace / "reduced.json"),
               "--trace", str(workspace / "trace.txt")]
        )
        assert rc == EXIT_OK
        from tabfusion.data import FeatureSchema

        reduced = FeatureSchema.load(workspace / "reduced.json")
        assert 1 <= len(reduced) <= 6
        assert "baseline" in (workspace / "trace.txt").read_text()


    def select(self, ws, data, emb, tag):
        return main(
            ["--config", str(ws / "config.json"), "select-features", "--schema", str(ws / "schema.json"),
             "--data", str(data), "--embeddings", str(emb), "--task", "risk", "--tolerance", "0.05",
             "--out-schema", str(ws / f"{tag}.json"), "--trace", str(ws / f"{tag}.txt")]
        )

    def test_select_features_scores_only_labeled_rows(self, workspace):
        """Unlabeled rows interleaved with the workspace's change no trace line
        (scored, their NaN labels zeroed every importance)."""
        schema = small_schema(with_assets=True)
        labeled = random_snapshots(schema, 24, seed=0, label_rule=lambda v, rng: int(v["age"] > 0))
        unlabeled = random_snapshots(schema, 12, seed=3)
        for s in unlabeled:
            s.labels["risk"] = None
        mixed = [row for pair in zip(labeled, unlabeled) for row in pair] + labeled[len(unlabeled):]
        save_dataset(mixed, schema, workspace / "mixed.csv", workspace / "mixed.bin")
        assert self.select(workspace, workspace / "data.csv", workspace / "emb.bin", "labeled") == EXIT_OK
        assert self.select(workspace, workspace / "mixed.csv", workspace / "mixed.bin", "mixed") == EXIT_OK
        assert (workspace / "mixed.txt").read_text() == (workspace / "labeled.txt").read_text()

    def test_select_features_without_labeled_rows(self, workspace, capsys):
        schema = small_schema(with_assets=True)
        snaps = random_snapshots(schema, 12, seed=2)
        for s in snaps:
            s.labels["risk"] = None
        save_dataset(snaps, schema, workspace / "unlabeled.csv", workspace / "unlabeled.bin")
        assert self.select(workspace, workspace / "unlabeled.csv", workspace / "unlabeled.bin", "none") == EXIT_DATA
        assert "labeled for task 'risk'" in capsys.readouterr().err

    def test_select_features_on_one_labeled_row_is_a_data_error(self, workspace, capsys):
        # the one row is the whole validation split: auroc raised, exit 1
        schema = small_schema(with_assets=True)
        snaps = random_snapshots(schema, 6, seed=2, label_rule=lambda v, rng: 1)
        for s in snaps[1:]:
            s.labels["risk"] = None
        save_dataset(snaps, schema, workspace / "one.csv", workspace / "one.bin")
        assert self.select(workspace, workspace / "one.csv", workspace / "one.bin", "one") == EXIT_DATA
        assert "error:data: the 1 validation rows for task 'risk' are all one class" in capsys.readouterr().err


class TestSelfDescribingCheckpoint:
    def predict_lines(self, ws, ckpt, data, schema="schema.json"):
        out = ws / f"{Path(data).stem}.jsonl"
        rc = main(
            ["--config", str(ws / "config.json"), "predict", "--schema", str(ws / schema), "--data", str(data),
             "--embeddings", str(ws / "emb.bin"), "--checkpoint", str(ckpt), "--task", "risk", "--out", str(out)]
        )
        assert rc == EXIT_OK
        return out.read_text().splitlines()

    def test_predict_normalizes_with_training_statistics(self, workspace):
        # a schema file without normalization: training computes it from data.csv,
        # and a one-row file must be scaled by those statistics, not its own
        raw = json.loads((workspace / "schema.json").read_text())
        for f in raw["features"]:
            f.pop("normalization", None)
        (workspace / "schema.json").write_text(json.dumps(raw))
        ckpt = run_finetune(workspace)
        full = self.predict_lines(workspace, ckpt, workspace / "data.csv")
        rows = (workspace / "data.csv").read_text().splitlines()
        (workspace / "one.csv").write_text("\n".join([rows[0], rows[6]]) + "\n")
        assert self.predict_lines(workspace, ckpt, workspace / "one.csv") == [full[5]]
        assert Model.load(ckpt).schema.get("age").normalization["std"] != 1.0

    @pytest.mark.parametrize("feature,key,value", [("age", "name", "years"), ("region", "vocab_size", 5)])
    def test_predict_refuses_another_schema(self, workspace, capsys, feature, key, value):
        ckpt = run_finetune(workspace)
        raw = json.loads((workspace / "schema.json").read_text())
        next(f for f in raw["features"] if f["name"] == feature)[key] = value
        (workspace / "other.json").write_text(json.dumps(raw))
        rc = main(
            ["--config", str(workspace / "config.json"), "predict", "--schema", str(workspace / "other.json")]
            + base_args(workspace)[4:]
            + ["--checkpoint", str(ckpt), "--task", "risk", "--out", str(workspace / "p.jsonl")]
        )
        assert rc == 1
        assert f"schema feature '{feature}' field '{key}' is {value!r} here" in capsys.readouterr().err

    def test_gp_prior_survives_reload(self, workspace):
        base = RunConfig.load(workspace / "config.json").to_dict()
        RunConfig.from_dict({**base, "gp_ridge": 0.25, "gp_length_scale": 1.5}).save(workspace / "config.json")
        head = Model.load(run_finetune(workspace)).heads["risk"]
        assert (head.ridge, head.length_scale, head.d_rf, head.kappa) == (0.25, 1.5, 32, math.pi / 8)

    def add_churn(self, tmp_path, linear_probe):
        """Fine-tune risk, then churn on that checkpoint; (rc, risk.ckpt, both.ckpt)."""
        schema = small_schema(with_assets=True)
        schema.tasks.append(TaskSpec("churn", 2))
        snaps = random_snapshots(schema, 24, seed=0)
        save_dataset(snaps, schema, tmp_path / "data.csv", tmp_path / "emb.bin").save(tmp_path / "schema.json")
        RunConfig(d=8, heads=2, n_layers=1, ffn_dim=16, d_prime=8, batch_size=8, finetune_steps=3, d_rf=32,
                  warmup_steps=2, decay_steps=10, seed=1, linear_probe=linear_probe).save(tmp_path / "config.json")
        first, second = tmp_path / "risk.ckpt", tmp_path / "both.ckpt"
        for task, extra, out in (("risk", [], first), ("churn", ["--init-checkpoint", str(first)], second)):
            rc = main(["--config", str(tmp_path / "config.json"), "finetune"] + base_args(tmp_path)[2:]
                      + ["--task", task, *extra, "--out-checkpoint", str(out)])
        return rc, first, second

    def test_finetune_adds_a_task_to_a_checkpoint(self, tmp_path, capsys):
        # a checkpoint with a risk head, probed on churn: risk answers as it did
        rc, first, second = self.add_churn(tmp_path, linear_probe=True)
        assert rc == EXIT_OK, capsys.readouterr().err
        before, after = Model.load(first), Model.load(second)
        assert set(after.heads) == {"risk", "churn"}
        rows = load_dataset(tmp_path / "data.csv", after.schema, tmp_path / "emb.bin")[1]
        want, got = before.predict(rows, "risk"), after.predict(rows, "risk")
        np.testing.assert_array_equal(got["probs"], want["probs"])
        np.testing.assert_array_equal(got["variance"], want["variance"])

    def test_manifest_digests_every_input_including_the_starting_checkpoint(self, tmp_path, capsys):
        rc, first, second = self.add_churn(tmp_path, linear_probe=True)
        assert rc == EXIT_OK, capsys.readouterr().err
        inputs = json.loads(Path(str(second) + ".manifest.json").read_text())["inputs"]
        files = {"schema": "schema.json", "data": "data.csv", "init_checkpoint": first.name}
        assert inputs == {k: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for k, name in files.items()}

    def test_finetune_refuses_to_train_the_backbone_under_another_head(self, tmp_path, capsys):
        rc, _, second = self.add_churn(tmp_path, linear_probe=False)
        assert rc == EXIT_CONFIG
        assert "head 'risk'" in capsys.readouterr().err and not second.exists()


class TestReadmeChain:
    def test_pretrain_finetune_predict_eval(self, workspace, capsys):
        # pretrain_steps at its default, so --steps changes the config before the save
        base = RunConfig.load(workspace / "config.json").to_dict()
        RunConfig.from_dict({**base, "pretrain_steps": 0}).save(workspace / "chain.json")
        config = ["--config", str(workspace / "chain.json")]
        data = base_args(workspace)[2:]
        pre, model, preds = (str(workspace / name) for name in ("pre.ckpt", "model.ckpt", "p.jsonl"))
        steps = [
            ["pretrain", *data, "--steps", "2", "--out-checkpoint", pre],
            ["finetune", *data, "--task", "risk", "--init-checkpoint", pre, "--out-checkpoint", model],
            ["predict", *data, "--checkpoint", model, "--task", "risk", "--out", preds],
            ["eval", *data, "--checkpoint", model, "--task", "risk"],
        ]
        for argv in steps:
            assert main(config + argv) == EXIT_OK, capsys.readouterr().err

        # the model record is checked: another d or seed is refused, naming the field
        RunConfig.from_dict({**base, "d": 16}).save(workspace / "wide.json")
        for field, override in (("d", ["--config", str(workspace / "wide.json")]), ("seed", config + ["--seed", "2"])):
            capsys.readouterr()
            assert main(override + steps[3]) == 1
            assert f"model field '{field}'" in capsys.readouterr().err


class TestBenchmarkCommand:
    def make_csv(self, path, n=60, seed=0):
        rng = np.random.default_rng(seed)
        rows = ["age,job,target"]
        for _ in range(n):
            age = rng.normal()
            label = int(age > 0)
            job = rng.choice(["a", "b", "c"])
            rows.append(f"{age:.4f},{job},{label}")
        path.write_text("\n".join(rows) + "\n")

    def test_benchmark_on_synthetic_csv(self, workspace, capsys):
        self.make_csv(workspace / "adult.csv")
        rc = main(
            ["--config", str(workspace / "config.json"), "benchmark",
             "--dataset", "adult", "--data", str(workspace / "adult.csv"),
             "--folds", "3", "--out", str(workspace / "metrics.json")]
        )
        assert rc == EXIT_OK
        report = json.loads((workspace / "metrics.json").read_text())
        assert len(report["folds"]) == 3
        assert "auroc" in report["summary"]
        assert "mean:" in capsys.readouterr().out

    def test_benchmark_missing_file_names_source(self, workspace, capsys):
        rc = main(
            ["benchmark", "--dataset", "blastchar",
             "--data-dir", str(workspace / "empty")]
        )
        assert rc == EXIT_MISSING_FILE
        assert "download it from" in capsys.readouterr().err
