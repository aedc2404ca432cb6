import argparse
import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_snapshots, small_schema
from tabfusion.checkpoint import load_checkpoint, save_checkpoint
from tabfusion.cli import EXIT_CONFIG, EXIT_DATA, EXIT_MISSING_FILE, EXIT_OK, build_parser, main
from tabfusion.config import RunConfig
from tabfusion.data import FeatureSchema, TaskSpec, load_dataset, save_dataset
from tabfusion.feature_select import StopRule
from tabfusion.finetune import SngpHead, predict_scores
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

    @pytest.mark.parametrize("text,field", [
        ('{"d": "8"}', "d must be of type int"),  # TypeError tracebacks, exit 1
        ('{"batch_size": null}', "batch_size must be of type int"),
        ('{"seed": true}', "seed must be of type int"),
        ('{"spectral_norm": "no"}', "spectral_norm must be of type bool"),  # loaded, and meant on
        ('{"decay_steps": 0}', "decay_steps must be >= 1"),  # ZeroDivisionError once warm-up ended
        ('{"asset_criterion": "bogus"}', "asset_criterion must be one of"),  # loaded
        ('{"warmup_steps": -1}', "warmup_steps must be >= 0"),
        ('{"ffn_dim": 0}', "ffn_dim must be >= 1"),
        ('{"pretrain_steps": -1}', "pretrain_steps must be >= 0"),
        ('{"finetune_steps": -1}', "finetune_steps must be >= 0"),
        ('{"weight_decay": -0.1}', "weight_decay must be >= 0"),
        ('[1, 2]', "a config is a JSON object"),  # reported as unknown keys [1, 2]
    ])
    def test_dry_run_rejects_a_bad_config_field(self, workspace, capsys, text, field):
        (workspace / "bad.json").write_text(text)
        rc = main(
            ["--config", str(workspace / "bad.json"), "--dry-run", "pretrain"]
            + base_args(workspace)[2:]
            + ["--out-checkpoint", str(workspace / "x.ckpt")]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG, err
        assert err.startswith("error:config: ") and field in err

    def test_unknown_config_key(self, workspace, capsys):
        (workspace / "bad.json").write_text('{"mystery_knob": 3}')
        rc = main(
            ["--config", str(workspace / "bad.json"), "pretrain"]
            + base_args(workspace)[2:]
            + ["--out-checkpoint", str(workspace / "x.ckpt")]
        )
        assert rc == EXIT_CONFIG



def data_flags(data="data.csv", schema="schema.json", embeddings="emb.bin"):
    return ["--schema", schema, "--data", data, "--embeddings", embeddings]


# refusals each command makes before its work: (global flags, command line,
# exit code, text of the error line), run in the workspace; pre.ckpt is a
# pre-trained model's checkpoint and has no head, head.ckpt has one for risk
DRY_RUN_REFUSALS = {
    "pretrain without a step count": (["--config", "steps0.json"], ["pretrain", *data_flags(), "--out-checkpoint",
                                                                    "x.ckpt"], EXIT_CONFIG, "pretrain needs a step count"),
    "predict without the head": ([], ["predict", *data_flags(), "--checkpoint", "pre.ckpt", "--task", "risk", "--out",
                                      "p.jsonl"], EXIT_CONFIG, "checkpoint has no head for task 'risk'"),
    "eval without the head": ([], ["eval", *data_flags(), "--checkpoint", "pre.ckpt", "--task", "risk", "--out",
                                   "m.json"], EXIT_CONFIG, "checkpoint has no head for task 'risk'"),
    "predict with another model record": (["--seed", "5"], ["predict", *data_flags(), "--checkpoint", "pre.ckpt",
                                                            "--task", "risk", "--out", "p.jsonl"],
                                          1, "model field 'seed' is 5 here"),
    "export with another schema": ([], ["export-embeddings", *data_flags(), "--checkpoint", "other.ckpt",
                                        "--out-prefix", "emb"], 1, "schema feature 'age' field 'kind'"),
    "finetune from another model record": (["--seed", "5"], ["finetune", *data_flags(), "--task", "risk",
                                                             "--init-checkpoint", "pre.ckpt", "--out-checkpoint",
                                                             "x.ckpt"], 1, "model field 'seed' is 5 here"),
    "eval on a file that is no checkpoint": ([], ["eval", *data_flags(), "--checkpoint", "schema.json", "--task",
                                                  "risk"], 1, "bad magic"),
    "eval on rows of one class": ([], ["eval", *data_flags("one.csv"), "--checkpoint", "head.ckpt", "--task", "risk"],
                                  EXIT_DATA, "the 24 rows labeled for task 'risk' are all one class"),
    "eval on rows labeled for no task": ([], ["eval", *data_flags("unlabeled.csv"), "--checkpoint", "head.ckpt",
                                              "--task", "risk"], EXIT_DATA, "no row is labeled for task 'risk'"),
    "finetune on a bad label of an undeclared task": (
        [], ["finetune", *data_flags("tier.csv"), "--task", "tier", "--out-checkpoint", "x.ckpt"],
        EXIT_DATA, "label 7 outside [0, 2) (row 3, feature 'label:tier')"),
    "finetune on a task no row is labeled for": (
        [], ["finetune", *data_flags(), "--task", "nosuch", "--out-checkpoint", "x.ckpt"],
        EXIT_DATA, "no labeled examples for task 'nosuch'"),
    "finetune leaving a head stale": (
        [], ["finetune", *data_flags("churn.csv"), "--task", "churn", "--init-checkpoint", "head.ckpt",
             "--out-checkpoint", "x.ckpt"],
        EXIT_CONFIG, "would leave head 'risk' stale"),
    # pretrain_loop refused these after the dry run had passed them
    "pretrain on one row": ([], ["pretrain", *data_flags("row1.csv"), "--steps", "2", "--out-checkpoint", "x.ckpt"],
                            EXIT_DATA, "pre-training needs at least 2 rows, got 1"),
    "pretrain with batch size 1": (["--config", "batch1.json"], ["pretrain", *data_flags(), "--out-checkpoint",
                                                                 "x.ckpt"],
                                   EXIT_CONFIG, "pre-training batch_size must be at least 2, got 1"),
    # elimination ran down to an empty subset, where numpy's concatenate raised: exit 1
    "select-features with min-features 0": (
        [], ["select-features", *data_flags(), "--task", "risk", "--min-features", "0", "--out-schema", "r.json"],
        EXIT_CONFIG, "min_features must be at least 1, got 0"),
    "select-features on rows labeled for no task": (
        [], ["select-features", *data_flags("unlabeled.csv"), "--task", "risk", "--out-schema", "r.json"],
        EXIT_DATA, "no row is labeled for task 'risk'"),
    # the one row is the whole validation split: auroc raised, exit 1
    "select-features on one labeled row": (
        [], ["select-features", *data_flags("first.csv"), "--task", "risk", "--out-schema", "r.json"],
        EXIT_DATA, "the 1 validation rows for task 'risk' are all one class"),
    "select-features on one feature": (
        [], ["select-features", *data_flags(schema="age.json"), "--task", "risk", "--out-schema", "r.json"],
        1, "need at least 2 features to eliminate"),
    "benchmark with fewer rows than folds": (
        [], ["benchmark", "--dataset", "adult", "--data", "two.csv", "--folds", "5"],
        EXIT_DATA, "cannot make 5 folds from 2 examples"),
    # schema fields and header columns the loader used to take as they came
    "finetune with a vocab longer than vocab_size": (  # an IndexError traceback, exit 1
        [], ["finetune", *data_flags(schema="vocab5.json"), "--task", "risk", "--out-checkpoint", "x.ckpt"],
        EXIT_DATA, "vocab must be a list of at most vocab_size 4 strings (feature 'region')"),
    "pretrain with a vocab that is one string": (  # read as its characters
        [], ["pretrain", *data_flags(schema="vocabstr.json"), "--steps", "2", "--out-checkpoint", "x.ckpt"],
        EXIT_DATA, "vocab must be a list of at most vocab_size 4 strings (feature 'region')"),
    "pretrain with an empty vocab token": (  # an empty cell read back as missing
        [], ["pretrain", *data_flags(schema="vocabempty.json"), "--steps", "2", "--out-checkpoint", "x.ckpt"],
        EXIT_DATA, "vocab holds an empty token, which a CSV cell reads back as missing (feature 'region')"),
    "pretrain with a normalization that lacks std": (  # error:runtime: 'std', exit 1
        [], ["pretrain", *data_flags(schema="nostd.json"), "--steps", "2", "--out-checkpoint", "x.ckpt"],
        EXIT_DATA, "normalization must be {\"mean\": m, \"std\": s}"),
    "finetune with a normalization std of 0": (  # a non-finite loss at step 0, exit 1
        [], ["finetune", *data_flags(schema="std0.json"), "--task", "risk", "--out-checkpoint", "x.ckpt"],
        EXIT_DATA, "finite with s > 0, not {'mean': 0, 'std': 0} (feature 'age')"),
    "pretrain on a header naming a feature twice": (  # the last copy won
        [], ["pretrain", *data_flags("age2.csv"), "--steps", "2", "--out-checkpoint", "x.ckpt"],
        EXIT_DATA, "the header names this column twice (feature 'age')"),
    "finetune on a header naming a label twice": (
        [], ["finetune", *data_flags("risk2.csv"), "--task", "risk", "--out-checkpoint", "x.ckpt"],
        EXIT_DATA, "the header names this column twice (feature 'label:risk')"),
    "pretrain on a sidecar with stray bytes": (  # np.fromfile dropped them
        [], ["pretrain", *data_flags(embeddings="odd.bin"), "--steps", "2", "--out-checkpoint", "x.ckpt"],
        EXIT_DATA, "embeddings sidecar odd.bin holds"),
    "benchmark on a header naming a column twice": (
        [], ["benchmark", "--dataset", "adult", "--data", "bench2.csv", "--folds", "2"],
        EXIT_DATA, "the header names this column twice (feature 'age')"),
    # non-finite settings: an infinite rate trained until its first
    # non-finite loss (exit 1), and a nan tolerance eliminated down to one feature (exit 0)
    "finetune with an infinite initial_lr": (
        ["--config", "inflr.json"], ["finetune", *data_flags(), "--task", "risk", "--out-checkpoint", "x.ckpt"],
        EXIT_CONFIG, "initial_lr must be finite, got inf"),
    "select-features with a nan tolerance": (
        [], ["select-features", *data_flags(), "--task", "risk", "--tolerance", "nan", "--out-schema", "r.json"],
        EXIT_CONFIG, "tolerance must be finite, got nan"),
    # trained with the loss added once per entry (exit 0)
    "finetune with a task named twice": (
        [], ["finetune", *data_flags(), "--task", "risk", "--task", "risk", "--out-checkpoint", "x.ckpt"],
        EXIT_CONFIG, "task 'risk' is named twice"),
    # each output's directory: a missing one failed after the work
    "pretrain into a missing directory": (
        [], ["pretrain", *data_flags(), "--steps", "2", "--out-checkpoint", "nodir/x.ckpt"],
        EXIT_MISSING_FILE, "--out-checkpoint directory nodir does not exist"),
    "pretrain logging into a missing directory": (
        [], ["pretrain", *data_flags(), "--steps", "2", "--out-checkpoint", "x.ckpt", "--loss-log", "nodir/l.log"],
        EXIT_MISSING_FILE, "--loss-log directory nodir does not exist"),
    "finetune into a missing directory": (
        [], ["finetune", *data_flags(), "--task", "risk", "--out-checkpoint", "nodir/x.ckpt"],
        EXIT_MISSING_FILE, "--out-checkpoint directory nodir does not exist"),
    "predict into a missing directory": (
        [], ["predict", *data_flags(), "--checkpoint", "head.ckpt", "--task", "risk", "--out", "nodir/p.jsonl"],
        EXIT_MISSING_FILE, "--out directory nodir does not exist"),
    "eval into a missing directory": (
        [], ["eval", *data_flags(), "--checkpoint", "head.ckpt", "--task", "risk", "--out", "nodir/m.json"],
        EXIT_MISSING_FILE, "--out directory nodir does not exist"),
    "select-features into a missing directory": (
        [], ["select-features", *data_flags(), "--task", "risk", "--out-schema", "nodir/r.json"],
        EXIT_MISSING_FILE, "--out-schema directory nodir does not exist"),
    "select-features tracing into a missing directory": (
        [], ["select-features", *data_flags(), "--task", "risk", "--out-schema", "r.json", "--trace", "nodir/t.txt"],
        EXIT_MISSING_FILE, "--trace directory nodir does not exist"),
    "export into a missing directory": (
        [], ["export-embeddings", *data_flags(), "--checkpoint", "head.ckpt", "--out-prefix", "nodir/emb"],
        EXIT_MISSING_FILE, "--out-prefix directory nodir does not exist"),
    "benchmark into a missing directory": (
        [], ["benchmark", "--dataset", "adult", "--data", "bench.csv", "--folds", "2", "--out", "nodir/m.json"],
        EXIT_MISSING_FILE, "--out directory nodir does not exist"),
}


def write_labels(ws, name, column, values):
    """A copy of data.csv with `column` set to `values`, one per data row."""
    with (ws / "data.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    if column not in rows[0]:
        rows[0].append(column)
        rows[1:] = [row + [""] for row in rows[1:]]
    at = rows[0].index(column)
    for row, value in zip(rows[1:], values):
        row[at] = value
    with (ws / name).open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TestDryRun:
    @pytest.mark.parametrize("case", DRY_RUN_REFUSALS)
    def test_dry_run_refuses_as_the_command_does(self, workspace, capsys, monkeypatch, case):
        flags, command, code, text = DRY_RUN_REFUSALS[case]
        monkeypatch.chdir(workspace)
        cfg = RunConfig.load("config.json")
        for name, change in (("steps0.json", {"pretrain_steps": 0}), ("batch1.json", {"batch_size": 1})):
            RunConfig.from_dict({**cfg.to_dict(), **change}).save(name)
        Path("inflr.json").write_text(json.dumps({**cfg.to_dict(), "initial_lr": float("inf")}))
        schema = FeatureSchema.load("schema.json")
        Model(schema, cfg).save("pre.ckpt", cfg.to_dict())
        FeatureSchema([schema.get("age")], schema.tasks).save("age.json")
        schema.get("age").kind = "categorical"
        schema.get("age").vocab_size = 3
        Model(schema, cfg).save("other.ckpt", cfg.to_dict())
        model = Model(FeatureSchema.load("schema.json"), cfg)
        model.heads["risk"] = SngpHead(cfg.d, 2, np.random.default_rng(0), cfg.d_rf, cfg.gp_length_scale, cfg.gp_ridge)
        model.save("head.ckpt", cfg.to_dict())
        write_labels(workspace, "one.csv", "label:risk", ["1"] * 24)
        write_labels(workspace, "unlabeled.csv", "label:risk", [""] * 24)
        write_labels(workspace, "first.csv", "label:risk", ["1"] + [""] * 23)
        write_labels(workspace, "tier.csv", "label:tier", ["0", "7"] + ["1"] * 22)
        write_labels(workspace, "churn.csv", "label:churn", ["0", "1"] * 12)
        Path("odd.bin").write_bytes(Path("emb.bin").read_bytes() + b"\0\0")
        Path("row1.csv").write_text("\n".join(Path("data.csv").read_text().splitlines()[:2]) + "\n")
        Path("two.csv").write_text("age,job,target\n0.5,a,1\n-0.5,b,0\n")
        Path("bench.csv").write_text("age,job,target\n" + "".join(f"{i - 3},{'ab'[i % 2]},{i % 2}\n" for i in range(6)))
        Path("bench2.csv").write_text("age,job,target,age\n" + "".join(f"{i - 3},{'ab'[i % 2]},{i % 2},{i}\n"
                                                                          for i in range(6)))
        record = json.loads(Path("schema.json").read_text())
        for name, feature, change in (("vocab5.json", "region", {"vocab": list("01234")}),
                                      ("vocabstr.json", "region", {"vocab": "0123"}),
                                      ("vocabempty.json", "region", {"vocab": ["0", "", "2", "3"]}),
                                      ("nostd.json", "age", {"normalization": {"mean": 0}}),
                                      ("std0.json", "age", {"normalization": {"mean": 0, "std": 0}})):
            features = [{**f, **change} if f["name"] == feature else f for f in record["features"]]
            Path(name).write_text(json.dumps({**record, "features": features}))
        with Path("data.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        for name, column in (("age2.csv", "age"), ("risk2.csv", "label:risk")):
            at = rows[0].index(column)
            with Path(name).open("w", newline="") as fh:
                csv.writer(fh).writerows(row + [row[at]] for row in rows)
        files = sorted(workspace.iterdir())
        results = []
        for dry in (["--dry-run"], []):
            rc = main(["--config", "config.json", *flags, *dry, *command])
            lines = capsys.readouterr().err.strip().splitlines()
            results.append((rc, lines[-1] if lines else None))
            assert sorted(workspace.iterdir()) == files  # neither run writes a file
        assert results[0] == results[1], case
        assert results[0][0] == code and results[0][1].startswith("error:") and text in results[0][1], results[0]

    def test_every_subcommand_has_a_case(self):
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
        assert {command[0] for _, command, _, _ in DRY_RUN_REFUSALS.values()} == set(commands)


def test_select_features_defaults_are_the_stop_rule_defaults():
    args = build_parser().parse_args(
        ["select-features", "--schema", "s.json", "--data", "d.csv", "--task", "risk", "--out-schema", "r.json"])
    assert StopRule(tolerance=args.tolerance, min_features=args.min_features) == StopRule()


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

    def test_predict_from_a_head_record_without_kappa_exits_1(self, workspace, capsys):
        # the digest matches the edited record; the head's kappa became pi/8
        path = run_finetune(workspace)
        record, arrays = load_checkpoint(path)
        del record["heads"]["risk"]["kappa"]
        save_checkpoint(path, arrays, record)
        capsys.readouterr()
        rc = main(["predict", *base_args(workspace)[2:], "--checkpoint", str(path), "--task", "risk",
                   "--out", str(workspace / "p.jsonl")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1 and len(err) == 1, err
        assert err[0].startswith("error:runtime: checkpoint head 'risk' is {")
        assert not (workspace / "p.jsonl").exists()

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

    @pytest.mark.parametrize("steps", [[], ["--steps", "0"]])
    def test_pretrain_without_steps_exits_2(self, workspace, capsys, steps):
        # ran 200 steps, a count no config declares, and recorded them as the run's
        cfg = RunConfig.load(workspace / "config.json")
        cfg.pretrain_steps = 0
        cfg.save(workspace / "config.json")
        rc = main(
            ["--config", str(workspace / "config.json"), "pretrain"]
            + base_args(workspace)[2:] + steps
            + ["--out-checkpoint", str(workspace / "pre.ckpt")]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG, err
        assert err.startswith("error:config: ") and "--steps" in err and "pretrain_steps" in err
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
        assert set(manifest["inputs"]) == {"schema", "data", "embeddings"}
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
        inputs = json.loads((workspace / "p1.jsonl.manifest.json").read_text())["inputs"]
        assert set(inputs) == {"schema", "data", "embeddings", "checkpoint"}  # the checkpoint was left out

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

    def test_finetune_trains_on_from_a_served_checkpoint(self, workspace, capsys):
        # a fine-tuned file holds no ISA or decoders; fine-tuning never runs them
        first, again = run_finetune(workspace), workspace / "again.ckpt"
        rc = main(["--config", str(workspace / "config.json"), "finetune"] + base_args(workspace)[2:]
                  + ["--task", "risk", "--init-checkpoint", str(first), "--out-checkpoint", str(again)])
        assert rc == EXIT_OK, capsys.readouterr().err
        before, after = Model.load(first), Model.load(again)
        assert before.parts == after.parts == ("encoder", "trunk", "heads")
        rows = load_dataset(workspace / "data.csv", after.schema, workspace / "emb.bin")[1]
        assert after.predict(rows, "risk")["calibrated"]
        assert not np.array_equal(after.embed(rows), before.embed(rows))  # the backbone trained on

    def test_manifest_digests_every_input_including_the_starting_checkpoint(self, tmp_path, capsys):
        rc, first, second = self.add_churn(tmp_path, linear_probe=True)
        assert rc == EXIT_OK, capsys.readouterr().err
        inputs = json.loads(Path(str(second) + ".manifest.json").read_text())["inputs"]
        files = {"schema": "schema.json", "data": "data.csv", "embeddings": "emb.bin", "init_checkpoint": first.name}
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

    @pytest.mark.parametrize("line,text,message", [
        (2, "0.5,a", "cell count differs from the header's 3 (row 3)"),
        (2, "0.5,a,1,9", "cell count differs from the header's 3 (row 3)"),
        (2, "\n0.5,a", "cell count differs from the header's 3 (row 4)"),  # after a blank line
        (0, "age,job,label", "has no target column"),
    ])
    def test_dry_run_on_a_malformed_csv_exits_4(self, workspace, capsys, line, text, message):
        # a short row ended in an AttributeError traceback, a missing target
        # column exited 1, and an extra cell was dropped
        path = workspace / "adult.csv"
        self.make_csv(path)
        lines = path.read_text().splitlines()
        lines[line] = text
        path.write_text("\n".join(lines) + "\n")
        rc = main(["--dry-run", "benchmark", "--dataset", "adult", "--data", str(path)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, err
        assert err.startswith("error:data: ") and message in err

    def test_benchmark_missing_file_names_source(self, workspace, capsys):
        rc = main(
            ["benchmark", "--dataset", "blastchar",
             "--data-dir", str(workspace / "empty")]
        )
        assert rc == EXIT_MISSING_FILE
        assert "download it from" in capsys.readouterr().err
