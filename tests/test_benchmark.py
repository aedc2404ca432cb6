"""The public-benchmark protocol on a small CSV written by the test."""

import hashlib
import json

import numpy as np
import pytest

import tabfusion.benchmark as bm
from tabfusion.config import RunConfig
from tabfusion.data import DataError, TaskSpec, make_folds

N = 30


def write_csv(path, first_age):
    rng = np.random.default_rng(0)
    rows = ["age,job,target"] + [
        f"{first_age if i == 0 else rng.normal()!r},{'abc'[i % 3]},{i % 2}" for i in range(N)
    ]
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("first_age", [float("nan"), float("-inf")])
def test_a_non_finite_numeric_cell_is_a_data_error(tmp_path, first_age):
    """float() accepts 'nan' and '-inf', and the fold's z-scores became NaN."""
    write_csv(tmp_path / "adult.csv", first_age)
    with pytest.raises(DataError, match="non-finite") as err:
        bm.load_benchmark_csv(tmp_path / "adult.csv", "adult")
    assert (err.value.row, err.value.feature) == (2, "age")


def test_training_rows_are_normalized_by_their_own_statistics(tmp_path, monkeypatch):
    """A held-out value used to shape the z-scores of the training rows."""
    seen = []
    finetune_loop = bm.finetune_loop

    def spy(model, snapshots, tasks, cfg, **kw):
        seen.append(([s.values["age"] for s in snapshots], model.schema.get("age").normalization))
        return finetune_loop(model, snapshots, tasks, cfg, **kw)

    monkeypatch.setattr(bm, "finetune_loop", spy)
    cfg = RunConfig(d=8, heads=2, n_layers=1, ffn_dim=16, d_prime=8, batch_size=8, pretrain_steps=0,
                    finetune_steps=1, d_rf=32, warmup_steps=1, decay_steps=10, folds=3, seed=0)
    runs = []
    for first_age in (1e6, 0.5):
        write_csv(tmp_path / "adult.csv", first_age)
        seen.clear()
        bm.run_benchmark("adult", cfg, data_path=tmp_path / "adult.csv")
        runs.append(list(seen))
    split = make_folds(N, cfg.folds, cfg.seed, labels=[i % 2 for i in range(N)])
    fold = next(k for k, held_out in enumerate(split.folds) if 0 in held_out)
    assert runs[0][fold] == runs[1][fold]
    ages = np.array(runs[0][fold][0])
    assert abs(ages.mean()) < 1e-12 and abs(ages.std() - 1.0) < 1e-12
    # the folds that train on the extreme row do see it
    assert all(runs[0][k] != runs[1][k] for k in range(cfg.folds) if k != fold)


def test_report_is_strict_json_and_tasks_are_the_schemas(tmp_path, monkeypatch):
    """Every fold's record carried an unset loss, so metrics.json held a bare
    NaN, which strict JSON parsers reject."""
    seen = []
    finetune_loop = bm.finetune_loop

    def spy(model, snapshots, tasks, cfg, **kw):
        seen.append(tasks)
        return finetune_loop(model, snapshots, tasks, cfg, **kw)

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    monkeypatch.setattr(bm, "finetune_loop", spy)
    cfg = RunConfig(d=8, heads=2, n_layers=1, ffn_dim=16, d_prime=8, batch_size=8, pretrain_steps=0,
                    finetune_steps=1, d_rf=32, warmup_steps=1, decay_steps=10, folds=3, seed=0, focal_gamma=0.5)
    write_csv(tmp_path / "adult.csv", 0.5)
    bm.run_benchmark("adult", cfg, data_path=tmp_path / "adult.csv", report_path=tmp_path / "metrics.json")
    report = json.loads((tmp_path / "metrics.json").read_text(), parse_constant=reject)
    assert [fold["fold"] for fold in report["folds"]] == [0, 1, 2]
    assert seen == [[TaskSpec("target", 2, gamma=0.5)]] * 3
    assert report["manifest"]["dataset_digest"] == hashlib.sha256((tmp_path / "adult.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("size", [0, 6, 7, 8, 50])
def test_file_digest_is_the_sha256_of_the_bytes_read_in_chunks(tmp_path, monkeypatch, size):
    monkeypatch.setattr(bm, "HASH_CHUNK_BYTES", 7)
    data = np.random.default_rng(size).bytes(size)
    (tmp_path / "f").write_bytes(data)
    assert bm.file_sha256(tmp_path / "f") == hashlib.sha256(data).hexdigest()
