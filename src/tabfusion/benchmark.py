"""Public-benchmark driver: schema inference from raw CSVs, k-fold CV
training, metric aggregation, and embedding export."""

from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .data import (
    DataError,
    FeatureKind,
    FeatureSchema,
    FeatureSpec,
    Snapshot,
    TaskSpec,
    _check_header,
    _first_positions,
    make_folds,
    normalize_split,
)
from .finetune import finetune_loop, predict_scores
from .metrics import FoldMetrics, MetricsReport, auprc, auroc, ece
from .model import Model
from .pretrain import pretrain_loop

__all__ = ["DATASETS", "load_benchmark_csv", "check_benchmark", "run_benchmark", "export_embeddings"]

# target column and positive label per public dataset; source URLs are the
# published download locations for each benchmark
DATASETS = {
    "1995_income": {
        "target": "income",
        "positive": [">50K", ">50K.", "1"],
        "source": "https://www.kaggle.com/lodetomasi1995/income-classification",
    },
    "blastchar": {
        "target": "Churn",
        "positive": ["Yes", "1"],
        "drop": ["customerID"],
        "source": "https://www.kaggle.com/blastchar/telco-customer-churn",
    },
    "adult": {
        "target": "target",
        "positive": ["1"],
        "source": "http://automl.chalearn.org/data",
    },
    "albert": {
        "target": "target",
        "positive": ["1"],
        "source": "http://automl.chalearn.org/data",
    },
    "dota2games": {
        "target": "target",
        "positive": ["1"],
        "source": "https://archive.ics.uci.edu/ml/datasets/Dota2+Games+Results",
    },
}


def infer_schema(rows: list[dict], target: str, drop=(), max_vocab: int = 200) -> FeatureSchema:
    """Numeric if every non-empty value parses as float; categorical with an
    inferred vocabulary otherwise. High-cardinality categoricals are capped
    by frequency with an overflow bucket."""
    features = []
    columns = [c for c in rows[0] if c != target and c not in drop]
    for col in columns:
        values = [r[col].strip() for r in rows]
        non_empty = [v for v in values if v != ""]
        if non_empty and all(_is_float(v) for v in non_empty):
            features.append(FeatureSpec(col, FeatureKind.NUMERIC))
        else:
            counts: dict[str, int] = {}
            for v in non_empty:
                counts[v] = counts.get(v, 0) + 1
            vocab = sorted(counts, key=lambda k: (-counts[k], k))[: max_vocab - 1]
            if len(counts) >= max_vocab:
                vocab.append("<other>")
            features.append(
                FeatureSpec(col, FeatureKind.CATEGORICAL, vocab_size=len(vocab), vocab=vocab)
            )
    return FeatureSchema(features, [TaskSpec(target)])


def _is_float(v: str) -> bool:
    try:
        float(v)
        return True
    except ValueError:
        return False


def load_benchmark_csv(path, dataset_name: str):
    """Load a raw benchmark CSV into (schema, snapshots) with a binary label.

    Numerics stay raw: `run_benchmark` normalizes each fold from its
    training rows. A header without the dataset's target column or that
    names a column twice, a row whose cell count is not the header's, or a
    non-finite numeric cell raises DataError naming the column, feature or
    row (the file line the row ends on)."""
    spec = DATASETS[dataset_name]
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(
            f"dataset file {path} not found; download it from {spec['source']}"
        )
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        # each row with the file line it ends on; DictReader skips blank lines
        numbered = [(reader.line_num, r) for r in reader]
    rows = [r for _, r in numbered]
    if not rows:
        return FeatureSchema([], [TaskSpec(spec["target"])]), []
    _check_header(reader.fieldnames)
    if spec["target"] not in reader.fieldnames:
        raise DataError(f"{path} has no target column", feature=spec["target"])
    for row_no, r in numbered:
        if None in r or None in r.values():  # DictReader's marks of a cell beyond or short of the header
            raise DataError(f"the cell count differs from the header's {len(reader.fieldnames)}", row=row_no)
    schema = infer_schema(rows, spec["target"], drop=spec.get("drop", ()))
    positives = set(spec["positive"])
    # every stripped cell is in its inferred vocab, or the vocab ends in <other>
    positions = {f.name: _first_positions(f.vocab) for f in schema if f.kind == FeatureKind.CATEGORICAL}
    snapshots = []
    for row_no, r in numbered:
        values = {}
        for f in schema:
            cell = r[f.name].strip()
            if cell == "":
                values[f.name] = None
            elif f.kind == FeatureKind.NUMERIC:
                values[f.name] = float(cell)
                if not math.isfinite(values[f.name]):
                    raise DataError(f"non-finite value {cell!r}", row=row_no, feature=f.name)
            else:
                position = positions[f.name]
                values[f.name] = position[cell] if cell in position else position["<other>"]
        label = 1 if r[spec["target"]].strip() in positives else 0
        snapshots.append(Snapshot(values, {spec["target"]: label}))
    return schema, snapshots


HASH_CHUNK_BYTES = 1 << 20


def file_sha256(path) -> str:
    """Hex SHA-256 of the file's bytes, read HASH_CHUNK_BYTES at a time."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while chunk := fh.read(HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def check_benchmark(dataset_name: str, config: RunConfig, data_dir="data", data_path=None):
    """The refusals of a benchmark run, made before its work: the config,
    the dataset name, its CSV (`load_benchmark_csv`) and its folds
    (`make_folds`: DataError for fewer rows than `config.folds`). Returns
    (path, schema, snapshots, split): what `run_benchmark` runs on."""
    config.validate()
    if dataset_name not in DATASETS:
        raise ValueError(f"unknown dataset '{dataset_name}'; known: {sorted(DATASETS)}")
    path = Path(data_path) if data_path else Path(data_dir) / f"{dataset_name}.csv"
    schema, snapshots = load_benchmark_csv(path, dataset_name)
    labels = [s.labels[DATASETS[dataset_name]["target"]] for s in snapshots]
    return path, schema, snapshots, make_folds(len(snapshots), config.folds, config.seed, labels=labels)


def run_benchmark(dataset_name: str, config: RunConfig, path, schema, snapshots, split,
                  report_path=None) -> MetricsReport:
    """5-fold CV reproduction of the public-benchmark protocol, on what
    `check_benchmark` returned for `dataset_name` and `config`.

    Per fold: numerics z-scored by the train split's statistics, fresh
    model, optional self-supervised pretraining on the train split,
    fine-tuning with an SNGP head and focal loss, calibrated scoring of the
    held-out fold. Reports mean +/- std AUROC across folds.
    """
    task_name = DATASETS[dataset_name]["target"]
    tasks = [replace(t, gamma=config.focal_gamma) for t in schema.tasks]

    digest = file_sha256(path)
    report = MetricsReport(
        dataset=dataset_name,
        manifest={
            "config": config.to_dict(),
            "dataset_digest": digest,
            "n_examples": len(snapshots),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
    )

    for fold in range(config.folds):
        train_idx, test_idx = split.fold_split(fold)
        fold_schema, train, test = normalize_split(
            schema, [snapshots[i] for i in train_idx], [snapshots[i] for i in test_idx]
        )
        model = Model(fold_schema, replace(config, seed=config.seed + fold))
        if config.pretrain_steps > 0:
            pretrain_loop(model, train, config.pretrain_config())
        finetune_loop(model, train, tasks, config.finetune_config())
        scores = predict_scores(model, test, task_name)
        y = np.array([s.labels[task_name] for s in test])
        report.add(
            FoldMetrics(
                fold=fold,
                task=task_name,
                auroc=auroc(scores, y),
                auprc=auprc(scores, y),
                ece=ece(scores, y),
                n_pos=int((y == 1).sum()),
                n_neg=int((y == 0).sum()),
            )
        )
    report.manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if report_path:
        report.save(report_path)
    return report


# the model constructor and the stage records of a RunConfig under the names
# bench/workloads.py calls
build_model = Model
pretrain_config = RunConfig.pretrain_config
finetune_config = RunConfig.finetune_config


def export_embeddings(snapshots, model: Model, out_prefix, task: str | None = None, pca2d: bool = False):
    """Write pooled embeddings: binary f32 sidecar + text index, optionally a
    2-component PCA companion file for plotting."""
    emb = model.embed(snapshots)
    out_prefix = Path(out_prefix)
    emb.astype("<f4").tofile(out_prefix.with_suffix(".f32"))
    with out_prefix.with_suffix(".index.txt").open("w") as fh:
        fh.write(f"# n={len(snapshots)} dim={emb.shape[1] if emb.size else model.d}\n")
        for i, s in enumerate(snapshots):
            label = s.labels.get(task) if task else None
            fh.write(f"{i}\t{i * emb.shape[1]}" + (f"\t{label}" if label is not None else "") + "\n")
    if pca2d and len(snapshots) >= 2:
        centered = emb - emb.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        proj = centered @ vt[:2].T
        np.savetxt(out_prefix.with_suffix(".pca2d.txt"), proj, fmt="%.6g")
        return emb, proj
    return emb, None
