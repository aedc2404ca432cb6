"""Backward-elimination feature selection with permutation importance.

Importance is scored by a logistic probe over each feature's encoder inputs
(`encoder.feature_inputs`), flattened into columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataError, FeatureKind, FeatureSchema, Snapshot
from .encoder import feature_inputs
from .metrics import auroc

__all__ = [
    "StopRule",
    "EliminationTrace",
    "featurize",
    "logistic_probe_auroc",
    "permutation_importance",
    "backward_eliminate",
]


@dataclass
class StopRule:
    tolerance: float = 0.002  # allowed validation-AUROC drop vs the full set
    min_features: int = 1


@dataclass
class EliminationTrace:
    baseline_metric: float = float("nan")
    rounds: list = field(default_factory=list)  # (round, feature, importance, metric)

    def removed_features(self) -> list:
        return [r[1] for r in self.rounds]


def featurize(snapshots: list[Snapshot], schema: FeatureSchema, asset_criterion: str = "recency", asset_seed: int = 0):
    """Flatten the encoder's input arrays into (X, column ranges per feature name).

    numeric -> the value (missing as 0) and a missing flag; categorical and
    tag set -> multi-hot; embedding -> the vector (missing as 0);
    multi-embedding -> the mean of the assets the encoder keeps by
    `asset_criterion` and `asset_seed` (0 when there are none). A category
    index out of range raises IndexError, as it does in the encoder.
    """
    inputs = feature_inputs(schema, snapshots, asset_criterion, asset_seed)
    cols = []
    ranges = {}
    pos = 0
    for f in schema:
        values, present = inputs[f.name]
        if f.kind == FeatureKind.NUMERIC:
            block = np.stack([values, 1.0 - present], axis=1)
        elif f.kind in (FeatureKind.CATEGORICAL, FeatureKind.MULTI_CATEGORICAL):
            block = np.minimum(values, 1.0)
        elif f.kind == FeatureKind.EMBEDDING:
            block = values
        else:  # empty slots are zero, so the sum runs over the kept assets
            block = values.sum(axis=1) / np.maximum(present.sum(axis=1), 1.0)[:, None]
        cols.append(block.astype(np.float64))
        ranges[f.name] = (pos, pos + block.shape[1])
        pos += block.shape[1]
    x = np.concatenate(cols, axis=1) if cols else np.zeros((len(snapshots), 0))
    return x, ranges


def _fit_logistic(x: np.ndarray, y: np.ndarray, steps: int = 300, lr: float = 0.5):
    """Plain full-batch gradient descent on standardized inputs; returns a
    scoring closure. Deterministic, no regularization beyond standardization."""
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd < 1e-12] = 1.0
    xs = (x - mu) / sd
    w = np.zeros(xs.shape[1])
    b = 0.0
    n = len(y)
    for _ in range(steps):
        z = xs @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
        g = p - y
        w -= lr * (xs.T @ g / n + 1e-4 * w)
        b -= lr * g.mean()

    def score(x_new):
        return ((x_new - mu) / sd) @ w + b

    return score


def logistic_probe_auroc(x_train, y_train, x_val, y_val) -> float:
    """Train a logistic probe, return its validation AUROC."""
    score = _fit_logistic(x_train, y_train)
    return auroc(score(x_val), y_val)


def permutation_importance(
    model_fit_fn,
    x_train,
    y_train,
    x_val,
    y_val,
    col_range,
    rng: np.random.Generator,
    repeats: int = 5,
    baseline: float | None = None,
) -> float:
    """AUROC(original) minus mean AUROC with the feature's validation columns
    permuted, over `repeats` draws from `rng`."""
    if baseline is None:
        baseline = model_fit_fn(x_train, y_train, x_val, y_val)
    lo, hi = col_range
    drops = []
    for _ in range(repeats):
        perm = rng.permutation(len(x_val))
        x_perm = x_val.copy()
        x_perm[:, lo:hi] = x_val[perm, lo:hi]
        drops.append(baseline - model_fit_fn(x_train, y_train, x_perm, y_val))
    return float(np.mean(drops))


def backward_eliminate(
    snapshots: list[Snapshot],
    schema: FeatureSchema,
    task: str,
    stop_rule: StopRule | None = None,
    seed: int = 0,
    asset_criterion: str = "recency",
):
    """Iteratively drop the lowest-importance feature until the validation
    metric would fall more than stop_rule.tolerance below the full-schema
    baseline, or min_features is reached.

    Only rows labeled for `task` are scored (DataError if none is), class 1
    against the rest, so a multi-class task is scored as binary. They are
    featurized once, as a model built with `asset_criterion` and `seed`
    would, and each candidate subset takes its columns. `seed` also draws
    the validation split and the permutations.

    Returns (reduced FeatureSchema, EliminationTrace).
    """
    stop_rule = stop_rule or StopRule()
    if len(schema) < 2:
        raise ValueError("need at least 2 features to eliminate")
    labeled = [s for s in snapshots if s.labels.get(task) is not None]
    if not labeled:
        raise DataError(f"no row is labeled for task '{task}'")
    rng = np.random.default_rng(seed)
    y = (np.array([s.labels[task] for s in labeled]) == 1).astype(np.float64)
    x_all, ranges_all = featurize(labeled, schema, asset_criterion, seed)
    order = rng.permutation(len(labeled))
    n_val = max(1, int(len(labeled) * 0.3))  # validation share
    val_idx, train_idx = order[:n_val], order[n_val:]

    remaining = [f.name for f in schema]
    trace = EliminationTrace()

    def metric_for(feature_names):
        x = np.concatenate([x_all[:, slice(*ranges_all[nm])] for nm in feature_names], axis=1)
        widths = [hi - lo for lo, hi in (ranges_all[nm] for nm in feature_names)]
        ranges = {nm: (end - w, end) for nm, w, end in zip(feature_names, widths, np.cumsum(widths))}
        return logistic_probe_auroc(x[train_idx], y[train_idx], x[val_idx], y[val_idx]), x, ranges

    baseline, x, ranges = metric_for(remaining)
    trace.baseline_metric = baseline
    current = baseline
    rnd = 0
    while len(remaining) > stop_rule.min_features:
        importances = {}
        for name in remaining:
            importances[name] = permutation_importance(
                logistic_probe_auroc,
                x[train_idx],
                y[train_idx],
                x[val_idx],
                y[val_idx],
                ranges[name],
                rng=rng,
                baseline=current,
            )
        weakest = min(remaining, key=lambda nm: (importances[nm], nm))
        candidate = [nm for nm in remaining if nm != weakest]
        new_metric, new_x, new_ranges = metric_for(candidate)
        if new_metric < trace.baseline_metric - stop_rule.tolerance:
            break
        rnd += 1
        trace.rounds.append((rnd, weakest, importances[weakest], new_metric))
        remaining = candidate
        current, x, ranges = new_metric, new_x, new_ranges

    reduced = FeatureSchema([schema.get(nm) for nm in remaining], schema.tasks)
    return reduced, trace
