"""Backward-elimination feature selection with permutation importance.

Importance is scored by a logistic probe over each feature's encoder inputs
(`encoder.feature_inputs`), flattened into columns. The probe is fitted once
per candidate feature subset; the permuted validation copies are scored with
that fitted probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError
from .data import DataError, FeatureKind, FeatureSchema, Snapshot
from .encoder import feature_inputs
from .metrics import auroc

__all__ = [
    "StopRule",
    "EliminationTrace",
    "featurize",
    "fit_logistic_probe",
    "permutation_importance",
    "check_selection",
    "backward_eliminate",
]


@dataclass
class StopRule:
    tolerance: float = 0.002  # allowed validation-AUROC drop vs the full set
    min_features: int = 1

    def __post_init__(self):
        if self.min_features < 1:
            raise ConfigError(f"min_features must be at least 1, got {self.min_features}")


@dataclass
class EliminationTrace:
    baseline_metric: float = float("nan")
    rounds: list = field(default_factory=list)  # (round, feature, importance, metric)


def featurize(snapshots: list[Snapshot], schema: FeatureSchema, asset_criterion: str, asset_seed: int):
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


PROBE_STEPS = 300  # full-batch gradient steps of the logistic probe
PROBE_LR = 0.5
REPEATS = 5  # permutations per feature and round


def fit_logistic_probe(x: np.ndarray, y: np.ndarray):
    """Plain full-batch gradient descent on standardized inputs; returns a
    scoring closure. Deterministic, no regularization beyond standardization."""
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd < 1e-12] = 1.0
    xs = (x - mu) / sd
    w = np.zeros(xs.shape[1])
    b = 0.0
    n = len(y)
    for _ in range(PROBE_STEPS):
        z = xs @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
        g = p - y
        w -= PROBE_LR * (xs.T @ g / n + 1e-4 * w)
        b -= PROBE_LR * g.mean()

    def score(x_new):
        return ((x_new - mu) / sd) @ w + b

    return score


def permutation_importance(score, x_val, y_val, col_range, rng: np.random.Generator) -> float:
    """AUROC of the fitted `score` on the validation rows minus its mean
    AUROC with the feature's columns permuted, over REPEATS draws from `rng`."""
    baseline = auroc(score(x_val), y_val)
    lo, hi = col_range
    drops = []
    for _ in range(REPEATS):
        perm = rng.permutation(len(x_val))
        x_perm = x_val.copy()
        x_perm[:, lo:hi] = x_val[perm, lo:hi]
        drops.append(baseline - auroc(score(x_perm), y_val))
    return float(np.mean(drops))


def check_selection(snapshots: list[Snapshot], schema: FeatureSchema, task: str, seed: int):
    """The refusals `backward_eliminate` makes before its work, beside
    `StopRule`'s own: fewer than 2 features (ValueError), no row labeled for
    `task`, or a validation split of one class (DataError). The split is the
    first draw of `default_rng(seed)`. Returns the labeled rows, their labels
    as 0/1 floats (class 1 against the rest), the validation and training
    indices into them, and the generator after that draw."""
    if len(schema) < 2:
        raise ValueError("need at least 2 features to eliminate")
    labeled = [s for s in snapshots if s.labels.get(task) is not None]
    if not labeled:
        raise DataError(f"no row is labeled for task '{task}'")
    rng = np.random.default_rng(seed)
    y = (np.array([s.labels[task] for s in labeled]) == 1).astype(np.float64)
    order = rng.permutation(len(labeled))
    n_val = max(1, int(len(labeled) * 0.3))  # validation share
    if y[order[:n_val]].min() == y[order[:n_val]].max():
        raise DataError(f"the {n_val} validation rows for task '{task}' are all one class "
                        "(class 1 against the rest); AUROC needs both")
    return labeled, y, order[:n_val], order[n_val:], rng


def backward_eliminate(
    snapshots: list[Snapshot],
    schema: FeatureSchema,
    task: str,
    stop_rule: StopRule,
    seed: int,
    asset_criterion: str,
):
    """Iteratively drop the lowest-importance feature until the validation
    metric would fall more than stop_rule.tolerance below the full-schema
    baseline, or min_features is reached.

    Only rows labeled for `task` are scored, class 1 against the rest, so a
    multi-class task is scored as binary; `check_selection` makes the
    refusals and draws the validation split from `seed`. The rows are
    featurized once, as a model built with `asset_criterion` and `seed`
    would, and each candidate subset takes its columns and one probe fit.
    The permutations come from the same generator, after the split.

    Returns (reduced FeatureSchema, EliminationTrace).
    """
    labeled, y, val_idx, train_idx, rng = check_selection(snapshots, schema, task, seed)
    x_all, ranges_all = featurize(labeled, schema, asset_criterion, seed)
    y_val = y[val_idx]

    remaining = [f.name for f in schema]
    trace = EliminationTrace()

    def metric_for(feature_names):
        """Validation AUROC of a probe fitted on `feature_names`' columns, the
        probe, its validation columns and each feature's range in them."""
        x = np.concatenate([x_all[:, slice(*ranges_all[nm])] for nm in feature_names], axis=1)
        widths = [hi - lo for lo, hi in (ranges_all[nm] for nm in feature_names)]
        ranges = {nm: (end - w, end) for nm, w, end in zip(feature_names, widths, np.cumsum(widths))}
        score = fit_logistic_probe(x[train_idx], y[train_idx])
        x_val = x[val_idx]
        return auroc(score(x_val), y_val), score, x_val, ranges

    trace.baseline_metric, score, x_val, ranges = metric_for(remaining)
    rnd = 0
    while len(remaining) > stop_rule.min_features:
        importances = {nm: permutation_importance(score, x_val, y_val, ranges[nm], rng) for nm in remaining}
        weakest = min(remaining, key=lambda nm: (importances[nm], nm))
        candidate = [nm for nm in remaining if nm != weakest]
        new_metric, new_score, new_x_val, new_ranges = metric_for(candidate)
        if new_metric < trace.baseline_metric - stop_rule.tolerance:
            break
        rnd += 1
        trace.rounds.append((rnd, weakest, importances[weakest], new_metric))
        remaining = candidate
        score, x_val, ranges = new_score, new_x_val, new_ranges

    reduced = FeatureSchema([schema.get(nm) for nm in remaining], schema.tasks)
    return reduced, trace
