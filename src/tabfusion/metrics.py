"""Ranking and calibration metrics plus the per-fold report structure."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["auroc", "auprc", "ece", "MetricsReport", "FoldMetrics"]


def auroc(scores, labels) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney U) formulation.

    Ties contribute 0.5 through midranks. Raises on single-class input and
    on labels other than 0 and 1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = _binary(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc needs both classes present")
    ranks = _midranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _binary(labels) -> np.ndarray:
    """labels as an array, raising ValueError unless every one is 0 or 1."""
    labels = np.asarray(labels)
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1; score a multi-class task one-vs-rest")
    return labels


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average rank."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x), dtype=np.float64)
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auprc(scores, labels) -> float:
    """Area under the precision-recall curve with step-wise interpolation
    (average precision). Tied scores are grouped into one threshold. Raises
    without a positive and on labels other than 0 and 1."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = _binary(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise ValueError("auprc needs at least one positive")
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    area = 0.0
    tp = 0
    seen = 0
    i = 0
    n = len(s)
    while i < n:
        j = i
        while j + 1 < n and s[j + 1] == s[i]:
            j += 1
        group_pos = int(y[i : j + 1].sum())
        tp += group_pos
        seen += j - i + 1
        precision = tp / seen
        area += precision * (group_pos / n_pos)  # step width = recall gained
        i = j + 1
    return float(area)


def ece(probs, labels, bins: int = 15) -> float:
    """Expected calibration error with equal-width confidence bins.

    probs: [n] confidence of the predicted (binary: positive) class or
    [n, c] class probabilities; labels: true class indices.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim == 2:
        conf = probs.max(axis=1)
        correct = probs.argmax(axis=1) == labels
    else:
        pred = (probs >= 0.5).astype(int)
        conf = np.where(pred == 1, probs, 1.0 - probs)
        correct = pred == labels
    n = len(conf)
    edges = np.linspace(0.0, 1.0, bins + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        in_bin = (conf > lo) & (conf <= hi) if lo > 0 else (conf >= lo) & (conf <= hi)
        nb = int(in_bin.sum())
        if nb == 0:
            continue
        total += (nb / n) * abs(correct[in_bin].mean() - conf[in_bin].mean())
    return float(total)


@dataclass
class FoldMetrics:
    fold: int
    task: str
    auroc: float
    auprc: float
    ece: float
    n_pos: int = 0
    n_neg: int = 0


@dataclass
class MetricsReport:
    dataset: str
    folds: list = field(default_factory=list)
    manifest: dict = field(default_factory=dict)

    def add(self, fm: FoldMetrics) -> None:
        self.folds.append(fm)

    def summary(self, task: str | None = None) -> dict:
        rows = [f for f in self.folds if task is None or f.task == task]
        out = {}
        for key in ("auroc", "auprc", "ece"):
            vals = np.array([getattr(f, key) for f in rows], dtype=np.float64)
            out[key] = {"mean": float(vals.mean()), "std": float(vals.std(ddof=0))}
        return out

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "folds": [vars(f) for f in self.folds],
            "summary": self.summary(),
            "manifest": self.manifest,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def format_text(self) -> str:
        s = self.summary()
        lines = [f"dataset: {self.dataset}"]
        for f in self.folds:
            lines.append(
                f"fold {f.fold} task {f.task}: auroc={f.auroc:.4f} auprc={f.auprc:.4f} ece={f.ece:.4f}"
            )
        lines.append(
            "mean: "
            + " ".join(f"{k}={v['mean']:.4f}+/-{v['std']:.4f}" for k, v in s.items())
        )
        return "\n".join(lines)
