"""Backward elimination with permutation importance.

Six features: one is a copy of the label, five are pure noise. Elimination
drops the noise one round at a time and stops before touching the signal.
"""

import numpy as np

from tabfusion.data import FeatureSchema, FeatureSpec, Snapshot, TaskSpec
from tabfusion.feature_select import StopRule, backward_eliminate

rng = np.random.default_rng(0)
feats = [FeatureSpec("signal", "numeric")] + [
    FeatureSpec(f"noise{i}", "numeric") for i in range(5)
]
schema = FeatureSchema(feats, [TaskSpec("y", 2)])

snaps = []
for _ in range(300):
    label = int(rng.integers(2))
    values = {"signal": float(label)}
    for i in range(5):
        values[f"noise{i}"] = float(rng.normal())
    snaps.append(Snapshot(values, {"y": label}))

reduced, trace = backward_eliminate(snaps, schema, "y", StopRule(tolerance=0.02), seed=0, asset_criterion="recency")
print(f"baseline validation auroc: {trace.baseline_metric:.4f}")
for rnd, name, importance, metric in trace.rounds:
    print(f"round {rnd}: removed {name:8s} (importance {importance:+.4f}) -> auroc {metric:.4f}")
print(f"kept: {[f.name for f in reduced]}")
