"""Distance-aware uncertainty from the random-feature GP head.

Train on two clusters, then probe a third cluster far from the training
data: predictive variance rises sharply and the calibrated probabilities
back off toward 0.5 instead of staying confidently wrong.
"""

import numpy as np

from tabfusion.data import FeatureSchema, FeatureSpec, Snapshot, TaskSpec
from tabfusion.finetune import FinetuneConfig, finetune_loop
from tabfusion.model import Model

rng = np.random.default_rng(0)
schema = FeatureSchema(
    [FeatureSpec("x1", "numeric"), FeatureSpec("x2", "numeric")],
    [TaskSpec("y", 2)],
)


def cluster(n, cx, cy, label):
    return [
        Snapshot({"x1": cx + rng.normal(0, 0.6), "x2": cy + rng.normal(0, 0.6)}, {"y": label})
        for _ in range(n)
    ]


train = cluster(300, -1, -1, 0) + cluster(300, 1, 1, 1)
rng.shuffle(train)
model = Model(schema, d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=0)
cfg = FinetuneConfig(steps=300, batch_size=64, d_rf=128, seed=0, eval_every=10**9)
cfg.schedule.initial_lr = 2e-3
cfg.schedule.warmup_steps = 5
cfg.schedule.warmup_target_multiplier = 1.0
cfg.schedule.decay_steps = 300
finetune_loop(model, train, [TaskSpec("y", 2, gamma=0.0)], cfg)

for name, probe in (
    ("in-distribution (class 0)", cluster(200, -1, -1, 0)),
    ("in-distribution (class 1)", cluster(200, 1, 1, 1)),
    ("shifted cluster (unseen) ", cluster(200, 6, -6, 0)),
):
    out = model.predict(probe, "y")
    conf = np.abs(out["probs"][:, 1] - 0.5).mean() + 0.5
    print(
        f"{name}: mean variance {out['variance'].mean():6.3f}, "
        f"mean confidence {conf:.3f}"
    )
