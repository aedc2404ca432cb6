"""Self-supervised pre-training followed by supervised fine-tuning.

A tiny synthetic task where the label is the sign of a feature product:
pretrain with CutMix/MixUp + reconstruction + contrastive losses, then
fine-tune an uncertainty-aware head and score held-out examples.
"""

import numpy as np

from tabfusion.config import RunConfig
from tabfusion.data import FeatureSchema, FeatureSpec, Snapshot, TaskSpec
from tabfusion.finetune import finetune_loop, predict_scores
from tabfusion.metrics import auprc, auroc
from tabfusion.model import Model
from tabfusion.pretrain import pretrain_loop

schema = FeatureSchema(
    [FeatureSpec("x1", "numeric"), FeatureSpec("x2", "numeric")],
    [TaskSpec("y", 2)],
)


def make_data(n, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        x1, x2 = rng.normal(), rng.normal()
        rows.append(Snapshot({"x1": x1, "x2": x2}, {"y": int(x1 * x2 > 0)}))
    return rows


train, test = make_data(300, 0), make_data(200, 1)
model = Model(schema, RunConfig(d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=0))

pcfg = RunConfig(pretrain_steps=300, batch_size=16, seed=0, initial_lr=1e-3, warmup_steps=20,
                 warmup_target_pretrain=1.0, decay_steps=300).pretrain_config()
curve = pretrain_loop(model, train, pcfg)
print(f"pretrain: loss {curve[0]['total']:.3f} -> {curve[-1]['total']:.3f} over {len(curve)} steps")

fcfg = RunConfig(finetune_steps=200, batch_size=32, d_rf=64, seed=0, initial_lr=1e-3, warmup_steps=5,
                 warmup_target_finetune=1.0, decay_steps=200).finetune_config()
finetune_loop(model, train, [TaskSpec("y", 2, gamma=2.0)], fcfg)

scores = predict_scores(model, test, "y", calibrated=True)
labels = np.array([s.labels["y"] for s in test])
print(f"held-out auroc = {auroc(scores, labels):.3f}, auprc = {auprc(scores, labels):.3f}")
