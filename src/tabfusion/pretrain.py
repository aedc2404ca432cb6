"""Self-supervised pre-training: CutMix/MixUp augmentation, per-feature-type
reconstruction decoders and losses, InfoNCE contrastive loss, and the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Asset, FeatureKind, FeatureSchema, Snapshot
from .nn import Linear, Module, SpectralLinear, advance_power_iteration
from .optim import AdamW, CosineWarmupSchedule
from .tensor import Tensor, log_softmax, matmul, reduce_sum

__all__ = [
    "AugmentConfig",
    "LossWeights",
    "ReconstructionHeads",
    "cutmix",
    "mixup",
    "reconstruction_loss",
    "info_nce",
    "pretrain_total_loss",
    "pretrain_loop",
]

# Steps between the lines `pretrain_loop` writes to its loss log.
LOG_EVERY = 10


@dataclass
class AugmentConfig:
    cutmix_swap_prob: float = 0.2  # probability a feature is taken from the partner
    mixup_alpha: float = 0.8  # weight on the anchor in the latent interpolation
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.cutmix_swap_prob <= 1.0:
            raise ValueError("cutmix_swap_prob must be in [0, 1]")
        if not 0.0 <= self.mixup_alpha <= 1.0:
            raise ValueError("mixup_alpha must be in [0, 1]")


@dataclass
class LossWeights:
    num: float = 1.0
    ce: float = 1.0
    mcat: float = 1.0
    con: float = 1.0
    emb: float = 1.0
    memb: float = 1.0
    tau: float = 0.1

    def __post_init__(self):
        parts = (self.num, self.ce, self.mcat, self.con, self.emb, self.memb)
        if any(a < 0 for a in parts):
            raise ValueError("loss weights must be non-negative")
        if all(a == 0 for a in parts):
            raise ValueError("at least one loss weight must be positive")
        if self.tau <= 0:
            raise ValueError("temperature must be positive")


def cutmix(x_i: Snapshot, x_j: Snapshot, swap_prob: float, rng: np.random.Generator) -> Snapshot:
    """Per-feature input-space mix: each feature comes from the partner x_j
    with probability swap_prob, else from the anchor x_i."""
    if set(x_i.values) != set(x_j.values):
        raise ValueError("cutmix requires snapshots sharing one schema")
    values = {}
    for name in x_i.values:
        take_partner = rng.random() < swap_prob
        values[name] = _copy_value(x_j.values[name] if take_partner else x_i.values[name])
    return Snapshot(values, dict(x_i.labels))


def _copy_value(value):
    """A copy of a feature value that shares no mutable state with it: arrays,
    assets and lists are copied; numbers, None and tuples are immutable."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, Asset):
        return Asset(value.vector.copy(), value.timestamp, value.engagement)
    if isinstance(value, list):
        return [_copy_value(v) for v in value]
    return value


def mixup(h_i: Tensor, h_j: Tensor, alpha: float) -> Tensor:
    """Latent-space convex combination alpha*h_i + (1-alpha)*h_j."""
    return h_i * float(alpha) + h_j * (1.0 - float(alpha))


class ReconstructionHeads(Module):
    """Per-feature-type decoders from token outputs back to feature space.

    Decoders are shared across features of the same type and output size:
    numerics share one d->1 head, categoricals share a d->vocab head per
    vocabulary size, embedding features a d->dim head per input dim. A
    decoder is keyed by its type and size, e.g. "num1" or "ce12".
    """

    def __init__(self, schema: FeatureSchema, d: int, rng: np.random.Generator):
        self.schema = schema
        self.decoders: dict[str, Linear] = {}
        for f in schema:
            kind, size = self._kind_and_size(f)
            if f"{kind}{size}" not in self.decoders:
                self.decoders[f"{kind}{size}"] = Linear(d, size, rng)

    @staticmethod
    def _kind_and_size(f) -> tuple:
        if f.kind == FeatureKind.NUMERIC:
            return ("num", 1)
        if f.kind == FeatureKind.CATEGORICAL:
            return ("ce", f.vocab_size)
        if f.kind == FeatureKind.MULTI_CATEGORICAL:
            return ("mcat", f.vocab_size)
        if f.kind == FeatureKind.EMBEDDING:
            return ("emb", f.dim)
        return ("memb", f.dim)

    def decoder_for(self, f) -> Linear:
        kind, size = self._kind_and_size(f)
        return self.decoders[f"{kind}{size}"]


def reconstruction_loss(tokens: Tensor, inputs: dict, heads: ReconstructionHeads) -> dict:
    """Per-type losses decoding the (augmented-view) tokens back to the
    original inputs: `inputs` is `FeatureEncoder.inputs` of the original
    rows, so the targets are exactly the arrays the encoder encoded.
    Missing features and empty asset slots are excluded from their terms.

    Returns {"num", "ce", "mcat", "emb", "memb"} -> scalar Tensor.
    """
    acc: dict[str, list] = {"num": [], "ce": [], "mcat": [], "emb": [], "memb": []}

    for f, start, count in heads.schema.token_slots():
        target, present = inputs[f.name]
        if present.sum() == 0:  # nothing observed (a tag set always is)
            continue
        dec = heads.decoder_for(f)
        multi = f.kind == FeatureKind.MULTI_EMBEDDING
        pred = dec(tokens[:, start : start + count, :] if multi else tokens[:, start, :])
        if f.kind == FeatureKind.NUMERIC:
            err = (pred.reshape(len(target)) - Tensor(target)) * Tensor(present)
            acc["num"].append((err * err).sum() * (1.0 / present.sum()))
        elif f.kind == FeatureKind.CATEGORICAL:
            ce = -(log_softmax(pred, axis=-1) * Tensor(target)).sum(axis=-1)
            acc["ce"].append((ce * Tensor(present)).sum() * (1.0 / present.sum()))
        elif f.kind == FeatureKind.MULTI_CATEGORICAL:
            # sum over classes of per-class binary cross-entropy on the multi-hot set
            p = _sigmoid(pred)
            y = Tensor(np.minimum(target, 1.0))
            bce = -(y * p.clip_min(1e-12).log() + (1.0 - y) * (1.0 - p).clip_min(1e-12).log())
            acc["mcat"].append(bce.sum(axis=-1).mean())
        else:  # squared error per observed vector, normalized by dim
            err = (pred - Tensor(target)) * Tensor(present[..., None])
            acc["memb" if multi else "emb"].append((err * err).sum() * (1.0 / (present.sum() * f.dim)))

    zero = Tensor(np.zeros((), dtype=tokens.dtype))
    out = {}
    for kind, parts in acc.items():
        if not parts:
            out[kind] = zero
            continue
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        out[kind] = total * (1.0 / len(parts))
    return out


def _sigmoid(x: Tensor) -> Tensor:
    return ((-x).exp() + 1.0) ** -1.0


def info_nce(z: Tensor, z_pos: Tensor, tau: float) -> Tensor:
    """Contrastive loss with cosine similarity and in-batch negatives.

    Anchor b's positive is z_pos[b]; the denominator sums the positive and
    the other B-1 augmented rows. Averaged over anchors.
    """
    b = z.shape[0]
    if b < 2:
        raise ValueError("info_nce needs a batch of at least 2 (no negatives otherwise)")
    zn = _l2_normalize(z)
    pn = _l2_normalize(z_pos)
    logits = matmul(zn, pn.transpose(1, 0)) * (1.0 / tau)  # [B, B] cosine / tau
    logp = log_softmax(logits, axis=-1)
    eye = Tensor(np.eye(b, dtype=np.float32))
    return -(logp * eye).sum() * (1.0 / b)


def _l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    norm = (reduce_sum(x * x, axis=-1, keepdims=True) + eps) ** 0.5
    return x * norm ** -1.0


def pretrain_total_loss(parts: dict, weights: LossWeights) -> Tensor:
    """Weighted sum of the five reconstruction terms plus the contrastive term."""
    return (
        parts["num"] * weights.num
        + parts["ce"] * weights.ce
        + parts["mcat"] * weights.mcat
        + parts["con"] * weights.con
        + parts["emb"] * weights.emb
        + parts["memb"] * weights.memb
    )


@dataclass
class PretrainConfig:
    steps: int = 200
    batch_size: int = 32
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    weights: LossWeights = field(default_factory=LossWeights)
    schedule: CosineWarmupSchedule = field(default_factory=CosineWarmupSchedule)
    weight_decay: float = 0.0
    seed: int = 0


def pretrain_loop(model, snapshots: list[Snapshot], cfg: PretrainConfig, log_path=None):
    """Run the self-supervised stage; mutates model parameters in place.

    Per step: sample a batch and a partner permutation; CutMix in input
    space; encode both views, featurizing the batch once, since its input
    arrays are also the reconstruction targets; MixUp the augmented view's
    tokens; forward both through the trunk with ISA on; reconstruction
    losses against the original inputs plus InfoNCE between the two pooled
    embeddings; AdamW.

    Returns the loss curve: a list of per-step records.
    """
    rng = np.random.default_rng(cfg.seed)
    aug_rng = np.random.default_rng(cfg.augment.seed)
    params = model.parameters()
    opt = AdamW(params, weight_decay=cfg.weight_decay)
    # the trunk's spectral layers, ISA included: one power-iteration step per trunk call
    spectral = [o for _, o, key, _ in model.trunk.named_state() if isinstance(o, SpectralLinear) and key == "u"]
    curve = []
    fh = open(log_path, "a") if log_path else None
    try:
        for step in range(cfg.steps):
            idx = rng.choice(len(snapshots), size=min(cfg.batch_size, len(snapshots)), replace=False)
            batch = [snapshots[i] for i in idx]
            partner = rng.permutation(len(batch))
            augmented = [
                cutmix(batch[i], batch[partner[i]], cfg.augment.cutmix_swap_prob, aug_rng)
                for i in range(len(batch))
            ]

            inputs = model.encoder.inputs(batch)
            x_orig, mask = model.encoder.tokens(inputs)
            x_aug, mask_aug = model.encoder.assemble_tokens(augmented)
            # MixUp in latent space, pairing each anchor with the same partner
            x_aug = mixup(x_aug, x_aug[partner.tolist()], cfg.augment.mixup_alpha)

            advance_power_iteration(spectral)
            tokens_aug, pooled_aug = model.trunk(x_aug, mask_aug, mode="pretrain")
            advance_power_iteration(spectral)
            _, pooled_orig = model.trunk(x_orig, mask, mode="pretrain")

            parts = reconstruction_loss(tokens_aug, inputs, model.recon)
            parts["con"] = info_nce(pooled_orig, pooled_aug, cfg.weights.tau)
            total = pretrain_total_loss(parts, cfg.weights)
            if not np.isfinite(total.item()):
                raise RuntimeError(f"non-finite pretrain loss at step {step}")

            opt.zero_grad()
            total.backward()
            lr = cfg.schedule.lr_at(step)
            opt.step(lr=lr)

            record = {"step": step, "lr": lr, "total": total.item()}
            record.update({k: v.item() for k, v in parts.items()})
            curve.append(record)
            if fh and step % LOG_EVERY == 0:
                fh.write(
                    " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in record.items())
                    + "\n"
                )
    finally:
        if fh:
            fh.close()
    return curve
