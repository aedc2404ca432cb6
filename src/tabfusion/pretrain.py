"""Self-supervised pre-training: CutMix/MixUp augmentation, per-feature-type
reconstruction decoders and losses, InfoNCE contrastive loss, and the loop.
"""

from __future__ import annotations

import numpy as np

from .config import ConfigError, LossWeights, PretrainConfig
from .data import DataError, FeatureKind, FeatureSchema, Snapshot
from .nn import Linear, Module, advance_power_iteration
from .optim import Trainer
from .tensor import Tensor, log_softmax, matmul, reduce_sum

__all__ = [
    "ReconstructionHeads",
    "cutmix",
    "mixup",
    "reconstruction_loss",
    "info_nce",
    "pretrain_total_loss",
    "check_pretrain",
    "pretrain_loop",
]

# Steps between the lines `pretrain_loop` writes to its loss log.
LOG_EVERY = 10
# The parts of a model (`model.PARTS`) that only pre-training runs: the file
# of a model with heads leaves them out.
PRETRAINING_PARTS = ("isa", "recon")


def cutmix(inputs: dict, partner: np.ndarray, swap_prob: float, rng: np.random.Generator) -> dict:
    """Per-feature input-space mix of featurized rows (`FeatureEncoder.inputs`):
    row i takes each feature's whole (values, present) pair from row
    partner[i] with probability swap_prob, else keeps its own. The [B, F]
    draws are taken at once in schema order; the arrays returned are new."""
    swap = rng.random((len(partner), len(inputs))) < swap_prob
    rows = np.arange(len(partner))
    mixed = {}
    for k, (name, arrays) in enumerate(inputs.items()):
        take = np.where(swap[:, k], partner, rows)
        mixed[name] = tuple(a[take] for a in arrays)
    return mixed


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


def check_pretrain(snapshots: list[Snapshot], cfg: PretrainConfig) -> None:
    """The refusals `pretrain_loop` makes of its rows and config before its
    work: DataError for fewer than 2 rows, ConfigError for a batch size
    under 2. InfoNCE needs an in-batch negative."""
    if len(snapshots) < 2:
        raise DataError(f"pre-training needs at least 2 rows, got {len(snapshots)}")
    if cfg.batch_size < 2:
        raise ConfigError(f"pre-training batch_size must be at least 2, got {cfg.batch_size}")


def pretrain_loop(model, snapshots: list[Snapshot], cfg: PretrainConfig, log_path=None):
    """Run the self-supervised stage; mutates model parameters in place.

    Per step: sample a batch and featurize it once, since its input arrays
    are also the reconstruction targets; draw a partner permutation; CutMix
    those arrays; encode both views; MixUp the augmented view's tokens;
    forward both through the trunk with ISA on; reconstruction losses
    against the original inputs plus InfoNCE between the two pooled
    embeddings; the trainer's step, which refuses a non-finite loss. Every
    parameter of the model trains, and every spectral layer, ISA's
    included, advances its power iteration before each trunk call.

    A model without the pre-training parts, as one loaded from a fine-tuned
    checkpoint is, raises ConfigError naming them; `check_pretrain` makes
    the refusals of the rows and the config.

    Returns the loss curve: a list of per-step records.
    """
    missing = [part for part in PRETRAINING_PARTS if part not in model.parts]
    if missing:
        raise ConfigError(f"pre-training needs the model's parts {' and '.join(map(repr, missing))}, which a "
                          "fine-tuned checkpoint leaves out; pre-train a fresh model or a pre-training checkpoint")
    check_pretrain(snapshots, cfg)
    trainer = Trainer(model.named_state(), cfg.schedule, cfg.weight_decay, cfg.seed)
    aug_rng = np.random.default_rng(cfg.augment.seed)
    curve = []
    for step in range(cfg.steps):
        idx = trainer.batch(len(snapshots), cfg.batch_size)
        inputs = model.encoder.inputs([snapshots[i] for i in idx])
        partner = trainer.rng.permutation(len(idx))
        augmented = cutmix(inputs, partner, cfg.augment.cutmix_swap_prob, aug_rng)

        x_orig, mask = model.encoder.tokens(inputs)
        x_aug, mask_aug = model.encoder.tokens(augmented)
        # MixUp in latent space, pairing each anchor with the same partner
        x_aug = mixup(x_aug, x_aug[partner.tolist()], cfg.augment.mixup_alpha)

        # one power-iteration step per trunk call, ISA's layers included
        advance_power_iteration(trainer.spectral)
        tokens_aug, pooled_aug = model.trunk(x_aug, mask_aug, mode="pretrain")
        advance_power_iteration(trainer.spectral)
        _, pooled_orig = model.trunk(x_orig, mask, mode="pretrain")

        parts = reconstruction_loss(tokens_aug, inputs, model.recon)
        parts["con"] = info_nce(pooled_orig, pooled_aug, cfg.weights.tau)
        total = pretrain_total_loss(parts, cfg.weights)
        lr = trainer.step(step, total)

        record = {"step": step, "lr": lr, "total": total.item()}
        record.update({k: v.item() for k, v in parts.items()})
        curve.append(record)
        if log_path and step % LOG_EVERY == 0:
            with open(log_path, "a") as fh:
                fh.write(" ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in record.items())
                         + "\n")
    return curve
