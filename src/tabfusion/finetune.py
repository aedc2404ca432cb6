"""Supervised stage: SNGP output heads (random-feature Gaussian process with
Laplace covariance), focal loss, multi-task fine-tuning, calibrated inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError
from .data import DataError, TaskSpec
from .nn import Linear, Module, advance_power_iteration
from .optim import CosineWarmupSchedule, Trainer
from .tensor import Tensor, linear, no_grad, softmax

__all__ = ["TaskSpec", "SngpHead", "focal_loss", "finetune_loop", "FinetuneConfig"]

# Rows per product with the cached variance factor. A fixed block shape gives
# every row the same BLAS kernel and summation order whatever the batch size,
# so variances are bitwise batch-independent (plain gemm reblocks by M).
VARIANCE_BLOCK_ROWS = 4
# Columns per cached panel of the upper-triangular variance factor.
VARIANCE_PANEL_COLS = 128
# Widest diagonal block the triangular inverse hands to a general inverse.
INVERSE_LEAF = 64


class SngpHead(Module):
    """Random-Fourier-feature GP head with Laplace precision accumulation.

    Features Phi = sqrt(2/d_rf) * cos(x Omega^T + b) with Omega ~ N(0, 1/l^2)
    and phases b ~ U[0, 2pi), both frozen at init. Only the output weights
    beta train. After fitting, predictive variance Phi Lambda^-1 Phi^T feeds
    a mean-field logit adjustment logit / sqrt(1 + kappa * var).
    """

    def __init__(
        self,
        in_dim: int,
        classes: int,
        rng: np.random.Generator,
        d_rf: int = 1024,
        length_scale: float = 2.0,
        ridge: float = 1.0,
        kappa: float = math.pi / 8.0,
    ):
        self.in_dim = in_dim
        self.classes = classes
        self.d_rf = d_rf
        self.length_scale = length_scale
        self.ridge = ridge
        self.kappa = kappa
        self.omega = (rng.standard_normal((d_rf, in_dim)) / length_scale).astype(np.float32)
        self.phase = rng.uniform(0.0, 2.0 * math.pi, size=d_rf).astype(np.float32)
        self.beta = Linear(d_rf, classes, rng, bias=False)
        self.precision: np.ndarray | None = None  # Lambda, set by fit_covariance
        # (the precision it is derived from, the column panels of
        # (L^-1)^T with L = chol(precision)); built lazily by `variance`
        self._factor: tuple = (None, None)
        # (omega, Omega as the transpose of a C-contiguous [in, d_rf] array
        # in some dtype), the layout linear's row kernel reads; not saved
        self._omega: tuple = (None, None)

    def features(self, pooled: Tensor) -> Tensor:
        """Phi = sqrt(2/d_rf) cos(pooled Omega^T + b); differentiable in pooled.

        Omega is read in the row kernel's layout, made once per `omega` array
        and dtype, so a request copies nothing; library code assigns `omega`
        and never writes into it."""
        c = self._omega
        if c[0] is not self.omega or c[1].dtype != pooled.dtype:
            c = self._omega = (self.omega, Tensor(np.asfortranarray(self.omega, dtype=pooled.dtype)))
        phase = Tensor(self.phase.astype(pooled.dtype, copy=False))
        return linear(pooled, c[1], phase).cos() * math.sqrt(2.0 / self.d_rf)

    def logits(self, pooled: Tensor) -> Tensor:
        return self.beta(self.features(pooled))

    def fit_covariance(self, phi: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """Laplace precision Lambda = ridge*I + sum_i p_i(1-p_i) phi_i phi_i^T.

        For binary tasks p_i is the positive-class probability; multiclass
        uses the max-prob heuristic. Order-independent (a plain sum).
        """
        # free the old precision and factor before the new ones are made
        self.precision, self._factor = None, (None, None)
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim == 2:
            p = probs[:, 1] if probs.shape[1] == 2 else probs.max(axis=1)
        else:
            p = probs
        # a^T a with a = phi sqrt(w), weighted in one float64 copy of phi:
        # numpy's symmetric product, so lam is exactly symmetric
        a = np.array(phi, dtype=np.float64)
        a *= np.sqrt(p * (1.0 - p))[:, None]
        lam = a.T @ a
        lam[np.diag_indices(self.d_rf)] += self.ridge
        self.precision = lam
        return lam

    def variance(self, phi: np.ndarray) -> np.ndarray:
        """Predictive variance, the diagonal of Phi Lambda^-1 Phi^T.

        With L = chol(Lambda) and F = (L^-1)^T, Lambda^-1 = F F^T, so each
        row's variance is |phi F|^2: O(d_rf^2) per row. F is upper
        triangular, so only its column panels of VARIANCE_PANEL_COLS are
        kept, panel [c0, c1) holding rows [0, c1). They are computed from
        `precision` on first use (an O(d_rf^3) Cholesky factorisation and a
        triangular inverse made in place in L) and cached until another array
        is set as `precision`. Rows are multiplied in zero-padded blocks of
        VARIANCE_BLOCK_ROWS, so every kernel call has a shape fixed by the
        panel alone and a row's variance is bitwise the same alone or in any
        batch.
        """
        if self.precision is None:
            raise RuntimeError("covariance not fitted")
        if self._factor[0] is not self.precision:
            self._factor = (None, None)  # the old panels go before the new are made
            l_inv = _invert_lower(np.linalg.cholesky(self.precision))  # F^T
            panels = [
                np.ascontiguousarray(l_inv[c0 : c0 + VARIANCE_PANEL_COLS, : c0 + VARIANCE_PANEL_COLS].T)
                for c0 in range(0, self.d_rf, VARIANCE_PANEL_COLS)
            ]
            self._factor = (self.precision, panels)
        phi = np.asarray(phi, dtype=np.float64)
        n = phi.shape[0]
        blocks = np.zeros((-(-n // VARIANCE_BLOCK_ROWS), VARIANCE_BLOCK_ROWS, self.d_rf))
        blocks.reshape(-1, self.d_rf)[:n] = phi
        y = np.empty_like(blocks)
        for panel in self._factor[1]:
            c1 = panel.shape[0]
            y[:, :, c1 - panel.shape[1] : c1] = np.matmul(blocks[:, :, :c1], panel)
        y = y.reshape(-1, self.d_rf)[:n]
        return np.einsum("ij,ij->i", y, y)

    def predict(self, pooled: Tensor, calibrated: bool = True) -> dict:
        """Class probabilities plus predictive variance.

        Calibrated when asked for and the covariance is fitted; otherwise a
        plain softmax of the logits with NaN variance (calibrated=False).
        Runs under no_grad.
        """
        with no_grad():
            phi_t = self.features(pooled)
            logits = self.beta(phi_t).data.astype(np.float64)
        if not calibrated or self.precision is None:
            return {
                "probs": softmax(Tensor(logits)).data,
                "variance": np.full(logits.shape[0], np.nan),
                "calibrated": False,
            }
        var = self.variance(phi_t.data)
        adjusted = logits / np.sqrt(1.0 + self.kappa * var)[:, None]
        return {"probs": softmax(Tensor(adjusted)).data, "variance": var, "calibrated": True}


def _invert_lower(low: np.ndarray) -> np.ndarray:
    """The inverse of the lower-triangular `low`, made in place in it.

    With low = [[A, 0], [B, C]], the inverse is [[A^-1, 0], [-C^-1 B A^-1,
    C^-1]]: both diagonal blocks are inverted in place, recursively, then B
    is replaced through one B-sized temporary. Diagonal blocks of at most
    INVERSE_LEAF columns are inverted by np.linalg.inv and their strictly
    upper part zeroed. A and C split at a multiple of INVERSE_LEAF.
    """
    n = low.shape[0]
    if n <= INVERSE_LEAF:
        low[...] = np.tril(np.linalg.inv(low))
        return low
    h = -(-(n // 2) // INVERSE_LEAF) * INVERSE_LEAF
    a, b, c = low[:h, :h], low[h:, :h], low[h:, h:]
    _invert_lower(a)
    _invert_lower(c)
    ba = b @ a  # b's rows times A^-1, whose upper part is zero
    np.matmul(c, ba, out=b)
    np.negative(b, out=b)
    return low


def focal_loss(probs: Tensor, labels, gamma: float) -> Tensor:
    """Mean over the batch of -(1-p)^gamma * log(p) at the true class.

    gamma=0 reduces exactly to cross-entropy. probs are clamped at 1e-12.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    b, c = probs.shape
    onehot = np.zeros((b, c), dtype=np.float32)
    for i, y in enumerate(labels):
        onehot[i, int(y)] = 1.0
    p_true = (probs * Tensor(onehot)).sum(axis=-1)
    p_safe = p_true.clip_min(1e-12)
    per_example = -((1.0 - p_true) ** float(gamma)) * p_safe.log() if gamma > 0 else -p_safe.log()
    return per_example.mean()


@dataclass
class FinetuneConfig:
    steps: int = 500
    batch_size: int = 64
    schedule: CosineWarmupSchedule = field(
        default_factory=lambda: CosineWarmupSchedule(warmup_target_multiplier=2.0)
    )
    weight_decay: float = 0.0
    d_rf: int = 1024
    length_scale: float = 2.0
    ridge: float = 1.0
    linear_probe: bool = False  # freeze everything but the heads
    eval_every: int = 50
    patience: int = 10  # early-stopping patience in eval intervals, on val AUPRC
    seed: int = 0


def finetune_loop(model, snapshots, tasks: list[TaskSpec], cfg: FinetuneConfig, val_indices=None):
    """Joint supervised training of trunk + SNGP heads on the focal-loss sum.

    ISA is bypassed throughout (mode='finetune'), so it is neither trained
    nor power-iterated. A task without a head in `model.heads` gets a new
    one; heads are drawn in task order from one rng seeded `cfg.seed + 1`.
    Training the backbone under a head not in `tasks` would leave that head
    stale and raises ConfigError; `cfg.linear_probe` embeds the training
    and held-out rows once and trains only the task heads on those fixed
    features. Ends with a covariance pass over the training set for every
    task's head. Returns the loss curve: a record per step that trained or
    evaluated. A batch with no row labeled for any task runs no forward and
    does not advance power iteration, and its record, if it evaluated, has
    no `total`. A non-finite loss raises RuntimeError naming the step.

    Rows named by `val_indices` are held out of training. Every
    `cfg.eval_every` steps, trained or not, each task's head is scored by
    AUPRC on the embedded held-out rows labeled for its task, class 1
    against the rest, recorded as `val_auprc.<task>`. Only tasks with a held-out class-1 row
    are scored; the mean of their AUPRCs drives early stopping with
    `cfg.patience`. At the end the trained parameters with the best mean are
    restored, with the power-iteration vectors u and v of their spectral
    layers, so the model is the one that was scored. When no task has a
    held-out positive there is nothing to score: the rows stay held out,
    but early stopping is skipped and no `val_auprc` enters the records.
    """
    from .metrics import auprc

    others = [name for name in model.heads if name not in {t.name for t in tasks}]
    if others and not cfg.linear_probe:
        raise ConfigError(f"training the backbone would leave head '{others[0]}' stale: "
                          f"pass task '{others[0]}' too, or set linear_probe")
    for t in tasks:
        labels = [s.labels[t.name] for s in snapshots if s.labels.get(t.name) is not None]
        if not labels:
            raise DataError(f"no labeled examples for task '{t.name}'")
        bad = [y for y in labels if not (isinstance(y, (int, np.integer)) and 0 <= y < t.classes)]
        if bad:
            raise DataError(f"task '{t.name}' has label {bad[0]!r}; labels are integers in [0, {t.classes})")
    head_rng = np.random.default_rng(cfg.seed + 1)
    for t in tasks:
        if t.name not in model.heads:
            model.heads[t.name] = SngpHead(
                model.d, t.classes, head_rng, d_rf=cfg.d_rf,
                length_scale=cfg.length_scale, ridge=cfg.ridge,
            )

    # the slots a step runs and trains, behind the optimizer, power iteration and
    # the best state: the task heads, plus encoder and trunk without ISA unless probing
    runs = tuple(f"heads.{t.name}." for t in tasks) + (() if cfg.linear_probe else ("encoder.", "trunk."))
    trained = [slot for slot in model.named_state() if slot[0].startswith(runs) and ".isa." not in slot[0]]
    trainer = Trainer(trained, cfg.schedule, cfg.weight_decay, cfg.seed)

    val_set, val_tasks = [], {}  # task name -> (held-out rows labeled for it, their labels)
    if val_indices is None:
        train_set = list(snapshots)
    else:
        val_ids = set(np.asarray(val_indices).tolist())
        train_set = [s for i, s in enumerate(snapshots) if i not in val_ids]
        val_set = [snapshots[i] for i in val_indices]
        for t in tasks:
            rows = [i for i, s in enumerate(val_set) if s.labels.get(t.name) is not None]
            positive = np.array([val_set[i].labels[t.name] for i in rows]) == 1
            if positive.any():  # AUPRC needs a positive
                val_tasks[t.name] = (rows, positive)
    features = model.embed(train_set) if cfg.linear_probe else None
    val_features = model.embed(val_set) if cfg.linear_probe and val_tasks else None

    curve = []
    best_metric = -np.inf
    best_state = None
    stale = 0
    for step in range(cfg.steps):
        idx = trainer.batch(len(train_set), cfg.batch_size)
        batch = [train_set[i] for i in idx]
        record = {"step": step}
        # each task's labeled rows: a batch with none for any task runs no forward
        labeled = [(t, [i for i, s in enumerate(batch) if s.labels.get(t.name) is not None]) for t in tasks]
        labeled = [(t, rows) for t, rows in labeled if rows]
        total = None
        if labeled:
            if cfg.linear_probe:
                pooled = Tensor(features[idx])
            else:
                advance_power_iteration(trainer.spectral)
                x, mask = model.encoder.assemble_tokens(batch)
                _, pooled = model.trunk(x, mask, mode="finetune")
        for t, rows in labeled:
            probs = softmax(model.heads[t.name].logits(pooled[rows]), axis=-1)
            loss = focal_loss(probs, [batch[i].labels[t.name] for i in rows], t.gamma)
            record[f"loss.{t.name}"] = loss.item()
            total = loss if total is None else total + loss
        evaluate = val_tasks and (step + 1) % cfg.eval_every == 0
        if total is None and not evaluate:
            continue
        curve.append(record)
        if total is not None:
            record["total"] = total.item()
            trainer.step(step, total)

        if evaluate:
            pooled = model.embed(val_set) if val_features is None else val_features
            for name, (rows, positive) in val_tasks.items():
                scores = model.heads[name].predict(Tensor(pooled[rows]), calibrated=False)["probs"][:, 1]
                record[f"val_auprc.{name}"] = auprc(scores, positive)
            metric = sum(record[f"val_auprc.{name}"] for name in val_tasks) / len(val_tasks)
            if metric > best_metric + 1e-12:
                best_metric = metric
                # references suffice: optimizer steps and power iteration
                # assign new arrays, never write in place
                best_state = [p.data for p in trainer.params.values()], [(o.u, o.v) for o in trainer.spectral]
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break

    if best_state is not None:
        for p, data in zip(trainer.params.values(), best_state[0]):
            p.data = data
        for layer, (u, v) in zip(trainer.spectral, best_state[1]):
            layer.u, layer.v = u, v

    fit_heads_covariance(model, train_set, tasks)
    return curve


def fit_heads_covariance(model, snapshots, tasks) -> None:
    """Final pass accumulating the Laplace precision for every task head.

    The rows are embedded once; each head is fitted on the rows labeled
    for its task. No graph is recorded.
    """
    pooled = model.embed(snapshots)
    for t in tasks:
        head = model.heads[t.name]
        labeled = [i for i, s in enumerate(snapshots) if s.labels.get(t.name) is not None]
        with no_grad():
            phi = head.features(Tensor(pooled[labeled]))
            logits = head.beta(phi)
        head.fit_covariance(phi.data, softmax(logits).data)


def predict_scores(model, snapshots, task: str, calibrated: bool = True):
    """Class-1 probabilities: the positive class of a binary task, class 1
    against the rest of a multi-class one."""
    return model.predict(snapshots, task, calibrated)["probs"][:, 1]
