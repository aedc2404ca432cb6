"""Supervised stage: SNGP output heads (random-feature Gaussian process with
Laplace covariance), focal loss, multi-task fine-tuning, calibrated inference.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ConfigError, FinetuneConfig
from .data import DataError, TaskSpec
from .nn import Linear, Module, advance_power_iteration
from .optim import Trainer
from .tensor import Tensor, linear, no_grad, softmax

__all__ = ["TaskSpec", "SngpHead", "focal_loss", "check_finetune", "finetune_loop"]

# Rows per product with the variance factor. A fixed block shape gives
# every row the same BLAS kernel and summation order whatever the batch size,
# so variances are bitwise batch-independent (plain gemm reblocks by M).
VARIANCE_BLOCK_ROWS = 4
# Columns per panel of the upper-triangular variance factor.
VARIANCE_PANEL_COLS = 128
# Rows per inference chunk (`Model.embed`, `Model.predict`, the covariance
# pass): rows are bitwise batch-independent, so it sets only peak memory,
# never an output bit.
INFERENCE_BATCH = 256


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
        d_rf: int,
        length_scale: float,
        ridge: float,
        kappa: float = math.pi / 8.0,
    ):
        self.classes = classes
        self.d_rf = d_rf
        self.length_scale = length_scale
        self.ridge = ridge
        self.kappa = kappa
        # Omega as the transpose of a C-contiguous [in, d_rf] array, the
        # layout linear's row kernel reads
        self.omega = np.asfortranarray((rng.standard_normal((d_rf, in_dim)) / length_scale).astype(np.float32))
        self.phase = rng.uniform(0.0, 2.0 * math.pi, size=d_rf).astype(np.float32)
        self.beta = Linear(d_rf, classes, rng, bias=False)
        self.precision: np.ndarray | None = None  # Lambda, set by fit_covariance
        # F's column panels packed in one float64 array (`_factorise`), as a
        # checkpoint stores them: set by a load, or made from the precision
        # by the first `variance` after a fit
        self.factor: np.ndarray | None = None

    def features(self, pooled: Tensor) -> Tensor:
        """Phi = sqrt(2/d_rf) cos(pooled Omega^T + b); differentiable in pooled.

        Omega is read in the row kernel's layout, so a request copies
        nothing; a C-ordered `omega`, as a load sets it, is laid out once,
        by assignment."""
        if not self.omega.T.flags.c_contiguous:
            self.omega = np.asfortranarray(self.omega)
        phase = Tensor(self.phase.astype(pooled.dtype, copy=False))
        return linear(pooled, Tensor(self.omega), phase).cos() * math.sqrt(2.0 / self.d_rf)

    def logits(self, pooled: Tensor) -> Tensor:
        return self.beta(self.features(pooled))

    def fit_covariance(self, phi: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """Laplace precision Lambda = ridge*I + sum_i p_i(1-p_i) phi_i phi_i^T.

        For binary tasks p_i is the positive-class probability; multiclass
        uses the max-prob heuristic. Order-independent (a plain sum).
        """
        # free the old precision and factor before the new ones are made
        self.precision, self.factor = None, None
        a = np.empty(np.shape(phi))
        _weigh_rows(phi, probs, out=a)
        return self._set_precision(a)

    def _set_precision(self, a: np.ndarray) -> np.ndarray:
        """Lambda = a^T a + ridge*I from the weighted rows a (`_weigh_rows`):
        numpy's symmetric product, so Lambda is exactly symmetric."""
        lam = a.T @ a
        lam[np.diag_indices(self.d_rf)] += self.ridge
        self.precision = lam
        return lam

    def variance(self, phi: np.ndarray) -> np.ndarray:
        """Predictive variance, the diagonal of Phi Lambda^-1 Phi^T.

        With L = chol(Lambda) and F = (L^-1)^T, Lambda^-1 = F F^T, so each
        row's variance is |phi F|^2: O(d_rf^2) per row. F is upper
        triangular, so only its column panels of VARIANCE_PANEL_COLS are
        kept, panel [c0, c1) holding rows [0, c1), as views of the packed
        `factor`. After a load that is the file's, so no factorisation runs;
        after a fit the first call makes it from `precision` (`_factorise`:
        O(d_rf^3), holding the packed factor and one block row beside the
        precision) and keeps it until the next fit. Rows are multiplied in
        zero-padded blocks of VARIANCE_BLOCK_ROWS, so every kernel call has a
        shape fixed by the panel alone and a row's variance is bitwise the
        same alone or in any batch.
        """
        if self.factor is None:
            if self.precision is None:
                raise RuntimeError("covariance not fitted")
            self.factor = _factorise(self.precision)
        n = len(phi)
        blocks = np.zeros((-(-n // VARIANCE_BLOCK_ROWS), VARIANCE_BLOCK_ROWS, self.d_rf))
        blocks.reshape(-1, self.d_rf)[:n] = phi  # cast to float64 on the way in
        y = np.empty_like(blocks)
        for panel in _panel_views(self.factor, self.d_rf):
            c1 = panel.shape[0]
            np.matmul(blocks[:, :, :c1], panel, out=y[:, :, c1 - panel.shape[1] : c1])
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
        if not calibrated or (self.precision is None and self.factor is None):
            return {
                "probs": softmax(Tensor(logits)).data,
                "variance": np.full(logits.shape[0], np.nan),
                "calibrated": False,
            }
        var = self.variance(phi_t.data)
        adjusted = logits / np.sqrt(1.0 + self.kappa * var)[:, None]
        return {"probs": softmax(Tensor(adjusted)).data, "variance": var, "calibrated": True}

    def packed_factor(self) -> np.ndarray:
        """The packed `factor` a checkpoint stores; when no calibrated answer
        has made it since a fit, made from `precision` here and not kept."""
        return _factorise(self.precision) if self.factor is None else self.factor


def packed_size(d_rf: int) -> int:
    """Entries of a packed factor: panel [c0, c1) holds c1 * (c1 - c0)."""
    return sum(c1 * (c1 - c0) for c0, c1 in _panel_bounds(d_rf))


def _panel_bounds(d_rf: int):
    return [(c0, min(c0 + VARIANCE_PANEL_COLS, d_rf)) for c0 in range(0, d_rf, VARIANCE_PANEL_COLS)]


def _factorise(precision: np.ndarray) -> np.ndarray:
    """The column panels of F = (L^-1)^T, L = chol(precision), packed in one
    new float64 array: panel [c0, c1) is F[:c1, c0:c1], C-contiguous, and
    the panels follow one another in column order.

    The panels are made in order, each from the precision and the panels
    before it, so a factorisation holds the packed factor and one block row
    beside the precision, never a d_rf x d_rf array. For panel [c0, c1),
    L's block row is G = Lambda[c0:c1, :c0] F[:c0, :c0], one product per
    earlier panel; its diagonal block's inverse is M = L_pp^-1 with L_pp =
    chol(Lambda[c0:c1, c0:c1] - G G^T); and L^-1's block row is
    [-M G F[:c0, :c0]^T | M], the panel's transpose. Cholesky factorisations
    and inverses see blocks of at most VARIANCE_PANEL_COLS: M is
    np.linalg.inv(L_pp) with its strictly upper part zeroed. With one panel
    (d_rf <= VARIANCE_PANEL_COLS) that is the inverse of the whole
    precision's Cholesky factor."""
    d_rf = precision.shape[0]
    packed = np.empty(packed_size(d_rf))
    done = []  # ((q0, q1), panel) for the panels made so far
    for (c0, c1), panel in zip(_panel_bounds(d_rf), _panel_views(packed, d_rf)):
        g = np.empty((c1 - c0, c0))  # G, L's block row left of the diagonal
        for (q0, q1), f in done:
            np.matmul(precision[c0:c1, :q1], f, out=g[:, q0:q1])
        m = np.tril(np.linalg.inv(np.linalg.cholesky(precision[c0:c1, c0:c1] - g @ g.T)))
        h = np.zeros((c1 - c0, c0))  # G F[:c0, :c0]^T
        for (q0, q1), f in done:
            h[:, :q1] += g[:, q0:q1] @ f.T
        np.matmul(h.T, m.T, out=panel[:c0])
        np.negative(panel[:c0], out=panel[:c0])
        panel[c0:] = m.T
        done.append(((c0, c1), panel))
    return packed


def _panel_views(packed: np.ndarray, d_rf: int) -> list:
    """The panels of a packed factor (`_factorise`) as views of it."""
    views, start = [], 0
    for c0, c1 in _panel_bounds(d_rf):
        end = start + c1 * (c1 - c0)
        views.append(packed[start:end].reshape(c1, c1 - c0))
        start = end
    return views


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


def finetune_loop(model, snapshots, tasks: list[TaskSpec], cfg: FinetuneConfig, val_indices=None):
    """Joint supervised training of trunk + SNGP heads on the focal-loss sum.

    ISA is bypassed throughout (mode='finetune'), so it is neither trained
    nor power-iterated. A task without a head in `model.heads` gets a new
    one; heads are drawn in task order from one rng seeded `cfg.seed + 1`.
    Training the backbone under a head not in `tasks` would leave that head
    stale and raises ConfigError (`check_finetune`); `cfg.linear_probe`
    embeds the training and held-out rows once and trains only the task
    heads on those fixed features. Ends with a covariance pass over the
    training set for every task's head, on a probe's training embeddings.
    Training moves the features a task head's fit was made on, so the loop
    empties each task head's `precision` and `factor` once its refusals
    are made, and drops the optimizer state and the best state before the
    covariance pass (each step frees its gradients). A loop that raises
    mid-way leaves its task heads unfitted, so they answer uncalibrated.
    Heads not in `tasks` keep their fits.
    Returns the loss curve: a record per step that trained or evaluated. A
    batch with no row labeled for any task runs no forward and
    does not advance power iteration, and its record, if it evaluated, has
    no `total`. A non-finite loss raises RuntimeError naming the step.

    Rows named by `val_indices` are held out of training: they must be
    distinct indices into `snapshots` (ValueError), and every task must keep
    a labeled row to train on (DataError), both refused by `check_finetune`
    before any work, as is an `eval_every` or `patience` below 1
    (ConfigError). Every `cfg.eval_every` steps, trained or not, each
    task's head is scored by AUPRC on the embedded held-out rows labeled
    for its task, class 1 against the rest, recorded as `val_auprc.<task>`.
    Only tasks with a held-out class-1 row are scored; the mean of their
    AUPRCs drives early stopping with `cfg.patience`. At the end the trained
    parameters with the best mean are restored, with the power-iteration
    vectors u and v of their spectral layers, so the model is the one that
    was scored. When no task has a
    held-out positive there is nothing to score: the rows stay held out,
    but early stopping is skipped and no `val_auprc` enters the records.
    """
    from .metrics import auprc

    for name, value in (("eval_every", cfg.eval_every), ("patience", cfg.patience)):
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
    check_finetune(model.heads, snapshots, tasks, cfg.linear_probe, val_indices)
    head_rng = np.random.default_rng(cfg.seed + 1)
    for t in tasks:
        if t.name not in model.heads:
            model.heads[t.name] = SngpHead(model.d, t.classes, head_rng, cfg.d_rf, cfg.length_scale, cfg.ridge)
        head = model.heads[t.name]
        head.precision = head.factor = None

    # the slots a step runs and trains, behind the optimizer, power iteration and
    # the best state: the task heads, plus encoder and trunk without ISA unless probing;
    # a generator, so no list of the slots' values outlives the Trainer
    runs = tuple(f"heads.{t.name}." for t in tasks) + (() if cfg.linear_probe else ("encoder.", "trunk."))
    trained = (slot for slot in model.named_state() if slot[0].startswith(runs) and ".isa." not in slot[0])
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
    # the AdamW moments, twice the trained parameters, are freed before the
    # covariance pass, which sets the call's peak
    del trainer, best_state

    fit_heads_covariance(model, train_set, tasks, features)
    return curve


def check_finetune(heads: dict, snapshots, tasks: list[TaskSpec], linear_probe: bool, val_indices=None) -> None:
    """The refusals `finetune_loop` makes before its work, for a model with
    `heads`: a task named twice, a task whose `classes` differs from its
    head's, and training the backbone under a head no task names, which
    would leave it stale (ConfigError, the last unless `linear_probe`);
    `val_indices` must name distinct rows of `snapshots` by indices in
    [0, len(snapshots)) (ValueError naming the first bad one); every task
    needs a labeled row outside them, and its labels must be integers in
    [0, classes) (DataError)."""
    named = set()
    for t in tasks:
        if t.name in named:
            raise ConfigError(f"task '{t.name}' is named twice; each task trains once")
        named.add(t.name)
        if t.name in heads and heads[t.name].classes != t.classes:
            raise ConfigError(f"task '{t.name}' has {t.classes} classes but its head has "
                              f"{heads[t.name].classes}")
    others = [name for name in heads if name not in named]
    if others and not linear_probe:
        raise ConfigError(f"training the backbone would leave head '{others[0]}' stale: "
                          f"pass task '{others[0]}' too, or set linear_probe")
    held = set()
    for i in () if val_indices is None else np.asarray(val_indices).tolist():
        if not isinstance(i, int) or not 0 <= i < len(snapshots) or i in held:
            raise ValueError(f"val_indices holds {i!r}: held-out rows are distinct indices in "
                             f"[0, {len(snapshots)})")
        held.add(i)
    for t in tasks:
        rows = [i for i, s in enumerate(snapshots) if s.labels.get(t.name) is not None]
        if not rows:
            raise DataError(f"no labeled examples for task '{t.name}'")
        bad = [y for y in (snapshots[i].labels[t.name] for i in rows)
               if not (isinstance(y, (int, np.integer)) and 0 <= y < t.classes)]
        if bad:
            raise DataError(f"task '{t.name}' has label {bad[0]!r}; labels are integers in [0, {t.classes})")
        if held.issuperset(rows):
            raise DataError(f"task '{t.name}' has no labeled row outside val_indices to train on")


def fit_heads_covariance(model, snapshots, tasks, pooled=None) -> None:
    """Final pass accumulating the Laplace precision for every task head.

    The rows are embedded once, unless `pooled` holds their embeddings
    already; each head is fitted on the rows labeled for its task, its old
    fit freed first. The head's weighted rows fill one float64 [labeled
    rows, d_rf] block (`_weighted_block`), and its precision is the block's
    a^T a. Each row's steps read that row alone, so the precision is
    bitwise `SngpHead.fit_covariance` of all the rows at once. No graph is
    recorded.
    """
    if pooled is None:
        pooled = model.embed(snapshots)
    for t in tasks:
        head = model.heads[t.name]
        head.precision, head.factor = None, None
        labeled = [i for i, s in enumerate(snapshots) if s.labels.get(t.name) is not None]
        head._set_precision(_weighted_block(head, pooled, labeled))


def _weighted_block(head: SngpHead, pooled: np.ndarray, rows: list) -> np.ndarray:
    """The weighted rows (`_weigh_rows`) of `head` on pooled[rows], one float64
    block filled INFERENCE_BATCH rows at a time under no_grad: features,
    logits and softmax exist for one chunk at a time."""
    a = np.empty((len(rows), head.d_rf))
    with no_grad():
        for lo in range(0, len(rows), INFERENCE_BATCH):
            phi = head.features(Tensor(pooled[rows[lo : lo + INFERENCE_BATCH]]))
            _weigh_rows(phi.data, softmax(head.beta(phi)).data, out=a[lo : lo + INFERENCE_BATCH])
    return a


def _weigh_rows(phi, probs, out: np.ndarray) -> None:
    """out = phi * sqrt(p (1 - p)), row by row, in float64: the rows a of
    the Laplace precision a^T a. p is a binary task's positive-class
    probability and a multi-class one's max probability (or `probs` itself
    when it is 1-D)."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim == 2:
        p = probs[:, 1] if probs.shape[1] == 2 else probs.max(axis=1)
    else:
        p = probs
    np.multiply(phi, np.sqrt(p * (1.0 - p))[:, None], out=out)


def predict_scores(model, snapshots, task: str, calibrated: bool = True):
    """Class-1 probabilities: the positive class of a binary task, class 1
    against the rest of a multi-class one."""
    return model.predict(snapshots, task, calibrated)["probs"][:, 1]
