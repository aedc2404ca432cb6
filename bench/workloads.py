"""Generated inputs and the three benchmark workloads: pretrain, finetune, serve.

Every input is made here from the workload seed; the library only sees the
rows, written to disk with ``save_dataset`` and read back with
``load_dataset`` as the CLI does. README.md in this directory says why each
workload exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import fmean, median

import numpy as np

import tabfusion.benchmark as tfb
import tabfusion.data as tfd
import tabfusion.finetune as tff
import tabfusion.metrics as tfm
import tabfusion.pretrain as tfp
from tabfusion import RunConfig
from tabfusion.data import Asset, FeatureSchema, FeatureSpec, Snapshot, TaskSpecLite
from tabfusion.model import Model
from tabfusion.tensor import mac_count

from tracing import Tracer, tail_percentile

# Library calls go through module attributes (tfd.load_dataset, ...) so the
# wrappers that tracing.instrument installs there see them.

TASK = "risk"  # fully labeled; see README "Known defect not triggered"
SECOND_TASK = "churn"  # about 30 % of labels absent
MISSING_RATE = 0.10
MAX_ASSETS = 8
CHURN_UNLABELED = 0.30
FIXTURE_STEPS = 2  # the serve checkpoint's fine-tune, untimed
FIXTURE_BATCH = 64
# A single-row answer on serve must agree with the same row's batch answer to
# this relative tolerance; bitwise mismatches are counted and printed apart.
AGREE_RTOL = 1e-9


@dataclass(frozen=True)
class Size:
    """Model and input sizes; ``default`` is the RunConfig default model."""

    d: int = 32
    n_layers: int = 6
    heads: int = 8
    ffn_dim: int = 512
    d_prime: int = 128
    d_rf: int = 1024
    batch: int = 256
    pretrain_rows: int = 4096
    finetune_train_rows: int = 1024
    finetune_val_rows: int = 256
    finetune_test_rows: int = 1024
    finetune_steps_per_op: int = 6
    serve_rows: int = 1024
    serve_fixture_rows: int = 512
    serve_singles_per_batch: int = 8
    warmup_ops: int = 2
    setup_repeats: int = 9
    loss_steps: int = 4  # pretrain_loss averages this many first measured steps


SIZES = {
    "default": Size(),
    # smoke-test size: every code path, a fraction of a second per operation
    "tiny": Size(
        d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, d_rf=32, batch=16,
        pretrain_rows=64, finetune_train_rows=64, finetune_val_rows=32, finetune_test_rows=64,
        finetune_steps_per_op=2, serve_rows=64, serve_fixture_rows=48, serve_singles_per_batch=2,
        warmup_ops=1, setup_repeats=2, loss_steps=1,
    ),
}


def run_config(size: Size) -> RunConfig:
    return RunConfig(
        d=size.d, heads=size.heads, n_layers=size.n_layers, ffn_dim=size.ffn_dim,
        d_prime=size.d_prime, d_rf=size.d_rf, batch_size=size.batch,
    )


# ---- generated inputs ------------------------------------------------------


def make_schema() -> FeatureSchema:
    """All five feature kinds, 16 tokens per row."""
    feats = [FeatureSpec(f"num{i}", "numeric") for i in range(6)]
    feats += [
        FeatureSpec("plan", "categorical", vocab_size=4),
        FeatureSpec("region", "categorical", vocab_size=12),
        FeatureSpec("industry", "categorical", vocab_size=50),
        FeatureSpec("tags", "multi_categorical", vocab_size=20),
        FeatureSpec("profile", "embedding", dim=16),
        FeatureSpec("assets", "multi_embedding", dim=16, max_count=5),
    ]
    return FeatureSchema(feats, [TaskSpecLite(TASK, 2), TaskSpecLite(SECOND_TASK, 2)])


def make_rows(schema: FeatureSchema, n: int, rng: np.random.Generator) -> list[Snapshot]:
    """Rows with 10 % missing values, 0-8 assets and two noisy label rules."""
    rows = []
    for _ in range(n):
        values = {}
        for f in schema:
            missing = rng.random() < MISSING_RATE
            if f.kind == "numeric":
                values[f.name] = None if missing else float(rng.normal())
            elif f.kind == "categorical":
                values[f.name] = None if missing else int(rng.integers(f.vocab_size))
            elif f.kind == "multi_categorical":
                k = 0 if missing else int(rng.integers(1, 5))
                values[f.name] = tuple(sorted(set(rng.integers(0, f.vocab_size, k).tolist())))
            elif f.kind == "embedding":
                values[f.name] = None if missing else rng.normal(size=f.dim).astype(np.float32)
            else:
                count = int(rng.integers(0, MAX_ASSETS + 1))
                values[f.name] = [
                    Asset(rng.normal(size=f.dim).astype(np.float32), float(rng.integers(0, 1000)),
                          float(np.round(rng.random(), 4)))
                    for _ in range(count)
                ]
        rows.append(Snapshot(values, _labels(values, rng)))
    return rows


def _labels(values: dict, rng: np.random.Generator) -> dict:
    def num(name):
        v = values[name]
        return 0.0 if v is None else v

    profile = values["profile"]
    p0 = 0.0 if profile is None else float(profile[0])
    risk = 1.2 * num("num0") - 0.9 * num("num1") + 0.8 * (values["plan"] == 2) + 0.6 * p0
    risk += rng.normal(scale=0.8)
    churn = 1.0 * num("num2") + 0.7 * (len(values["assets"]) > 4) - 0.5 * (3 in values["tags"])
    churn += rng.normal(scale=0.8)
    return {
        TASK: int(risk > 0.4),
        SECOND_TASK: None if rng.random() < CHURN_UNLABELED else int(churn > 0.2),
    }


@dataclass
class DatasetFiles:
    data: Path
    schema: Path
    embeddings: Path

    def load(self):
        return tfd.load_dataset(self.data, self.schema, self.embeddings)


def write_dataset(rows, schema, workdir: Path, name: str) -> DatasetFiles:
    files = DatasetFiles(workdir / f"{name}.csv", workdir / f"{name}.schema.json", workdir / f"{name}.f32")
    tfd.save_dataset(rows, schema, files.data, files.embeddings).save(files.schema)
    return files


def load_fitted_model(path, schema, cfg: RunConfig) -> Model:
    """The one place the benchmark loads a checkpoint."""
    kwargs = dict(
        d=cfg.d, n_layers=cfg.n_layers, heads=cfg.heads, ffn_dim=cfg.ffn_dim, d_prime=cfg.d_prime,
        spectral_norm=cfg.spectral_norm, asset_criterion=cfg.asset_criterion, seed=cfg.seed,
    )
    return Model.load(path, schema, cfg.to_dict(), **kwargs)


def predict(model: Model, rows) -> dict:
    """Calibrated answers for TASK, computed as the CLI ``predict`` command does."""
    x, mask = model.encoder.assemble_tokens(rows)
    _, pooled = model.trunk(x, mask, mode="inference")
    return model.heads[TASK].predict(pooled)


def check_answers(result: dict) -> list:
    probs, var = result["probs"], result["variance"]
    problems = []
    if not result["calibrated"]:
        problems.append("answer not calibrated")
    if not (np.all(np.isfinite(probs)) and probs.min() >= 0.0 and probs.max() <= 1.0):
        problems.append("probabilities not finite or outside [0, 1]")
    elif not np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
        problems.append("probabilities do not sum to 1")
    if not (np.all(np.isfinite(var)) and np.all(var > 0.0)):
        problems.append("variance not finite and positive")
    return problems


def non_finite(record: dict) -> list:
    return [f"non-finite {k}" for k, v in record.items() if isinstance(v, float) and not math.isfinite(v)]


# ---- one run ---------------------------------------------------------------


@dataclass
class Run:
    """One benchmark run: its inputs, tracer, and operations attempted and failed.

    Operation ids >= 0 are measured; negative ids are warm-up and evaluation
    operations, checked like the others but left out of every timing.
    """

    seed: int
    seconds: float
    size: Size
    workdir: Path
    tracer: Tracer
    forbidden: frozenset = frozenset()  # span names no operation of this workload may open
    attempted: int = 0
    failed: int = 0
    measured_ops: int = 0
    measured_s: float = 0.0
    problems: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)
    _build: object = None

    def op_seed(self, op: int) -> int:
        return self.seed * 4096 + 2048 + op

    def attempt(self, op: int, fn):
        """Run fn() -> (result, problems) as operation ``op``; return (seconds, result).

        A raise, a failed check or a forbidden span makes the operation failed.
        """
        first = len(self.tracer.spans)
        macs = mac_count()
        self.attempted += 1
        self.measured_ops += op >= 0
        start = time.perf_counter()
        try:
            with self.tracer.operation(op):
                result, problems = fn()
        except Exception as e:  # a failed operation is counted and the run goes on
            result, problems = None, [f"{type(e).__name__}: {e}"]
        elapsed = time.perf_counter() - start
        if op >= 0:
            self.tracer.counts["tensor.matmul.macs"] += mac_count() - macs
        ran = {s.name for s in self.tracer.spans[first:]} & self.forbidden
        problems = problems + [f"{name} ran" for name in sorted(ran)]
        if problems:
            self.failed += 1
            self.problems.append({"op": op, "problems": problems[:5]})
        return elapsed, result

    def setup(self, build):
        """Time build(), the set-up a user pays, and return its result.

        closed_loop repeats it between operations, spread over the measured
        time, so that setup_s, the median, samples the whole run.
        """
        self._build = build
        return self._timed_build()

    def _timed_build(self):
        start = time.perf_counter()
        result = self._build()
        self.setup_times.append(time.perf_counter() - start)
        return result

    def closed_loop(self, op):
        """Call op(i) -> seconds until the measured time reaches ``seconds``;
        an operation expected to end past that is not started."""
        durations = []
        repeats = self.size.setup_repeats
        while not durations or sum(durations) + median(durations) <= self.seconds:
            durations.append(op(len(durations)))
            while len(self.setup_times) < repeats and sum(durations) >= len(self.setup_times) * self.seconds / repeats:
                self._timed_build()
        while len(self.setup_times) < repeats:
            self._timed_build()
        self.measured_s = sum(durations)


def load_and_build(files: DatasetFiles, cfg: RunConfig):
    schema, rows = files.load()
    return schema, rows, tfb.build_model(schema, cfg)


# ---- workloads ---------------------------------------------------------------
#
# Each workload is prepare(run) -> state, untimed and untraced (inputs and
# fixtures), then measure(run, state) -> (metrics, details). metrics maps a
# name to (value, unit); run.py reports the gated ones on the result line.


def prepare_pretrain(run: Run):
    schema = make_schema()
    rows = make_rows(schema, run.size.pretrain_rows, np.random.default_rng(run.seed))
    return write_dataset(rows, schema, run.workdir, "pretrain")


def measure_pretrain(run: Run, files: DatasetFiles):
    size = run.size
    cfg = run_config(size)
    _, rows, model = run.setup(lambda: load_and_build(files, cfg))
    base = tfb.pretrain_config(cfg)
    losses = []

    def step(op):
        seed = run.op_seed(op)
        pc = replace(base, steps=1, seed=seed, augment=replace(base.augment, seed=seed))
        record = tfp.pretrain_loop(model, rows, pc)[-1]
        return record["total"], non_finite(record)

    for w in range(size.warmup_ops):
        run.attempt(-1 - w, lambda: step(-1 - w))

    step_s = []

    def measured(i):
        elapsed, loss = run.attempt(i, lambda: step(i))
        step_s.append(elapsed)
        if loss is not None:
            losses.append(loss)
        return elapsed

    run.closed_loop(measured)
    step = median(step_s)
    loss_steps = losses[: size.loss_steps]
    metrics = {
        "setup_s": (median(run.setup_times), "s"),
        "rows_per_s": (size.batch / step, "rows/s"),
        "op_ms_p50": (step * 1e3, "ms"),
        "pretrain_rows_per_s": (size.batch / step, "rows/s"),
        "pretrain_loss": (fmean(loss_steps) if loss_steps else math.nan, "loss"),
    }
    return metrics, {"steps": len(step_s), "loss_steps": len(loss_steps), "step_s": step_s}


def prepare_finetune(run: Run):
    size = run.size
    schema = make_schema()
    n = size.finetune_train_rows + size.finetune_val_rows + size.finetune_test_rows
    return write_dataset(make_rows(schema, n, np.random.default_rng(run.seed)), schema, run.workdir, "finetune")


def measure_finetune(run: Run, files: DatasetFiles):
    size = run.size
    cfg = run_config(size)
    _, rows, model = run.setup(lambda: load_and_build(files, cfg))
    n_fit = size.finetune_train_rows + size.finetune_val_rows
    fit_rows, test_rows = rows[:n_fit], rows[n_fit:]
    val_indices = list(range(size.finetune_train_rows, n_fit))
    tasks = [tff.TaskSpec(TASK, 2, gamma=cfg.focal_gamma), tff.TaskSpec(SECOND_TASK, 2, gamma=cfg.focal_gamma)]
    base = tfb.finetune_config(cfg)

    def call(op, steps):
        first = len(run.tracer.spans)
        fc = replace(base, steps=steps, eval_every=max(1, steps // 2), seed=run.op_seed(op))
        curve = tff.finetune_loop(model, fit_rows, tasks, fc, val_indices=val_indices)
        cov_s = sum(s.end - s.start for s in run.tracer.spans[first:] if s.name == "finetune.fit_heads_covariance")
        problems = [p for record in curve for p in non_finite(record)]
        for t in tasks:
            precision = model.heads[t.name].precision
            if precision is None or not np.all(np.isfinite(precision)):
                problems.append(f"covariance of head '{t.name}' not fitted")
        return (len(curve), cov_s), problems

    def heldout():
        answers = [predict(model, test_rows[lo : lo + size.batch]) for lo in range(0, len(test_rows), size.batch)]
        problems = [p for a in answers for p in check_answers(a)]
        scores = np.concatenate([a["probs"][:, 1] for a in answers])
        return tfm.auroc(scores, np.array([r.labels[TASK] for r in test_rows])), problems

    for w in range(size.warmup_ops):
        run.attempt(-1 - w, lambda: call(-1 - w, 1))

    loop_rate, cov_s, call_s = [], [], []
    quality = {}

    def measured(i):
        elapsed, done = run.attempt(i, lambda: call(i, size.finetune_steps_per_op))
        if done is not None:
            steps, cov = done
            loop_rate.append(steps * size.batch / (elapsed - cov))
            cov_s.append(cov)
            call_s.append(elapsed)
        if i == 0:  # quality after a fixed amount of training, whatever the speed
            _, quality["auroc"] = run.attempt(-100, heldout)
        return elapsed

    run.closed_loop(measured)
    metrics = {
        "setup_s": (median(run.setup_times), "s"),
        "rows_per_s": (median(loop_rate), "rows/s"),
        "op_ms_p50": (median(call_s) * 1e3, "ms"),
        "finetune_rows_per_s": (median(loop_rate), "rows/s"),
        "covariance_fit_s": (median(cov_s), "s"),
        "finetune_val_auroc": (math.nan if quality.get("auroc") is None else quality["auroc"], "AUROC"),
    }
    return metrics, {"calls": len(call_s), "steps_per_call": size.finetune_steps_per_op, "call_s": call_s,
                     "covariance_s": cov_s}


def prepare_serve(run: Run):
    size = run.size
    cfg = run_config(size)
    schema = make_schema()
    rng = np.random.default_rng(run.seed)
    fixture = write_dataset(make_rows(schema, size.serve_fixture_rows, rng), schema, run.workdir, "fixture")
    requests = write_dataset(make_rows(schema, size.serve_rows, rng), schema, run.workdir, "requests")
    # the fitted model being served: a short fine-tune, saved as the CLI does
    _, rows, model = load_and_build(fixture, cfg)
    fc = replace(tfb.finetune_config(cfg), steps=FIXTURE_STEPS, batch_size=FIXTURE_BATCH, eval_every=10**9)
    tff.finetune_loop(model, rows, [tff.TaskSpec(TASK, 2), tff.TaskSpec(SECOND_TASK, 2)], fc)
    checkpoint = run.workdir / "serve.ckpt"
    model.save(checkpoint, cfg.to_dict())
    return requests, checkpoint


def measure_serve(run: Run, state):
    requests, checkpoint = state
    size = run.size
    cfg = run_config(size)

    def setup():
        schema, rows = requests.load()
        return rows, load_fitted_model(checkpoint, schema, cfg)

    rows, model = run.setup(setup)
    chunks = [rows[lo : lo + size.batch] for lo in range(0, len(rows) - size.batch + 1, size.batch)]
    pick = np.random.default_rng([run.seed, 1])
    single_s, batch_s = [], []
    ops = itertools.count()

    def batch_request(chunk):
        result = predict(model, chunk)
        return result, check_answers(result)

    bitwise = {"probs": 0, "variance": 0}  # criterion 5 at default size; README, "Defects"

    def single_request(row, reference, j):
        result = predict(model, [row])
        problems = check_answers(result)
        if reference is None:
            problems.append("no batch answer to compare with")
            return result, problems
        for key in ("probs", "variance"):
            single, batch = result[key][0], reference[key][j]
            bitwise[key] += not np.array_equal(single, batch)
            if not np.allclose(single, batch, rtol=AGREE_RTOL, atol=0.0):
                problems.append(f"single-row {key} differ from the batch answer")
        return result, problems

    def cycle(i, measured=True):
        chunk = chunks[i % len(chunks)]
        op = next(ops) if measured else -1
        elapsed, reference = run.attempt(op, lambda: batch_request(chunk))
        total = elapsed
        if measured:
            batch_s.append(elapsed)
        for j in pick.choice(len(chunk), size=size.serve_singles_per_batch, replace=False):
            op = next(ops) if measured else -1
            elapsed, _ = run.attempt(op, lambda: single_request(chunk[j], reference, j))
            total += elapsed
            if measured:
                single_s.append(elapsed)
        return total

    for w in range(size.warmup_ops):
        cycle(w, measured=False)
    run.closed_loop(cycle)
    q, tail = tail_percentile(single_s, cap=95.0)
    metrics = {
        "setup_s": (median(run.setup_times), "s"),
        "rows_per_s": (size.batch / median(batch_s), "rows/s"),
        "op_ms_p50": (median(single_s) * 1e3, "ms"),
        "predict_1row_ms_p50": (median(single_s) * 1e3, "ms"),
        "predict_1row_ms_p95": (math.nan if tail is None else tail * 1e3, "ms"),
        "predict_batch_rows_per_s": (size.batch / median(batch_s), "rows/s"),
        "batch_bitwise_prob_mismatches": (bitwise["probs"], "count"),
        "batch_bitwise_variance_mismatches": (bitwise["variance"], "count"),
    }
    return metrics, {"single_requests": len(single_s), "batch_requests": len(batch_s),
                     "tail_percentile_used": q}


@dataclass(frozen=True)
class Workload:
    prepare: object
    measure: object
    forbidden: frozenset  # layer calls the workload must not make, checked in the traced run


WORKLOADS = {
    "pretrain": Workload(prepare_pretrain, measure_pretrain, frozenset()),
    "finetune": Workload(prepare_finetune, measure_finetune, frozenset({"trunk.isa"})),
    "serve": Workload(prepare_serve, measure_serve,
                      frozenset({"trunk.isa", "tensor.backward", "optim.adamw_step", "nn.power_iteration"})),
}
