"""Spans around calls into tabfusion layers, recorded from outside the library.

``instrument`` swaps public functions and methods of the ``tabfusion``
modules for thin wrappers that open a span per call and restores the
originals on exit. Spans stay in memory; ``write_trace`` stores them when
the run ends. Nothing inside ``src/tabfusion`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute, span name). A dict name picks the span name from the
# enclosing span, so attention and Mlp calls are split by who called them;
# key None is the name used under any other parent.
CALLS = [
    ("tabfusion.data", "load_dataset", "data.load_dataset"),
    ("tabfusion.data", "select_top_k_assets", "data.select_top_k_assets"),
    ("tabfusion.encoder", "FeatureEncoder.assemble_tokens", "encoder.assemble_tokens"),
    ("tabfusion.trunk", "Trunk.__call__", "trunk.forward"),
    ("tabfusion.trunk", "TrunkLayer.__call__", "trunk.layer"),
    ("tabfusion.trunk", "IsaBlock.__call__", "trunk.isa"),
    ("tabfusion.trunk", "attention",
     {"trunk.layer": "trunk.row_attention", "trunk.isa": "trunk.isa_attention", None: "trunk.attention"}),
    ("tabfusion.nn", "Mlp.__call__",
     {"trunk.layer": "trunk.ffn", "trunk.isa": "trunk.isa_ffn", None: "nn.mlp"}),
    ("tabfusion.nn", "SpectralLinear.effective_weight", "nn.effective_weight"),
    ("tabfusion.nn", "power_iteration", "nn.power_iteration"),
    ("tabfusion.tensor", "Tensor.backward", "tensor.backward"),
    ("tabfusion.tensor", "gelu", "tensor.gelu"),
    ("tabfusion.tensor", "layer_norm", "tensor.layer_norm"),
    ("tabfusion.tensor", "softmax", "tensor.softmax"),
    ("tabfusion.optim", "AdamW.step", "optim.adamw_step"),
    ("tabfusion.pretrain", "pretrain_loop", "pretrain.loop"),
    ("tabfusion.pretrain", "cutmix", "pretrain.cutmix"),
    ("tabfusion.pretrain", "reconstruction_loss", "pretrain.reconstruction_loss"),
    ("tabfusion.pretrain", "info_nce", "pretrain.info_nce"),
    ("tabfusion.finetune", "finetune_loop", "finetune.loop"),
    ("tabfusion.finetune", "SngpHead.features", "finetune.sngp_features"),
    ("tabfusion.finetune", "SngpHead.variance", "finetune.sngp_variance"),
    ("tabfusion.finetune", "SngpHead.fit_covariance", "finetune.fit_covariance"),
    ("tabfusion.finetune", "focal_loss", "finetune.focal_loss"),
    ("tabfusion.finetune", "fit_heads_covariance", "finetune.fit_heads_covariance"),
    ("tabfusion.finetune", "predict_scores", "finetune.predict_scores"),
    ("tabfusion.metrics", "auprc", "metrics.auprc"),
    ("tabfusion.metrics", "auroc", "metrics.auroc"),
    ("tabfusion.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("tabfusion.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("tabfusion.model", "Model.__init__", "model.init"),
    ("tabfusion.model", "Model.load", "model.load"),
]

LAYERS = ("data", "encoder", "trunk", "nn", "tensor", "optim", "pretrain", "finetune", "metrics",
          "checkpoint", "model")


def _count_tokens(tracer, result):
    mask = result[1]
    tracer.count("encoder.tokens", mask.size)
    tracer.count("encoder.real_tokens", float(mask.sum()))


def _count_variance_rows(tracer, result):
    tracer.count("finetune.sngp_variance.rows", len(result))


# counters read off a call's result, keyed by span name
AFTER = {"encoder.assemble_tokens": _count_tokens, "finetune.sngp_variance": _count_variance_rows}


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1  # index into Tracer.spans, -1 for a root span
    op: int | None = None  # id of the step or request it belongs to; None in set-up


@dataclass
class Tracer:
    """In-memory span recorder for one single-threaded process."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    op: int | None = None
    _stack: list = field(default_factory=list)

    def count(self, name: str, value: float = 1) -> None:
        if self.op is not None:
            self.counts[name] += value

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent=self._stack[-1] if self._stack else -1, op=self.op))
        self._stack.append(index)
        try:
            yield
        except BaseException:
            self.failed[name.split(".")[0]] += 1
            raise
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    @contextmanager
    def operation(self, op: int):
        """Attribute spans and counts to measured operation ``op``."""
        self.op = op
        try:
            yield
        finally:
            self.op = None


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = s.start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, lo), min(c_end, s.end)
            if c_end > c_start:
                covered += c_end - c_start
                lo = c_end
        out.append((s.end - s.start) - covered)
    return out


# ---- instrumentation -------------------------------------------------------


def _resolve(module_name: str, attr: str):
    obj = importlib.import_module(module_name)
    owner = obj
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1]


def _wrap(tracer: Tracer, fn, name, after=None):
    pick = name.get if isinstance(name, dict) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = pick(tracer.parent_name(), name[None]) if pick else name
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, result)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer, only=None):
    """Wrap every call in CALLS (or only the span names in ``only``).

    A module-level function is replaced in every loaded tabfusion module
    that holds it, so calls through ``from .x import f`` bindings are seen.
    """
    undo = []
    try:
        for module_name, attr, name in CALLS:
            plain = name if isinstance(name, str) else None
            if only is not None and plain not in only:
                continue
            owner, leaf = _resolve(module_name, attr)
            if isinstance(owner, type):
                raw = owner.__dict__[leaf]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = _wrap(tracer, fn, name, AFTER.get(plain))
                setattr(owner, leaf, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                undo.append((owner, leaf, raw))
            else:
                fn = getattr(owner, leaf)
                wrapped = _wrap(tracer, fn, name, AFTER.get(plain))
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "tabfusion" or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, fn))
        yield tracer
    finally:
        for owner, leaf, raw in reversed(undo):
            setattr(owner, leaf, raw)


def span_cost_s(repeats: int = 20000) -> float:
    """Measured cost of one wrapped call over a plain one, in seconds."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = _wrap(tracer, noop, "cost.noop")
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    t1 = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / repeats


# ---- summaries -------------------------------------------------------------


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, total and self milliseconds, split by phase."""
    selfs = self_times(tracer.spans)
    out = {}
    for s, self_s in zip(tracer.spans, selfs):
        phase = "setup" if s.op is None else "ops"
        row = out.setdefault(phase, {}).setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (s.end - s.start) * 1e3
        row["self_ms"] += self_s * 1e3
    return out


def write_trace(tracer: Tracer, path: Path, extra: dict) -> None:
    """Spans as JSON lines (one per span, parent by line index), then a summary."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = tracer.spans[0].start if tracer.spans else 0.0
    with path.open("w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({
                "name": s.name, "start_us": round((s.start - origin) * 1e6, 1),
                "end_us": round((s.end - origin) * 1e6, 1), "parent": s.parent, "op": s.op,
            }) + "\n")
    summary = {**extra, "spans": summarize(tracer), "counts": dict(tracer.counts), "failed": dict(tracer.failed)}
    path.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))


# ---- per-layer metrics ----------------------------------------------------

# Inclusive milliseconds per measured operation (a step or a request).
PER_OP_MS = (
    "trunk.forward", "trunk.row_attention", "trunk.ffn", "trunk.isa", "tensor.backward", "tensor.gelu",
    "tensor.layer_norm", "tensor.softmax", "nn.effective_weight", "nn.power_iteration",
    "encoder.assemble_tokens", "optim.adamw_step", "pretrain.cutmix", "pretrain.reconstruction_loss",
    "pretrain.info_nce", "finetune.sngp_features", "finetune.focal_loss", "finetune.sngp_variance",
    "finetune.fit_heads_covariance", "finetune.fit_covariance",
)
PER_OP_CALLS = (
    "trunk.isa", "tensor.backward", "nn.effective_weight", "nn.power_iteration", "data.select_top_k_assets",
    "optim.adamw_step", "metrics.auprc",
)
PER_OP_COUNTS = ("tensor.matmul.macs", "finetune.sngp_variance.rows")
# Milliseconds per set-up repetition.
SETUP_MS = ("data.load_dataset", "model.load", "model.init")


def layer_metrics(tracer: Tracer, measured_ops: int, setup_repeats: int, measured_s: float,
                  span_cost: float) -> dict:
    """name -> (value, unit) for every per-layer metric of the benchmark."""
    total, calls, setup = Counter(), Counter(), Counter()
    spans_in_ops = 0
    for s in tracer.spans:
        if s.op is None:
            setup[s.name] += s.end - s.start
        elif s.op >= 0:
            total[s.name] += s.end - s.start
            calls[s.name] += 1
            spans_in_ops += 1
    per_op = max(measured_ops, 1)
    out = {f"{n}.ms": (total[n] * 1e3 / per_op, "ms") for n in PER_OP_MS}
    out.update({f"{n}.calls": (calls[n] / per_op, "count") for n in PER_OP_CALLS})
    out.update({n: (tracer.counts[n] / per_op, "count") for n in PER_OP_COUNTS})
    out.update({f"{n}.ms": (setup[n] * 1e3 / max(setup_repeats, 1), "ms") for n in SETUP_MS})
    tokens = tracer.counts["encoder.tokens"]
    out["encoder.real_token_share"] = (tracer.counts["encoder.real_tokens"] / tokens if tokens else 0.0, "ratio")
    out.update({f"{layer}.failed": (tracer.failed[layer], "count") for layer in LAYERS})
    out["trace.overhead_share"] = (spans_in_ops * span_cost / measured_s if measured_s else 0.0, "ratio")
    return out


# ---- percentiles -----------------------------------------------------------

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q % of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(values, cap: float = 95.0):
    """(q, value) for the highest ladder percentile <= cap with at least ten
    samples beyond it; (None, None) when even the median has fewer."""
    n = len(values)
    usable = [q for q in PERCENTILE_LADDER if q <= cap and samples_beyond(n, q) >= 10]
    if not usable:
        return None, None
    return usable[-1], percentile(values, usable[-1])
