"""Tests of the benchmark's own logic: span arithmetic, the percentile rule,
instrumentation, and one tiny-size smoke run per workload."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracing import Span, Tracer, instrument, samples_beyond, self_times, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0))
    with tracer.span("a"):  # 0 .. 10
        with tracer.span("b"):  # 1 .. 5
            with tracer.span("c"):  # 2 .. 4
                pass
        with tracer.span("d"):  # 6 .. 9
            pass
    assert [s.name for s in tracer.spans] == ["a", "b", "c", "d"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert self_times(tracer.spans) == [3.0, 2.0, 2.0, 3.0]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [Span("p", 0.0, 10.0), Span("x", 1.0, 5.0, parent=0), Span("y", 3.0, 7.0, parent=0),
             Span("z", 9.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_failed_call_is_counted_per_layer_and_reraised():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("trunk.forward"):
            with tracer.span("tensor.gelu"):
                raise ValueError("boom")
    assert tracer.failed == {"trunk": 1, "tensor": 1}
    assert all(s.end >= s.start for s in tracer.spans)


def test_operation_attributes_spans_and_counts():
    tracer = Tracer()
    tracer.count("x")  # outside an operation: not counted
    with tracer.operation(3):
        with tracer.span("nn.mlp"):
            tracer.count("x", 2)
    with tracer.span("data.load_dataset"):
        pass
    assert [s.op for s in tracer.spans] == [3, None]
    assert tracer.counts == {"x": 2}


def test_tail_percentile_needs_ten_samples_beyond():
    assert samples_beyond(200, 95.0) == 10
    assert tail_percentile(list(range(1, 201))) == (95.0, 190)
    assert tail_percentile(list(range(199, 0, -1)))[0] == 90.0  # p95 would have 9 beyond
    assert tail_percentile(list(range(1, 21))) == (50.0, 10)
    assert tail_percentile(list(range(1, 20))) == (None, None)
    assert tail_percentile(list(range(1, 1001))) == (95.0, 950)  # capped at the metric's name
    assert tail_percentile(list(range(1, 1001)), cap=99.9) == (99.0, 990)


def test_instrument_names_trunk_calls_and_restores_originals():
    import tabfusion.nn
    import tabfusion.tensor
    import tabfusion.trunk
    from tabfusion.tensor import Tensor
    from tabfusion.trunk import Trunk, TrunkConfig

    originals = (tabfusion.trunk.layer_norm, tabfusion.nn.Mlp.__call__, tabfusion.trunk.Trunk.__call__)
    rng = np.random.default_rng(0)
    trunk = Trunk(TrunkConfig(d=8, n_tokens=3, n_layers=2, heads=2, ffn_dim=16, d_prime=8), rng)
    x = Tensor(rng.standard_normal((4, 3, 8)).astype(np.float32))
    tracer = Tracer()
    with instrument(tracer):
        assert tabfusion.trunk.layer_norm is tabfusion.tensor.layer_norm is not originals[0]
        with tracer.operation(0):
            trunk(x, mode="inference")
        with tracer.operation(1):
            trunk(x, mode="pretrain")
    assert (tabfusion.trunk.layer_norm, tabfusion.nn.Mlp.__call__, tabfusion.trunk.Trunk.__call__) == originals

    def names(op):
        return [s.name for s in tracer.spans if s.op == op]

    assert names(0).count("trunk.layer") == 2 and names(0).count("trunk.row_attention") == 2
    assert names(0).count("trunk.ffn") == 2 and "trunk.isa" not in names(0)
    assert names(1).count("trunk.isa") == 2 and names(1).count("trunk.isa_attention") == 2
    assert names(1).count("trunk.isa_ffn") == 2 and names(1).count("nn.power_iteration") == 0


@pytest.mark.parametrize("workload", ["pretrain", "finetune", "serve"])
def test_tiny_smoke_run_prints_every_named_metric(workload):
    for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.5",
             "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1 and result["correct"] == (result["failed"] == 0)
        assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
        table = {line.split()[1] for line in lines[:-1] if line.startswith("# ") and not line.startswith("# env")}
        assert set(WORKLOAD_METRICS[workload]) <= table
        record = json.loads((ROOT / ".bench_work" / "results" / f"{workload}-seed3-tiny-trace{trace}.json").read_text())
        assert record["env"]["seed"] == 3 and record["env"]["traced"] == bool(trace)
        assert record["problems"] == [] and result["correct"]
        if trace:
            per_layer = result["metrics"]
            for name in FORBIDDEN_CALLS[workload]:
                assert per_layer[name]["value"] == 0


WORKLOAD_METRICS = {
    "pretrain": ["setup_s", "peak_rss_mb", "failed_op_share", "pretrain_rows_per_s", "pretrain_loss"],
    "finetune": ["setup_s", "peak_rss_mb", "failed_op_share", "finetune_rows_per_s", "covariance_fit_s",
                 "finetune_val_auroc"],
    "serve": ["setup_s", "peak_rss_mb", "failed_op_share", "predict_1row_ms_p50", "predict_1row_ms_p95",
              "predict_batch_rows_per_s", "batch_bitwise_prob_mismatches", "batch_bitwise_variance_mismatches"],
}
FORBIDDEN_CALLS = {
    "pretrain": [],
    "finetune": ["trunk.isa.calls"],
    "serve": ["trunk.isa.calls", "tensor.backward.calls", "optim.adamw_step.calls", "nn.power_iteration.calls"],
}
