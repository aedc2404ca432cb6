"""tabfusion benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload {pretrain,finetune,serve} --seed N --seconds S --trace {0,1}

Run it from the repository root: the library is imported from ./src. The
last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``, holding the end-to-end
metrics of BENCHMARK.json with ``--trace 0`` and its per-layer metrics
with ``--trace 1``. The lines above it list every metric the run computed,
including the workload-specific ones README.md names. The full record,
with the environment, goes to .bench_work/results/ and, for a traced run,
the spans to .bench_work/traces/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # set before numpy loads: one BLAS/OpenMP thread
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("pretrain", "finetune", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("default", "tiny"), default="default",
                   help="'tiny' is the smoke-test size used by the benchmark's own tests")
    return p.parse_args(argv)


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        deps = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "traced": bool(args.trace),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tabfusion" / "__init__.py").is_file():
        print(f"error: no tabfusion sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import tabfusion

    if Path(tabfusion.__file__).resolve().parent != (SRC / "tabfusion").resolve():
        print(f"error: imported tabfusion from {tabfusion.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing
    from workloads import SIZES, WORKLOADS, Run

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer()
    run = Run(args.seed, args.seconds, SIZES[args.size], workdir, tracer, forbidden=workload.forbidden)
    try:
        state = workload.prepare(run)
        # untraced runs wrap only the call that covariance_fit_s times
        with tracing.instrument(tracer, only=None if args.trace else {"finetune.fit_heads_covariance"}):
            metrics, details = workload.measure(run, state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["failed_op_share"] = (run.failed / run.attempted, "ratio")
    metrics["ok_op_share"] = (1.0 - run.failed / run.attempted, "ratio")
    env = environment(args)
    record = {"env": env, "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
              "details": details, "end_to_end": metrics}
    tag = f"{args.workload}-seed{args.seed}-{args.size}"
    if args.trace:
        layers = tracing.layer_metrics(tracer, run.measured_ops, len(run.setup_times), run.measured_s,
                                       tracing.span_cost_s())
        record["per_layer"] = layers
        untraced = WORK / "results" / f"{tag}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]
            record["overhead_vs_untraced"] = {
                k: metrics[k][0] / base[k][0] - 1.0 for k in base if k in metrics and base[k][0]
            }
        tracing.write_trace(tracer, WORK / "traces" / f"{tag}.spans.jsonl", {"env": env})
        reported, wanted = layers, spec["per_layer"]
    else:
        reported, wanted = metrics, spec["end_to_end"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=float))

    print("# env " + json.dumps(env))
    for name, (value, unit) in sorted({**metrics, **record.get("per_layer", {})}.items()):
        print(f"# {name:40s} {value:>16.6g} {unit}")
    for p in run.problems[:10]:
        print(f"# failed operation {p['op']}: {'; '.join(p['problems'])}")
    out = {}
    for m in wanted:
        value, unit = reported[m["name"]]
        if unit != m["unit"] or not math.isfinite(value):
            print(f"error: metric {m['name']} = {value} {unit}, expected a finite value in {m['unit']}",
                  file=sys.stderr)
            return 1
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
