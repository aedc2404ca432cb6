"""Command-line entry point.

Subcommands: pretrain, finetune, predict, eval, benchmark, select-features,
export-embeddings. Every run writes a JSON manifest next to its outputs.

Exit codes: 0 success, 2 configuration error, 3 missing input file,
4 malformed data, 1 any other failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import benchmark as bench
from .config import ConfigError, RunConfig
from .data import DataError, FeatureSchema, TaskSpec, load_dataset
from .feature_select import StopRule, backward_eliminate
from .finetune import finetune_loop, predict_scores
from .metrics import auprc, auroc, ece
from .model import Model
from .pretrain import pretrain_loop

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_FILE = 3
EXIT_DATA = 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        if args.dry_run and args.command != "benchmark":
            return _dry_run(args)
        return args.func(args)
    except ConfigError as e:
        print(f"error:config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:
        print(f"error:missing-file: {e}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except DataError as e:
        print(f"error:data: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, RuntimeError, KeyError) as e:
        print(f"error:runtime: {e}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tabfusion",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--config", help="JSON run-config file (defaults used when omitted)")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--dry-run", action="store_true", help="validate config and data, touch no model state")
    sub = p.add_subparsers(dest="command")

    def data_args(sp):
        sp.add_argument("--schema", required=True)
        sp.add_argument("--data", required=True)
        sp.add_argument("--embeddings", help="binary f32 sidecar for embedding features")

    sp = sub.add_parser("pretrain", help="self-supervised pre-training")
    data_args(sp)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--out-checkpoint", required=True)
    sp.add_argument("--loss-log")
    sp.set_defaults(func=cmd_pretrain)

    sp = sub.add_parser("finetune", help="supervised fine-tuning with SNGP heads")
    data_args(sp)
    sp.add_argument("--task", required=True, action="append", help="task name (repeatable)")
    sp.add_argument("--init-checkpoint")
    sp.add_argument("--out-checkpoint", required=True)
    sp.set_defaults(func=cmd_finetune)

    sp = sub.add_parser("predict", help="calibrated predictions for snapshots")
    data_args(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--task", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("eval", help="metrics on a labeled dataset")
    data_args(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--task", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("benchmark", help="k-fold public-benchmark run")
    sp.add_argument("--dataset", required=True, choices=sorted(bench.DATASETS))
    sp.add_argument("--data-dir", default="data")
    sp.add_argument("--data", help="explicit path to the dataset CSV")
    sp.add_argument("--folds", type=int)
    sp.add_argument("--pretrain-steps", type=int)
    sp.add_argument("--out", default="metrics.json")
    sp.set_defaults(func=cmd_benchmark)

    sp = sub.add_parser("select-features", help="backward elimination over structured features")
    data_args(sp)
    sp.add_argument("--task", required=True)
    sp.add_argument("--tolerance", type=float, default=0.002)
    sp.add_argument("--min-features", type=int, default=1)
    sp.add_argument("--out-schema", required=True)
    sp.add_argument("--trace")
    sp.set_defaults(func=cmd_select)

    sp = sub.add_parser("export-embeddings", help="pooled embeddings to binary + index")
    data_args(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out-prefix", required=True)
    sp.add_argument("--pca2d", action="store_true")
    sp.add_argument("--task", help="label column to include in the index")
    sp.set_defaults(func=cmd_export)
    return p


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    return cfg


def _check_inputs(args) -> None:
    for attr in ("schema", "data", "embeddings", "checkpoint", "init_checkpoint"):
        path = getattr(args, attr, None)
        if path and not Path(path).exists():
            raise FileNotFoundError(f"--{attr.replace('_', '-')} file {path} does not exist")


def _load_data(args):
    _check_inputs(args)
    return load_dataset(args.data, args.schema, args.embeddings)


def _load_model_and_data(path, args, cfg: RunConfig, task: str | None = None):
    """(model, snapshots): the checkpoint, which --schema and the model record
    must match and which needs a head for `task` when given, and --data read
    under the checkpoint's schema, so numerics use the training statistics."""
    _check_inputs(args)
    model = Model.load(path, FeatureSchema.load(args.schema), **cfg.model_record())
    if task is not None and task not in model.heads:
        raise ConfigError(f"checkpoint has no head for task '{task}'")
    return model, load_dataset(args.data, model.schema, args.embeddings)[1]


def _dry_run(args) -> int:
    """Validate the config, the inputs and the data under --schema; touch no model state."""
    _load_config(args)
    schema, snapshots = _load_data(args)
    print(f"dry-run ok: {len(snapshots)} snapshots, {len(schema)} features")
    return EXIT_OK


def _write_manifest(out_path, cfg: RunConfig, inputs: dict, started: float) -> None:
    manifest = {
        "config": cfg.to_dict(),
        "inputs": {k: bench.file_sha256(v) for k, v in inputs.items() if v},
        "wall_time_s": round(time.time() - started, 3),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    Path(str(out_path) + ".manifest.json").write_text(json.dumps(manifest, indent=2))


def cmd_pretrain(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    schema, snapshots = _load_data(args)
    if args.steps is not None:
        cfg.pretrain_steps = args.steps
    if cfg.pretrain_steps <= 0:
        cfg.pretrain_steps = 200
    model = bench.build_model(schema, cfg)
    pretrain_loop(model, snapshots, bench.pretrain_config(cfg), log_path=args.loss_log)
    model.save(args.out_checkpoint, cfg.to_dict())
    _write_manifest(args.out_checkpoint, cfg, {"schema": args.schema, "data": args.data}, started)
    return EXIT_OK


def cmd_finetune(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    if args.init_checkpoint:
        model, snapshots = _load_model_and_data(args.init_checkpoint, args, cfg)
    else:
        schema, snapshots = _load_data(args)
        model = bench.build_model(schema, cfg)
    declared = {t.name: t for t in FeatureSchema.load(args.schema).tasks}
    for name in set(args.task) - declared.keys():
        # a task the schema does not declare is binary; the loader checked
        # only the declared tasks' labels, so check this one's here
        bad = next((i for i, s in enumerate(snapshots) if s.labels.get(name) not in (None, 0, 1)), None)
        if bad is not None:
            raise DataError(f"label {snapshots[bad].labels[name]} outside [0, 2)", row=bad + 2, feature=f"label:{name}")
    tasks = [replace(declared.get(name, TaskSpec(name)), gamma=cfg.focal_gamma) for name in args.task]
    finetune_loop(model, snapshots, tasks, bench.finetune_config(cfg))
    model.save(args.out_checkpoint, cfg.to_dict())
    inputs = {"schema": args.schema, "data": args.data, "init_checkpoint": args.init_checkpoint}
    _write_manifest(args.out_checkpoint, cfg, inputs, started)
    return EXIT_OK


def cmd_predict(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    model, snapshots = _load_model_and_data(args.checkpoint, args, cfg, task=args.task)
    result = model.predict(snapshots, args.task, batch_size=cfg.batch_size)
    calibrated = result["calibrated"]
    with Path(args.out).open("w") as fh:
        for probs, var in zip(result["probs"], result["variance"]):
            rec = {
                "task": args.task,
                "probs": [round(float(v), 8) for v in probs],
                "variance": round(float(var), 8) if calibrated else None,
                "calibrated": calibrated,
            }
            fh.write(json.dumps(rec) + "\n")
    _write_manifest(args.out, cfg, {"schema": args.schema, "data": args.data}, started)
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    model, snapshots = _load_model_and_data(args.checkpoint, args, cfg, task=args.task)
    labeled = [s for s in snapshots if s.labels.get(args.task) is not None]
    if not labeled:
        raise DataError(f"no row is labeled for task '{args.task}'")
    scores = predict_scores(model, labeled, args.task)
    y = np.array([s.labels[args.task] for s in labeled]) == 1  # class 1 against the rest
    if y.all() or not y.any():
        raise DataError(f"the {len(labeled)} rows labeled for task '{args.task}' are all one class "
                        "(class 1 against the rest); AUROC needs both")
    result = {
        "task": args.task,
        "n": len(labeled),
        "auroc": auroc(scores, y),
        "auprc": auprc(scores, y),
        "ece": ece(scores, y),
    }
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    cfg = _load_config(args)
    if args.folds is not None:
        cfg.folds = args.folds
    if args.pretrain_steps is not None:
        cfg.pretrain_steps = args.pretrain_steps
    cfg.validate()
    if args.dry_run:
        path = Path(args.data) if args.data else Path(args.data_dir) / f"{args.dataset}.csv"
        bench.load_benchmark_csv(path, args.dataset)
        print("dry-run ok")
        return EXIT_OK
    report = bench.run_benchmark(
        args.dataset, cfg, data_dir=args.data_dir, data_path=args.data, report_path=args.out
    )
    print(report.format_text())
    return EXIT_OK


def cmd_select(args) -> int:
    cfg = _load_config(args)
    schema, snapshots = _load_data(args)
    rule = StopRule(tolerance=args.tolerance, min_features=args.min_features)
    reduced, trace = backward_eliminate(snapshots, schema, args.task, rule, cfg.seed, cfg.asset_criterion)
    reduced.save(args.out_schema)
    if args.trace:
        with Path(args.trace).open("w") as fh:
            fh.write(f"baseline {trace.baseline_metric:.6f}\n")
            for rnd, name, imp, metric in trace.rounds:
                fh.write(f"round {rnd} removed {name} importance {imp:.6f} metric {metric:.6f}\n")
    print(f"kept {len(reduced)} of {len(schema)} features")
    return EXIT_OK


def cmd_export(args) -> int:
    cfg = _load_config(args)
    model, snapshots = _load_model_and_data(args.checkpoint, args, cfg)
    bench.export_embeddings(snapshots, model, args.out_prefix, task=args.task, pca2d=args.pca2d)
    print(f"exported {len(snapshots)} embeddings")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
