"""Command-line entry point.

Subcommands: pretrain, finetune, predict, eval, benchmark, select-features,
export-embeddings. Each makes every refusal it can before its work, and
--dry-run stops where the work begins. pretrain, finetune and predict write
a JSON manifest next to their output.

Exit codes: 0 success, 2 configuration error, 3 missing input file or
output directory, 4 malformed data, 1 any other failure.
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
from .feature_select import StopRule, backward_eliminate, check_selection
from .finetune import check_finetune, finetune_loop, predict_scores
from .metrics import auprc, auroc, ece
from .model import Model
from .pretrain import check_pretrain, pretrain_loop

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_FILE = 3
EXIT_DATA = 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):  # no subcommand
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.func(args, _load_config(args))
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
    p.add_argument("--dry-run", action="store_true",
                   help="make the checks the command makes before its work, and write nothing")
    sub = p.add_subparsers()

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
    sp.add_argument("--tolerance", type=float, default=StopRule.tolerance)
    sp.add_argument("--min-features", type=int, default=StopRule.min_features)
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


# the flags that name a file a command reads, and those that name one it writes
INPUTS = ("schema", "data", "embeddings", "checkpoint", "init_checkpoint")
OUTPUTS = ("out_checkpoint", "out", "out_schema", "out_prefix", "trace", "loss_log")


def _check_files(args) -> None:
    """Every input file exists, and so does the directory of every output."""
    for attr in INPUTS + OUTPUTS:
        path = getattr(args, attr, None)
        if path:
            need, what = (path, "file") if attr in INPUTS else (Path(path).parent, "directory")
            if not Path(need).exists():
                raise FileNotFoundError(f"--{attr.replace('_', '-')} {what} {need} does not exist")


def _inputs(args, cfg: RunConfig):
    """(model, schema, snapshots), after the refusals every data command
    makes: its files (`_check_files`), then a checkpoint's load, which
    --schema and the model record must match. A command with a checkpoint
    reads --data under the checkpoint's schema, so numerics use the training
    statistics, and returns --schema as read; any other reads --data under
    --schema and has no model. --schema is read once."""
    _check_files(args)
    given = FeatureSchema.load(args.schema)
    path = getattr(args, "checkpoint", None) or getattr(args, "init_checkpoint", None)
    if path:
        model = Model.load(path, given, **cfg.model_record())
        return model, given, load_dataset(args.data, model.schema, args.embeddings)[1]
    return None, *load_dataset(args.data, given, args.embeddings)


def _check_head(model: Model, task: str) -> None:
    if task not in model.heads:
        raise ConfigError(f"checkpoint has no head for task '{task}'")


def _dry_run(args, schema, snapshots) -> bool:
    """Where a command's work begins: on --dry-run, after every refusal the
    command makes, say what its checks read and stop."""
    if args.dry_run:
        print(f"dry-run ok: {len(snapshots)} snapshots, {len(schema)} features")
    return args.dry_run


def _write_manifest(out_path, args, cfg: RunConfig, started: float) -> None:
    """`<out_path>.manifest.json`: the config, the SHA-256 of every input file
    the command read, and the wall time."""
    manifest = {
        "config": cfg.to_dict(),
        "inputs": {k: bench.file_sha256(getattr(args, k)) for k in INPUTS if getattr(args, k, None)},
        "wall_time_s": round(time.time() - started, 3),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    Path(str(out_path) + ".manifest.json").write_text(json.dumps(manifest, indent=2))


def cmd_pretrain(args, cfg: RunConfig) -> int:
    started = time.time()
    _, schema, snapshots = _inputs(args, cfg)
    if args.steps is not None:
        cfg.pretrain_steps = args.steps
    if cfg.pretrain_steps <= 0:
        raise ConfigError(f"pretrain needs a step count: pass --steps or set pretrain_steps above 0, "
                          f"got {cfg.pretrain_steps}")
    stage = cfg.pretrain_config()
    check_pretrain(snapshots, stage)
    if _dry_run(args, schema, snapshots):
        return EXIT_OK
    model = Model(schema, cfg)
    pretrain_loop(model, snapshots, stage, log_path=args.loss_log)
    model.save(args.out_checkpoint, cfg.to_dict())
    _write_manifest(args.out_checkpoint, args, cfg, started)
    return EXIT_OK


def cmd_finetune(args, cfg: RunConfig) -> int:
    started = time.time()
    model, schema, snapshots = _inputs(args, cfg)
    declared = {t.name: t for t in schema.tasks}
    for name in set(args.task) - set(declared):
        # a task the schema does not declare is binary; the loader checked
        # only the declared tasks' labels, so check this one's here
        bad = next((i for i, s in enumerate(snapshots) if s.labels.get(name) not in (None, 0, 1)), None)
        if bad is not None:
            raise DataError(f"label {snapshots[bad].labels[name]} outside [0, 2)", row=bad + 2,
                            feature=f"label:{name}")
    tasks = [replace(declared.get(name, TaskSpec(name)), gamma=cfg.focal_gamma) for name in args.task]
    check_finetune(model.heads if model else {}, snapshots, tasks, cfg.linear_probe)
    if _dry_run(args, schema, snapshots):
        return EXIT_OK
    if model is None:
        model = Model(schema, cfg)
    finetune_loop(model, snapshots, tasks, cfg.finetune_config())
    model.save(args.out_checkpoint, cfg.to_dict())
    _write_manifest(args.out_checkpoint, args, cfg, started)
    return EXIT_OK


def cmd_predict(args, cfg: RunConfig) -> int:
    started = time.time()
    model, schema, snapshots = _inputs(args, cfg)
    _check_head(model, args.task)
    if _dry_run(args, schema, snapshots):
        return EXIT_OK
    result = model.predict(snapshots, args.task)
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
    _write_manifest(args.out, args, cfg, started)
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    model, schema, snapshots = _inputs(args, cfg)
    _check_head(model, args.task)
    labeled = [s for s in snapshots if s.labels.get(args.task) is not None]
    y = np.array([s.labels[args.task] for s in labeled]) == 1  # class 1 against the rest
    if not len(y):
        raise DataError(f"no row is labeled for task '{args.task}'")
    if y.all() or not y.any():
        raise DataError(f"the {len(y)} rows labeled for task '{args.task}' are all one class "
                        "(class 1 against the rest); AUROC needs both")
    if _dry_run(args, schema, snapshots):
        return EXIT_OK
    scores = predict_scores(model, labeled, args.task)
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


def cmd_benchmark(args, cfg: RunConfig) -> int:
    if args.folds is not None:
        cfg.folds = args.folds
    if args.pretrain_steps is not None:
        cfg.pretrain_steps = args.pretrain_steps
    path, schema, snapshots, split = bench.check_benchmark(args.dataset, cfg, args.data_dir, args.data)
    _check_files(args)  # after the CSV, whose own refusal names where to get it
    if _dry_run(args, schema, snapshots):
        return EXIT_OK
    print(bench.run_benchmark(args.dataset, cfg, path, schema, snapshots, split, args.out).format_text())
    return EXIT_OK


def cmd_select(args, cfg: RunConfig) -> int:
    _, schema, snapshots = _inputs(args, cfg)
    rule = StopRule(tolerance=args.tolerance, min_features=args.min_features)
    check_selection(snapshots, schema, args.task, cfg.seed)
    if _dry_run(args, schema, snapshots):
        return EXIT_OK
    reduced, trace = backward_eliminate(snapshots, schema, args.task, rule, cfg.seed, cfg.asset_criterion)
    reduced.save(args.out_schema)
    if args.trace:
        with Path(args.trace).open("w") as fh:
            fh.write(f"baseline {trace.baseline_metric:.6f}\n")
            for rnd, name, imp, metric in trace.rounds:
                fh.write(f"round {rnd} removed {name} importance {imp:.6f} metric {metric:.6f}\n")
    print(f"kept {len(reduced)} of {len(schema)} features")
    return EXIT_OK


def cmd_export(args, cfg: RunConfig) -> int:
    model, schema, snapshots = _inputs(args, cfg)
    if _dry_run(args, schema, snapshots):
        return EXIT_OK
    bench.export_embeddings(snapshots, model, args.out_prefix, task=args.task, pca2d=args.pca2d)
    print(f"exported {len(snapshots)} embeddings")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
