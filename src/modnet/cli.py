"""Command-line entry point.

Exit codes: 0 on success, 2 for configuration problems, 3 when training
aborted on numeric failure.  The output root defaults to ``runs/`` and
can be moved with the MODNET_RUNS environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from modnet.config import ConfigError, load_config
from modnet.em import NumericAbort
from modnet.runner import (
    emit_sweep,
    evaluate_checkpoint,
    resolve_out_dir,
    execute_run,
    resume_run,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modnet",
        description="Train and inspect modular networks with latent module selection.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="train from a config file")
    p.add_argument("config")
    p.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=[],
        metavar="KEY=VALUE",
        help="override a dotted config key, e.g. trainer.lr=0.01",
    )

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("checkpoint")
    p.add_argument(
        "dataset",
        help="'train' for the run's own data, or a JSON file {\"task\": ..., \"seed\": N}; "
        "a spec seed other than the run's redraws a synthetic process, two-regime "
        "transition tables included, so it is scored on another process, not on "
        "held-out windows of the trained one",
    )
    p.add_argument(
        "--mode",
        default="most-likely-composition",
        choices=["most-likely-composition", "enumerate-marginal"],
    )

    p = sub.add_parser("resume", help="continue training from a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=[],
        metavar="KEY=VALUE",
        help="schedule overrides only (trainer.iterations, diagnostics.*, out_dir)",
    )

    p = sub.add_parser("sweep", help="expand a grid file into config files")
    p.add_argument("grid")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    out_root = os.environ.get("MODNET_RUNS", "runs")
    try:
        if args.command == "run":
            cfg = load_config(args.config, args.overrides)
            record = execute_run(cfg, resolve_out_dir(cfg, out_root))
            print(json.dumps(record["summary"], indent=2))
        elif args.command == "eval":
            print(
                json.dumps(
                    evaluate_checkpoint(args.checkpoint, args.dataset, args.mode),
                    indent=2,
                )
            )
        elif args.command == "resume":
            record = resume_run(args.checkpoint, args.overrides, out_root)
            print(json.dumps(record["summary"], indent=2))
        elif args.command == "sweep":
            manifest = emit_sweep(args.grid, out_root)
            print(json.dumps({"configs": [e["path"] for e in manifest["configs"]]}, indent=2))
    except NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OSError, ValueError) as exc:
        # unreadable paths and corrupt checkpoints count as config problems
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
