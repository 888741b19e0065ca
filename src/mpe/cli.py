"""Command line entry point: stage commands, a full run, and synth.

Exit codes: 0 success, 2 configuration error, 3 stage precondition error,
4 backend error, 5 parse-fallback budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date
from pathlib import Path

from .config import BACKEND_KINDS, PipelineConfig
from .errors import MpeError
from .pipeline import (
    DEFAULT_RUN_STAGES,
    STAGES,
    plan_pipeline,
    run_pipeline,
)
from .synthetic import generate_files
from .trips import DateRange


def _apply_overrides(config: PipelineConfig, args) -> PipelineConfig:
    from dataclasses import replace

    updates = {}
    if args.output_dir is not None:
        updates["output_dir"] = Path(args.output_dir)
    if args.backend is not None:
        updates["backend_kind"] = args.backend
    if args.mock_script is not None:
        updates["mock_script"] = Path(args.mock_script)
    if args.cache_dir is not None:
        updates["cache_dir"] = Path(args.cache_dir)
    if args.ablation is not None:
        from .errors import ConfigError
        from .prompts import AblationConfig

        try:
            updates["ablation"] = AblationConfig.parse(args.ablation)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return replace(config, **updates) if updates else config


def _add_stage_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    parser.add_argument("--output-dir", help="override the configured output directory")
    parser.add_argument("--backend", metavar="|".join(BACKEND_KINDS), help="override the kind")
    parser.add_argument("--mock-script", help="reply script for the mock backend")
    parser.add_argument("--cache-dir", help="override the response cache directory")
    parser.add_argument("--ablation", help="ablation name, e.g. c_t_h_prime/r_i or na")
    parser.add_argument("--dry-run", action="store_true", help="print the plan, change nothing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpe",
        description="Daily travel-demand prediction pipeline for an event venue.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in STAGES:
        stage_parser = sub.add_parser(stage, help=f"run the {stage} stage")
        _add_stage_options(stage_parser)

    run_parser = sub.add_parser(
        "run", help=f"run stages {', '.join(DEFAULT_RUN_STAGES)} in order"
    )
    _add_stage_options(run_parser)
    run_parser.add_argument(
        "--with-ablate", action="store_true", help="also run the ablate stage"
    )

    synth_parser = sub.add_parser("synth", help="generate the synthetic benchmark dataset")
    synth_parser.add_argument("--out", required=True, help="output directory")
    synth_parser.add_argument("--seed", type=int, default=20140701)
    synth_parser.add_argument("--start", default="2021-01-04")
    synth_parser.add_argument("--train-end", default="2021-12-31")
    synth_parser.add_argument("--end", default="2022-12-31")
    return parser


def _run_stages(args, stages) -> int:
    config = PipelineConfig.from_file(args.config)
    config = _apply_overrides(config, args)
    if args.dry_run:
        for plan in plan_pipeline(config, stages):
            print(f"{plan['stage']}: {plan['outcome']}")
            for line in plan["blocked"]:
                print(f"  blocked: {line}")
            for path in plan["outputs"]:
                print(f"  out: {path}")
        return 0
    for result in run_pipeline(config, stages):
        status = "skipped (up to date)" if result.skipped else "done"
        print(f"{result.stage}: {status} {json.dumps(result.stats, sort_keys=True)}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            date_range = DateRange(date.fromisoformat(args.start), date.fromisoformat(args.end))
            config = generate_files(
                Path(args.out), date_range, date.fromisoformat(args.train_end), seed=args.seed
            )
            print(f"wrote dataset + config under {args.out}")
            print(f"config: {Path(args.out) / 'config.json'}")
            return 0
        if args.command == "run":
            stages = list(DEFAULT_RUN_STAGES)
            if args.with_ablate:
                stages.insert(stages.index("report"), "ablate")
            return _run_stages(args, stages)
        return _run_stages(args, [args.command])
    except MpeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
