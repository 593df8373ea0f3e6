"""Command-line entry point.

Subcommands: run, tune, validate, convert, stats, leaderboard. Direct flags
are limited to the whitelisted keys; everything else goes through the JSON
config file given by --config_file. Exit codes: 0 success, 2 dataset
validation failed, 3 configuration problem (unknown flag, bad file,
incompatible model/task, bad pipeline, model or matcher value, bad search
space, and any located input error such as a bad table cell or manifest
key), 4 runtime failure (dataset not found, leaderboard over an empty
results directory).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import CLI_KEYS, load_config
from .exceptions import (
    BadConfigFile,
    DatasetNotFound,
    NoResults,
    StkitError,
    UnknownCliKey,
    ValidationFailed,
)
from .leaderboard import build_leaderboard, leaderboard_csv, load_runs, render_leaderboard
from .runner import cmd_convert, cmd_run, cmd_stats, cmd_tune, cmd_validate

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4

_FLAG_TYPES = {"seed": int, "batch_size": int}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise UnknownCliKey(message)


def _add_common_flags(sub: argparse.ArgumentParser):
    for key in CLI_KEYS:
        sub.add_argument(f"--{key}", type=_FLAG_TYPES.get(key))


def _build_parser() -> _Parser:
    parser = _Parser(prog="stkit", allow_abbrev=False)
    commands = parser.add_subparsers(dest="command")
    for name in ("run", "tune", "validate", "convert", "stats", "leaderboard"):
        sub = commands.add_parser(name, allow_abbrev=False)
        _add_common_flags(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            raise UnknownCliKey(
                f"unsupported argument(s): {' '.join(extras)}"
            )
        if not args.command:
            parser.print_usage(sys.stderr)
            return EXIT_CONFIG
        cfg = load_config({k: getattr(args, k) for k in CLI_KEYS})
        return _dispatch(args.command, cfg)
    except ValidationFailed as exc:
        print(exc.report.render(), file=sys.stderr)
        return EXIT_VALIDATION
    except (DatasetNotFound, NoResults) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except StkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _dispatch(command: str, cfg) -> int:
    if command == "run":
        record = cmd_run(cfg)
        print(f"run {record.run_id} finished in {record.wall_time_s:.2f}s")
        print(f"outputs: {record.output_dir}")
        print(json.dumps(record.metrics, indent=2, sort_keys=True))
        return EXIT_OK
    if command == "tune":
        result = cmd_tune(cfg)
        best = result.best
        print(f"{len(result.trials)} trial(s); best is trial {best.index}")
        print(f"best params: {json.dumps(best.params, sort_keys=True)}")
        print(f"best objective: {best.objective}")
        return EXIT_OK
    if command == "validate":
        report = cmd_validate(cfg)
        print(report.render())
        return EXIT_OK if report.ok else EXIT_VALIDATION
    if command == "convert":
        out = cmd_convert(cfg)
        print(f"converted dataset written to {out}")
        return EXIT_OK
    if command == "stats":
        print(json.dumps(cmd_stats(cfg), indent=2, sort_keys=True))
        return EXIT_OK
    if command == "leaderboard":
        task = cfg.get("task")
        if not task:
            raise BadConfigFile("leaderboard needs --task")
        results_dir = Path(cfg["output_dir"])
        runs = load_runs(results_dir)
        rows = build_leaderboard(runs, task)
        print(render_leaderboard(rows, task))
        csv_path = results_dir / "leaderboard.csv"
        csv_path.write_text(leaderboard_csv(rows), "utf-8")
        print(f"csv: {csv_path}")
        return EXIT_OK
    raise BadConfigFile(f"unknown command {command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
