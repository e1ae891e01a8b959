"""Command-line interface.

Subcommands: run, validate, report, compare. Exit codes: 0 on success,
1 on validation or parse errors, 2 on internal invariant violations.
The PLOOP_LOG_LEVEL environment variable (error, info, debug) controls
diagnostic logging on stderr; the event log itself is always complete.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from typing import Iterator

from .harness import (
    IncomparableRuns,
    RunReport,
    ScenarioParseError,
    ScenarioValidationError,
    compare,
    compute_report,
    load_json,
    load_scenario,
    read_text,
    run,
)
from .runtime import LoggedEvent

logger = logging.getLogger(__name__)

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2


def _configure_logging() -> None:
    raw = os.environ.get("PLOOP_LOG_LEVEL", "error").lower()
    if raw not in LOG_LEVELS:
        raise ScenarioValidationError(
            f"PLOOP_LOG_LEVEL must be one of {', '.join(sorted(LOG_LEVELS))}, got {raw!r}"
        )
    logging.basicConfig(level=LOG_LEVELS[raw], stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    result = run(scenario, seed_override=args.seed, out_dir=args.out)
    sys.stdout.write(result.report.to_text())
    logger.info("wrote run outputs for %s to %s", scenario.name, args.out)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    sys.stdout.write(
        f"OK: {scenario.name} ({len(scenario.nodes)} nodes, "
        f"{len(scenario.agents)} agents, {len(scenario.stimuli)} stimuli, "
        f"horizon {scenario.horizon})\n"
    )
    return EXIT_OK


def _log_events(path: str) -> Iterator[LoggedEvent]:
    """Each non-blank line of a saved log, decoded once."""
    for number, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            event = LoggedEvent.from_json_line(line)
        except ValueError as exc:
            raise ScenarioParseError(f"{path}:{number}: not a log event ({exc})") from None
        yield event


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        report = compute_report(_log_events(args.log))
    except ScenarioValidationError as exc:
        raise ScenarioValidationError(f"{args.log}: not a run log ({exc})") from None
    if args.json:
        sys.stdout.write(json.dumps(asdict(report), indent=2) + "\n")
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK


def _load_report(path: str) -> RunReport:
    raw = load_json(path)
    try:
        return RunReport.from_dict(raw)
    except ScenarioValidationError as exc:
        raise ScenarioValidationError(f"{path}: not a run report ({exc})") from None


def _cmd_compare(args: argparse.Namespace) -> int:
    summary = compare(_load_report(args.a), _load_report(args.b))
    if args.json:
        sys.stdout.write(json.dumps(asdict(summary), indent=2) + "\n")
    else:
        sys.stdout.write(summary.to_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ploop",
        description="Deterministic mobile-agent product-lifecycle simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and emit log and reports")
    p_run.add_argument("--scenario", required=True, help="path to a .scn scenario file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="load and validate a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_rep = sub.add_parser("report", help="recompute a report from a saved event log")
    p_rep.add_argument("--log", required=True, help="path to a .events.jsonl file")
    p_rep.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_rep.set_defaults(func=_cmd_report)

    p_cmp = sub.add_parser("compare", help="compare a feedback report against a baseline")
    p_cmp.add_argument("--a", required=True, help="feedback run report (.report.json)")
    p_cmp.add_argument("--b", required=True, help="baseline run report (.report.json)")
    p_cmp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
        return args.func(args)
    except (ScenarioParseError, ScenarioValidationError, IncomparableRuns) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # invariant violations and bugs
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
