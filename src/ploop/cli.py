"""Command-line interface.

Subcommands: run, validate, report, compare. Exit codes: 0 on success
(and for ``--help``); 1 on bad input: a usage error (an unknown or
missing argument, a ``--seed`` that is not an integer, no subcommand), a
scenario, log or report that does not parse or validate (a log that does
not run from ``run_started`` to ``run_finished``, holds two runs or
holds a mistyped detail field is not a run log, and ``report`` names the
line of the event it refuses), or an output directory ``run`` cannot
write; 2 on internal invariant violations. Results go to stdout and to
the files ``run`` writes; a failed command writes its message to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Iterator, NoReturn

from .harness import (
    IncomparableRuns,
    RunReport,
    ScenarioParseError,
    ScenarioValidationError,
    compare,
    compute_report,
    load_json,
    load_scenario,
    not_utf8,
    run,
)
from .runtime import LoggedEvent

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2


def _cmd_run(args: argparse.Namespace) -> int:
    if args.seed is not None and args.seed < 0:
        raise ScenarioValidationError(f"--seed must be a non-negative integer, got {args.seed}")
    scenario = load_scenario(args.scenario)
    try:
        result = run(scenario, seed_override=args.seed, out_dir=args.out)
    except OSError as exc:  # only writing the run files does I/O
        path = exc.filename or args.out
        raise ScenarioValidationError(f"{path}: {exc.strerror or exc}") from None
    sys.stdout.write(result.report.to_text())
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    sys.stdout.write(
        f"OK: {scenario.name} ({len(scenario.nodes)} nodes, "
        f"{len(scenario.agents)} agents, {len(scenario.stimuli)} stimuli, "
        f"horizon {scenario.horizon})\n"
    )
    return EXIT_OK


def _log_events(path: str, at: list[int]) -> Iterator[LoggedEvent]:
    """Each non-blank line of a saved log, read and decoded one at a time;
    ``at[0]`` is set to the number of each line before it is yielded, so a
    reader's refusal can name it. A line goes to
    ``LoggedEvent.from_json_line`` as it is read, ``"\\n"`` and all, with
    one memo for the whole read; only a line that fails to decode is tested
    for blankness, and skipped if blank, and any other such line is refused
    with the decoder's words. An unreadable or non-UTF-8 file is a parse
    error, and a non-UTF-8 one names the line and the offset of its first
    bad byte."""
    try:
        with open(path, encoding="utf-8") as lines:
            decode = LoggedEvent.from_json_line
            details: dict[str, dict] = {}
            for number, line in enumerate(lines, 1):
                try:
                    event = decode(line, details)
                except ValueError as exc:
                    if line.strip():
                        raise ScenarioParseError(
                            f"{path}:{number}: not a log event ({exc})") from None
                    continue
                at[0] = number
                yield event
    except OSError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        raise ScenarioParseError(not_utf8(path)) from None


def _cmd_report(args: argparse.Namespace) -> int:
    at = [0]   # the line last read; 0 until one is
    try:
        report = compute_report(_log_events(args.log, at))
    except ScenarioValidationError as exc:
        where = f"{args.log}:{at[0]}" if at[0] else args.log
        raise ScenarioValidationError(f"{where}: not a run log ({exc})") from None
    if args.json:
        sys.stdout.write(report.to_json())
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, like any bad input;
    its subparsers are built from the same class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # Built on the first call and kept: parsing leaves no state in the
    # parser, and building it costs more than a small command's work.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioParseError, ScenarioValidationError, IncomparableRuns) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # invariant violations and bugs
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
