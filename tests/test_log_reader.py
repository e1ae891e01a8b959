"""``ploop report``'s reader against a reference copy, and its memory.

The reference reads a log the plain way: a ``_loads`` call per text, one
type test per envelope field, the NamedTuple constructor, and
``strip``/``rstrip`` on every line, with the rules that a run log's first
event is ``run_started`` and its last ``run_finished``, and it names the
line of every refused log by keeping the number of the line last read, or
names the file alone when it read none. For every input, ``ploop report``
(text and ``--json``) must give the same exit code, stdout and stderr as the
reference: the logs of the five fixtures and the three golden scenarios,
and a few hundred seeded mutations of them.
"""

import contextlib
import io
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from ploop.cli import _log_events, main
from ploop.harness import (
    ScenarioParseError,
    ScenarioValidationError,
    compute_report,
    load_scenario,
    not_utf8,
    run,
)
from ploop.runtime import _DETAILS_KEPT, EVT_RUN_FINISHED, EVT_RUN_STARTED, LoggedEvent

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted([*ROOT.glob("fixtures/*.scn"), *ROOT.glob("tests/golden/*.scn")])
GOLDEN = sorted(ROOT.glob("tests/golden/*.scn"))


# -- the reference reader --------------------------------------------------------

_scan = json.JSONDecoder().scan_once


def _reference_loads(text):
    try:
        value, end = _scan(text, 0)
    except StopIteration:
        return json.loads(text)
    return value if end == len(text) else json.loads(text)


def _envelope_refusal(raw, key, kind):
    if key not in raw:
        return f"{key} is missing"
    got = "null" if raw[key] is None else type(raw[key]).__name__
    return f"{key} must be {kind}, got {got}"


def reference_from_json_line(line):
    try:
        raw = _reference_loads(line)
    except RecursionError:
        raise ValueError("a log line nests too deeply to decode") from None
    if type(raw) is not dict:
        raise ValueError("a log line must be a JSON object")
    if type(raw.get("tick")) is not int:
        raise ValueError(_envelope_refusal(raw, "tick", "an integer"))
    for key in ("event_kind", "node", "agent", "msg_id", "detail"):
        if type(raw.get(key)) is not str:
            raise ValueError(_envelope_refusal(raw, key, "a string"))
    try:
        detail = _reference_loads(raw["detail"]) if raw["detail"] else {}
    except RecursionError:
        raise ValueError("detail nests too deeply to decode") from None
    if type(detail) is not dict:
        raise ValueError("detail must be empty or the text of a JSON object")
    return LoggedEvent(raw["tick"], raw["event_kind"], raw["node"], raw["agent"],
                       raw["msg_id"], detail)


def reference_log_events(path):
    try:
        with open(path, encoding="utf-8") as lines:
            for number, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                try:
                    event = reference_from_json_line(line.rstrip("\n"))
                except ValueError as exc:
                    raise ScenarioParseError(
                        f"{path}:{number}: not a log event ({exc})") from None
                yield number, event
    except OSError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        raise ScenarioParseError(not_utf8(path)) from None


def reference_run_log(path, line):
    """The events of a saved log, refused unless the first is run_started
    and the last run_finished; ``line[0]`` is the line of the last event read."""
    kind = None
    for number, event in reference_log_events(path):
        line[0] = number
        if kind is None and event.event_kind != EVT_RUN_STARTED:
            raise ScenarioValidationError(
                f"the first event is {event.event_kind!r}, not run_started")
        kind = event.event_kind
        yield event
    if kind is None:
        raise ScenarioValidationError("no run_started line")
    if kind != EVT_RUN_FINISHED:
        raise ScenarioValidationError(f"the last event is {kind!r}, not run_finished")


def reference_report(path):
    """What ``ploop report --log path`` exits with and prints, as
    ``{flag: (code, stdout, stderr)}`` for the text and the --json form."""
    line = [None]
    try:
        try:
            report = compute_report(reference_run_log(path, line))
        except ScenarioValidationError as exc:
            where = path if line[0] is None else f"{path}:{line[0]}"
            raise ScenarioValidationError(f"{where}: not a run log ({exc})") from None
    except (ScenarioParseError, ScenarioValidationError) as exc:
        failed = (1, "", f"error: {exc}\n")
        return {"": failed, "--json": failed}
    except Exception as exc:
        failed = (2, "", f"internal error: {type(exc).__name__}: {exc}\n")
        return {"": failed, "--json": failed}
    return {"": (0, report.to_text(), ""), "--json": (0, report.to_json(), "")}


def ploop_report(path):
    """The same, from ``ploop report`` itself."""
    results = {}
    for flag in ("", "--json"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["report", "--log", str(path), *([flag] if flag else [])])
        results[flag] = (code, out.getvalue(), err.getvalue())
    return results


# -- the inputs -------------------------------------------------------------------

@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """The saved log of each fixture and golden scenario, as lines without
    their newlines."""
    out = tmp_path_factory.mktemp("logs")
    found = {}
    for path in SCENARIOS:
        scenario = load_scenario(path)
        run(scenario, out_dir=out / path.parent.name)
        log = out / path.parent.name / f"{scenario.name}.events.jsonl"
        found[f"{path.parent.name}/{path.stem}"] = log.read_text(encoding="utf-8").splitlines()
    return found


DEEP = "[" * 100_000 + "]" * 100_000
ENVELOPE = ("tick", "event_kind", "node", "agent", "msg_id", "detail")
WRONG_TICKS = ('"1"', "1.0", "true", "false", "null", "[]", "{}")
WRONG_STRINGS = ("1", "1.5", "true", "null", "[]", "{}")

# Every case a mutation must cover at least once: a kind and its parameter.
CASES = [
    *(("blank line", text) for text in ("", " ", "\t", "\x0b", "\x0c", "\x1c", "  \t ")),
    *(("line endings", (end, last)) for end in ("\r\n", "\r") for last in (True, False)),
    ("line endings", ("\n", False)),
    *(("whitespace around", pair) for pair in ((" ", ""), ("", " "), ("\t", "\t "))),
    *(("wrong field", {"tick": value}) for value in WRONG_TICKS),
    *(("wrong field", {key: value}) for key in ENVELOPE[1:] for value in WRONG_STRINGS),
    ("two wrong fields", None),
    *(("wrong detail", text) for text in ("[]", "1", "{}x", " {}", '"{}"', "{} ", "null", "{")),
    ("deep line", None),
    ("wrong detail", DEEP),
    *(("odd character", (key, char)) for key in ENVELOPE[1:]
      for char in ("\x85", "\u2028", "\x1c")),
    ("not UTF-8", None),
    *(("written escape", char) for char in ("\\", "\u00e9", "\n")),
    ("raw quote in detail", None),
    *(("unwritten tick", text) for text in ("-1", "007", "1" * 19)),
    ("escaped quote in node", None),
    ("detail that is a written token", None),
    *(("text after a line", text) for text in ("x", "{}", " 1", "\x0b")),
    ("duplicated line", None),
    ("dropped line", None),
    ("two logs", None),
]


def _retyped(line, fields):
    """line with the named envelope fields' values replaced by JSON text."""
    raw = json.loads(line)
    return "{" + ",".join(
        f"{json.dumps(key)}:{fields[key] if key in fields else json.dumps(value)}"
        for key, value in raw.items()) + "}"


def _with_detail(line, detail_text):
    raw = json.loads(line)
    raw["detail"] = detail_text
    return json.dumps(raw, separators=(",", ":"))


def _with_character(line, key, char):
    """line with a raw, unescaped character inside one of its string
    fields, or, for ``detail``, inside a string of its detail text."""
    raw = json.loads(line)
    if key == "detail":
        detail = json.loads(raw["detail"]) if raw["detail"] else {}
        detail["odd"] = "\0"
        raw["detail"] = json.dumps(detail, separators=(",", ":")).replace("\\u0000", char)
        return json.dumps(raw, separators=(",", ":"))
    raw[key] += "\0"
    return json.dumps(raw, separators=(",", ":")).replace("\\u0000", char)


def mutants(logs, count, seed=20261019):
    """``count`` seeded mutations of the saved logs, as (name, bytes): each
    of CASES once, then cases drawn at random. Each goes into a log, and at
    a line or byte offset, drawn at random."""
    rng = random.Random(seed)
    names = sorted(logs)

    def joined(lines, end="\n", last=True):
        return (end.join(lines) + (end if last else "")).encode()

    for n in range(count):
        kind, value = CASES[n] if n < len(CASES) else rng.choice(CASES)
        name = rng.choice(names)
        lines = list(logs[name])
        at = rng.randrange(len(lines))
        if kind == "blank line":
            lines.insert(rng.randrange(len(lines) + 1), value)
            data = joined(lines)
        elif kind == "line endings":
            data = joined(lines, *value)
        elif kind == "whitespace around":
            before, after = value
            lines[at] = before + lines[at] + after
            data = joined(lines)
        elif kind == "wrong field":
            lines[at] = _retyped(lines[at], value)
            data = joined(lines)
        elif kind == "two wrong fields":
            lines[at] = _retyped(lines[at], {
                key: rng.choice(WRONG_TICKS if key == "tick" else WRONG_STRINGS)
                for key in rng.sample(ENVELOPE, 2)})
            data = joined(lines)
        elif kind == "wrong detail":
            lines[at] = _with_detail(lines[at], value)
            data = joined(lines)
        elif kind == "deep line":
            lines[at] = DEEP
            data = joined(lines)
        elif kind == "odd character":
            lines[at] = _with_character(lines[at], *value)
            data = joined(lines)
        elif kind == "written escape":
            # Escapes other than \" in the detail token of a written line.
            detail = json.loads(json.loads(lines[at])["detail"] or "{}")
            lines[at] = _with_detail(lines[at], json.dumps(
                {**detail, "odd": f"a{value}b"}, sort_keys=True, separators=(",", ":")))
            data = joined(lines)
        elif kind == "raw quote in detail":
            start = lines[at].index('"detail":"') + len('"detail":"')
            cut = rng.randrange(start, len(lines[at]) - 1)
            lines[at] = lines[at][:cut] + '"' + lines[at][cut:]
            data = joined(lines)
        elif kind == "unwritten tick":
            lines[at] = _retyped(lines[at], {"tick": value})
            data = joined(lines)
        elif kind == "escaped quote in node":
            lines[at] = _retyped(lines[at], {"node": json.dumps(json.loads(lines[at])["node"] + '"')})
            data = joined(lines)
        elif kind == "detail that is a written token":
            # A written line, then a spaced one whose detail text is the first
            # line's detail token as written: a string, not an object.
            while not json.loads(lines[at])["detail"]:
                at = (at + 1) % len(lines)
            raw = json.loads(lines[at])
            raw["detail"] = json.dumps(raw["detail"])
            assert lines[at].endswith(f',"detail":{raw["detail"]}}}')
            lines.insert(at + 1, json.dumps(raw))
            data = joined(lines)
        elif kind == "not UTF-8":
            data = bytearray(joined(lines))
            offset = rng.randrange(len(data) + 1)
            data[offset:offset] = rng.choice((b"\xff", b"\xc3", b"\x80"))
            data = bytes(data)
        elif kind == "text after a line":
            lines[at] += value
            data = joined(lines)
        elif kind == "duplicated line":
            lines.insert(rng.randrange(len(lines) + 1), lines[at])
            data = joined(lines)
        elif kind == "dropped line":
            del lines[at]
            data = joined(lines)
        else:
            data = joined(lines) + joined(logs[rng.choice(names)])
        yield f"{n}: {kind} {value!r:.40} in {name}", data


def test_report_of_every_saved_log_matches_the_reference(logs, tmp_path):
    path = tmp_path / "log.events.jsonl"
    for name, lines in sorted(logs.items()):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = reference_report(path)
        assert expected[""][0] == 0, (name, expected)
        assert ploop_report(path) == expected, name


def test_report_of_mutated_logs_matches_the_reference(logs, tmp_path):
    path = tmp_path / "log.events.jsonl"
    codes = set()
    for name, data in mutants(logs, 300):
        path.write_bytes(data)
        expected = reference_report(path)
        codes.add(expected[""][0])
        assert ploop_report(path) == expected, name
    # The mutations reach both outcomes: logs read as written, and refusals.
    assert codes == {0, 1}


def test_a_line_cut_short_is_refused_in_the_reference_words(logs, tmp_path):
    # A cut line that ends in its newline is worded as the line without it,
    # and named by its number, wherever the cut falls.
    rng = random.Random(20261020)
    path = tmp_path / "log.events.jsonl"
    for name, lines in sorted(logs.items()):
        at = rng.randrange(len(lines))
        for cut in sorted(rng.sample(range(len(lines[at])), 8)):
            path.write_text("\n".join([*lines[:at], lines[at][:cut], *lines[at + 1:]]) + "\n",
                            encoding="utf-8")
            expected = reference_report(path)
            assert ploop_report(path) == expected, (name, at, cut)


# -- the detail memo and the newline ---------------------------------------------

def _fields(event):
    """An event's fields, its detail as repr, so key order counts too."""
    return (*event[:5], repr(event.detail))


def _outcome(line):
    """What from_json_line makes of line: its fields, or its refusal."""
    try:
        return _fields(LoggedEvent.from_json_line(line))
    except ValueError as exc:
        return ("refused", str(exc))


def _read(path):
    """The events ploop report reads from path, through its memo."""
    return list(_log_events(str(path), [0]))


def test_the_memo_yields_the_events_of_a_decode_without_it(logs, tmp_path):
    path = tmp_path / "log.events.jsonl"
    for name, lines in sorted(logs.items()):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert ([_fields(event) for event in _read(path)]
                == [_fields(LoggedEvent.from_json_line(line)) for line in lines]), name


def test_the_memo_fills_empties_and_fills_again(tmp_path):
    # Texts 0..K-1 fill the memo and 0 repeats from it; K empties it, so 1
    # is decoded again, and K repeats from it; 2..K-1 fill it again and 1
    # repeats; 0 empties it, so K is decoded again. Then a seeded tail of
    # 3K distinct texts and their repeats.
    k = _DETAILS_KEPT
    rng = random.Random(20261020)
    order = [*range(k), 0, k, 1, k, *range(2, k), 1, 0, k,
             *(rng.randrange(3 * k) for _ in range(20 * k))]
    lines = [LoggedEvent(n, "message_sent", "n", "a", f"m{n}",
                         {"key": f"k{text}", "kind": "SensorBatch"}).to_json_line()
             for n, text in enumerate(order)]
    path = tmp_path / "log.events.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    events = _read(path)
    assert ([_fields(event) for event in events]
            == [_fields(LoggedEvent.from_json_line(line)) for line in lines])
    detail = [event.detail for event in events]
    assert detail[k] is detail[0]
    assert detail[k + 2] is not detail[1]
    assert detail[k + 3] is detail[k + 1]
    assert detail[2 * k + 2] is detail[k + 2]
    assert detail[2 * k + 4] is not detail[k + 3]


def test_a_line_decodes_alike_with_its_newline_or_without(logs):
    for name, lines in sorted(logs.items()):
        for line in lines:
            assert _outcome(line + "\n") == _outcome(line), name


def test_a_line_cut_anywhere_decodes_alike_with_its_newline_or_without(logs):
    # One line of each kind logged, cut at every length: the newline never
    # changes what is accepted, or a refusal's words.
    seen = {}
    for lines in logs.values():
        for line in lines:
            seen.setdefault(json.loads(line)["event_kind"], line)
    for line in seen.values():
        for end in range(len(line) + 1):
            assert _outcome(line[:end] + "\n") == _outcome(line[:end]), line[:end]


# -- memory ----------------------------------------------------------------------

PEAK_BYTES = 100_000


def _peak(argv, err=None):
    """The exit code and traced peak of the second ``main(argv)``; its
    stderr goes to ``err`` when one is given."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)      # the parser is built once per process, not measured here
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(err or io.StringIO()):
                code = main(argv)
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
def test_report_streams_the_log(path, tmp_path):
    scenario = load_scenario(path)
    run(scenario, out_dir=tmp_path)
    log = tmp_path / f"{scenario.name}.events.jsonl"
    code, peak = _peak(["report", "--log", str(log), "--json"])
    assert code == 0
    assert peak < PEAK_BYTES, f"{peak} bytes"


def test_a_long_file_that_is_not_a_run_log_is_refused_in_bounded_memory(tmp_path):
    # 19,999 valid lines, then a cut one: the reader streams to line 20,000.
    log = tmp_path / "x.events.jsonl"
    first = LoggedEvent(0, EVT_RUN_STARTED, detail={
        "scenario": "x", "seed": 1, "horizon": 20_000}).to_json_line()
    line = LoggedEvent(1, "x", "n", "a", "m", {"k": "v" * 40}).to_json_line()
    log.write_text(first + "\n" + (line + "\n") * 19_998 + line[:-1] + "\n", encoding="utf-8")
    err = io.StringIO()
    code, peak = _peak(["report", "--log", str(log)], err)
    assert code == 1
    assert "x.events.jsonl:20000: " in err.getvalue()
    assert peak < PEAK_BYTES, f"{peak} bytes"


def test_a_long_run_log_whose_every_detail_differs_streams(tmp_path):
    # The memo's worst case: no detail text repeats, so it fills and
    # empties throughout. The report's own totals stay small.
    log = tmp_path / "x.events.jsonl"
    with open(log, "w", encoding="utf-8") as out:
        out.write(LoggedEvent(0, EVT_RUN_STARTED, detail={
            "scenario": "x", "seed": 1, "horizon": 20_000}).to_json_line() + "\n")
        for n in range(1, 19_999):
            if n % 2:
                event = LoggedEvent(n, "knowledge_inserted", "n", "a", detail={
                    "family": f"fam-{n:05d}", "generation": n, "mode": "Tacit",
                    "source": "SelfSource", "activity": "IntelligentProduct",
                    "record_id": f"rec-{n:05d}"})
            else:
                event = LoggedEvent(n, "message_sent", "n", "a", f"m{n:06d}",
                                    {"key": f"sensor.batch.{n:05d}", "kind": "SensorBatch"})
            out.write(event.to_json_line() + "\n")
        out.write(LoggedEvent(20_000, EVT_RUN_FINISHED,
                              detail={"ticks": 20_000}).to_json_line() + "\n")
    code, peak = _peak(["report", "--log", str(log)])
    assert code == 0
    assert peak < PEAK_BYTES, f"{peak} bytes"
