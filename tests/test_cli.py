import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ploop.cli import main
from ploop.runtime import LoggedEvent

ROOT = Path(__file__).resolve().parent.parent


def test_validate_ok(fixtures_dir, capsys):
    code = main(["validate", "--scenario", str(fixtures_dir / "closed_loop.scn")])
    assert code == 0
    assert capsys.readouterr().out.startswith("OK: closed_loop")


def test_validate_missing_file_exits_1(tmp_path, capsys):
    code = main(["validate", "--scenario", str(tmp_path / "absent.scn")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_report_missing_log_exits_1_naming_it(tmp_path, capsys):
    path = tmp_path / "absent.events.jsonl"
    assert main(["report", "--log", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "No such file" in err


def test_validate_invalid_scenario_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text(json.dumps({"format": 1, "name": "x", "horizon": 0}))
    assert main(["validate", "--scenario", str(path)]) == 1


def test_run_writes_outputs_and_prints_report(fixtures_dir, tmp_path, capsys):
    code = main([
        "run", "--scenario", str(fixtures_dir / "closed_loop.scn"),
        "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "closed_loop" in out
    for suffix in ("events.jsonl", "report.json", "report.txt", "repository.jsonl"):
        assert (tmp_path / f"closed_loop.{suffix}").exists()


def test_run_with_seed_override(fixtures_dir, tmp_path):
    code = main([
        "run", "--scenario", str(fixtures_dir / "minimal.scn"),
        "--seed", "123", "--out", str(tmp_path),
    ])
    assert code == 0
    raw = json.loads((tmp_path / "minimal.report.json").read_text())
    assert raw["seed"] == 123


def test_negative_seed_exits_1_naming_it(fixtures_dir, tmp_path, capsys):
    code = main(["run", "--scenario", str(fixtures_dir / "minimal.scn"),
                 "--seed", "-1", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
    assert not list(tmp_path.iterdir())


# Each case: the arguments and the end of the message argparse gives.
USAGE_ERRORS = {
    "seed is not an integer": (["run", "--scenario", "fixtures/minimal.scn", "--seed", "abc"],
                               "ploop run: error: argument --seed: invalid int value: 'abc'\n"),
    "no subcommand": ([], "ploop: error: the following arguments are required: command\n"),
    "report without --log": (["report"],
                             "ploop report: error: the following arguments are required: --log\n"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exits_1_with_usage(case, capsys):
    argv, message = USAGE_ERRORS[case]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ploop") and captured.err.endswith(message)


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ploop")


def test_unwritable_out_exits_1_naming_it(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a regular file\n")
    code = main(["run", "--scenario", str(fixtures_dir / "minimal.scn"), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {out}: File exists\n"
    assert out.read_text() == "a regular file\n"


def test_report_recomputes_from_log(fixtures_dir, tmp_path, capsys):
    main(["run", "--scenario", str(fixtures_dir / "closed_loop.scn"),
          "--out", str(tmp_path)])
    capsys.readouterr()
    code = main(["report", "--log", str(tmp_path / "closed_loop.events.jsonl"),
                 "--json"])
    assert code == 0
    raw = json.loads(capsys.readouterr().out)
    assert raw["scenario"] == "closed_loop"
    assert raw["launch_times"] == [
        {"family": "px-100@urn:mfg:acme", "generation": 2, "tick": 19}
    ]


# Each case: an edit of closed_loop's saved log that ploop report must
# read as the log the run wrote.
LOG_EDITS = {
    "as written": lambda lines: lines,
    "blank line inside": lambda lines: lines[:5] + ["", "  "] + lines[5:],
}


@pytest.mark.parametrize("case", sorted(LOG_EDITS))
def test_report_text_equals_run_report_txt(case, fixtures_dir, tmp_path, capsys):
    main(["run", "--scenario", str(fixtures_dir / "closed_loop.scn"),
          "--out", str(tmp_path)])
    lines = (tmp_path / "closed_loop.events.jsonl").read_text().splitlines()
    path = tmp_path / "edited.events.jsonl"
    path.write_text("\n".join(LOG_EDITS[case](lines)) + "\n")
    capsys.readouterr()
    assert main(["report", "--log", str(path)]) == 0
    assert capsys.readouterr().out == (tmp_path / "closed_loop.report.txt").read_text()


def test_compare_text_output(fixtures_dir, tmp_path, capsys):
    for name in ("closed_loop", "baseline"):
        main(["run", "--scenario", str(fixtures_dir / f"{name}.scn"), "--out", str(tmp_path)])
    capsys.readouterr()
    code = main(["compare", "--a", str(tmp_path / "closed_loop.report.json"),
                 "--b", str(tmp_path / "baseline.report.json")])
    assert code == 0
    assert capsys.readouterr().out == (
        "feedback launch tick   19\n"
        "baseline launch tick   37\n"
        "delta                  18 (improvement)\n"
    )


def test_compare_paired_reports(fixtures_dir, tmp_path, capsys):
    main(["run", "--scenario", str(fixtures_dir / "closed_loop.scn"),
          "--out", str(tmp_path)])
    main(["run", "--scenario", str(fixtures_dir / "baseline.scn"),
          "--out", str(tmp_path)])
    capsys.readouterr()
    code = main([
        "compare",
        "--a", str(tmp_path / "closed_loop.report.json"),
        "--b", str(tmp_path / "baseline.report.json"),
        "--json",
    ])
    assert code == 0
    raw = json.loads(capsys.readouterr().out)
    assert raw["delta"] == 18
    assert raw["improvement"] is True


def test_compare_incomparable_exits_1(fixtures_dir, tmp_path, capsys):
    main(["run", "--scenario", str(fixtures_dir / "minimal.scn"),
          "--out", str(tmp_path)])
    main(["run", "--scenario", str(fixtures_dir / "baseline.scn"),
          "--out", str(tmp_path)])
    capsys.readouterr()
    code = main([
        "compare",
        "--a", str(tmp_path / "minimal.report.json"),
        "--b", str(tmp_path / "baseline.report.json"),
    ])
    assert code == 1


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(doc):
        target = doc
        for step in path:
            target = target[step]
        target[key] = value
    return mutate


# Each case: the mutation of closed_loop.scn and the part of the error
# message that names the field, or the key that the loader does not read.
MISTYPED_FIELDS = {
    "node entry is a list": (_set("nodes", 0, ["mfg", "Manufacturer"]),
                             "nodes[0] must be an object"),
    "latency is a list": (_set("latency", []), "latency must be an object"),
    "params is a list": (_set("params", []), "params must be an object"),
    "component condition is a string": (
        _set("products", 0, "components", 0, "condition", "0.2"), "condition must be"),
    "component name is a number": (_set("products", 0, "components", 0, "component", 5),
                                   "component must be a string"),
    "seed is a bool": (_set("seed", True), "seed must be"),
    "horizon is a bool": (_set("horizon", True), "horizon must be"),
    "trigger threshold is a float": (_set("params", "trigger_threshold", 2.5),
                                     "trigger_threshold must be"),
    "sensor value is a string": (_set("stimuli", 0, "events", 0, "value", "6.5"),
                                 "value must be a number"),
    "sensor unit is a number": (_set("stimuli", 0, "events", 0, "unit", 5),
                                "unit strings"),
    "sensor unit is missing": (lambda doc: doc["stimuli"][0]["events"][0].pop("unit"),
                               "unit strings"),
    "feedback text is a number": (_set("stimuli", 4, "text", 123), "non-empty text"),
    "trigger rule flag is a string": (_set("params", "trigger_rule_enabled", "no"),
                                      "trigger_rule_enabled must be"),
    "itinerary is a string": (_set("agents", 0, "itinerary", "mfg"), "itinerary must be"),
    "routing recipient is a list": (_set("routing", 0, "recipients", 0, []),
                                    "recipients must be strings"),
    "routing recipient is a number": (_set("routing", 0, "recipients", 0, 7),
                                      "recipients must be strings"),
    "routing pattern is empty": (_set("routing", 0, "pattern", ""), "routing: empty pattern"),
    "routing recipient names nothing": (
        _set("routing", 0, "recipients", 0, "AgentCustomr"),
        "routing rule 'feedback.customer': recipient 'AgentCustomr' names no role "
        "and no declared agent"),
    "serial is null": (_set("products", 0, "serial", None),
                       "product serial must be a string, got NoneType"),
    "uri is a number": (_set("products", 0, "uri", 7),
                        "product 'px-100': uri must be a string, got int"),
    "misspelled param": (_set("params", "trigger_treshold", 5),
                         "params: unknown key 'trigger_treshold'"),
    "unknown agent key": (_set("agents", 0, "hme", "cust"), "agents[0]: unknown key 'hme'"),
    "text on a fault stimulus": (_set("stimuli", 2, "text", "overheats"),
                                 "stimuli[2] (fault): unknown key 'text'"),
    "unknown top-level key": (_set("comment", "x"), "scenario: unknown key 'comment'"),
    "unknown sensor event key": (_set("stimuli", 0, "events", 0, "sim_time", 3),
                                 "stimulus events[0]: unknown key 'sim_time'"),
    "unknown eol_policy key": (_set("params", "eol_policy", "reuse", 0.5),
                               "params: eol_policy: unknown key 'reuse'"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_FIELDS))
def test_mistyped_field_exits_1_naming_it(case, fixtures_dir, tmp_path, capsys):
    mutate, message = MISTYPED_FIELDS[case]
    doc = json.loads((fixtures_dir / "closed_loop.scn").read_text())
    mutate(doc)
    path = tmp_path / "bad.scn"
    path.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("error:") and message in err


def test_product_memory_keys_are_free_form(fixtures_dir, tmp_path, capsys):
    doc = json.loads((fixtures_dir / "closed_loop.scn").read_text())
    doc["products"][0]["memory"] = {"colour": "teal", "trigger_treshold": 3, "": [1]}
    path = tmp_path / "memory.scn"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_second_agent_product_for_one_product_exits_1_naming_both(
        command, fixtures_dir, tmp_path, capsys):
    doc = json.loads((fixtures_dir / "closed_loop.scn").read_text())
    doc["agents"].append({"id": "ap-02", "role": "AgentProduct", "home": "cust",
                          "product": "px-100@urn:mfg:acme", "itinerary": []})
    path = tmp_path / "bad.scn"
    path.write_text(json.dumps(doc))
    args = ["--out", str(tmp_path)] if command == "run" else []
    code = main([command, "--scenario", str(path), *args])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("error:")
    assert "agent 'ap-02': product 'px-100@urn:mfg:acme' is already bound to " \
        "AgentProduct 'ap-01'" in err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_declared_next_generation_id_exits_1_naming_both(
        command, fixtures_dir, tmp_path, capsys):
    doc = json.loads((fixtures_dir / "closed_loop.scn").read_text())
    doc["products"].append({**doc["products"][0], "serial": "px-100-g2"})
    path = tmp_path / "bad.scn"
    path.write_text(json.dumps(doc))
    args = ["--out", str(tmp_path)] if command == "run" else []
    code = main([command, "--scenario", str(path), *args])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err == (f"error: {path}: product 'px-100-g2@urn:mfg:acme' takes the id that the next "
                   "generation of product 'px-100@urn:mfg:acme' starts under\n")


# Each scalar of closed_loop.scn is replaced by each of these in turn.
MUTANTS = (None, True, 2.5, "zz", [], {}, -1)


def _leaf_paths(node, path=()):
    """The key path of every scalar in a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


def test_no_single_leaf_mutation_exits_2(fixtures_dir, tmp_path, capsys):
    text = (fixtures_dir / "closed_loop.scn").read_text()
    leaves = list(_leaf_paths(json.loads(text)))
    assert len(leaves) == 138
    path = tmp_path / "mutant.scn"
    internal = []
    for leaf in leaves:
        for value in MUTANTS:
            doc = json.loads(text)
            _set(*leaf, value)(doc)
            path.write_text(json.dumps(doc))
            code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            if code not in (0, 1):
                internal.append((leaf, value, err))
    assert internal == []


EVENT = ('{{"tick":{},"event_kind":"{}","node":"","agent":"","msg_id":"",'
         '"detail":{}}}\n')
STARTED = EVENT.format(0, "run_started", json.dumps('{"horizon":9,"scenario":"s","seed":1}'))
FINISHED = EVENT.format(9, "run_finished", '"{}"')
# A run_started line and 120 more: past the first 8 KB the reader reads.
PAST_8_KB = (STARTED + EVENT.format(1, "x", '""') * 120).encode()
# Nesting deep enough that json.loads raises RecursionError.
DEEP = "[" * 100_000 + "]" * 100_000


def _closed_loop(*path_and_value):
    """closed_loop.scn's text with one field set."""
    doc = json.loads((ROOT / "fixtures" / "closed_loop.scn").read_text())
    _set(*path_and_value)(doc)
    return json.dumps(doc)


# Each case: a field of closed_loop.scn set so that ``validate`` and ``run``
# refuse it, and the part of the error message that names it.
SCENARIO_REFUSALS = {
    "no capabilities": (("products", 0, "capabilities", []),
                        ": product 'px-100': PEID capabilities must include UniqueID\n"),
    "capabilities without UniqueID": (
        ("products", 0, "capabilities", ["Communication"]),
        ": product 'px-100': PEID capabilities must include UniqueID\n"),
    "name climbs out of --out": (
        ("name", "../escaped"),
        ": scenario name '../escaped' must be a file name, without '/', '\\' or NUL\n"),
    "name holds NUL": (("name", "a\0b"), ": scenario name 'a\\x00b' must be a file name"),
    "name names a subdirectory": (("name", "sub/x"), ": scenario name 'sub/x' must be"),
    "name holds a backslash": (("name", "sub\\x"), ": scenario name 'sub\\\\x' must be"),
}

# Each case: the command, the file it reads, and the part of the error
# message that says what is wrong with it.
BAD_INPUTS = {
    "report: a line is not JSON": ("report", STARTED + "{not json\n", ":2: not a log event"),
    "report: a line has no event_kind": ("report", '{"tick":0}\n', ":1: not a log event"),
    "report: a line is a list": ("report", STARTED + "[]\n", ":2: not a log event"),
    "report: a record detail lacks mode": (
        "report", STARTED + EVENT.format(3, "knowledge_inserted", '"{}"'), ":2: not a run log"),
    "report: a line nests too deeply": ("report", STARTED + DEEP + "\n",
                                        ":2: not a log event (a log line nests too deeply"),
    "report: a detail nests too deeply": (
        "report", STARTED + EVENT.format(1, "x", json.dumps(DEEP)),
        ":2: not a log event (detail nests too deeply"),
    "report: empty file": ("report", "", ": not a run log (no run_started line)\n"),
    "report: no run_started line": (
        "report", EVENT.format(1, "x", '""') * 3,
        ":1: not a run log (the first event is 'x', not run_started)\n"),
    "report: run_started is not the first event": (
        "report", EVENT.format(0, "x", '""') + STARTED,
        ":1: not a run log (the first event is 'x', not run_started)\n"),
    # Two saved logs concatenated.
    "report: two runs in one log": (
        "report", STARTED + EVENT.format(1, "x", '""') + STARTED,
        ":3: not a run log (a second run_started event, at tick 0: a log holds one run)\n"),
    "report: no run_finished line": (
        "report", STARTED + EVENT.format(1, "x", '""'),
        ":2: not a run log (the last event is 'x', not run_finished)\n"),
    "report: run_started without its detail": (
        "report", EVENT.format(0, "run_started", '""') + FINISHED,
        ":1: not a run log (run_started scenario must be a string, got NoneType)\n"),
    "report: run_started alone": (
        "report", STARTED,
        ":1: not a run log (the last event is 'run_started', not run_finished)\n"),
    # Line 2 is blank, and line 3 equals line 4 to == (generation 1, where
    # line 4 has true): the line named is the one read, not one equal to it.
    "report: a mistyped detail field names its line": (
        "report", STARTED + "\n" + EVENT.format(2, "generation_launched", json.dumps(
            '{"family":"f","generation":1}')) + EVENT.format(2, "generation_launched", json.dumps(
            '{"family":"f","generation":true}')),
        ":4: not a run log (generation_launched generation must be an integer, got bool)\n"),
    "report: not UTF-8": ("report", b"\xff\xfe", ":1: not UTF-8 (byte 0xff at offset 0)"),
    # Past the first 8 KB read, after events have already been decoded.
    "report: not UTF-8 after 8 KB": (
        "report", PAST_8_KB + b"\xff\n",
        f":122: not UTF-8 (byte 0xff at offset {len(PAST_8_KB)})"),
    "validate: not UTF-8": ("validate", b"\xff\xfe", ":1: not UTF-8 (byte 0xff at offset 0)"),
    "validate: nests too deeply": ("validate", DEEP, "nests too deeply"),
    "run: not UTF-8": ("run", b"\xff\xfe", ":1: not UTF-8 (byte 0xff at offset 0)"),
    "compare: not UTF-8": ("compare", b"\xff\xfe", ":1: not UTF-8 (byte 0xff at offset 0)"),
    "compare: nests too deeply": ("compare", DEEP, "nests too deeply"),
    **{f"{command}: {case}": (command, _closed_loop(*change), message)
       for command in ("validate", "run")
       for case, (change, message) in SCENARIO_REFUSALS.items()},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_file_exits_1_naming_it(case, tmp_path, capsys):
    command, content, message = BAD_INPUTS[case]
    path = tmp_path / "input"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    argv = {
        "report": ["report", "--log", str(path)],
        "validate": ["validate", "--scenario", str(path)],
        "run": ["run", "--scenario", str(path), "--out", str(tmp_path / "out" / "run")],
        "compare": ["compare", "--a", str(path), "--b", str(path)],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: {path}") and message in err
    # A refused command writes nothing, inside --out or beside it.
    assert list(tmp_path.iterdir()) == [path]


# Each case: a run log after two blank lines, the line its refusal names
# (blank lines count; None names the file alone), and the rule it breaks.
# Each case ends with blank lines too; they are not the last line read.
RUN_LOG_REFUSALS = {
    "only blank lines": ("", None, "no run_started line"),
    "first event is not run_started": (
        EVENT.format(0, "x", '""') + STARTED + FINISHED, 3,
        "the first event is 'x', not run_started"),
    "a second run_started": (
        STARTED + "\n" + EVENT.format(1, "x", '""') + STARTED + FINISHED, 6,
        "a second run_started event, at tick 0: a log holds one run"),
    "last event is not run_finished": (
        STARTED + EVENT.format(1, "x", '""') + "\n" + EVENT.format(2, "y", '""'), 6,
        "the last event is 'y', not run_finished"),
    "mistyped detail": (
        STARTED + EVENT.format(3, "eol_decision", json.dumps('{"decision":1}')) + FINISHED, 4,
        "eol_decision decision must be a string, got int"),
}


@pytest.mark.parametrize("case", sorted(RUN_LOG_REFUSALS))
def test_report_refusal_names_its_line_counting_blank_lines(case, tmp_path, capsys):
    text, line, rule = RUN_LOG_REFUSALS[case]
    path = tmp_path / "x.events.jsonl"
    path.write_text("\n \n" + text + "\n\n")
    where = path if line is None else f"{path}:{line}"
    assert main(["report", "--log", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {where}: not a run log ({rule})\n"


# Each field of a fixture, objects and lists included, is set to each of
# these: values of the wrong JSON kind, and strings that are no file name.
FIELD_VALUES = (None, True, 0, -1, 2.5, "", "\0", "../x", "a\\b", "zz", [], {},
                ["Communication"])


def _field_paths(node, path=()):
    """The key path of every value inside a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield path + (key,)
            yield from _field_paths(child, path + (key,))


def test_no_field_mutation_exits_2_or_writes_outside_out(fixtures_dir, tmp_path, capsys):
    """Every field of partition.scn set to each of FIELD_VALUES, then 300
    seeded draws of a field of another fixture and a value: neither
    ``validate`` nor ``run`` exits 2, and ``run`` writes only inside --out."""
    texts = {path.stem: path.read_text() for path in sorted(fixtures_dir.glob("*.scn"))}
    cases = [("partition", key, value)
             for key in _field_paths(json.loads(texts["partition"])) for value in FIELD_VALUES]
    others = [(name, key) for name in sorted(texts) if name != "partition"
              for key in _field_paths(json.loads(texts[name]))]
    rng = random.Random(17)
    cases += [(*rng.choice(others), rng.choice(FIELD_VALUES)) for _ in range(300)]
    path, out = tmp_path / "mutant.scn", tmp_path / "out"
    internal = []
    for name, key, value in cases:
        doc = json.loads(texts[name])
        _set(*key, value)(doc)
        path.write_text(json.dumps(doc))
        for argv in (["validate", "--scenario", str(path)],
                     ["run", "--scenario", str(path), "--out", str(out)]):
            code = main(argv)
            err = capsys.readouterr().err
            if code not in (0, 1):
                internal.append((name, key, value, argv[0], err))
    assert internal == []
    assert sorted(tmp_path.iterdir()) == [path, out]


def _drop(key):
    def mutate(doc):
        del doc[key]
    return mutate


# Each case: the mutation of closed_loop's report.json (one that returns a
# document replaces it) and the part of the error message that names the field.
MISTYPED_REPORT_FIELDS = {
    "report is a list": (lambda doc: [doc], "a report must be an object"),
    "scenario is a number": (_set("scenario", 7), "scenario must be a string"),
    "seed is a bool": (_set("seed", True), "seed must be an integer"),
    "seed is missing": (_drop("seed"), "seed must be an integer"),
    "total_ticks is a float": (_set("total_ticks", 60.0), "total_ticks must be an integer"),
    "launch_times is an object": (_set("launch_times", {}), "launch_times must be a list"),
    "launch entry is a list": (_set("launch_times", 0, []),
                               "launch_times[0] must be an object"),
    "launch family is a number": (_set("launch_times", 0, "family", 1),
                                  "launch_times[0].family must be a string"),
    "launch generation is a bool": (_set("launch_times", 0, "generation", True),
                                    "launch_times[0].generation must be an integer"),
    "launch tick is a string": (_set("launch_times", 0, "tick", "19"),
                                "launch_times[0].tick must be an integer"),
    "closure latency is a string": (_set("loop_closure_latency", "8"),
                                    "loop_closure_latency must be an integer or null"),
    "closure latency is a bool": (_set("loop_closure_latency", False),
                                  "loop_closure_latency must be an integer or null"),
    "knowledge_by_mode is a list": (_set("knowledge_by_mode", []),
                                    "knowledge_by_mode must be an object"),
    "knowledge_by_mode count is a string": (_set("knowledge_by_mode", "Tacit", "4"),
                                            "knowledge_by_mode.Tacit must be an integer"),
    "knowledge_by_source count is a float": (_set("knowledge_by_source", "Collective", 5.0),
                                             "knowledge_by_source.Collective must be"),
    "knowledge_by_activity count is null": (
        _set("knowledge_by_activity", "Customer", None),
        "knowledge_by_activity.Customer must be an integer"),
    "eol_decisions count is a bool": (_set("eol_decisions", "ReclaimNoDisassembly", True),
                                      "eol_decisions.ReclaimNoDisassembly must be"),
    "dropped_messages is a string": (_set("dropped_messages", "1"),
                                     "dropped_messages must be an integer"),
    "migrations is null": (_set("migrations", None), "migrations must be an integer"),
    "unknown top-level key": (_set("launch_tims", []), "report: unknown key 'launch_tims'"),
    "unknown launch key": (_set("launch_times", 0, "tik", 19),
                           "launch_times[0]: unknown key 'tik'"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_REPORT_FIELDS))
def test_compare_mistyped_report_exits_1_naming_it(case, fixtures_dir, tmp_path, capsys):
    mutate, message = MISTYPED_REPORT_FIELDS[case]
    assert main(["run", "--scenario", str(fixtures_dir / "closed_loop.scn"),
                 "--out", str(tmp_path)]) == 0
    report = tmp_path / "closed_loop.report.json"
    doc = json.loads(report.read_text())
    replaced = mutate(doc)
    path = tmp_path / "bad.report.json"
    path.write_text(json.dumps(doc if replaced is None else replaced))
    capsys.readouterr()
    code = main(["compare", "--a", str(path), "--b", str(report)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: {path}: not a run report") and message in err


ENVELOPE = ("tick", "event_kind", "node", "agent", "msg_id", "detail")

# Each case: the kind of the first line of closed_loop's log to mutate, the
# field set on it (an envelope field, else a detail field), the value, and
# the part of the error message that names the field. Before the exact type
# checks, 13 of these cases exited 0; only the three "detail" cases and the
# two knowledge_inserted ones exited 1, and none of them named the line.
MISTYPED_LOG_FIELDS = {
    "run_finished tick is a string": ("run_finished", "tick", "x",
                                      "tick must be an integer"),
    "run_started tick is a bool": ("run_started", "tick", False, "tick must be an integer"),
    "design_trigger tick is a float": ("design_trigger", "tick", 12.0,
                                       "tick must be an integer"),
    "event_kind is a number": ("run_finished", "event_kind", 7,
                               "event_kind must be a string"),
    "node is null": ("message_delivered", "node", None, "node must be a string"),
    "agent is a list": ("message_delivered", "agent", [], "agent must be a string"),
    "msg_id is a number": ("message_delivered", "msg_id", 5, "msg_id must be a string"),
    "detail is an object, not its text": ("knowledge_inserted", "detail", {"mode": "Tacit"},
                                          "detail must be a string"),
    "detail text is a list": ("run_started", "detail", "[]",
                              "detail must be empty or the text of a JSON object"),
    "detail text is not JSON": ("run_started", "detail", "{x", "Expecting property name"),
    "run_started scenario is a number": ("run_started", "scenario", 5,
                                         "run_started scenario must be a string"),
    "run_started seed is a string": ("run_started", "seed", "z",
                                     "run_started seed must be an integer"),
    "run_started horizon is a bool": ("run_started", "horizon", True,
                                      "run_started horizon must be an integer"),
    "knowledge_inserted mode is a number": ("knowledge_inserted", "mode", 7,
                                            "knowledge_inserted mode must be a string"),
    "knowledge_inserted source is null": ("knowledge_inserted", "source", None,
                                          "knowledge_inserted source must be a string"),
    "generation_launched family is a number": (
        "generation_launched", "family", 1, "generation_launched family must be a string"),
    "generation_launched generation is a string": (
        "generation_launched", "generation", "2",
        "generation_launched generation must be an integer"),
    "eol_decision decision is null": ("eol_decision", "decision", None,
                                      "eol_decision decision must be a string"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_LOG_FIELDS))
def test_report_mistyped_log_field_exits_1_naming_it(case, fixtures_dir, tmp_path, capsys):
    kind, key, value, message = MISTYPED_LOG_FIELDS[case]
    assert main(["run", "--scenario", str(fixtures_dir / "closed_loop.scn"),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "closed_loop.events.jsonl").read_text().splitlines()
    events = [LoggedEvent.from_json_line(line) for line in lines]
    at = next(i for i, event in enumerate(events) if event.event_kind == kind)
    if key in ENVELOPE:
        raw = json.loads(lines[at])
        raw[key] = value
        lines[at] = json.dumps(raw, separators=(",", ":"))
        where = f":{at + 1}: not a log event"
    else:
        lines[at] = events[at]._replace(detail={**events[at].detail, key: value}).to_json_line()
        where = f":{at + 1}: not a run log"
    path = tmp_path / "bad.events.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["report", "--log", str(path)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: {path}{where}") and message in err


def test_reused_parser_leaks_no_state(fixtures_dir, tmp_path):
    """One process parses every command with the same parser: each call
    prints what the same command prints in a fresh process."""
    main(["run", "--scenario", str(fixtures_dir / "closed_loop.scn"), "--out", str(tmp_path)])
    log = str(tmp_path / "closed_loop.events.jsonl")
    # closed_loop's own seed is 42.
    again = ["run", "--scenario", str(fixtures_dir / "closed_loop.scn"), "--out", str(tmp_path)]
    calls = [
        ["report", "--log", log, "--json"],
        ["report", "--log", log],
        [*again, "--seed", "7"],
        again,
        ["report"],                 # a usage error
        ["report", "--log", log],
        ["--help"],
        ["report", "--log", log, "--json"],
    ]

    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
        return code, out.getvalue(), err.getvalue()

    def fresh(argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from ploop.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    seen = [(argv, in_process(argv)) for argv in calls]
    assert [code for _, (code, _, _) in seen] == [0, 0, 0, 0, 1, 0, 0, 0]
    assert "seed                  7\n" in seen[2][1][1]
    assert "seed                  42\n" in seen[3][1][1]
    for argv, result in seen:
        assert result == fresh(argv), argv
