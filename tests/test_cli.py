import json
from dataclasses import replace

import pytest

from ploop.cli import main
from ploop.runtime import LoggedEvent


@pytest.fixture(autouse=True)
def quiet_log_level(monkeypatch):
    monkeypatch.delenv("PLOOP_LOG_LEVEL", raising=False)


def test_validate_ok(fixtures_dir, capsys):
    code = main(["validate", "--scenario", str(fixtures_dir / "closed_loop.scn")])
    assert code == 0
    assert capsys.readouterr().out.startswith("OK: closed_loop")


def test_validate_missing_file_exits_1(tmp_path, capsys):
    code = main(["validate", "--scenario", str(tmp_path / "absent.scn")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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


def test_bad_log_level_exits_1(fixtures_dir, monkeypatch, capsys):
    monkeypatch.setenv("PLOOP_LOG_LEVEL", "chatty")
    code = main(["validate", "--scenario", str(fixtures_dir / "minimal.scn")])
    assert code == 1
    assert "PLOOP_LOG_LEVEL" in capsys.readouterr().err


def test_log_level_values_accepted(fixtures_dir, monkeypatch):
    for level in ("error", "info", "debug"):
        monkeypatch.setenv("PLOOP_LOG_LEVEL", level)
        assert main(["validate", "--scenario", str(fixtures_dir / "minimal.scn")]) == 0


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(doc):
        target = doc
        for step in path:
            target = target[step]
        target[key] = value
    return mutate


# Each case: the mutation of closed_loop.scn and the part of the error
# message that names the field.
MISTYPED_FIELDS = {
    "node entry is a list": (_set("nodes", 0, ["mfg", "Manufacturer"]),
                             "nodes[0] must be an object"),
    "latency is a list": (_set("latency", []), "latency must be an object"),
    "params is a list": (_set("params", []), "params must be an object"),
    "component condition is a string": (
        _set("products", 0, "components", 0, "condition", "0.2"), "condition must be"),
    "seed is a bool": (_set("seed", True), "seed must be"),
    "horizon is a bool": (_set("horizon", True), "horizon must be"),
    "trigger threshold is a float": (_set("params", "trigger_threshold", 2.5),
                                     "trigger_threshold must be"),
    "sensor value is a string": (_set("stimuli", 0, "events", 0, "value", "6.5"),
                                 "value must be a number"),
    "sensor unit is a number": (_set("stimuli", 0, "events", 0, "unit", 5),
                                "unit strings"),
    "feedback text is a number": (_set("stimuli", 4, "text", 123), "non-empty text"),
    "trigger rule flag is a string": (_set("params", "trigger_rule_enabled", "no"),
                                      "trigger_rule_enabled must be"),
    "itinerary is a string": (_set("agents", 0, "itinerary", "mfg"), "itinerary must be"),
    "routing recipient is a list": (_set("routing", 0, "recipients", 0, []),
                                    "recipients must be strings"),
    "routing recipient is a number": (_set("routing", 0, "recipients", 0, 7),
                                      "recipients must be strings"),
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
STARTED = EVENT.format(0, "run_started", '"{}"')

# Each case: the command, the file it reads, and the part of the error
# message that says what is wrong with it.
BAD_INPUTS = {
    "report: a line is not JSON": ("report", STARTED + "{not json\n", ":2: not a log event"),
    "report: a line has no event_kind": ("report", '{"tick":0}\n', ":1: not a log event"),
    "report: a line is a list": ("report", STARTED + "[]\n", ":2: not a log event"),
    "report: a record detail lacks mode": (
        "report", STARTED + EVENT.format(3, "knowledge_inserted", '"{}"'), "not a run log"),
    "report: not UTF-8": ("report", b"\xff\xfe", "can't decode"),
    "validate: not UTF-8": ("validate", b"\xff\xfe", "can't decode"),
    "run: not UTF-8": ("run", b"\xff\xfe", "can't decode"),
    "compare: not UTF-8": ("compare", b"\xff\xfe", "can't decode"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_file_exits_1_naming_it(case, tmp_path, capsys):
    command, content, message = BAD_INPUTS[case]
    path = tmp_path / "input"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    argv = {
        "report": ["report", "--log", str(path)],
        "validate": ["validate", "--scenario", str(path)],
        "run": ["run", "--scenario", str(path), "--out", str(tmp_path)],
        "compare": ["compare", "--a", str(path), "--b", str(path)],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: {path}") and message in err


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
        lines[at] = replace(events[at], detail={**events[at].detail, key: value}).to_json_line()
        where = ": not a run log"
    path = tmp_path / "bad.events.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["report", "--log", str(path)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: {path}{where}") and message in err
