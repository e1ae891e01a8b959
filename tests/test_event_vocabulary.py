"""Every logged line is what ``runtime.EVENTS`` declares: every line of every
fixture's and golden scenario's run log, and of the unit tests that log the
kinds no scenario logs, names a declared kind, sets exactly that kind's
envelope fields and carries exactly its detail keys, each of its declared
type; and every declared kind is logged somewhere. The README's event
table is ``EVENTS`` written out, row for row."""

import json
import re
from pathlib import Path
from unittest import mock

import pytest

import test_runtime
from ploop import runtime
from ploop.harness import load_scenario, run

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = (sorted((ROOT / "fixtures").glob("*.scn"))
             + sorted((ROOT / "tests" / "golden").glob("*.scn")))

# The tests in test_runtime's TestWorldRules that log the kinds no fixture
# or golden scenario logs: there no role lacks a rule for what its routes
# send it, no lifecycle step is refused, and no reading goes back in time.
UNIT_TESTS = ("test_feedback_to_a_service_agent_is_unhandled",
              "test_refused_step_schedules_nothing",
              "test_backwards_batch_is_refused_whole")

ENVELOPE = ("node", "agent", "msg_id")
JSON_TYPES = {str: "string", int: "integer"}


def decoded(events):
    """The lines of events, as written, each decoded."""
    for event in events:
        line = json.loads(event.to_json_line())
        line["detail"] = json.loads(line["detail"]) if line["detail"] else {}
        yield line


def unit_test_lines(name):
    """The lines of every World that TestWorldRules.<name> builds."""
    worlds = []

    class Recorded(runtime.World):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            worlds.append(self)

    with mock.patch.object(test_runtime, "World", Recorded):
        getattr(test_runtime.TestWorldRules(), name)()
    return [line for world in worlds for line in decoded(world.events)]


LOGS = {**{path.stem: list(decoded(run(load_scenario(path)).world.events))
           for path in SCENARIOS},
        **{name: unit_test_lines(name) for name in UNIT_TESTS}}


def test_the_table_lists_every_kind_the_engine_names():
    names = {name: value for name, value in vars(runtime).items() if name.startswith("EVT_")}
    assert len(runtime.EVENTS) == 21
    assert names == {"EVT_" + kind.upper(): kind for kind in runtime.EVENTS}


@pytest.mark.parametrize("name", sorted(LOGS))
def test_every_line_matches_its_kind(name):
    for n, line in enumerate(LOGS[name], 1):
        where = f"{name} line {n} ({line['event_kind']})"
        assert line["event_kind"] in runtime.EVENTS, where
        envelope, keys = runtime.EVENTS[line["event_kind"]]
        for field in ENVELOPE:
            if field + "?" not in envelope:
                assert (line[field] != "") == (field in envelope), f"{where}: {field}"
        types = {key.rstrip("?"): type_ for key, type_ in keys.items()}
        required = {key for key in keys if not key.endswith("?")}
        assert required <= set(line["detail"]) <= set(types), where
        for key, value in line["detail"].items():
            assert type(value) is types[key], f"{where}: {key}"


def test_every_kind_is_logged():
    logged = {line["event_kind"] for lines in LOGS.values() for line in lines}
    assert logged == set(runtime.EVENTS)


def readme_table():
    """The README's event table, row by row: the kind, its envelope fields
    as marked, and its (detail key, JSON type, optional) triples."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Event vocabulary", 1)[1].split("\n## ", 1)[0]
    rows = []
    for row in section.splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        kind, _, envelope, detail = cells
        rows.append((kind.strip("`"), re.findall(r"`(\w+\??)`", envelope),
                     [(key, type_, bool(optional)) for key, type_, optional
                      in re.findall(r"`(\w+)`: (\w+)( \(optional\))?", detail)]))
    return rows


def test_the_readme_table_is_events():
    assert readme_table() == [
        (kind, list(envelope),
         [(key.rstrip("?"), JSON_TYPES[type_], key.endswith("?")) for key, type_ in keys.items()])
        for kind, (envelope, keys) in runtime.EVENTS.items()]
