"""The README's event vocabulary is what the logs say: every line of every
fixture's and golden scenario's run log names a listed kind, sets exactly
that kind's envelope fields and carries exactly its detail keys, each of
its JSON type; and every listed kind is logged somewhere or named here as
unexercised."""

import json
import re
from pathlib import Path

import pytest

from ploop import runtime
from ploop.harness import load_scenario, run

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = (sorted((ROOT / "fixtures").glob("*.scn"))
             + sorted((ROOT / "tests" / "golden").glob("*.scn")))

# Kinds no fixture or golden scenario logs: no role lacks a rule for what
# its routes send it, no lifecycle step is refused, and no reading goes
# back in time.
UNEXERCISED = {"unhandled_message", "lifecycle_refused", "peid_refused"}

JSON_TYPES = {"string": str, "integer": int}
ENVELOPE = ("node", "agent", "msg_id")


def vocabulary():
    """kind -> (envelope fields set, fields that may be empty,
    {detail key: (JSON type, optional)}), read from the README's table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Event vocabulary", 1)[1].split("\n## ", 1)[0]
    table = {}
    for row in section.splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        kind, _, envelope, detail = cells
        fields = re.findall(r"`(\w+)(\??)`", envelope)
        keys = {key: (JSON_TYPES[kind_], bool(optional))
                for key, kind_, optional in re.findall(r"`(\w+)`: (\w+)( \(optional\))?", detail)}
        table[kind.strip("`")] = ({f for f, _ in fields}, {f for f, q in fields if q}, keys)
    return table


VOCABULARY = vocabulary()


def logged_lines(path):
    """The lines of path's run log, as written, each decoded."""
    for event in run(load_scenario(path)).world.events:
        line = json.loads(event.to_json_line())
        line["detail"] = json.loads(line["detail"]) if line["detail"] else {}
        yield line


LOGS = {path.stem: list(logged_lines(path)) for path in SCENARIOS}


def test_the_table_lists_every_kind_the_engine_names():
    kinds = {value for name, value in vars(runtime).items() if name.startswith("EVT_")}
    assert len(kinds) == 21
    assert set(VOCABULARY) == kinds


@pytest.mark.parametrize("name", sorted(LOGS))
def test_every_line_matches_its_kind(name):
    for n, line in enumerate(LOGS[name], 1):
        where = f"{name} line {n} ({line['event_kind']})"
        assert line["event_kind"] in VOCABULARY, where
        fields, may_be_empty, keys = VOCABULARY[line["event_kind"]]
        for field in ENVELOPE:
            if field not in fields:
                assert line[field] == "", where
            elif field not in may_be_empty:
                assert line[field] != "", where
        detail = line["detail"]
        required = {key for key, (_, optional) in keys.items() if not optional}
        assert required <= set(detail) <= set(keys), where
        for key, value in detail.items():
            assert type(value) is keys[key][0], f"{where}: {key}"


def test_every_kind_is_logged_or_named_unexercised():
    logged = {line["event_kind"] for lines in LOGS.values() for line in lines}
    assert logged | UNEXERCISED == set(VOCABULARY)
    assert not logged & UNEXERCISED
