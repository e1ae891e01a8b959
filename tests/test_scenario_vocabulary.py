"""Every key a scenario file may hold is what ``harness.SCENARIO`` declares.

For each declared (object, key), one instance of it in a fixture or golden
scenario is mutated, and the loader must agree with the table: a value of
the wrong JSON kind is refused, and so is a string outside an enum's
members; a null is refused unless the declared default is null, in which
case it loads as the absent key does; an absent key is refused when it is
required, and otherwise loads as its default written in does. Every
refusal names its key, but for the few listed below, whose words name the
value. Every object of every scenario holds its keys in the table's order,
the order the saver writes. The README's scenario table is ``SCENARIO``
written out, row for row.
"""

import json
import re
from dataclasses import MISSING
from pathlib import Path

import pytest

from ploop.harness import _KINDS, SCENARIO, ScenarioValidationError, scenario_from_dict

ROOT = Path(__file__).resolve().parent.parent
# The fixtures first: they are small, so a key is mutated where it loads fast.
SCENARIOS = (sorted((ROOT / "fixtures").glob("*.scn"))
             + sorted((ROOT / "tests" / "golden").glob("*.scn")))
DOCS = {path.name: json.loads(path.read_text(encoding="utf-8")) for path in SCENARIOS}

# Where each object sits in a scenario document: the keys from the document
# down, "[]" marking each entry of a list.
PLACES = {
    "scenario": "",
    "node": "nodes[]",
    "product": "products[]",
    "component": "products[].components[]",
    "intelligence_location": "products[].intelligence_location",
    "agent": "agents[]",
    "routing rule": "routing[]",
    "latency": "latency",
    "latency pair": "latency.pairs[]",
    "partition": "partitions[]",
    "stimulus": "stimuli[]",
    "sensor reading": "stimuli[].events[]",
    "params": "params",
    "eol_policy": "params.eol_policy",
}

# One value of each JSON kind, and 1.0, a number equal to an integer.
SAMPLES = ({}, [], "x", 1, 1.0, 2.5, True)

# The refusals whose words name the value rather than the key: an unknown
# node kind or reference is quoted as found, and a capability outside the
# enum is named in the singular.
UNNAMED = {("node", "kind"), ("agent", "home"), ("latency pair", "a"), ("latency pair", "b"),
           ("partition", "a"), ("partition", "b"), ("product", "capabilities")}


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def instances(doc, place):
    """The key path of each instance in doc of the object at place."""
    paths = [()]
    for step in place.split(".") if place else ():
        name = step.removesuffix("[]")
        found = []
        for path in paths:
            value = _at(doc, path).get(name)
            if value is None:
                continue
            found += ([(*path, name, i) for i in range(len(value))] if step.endswith("[]")
                      else [(*path, name)])
        paths = found
    return paths


def first_instance(name, key):
    """The first scenario, and the path of its first instance of object
    name, that gives key."""
    for file, doc in DOCS.items():
        for path in instances(doc, PLACES[name]):
            if key in _at(doc, path):
                return file, path
    raise AssertionError(f"no fixture or golden scenario gives {name} {key!r}")


def outcome(file, path, mutate):
    """What the loader makes of the scenario after mutate(instance): ("ok",
    the scenario) or ("refused", the message)."""
    doc = json.loads(json.dumps(DOCS[file]))
    mutate(_at(doc, path))
    try:
        return ("ok", scenario_from_dict(doc))
    except ScenarioValidationError as exc:
        return ("refused", str(exc))


def _set(key, value):
    def mutate(obj):
        obj[key] = value
    return mutate


def _drop(key):
    def mutate(obj):
        del obj[key]
    return mutate


DECLARED = [(name, key) for name, keys in SCENARIO.items() for key in keys]


def test_the_table_declares_every_object_and_key():
    assert list(SCENARIO) == list(PLACES)
    assert len(DECLARED) == 66


@pytest.mark.parametrize("name, key", DECLARED, ids=[f"{n}.{k}" for n, k in DECLARED])
def test_the_loader_reads_each_key_as_declared(name, key):
    kind, default, members = SCENARIO[name][key]
    file, path = first_instance(name, key)
    refusals = []
    for value in SAMPLES:
        if type(value) not in _KINDS[kind]:
            refusals.append((repr(value), outcome(file, path, _set(key, value))))
    if members is not None:
        stranger = ["zz"] if kind == "a list" else "zz"
        refusals.append(("not a member", outcome(file, path, _set(key, stranger))))
    absent = outcome(file, path, _drop(key))
    if default is MISSING:
        refusals.append(("absent", absent))
    else:
        assert absent == outcome(file, path, _set(key, default)), "absent"
    null = outcome(file, path, _set(key, None))
    if default is None:
        assert null == absent, "null"
    else:
        refusals.append(("null", null))
    for mutation, (verdict, message) in refusals:
        assert verdict == "refused", mutation
        if (name, key) not in UNNAMED:
            assert re.search(rf"\b{key}\b", message), (mutation, message)


@pytest.mark.parametrize("file", sorted(DOCS))
def test_every_object_holds_its_keys_in_table_order(file):
    doc = DOCS[file]
    for name, place in PLACES.items():
        for path in instances(doc, place):
            keys = list(_at(doc, path))
            assert keys == [key for key in SCENARIO[name] if key in keys], (name, path)


def render(keys):
    """An object's keys as the README's table cell writes them."""
    cells = []
    for key, (kind, default, members) in keys.items():
        cell = f"`{key}`: {kind.split(' ', 1)[1]}, "
        cell += "required" if default is MISSING else f"`{json.dumps(default)}`"
        if members is not None:
            cell += ", each" if kind == "a list" else ","
            cell += " one of " + ", ".join(
                f"`{value}`" + (f" (with {', '.join(f'`{k}`' for k in member)})"
                                if isinstance(member, tuple) and member else "")
                for value, member in members.items())
        cells.append(cell)
    return "; ".join(cells)


def readme_table():
    """The README's scenario table, row by row: object, place, keys."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    rows = []
    for row in section.splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] not in ("object", "") and not cells[0].startswith("-"):
            rows.append(tuple(cells))
    return rows


def test_the_readme_table_is_scenario():
    assert readme_table() == [
        (name, f"`{PLACES[name]}`" if PLACES[name] else "the document", render(keys))
        for name, keys in SCENARIO.items()]
