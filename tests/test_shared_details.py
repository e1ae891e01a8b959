"""A run shares each repeated detail dict and encodes it once: the lines
written through ``World.log_lines`` are those each event writes alone, the
table holds only kinds whose detail values are all strings, and a repeated
detail adds no entry."""

from pathlib import Path
from unittest import mock

import pytest

from ploop import runtime
from ploop.agents import AgentRole
from ploop.harness import load_scenario, run
from ploop.runtime import EVENTS, NodeKind, World

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = (sorted((ROOT / "fixtures").glob("*.scn"))
             + sorted((ROOT / "tests" / "golden").glob("*.scn")))

# The kinds whose detail the World takes from its table.
SHARED_KINDS = {"agent_spawned", "message_sent", "message_delivered", "message_blocked",
                "migration_completed", "migration_refused"}


@pytest.fixture(scope="module")
def worlds():
    return {path.stem: run(load_scenario(path)).world for path in SCENARIOS}


@pytest.mark.parametrize("name", [path.stem for path in SCENARIOS])
def test_lines_written_through_the_shared_texts_are_each_events_own(worlds, name):
    world = worlds[name]
    encoded = []
    real = runtime.detail_str

    def counted(detail):
        encoded.append(detail)
        return real(detail)

    with mock.patch.object(runtime, "detail_str", counted):
        lines = list(world.log_lines())
    # Every shared dict is encoded once, before the first line, and then
    # only the details no event shares.
    shared = list(map(id, world._details.values()))
    assert list(map(id, encoded[:len(shared)])) == shared
    assert list(map(id, encoded[len(shared):])) == [
        id(event.detail) for event in world.events
        if event.detail and id(event.detail) not in shared]
    assert lines == [event.to_json_line() for event in world.events]


@pytest.mark.parametrize("name", [path.stem for path in SCENARIOS])
def test_the_table_holds_only_string_details_in_declared_order(worlds, name):
    world = worlds[name]
    for key, detail in world._details.items():
        kind, values = key[0], key[1:]
        declared = EVENTS[kind][1]
        # Only str values, so 1, True and 1.0 can never share a key.
        assert set(declared.values()) == {str}, kind
        assert all(type(value) is str for value in values), key
        assert list(detail) == list(declared) and list(detail.values()) == list(values)
    # message_blocked takes the dict of message_delivered, whose keys it declares.
    for event in world.events:
        if event.event_kind in SHARED_KINDS:
            kind = event.event_kind.replace("message_blocked", "message_delivered")
            assert world._details[(kind, *event.detail.values())] is event.detail


def test_every_shared_kind_is_shared_somewhere(worlds):
    kinds = {key[0] for world in worlds.values() for key in world._details}
    assert kinds == SHARED_KINDS - {"message_blocked"}
    blocked = [event for world in worlds.values() for event in world.events
               if event.event_kind == "message_blocked"]
    assert blocked


def test_a_thousand_parked_agents_of_one_role_add_one_entry():
    world = World()
    world.register_node(NodeKind.MANUFACTURER, "mfg")
    world.spawn_agent(AgentRole.SERVICE, "mfg", agent_id="as-first")
    before = len(world._details)
    for n in range(1000):
        world.spawn_agent(AgentRole.IMPACT, "mfg", agent_id=f"ai-{n:04d}")
    assert len(world._details) == before + 1
    details = {id(event.detail) for event in world.events[-1000:]}
    assert len(details) == 1
    assert list(world.log_lines()) == [event.to_json_line() for event in world.events]
