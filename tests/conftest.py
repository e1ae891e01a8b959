from pathlib import Path

import pytest

from ploop.agents import AgentRole
from ploop.lifecycle import LifecyclePhase
from ploop.messages import KEY_KNOWLEDGE_RECORD
from ploop.runtime import NodeKind, RoutingRule, RoutingTable, SimParams, World

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def pytest_collection_finish(session):
    """Start test_replay's interpreters as soon as the tests are collected,
    when any of that module's tests is to run, so that they work beside the
    tests that run before it."""
    if any(item.path.name == "test_replay.py" for item in session.items):
        import test_replay
        test_replay.start_all()


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def keeper_world():
    """Factory for a world with one product in use at the manufacturer and
    one AgentKnowledge keeper there, ak-01; knowledge.record messages
    route to every keeper."""

    def build(product_id, threshold, enabled=True):
        world = World(
            routing=RoutingTable(rules=(
                RoutingRule(KEY_KNOWLEDGE_RECORD, ("AgentKnowledge",)),
                RoutingRule("*", ()),
            )),
            params=SimParams(trigger_threshold=threshold, trigger_rule_enabled=enabled),
        )
        world.register_node(NodeKind.MANUFACTURER, "mfg")
        world.register_product(product_id, 1, LifecyclePhase.EOL_USE, node="mfg")
        world.spawn_agent(AgentRole.KNOWLEDGE, "mfg", agent_id="ak-01")
        return world

    return build
