"""Values the engine builds are the values the public constructors build
from the same fields, and every refusal the constructor makes is still
made, with its exception type and message.

Each of ``AgentState``, ``SensorEvent``, ``SensorBatch`` and
``KnowledgeRecord`` has one constructor, its hand-written ``__init__``,
which the engine calls too: for a spawned agent (``World.spawn_agent``),
a reading and its batch (``build_world``) and a record (``tacit_record``
and ``explicit_record``). A PEID is still built past its constructor, by
``record_event``, one per batch. A PEID's readings, on every fixture and
golden scenario, equal reading for reading the log that the public
``SensorEvent`` constructor and ``record_event``, called once per
reading, build from the same stimuli in delivery order.

The loader builds each ``AgentDecl`` and ``Stimulus`` with a bare
``tuple.__new__``, in field order, and each ``PartitionWindow``
positionally; on every fixture and golden scenario each equals, with the
same type and field for field, what its public constructor builds from
the same document's keys.
"""

import copy
import dataclasses
import json
import pickle
from pathlib import Path

import pytest

from ploop.agents import AgentError, AgentRole, AgentState
from ploop.harness import (
    STIMULUS_KINDS,
    AgentDecl,
    Stimulus,
    build_world,
    load_scenario,
    run,
)
from ploop.identity import PEID, IdentityError, SensorEvent, mint_product_id, record_event
from ploop.knowledge import (
    Activity,
    EmptyFeedback,
    KnowledgeError,
    KnowledgeMode,
    KnowledgeRecord,
    KnowledgeSource,
    explicit_record,
    tacit_record,
)
from ploop.messages import SensorBatch
from ploop.runtime import NodeKind, PartitionWindow, World

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = (sorted((ROOT / "fixtures").glob("*.scn"))
             + sorted((ROOT / "tests" / "golden").glob("*.scn")))
PID = mint_product_id("px-9", "urn:mfg:acme")


def assert_same_value(built, public):
    """built, made by the engine, is indistinguishable from public."""
    assert type(built) is type(public)
    assert built == public
    assert hash(built) == hash(public)
    assert repr(built) == repr(public)
    assert copy.deepcopy(built) == public
    assert pickle.loads(pickle.dumps(built)) == public
    if dataclasses.is_dataclass(public):
        assert dataclasses.fields(built) == dataclasses.fields(public)
        assert dataclasses.asdict(built) == dataclasses.asdict(public)
        name = dataclasses.fields(public)[0].name
    else:
        name = "product_id"
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, name, getattr(public, name))


def refusal(call):
    """The type and message of what call raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def pending_batches(world):
    """The sensor batches build_world queued, in delivery order."""
    return [m.payload for _, _, m in sorted(world._pending)
            if isinstance(m.payload, SensorBatch)]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
class TestEngineBuiltValues:
    def test_spawned_agents_equal_the_constructors(self, path):
        world = build_world(load_scenario(path))
        assert world.agents
        for agent in world.agents.values():
            assert_same_value(agent, AgentState(agent.agent_id, agent.role, agent.location,
                                                agent.product_id, agent.itinerary))

    def test_readings_and_batches_equal_the_constructors(self, path):
        scenario = load_scenario(path)
        batches = pending_batches(build_world(scenario))
        stimuli = sorted((s for s in scenario.stimuli if s.kind == "sensor_batch"),
                         key=lambda s: s.tick)
        assert len(batches) == len(stimuli)
        for batch, stim in zip(batches, stimuli):
            events = tuple(SensorEvent(e["sensor"], e["value"], e["unit"], stim.tick)
                           for e in stim.events)
            for built, public in zip(batch.events, events):
                assert_same_value(built, public)
            assert_same_value(batch, SensorBatch(batch.product_id, batch.generation,
                                                 stim.category, events, stim.note))

    def test_repository_records_equal_the_constructors(self, path):
        for record in run(load_scenario(path)).world.repository.records:
            assert_same_value(record, KnowledgeRecord(
                record.record_id, record.product_id, record.generation, record.activity,
                record.mode, record.source, record.payload, record.created_at))

    def test_peid_log_equals_the_public_path_reading_for_reading(self, path):
        scenario = load_scenario(path)
        world = run(scenario).world
        # Sensor batches deliver by (tick, send order), and build_world
        # sends the stimuli in scenario order.
        stimuli = sorted((s for s in scenario.stimuli if s.kind == "sensor_batch"),
                         key=lambda s: s.tick)
        readings = 0
        for product in world.products.values():
            peid = PEID(product.product_id, product.peid.capabilities)
            for stim in stimuli:
                if stim.product == product.key:
                    for e in stim.events:
                        peid = record_event(peid, SensorEvent(e["sensor"], e["value"],
                                                              e["unit"], stim.tick))
            assert len(product.peid.event_log) == len(peid.event_log)
            for built, public in zip(product.peid.event_log, peid.event_log):
                assert_same_value(built, public)
            assert_same_value(product.peid, peid)
            readings += len(peid.event_log)
        assert readings == sum(len(s.events) for s in stimuli)


def public_declarations(doc):
    """The agents, stimuli and partitions the public constructors build
    from a scenario document's own keys."""
    agents = [AgentDecl(**{**raw, "role": AgentRole(raw["role"]),
                           "itinerary": tuple(raw.get("itinerary", ()))})
              for raw in doc.get("agents", [])]
    stimuli = [Stimulus(**{**raw, "events": tuple(raw["events"])} if "events" in raw
                        else raw)
               for raw in doc.get("stimuli", [])]
    partitions = [PartitionWindow(**raw) for raw in doc.get("partitions", [])]
    return agents, stimuli, partitions


def assert_same_declaration(built, public):
    """built, made by the loader, is public field for field, each field of
    the same type, so a swapped field cannot hide behind equal values."""
    assert type(built) is type(public)
    assert built == public
    assert repr(built) == repr(public)
    names = (public._fields if isinstance(public, tuple)
             else [f.name for f in dataclasses.fields(public)])
    for name in names:
        assert type(getattr(built, name)) is type(getattr(public, name)), name


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_loaded_declarations_equal_the_constructors(path):
    scenario = load_scenario(path)
    agents, stimuli, partitions = public_declarations(json.loads(path.read_text()))
    for loaded, public in ((scenario.agents, agents), (scenario.stimuli, stimuli),
                           (scenario.partitions, partitions)):
        assert len(loaded) == len(public)
        for built, expected in zip(loaded, public):
            assert_same_declaration(built, expected)


def test_the_scenarios_declare_every_kind_of_declaration():
    # Each loaded kind, and each stimulus kind, is compared somewhere above.
    scenarios = [load_scenario(path) for path in SCENARIOS]
    assert all(any(getattr(s, name) for s in scenarios)
               for name in ("agents", "stimuli", "partitions"))
    assert {stim.kind for s in scenarios for stim in s.stimuli} == set(STIMULUS_KINDS)


class TestRecordBuilders:
    def test_tacit_record_equals_the_constructor(self):
        assert_same_value(
            tacit_record("kr-1", PID, 2, "failure", "overheat x3", 7),
            KnowledgeRecord("kr-1", PID, 2, Activity.INTELLIGENT_PRODUCT, KnowledgeMode.TACIT,
                            KnowledgeSource.SELF_SOURCE, "failure overheat x3", 7))

    def test_explicit_record_equals_the_constructor(self):
        assert_same_value(
            explicit_record("kr-2", PID, 1, "battery swells", 0),
            KnowledgeRecord("kr-2", PID, 1, Activity.CUSTOMER, KnowledgeMode.EXPLICIT,
                            KnowledgeSource.COLLECTIVE, "battery swells", 0))

    @pytest.mark.parametrize("generation, tick", [(0, 5), (-1, 5), (1, -1), (0, -1)])
    def test_builders_refuse_as_the_constructor_does(self, generation, tick):
        public = refusal(lambda: KnowledgeRecord(
            "kr-1", PID, generation, Activity.CUSTOMER, KnowledgeMode.EXPLICIT,
            KnowledgeSource.COLLECTIVE, "text", tick))
        assert public[0] is KnowledgeError
        assert refusal(lambda: tacit_record("kr-1", PID, generation, "use", "", tick)) == public
        assert refusal(lambda: explicit_record("kr-1", PID, generation, "text", tick)) == public

    def test_empty_feedback_is_refused_first(self):
        expected = (EmptyFeedback, "feedback text must be non-empty")
        assert refusal(lambda: explicit_record("kr-1", PID, 1, "", 5)) == expected
        assert refusal(lambda: explicit_record("kr-1", PID, 0, "", -1)) == expected


class TestBareRefusals:
    def test_agent_product_without_a_product_is_refused_by_spawn(self):
        world = World()
        world.register_node(NodeKind.MANUFACTURER, "mfg")
        public = refusal(lambda: AgentState("ap-1", AgentRole.PRODUCT, "mfg"))
        assert public == (AgentError, "AgentProduct requires a product_id")
        assert refusal(lambda: world.spawn_agent(AgentRole.PRODUCT, "mfg",
                                                 agent_id="ap-1")) == public
        assert world.agents == {} and len(world.events) == 1

    def test_negative_stimulus_tick_in_a_hand_built_scenario(self):
        scenario = load_scenario(ROOT / "fixtures" / "closed_loop.scn")
        stim = next(s for s in scenario.stimuli if s.kind == "sensor_batch" and s.events)
        bad = dataclasses.replace(scenario, stimuli=(stim._replace(tick=-3),))
        public = refusal(lambda: SensorEvent("temp", 1.0, "C", -3))
        assert public == (IdentityError, "sim_time must be >= 0, got -3")
        assert refusal(lambda: build_world(bad)) == public

