import copy
import random

import pytest

from ploop.agents import (
    AgentError,
    AgentRole,
    AgentState,
    EmitKnowledge,
    RequestMigration,
    SendMessage,
    UnhandledMessage,
    UnknownNode,
    UpdateMemory,
    apply_memory,
    handle,
    plan_migration,
)
from ploop.identity import SensorEvent, mint_product_id
from ploop.knowledge import (
    Activity,
    KnowledgeMode,
    KnowledgeRecord,
    KnowledgeSource,
    explicit_record,
)
from ploop.messages import (
    KEY_DESIGN_TRIGGER,
    KEY_KNOWLEDGE_RECORD,
    KEY_SERVICE_ORDER,
    CustomerFeedback,
    FaultReported,
    Message,
    SensorBatch,
    ServiceOrder,
)
from ploop.runtime import NodeKind, tick

PID = mint_product_id("px-1", "urn:mfg:acme")


def make_agent(role, agent_id="a-01", location="n1", itinerary=(), memory=None):
    return AgentState(
        agent_id=agent_id,
        role=role,
        location=location,
        product_id=PID if role is AgentRole.PRODUCT else None,
        memory=memory or {},
        itinerary=itinerary,
    )


TICK = 5


def msg(payload, msg_id="m1", key="k"):
    return Message(msg_id=msg_id, sender="t", routing_key=key, payload=payload,
                   sent_at=4, deliver_at=5, origin_node="n1")


def batch(category="use", n=1, note="steady"):
    events = tuple(SensorEvent(f"s{i}", float(i), "u", 5) for i in range(n))
    return SensorBatch(product_id=PID, generation=1, category=category,
                       events=events, note=note)


def emitted_records(effects):
    return [e.record for e in effects if isinstance(e, EmitKnowledge)]


class TestAgentProduct:
    def test_empty_batch_is_identity(self):
        agent = make_agent(AgentRole.PRODUCT)
        assert handle(agent, msg(batch(n=0), "m1"), TICK) == []

    def test_batch_updates_memory_and_emits_tacit(self):
        agent = make_agent(AgentRole.PRODUCT)
        effects = handle(agent, msg(batch(n=3), "m1"), TICK)
        memory_updates = [e for e in effects if isinstance(e, UpdateMemory)]
        assert memory_updates == [UpdateMemory("events_seen", 3)]
        (record,) = emitted_records(effects)
        assert record.mode is KnowledgeMode.TACIT
        assert record.source is KnowledgeSource.SELF_SOURCE
        assert record.activity is Activity.INTELLIGENT_PRODUCT
        assert record.payload == "use steady"

    def test_service_order_is_acknowledged(self):
        agent = make_agent(AgentRole.PRODUCT)
        effects = handle(agent, msg(ServiceOrder(PID, 1, "overheat"), "m1"), TICK)
        assert effects == [UpdateMemory("service_orders_seen", 1)]

    def test_feedback_is_unhandled(self):
        with pytest.raises(UnhandledMessage):
            handle(make_agent(AgentRole.PRODUCT),
                   msg(CustomerFeedback(PID, 1, "hi")), TICK)

    def test_requires_product_binding(self):
        with pytest.raises(AgentError):
            AgentState(agent_id="x", role=AgentRole.PRODUCT, location="n1")


class TestAgentCustomer:
    def test_feedback_yields_one_explicit_collective_record(self):
        agent = make_agent(AgentRole.CUSTOMER)
        effects = handle(
            agent, msg(CustomerFeedback(PID, 1, "display too dim")), TICK)
        assert len(effects) == 1
        (record,) = emitted_records(effects)
        assert record.mode is KnowledgeMode.EXPLICIT
        assert record.source is KnowledgeSource.COLLECTIVE
        assert record.activity is Activity.CUSTOMER
        assert record.payload == "display too dim"

    def test_sensor_batch_is_unhandled(self):
        with pytest.raises(UnhandledMessage):
            handle(make_agent(AgentRole.CUSTOMER), msg(batch()), TICK)


class TestAgentService:
    def test_fault_yields_service_order_then_tacit_record(self):
        agent = make_agent(AgentRole.SERVICE)
        effects = handle(agent, msg(FaultReported(PID, 1, "overheat"), "m1"), TICK)
        assert isinstance(effects[0], SendMessage)
        assert effects[0].routing_key == KEY_SERVICE_ORDER
        assert effects[0].payload == ServiceOrder(PID, 1, "overheat")
        (record,) = emitted_records(effects)
        assert record.mode is KnowledgeMode.TACIT
        assert "service" in record.payload


class TestAgentImpact:
    def test_environment_batch_emits_impact_record(self):
        agent = make_agent(AgentRole.IMPACT)
        effects = handle(
            agent, msg(batch(category="environment", note="humid")), TICK)
        (record,) = emitted_records(effects)
        assert record.mode is KnowledgeMode.TACIT
        assert record.payload == "environment humid"

    def test_non_environment_batch_is_ignored(self):
        agent = make_agent(AgentRole.IMPACT)
        assert handle(agent, msg(batch(category="use")), TICK) == []


def design_trigger_sends(events):
    return [e for e in events if e.event_kind == "message_sent"
            and e.detail["key"] == KEY_DESIGN_TRIGGER]


class TestAgentKnowledge:
    def record(self, i=0):
        return explicit_record(f"kr-{i}", PID, 1, f"issue {i}", i)

    def test_record_message_is_inserted(self):
        agent = make_agent(AgentRole.KNOWLEDGE)
        effects = handle(agent, msg(self.record(), "m1"), TICK)
        assert effects == [EmitKnowledge(self.record())]

    def test_threshold_crossing_emits_exactly_one_trigger(self, keeper_world):
        # One record per tick; the oracle is a plain counter.
        threshold = 5
        world = keeper_world(PID, threshold)
        for i in range(12):
            world.send(KEY_KNOWLEDGE_RECORD, self.record(i), "mfg", "mfg")
            events = tick(world)
            expected = 1 if (i + 1) >= threshold else 0
            assert len(design_trigger_sends(world.events)) == expected
            if i + 1 == threshold:
                # The keeper sends it from its node, right after the insert
                # that brings the count to the threshold.
                kinds = [e.event_kind for e in events]
                assert kinds[-2:] == ["knowledge_inserted", "message_sent"]
                assert (events[-1].agent, events[-1].node) == ("ak-01", "mfg")
        assert [e.tick for e in world.events if e.event_kind == "design_trigger"] \
            == [threshold + 1]

    def test_disabled_rule_never_triggers(self, keeper_world):
        world = keeper_world(PID, 3, enabled=False)
        for i in range(8):
            world.send(KEY_KNOWLEDGE_RECORD, self.record(i), "mfg", "mfg")
            tick(world)
        assert len(world.repository) == 8
        assert design_trigger_sends(world.events) == []

    def test_two_keepers_insert_once_and_trigger_once(self, keeper_world):
        # The world keeps one repository, so the second keeper's insert of
        # the same record is a duplicate and cannot fire a second trigger.
        world = keeper_world(PID, 2)
        world.register_node(NodeKind.REPAIR_GARAGE, "garage")
        world.spawn_agent(AgentRole.KNOWLEDGE, "garage", agent_id="ak-02")
        for i in range(4):
            world.send(KEY_KNOWLEDGE_RECORD, self.record(i), "mfg", "mfg")
            tick(world)
        inserted = [e for e in world.events if e.event_kind == "knowledge_inserted"]
        assert len(inserted) == len(world.repository) == 4
        assert {e.agent for e in inserted} == {"ak-01"}
        assert [e.agent for e in design_trigger_sends(world.events)] == ["ak-01"]


class TestPurityAndClosure:
    def all_payloads(self):
        return [
            batch(n=2),
            batch(category="environment", n=1),
            batch(n=0),
            CustomerFeedback(PID, 1, "text"),
            FaultReported(PID, 1, "detail"),
            ServiceOrder(PID, 1, "detail"),
            KnowledgeRecord(
                record_id="kr-x", product_id=PID, generation=1,
                activity=Activity.CUSTOMER, mode=KnowledgeMode.EXPLICIT,
                source=KnowledgeSource.COLLECTIVE, payload="p", created_at=1,
            ),
        ]

    def test_handle_never_mutates_inputs_and_is_repeatable(self):
        for role in AgentRole:
            for payload in self.all_payloads():
                agent = make_agent(role, memory={"k": 1})
                frozen = copy.deepcopy(agent)
                try:
                    first = handle(agent, msg(payload), TICK)
                    second = handle(agent, msg(payload), TICK)
                except UnhandledMessage:
                    continue
                assert agent == frozen
                assert first == second

    def test_role_mode_closure_over_fuzz_corpus(self):
        # Customer records are explicit-only; product, impact, and service
        # records are tacit-only.
        rng = random.Random(4242)
        expected = {
            AgentRole.CUSTOMER: {KnowledgeMode.EXPLICIT},
            AgentRole.PRODUCT: {KnowledgeMode.TACIT},
            AgentRole.IMPACT: {KnowledgeMode.TACIT},
            AgentRole.SERVICE: {KnowledgeMode.TACIT},
        }
        seen = {role: set() for role in expected}
        payloads = self.all_payloads()
        for i in range(500):
            role = rng.choice(list(expected))
            payload = rng.choice(payloads)
            try:
                effects = handle(make_agent(role), msg(payload, f"m{i}"), TICK)
            except UnhandledMessage:
                continue
            for record in emitted_records(effects):
                seen[role].add(record.mode)
        for role, modes in seen.items():
            assert modes <= expected[role], role

    def test_product_identity_is_pinned(self):
        state = make_agent(AgentRole.PRODUCT)
        for effect in handle(state, msg(batch(n=2), "m1"), TICK):
            if isinstance(effect, UpdateMemory):
                state = apply_memory(state, effect.key, effect.value)
        assert state.product_id == PID


class TestPlanMigration:
    directory = frozenset({"factory", "garage", "recycler"})

    def test_next_hop_is_itinerary_head(self):
        agent = make_agent(AgentRole.PRODUCT, location="factory",
                           itinerary=("garage",))
        assert plan_migration(agent, self.directory) == RequestMigration("garage")

    def test_empty_itinerary_is_none(self):
        agent = make_agent(AgentRole.PRODUCT, location="factory")
        assert plan_migration(agent, self.directory) is None

    def test_head_equal_to_location_is_none(self):
        agent = make_agent(AgentRole.PRODUCT, location="garage",
                           itinerary=("garage",))
        assert plan_migration(agent, self.directory) is None

    def test_unknown_head_raises(self):
        agent = make_agent(AgentRole.PRODUCT, location="factory",
                           itinerary=("nowhere",))
        with pytest.raises(UnknownNode):
            plan_migration(agent, self.directory)
