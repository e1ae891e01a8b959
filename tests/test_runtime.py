import dataclasses
import itertools
import json
import os
import random
import string
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

from ploop import runtime
from ploop.agents import AgentRole
from ploop.harness import compute_report, load_scenario, run, save_scenario
from ploop.identity import ProductID, SensorEvent, mint_product_id
from ploop.knowledge import (
    Activity,
    DesignTrigger,
    KnowledgeRecord,
    KnowledgeSource,
    classify_activity,
    tacit_record,
)
from ploop.lifecycle import LifecycleEvent, LifecyclePhase
from ploop.messages import CustomerFeedback, FaultReported, SensorBatch, ServiceOrder
from ploop.runtime import (
    CATCH_ALL_TABLE,
    EVT_KNOWLEDGE_INSERTED,
    EVT_LIFECYCLE_REFUSED,
    EVT_MESSAGE_BLOCKED,
    EVT_MESSAGE_DELIVERED,
    EVT_MESSAGE_DROPPED,
    EVT_MIGRATION_COMPLETED,
    EVT_MIGRATION_REFUSED,
    EVT_MIGRATION_STARTED,
    EVT_PEID_REFUSED,
    EVT_UNHANDLED_MESSAGE,
    Action,
    AgentInFlight,
    InvalidRoutingTable,
    LatencyMap,
    LoggedEvent,
    Message,
    NodeKind,
    Partitioned,
    PartitionWindow,
    RoutingRule,
    RoutingTable,
    SimulationError,
    UnknownAgent,
    UnknownNode,
    World,
    migrate,
    route,
    tick,
)

ROOT = Path(__file__).resolve().parent.parent
PID = mint_product_id("px-1", "urn:mfg:acme")
PID2 = mint_product_id("px-2", "urn:mfg:acme")
# Payload types that speak for one product.
SCOPED = (SensorBatch, ServiceOrder, CustomerFeedback, FaultReported)


def make_message(key, payload=None, msg_id="m000001", deliver_at=1):
    return Message(
        msg_id=msg_id,
        routing_key=key,
        payload=payload or CustomerFeedback(PID, 1, "x"),
        deliver_at=deliver_at,
        origin_node="n1",
    )


def oracle_route(key, rules, directory):
    # Naive scan-all-rules-take-first reference.
    for pattern, recipients in rules:
        if pattern == "*" or (pattern.endswith("*") and key.startswith(pattern[:-1])) \
                or key == pattern:
            out = set()
            for selector in recipients:
                roles = {r.value for r in AgentRole}
                if selector in roles:
                    out |= {aid for aid, role in directory.items()
                            if role.value == selector}
                elif selector in directory:
                    out.add(selector)
            return sorted(out)
    raise AssertionError("no catch-all")


def oracle_bound_route(key, rules, directory, bindings, product):
    # Naive reference with product binding: the first matching rule's role
    # selectors, keeping only the AgentProduct bound to ``product`` (all of
    # them when ``product`` is None).
    for pattern, recipients in rules:
        if pattern == "*" or (pattern.endswith("*") and key.startswith(pattern[:-1])) \
                or key == pattern:
            out = set()
            for selector in recipients:
                if selector in directory:
                    out.add(selector)
                for aid, role in directory.items():
                    if role.value == selector and (
                            role is not AgentRole.PRODUCT or product is None
                            or bindings[aid] == product):
                        out.add(aid)
            return sorted(out)
    raise AssertionError("no catch-all")


def resolve(message, table, directory, bindings=None):
    """route() over the role and product indexes of ``directory``, whose
    AgentProducts are bound to products by ``bindings`` (agent -> product)."""
    by_role = {}
    for aid, role in directory.items():
        by_role.setdefault(role, set()).add(aid)
    by_product = {product: aid for aid, product in (bindings or {}).items()}
    return route(message, table, directory, by_role, by_product)


def random_rules(rng, selectors):
    """A random first-match rule list ending in the catch-all."""
    roles = [r.value for r in AgentRole]
    rules = []
    for _ in range(rng.randint(0, 19)):
        stem = "".join(rng.choices(string.ascii_lowercase, k=3))
        pattern = stem + rng.choice(["", ".x", ".*", "*"])
        if pattern == "*" or "*" in pattern[:-1]:
            pattern = stem
        rules.append((pattern, tuple(rng.choice(selectors) for _ in range(rng.randint(0, 3)))))
    rules.append(("*", tuple(rng.sample(roles, rng.randint(0, 2)))))
    return rules


def random_key(rng):
    return ".".join("".join(rng.choices(string.ascii_lowercase, k=3))
                    for _ in range(rng.randint(1, 3)))


class TestRegisterNode:
    def test_explicit_duplicate_id_rejected(self):
        world = World()
        world.register_node(NodeKind.MANUFACTURER, "hub")
        with pytest.raises(SimulationError):
            world.register_node(NodeKind.MANUFACTURER, "hub")


class TestRoutingTable:
    def test_catch_all_required(self):
        with pytest.raises(InvalidRoutingTable):
            RoutingTable(rules=(RoutingRule("sensor.*", ()),))

    def test_catch_all_must_be_terminal(self):
        with pytest.raises(InvalidRoutingTable):
            RoutingTable(rules=(RoutingRule("*", ()), RoutingRule("x", ()),
                                RoutingRule("*", ())))

    def test_infix_wildcard_rejected(self):
        with pytest.raises(InvalidRoutingTable):
            RoutingTable(rules=(RoutingRule("a*b", ()), RoutingRule("*", ())))

    def test_single_match_resolves_role(self):
        table = RoutingTable(rules=(
            RoutingRule("sensor.*", ("AgentProduct",)),
            RoutingRule("*", ()),
        ))
        directory = {"ap-01": AgentRole.PRODUCT, "ac-01": AgentRole.CUSTOMER}
        assert resolve(make_message("sensor.temp"), table, directory,
                       {"ap-01": PID}) == ["ap-01"]

    def test_unmatched_key_hits_catch_all_and_drops(self):
        directory = {"ap-01": AgentRole.PRODUCT}
        assert resolve(make_message("unknown.x"), CATCH_ALL_TABLE, directory) == []

    def test_unknown_selector_resolves_to_empty(self):
        table = RoutingTable(rules=(RoutingRule("k", ("ghost-99",)),
                                    RoutingRule("*", ())))
        assert resolve(make_message("k"), table, {"ap-01": AgentRole.PRODUCT}) == []

    def test_result_is_ascending_and_deduplicated(self):
        table = RoutingTable(rules=(
            RoutingRule("k", ("AgentProduct", "ap-02", "ap-01")),
            RoutingRule("*", ()),
        ))
        directory = {"ap-02": AgentRole.PRODUCT, "ap-01": AgentRole.PRODUCT}
        bindings = {"ap-01": PID, "ap-02": PID2}
        assert resolve(make_message("k"), table, directory, bindings) == ["ap-01", "ap-02"]

    def test_product_payload_reaches_only_its_products_agent(self):
        table = RoutingTable(rules=(RoutingRule("k", ("AgentProduct",)),
                                    RoutingRule("*", ())))
        directory = {"ap-01": AgentRole.PRODUCT, "ap-02": AgentRole.PRODUCT}
        bindings = {"ap-01": PID, "ap-02": PID2}
        for payload in (SensorBatch(PID2, 1, "use", ()), ServiceOrder(PID2, 1, "x"),
                        CustomerFeedback(PID2, 1, "x"), FaultReported(PID2, 1, "x")):
            assert resolve(make_message("k", payload), table, directory, bindings) \
                == ["ap-02"]
        # Unbound product: nothing; a payload about no one product: every one.
        assert resolve(make_message("k"), table, {"ap-02": AgentRole.PRODUCT},
                       {"ap-02": PID2}) == []
        trigger = DesignTrigger(PID.render(), 1, 2)
        assert resolve(make_message("k", trigger), table, directory, bindings) \
            == ["ap-01", "ap-02"]

    def test_randomized_tables_match_first_match_oracle(self):
        # Payloads about no one product resolve role-wide.
        rng = random.Random(616)
        roles = [r.value for r in AgentRole]
        trigger = DesignTrigger(PID.render(), 1, 2)
        for _ in range(200):
            directory = {
                f"a{i:02d}": AgentRole(rng.choice(roles))
                for i in range(rng.randint(0, 12))
            }
            rules = random_rules(rng, roles + list(directory) + ["ghost"])
            table = RoutingTable(rules=tuple(RoutingRule(p, r) for p, r in rules))
            for _ in range(50):
                key = random_key(rng)
                message = make_message(key, trigger)
                assert resolve(message, table, directory) \
                    == oracle_route(key, rules, directory)

    def test_randomized_product_bindings_match_filtering_oracle(self):
        rng = random.Random(2011)
        roles = [r.value for r in AgentRole]
        products = [mint_product_id(f"px-{i}", "urn:mfg:acme") for i in range(16)]
        scoped = 0
        for _ in range(200):
            directory, bindings = {}, {}
            free = rng.sample(products, len(products))
            for i in range(rng.randint(0, 12)):
                aid = f"a{i:02d}"
                directory[aid] = AgentRole(rng.choice(roles))
                if directory[aid] is AgentRole.PRODUCT:
                    bindings[aid] = free.pop()
            rules = random_rules(rng, roles + list(directory) + ["ghost"])
            table = RoutingTable(rules=tuple(RoutingRule(p, r) for p, r in rules))
            for _ in range(50):
                key = random_key(rng)
                product = rng.choice(products)
                payload = rng.choice([
                    SensorBatch(product, 1, "use", ()),
                    ServiceOrder(product, 1, "x"),
                    CustomerFeedback(product, 1, "x"),
                    FaultReported(product, 1, "x"),
                    tacit_record("kr-1", product, 1, "use", "x", 0),
                    DesignTrigger(product.render(), 1, 2),
                ])
                bound = payload.product_id if isinstance(payload, SCOPED) else None
                scoped += bound is not None
                assert resolve(make_message(key, payload), table, directory, bindings) \
                    == oracle_bound_route(key, rules, directory, bindings, bound)
        assert scoped > 5000

    def test_remembered_rules_match_first_match_oracle(self):
        # A table remembers the rule it found for each key: every lookup,
        # first or repeated and in any order, must still resolve as the
        # rule-by-rule scan does, and what a table has looked up must never
        # show in its equality, hash, repr or asdict.
        rng = random.Random(1020)
        roles = [r.value for r in AgentRole]
        trigger = DesignTrigger(PID.render(), 1, 2)
        for _ in range(300):
            directory = {
                f"a{i:02d}": AgentRole(rng.choice(roles))
                for i in range(rng.randint(0, 12))
            }
            rules = random_rules(rng, roles + list(directory) + ["ghost"])
            table = RoutingTable(rules=tuple(RoutingRule(p, r) for p, r in rules))
            twin = RoutingTable(rules=tuple(RoutingRule(p, r) for p, r in rules))
            # Random keys, and one that each rule's pattern matches.
            keys = [random_key(rng) for _ in range(6)] + [p.rstrip("*") for p, _ in rules]
            lookups = keys * rng.randint(2, 4)
            rng.shuffle(lookups)
            first = {}
            for key in lookups:
                assert resolve(make_message(key, trigger), table, directory) \
                    == oracle_route(key, rules, directory)
                assert table.first_match(key) is first.setdefault(key, table.first_match(key))
            for key in rng.sample(keys, rng.randint(0, len(keys))):
                twin.first_match(key)
            assert table == twin
            assert hash(table) == hash(twin)
            assert repr(table) == repr(twin)
            assert dataclasses.asdict(table) == dataclasses.asdict(twin)
            assert [f.name for f in dataclasses.fields(table)] == ["rules"]

    @pytest.mark.parametrize("path", sorted((ROOT / "fixtures").glob("*.scn")),
                             ids=lambda p: p.stem)
    def test_run_leaves_the_saved_scenario_unchanged(self, tmp_path, path):
        scenario = load_scenario(path)
        save_scenario(scenario, tmp_path / "before.scn")
        run(scenario)
        save_scenario(scenario, tmp_path / "after.scn")
        assert (tmp_path / "after.scn").read_bytes() == (tmp_path / "before.scn").read_bytes()


class TestMigration:
    def build(self, latency=2):
        world = World(latency=LatencyMap(default=latency))
        world.register_node(NodeKind.MANUFACTURER, "n1")
        world.register_node(NodeKind.REPAIR_GARAGE, "n2")
        world.spawn_agent(AgentRole.SERVICE, "n1", agent_id="a-01")
        return world

    def test_three_step_protocol_with_latency(self):
        world = self.build(latency=2)
        migrate(world, "a-01", "n2")
        assert world.census() == {"a-01": "in_flight"}
        tick(world)   # clock 1: still in flight
        assert "a-01" in world.in_flight
        tick(world)   # clock 2: arrival
        assert world.census() == {"a-01": "node:n2"}
        assert world.agents["a-01"].location == "n2"
        assert "a-01" not in world.in_flight

    def test_partitioned_migration_fails_closed(self):
        world = World(
            latency=LatencyMap(default=1),
            partitions=(PartitionWindow("n1", "n2", 0, 10),),
        )
        world.register_node(NodeKind.MANUFACTURER, "n1")
        world.register_node(NodeKind.REPAIR_GARAGE, "n2")
        world.spawn_agent(AgentRole.SERVICE, "n1", agent_id="a-01")
        with pytest.raises(Partitioned):
            migrate(world, "a-01", "n2")
        assert world.census() == {"a-01": "node:n1"}
        assert not world.in_flight

    def test_unknown_agent_and_node(self):
        world = self.build()
        with pytest.raises(UnknownAgent):
            migrate(world, "ghost", "n2")
        with pytest.raises(UnknownNode):
            migrate(world, "a-01", "n99")

    def test_in_flight_agent_cannot_be_remigrated(self):
        world = self.build(latency=3)
        migrate(world, "a-01", "n2")
        with pytest.raises(AgentInFlight):
            migrate(world, "a-01", "n2")

    def test_census_conservation_under_random_operations(self):
        rng = random.Random(9090)
        world = World(latency=LatencyMap(default=2))
        nodes = [world.register_node(NodeKind.CUSTOMER_SITE, f"node-{i:04d}")
                 for i in range(1, 7)]
        spawned = 0
        for _ in range(10):
            spawned += 1
            world.spawn_agent(AgentRole.SERVICE, rng.choice(nodes), agent_id=f"agent-{spawned:04d}")
        for step in range(3000):
            op = rng.random()
            if op < 0.15 and spawned < 60:
                spawned += 1
                world.spawn_agent(AgentRole.SERVICE, rng.choice(nodes),
                                  agent_id=f"agent-{spawned:04d}")
            elif op < 0.7:
                agent_id = rng.choice(sorted(world.agents))
                try:
                    migrate(world, agent_id, rng.choice(nodes))
                except (AgentInFlight, Partitioned):
                    pass
            else:
                tick(world)
            placement = world.census()
            assert len(placement) == spawned
            assert set(placement) == set(world.agents)

    def test_indexes_match_recomputation_under_random_operations(self):
        rng = random.Random(4711)
        names = [f"n{i}" for i in range(5)]
        windows = tuple(
            PartitionWindow(rng.choice(names), rng.choice(names), start,
                            start + rng.randint(0, 8))
            for start in (rng.randint(0, 150) for _ in range(40))
        )
        pairs = {(a, b): rng.randint(1, 4) for a in names for b in names if a < b}
        world = World(latency=LatencyMap(default=2, pairs=pairs), partitions=windows)
        for name in names:
            world.register_node(NodeKind.CUSTOMER_SITE, name)
        roles = list(AgentRole)
        products = [mint_product_id(f"px-{i}", "urn:mfg:acme") for i in range(30)]
        ids = (f"agent-{n:04d}" for n in itertools.count(1))
        refused = 0

        def spawn():
            nonlocal refused
            role, product, agent_id = rng.choice(roles), rng.choice(products), next(ids)
            itinerary = tuple(rng.choice(names) for _ in range(rng.randint(0, 5)))
            taken = {a.product_id for a in world.agents.values() if a.role is AgentRole.PRODUCT}
            if role is AgentRole.PRODUCT and product in taken:
                # One AgentProduct per product, resident or in flight.
                before = dict(world.agents)
                with pytest.raises(SimulationError):
                    world.spawn_agent(role, rng.choice(names), product_id=product,
                                      agent_id=agent_id)
                assert world.agents == before
                refused += 1
                return
            world.spawn_agent(role, rng.choice(names), product_id=product, itinerary=itinerary,
                              agent_id=agent_id)

        def check():
            residents = {aid: agent.role for aid, agent in world.agents.items()
                         if aid not in world.in_flight}
            assert world.resident_directory() == residents
            assert world._by_role == {
                role: {aid for aid, r in residents.items() if r is role} for role in roles}
            assert world._by_product == {
                agent.product_id: aid for aid, agent in world.agents.items()
                if agent.role is AgentRole.PRODUCT}
            assert world._travellers == {aid for aid in residents
                                         if world.agents[aid].itinerary}
            # Heads are dropped where a location is set, at spawn and arrival.
            for aid in residents:
                agent = world.agents[aid]
                assert agent.itinerary[:1] != (agent.location,)
            for a in names:
                for b in names:
                    assert world.severed(a, b) == any(
                        w.covers(a, b, world.clock) for w in windows)

        for _ in range(8):
            spawn()
        for _ in range(1500):
            op = rng.random()
            if op < 0.1 and len(world.agents) < 50:
                spawn()
            elif op < 0.5:
                try:
                    migrate(world, rng.choice(sorted(world.agents)), rng.choice(names))
                except (AgentInFlight, Partitioned):
                    pass
            else:
                tick(world)
            check()
        assert world.clock > 150
        assert refused > 0

    def test_one_agent_product_per_product(self):
        world = self.build(latency=3)
        world.spawn_agent(AgentRole.PRODUCT, "n1", product_id=PID, agent_id="ap-01")
        migrate(world, "ap-01", "n2")
        for home in ("n1", "n2"):
            with pytest.raises(SimulationError, match="'ap-02'.*'ap-01'"):
                world.spawn_agent(AgentRole.PRODUCT, home, product_id=PID, agent_id="ap-02")
            tick(world)
        assert "ap-02" not in world.agents
        world.spawn_agent(AgentRole.PRODUCT, "n1", product_id=PID2, agent_id="ap-02")
        world.spawn_agent(AgentRole.SERVICE, "n1", product_id=PID, agent_id="as-02")

    def test_spawn_drops_itinerary_heads_at_home(self):
        world = self.build()
        world.spawn_agent(AgentRole.IMPACT, "n1", agent_id="i-01",
                          itinerary=("n1", "n1", "n2"))
        world.spawn_agent(AgentRole.IMPACT, "n1", agent_id="i-02", itinerary=("n1",))
        assert world.agents["i-01"].itinerary == ("n2",)
        assert world.agents["i-02"].itinerary == ()
        assert world._travellers == {"i-01"}

    def test_unregistered_itinerary_stop_spawns_nothing(self):
        world = self.build()
        logged = len(world.events)
        with pytest.raises(UnknownNode, match="'n99'"):
            world.spawn_agent(AgentRole.IMPACT, "n1", agent_id="i-01",
                              itinerary=("n2", "n99"))
        assert "i-01" not in world.agents
        assert world.resident_directory() == {"a-01": AgentRole.SERVICE}
        assert world._by_role[AgentRole.IMPACT] == set()
        assert world.census() == {"a-01": "node:n1"}
        assert not world._travellers
        assert len(world.events) == logged

    def test_resident_directory_is_a_copy(self):
        world = World()
        world.register_node(NodeKind.CUSTOMER_SITE, "n1")
        world.spawn_agent(AgentRole.SERVICE, "n1", agent_id="a-01")
        world.resident_directory().clear()
        assert world.resident_directory() == {"a-01": AgentRole.SERVICE}


def _plan_migration_calls(monkeypatch, parked):
    """plan_migration calls over 200 ticks with `parked` agents that have no
    itinerary beside one agent roaming four nodes."""
    calls = 0
    plan = runtime.plan_migration

    def counted(agent):
        nonlocal calls
        calls += 1
        return plan(agent)

    def unexpected(self):
        raise AssertionError("tick() rebuilt the resident directory")

    monkeypatch.setattr(runtime, "plan_migration", counted)
    monkeypatch.setattr(World, "resident_directory", unexpected)
    world = World()
    nodes = [world.register_node(NodeKind.CUSTOMER_SITE, f"n{i}") for i in range(4)]
    for i in range(parked):
        world.spawn_agent(AgentRole.IMPACT, nodes[i % 4], agent_id=f"agent-{i + 1:04d}")
    world.spawn_agent(AgentRole.IMPACT, "n0", agent_id="roamer",
                      itinerary=tuple(nodes[i % 4] for i in range(1, 150)))
    for _ in range(200):
        tick(world)
    assert world.agents["roamer"].itinerary == ()
    return calls


def _retire_at(tick_):
    return lambda world: world.schedule_action(
        tick_, Action(LifecycleEvent.RETIREMENT_REQUESTED, PID.render()))


# Each case: a call on a world at clock 1 with node n1, product PID at n1
# and agent a-01 at n1; the error it raises; and a pattern of its message.
WORLD_GUARDS = {
    "duplicate product": (
        lambda world: world.register_product(PID, 1, LifecyclePhase.EOL_USE),
        SimulationError, "product already registered: 'px-1@urn:mfg:acme'"),
    "product on an unknown node": (
        lambda world: world.register_product(PID2, 1, LifecyclePhase.EOL_USE, node="n99"),
        UnknownNode, "product node 'n99'"),
    "unknown home": (lambda world: world.spawn_agent(AgentRole.SERVICE, "n99", agent_id="a-02"),
                     UnknownNode, "home node 'n99'"),
    "duplicate agent id": (
        lambda world: world.spawn_agent(AgentRole.SERVICE, "n1", agent_id="a-01"),
        SimulationError, "agent id already registered: 'a-01'"),
    "action at the clock": (_retire_at(1), SimulationError, "at tick 1 not after clock 1"),
    "action before the clock": (_retire_at(0), SimulationError,
                                "at tick 0 not after clock 1"),
}


@pytest.mark.parametrize("case", sorted(WORLD_GUARDS))
def test_world_guard_raises_and_changes_nothing(case):
    call, error, message = WORLD_GUARDS[case]
    world = World()
    world.register_node(NodeKind.MANUFACTURER, "n1")
    world.register_product(PID, 1, LifecyclePhase.EOL_USE, node="n1")
    world.spawn_agent(AgentRole.SERVICE, "n1", agent_id="a-01")
    tick(world)
    logged = len(world.events)
    with pytest.raises(error, match=message):
        call(world)
    assert len(world.events) == logged
    assert list(world.products) == [PID.render()] and list(world.agents) == ["a-01"]
    assert not world._actions


def test_idle_agents_cost_no_planning(monkeypatch):
    few = _plan_migration_calls(monkeypatch, 10)
    many = _plan_migration_calls(monkeypatch, 1000)
    assert few == many == 149


class TestTick:
    def test_empty_world_advances_clock_without_events(self):
        world = World()
        events = tick(world)
        assert world.clock == 1
        assert events == []

    def test_clock_never_decreases(self):
        world = World()
        ticks = [world.clock]
        for _ in range(5):
            tick(world)
            ticks.append(world.clock)
        assert ticks == sorted(ticks)

    def test_three_queued_messages_deliver_in_msg_id_order(self):
        world = World(routing=RoutingTable(rules=(
            RoutingRule("feedback.customer", ("AgentCustomer",)),
            RoutingRule("*", ()),
        )))
        world.register_node(NodeKind.CUSTOMER_SITE, "n1")
        world.spawn_agent(AgentRole.CUSTOMER, "n1", agent_id="ac-01")
        payload = CustomerFeedback(PID, 1, "x")
        sent = [
            world.send("feedback.customer", payload, "n1", "n1", deliver_at=1)
            for _ in range(3)
        ]
        # Sort-based oracle over the pending queue.
        expected = [m.msg_id for m in sorted(sent, key=lambda m: (m.deliver_at, m.msg_id))]
        events = tick(world)
        delivered = [e.msg_id for e in events if e.event_kind == EVT_MESSAGE_DELIVERED]
        assert delivered == expected == ["m000001", "m000002", "m000003"]

    def test_inbox_is_fifo_per_sender(self):
        world = World(routing=RoutingTable(rules=(
            RoutingRule("feedback.customer", ("AgentCustomer",)),
            RoutingRule("*", ()),
        )))
        world.register_node(NodeKind.CUSTOMER_SITE, "n1")
        world.spawn_agent(AgentRole.CUSTOMER, "n1", agent_id="ac-01")
        payload = CustomerFeedback(PID, 1, "x")
        order = {}
        for i in range(6):
            sender = f"s{i % 2}"
            message = world.send("feedback.customer", payload, sender, "n1",
                                 deliver_at=1 + i // 2)
            order.setdefault(sender, []).append(message.msg_id)
        for _ in range(4):
            tick(world)
        # Per-sender order as the log shows it: message_sent names the
        # sender, message_delivered the order of arrival.
        sender_of = {e.msg_id: e.agent for e in world.events if e.event_kind == "message_sent"}
        delivered = [e.msg_id for e in world.events if e.event_kind == EVT_MESSAGE_DELIVERED]
        assert len(delivered) == 6
        for sender, ids in order.items():
            assert [m for m in delivered if sender_of[m] == sender] == ids

    def test_send_refuses_delivery_before_the_clock(self):
        world = World()
        world.register_node(NodeKind.CUSTOMER_SITE, "n1")
        for _ in range(5):
            tick(world)
        logged = len(world.events)
        with pytest.raises(SimulationError):
            world.send("k", CustomerFeedback(PID, 1, "x"), "t", "n1", deliver_at=4)
        assert len(world.events) == logged and world._pending == []
        assert world.send("k", CustomerFeedback(PID, 1, "x"), "t", "n1",
                          deliver_at=5).deliver_at == 5

    def test_sent_message_equals_one_built_by_keyword(self):
        world = World()
        world.register_node(NodeKind.CUSTOMER_SITE, "n1")
        tick(world)
        payload = CustomerFeedback(PID, 1, "x")
        message = world.send("k", payload, "t", "n1")
        assert type(message) is Message
        assert Message._fields == ("msg_id", "routing_key", "payload", "deliver_at",
                                   "origin_node")
        assert message == Message(msg_id="m000001", routing_key="k", payload=payload,
                                  deliver_at=2, origin_node="n1")

    def test_message_ids_widen_past_six_digits(self):
        world = World()
        world.register_node(NodeKind.CUSTOMER_SITE, "n1")
        world._msg_seq = 999_998
        sent = [world.send("k", CustomerFeedback(PID, 1, "x"), "t", "n1").msg_id
                for _ in range(2)]
        assert sent == [f"m{seq:06d}" for seq in (999_999, 1_000_000)]
        assert sent == ["m999999", "m1000000"]
        assert [e.msg_id for e in world.events if e.event_kind == "message_sent"] == sent

    def test_partitioned_delivery_is_blocked_and_logged(self):
        world = World(
            routing=RoutingTable(rules=(
                RoutingRule("feedback.customer", ("AgentCustomer",)),
                RoutingRule("*", ()),
            )),
            partitions=(PartitionWindow("n1", "n2", 0, 10),),
        )
        world.register_node(NodeKind.CUSTOMER_SITE, "n1")
        world.register_node(NodeKind.MANUFACTURER, "n2")
        world.spawn_agent(AgentRole.CUSTOMER, "n2", agent_id="ac-01")
        world.send("feedback.customer", CustomerFeedback(PID, 1, "x"), "n1", "n1",
                   deliver_at=1)
        events = tick(world)
        kinds = [e.event_kind for e in events]
        assert EVT_MESSAGE_BLOCKED in kinds
        assert EVT_MESSAGE_DELIVERED not in kinds

    def test_held_arrival_lands_after_partition_heals(self):
        world = World(
            latency=LatencyMap(default=2),
            partitions=(PartitionWindow("n1", "n2", 2, 4),),
        )
        world.register_node(NodeKind.MANUFACTURER, "n1")
        world.register_node(NodeKind.REPAIR_GARAGE, "n2")
        world.spawn_agent(AgentRole.SERVICE, "n1", agent_id="a-01")
        migrate(world, "a-01", "n2")   # arrive_at 2, inside the window
        arrival_ticks = []
        for _ in range(6):
            for event in tick(world):
                if event.event_kind == EVT_MIGRATION_COMPLETED:
                    arrival_ticks.append(event.tick)
        assert arrival_ticks == [5]
        assert world.agents["a-01"].location == "n2"

    @pytest.mark.parametrize("order", list(itertools.permutations(("a-03", "a-01", "a-02"))))
    def test_same_tick_arrivals_land_in_agent_id_order(self, order):
        world = World(latency=LatencyMap(default=2))
        world.register_node(NodeKind.MANUFACTURER, "n1")
        world.register_node(NodeKind.REPAIR_GARAGE, "n2")
        for agent_id in ("a-02", "a-03", "a-01"):
            world.spawn_agent(AgentRole.SERVICE, "n1", agent_id=agent_id)
        for agent_id in order:
            migrate(world, agent_id, "n2")
        assert tick(world) == []
        landed = [(e.tick, e.agent) for e in tick(world)
                  if e.event_kind == EVT_MIGRATION_COMPLETED]
        assert landed == [(2, "a-01"), (2, "a-02"), (2, "a-03")]

    def test_landing_changes_only_location_and_itinerary(self):
        world = World()
        for kind, node in ((NodeKind.MANUFACTURER, "n1"), (NodeKind.REPAIR_GARAGE, "n2"),
                           (NodeKind.CUSTOMER_SITE, "n3")):
            world.register_node(kind, node)
        world.spawn_agent(AgentRole.PRODUCT, "n1", product_id=PID, agent_id="ap-01",
                          itinerary=("n2", "n2", "n3"))
        before = world.agents["ap-01"]
        tick(world)   # leaves for n2
        assert [e.event_kind for e in tick(world)][0] == EVT_MIGRATION_COMPLETED
        assert world.agents["ap-01"] == dataclasses.replace(before, location="n2",
                                                            itinerary=("n3",))

    def test_held_arrivals_land_by_arrival_tick_then_agent_id(self):
        # n1-n2 and n1-n4 are severed for ticks 1..3. a-09 is due at 1 and
        # a-04 at 2, both held; a-01 and a-02 are due at 4 on an open pair.
        world = World(
            latency=LatencyMap(default=1, pairs={("n1", "n3"): 4, ("n1", "n4"): 2}),
            partitions=(PartitionWindow("n1", "n2", 1, 3), PartitionWindow("n4", "n1", 1, 3)),
        )
        for kind, node in ((NodeKind.MANUFACTURER, "n1"), (NodeKind.REPAIR_GARAGE, "n2"),
                           (NodeKind.CUSTOMER_SITE, "n3"), (NodeKind.PRODUCT_EMBEDDED, "n4")):
            world.register_node(kind, node)
        targets = {"a-02": "n3", "a-01": "n3", "a-09": "n2", "a-04": "n4"}
        for agent_id, target in targets.items():
            world.spawn_agent(AgentRole.SERVICE, "n1", agent_id=agent_id)
            migrate(world, agent_id, target)
        landed = [(e.tick, e.agent, e.node) for _ in range(5) for e in tick(world)
                  if e.event_kind == EVT_MIGRATION_COMPLETED]
        assert landed == [(4, "a-09", "n2"), (4, "a-04", "n4"),
                          (4, "a-01", "n3"), (4, "a-02", "n3")]
        assert not world.in_flight

    def test_severed_at_both_inclusive_edges_of_each_window(self):
        world = World(partitions=(PartitionWindow("n2", "n1", 9, 12),
                                  PartitionWindow("n1", "n2", 3, 5)))
        inside = {*range(3, 6), *range(9, 13)}
        # From one tick before the first window to one tick after the second.
        for clock in range(2, 14):
            world.clock = clock
            assert world.severed("n1", "n2") is (clock in inside), clock
            assert world.severed("n2", "n1") is (clock in inside), clock
            assert not world.severed("n1", "n3")

    def test_itinerary_refusal_is_logged_and_retried(self):
        world = World(partitions=(PartitionWindow("n1", "n2", 1, 2),))
        world.register_node(NodeKind.MANUFACTURER, "n1")
        world.register_node(NodeKind.REPAIR_GARAGE, "n2")
        world.spawn_agent(AgentRole.SERVICE, "n1", agent_id="a-01",
                          itinerary=("n2",))
        refused = completed = 0
        for _ in range(5):
            for event in tick(world):
                refused += event.event_kind == EVT_MIGRATION_REFUSED
                completed += event.event_kind == EVT_MIGRATION_COMPLETED
        assert refused == 2
        assert completed == 1
        assert world.agents["a-01"].location == "n2"
        assert world.agents["a-01"].itinerary == ()


# -- partition and latency oracles ----------------------------------------------

FIXTURES = sorted(ROOT.glob("fixtures/*.scn"))

W = PartitionWindow
WINDOW_CASES = {
    "adjacent": (W("n1", "n2", 3, 5), W("n1", "n2", 6, 8), W("n1", "n2", 9, 9)),
    "nested": (W("n1", "n2", 2, 20), W("n1", "n2", 5, 7), W("n1", "n2", 2, 20)),
    "duplicated": (W("n1", "n2", 4, 6), W("n1", "n2", 4, 6), W("n1", "n2", 4, 6)),
    "single_tick": (W("n1", "n2", 0, 0), W("n1", "n2", 5, 5), W("n1", "n2", 7, 7)),
    "both_orders": (W("n2", "n1", 9, 12), W("n1", "n2", 3, 5), W("n2", "n1", 5, 9)),
    "overlapping": (W("n1", "n2", 8, 14), W("n2", "n1", 3, 9), W("n1", "n2", 16, 16)),
    "gap_of_one": (W("n1", "n2", 3, 5), W("n2", "n1", 7, 9)),
    "covers_no_tick": (W("n1", "n2", 6, 4), W("n1", "n2", 8, 8)),
    "same_node": (W("n1", "n1", 2, 4), W("n1", "n2", 3, 3)),
    "several_pairs": (W("n1", "n2", 2, 4), W("n3", "n2", 3, 6), W("n1", "n3", 5, 5)),
}


def assert_severed_matches_windows(windows, nodes=("n1", "n2", "n3")):
    """Every pair in both orders, at every clock from two ticks before the
    first window to two after the last, against the windows themselves."""
    world = World(partitions=windows)
    ticks = [t for w in windows for t in (w.from_tick, w.to_tick)]
    for clock in range(min(ticks) - 2, max(ticks) + 3):
        world.clock = clock
        for a in nodes:
            for b in nodes:
                expected = any(w.covers(a, b, clock) for w in windows)
                assert world.severed(a, b) is expected, (a, b, clock)


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_severed_matches_window_oracle(case):
    assert_severed_matches_windows(WINDOW_CASES[case])


def test_severed_matches_window_oracle_on_random_windows():
    rng = random.Random(1907)
    nodes = ("n1", "n2", "n3", "n4")
    for _ in range(300):
        windows = []
        for _ in range(rng.randint(1, 12)):
            start = rng.randint(0, 30)
            windows.append(W(rng.choice(nodes), rng.choice(nodes), start,
                             start + rng.randint(-1, 6)))
        assert_severed_matches_windows(tuple(windows), nodes)


def assert_hops_arrive_after_latency(events, latency):
    """Every migration_started line is due its tick plus the pair's latency."""
    started = [e for e in events if e.event_kind == EVT_MIGRATION_STARTED]
    for e in started:
        assert e.detail["arrive_at"] == e.tick + latency.get(e.node, e.detail["target"]), e
    return len(started)


def test_hop_latency_is_read_as_the_latency_map_reads_it():
    # As in LatencyMap.get, only a sorted key names a pair: (n3, n1) is never found.
    latency = LatencyMap(default=2, pairs={("n1", "n2"): 5, ("n3", "n1"): 7})
    world = World(latency=latency)
    for node in ("n1", "n2", "n3"):
        world.register_node(NodeKind.CUSTOMER_SITE, node)
    for agent_id, home in (("a-1", "n1"), ("a-2", "n2"), ("a-3", "n1"), ("a-4", "n3")):
        world.spawn_agent(AgentRole.SERVICE, home, agent_id=agent_id)
    for agent_id, target in (("a-1", "n2"), ("a-2", "n1"), ("a-3", "n3"), ("a-4", "n1")):
        migrate(world, agent_id, target)
    assert {aid: t.arrive_at for aid, t in world.in_flight.items()} == {
        "a-1": 5, "a-2": 5, "a-3": 2, "a-4": 2}
    assert assert_hops_arrive_after_latency(world.events, latency) == 4


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_hops_arrive_after_latency(path):
    scenario = load_scenario(path)
    assert_hops_arrive_after_latency(run(scenario).world.events, scenario.latency)


def test_random_operation_hops_arrive_after_latency(monkeypatch):
    """The random operations of the index test, each hop checked against
    the LatencyMap its World was built from."""
    built = []

    class RecordingWorld(World):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self, kwargs["latency"]))

    monkeypatch.setitem(globals(), "World", RecordingWorld)
    TestMigration().test_indexes_match_recomputation_under_random_operations()
    ((world, latency),) = built
    assert assert_hops_arrive_after_latency(world.events, latency) > 100


@pytest.mark.parametrize("name, severed_calls", [("migration", 6), ("partition", 17)])
def test_traced_hop_call_sites_are_called(monkeypatch, name, severed_calls):
    """perfbench times runtime.migrate and World.severed by wrapping them
    where the engine looks them up; every hop must still go through both."""
    calls = {"migrate": 0, "severed": 0}
    migrate_, severed_ = runtime.migrate, runtime.World.severed

    def counting_migrate(*args, **kwargs):
        calls["migrate"] += 1
        return migrate_(*args, **kwargs)

    def counting_severed(*args, **kwargs):
        calls["severed"] += 1
        return severed_(*args, **kwargs)

    monkeypatch.setattr(runtime, "migrate", counting_migrate)
    monkeypatch.setattr(runtime.World, "severed", counting_severed)
    events = run(load_scenario(ROOT / "fixtures" / f"{name}.scn")).world.events
    kinds = [e.event_kind for e in events]
    assert calls["migrate"] == (kinds.count(EVT_MIGRATION_STARTED)
                                + kinds.count(EVT_MIGRATION_REFUSED)) > 0
    assert calls["severed"] == severed_calls


class TestWorldRules:
    def test_design_trigger_starts_next_generation(self):
        world = World()
        world.register_node(NodeKind.MANUFACTURER, "mfg")
        world.register_product(PID, 1, LifecyclePhase.EOL_USE, node="mfg")
        trigger = DesignTrigger(PID.render(), 1, 2)
        world.send("design.trigger", trigger, "mfg", "mfg", deliver_at=1)
        for _ in range(1 + world.params.design_ticks + world.params.manufacture_ticks):
            tick(world)
        new_key = f"px-1-g2@{PID.uri}"
        assert new_key in world.products
        assert world.products[new_key].phase is LifecyclePhase.MOL_DISTRIBUTION
        assert world.products[new_key].generation == 2
        assert world.products[new_key].family == PID.render()

    def test_duplicate_trigger_is_idempotent(self):
        world = World()
        world.register_node(NodeKind.MANUFACTURER, "mfg")
        world.register_product(PID, 1, LifecyclePhase.EOL_USE, node="mfg")
        trigger = DesignTrigger(PID.render(), 1, 2)
        world.send("design.trigger", trigger, "mfg", "mfg", deliver_at=1)
        world.send("design.trigger", trigger, "mfg", "mfg", deliver_at=2)
        for _ in range(10):
            tick(world)
        started = [e for e in world.events if e.event_kind == "generation_started"]
        assert len(started) == 1

    def test_backwards_batch_is_refused_whole(self):
        world = World()
        world.register_node(NodeKind.CUSTOMER_SITE, "site")
        product = world.register_product(PID, 1, LifecyclePhase.EOL_USE, node="site")
        ordered = (SensorEvent("temp", 20.0, "C", 5), SensorEvent("temp", 21.0, "C", 6))
        backwards = (SensorEvent("temp", 22.0, "C", 7), SensorEvent("temp", 23.0, "C", 3))
        world.send("sensor.use", SensorBatch(PID, 1, "use", ordered), "site", "site",
                   deliver_at=1)
        world.send("sensor.use", SensorBatch(PID, 1, "use", backwards), "site", "site",
                   deliver_at=2)
        tick(world)
        assert product.peid.event_log == ordered
        refused = [e for e in tick(world) if e.event_kind == EVT_PEID_REFUSED]
        assert [e.msg_id for e in refused] == ["m000002"]
        # The refusal names the batch's own previous reading, not the PEID's tail.
        assert refused[0].detail["reason"] == "event at t=3 precedes log tail t=7"
        assert product.peid.event_log == ordered

    def test_disposition_without_components_is_refused(self):
        world = World()
        world.register_node(NodeKind.RECYCLING_ENTERPRISE, "rec")
        product = world.register_product(PID, 1, LifecyclePhase.EOL_USE, node="rec")
        world.schedule_action(1, Action(LifecycleEvent.RETIREMENT_REQUESTED, product.key))
        tick(world)
        assert product.phase is LifecyclePhase.EOL_RECOVERY
        refused = {"family": product.family, "generation": 1,
                   "event": "DispositionExecuted", "phase": "no-components"}
        assert [(e.event_kind, e.node, e.detail) for e in tick(world)] == [
            (EVT_LIFECYCLE_REFUSED, "rec", refused)]
        assert product.phase is LifecyclePhase.EOL_RECOVERY

    def test_refused_step_schedules_nothing(self):
        world = World()
        world.register_node(NodeKind.MANUFACTURER, "mfg")
        product = world.register_product(PID, 1, LifecyclePhase.MOL_DISTRIBUTION, node="mfg")
        steps = (LifecycleEvent.RETIREMENT_REQUESTED, LifecycleEvent.DESIGN_COMPLETE,
                 LifecycleEvent.MANUFACTURED)
        for step in steps:
            world.schedule_action(1, Action(step, product.key))
        events = [e for _ in range(10) for e in tick(world)]
        assert [(e.event_kind, e.detail["event"]) for e in events] == [
            (EVT_LIFECYCLE_REFUSED, step.value) for step in steps]
        assert product.phase is LifecyclePhase.MOL_DISTRIBUTION

    def test_feedback_to_a_service_agent_is_unhandled(self):
        world = World(routing=RoutingTable(rules=(
            RoutingRule("feedback.customer", ("AgentService",)),
            RoutingRule("*", ()),
        )))
        world.register_node(NodeKind.REPAIR_GARAGE, "garage")
        world.spawn_agent(AgentRole.SERVICE, "garage", agent_id="as-01")
        agent = world.agents["as-01"]
        message = world.send("feedback.customer", CustomerFeedback(PID, 1, "x"),
                             "garage", "garage", deliver_at=1)
        events = tick(world)
        assert [(e.event_kind, e.agent, e.msg_id) for e in events] == [
            (EVT_MESSAGE_DELIVERED, "as-01", message.msg_id),
            (EVT_UNHANDLED_MESSAGE, "as-01", message.msg_id),
        ]
        assert events[1].detail == {
            "kind": "CustomerFeedback",
            "reason": "AgentService has no rule for CustomerFeedback",
        }
        assert world.agents["as-01"] is agent

    def test_fault_reaches_every_resident_service(self):
        world = World(routing=RoutingTable(rules=(
            RoutingRule("fault.reported", ("AgentService",)),
            RoutingRule("*", ()),
        )))
        world.register_node(NodeKind.PRODUCT_EMBEDDED, "pe")
        world.register_node(NodeKind.REPAIR_GARAGE, "garage")
        world.register_node(NodeKind.MANUFACTURER, "mfg")
        world.register_product(PID, 1, LifecyclePhase.EOL_USE, node="pe")
        world.spawn_agent(AgentRole.PRODUCT, "pe", product_id=PID, agent_id="ap-01")
        world.spawn_agent(AgentRole.SERVICE, "garage", agent_id="as-01")
        world.spawn_agent(AgentRole.SERVICE, "mfg", agent_id="as-02")
        world.spawn_agent(AgentRole.SERVICE, "mfg", product_id=PID2, agent_id="as-03")
        message = world.send("fault.reported", FaultReported(PID, 1, "x"), "pe", "pe",
                             deliver_at=1)
        delivered = [e.agent for e in tick(world)
                     if e.event_kind == EVT_MESSAGE_DELIVERED and e.msg_id == message.msg_id]
        assert delivered == ["as-01", "as-02", "as-03"]

    def test_service_order_reaches_only_its_products_agent(self):
        world = World(routing=RoutingTable(rules=(
            RoutingRule("service.order", ("AgentProduct",)),
            RoutingRule("*", ()),
        )))
        world.register_node(NodeKind.REPAIR_GARAGE, "garage")
        for pid, aid in ((PID, "ap-01"), (PID2, "ap-02")):
            world.register_product(pid, 1, LifecyclePhase.EOL_USE, node="garage")
            world.spawn_agent(AgentRole.PRODUCT, "garage", product_id=pid, agent_id=aid)
        world.send("service.order", ServiceOrder(PID2, 1, "x"), "garage", "garage",
                   deliver_at=1)
        delivered = [e.agent for e in tick(world) if e.event_kind == EVT_MESSAGE_DELIVERED]
        assert delivered == ["ap-02"]

    def test_batch_for_agent_in_flight_is_dropped_once(self):
        world = World(
            routing=RoutingTable(rules=(
                RoutingRule("sensor.*", ("AgentProduct",)),
                RoutingRule("knowledge.record", ("AgentKnowledge",)),
                RoutingRule("*", ()),
            )),
            latency=LatencyMap(default=3),
        )
        world.register_node(NodeKind.PRODUCT_EMBEDDED, "pe")
        world.register_node(NodeKind.REPAIR_GARAGE, "garage")
        for pid, aid in ((PID, "ap-01"), (PID2, "ap-02")):
            world.register_product(pid, 1, LifecyclePhase.EOL_USE, node="pe")
            world.spawn_agent(AgentRole.PRODUCT, "pe", product_id=pid, agent_id=aid)
        world.spawn_agent(AgentRole.KNOWLEDGE, "pe", agent_id="ak-01")
        migrate(world, "ap-01", "garage")   # lands at tick 3
        batch = SensorBatch(PID, 1, "use", (SensorEvent("temp", 20.0, "C", 1),))
        message = world.send("sensor.use", batch, "pe", "pe", deliver_at=1)
        for _ in range(5):
            tick(world)
        kinds = [e.event_kind for e in world.events]
        dropped = [e.msg_id for e in world.events if e.event_kind == EVT_MESSAGE_DROPPED]
        assert dropped == [message.msg_id]
        assert EVT_KNOWLEDGE_INSERTED not in kinds
        assert EVT_MESSAGE_DELIVERED not in kinds
        assert world.agents["ap-01"].location == "garage"
        started = LoggedEvent(0, "run_started",
                              detail={"scenario": "s", "seed": 1, "horizon": 5})
        run_log = [started, *world.events, LoggedEvent(5, "run_finished")]
        assert compute_report(run_log).dropped_messages == 1

    def test_event_log_line_shape(self):
        world = World()
        world.register_node(NodeKind.MANUFACTURER, "mfg")
        line = world.events[-1].to_json_line()
        raw = json.loads(line)
        assert list(raw) == ["tick", "event_kind", "node", "agent", "msg_id", "detail"]
        assert raw["detail"] == '{"kind":"Manufacturer"}'
        assert LoggedEvent.from_json_line(line) == world.events[-1]
        bare = LoggedEvent(3, "x")
        assert bare.to_json_line().endswith('"detail":""}')
        assert LoggedEvent.from_json_line(bare.to_json_line()) == bare


# -- line encoders against json.dumps -----------------------------------------

# Characters that need care in a JSON string: quotes, backslashes, every
# control character, non-ASCII and astral characters, and lone surrogates.
AWKWARD = ('"', "\\", "/", "\x7f", "\xe9", "\u4e2d", "\u2028", "\U0001f600",
           "\ud800", "\udfff", *map(chr, range(32)))
SCALARS = (None, True, False, 0, -1, 2**63, -(10**30), 0.5, -0.0, 1e16, 5e-324)


def awkward_text(rng, alphabet=AWKWARD + tuple(string.printable)):
    out = []
    for _ in range(rng.randint(0, 8)):
        char = rng.choice(alphabet)
        # A high then a low surrogate would decode as one astral character.
        if out and out[-1] == "\ud800" and char == "\udfff":
            continue
        out.append(char)
    return "".join(out)


def awkward_value(rng, depth):
    pick = rng.random()
    if depth < 3 and pick < 0.2:
        return [awkward_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    if depth < 3 and pick < 0.4:
        return awkward_detail(rng, depth + 1)
    if pick < 0.6:
        return awkward_text(rng)
    if pick < 0.7:
        return rng.randint(-(10**20), 10**20)
    if pick < 0.8:
        return rng.uniform(-1e6, 1e6)
    return rng.choice(SCALARS)


def awkward_detail(rng, depth=0):
    return {awkward_text(rng): awkward_value(rng, depth) for _ in range(rng.randint(0, 4))}


# json.dumps is the reference: the one-pass lines must match it byte for byte.
def reference_event_line(event):
    detail = (json.dumps(event.detail, sort_keys=True, separators=(",", ":"))
              if event.detail else "")
    return json.dumps({"tick": event.tick, "event_kind": event.event_kind,
                       "node": event.node, "agent": event.agent,
                       "msg_id": event.msg_id, "detail": detail},
                      separators=(",", ":"))


def record_fields(record):
    return {"record_id": record.record_id, "product_id": record.family,
            "generation": record.generation,
            "activity": record.activity.value, "mode": record.mode.value,
            "source": record.source.value, "payload": record.payload,
            "created_at": record.created_at}


def test_event_line_matches_reference_and_round_trips():
    rng = random.Random(1729)
    for _ in range(3000):
        event = LoggedEvent(rng.choice((0, 1, rng.randint(-(10**20), 10**20))),
                            awkward_text(rng), awkward_text(rng), awkward_text(rng),
                            awkward_text(rng), awkward_detail(rng))
        line = event.to_json_line()
        assert line == reference_event_line(event)
        decoded = LoggedEvent.from_json_line(line)
        assert decoded == event
        assert decoded.to_json_line() == line
    # A detail is a dict; the writer refuses a non-empty mapping of another type.
    with pytest.raises(TypeError, match="^Object of type mappingproxy is not JSON serializable$"):
        LoggedEvent(1, "x", detail=MappingProxyType({"a": 1})).to_json_line()


def test_record_line_matches_reference_and_round_trips():
    rng = random.Random(1730)
    no_at = tuple(c for c in AWKWARD + tuple(string.printable) if c != "@")
    for _ in range(3000):
        activity = rng.choice(list(Activity))
        record = KnowledgeRecord(
            record_id=awkward_text(rng),
            product_id=ProductID("s" + awkward_text(rng, no_at), "u" + awkward_text(rng, no_at)),
            generation=rng.randint(1, 10**20),
            activity=activity,
            mode=rng.choice(sorted(classify_activity(activity))),
            source=rng.choice(list(KnowledgeSource)),
            payload=awkward_text(rng),
            created_at=rng.randint(0, 10**20),
        )
        line = record.to_json_line()
        assert line == json.dumps(record_fields(record), separators=(",", ":"))
        assert json.loads(line) == record_fields(record)


# -- the log codec against json's own entry points ----------------------------

GOLDEN = sorted((Path(__file__).resolve().parent / "golden").glob("*.scn"))


def golden_lines():
    return [line for scn in GOLDEN for line in run(load_scenario(scn)).log_lines]


DETAIL_LINE = '{{"tick":1,"event_kind":"x","node":"","agent":"","msg_id":"","detail":{}}}'


def outcome(line):
    """What from_json_line makes of a line: its fields, or its error message.
    repr tells NaN, -0.0 and 1 from True where == would not."""
    try:
        return "event", repr(tuple(LoggedEvent.from_json_line(line)))
    except ValueError as exc:
        return "error", str(exc)


def assert_decodes_like_json(text):
    """from_json_line reads text, as a whole line and as a detail text, to
    the value json.loads gives, or fails with json.loads's own message."""
    for line, nests in ((text, "a log line"), (DETAIL_LINE.format(json.dumps(text)), "detail")):
        if nests == "detail" and not text:
            continue
        try:
            expected = json.loads(text)
        except RecursionError:
            assert outcome(line) == ("error", f"{nests} nests too deeply to decode")
        except ValueError as exc:
            assert outcome(line) == ("error", str(exc))
        else:
            if nests == "a log line":
                # The line reads as the compact text of the same value does.
                assert outcome(line) == outcome(json.dumps(expected, separators=(",", ":")))
            elif type(expected) is dict:
                assert repr(LoggedEvent.from_json_line(line).detail) == repr(expected)
            else:
                assert outcome(line) == (
                    "error", "detail must be empty or the text of a JSON object")


def test_loads_matches_json_loads():
    rng = random.Random(2718)
    texts = ["", " ", "\t\n ", " {}", "{} ", "\t[1]\n", "\n\"s\"\t", "\ufeff{}",
             "{}{}", '{"a":1} x', "1", '"s"', "null", "NaN", "-Infinity",
             '"\\x"', '"open', '{"a":', '"a\nb"', '"\x01"', "[" * 100_000]
    for line in golden_lines():
        detail = json.loads(line)["detail"]
        texts += [line, detail]
        cut = rng.randrange(len(line))
        texts += [line[:cut], line[cut:], " " + line, line + "\n", line + line]
    for text in texts:
        assert_decodes_like_json(text)


def test_failed_detail_encode_leaves_nothing_behind():
    reference = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    for n in range(3):
        inner = {"bad": object()}
        detail = {"n": n, "items": [inner]}
        with pytest.raises(TypeError):
            runtime.detail_str(detail)
        # The very containers that were mid-encode, now valid: an encoder
        # that kept them marked would call them circular.
        inner["bad"] = n
        assert runtime.detail_str(detail) == reference(detail)
        event = LoggedEvent(n, "x", detail=detail)
        assert event.to_json_line() == reference_event_line(event)
    cyclic = {"k": 1}
    cyclic["self"] = cyclic
    with pytest.raises((RecursionError, ValueError)):
        LoggedEvent(1, "x", detail=cyclic).to_json_line()


def test_bare_event_detail_is_read_only_and_round_trips():
    bare, other = LoggedEvent(3, "x"), LoggedEvent(4, "y")
    with pytest.raises(TypeError):
        bare.detail["k"] = 1
    with pytest.raises(AttributeError):
        bare.tick = 5
    assert not isinstance(bare.detail, dict) and not other.detail
    decoded = LoggedEvent.from_json_line(bare.to_json_line())
    assert decoded == bare
    assert type(decoded.detail) is dict and decoded.detail == {}


def test_codec_without_the_json_accelerator_writes_the_same_lines():
    """Without json's C accelerator both halves of the codec fall back to
    its pure-Python code: the same lines, decoded and written again."""
    rng = random.Random(1731)
    lines = golden_lines() + [
        LoggedEvent(rng.randint(0, 99), awkward_text(rng), detail=awkward_detail(rng))
        .to_json_line() for _ in range(500)]
    script = ("import json.encoder, json.scanner, sys\n"
              "json.encoder.c_make_encoder = None\n"
              "json.scanner.make_scanner = json.scanner.py_make_scanner\n"
              "from ploop.runtime import LoggedEvent\n"
              "for line in sys.stdin.read().splitlines():\n"
              "    print(LoggedEvent.from_json_line(line).to_json_line())\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", script], input="\n".join(lines),
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == lines
