import json
import random
import string

import pytest

from ploop import runtime
from ploop.agents import AgentRole
from ploop.harness import compute_report
from ploop.identity import SensorEvent, mint_product_id
from ploop.knowledge import DesignTrigger, tacit_record
from ploop.lifecycle import LifecyclePhase
from ploop.messages import CustomerFeedback, FaultReported, SensorBatch, ServiceOrder
from ploop.runtime import (
    CATCH_ALL_TABLE,
    EVT_KNOWLEDGE_INSERTED,
    EVT_MESSAGE_BLOCKED,
    EVT_MESSAGE_DELIVERED,
    EVT_MESSAGE_DROPPED,
    EVT_MIGRATION_COMPLETED,
    EVT_MIGRATION_REFUSED,
    EVT_PEID_REFUSED,
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

PID = mint_product_id("px-1", "urn:mfg:acme")
PID2 = mint_product_id("px-2", "urn:mfg:acme")
# Payload types that speak for one product.
SCOPED = (SensorBatch, ServiceOrder, CustomerFeedback, FaultReported)


def make_message(key, payload=None, msg_id="m000001", sent_at=0, deliver_at=1):
    return Message(
        msg_id=msg_id,
        sender="test",
        routing_key=key,
        payload=payload or CustomerFeedback(PID, 1, "x"),
        sent_at=sent_at,
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
    def test_one_of_each_kind(self):
        world = World()
        for kind in NodeKind:
            world.register_node(kind)
        assert len(world.nodes) == 5

    def test_same_kind_twice_gives_distinct_ids(self):
        world = World()
        a = world.register_node(NodeKind.MANUFACTURER)
        b = world.register_node(NodeKind.MANUFACTURER)
        assert a != b

    def test_thousand_registrations_all_distinct(self):
        world = World()
        ids = [world.register_node(NodeKind.CUSTOMER_SITE) for _ in range(1000)]
        assert len(set(ids)) == 1000

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
        assert "a-01" not in world.nodes["n1"].resident_agents
        assert "a-01" in world.in_flight
        tick(world)   # clock 1: still in flight
        assert "a-01" in world.in_flight
        tick(world)   # clock 2: arrival
        assert "a-01" in world.nodes["n2"].resident_agents
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
        assert "a-01" in world.nodes["n1"].resident_agents
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
        nodes = [world.register_node(NodeKind.CUSTOMER_SITE) for _ in range(6)]
        spawned = 0
        for _ in range(10):
            world.spawn_agent(AgentRole.SERVICE, rng.choice(nodes))
            spawned += 1
        for step in range(3000):
            op = rng.random()
            if op < 0.15 and spawned < 60:
                world.spawn_agent(AgentRole.SERVICE, rng.choice(nodes))
                spawned += 1
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
        refused = 0

        def spawn():
            nonlocal refused
            role, product = rng.choice(roles), rng.choice(products)
            itinerary = tuple(rng.choice(names) for _ in range(rng.randint(0, 5)))
            taken = {a.product_id for a in world.agents.values() if a.role is AgentRole.PRODUCT}
            if role is AgentRole.PRODUCT and product in taken:
                # One AgentProduct per product, resident or in flight.
                before = dict(world.agents)
                with pytest.raises(SimulationError):
                    world.spawn_agent(role, rng.choice(names), product_id=product)
                assert world.agents == before
                refused += 1
                return
            world.spawn_agent(role, rng.choice(names), product_id=product, itinerary=itinerary)

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

    def counted(agent, directory):
        nonlocal calls
        calls += 1
        return plan(agent, directory)

    def unexpected(self):
        raise AssertionError("tick() rebuilt the resident directory")

    monkeypatch.setattr(runtime, "plan_migration", counted)
    monkeypatch.setattr(World, "resident_directory", unexpected)
    world = World()
    nodes = [world.register_node(NodeKind.CUSTOMER_SITE, f"n{i}") for i in range(4)]
    for i in range(parked):
        world.spawn_agent(AgentRole.IMPACT, nodes[i % 4])
    world.spawn_agent(AgentRole.IMPACT, "n0", agent_id="roamer",
                      itinerary=tuple(nodes[i % 4] for i in range(1, 150)))
    for _ in range(200):
        tick(world)
    assert world.agents["roamer"].itinerary == ()
    return calls


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

    def test_causality_validated_at_construction(self):
        with pytest.raises(ValueError):
            make_message("k", sent_at=5, deliver_at=4)

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
        assert product.peid.event_log == ordered

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
        assert world.agents["ap-02"].memory == {"service_orders_seen": 1}
        assert world.agents["ap-01"].memory == {}

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
        assert compute_report(world.events).dropped_messages == 1

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
