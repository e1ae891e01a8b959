"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible with -s; shown on failure otherwise). Every tolerance is
exact/zero unless stated; each criterion also enforces its runtime
budget."""

import random
import string
import time
from contextlib import contextmanager
from pathlib import Path

from ploop.agents import AgentRole
from ploop.identity import (
    ALL_CAPABILITIES,
    IntelligenceLevel,
    PEIDCapability,
    classify_intelligence,
)
from ploop.harness import compare, load_scenario, run
from ploop.knowledge import Activity, KnowledgeMode, classify_activity
from ploop.lifecycle import (
    ComponentCondition,
    EOLDecision,
    EOLPolicy,
    decide_eol,
)
from ploop.runtime import (
    AgentInFlight,
    LatencyMap,
    Message,
    NodeKind,
    Partitioned,
    PartitionWindow,
    RoutingRule,
    RoutingTable,
    World,
    migrate,
    route,
    tick,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = ("minimal", "closed_loop", "baseline", "migration", "partition")


@contextmanager
def criterion(number, title, budget_seconds):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {title}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"ACCEPTANCE {number} {title}: PASS ({elapsed:.2f}s)")


def test_criterion_1_activity_table_fidelity():
    golden = {
        Activity.USER_INSIGHT: {KnowledgeMode.TACIT, KnowledgeMode.EXPLICIT},
        Activity.MARKET_INVESTIGATION: {KnowledgeMode.EXPLICIT},
        Activity.IDEA_CONCEPT_GENERATION: {KnowledgeMode.TACIT, KnowledgeMode.EXPLICIT},
        Activity.PRODUCT_REQUIREMENTS: {KnowledgeMode.EXPLICIT},
        Activity.ENGINEERING_DESIGN: {KnowledgeMode.EXPLICIT},
        Activity.MARKETING_LAUNCH: {KnowledgeMode.TACIT, KnowledgeMode.EXPLICIT},
        Activity.SALES: {KnowledgeMode.TACIT, KnowledgeMode.EXPLICIT},
        Activity.CUSTOMER: {KnowledgeMode.TACIT, KnowledgeMode.EXPLICIT},
        Activity.INTELLIGENT_PRODUCT: {KnowledgeMode.TACIT},
    }
    with criterion(1, "activity table fidelity", 1.0):
        assert len(list(Activity)) == 9
        for activity in Activity:
            assert classify_activity(activity) == golden[activity], activity


def test_criterion_2_intelligence_classification_exhaustive():
    core = {PEIDCapability.UNIQUE_ID, PEIDCapability.COMMUNICATION,
            PEIDCapability.SELF_STORAGE}
    with criterion(2, "intelligence classification", 1.0):
        members = sorted(PEIDCapability, key=lambda c: c.value)
        checked = 0
        for mask in range(32):
            caps = frozenset(c for i, c in enumerate(members) if mask & (1 << i))
            got = classify_intelligence(caps)
            if caps >= ALL_CAPABILITIES:
                assert got is IntelligenceLevel.LEVEL2
            elif core <= caps:
                assert got is IntelligenceLevel.LEVEL1
            else:
                assert got is IntelligenceLevel.NOT_INTELLIGENT
            checked += 1
        assert checked == 32


def test_criterion_3_migration_conservation_fuzz():
    rng = random.Random(0xC0FFEE)
    windows = tuple(
        PartitionWindow(f"n{a}", f"n{b}", start, start + rng.randint(1, 30))
        for start in range(0, 4000, 40)
        for a, b in [sorted(rng.sample(range(6), 2))]
    )
    world = World(latency=LatencyMap(default=rng.randint(1, 3)), partitions=windows)
    nodes = [world.register_node(NodeKind.CUSTOMER_SITE, f"n{i}") for i in range(6)]
    spawned = 0

    def census_oracle():
        # Independent scan: every spawned agent appears exactly once
        # across node resident sets and the in-flight set.
        seen = []
        for node in world.nodes.values():
            seen.extend(node.resident_agents)
        seen.extend(world.in_flight)
        assert len(seen) == len(set(seen)) == spawned
        assert set(seen) == set(world.agents)

    with criterion(3, "migration conservation", 30.0):
        for _ in range(10):
            world.spawn_agent(AgentRole.SERVICE, rng.choice(nodes))
            spawned += 1
        operations = 0
        while operations < 10_000:
            roll = rng.random()
            if roll < 0.1 and spawned < 80:
                world.spawn_agent(AgentRole.SERVICE, rng.choice(nodes))
                spawned += 1
            elif roll < 0.75:
                try:
                    migrate(world, rng.choice(sorted(world.agents)),
                            rng.choice(nodes))
                except (AgentInFlight, Partitioned):
                    pass
            else:
                tick(world)
            operations += 1
            census_oracle()
        assert operations >= 10_000


def test_criterion_4_fixture_determinism():
    with criterion(4, "determinism", 10.0):
        for name in FIXTURE_NAMES:
            scenario = load_scenario(FIXTURES / f"{name}.scn")
            first = "\n".join(run(scenario).log_lines).encode()
            second = "\n".join(run(scenario).log_lines).encode()
            assert first == second, f"{name} logs differ"


def test_criterion_5_routing_oracle_equivalence():
    def oracle(key, rules, directory):
        for pattern, recipients in rules:
            hit = pattern == "*" or key == pattern or (
                pattern.endswith("*") and key.startswith(pattern[:-1])
            )
            if not hit:
                continue
            out = set()
            role_names = {r.value for r in AgentRole}
            for selector in recipients:
                if selector in role_names:
                    out |= {a for a, r in directory.items() if r.value == selector}
                elif selector in directory:
                    out.add(selector)
            return sorted(out)
        raise AssertionError("no catch-all")

    rng = random.Random(0xBEEF)
    roles = [r.value for r in AgentRole]
    with criterion(5, "routing oracle equivalence", 10.0):
        cases = 0
        for _ in range(250):
            directory = {
                f"a{i:02d}": AgentRole(rng.choice(roles))
                for i in range(rng.randint(0, 15))
            }
            # The World's role index over the same residents; no agent in
            # this directory is bound to a product.
            by_role = {}
            for aid, role in directory.items():
                by_role.setdefault(role, set()).add(aid)
            rules = []
            for _ in range(rng.randint(0, 19)):
                stem = "".join(rng.choices(string.ascii_lowercase, k=3))
                pattern = stem + rng.choice(["", ".x", ".*"])
                selectors = tuple(
                    rng.choice(roles + sorted(directory) + ["ghost"])
                    for _ in range(rng.randint(0, 3))
                )
                rules.append((pattern, selectors))
            rules.append(("*", tuple(rng.sample(roles, rng.randint(0, 2)))))
            table = RoutingTable(rules=tuple(RoutingRule(p, r) for p, r in rules))
            for _ in range(50):
                key = ".".join(
                    "".join(rng.choices(string.ascii_lowercase, k=3))
                    for _ in range(rng.randint(1, 3))
                )
                message = Message(
                    msg_id="m1", sender="t", routing_key=key,
                    payload=None, sent_at=0, deliver_at=0, origin_node="n",
                )
                assert route(message, table, directory, by_role, {}) \
                    == oracle(key, rules, directory)
                cases += 1
        assert cases >= 10_000


def test_criterion_6_eol_ladder_oracle_and_coverage():
    def oracle(conditions, policy):
        values = [c.condition for c in conditions]
        mean = sum(values) / len(values)
        if mean >= policy.reuse_threshold:
            return EOLDecision.REUSE_REFURBISH
        if max(values) >= policy.component_threshold:
            return EOLDecision.REUSE_COMPONENTS_DISASSEMBLY
        if mean >= policy.reclaim_threshold:
            separable = any(
                c.condition >= policy.reclaim_threshold
                and abs(c.condition - mean) > 0.2
                for c in conditions
            )
            return (EOLDecision.RECLAIM_WITH_DISASSEMBLY if separable
                    else EOLDecision.RECLAIM_NO_DISASSEMBLY)
        if any(c.hazardous for c in conditions):
            return EOLDecision.DISPOSE_INCINERATION
        return EOLDecision.DISPOSE_NO_INCINERATION

    rng = random.Random(6011)
    policy = EOLPolicy(0.8, 0.6, 0.3)
    with criterion(6, "disposition ladder", 5.0):
        produced = set()
        for _ in range(1000):
            conditions = [
                ComponentCondition(f"c{i}", round(rng.random(), 3),
                                   rng.random() < 0.3)
                for i in range(rng.randint(1, 6))
            ]
            decision = decide_eol(conditions, policy)
            assert decision is oracle(conditions, policy)
            produced.add(decision)
        fixture_inputs = [
            [ComponentCondition("a", 1.0)],
            [ComponentCondition("a", 0.9), ComponentCondition("b", 0.1)],
            [ComponentCondition("a", 0.58), ComponentCondition("b", 0.2),
             ComponentCondition("c", 0.2)],
            [ComponentCondition("a", 0.4), ComponentCondition("b", 0.4)],
            [ComponentCondition("a", 0.1)],
            [ComponentCondition("a", 0.1, True)],
        ]
        for conditions in fixture_inputs:
            decision = decide_eol(conditions, policy)
            assert decision is oracle(conditions, policy)
            produced.add(decision)
        assert produced == set(EOLDecision)


def test_criterion_7_closed_loop_reaches_repository_at_traced_tick():
    with criterion(7, "closed-loop latency", 5.0):
        result = run(load_scenario(FIXTURES / "closed_loop.scn"))
        events = result.world.events
        submissions = [
            e for e in events
            if e.event_kind == "message_sent"
            and e.detail["key"] == "knowledge.record"
        ]
        inserted = [e for e in events if e.event_kind == "knowledge_inserted"]
        # Every emitted record reaches the manufacturer repository: no
        # knowledge.record message is dropped or blocked, and insert
        # count matches emission count.
        lost = [
            e for e in events
            if e.event_kind in ("message_dropped", "message_blocked")
            and e.detail.get("key") == "knowledge.record"
        ]
        assert lost == []
        assert len(submissions) == len(inserted) == 9
        repo = result.world.repository
        assert len(repo) == 9
        assert {r.family for r in repo.records} == {"px-100@urn:mfg:acme"}
        # The trigger fires exactly at the hand-traced tick.
        triggers = [e for e in events if e.event_kind == "design_trigger"]
        assert [t.tick for t in triggers] == [12]
        assert result.report.loop_closure_latency == 8


def test_criterion_8_launch_phase_reduction():
    with criterion(8, "launch-phase reduction", 10.0):
        feedback = run(load_scenario(FIXTURES / "closed_loop.scn")).report
        baseline = run(load_scenario(FIXTURES / "baseline.scn")).report
        summary = compare(feedback, baseline)
        assert summary.delta > 0
        assert summary.improvement
        assert summary.feedback_launch_tick < summary.baseline_launch_tick


def test_criterion_9_partition_safety_log_audit():
    with criterion(9, "partition safety", 10.0):
        scenario = load_scenario(FIXTURES / "partition.scn")
        result = run(scenario)

        def severed(a, b, at_tick):
            return any(w.covers(a, b, at_tick) for w in scenario.partitions)

        crossings = 0
        blocked = refused = 0
        for event in result.world.events:
            detail = event.detail
            if event.event_kind == "message_delivered":
                assert not severed(detail["origin"], event.node, event.tick)
                crossings += detail["origin"] != event.node
            elif event.event_kind == "migration_completed":
                assert not severed(detail["source"], event.node, event.tick)
                crossings += 1
            elif event.event_kind == "message_blocked":
                assert severed(detail["origin"], event.node, event.tick)
                blocked += 1
            elif event.event_kind == "migration_refused":
                refused += 1
        # The fixture must actually exercise the fault path on both
        # transports and still complete healthy crossings afterwards.
        assert blocked >= 2
        assert refused >= 6
        assert crossings >= 3
