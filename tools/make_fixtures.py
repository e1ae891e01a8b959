"""Regenerate the canonical fixture scenarios in fixtures/.

The fixture files are written through the scenario serializer so the
save/load byte round-trip checked by the test suite holds. Run from the
repository root after changing any declaration below:

    python3 tools/make_fixtures.py
"""

from __future__ import annotations

from pathlib import Path

from ploop.harness import (
    AgentDecl,
    NodeDecl,
    ProductDecl,
    Scenario,
    Stimulus,
    save_scenario,
)
from ploop.identity import (
    IntelligenceChannel,
    IntelligenceGranularity,
    IntelligenceLocation,
    PEIDCapability,
)
from ploop.lifecycle import ComponentCondition, EOLPolicy, LifecyclePhase
from ploop.runtime import (
    AgentRole,
    LatencyMap,
    NodeKind,
    PartitionWindow,
    RoutingRule,
    RoutingTable,
    SimParams,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PX = "px-100@urn:mfg:acme"

CLOSED_LOOP_ROUTING = RoutingTable(rules=(
    RoutingRule("feedback.customer", ("AgentCustomer",)),
    RoutingRule("sensor.environment", ("AgentImpact",)),
    RoutingRule("sensor.*", ("AgentProduct",)),
    RoutingRule("fault.reported", ("AgentService",)),
    RoutingRule("service.order", ("AgentProduct",)),
    RoutingRule("knowledge.record", ("AgentKnowledge",)),
    RoutingRule("design.trigger", ()),
    RoutingRule("*", ()),
))

CLOSED_LOOP_NODES = (
    NodeDecl("mfg", NodeKind.MANUFACTURER),
    NodeDecl("cust", NodeKind.CUSTOMER_SITE),
    NodeDecl("garage", NodeKind.REPAIR_GARAGE),
    NodeDecl("recycler", NodeKind.RECYCLING_ENTERPRISE),
    NodeDecl("prod", NodeKind.PRODUCT_EMBEDDED),
)

CLOSED_LOOP_PRODUCT = ProductDecl(
    serial="px-100",
    uri="urn:mfg:acme",
    generation=1,
    phase=LifecyclePhase.EOL_USE,
    node="prod",
    components=(
        ComponentCondition("battery", 0.2, True),
        ComponentCondition("chassis", 0.5, False),
    ),
    capabilities=tuple(PEIDCapability),
    memory={"model": "PX-100"},
    intelligence_location=IntelligenceLocation(
        IntelligenceChannel.AT_OBJECT, IntelligenceGranularity.ITEM
    ),
)

CLOSED_LOOP_AGENTS = (
    AgentDecl("ac-01", AgentRole.CUSTOMER, "cust"),
    AgentDecl("ai-01", AgentRole.IMPACT, "cust"),
    AgentDecl("ak-01", AgentRole.KNOWLEDGE, "mfg"),
    AgentDecl("ap-01", AgentRole.PRODUCT, "prod", product=PX),
    AgentDecl("as-01", AgentRole.SERVICE, "garage"),
)

CLOSED_LOOP_STIMULI = (
    Stimulus(tick=3, node="prod", kind="sensor_batch", product=PX,
             category="use", note="daily usage",
             events=({"sensor": "runtime", "value": 6.5, "unit": "h"},)),
    Stimulus(tick=5, node="prod", kind="sensor_batch", product=PX,
             category="failure", note="overheat spike",
             events=({"sensor": "temp", "value": 97.0, "unit": "C"},)),
    Stimulus(tick=6, node="prod", kind="fault", product=PX, detail="overheat"),
    Stimulus(tick=7, node="prod", kind="sensor_batch", product=PX,
             category="environment", note="high ambient humidity",
             events=({"sensor": "humidity", "value": 88.0, "unit": "pct"},)),
    Stimulus(tick=10, node="cust", kind="customer_feedback", product=PX,
             text="display too dim"),
    Stimulus(tick=11, node="cust", kind="customer_feedback", product=PX,
             text="battery swells"),
    Stimulus(tick=12, node="cust", kind="customer_feedback", product=PX,
             text="overheat on charge"),
    Stimulus(tick=13, node="cust", kind="customer_feedback", product=PX,
             text="fan noise"),
    Stimulus(tick=14, node="cust", kind="customer_feedback", product=PX,
             text="display flicker"),
    Stimulus(tick=30, node="recycler", kind="retirement", product=PX),
)


def closed_loop(name: str, trigger_rule_enabled: bool) -> Scenario:
    """The golden pair: identical except for the feedback trigger rule.

    With the rule enabled the fifth record (first feedback, inserted at
    tick 11) crosses threshold 5 and the trigger lands at tick 12, so
    generation 2 launches at 12 + 3 + 4 = 19. The baseline starts design
    at the scheduled retirement (tick 30) and launches at 37.
    """
    return Scenario(
        name=name,
        seed=42,
        horizon=60,
        nodes=CLOSED_LOOP_NODES,
        products=(CLOSED_LOOP_PRODUCT,),
        agents=CLOSED_LOOP_AGENTS,
        routing=CLOSED_LOOP_ROUTING,
        latency=LatencyMap(default=1, pairs={}),
        partitions=(),
        stimuli=CLOSED_LOOP_STIMULI,
        params=SimParams(
            trigger_threshold=5,
            eol_policy=EOLPolicy(0.8, 0.6, 0.3),
            message_latency=1,
            design_ticks=3,
            manufacture_ticks=4,
            disposal_ticks=1,
            trigger_rule_enabled=trigger_rule_enabled,
        ),
    )


def minimal() -> Scenario:
    return Scenario(
        name="minimal",
        seed=7,
        horizon=10,
        nodes=(NodeDecl("hub", NodeKind.MANUFACTURER),),
        products=(),
        agents=(AgentDecl("ak-01", AgentRole.KNOWLEDGE, "hub"),),
        routing=RoutingTable(rules=(RoutingRule("*", ()),)),
        latency=LatencyMap(),
        partitions=(),
        stimuli=(),
        params=SimParams(),
    )


def migration() -> Scenario:
    return Scenario(
        name="migration",
        seed=11,
        horizon=10,
        nodes=(
            NodeDecl("home", NodeKind.MANUFACTURER),
            NodeDecl("n1", NodeKind.CUSTOMER_SITE),
            NodeDecl("n2", NodeKind.REPAIR_GARAGE),
            NodeDecl("n3", NodeKind.RECYCLING_ENTERPRISE),
        ),
        products=(),
        agents=(
            AgentDecl("walker-01", AgentRole.SERVICE, "home",
                      itinerary=("n1", "n2", "n3")),
        ),
        routing=RoutingTable(rules=(RoutingRule("*", ()),)),
        latency=LatencyMap(default=1, pairs={}),
        partitions=(),
        stimuli=(),
        params=SimParams(),
    )


def partition() -> Scenario:
    """Two severed windows on the hub/remote pair: rover-01's migration is
    refused through ticks 1..6, starts at 7, and its arrival (due 10) is
    held until the second window clears at 13. Feedback at ticks 3 and 10
    is blocked; 8 and 20 get through."""
    return Scenario(
        name="partition",
        seed=23,
        horizon=25,
        nodes=(
            NodeDecl("hub", NodeKind.MANUFACTURER),
            NodeDecl("remote", NodeKind.CUSTOMER_SITE),
            NodeDecl("pe", NodeKind.PRODUCT_EMBEDDED),
        ),
        products=(
            ProductDecl(
                serial="rx-7",
                uri="urn:mfg:acme",
                generation=1,
                phase=LifecyclePhase.EOL_USE,
                node="pe",
                components=(ComponentCondition("shell", 0.9, False),),
            ),
        ),
        agents=(
            AgentDecl("ac-01", AgentRole.CUSTOMER, "hub"),
            AgentDecl("ak-01", AgentRole.KNOWLEDGE, "hub"),
            AgentDecl("rover-01", AgentRole.PRODUCT, "hub",
                      product="rx-7@urn:mfg:acme", itinerary=("remote",)),
        ),
        routing=RoutingTable(rules=(
            RoutingRule("feedback.customer", ("AgentCustomer",)),
            RoutingRule("knowledge.record", ("AgentKnowledge",)),
            RoutingRule("*", ()),
        )),
        latency=LatencyMap(default=1, pairs={("hub", "remote"): 3}),
        partitions=(
            PartitionWindow("hub", "remote", 1, 6),
            PartitionWindow("hub", "remote", 9, 12),
        ),
        stimuli=(
            Stimulus(tick=3, node="remote", kind="customer_feedback",
                     product="rx-7@urn:mfg:acme", text="screen cracked"),
            Stimulus(tick=8, node="remote", kind="customer_feedback",
                     product="rx-7@urn:mfg:acme", text="hinge loose"),
            Stimulus(tick=10, node="remote", kind="customer_feedback",
                     product="rx-7@urn:mfg:acme", text="speaker buzz"),
            Stimulus(tick=20, node="remote", kind="customer_feedback",
                     product="rx-7@urn:mfg:acme", text="battery weak"),
        ),
        params=SimParams(trigger_threshold=99),
    )


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    save_scenario(closed_loop("closed_loop", True), FIXTURES / "closed_loop.scn")
    save_scenario(closed_loop("baseline", False), FIXTURES / "baseline.scn")
    save_scenario(minimal(), FIXTURES / "minimal.scn")
    save_scenario(migration(), FIXTURES / "migration.scn")
    save_scenario(partition(), FIXTURES / "partition.scn")
    print(f"fixtures written to {FIXTURES}")


if __name__ == "__main__":
    main()
