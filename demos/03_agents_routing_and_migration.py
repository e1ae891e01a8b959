#!/usr/bin/env python3
"""Hand-built world: routing, agent effects, migration, and a partition.

Assembles a three-node world directly against the runtime API (no
scenario file), sends a fault report through the routing table, watches
the service agent react, and marches an itinerant agent through a
network partition that first refuses and then releases it.
"""

from ploop.agents import AgentRole
from ploop.identity import mint_product_id
from ploop.lifecycle import LifecyclePhase
from ploop.messages import FaultReported
from ploop.runtime import (
    LatencyMap,
    NodeKind,
    PartitionWindow,
    RoutingRule,
    RoutingTable,
    World,
    detail_str,
    tick,
)

routing = RoutingTable(rules=(
    RoutingRule("fault.reported", ("AgentService",)),
    RoutingRule("service.order", ("AgentProduct",)),
    RoutingRule("knowledge.record", ("AgentKnowledge",)),
    RoutingRule("*", ()),
))

world = World(
    routing=routing,
    latency=LatencyMap(default=1, pairs={("garage", "mfg"): 2}),
    partitions=(PartitionWindow("mfg", "garage", 4, 6),),
)
world.register_node(NodeKind.MANUFACTURER, "mfg")
world.register_node(NodeKind.REPAIR_GARAGE, "garage")
world.register_node(NodeKind.PRODUCT_EMBEDDED, "pe")

pid = mint_product_id("rx-7", "urn:mfg:acme")
world.register_product(pid, generation=1, phase=LifecyclePhase.EOL_USE, node="pe")
world.spawn_agent(AgentRole.PRODUCT, "pe", product_id=pid, agent_id="ap-01")
world.spawn_agent(AgentRole.SERVICE, "garage", agent_id="as-01")
world.spawn_agent(AgentRole.KNOWLEDGE, "mfg", agent_id="ak-01")
# The courier wants to visit the garage and come home; the partition
# window at ticks 4..6 will get in its way.
world.spawn_agent(AgentRole.CUSTOMER, "mfg", agent_id="courier-01",
                  itinerary=("garage", "mfg"))

world.send("fault.reported", FaultReported(pid, 1, "overheat"),
           sender="pe", origin_node="pe", deliver_at=1)

print("tick  events")
for _ in range(10):
    for event in tick(world):
        print(f"{event.tick:>4}  {event.event_kind:<22} "
              f"node={event.node or '-':<8} agent={event.agent or '-':<12} "
              f"{detail_str(event.detail)}")

print("\nfinal placement:")
for agent_id, where in sorted(world.census().items()):
    print(f"  {agent_id:<12} {where}")
print("product phase:", world.products[pid.render()].phase.value)
print("records at mfg:", len(world.repository))
