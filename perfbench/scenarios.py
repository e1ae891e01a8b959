"""Seeded synthetic scenarios for the benchmark workloads.

Each workload is a function of the seed alone: the seed picks tick
placements, sensor values, node assignments, latencies and partition
phases, while every count that sets the amount of work (products, agents,
batches, events per batch, windows) is fixed per workload. That keeps the
run time of one workload nearly the same across seeds, so the spread
between runs measures ploop and not the draw.

Files are format-1 scenarios written through ``harness.save_scenario``,
so they reload and re-save byte-identically. Stimuli stop at least
``STIMULUS_MARGIN`` ticks before the horizon, which leaves room for the
two message hops (stimulus -> role agent -> repository keeper) that turn
a stimulus into a knowledge record.

Run from the repository root:

    python3 perfbench/scenarios.py --workload fleet --seed 1 --out perfbench/out/scn
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import Any

STIMULUS_MARGIN = 8
WINDOW_SLOT = 24
URI = "urn:mfg:acme"

SENSORS = {
    "use": (("runtime", "h", 0.5, 12.0), ("cycles", "count", 1.0, 400.0)),
    "failure": (("temp", "C", 60.0, 110.0), ("vibration", "mm/s", 2.0, 30.0)),
    "environment": (("humidity", "pct", 10.0, 95.0), ("ambient", "C", -10.0, 45.0)),
}
FEEDBACK = ("battery drains fast", "screen hard to read", "quiet and reliable",
            "charger runs hot", "strap broke", "easy to repair")
FAULTS = ("overheat", "battery swell", "sensor drift", "cracked housing")

CORE_NODES = (
    ("mfg", "Manufacturer"),
    ("cust", "CustomerSite"),
    ("garage", "RepairGarage"),
    ("recycler", "RecyclingEnterprise"),
)

# Product-scoped traffic goes to role selectors, as in the shipped fixtures.
# No rule names AgentImpact except fleet's environment rule, so the parked
# agents of idle and the mobile agents of roaming receive nothing.
BASE_ROUTING = [
    {"pattern": "feedback.customer", "recipients": ["AgentCustomer"]},
    {"pattern": "sensor.*", "recipients": ["AgentProduct"]},
    {"pattern": "fault.reported", "recipients": ["AgentService"]},
    {"pattern": "service.order", "recipients": ["AgentProduct"]},
    {"pattern": "knowledge.record", "recipients": ["AgentKnowledge"]},
    {"pattern": "design.trigger", "recipients": []},
    {"pattern": "*", "recipients": []},
]


def _product(rng: random.Random, index: int, node: str) -> dict[str, Any]:
    return {
        "serial": f"px-{index:03d}",
        "uri": URI,
        "generation": 1,
        "phase": "EOL_Use",
        "node": node,
        "components": [
            {"component": name, "condition": round(rng.uniform(0.05, 0.95), 2),
             "hazardous": rng.random() < 0.3}
            for name in ("battery", "chassis", "board")
        ],
        "capabilities": ["UniqueID", "Communication", "SelfStorage",
                         "FeatureLanguage", "DecisionMaking"],
        "memory": {"model": f"PX-{index:03d}"},
        "intelligence_location": {"channel": "AtObject", "granularity": "Item"},
    }


def _agent(agent_id: str, role: str, home: str, product: str | None = None,
           itinerary: list[str] | None = None) -> dict[str, Any]:
    return {"id": agent_id, "role": role, "home": home, "product": product,
            "itinerary": itinerary or []}


def _batch(rng: random.Random, tick: int, node: str, product: str, category: str,
           events: int) -> dict[str, Any]:
    readings = []
    for _ in range(events):
        sensor, unit, lo, hi = rng.choice(SENSORS[category])
        readings.append({"sensor": sensor, "value": round(rng.uniform(lo, hi), 1),
                         "unit": unit})
    return {"tick": tick, "node": node, "kind": "sensor_batch", "product": product,
            "category": category, "note": f"{category} summary", "events": readings}


def _product_stimuli(rng: random.Random, product: str, node: str, last_tick: int,
                     categories: list[str], events: int, feedback: int, faults: int,
                     feedback_nodes: tuple[str, ...]) -> list[dict[str, Any]]:
    """One product's stimuli at distinct ticks in 1..last_tick, then its
    retirement one tick after the last of them."""
    kinds = categories + ["customer_feedback"] * feedback + ["fault"] * faults
    ticks = sorted(rng.sample(range(1, last_tick + 1), len(kinds)))
    rng.shuffle(kinds)
    out = []
    for tick, kind in zip(ticks, kinds):
        if kind == "customer_feedback":
            out.append({"tick": tick, "node": rng.choice(feedback_nodes),
                        "kind": kind, "product": product, "text": rng.choice(FEEDBACK)})
        elif kind == "fault":
            out.append({"tick": tick, "node": node, "kind": kind, "product": product,
                        "detail": rng.choice(FAULTS)})
        else:
            out.append(_batch(rng, tick, node, product, kind, events))
    out.append({"tick": ticks[-1] + 1, "node": node, "kind": "retirement",
                "product": product})
    return out


def _params(threshold: int) -> dict[str, Any]:
    return {"trigger_threshold": threshold, "message_latency": 1, "design_ticks": 3,
            "manufacture_ticks": 4, "disposal_ticks": 1, "trigger_rule_enabled": True,
            "eol_policy": {"reuse_threshold": 0.8, "component_threshold": 0.6,
                           "reclaim_threshold": 0.3}}


def _document(name: str, seed: int, horizon: int, nodes, products, agents, routing,
              stimuli, threshold: int, latency=None, partitions=()) -> dict[str, Any]:
    stimuli = sorted(stimuli, key=lambda s: (s["tick"], s["product"], s["kind"]))
    return {
        "format": 1, "name": name, "seed": seed, "horizon": horizon,
        "nodes": [{"id": n, "kind": k} for n, k in nodes],
        "products": products, "agents": agents, "routing": routing,
        "latency": latency or {"default": 1, "pairs": []},
        "partitions": list(partitions), "stimuli": stimuli, "params": _params(threshold),
    }


def fleet(seed: int, products: int = 10, horizon: int = 120) -> dict[str, Any]:
    """N products in use, one AgentProduct each, one agent of every other
    role; dense batches, feedback, faults and a retirement per product."""
    rng = random.Random(f"fleet:{seed}")
    nodes = list(CORE_NODES)
    prods, agents, stimuli = [], [], []
    categories = ["use"] * 7 + ["failure"] * 3 + ["environment"] * 3
    for i in range(products):
        node = f"pe-{i:03d}"
        nodes.append((node, "ProductEmbedded"))
        prods.append(_product(rng, i, node))
        pid = f"px-{i:03d}@{URI}"
        agents.append(_agent(f"ap-{i:03d}", "AgentProduct", node, pid))
        # Six ticks earlier than the margin alone, so that in the short
        # horizon most design pipelines (trigger + 8 ticks) still finish.
        stimuli += _product_stimuli(rng, pid, node, horizon - STIMULUS_MARGIN - 6,
                                    categories, events=4, feedback=2, faults=1,
                                    feedback_nodes=("cust",))
    agents += [
        _agent("ac-000", "AgentCustomer", "cust"),
        _agent("ai-000", "AgentImpact", "cust"),
        _agent("ak-000", "AgentKnowledge", "mfg"),
        _agent("as-000", "AgentService", "garage"),
    ]
    routing = [{"pattern": "sensor.environment", "recipients": ["AgentImpact"]}] + BASE_ROUTING
    return _document("fleet", seed, horizon, nodes, prods, agents, routing, stimuli,
                     threshold=12)


def idle(seed: int, parked: int = 1000, parking_nodes: int = 40,
         horizon: int = 800) -> dict[str, Any]:
    """About a thousand agents parked on many nodes, beside one active
    product family that reports sensor readings throughout the horizon."""
    rng = random.Random(f"idle:{seed}")
    kinds = ("CustomerSite", "RepairGarage", "RecyclingEnterprise", "Manufacturer")
    park = [(f"park-{i:02d}", kinds[i % len(kinds)]) for i in range(parking_nodes)]
    nodes = list(CORE_NODES) + [("pe-000", "ProductEmbedded")] + park
    pid = f"px-000@{URI}"
    agents = [
        _agent("ac-000", "AgentCustomer", "cust"),
        _agent("ak-000", "AgentKnowledge", "mfg"),
        _agent("ap-000", "AgentProduct", "pe-000", pid),
        _agent("as-000", "AgentService", "garage"),
    ]
    agents += [_agent(f"ai-{i:04d}", "AgentImpact", rng.choice(park)[0])
               for i in range(parked)]
    categories = ["use"] * 180 + ["failure"] * 60 + ["environment"] * 20
    stimuli = _product_stimuli(rng, pid, "pe-000", horizon - STIMULUS_MARGIN,
                               categories, events=4, feedback=12, faults=4,
                               feedback_nodes=("cust",))
    return _document("idle", seed, horizon, nodes, [_product(rng, 0, "pe-000")],
                     agents, BASE_ROUTING, stimuli, threshold=60)


def roaming(seed: int, mobile: int = 32, sites: int = 8, horizon: int = 240,
            random_pairs: int = 8) -> dict[str, Any]:
    """Mobile agents on long itineraries over a dozen nodes with per-pair
    latencies and recurring partition windows; customer feedback comes
    from remote sites, so some of it is blocked."""
    rng = random.Random(f"roaming:{seed}")
    site_nodes = [(f"site-{i:02d}", "CustomerSite") for i in range(sites)]
    nodes = list(CORE_NODES) + [("pe-000", "ProductEmbedded")] + site_nodes
    ids = [n for n, _ in nodes]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    # Latencies and window lengths are fixed multisets that the seed deals
    # out, so the amount of travel and of severed time is the same per seed.
    latencies = [1 + i % 4 for i in range(len(pairs))]
    rng.shuffle(latencies)
    latency = {"default": 2, "pairs": [{"a": a, "b": b, "ticks": t}
                                       for (a, b), t in zip(pairs, latencies)]}
    # Every site is cut off from the customer site once per slot of
    # WINDOW_SLOT ticks, and so is a fixed number of other pairs.
    severed = [(s, "cust") for s, _ in site_nodes]
    severed += rng.sample([p for p in pairs if "cust" not in p], random_pairs)
    partitions = []
    for a, b in severed:
        for k, start in enumerate(range(1, horizon - WINDOW_SLOT + 2, WINDOW_SLOT)):
            length = 3 + k % 5
            lo = start + rng.randint(0, WINDOW_SLOT - length)
            partitions.append({"a": a, "b": b, "from_tick": lo, "to_tick": lo + length - 1})
    pid = f"px-000@{URI}"
    agents = [
        _agent("ac-000", "AgentCustomer", "cust"),
        _agent("ak-000", "AgentKnowledge", "mfg"),
        _agent("ap-000", "AgentProduct", "pe-000", pid),
        _agent("as-000", "AgentService", "garage"),
    ]
    for i in range(mobile):
        stops, here = [], rng.choice(ids)
        home = here
        for _ in range(horizon // 2):
            here = rng.choice([n for n in ids if n != here])
            stops.append(here)
        agents.append(_agent(f"ai-{i:03d}", "AgentImpact", home, itinerary=stops))
    categories = ["use"] * 24 + ["failure"] * 8 + ["environment"] * 8
    stimuli = _product_stimuli(rng, pid, "pe-000", horizon - STIMULUS_MARGIN,
                               categories, events=3, feedback=40, faults=3,
                               feedback_nodes=tuple(s for s, _ in site_nodes))
    return _document("roaming", seed, horizon, nodes, [_product(rng, 0, "pe-000")],
                     agents, BASE_ROUTING, stimuli, threshold=30, latency=latency,
                     partitions=partitions)


WORKLOADS = {"fleet": fleet, "idle": idle, "roaming": roaming}


def write(document: dict[str, Any], path: Path) -> Path:
    """Validate through ploop's loader and save through its serializer."""
    from ploop.harness import save_scenario, scenario_from_dict

    path.parent.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario_from_dict(document), path)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the .scn file")
    parser.add_argument("--products", type=int, default=None,
                        help="fleet only: product count (default 10)")
    args = parser.parse_args(argv)
    kwargs = {} if args.products is None else {"products": args.products}
    document = WORKLOADS[args.workload](args.seed, **kwargs)
    path = write(document, Path(args.out) / f"{args.workload}-s{args.seed}.scn")
    print(path)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.exit(main())
