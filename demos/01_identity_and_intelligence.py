#!/usr/bin/env python3
"""Identities, the on-product information device, and intelligence levels.

Walks the identity layer end to end: mint and parse serial@uri ids,
append sensor readings to a device log, and classify every capability
subset into its product-intelligence level.
"""

from itertools import combinations

from ploop.identity import (
    PEID,
    MalformedSerial,
    NonMonotonicTime,
    PEIDCapability,
    SensorEvent,
    classify_intelligence,
    mint_product_id,
    parse_product_id,
    record_event,
)

# --- minting and parsing ids -------------------------------------------------

pid = mint_product_id("px-100", "urn:mfg:acme")
print("minted:       ", pid.render())
print("parsed back:  ", parse_product_id(pid.render()))
print("round-trips:  ", parse_product_id(pid.render()) == pid)

try:
    mint_product_id("bad@serial", "urn:mfg:acme")
except MalformedSerial as exc:
    print("rejected:     ", exc)

# --- the embedded device log -------------------------------------------------

peid = PEID(product_id=pid)
for t, (sensor, value, unit) in enumerate([
    ("temp", 31.0, "C"),
    ("temp", 55.5, "C"),
    ("humidity", 71.0, "pct"),
    ("temp", 97.2, "C"),
]):
    peid = record_event(peid, SensorEvent(sensor, value, unit, sim_time=t * 5))

print("\ndevice log for", peid.product_id)
for event in peid.event_log:
    print(f"  t={event.sim_time:<3} {event.sensor}={event.value}{event.unit}")

try:
    record_event(peid, SensorEvent("temp", 20.0, "C", sim_time=2))
except NonMonotonicTime as exc:
    print("append-only:  ", exc)

# --- intelligence levels over every capability subset ------------------------

print("\ncapability subsets by intelligence level")
members = sorted(PEIDCapability, key=lambda c: c.value)
by_level = {}
for size in range(len(members) + 1):
    for caps in combinations(members, size):
        level = classify_intelligence(frozenset(caps))
        by_level.setdefault(level.value, []).append(caps)
for level, subsets in sorted(by_level.items()):
    print(f"  {level:<15} {len(subsets)} subsets")
example = frozenset(members) - {PEIDCapability.DECISION_MAKING}
print("  e.g. all but DecisionMaking ->",
      classify_intelligence(example).value)
print("  e.g. all five               ->",
      classify_intelligence(frozenset(members)).value, "(decision oriented)")
