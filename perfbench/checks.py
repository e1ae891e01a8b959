"""Output checks applied to every benchmark operation.

Each check is computed from the scenario document and ploop's outputs,
never by calling ploop's own logic: expected knowledge counts come from the
stimuli, the routing rules and the partition windows as written in the
.scn file, and partition and placement checks replay the log. Each check
returns a list of problems; an empty list is a pass.

The benchmark models the role rules it relies on: a non-empty sensor
batch yields one record at each AgentProduct it reaches (and at each
AgentImpact, for the environment category), customer feedback one record
at each AgentCustomer, a fault one record at each AgentService. A record
made by a role agent then travels one message hop to the repository
keeper (AgentKnowledge).
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from typing import Any, Iterable, Sequence

Line = namedtuple("Line", "tick kind node agent msg_id detail")

KNOWLEDGE_PER_FAMILY = "knowledge_per_family"


def parse_log(text: str) -> list[Line]:
    out = []
    for raw in text.splitlines():
        if raw.strip():
            d = json.loads(raw)
            detail = json.loads(d["detail"]) if d["detail"] else {}
            out.append(Line(d["tick"], d["event_kind"], d["node"], d["agent"],
                            d["msg_id"], detail))
    return out


# -- scenario model -------------------------------------------------------------


class Model:
    """A scenario document with its partition windows indexed by node pair
    and the knowledge counts its stimuli imply, with and without fan-out."""

    def __init__(self, doc: dict[str, Any]) -> None:
        self.doc = doc
        self.cuts: dict[frozenset, list[tuple[int, int]]] = {}
        for w in doc["partitions"]:
            self.cuts.setdefault(frozenset((w["a"], w["b"])), []).append(
                (w["from_tick"], w["to_tick"]))
        self.expected = expected_records(self)
        self.expected_fan_out = expected_records(self, fan_out=True)

    def severed(self, a: str, b: str, tick: int) -> bool:
        return any(lo <= tick <= hi for lo, hi in self.cuts.get(frozenset((a, b)), ()))


def _first_match(doc: dict[str, Any], key: str) -> list[str]:
    for rule in doc["routing"]:
        pattern = rule["pattern"]
        if pattern == "*" or pattern == key or (
                pattern.endswith("*") and key.startswith(pattern[:-1])):
            return rule["recipients"]
    return []


def _recipients(doc: dict[str, Any], key: str, product: str | None,
                fan_out: bool) -> list[dict[str, Any]]:
    """Agents a message should reach. A product-scoped message reaches only
    the AgentProduct bound to its product, unless ``fan_out`` models a
    role selector that reaches every agent of the role."""
    agents = doc["agents"]
    chosen: dict[str, dict[str, Any]] = {}
    for selector in _first_match(doc, key):
        for agent in agents:
            if agent["id"] == selector:
                chosen[agent["id"]] = agent
            elif agent["role"] == selector:
                if (selector == "AgentProduct" and product is not None and not fan_out
                        and agent["product"] != product):
                    continue
                chosen[agent["id"]] = agent
    return [chosen[k] for k in sorted(chosen)]


def _emits(role: str, stimulus: dict[str, Any]) -> bool:
    kind = stimulus["kind"]
    if kind == "sensor_batch":
        if not stimulus["events"]:
            return False
        return role == "AgentProduct" or (
            role == "AgentImpact" and stimulus["category"] == "environment")
    if kind == "customer_feedback":
        return role == "AgentCustomer"
    if kind == "fault":
        return role == "AgentService"
    return False


def _stationary_home(agent: dict[str, Any]) -> str:
    if agent["itinerary"]:
        raise ValueError(f"agent {agent['id']} moves; its deliveries cannot be "
                         "predicted from the scenario alone")
    return agent["home"]


STIMULUS_KEYS = {"customer_feedback": "feedback.customer", "fault": "fault.reported"}


def expected_records(model: Model, fan_out: bool = False) -> Counter:
    """Knowledge records per family implied by the stimuli: one per role
    agent that turns a stimulus into a record, when neither the stimulus
    delivery nor the record's hop to the keeper crosses a severed pair."""
    doc = model.doc
    latency = doc["params"]["message_latency"]
    keepers = _recipients(doc, "knowledge.record", None, fan_out)
    out: Counter = Counter()
    for stim in doc["stimuli"]:
        if stim["kind"] == "retirement":
            continue
        key = STIMULUS_KEYS.get(stim["kind"], f"sensor.{stim.get('category', '')}")
        for agent in _recipients(doc, key, stim["product"], fan_out):
            home = _stationary_home(agent)
            if not _emits(agent["role"], stim) or model.severed(stim["node"], home,
                                                                stim["tick"]):
                continue
            for keeper in keepers:
                keeper_home = _stationary_home(keeper)
                if not model.severed(home, keeper_home, stim["tick"] + latency):
                    out[stim["product"]] += 1
    return out


# -- checks ---------------------------------------------------------------------


def _observed_records(lines: Sequence[Line]) -> Counter:
    return Counter(ln.detail["family"] for ln in lines if ln.kind == "knowledge_inserted")


def knowledge_per_family(model: Model, lines: Sequence[Line]) -> list[str]:
    observed, expected = _observed_records(lines), model.expected
    return [f"family {fam}: {observed[fam]} records, stimuli imply {expected[fam]}"
            for fam in sorted(set(observed) | set(expected))
            if observed[fam] != expected[fam]]


def matches_role_fan_out(model: Model, lines: Sequence[Line]) -> bool:
    """True when the record counts are exactly what broadcasting
    product-scoped payloads to every agent of the role would give."""
    return _observed_records(lines) == model.expected_fan_out


def trigger_and_launch(doc: dict[str, Any], lines: Sequence[Line]) -> list[str]:
    params = doc["params"]
    pipeline = params["design_ticks"] + params["manufacture_ticks"]
    problems = []
    triggers: dict[tuple[str, int], list[int]] = {}
    for ln in lines:
        if ln.kind == "design_trigger":
            triggers.setdefault((ln.detail["family"], ln.detail["next_generation"]),
                                []).append(ln.tick)
    for (fam, gen), ticks in sorted(triggers.items()):
        if len(ticks) > 1:
            problems.append(f"{fam} generation {gen - 1}: {len(ticks)} design triggers")
    launched = set()
    for ln in lines:
        if ln.kind != "generation_launched":
            continue
        key = (ln.detail["family"], ln.detail["generation"])
        launched.add(key)
        if key not in triggers:
            problems.append(f"{key[0]} generation {key[1]} launched without a trigger")
        elif ln.tick != triggers[key][0] + pipeline:
            problems.append(f"{key[0]} generation {key[1]} launched at {ln.tick}, "
                            f"trigger at {triggers[key][0]} + {pipeline}")
    for key, ticks in sorted(triggers.items()):
        if ticks[0] + pipeline <= doc["horizon"] and key not in launched:
            problems.append(f"{key[0]} generation {key[1]} triggered at {ticks[0]} "
                            "but never launched")
    return problems


def ticks_monotonic(lines: Sequence[Line]) -> list[str]:
    return [f"line {i + 1}: tick {b.tick} after tick {a.tick}"
            for i, (a, b) in enumerate(zip(lines, lines[1:]), start=1) if b.tick < a.tick]


def report_totals(doc: dict[str, Any], report: dict[str, Any],
                  lines: Sequence[Line]) -> list[str]:
    kinds = Counter(ln.kind for ln in lines)
    finished = [ln.tick for ln in lines if ln.kind == "run_finished"]
    pairs = [
        ("knowledge_by_mode", sum(report["knowledge_by_mode"].values()),
         kinds["knowledge_inserted"]),
        ("knowledge_by_source", sum(report["knowledge_by_source"].values()),
         kinds["knowledge_inserted"]),
        ("knowledge_by_activity", sum(report["knowledge_by_activity"].values()),
         kinds["knowledge_inserted"]),
        ("eol_decisions", sum(report["eol_decisions"].values()), kinds["eol_decision"]),
        ("dropped_messages", report["dropped_messages"], kinds["message_dropped"]),
        ("migrations", report["migrations"], kinds["migration_completed"]),
        ("launch_times", len(report["launch_times"]), kinds["generation_launched"]),
        ("total_ticks", report["total_ticks"], finished[-1] if finished else None),
        ("horizon", report["total_ticks"], doc["horizon"]),
    ]
    return [f"report {name} totals {got}, log has {want}"
            for name, got, want in pairs if got != want]


def report_matches(report_stdout: str, report_file_text: str) -> list[str]:
    if report_stdout == report_file_text:
        return []
    return ["`ploop report --json` differs from the report written by `ploop run`"]


def partitions_fail_closed(model: Model, lines: Sequence[Line]) -> list[str]:
    """No delivery, migration start or landing crosses a pair severed at its
    tick, and every blocked delivery and refused migration does."""
    # log kind -> (the two endpoints, must the pair be severed at that tick)
    rules = {
        "message_delivered": (lambda ln: (ln.detail["origin"], ln.node), False),
        "message_blocked": (lambda ln: (ln.detail["origin"], ln.node), True),
        "migration_started": (lambda ln: (ln.node, ln.detail["target"]), False),
        "migration_completed": (lambda ln: (ln.detail["source"], ln.node), False),
        "migration_refused": (lambda ln: (ln.node, ln.detail["target"]), True),
    }
    problems = []
    for ln in lines:
        if ln.kind in rules:
            ends, must_be_severed = rules[ln.kind]
            a, b = ends(ln)
            if model.severed(a, b, ln.tick) != must_be_severed:
                state = "open" if must_be_severed else "severed"
                problems.append(f"tick {ln.tick}: {ln.kind} {ln.msg_id or ln.agent} "
                                f"across {state} pair ({a}, {b})")
    return problems


def census_matches(lines: Sequence[Line], census: dict[str, str]) -> list[str]:
    """Replay spawns and migrations: an agent starts a migration only from
    the node it is at, lands only while in flight, and ends in exactly the
    one place ``World.census()`` reports."""
    placement: dict[str, str] = {}
    problems = []
    for ln in lines:
        if ln.kind == "agent_spawned":
            placement[ln.agent] = f"node:{ln.node}"
        elif ln.kind == "migration_started":
            if placement.get(ln.agent) != f"node:{ln.node}":
                problems.append(f"tick {ln.tick}: {ln.agent} leaves {ln.node} but is at "
                                f"{placement.get(ln.agent)}")
            placement[ln.agent] = "in_flight"
        elif ln.kind == "migration_completed":
            if placement.get(ln.agent) != "in_flight":
                problems.append(f"tick {ln.tick}: {ln.agent} lands at {ln.node} but is at "
                                f"{placement.get(ln.agent)}")
            placement[ln.agent] = f"node:{ln.node}"
    if placement != census:
        diff = sorted(set(placement.items()) ^ set(census.items()))
        problems.append(f"replay and census disagree on {len(diff)} entries, e.g. {diff[:3]}")
    return problems


def check_operation(model: Model, lines: Sequence[Line], report_stdout: str,
                    report_file_text: str, census: dict[str, str]) -> dict[str, list[str]]:
    """Every check on one operation's outputs, by name. The sha256 of the
    log across repeated runs is compared by the caller."""
    return {
        KNOWLEDGE_PER_FAMILY: knowledge_per_family(model, lines),
        "trigger_and_launch": trigger_and_launch(model.doc, lines),
        "ticks_monotonic": ticks_monotonic(lines),
        "report_totals": report_totals(model.doc, json.loads(report_stdout), lines),
        "report_matches": report_matches(report_stdout, report_file_text),
        "partitions_fail_closed": partitions_fail_closed(model, lines),
        "census_matches": census_matches(lines, census),
    }


def failed_checks(results: dict[str, list[str]]) -> list[str]:
    return [name for name, problems in results.items() if problems]


def first_problems(results: dict[str, list[str]], limit: int = 3) -> Iterable[str]:
    for name, problems in results.items():
        for problem in problems[:limit]:
            yield f"{name}: {problem}"
