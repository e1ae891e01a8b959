"""Scenario files, simulation orchestration, launch metrics, and reports.

A scenario is a single versioned JSON document (top-level ``format: 1``)
declaring nodes, products, agents, routing rules, latencies, partition
windows, scripted stimuli, and engine parameters. ``run`` executes it tick
by tick and derives the report purely from the emitted event log, so a
saved log can be re-reported later and must match.

Launch accounting: a generation's launch_time is the absolute tick at
which its manufacturing step completes. A feedback-enabled run triggers
the next generation from accumulated knowledge; the paired baseline
disables that rule and starts design at the scheduled retirement instead,
so comparing the two isolates the feedback loop as the only difference.

Loading pays per declared object only for what it checks where objects
come by the hundred: at seed 1, idle declares 1,004 agents, 277 stimuli
and 1,040 readings, and roaming 160 partitions. The loops over nodes,
agents, stimuli with their readings, and partitions test each field
inline, look a node kind or role up by value, and build a refusal's
message only when they refuse; a list of entries that passes is checked
in two C passes over its items and their keys. Every other field's type,
in a product (fleet declares 10) and its components, a latency pair,
``params`` or ``eol_policy``, is tested by one ``_field`` or ``_member``
call, which states its rule once; a node reference is tested inline
everywhere. Agents and stimuli are NamedTuples, the cheapest
immutable record, built with a bare ``tuple.__new__`` in field order
past the NamedTuple's own ``__new__``, and saving writes them without
the deep copy that ``asdict`` makes. On the idle workload (Python 3.11,
2-core x86-64 VM, best of 60 loads, less a load without the agents or
the readings), a declared agent costs 1.6-1.7 us to decode and load,
and a sensor reading 0.9 us. Building into the World (best of 150
builds, less a build without the agents or the readings) costs an agent
1.7 us and a reading 0.6 us, its batch and the message that carries it
aside. A run records each batch on its product's PEID in one step.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cache
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, NamedTuple

from .identity import (
    IntelligenceChannel,
    IntelligenceGranularity,
    IntelligenceLocation,
    PEID,
    PEIDCapability,
    SensorEvent,
    mint_product_id,
)
from .knowledge import TACIT_CATEGORIES, KnowledgeRecord, write_lines
from .lifecycle import ComponentCondition, EOLPolicy, LifecycleEvent, LifecyclePhase
from .messages import (
    KEY_CUSTOMER_FEEDBACK,
    KEY_FAULT_REPORTED,
    CustomerFeedback,
    FaultReported,
    SensorBatch,
    sensor_routing_key,
)
from .runtime import (
    EVT_DESIGN_TRIGGER,
    EVT_EOL_DECISION,
    EVT_GENERATION_LAUNCHED,
    EVT_KNOWLEDGE_INSERTED,
    EVT_MESSAGE_DROPPED,
    EVT_MIGRATION_COMPLETED,
    EVT_RUN_FINISHED,
    EVT_RUN_STARTED,
    EVENTS,
    Action,
    AgentRole,
    InvalidRoutingTable,
    LatencyMap,
    LoggedEvent,
    NodeKind,
    PartitionWindow,
    RoutingRule,
    RoutingTable,
    SimParams,
    World,
    _new_tuple,
    _pair,
    _ROLES,
    detail_str,  # unused here; perfbench traces ploop.harness.detail_str by name
    next_generation_id,
    tick,
)

SCENARIO_FORMAT = 1


class ScenarioError(Exception):
    """Base class for scenario loading failures."""


class ScenarioParseError(ScenarioError):
    """File is not valid JSON; message carries line information."""


class ScenarioValidationError(ScenarioError):
    """Document parsed but violates scenario rules."""


class IncomparableRuns(Exception):
    """A report required for comparison lacks a launch time."""


# -- scenario declarations ----------------------------------------------------


@dataclass(frozen=True)
class NodeDecl:
    id: str
    kind: NodeKind


@dataclass(frozen=True)
class ProductDecl:
    serial: str
    uri: str
    generation: int
    phase: LifecyclePhase
    node: str
    components: tuple[ComponentCondition, ...] = ()
    capabilities: tuple[PEIDCapability, ...] = tuple(PEIDCapability)
    memory: dict[str, Any] = field(default_factory=dict)   # saved; the engine never reads it
    intelligence_location: IntelligenceLocation | None = None


# A scenario declares agents and stimuli by the hundred, so they are
# NamedTuples, the cheapest immutable record to build, and the loader builds
# them with a bare tuple.__new__ in field order: an agent or a sensor batch
# 0.2 us, where the NamedTuple's own __new__ takes 0.33 and 0.37 us and a
# frozen dataclass 1.3 us (Python 3.11, 2-core x86-64 VM).
# tests/test_bare_build.py pins each against its constructor. asdict keeps
# a NamedTuple a tuple, so scenario_to_dict writes them with _asdict.


class AgentDecl(NamedTuple):
    id: str
    role: AgentRole
    home: str
    product: str | None = None
    itinerary: tuple[str, ...] = ()


class Stimulus(NamedTuple):
    """One scripted input; kind selects which extra fields apply."""

    tick: int
    node: str
    kind: str                      # sensor_batch | customer_feedback | fault | retirement
    product: str
    category: str = ""             # sensor_batch
    note: str = ""                 # sensor_batch
    events: tuple[dict[str, Any], ...] = ()   # sensor_batch: sensor/value/unit
    text: str = ""                 # customer_feedback
    detail: str = ""               # fault


# The keys a stimulus of each kind may carry.
_STIMULUS_KEYS = {
    kind: frozenset(("tick", "node", "kind", "product", *extra))
    for kind, extra in (("sensor_batch", ("category", "note", "events")),
                        ("customer_feedback", ("text",)),
                        ("fault", ("detail",)),
                        ("retirement", ()))
}
STIMULUS_KINDS = tuple(_STIMULUS_KEYS)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    horizon: int
    nodes: tuple[NodeDecl, ...]
    products: tuple[ProductDecl, ...]
    agents: tuple[AgentDecl, ...]
    routing: RoutingTable
    latency: LatencyMap
    partitions: tuple[PartitionWindow, ...]
    stimuli: tuple[Stimulus, ...]
    params: SimParams


# -- load / save --------------------------------------------------------------


def _require(cond: bool, message: str, *args: Any) -> None:
    """Raise unless cond; the message is formatted with args only then."""
    if not cond:
        raise ScenarioValidationError(message.format(*args))


def _member(members: dict[str, Any], raw: Any, what: str, *args: Any) -> Any:
    """The member whose value raw is, looked up in members, an Enum's
    members by value in declaration order. A miss is refused, listing those
    values, with what formatted by args only then."""
    member = members.get(raw) if type(raw) is str else None
    if member is None:
        raise ScenarioValidationError(
            f"{what.format(*args)}: {raw!r} is not one of {', '.join(members)}")
    return member


# The exact types each JSON kind decodes to. Matching the type exactly
# keeps bool, a subclass of int, out of integers and numbers.
_KINDS = {
    "an object": (dict,),
    "a list": (list,),
    "an integer": (int,),
    "a number": (int, float),
    "a boolean": (bool,),
    "a string": (str,),
    "an integer or null": (int, type(None)),
}
_NUMBER = _KINDS["a number"]
# For checking every item's type in one C pass: set.issuperset(map(type, items)).
_DICTS = frozenset(_KINDS["an object"])
_STRS = frozenset(_KINDS["a string"])

# Each member by its value, for _member.
_NODE_KINDS = {kind.value: kind for kind in NodeKind}
_CAPABILITIES = {cap.value: cap for cap in PEIDCapability}
_PHASES = {phase.value: phase for phase in LifecyclePhase}
_CHANNELS = {channel.value: channel for channel in IntelligenceChannel}
_GRANULARITIES = {size.value: size for size in IntelligenceGranularity}
# An absent capabilities list declares all five, in declaration order.
_ALL_CAPABILITY_VALUES = [cap.value for cap in PEIDCapability]


def _field(raw: dict[str, Any], key: str, kind: str, default: Any = MISSING,
           what: str = "") -> Any:
    """raw[key], or default when absent, required to be of the named kind.
    An absent key with no default is refused as missing, a null as null."""
    value = raw.get(key, default)
    if type(value) not in _KINDS[kind]:
        if value is MISSING:
            raise ScenarioValidationError(f"{what}{key} is missing")
        got = "null" if value is None else type(value).__name__
        raise ScenarioValidationError(f"{what}{key} must be {kind}, got {got}")
    return value


def _entries(raw: dict[str, Any], key: str, what: str = "",
             known: frozenset[str] | None = None, *args: Any) -> list[dict[str, Any]]:
    """The list under raw[key] (empty when absent), each entry an object
    with no key outside known, when known is given. Two C passes over the
    entries and their keys check an accepted list; only a refused one is
    walked in Python, to name its first bad entry, with what formatted by
    args."""
    entries = raw.get(key, [])
    if (type(entries) is list and _DICTS.issuperset(map(type, entries))
            and (known is None or known.issuperset(chain.from_iterable(entries)))):
        return entries
    what = what.format(*args)
    _field(raw, key, "a list", [], what)
    for i, entry in enumerate(entries):
        if type(entry) is not dict:
            raise ScenarioValidationError(f"{what}{key}[{i}] must be an object")
        if known is not None:
            _unknown_keys(entry, known, f"{what}{key}[{i}]")
    return entries


def _counts(raw: dict[str, Any], key: str) -> dict[str, int]:
    """The name -> count object under raw[key]."""
    counts = _field(raw, key, "an object")
    for name in counts:
        _field(counts, name, "an integer", what=f"{key}.")
    return dict(counts)


def _keys(cls: Any) -> frozenset[str]:
    """The field names of a dataclass: the keys of the object it is read from."""
    return frozenset(f.name for f in fields(cls))


# The keys the loader reads from each object; any other key is refused.
# Each is the field set of the class the object is read into, except the
# latency pair and the sensor event, which no class of that shape holds.
# A product's memory is free-form and is not checked.
_SCENARIO_KEYS = _keys(Scenario) | {"format"}
_NODE_KEYS = _keys(NodeDecl)
_PRODUCT_KEYS = _keys(ProductDecl)
_COMPONENT_KEYS = _keys(ComponentCondition)
_LOCATION_KEYS = _keys(IntelligenceLocation)
_AGENT_KEYS = frozenset(AgentDecl._fields)
_RULE_KEYS = _keys(RoutingRule)
_LATENCY_KEYS = _keys(LatencyMap)
_PAIR_KEYS = frozenset(("a", "b", "ticks"))
_PARTITION_KEYS = _keys(PartitionWindow)
_EVENT_ORDER = ("sensor", "value", "unit")   # the file's order
_EVENT_KEYS = frozenset(_EVENT_ORDER)
_PARAMS_KEYS = _keys(SimParams)
_POLICY_KEYS = _keys(EOLPolicy)

# The JSON kind of each annotated field type that _build reads.
_TYPE_KINDS = {"int": "an integer", "float": "a number", "bool": "a boolean", "str": "a string"}


@cache
def _reads(cls: Any) -> tuple[tuple[str, str, bool], ...]:
    """The fields _build reads for cls: name, JSON kind and whether the field
    is required, having no default. A field of another type is given."""
    return tuple((f.name, _TYPE_KINDS[f.type], f.default is MISSING)
                 for f in fields(cls) if f.type in _TYPE_KINDS)


def _build(cls: Any, raw: dict[str, Any], what: str = "", **given: Any) -> Any:
    """cls from given and the keys of raw, each of its field's JSON kind. A
    field with a default is read only when present, so an absent one takes
    the dataclass's own default."""
    return cls(**given, **{name: _field(raw, name, kind, what=what)
                           for name, kind, required in _reads(cls) if required or name in raw})


def _unknown_keys(raw: dict[str, Any], known: frozenset[str], what: str) -> None:
    """Refuse the keys of raw outside known, naming them and the object.
    The per-stimulus loop tests ``known.issuperset(raw)`` itself first, so
    its success path makes no call; a cold object is checked by this call
    alone."""
    if not known.issuperset(raw):
        unknown = ", ".join(map(repr, sorted(raw.keys() - known)))
        raise ScenarioValidationError(f"{what}: unknown key {unknown}")


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    """The scenario a document declares, or ScenarioValidationError naming
    the first rule it breaks. The loops over nodes, agents, stimuli and
    partitions inline their checks and build a refusal's message only when
    they refuse."""
    _require(isinstance(doc, dict), "scenario document must be a JSON object")
    _require(doc.get("format") == SCENARIO_FORMAT,
             "unsupported scenario format {!r}, expected {}", doc.get("format"), SCENARIO_FORMAT)
    _unknown_keys(doc, _SCENARIO_KEYS, "scenario")
    name = doc.get("name")
    _require(isinstance(name, str) and bool(name), "scenario name must be a non-empty string")
    # The run files are named after it, inside the output directory.
    _require(not any(c in name for c in "/\\\0"),
             "scenario name {!r} must be a file name, without '/', '\\' or NUL", name)
    seed = _field(doc, "seed", "an integer", 0)
    _require(seed >= 0, "seed must be a non-negative integer")
    horizon = _field(doc, "horizon", "an integer")
    _require(horizon >= 1, "horizon must be an integer >= 1")

    nodes: list[NodeDecl] = []
    node_ids: set[str] = set()
    for raw in _entries(doc, "nodes", known=_NODE_KEYS):
        node_id = raw.get("id")
        if not (isinstance(node_id, str) and node_id):
            raise ScenarioValidationError("node id must be a non-empty string")
        if node_id in node_ids:
            raise ScenarioValidationError(f"duplicate node id {node_id!r}")
        node_ids.add(node_id)
        nodes.append(NodeDecl(node_id, _member(_NODE_KINDS, raw.get("kind"), "node {}", node_id)))
    _require(bool(nodes), "at least one node is required")

    products: list[ProductDecl] = []
    product_ids: set[str] = set()
    successors: dict[str, str] = {}   # next generation's id -> its parent product
    for raw in _entries(doc, "products", known=_PRODUCT_KEYS):
        serial = _field(raw, "serial", "a string", what="product ")
        what = f"product {serial!r}: "
        uri = _field(raw, "uri", "a string", what=what)
        values = _field(raw, "capabilities", "a list", _ALL_CAPABILITY_VALUES, what)
        capabilities = tuple([_member(_CAPABILITIES, c, "product {!r} capability", serial)
                              for c in values])
        try:
            product_id = mint_product_id(serial, uri)
            PEID(product_id, capabilities)   # the device's own rules
        except ValueError as exc:
            raise ScenarioValidationError(f"{what}{exc}") from None
        rendered = product_id.render()
        node = raw.get("node")
        if not (isinstance(node, str) and node in node_ids):
            raise ScenarioValidationError(f"product {serial!r} references unknown node {node!r}")
        generation = _field(raw, "generation", "an integer", 1, what)
        _require(generation >= 1, "product {!r}: generation must be an integer >= 1", serial)
        components = []
        for c in _entries(raw, "components", "product {!r}: ", _COMPONENT_KEYS, serial):
            try:
                components.append(_build(ComponentCondition, c, f"{what}component "))
            except ValueError as exc:
                raise ScenarioValidationError(f"product {serial!r} component: {exc}") from None
        location_meta = None
        if raw.get("intelligence_location") is not None:
            meta_raw = _field(raw, "intelligence_location", "an object", what=what)
            _unknown_keys(meta_raw, _LOCATION_KEYS, f"product {serial!r} intelligence_location")
            location_meta = IntelligenceLocation(
                _member(_CHANNELS, meta_raw.get("channel"),
                        "product {!r} intelligence channel", serial),
                _member(_GRANULARITIES, meta_raw.get("granularity"),
                        "product {!r} intelligence granularity", serial))
        phase = _member(_PHASES, raw.get("phase"), "product {!r} phase", serial)
        memory = _field(raw, "memory", "an object", {}, what)
        if rendered in product_ids:
            raise ScenarioValidationError(f"duplicate product {rendered!r}")
        product_ids.add(rendered)
        products.append(ProductDecl(serial, uri, generation, phase, node, tuple(components),
                                    capabilities, dict(memory), location_meta))
        successors[next_generation_id(product_id, generation + 1).render()] = rendered
    for successor, parent in successors.items():
        if successor in product_ids:
            raise ScenarioValidationError(f"product {successor!r} takes the id that the next "
                                          f"generation of product {parent!r} starts under")

    agents: list[AgentDecl] = []
    agent_ids: set[str] = set()
    bound: dict[str, str] = {}   # product -> the AgentProduct that speaks for it
    for raw in _entries(doc, "agents", known=_AGENT_KEYS):
        get = raw.get
        agent_id = get("id")
        if not (isinstance(agent_id, str) and agent_id):
            raise ScenarioValidationError("agent id must be a non-empty string")
        if agent_id in agent_ids:
            raise ScenarioValidationError(f"duplicate agent id {agent_id!r}")
        agent_ids.add(agent_id)
        value = get("role")
        role = _ROLES.get(value) if type(value) is str else None
        if role is None:
            role = _member(_ROLES, value, "agent {} role", agent_id)
        home = get("home")
        if not (isinstance(home, str) and home in node_ids):
            raise ScenarioValidationError(f"agent {agent_id!r} references unknown node {home!r}")
        product = get("product")
        if product is not None and not (isinstance(product, str) and product in product_ids):
            raise ScenarioValidationError(
                f"agent {agent_id!r} references unknown product {product!r}")
        if role is AgentRole.PRODUCT:
            if product is None:
                raise ScenarioValidationError(
                    f"agent {agent_id!r}: AgentProduct requires a product binding")
            if product in bound:
                raise ScenarioValidationError(
                    f"agent {agent_id!r}: product {product!r} is already bound to "
                    f"AgentProduct {bound[product]!r}")
            bound[product] = agent_id
        itinerary = get("itinerary", [])
        if type(itinerary) is not list:
            _field(raw, "itinerary", "a list", what=f"agent {agent_id!r}: ")
        # Two C passes accept a list of known node ids.
        if itinerary and not (_STRS.issuperset(map(type, itinerary))
                              and node_ids.issuperset(itinerary)):
            for stop in itinerary:
                if not (isinstance(stop, str) and stop in node_ids):
                    raise ScenarioValidationError(
                        f"agent {agent_id!r} itinerary references unknown node {stop!r}")
        agents.append(_new_tuple(AgentDecl, (agent_id, role, home, product, tuple(itinerary))))

    rules = []
    for raw in _entries(doc, "routing", known=_RULE_KEYS):
        pattern = _field(raw, "pattern", "a string", "", "routing rule ")
        recipients = tuple(_field(raw, "recipients", "a list", [], "routing rule "))
        _require(all(type(r) is str for r in recipients),
                 "routing rule recipients must be strings, got {!r}", list(recipients))
        # No agent is spawned after loading, so any other name never matches.
        for r in recipients:
            _require(r in _ROLES or r in agent_ids, "routing rule {!r}: recipient {!r} "
                     "names no role and no declared agent", pattern, r)
        rules.append(RoutingRule(pattern, recipients))
    try:
        routing = RoutingTable(rules=tuple(rules))
    except InvalidRoutingTable as exc:
        raise ScenarioValidationError(f"routing: {exc}") from None

    latency_raw = _field(doc, "latency", "an object", {})
    _unknown_keys(latency_raw, _LATENCY_KEYS, "latency")
    pairs: dict[tuple[str, str], int] = {}
    for raw in _entries(latency_raw, "pairs", "latency ", _PAIR_KEYS):
        a, b = raw.get("a"), raw.get("b")
        if not (isinstance(a, str) and a in node_ids and isinstance(b, str) and b in node_ids):
            raise ScenarioValidationError(f"latency pair ({a!r}, {b!r}) unknown node")
        if a == b:
            raise ScenarioValidationError(
                f"latency pair ({a!r}, {b!r}) must name two distinct nodes")
        ticks_ = _field(raw, "ticks", "an integer", what="latency ")
        _require(ticks_ >= 1, "latency ticks must be an integer >= 1")
        key = _pair(a, b)
        if key in pairs:
            raise ScenarioValidationError(f"duplicate latency pair ({a!r}, {b!r})")
        pairs[key] = ticks_
    default_latency = _field(latency_raw, "default", "an integer", LatencyMap.default, "latency ")
    _require(default_latency >= 1, "default latency must be an integer >= 1")
    latency = LatencyMap(default=default_latency, pairs=pairs)

    partitions: list[PartitionWindow] = []
    for raw in _entries(doc, "partitions", known=_PARTITION_KEYS):
        a, b = raw.get("a"), raw.get("b")
        if not (isinstance(a, str) and a in node_ids and isinstance(b, str) and b in node_ids):
            raise ScenarioValidationError(f"partition ({a!r}, {b!r}) unknown node")
        if a == b:
            raise ScenarioValidationError(f"partition ({a!r}, {b!r}) must name two distinct nodes")
        lo, hi = raw.get("from_tick"), raw.get("to_tick")
        if type(lo) is not int or type(hi) is not int:
            for key in ("from_tick", "to_tick"):
                _field(raw, key, "an integer", what=f"partition ({a!r}, {b!r}): ")
        if not 0 <= lo <= hi:
            raise ScenarioValidationError(
                f"partition ({a!r}, {b!r}) needs 0 <= from_tick <= to_tick")
        partitions.append(PartitionWindow(a, b, lo, hi))

    stimuli: list[Stimulus] = []
    for i, raw in enumerate(_entries(doc, "stimuli")):
        get = raw.get
        kind = get("kind")
        known = _STIMULUS_KEYS.get(kind) if type(kind) is str else None
        if known is None:
            raise ScenarioValidationError(
                f"stimulus kind {kind!r} is not one of {', '.join(STIMULUS_KINDS)}")
        if not known.issuperset(raw):
            _unknown_keys(raw, known, f"stimuli[{i}] ({kind})")
        tick_ = get("tick")
        if type(tick_) is not int:
            _field(raw, "tick", "an integer", what="stimulus ")
        if not 1 <= tick_ <= horizon:
            raise ScenarioValidationError(
                f"stimulus tick {tick_!r} must be within 1..{horizon}")
        node = get("node")
        if not (isinstance(node, str) and node in node_ids):
            raise ScenarioValidationError(f"stimulus references unknown node {node!r}")
        product = get("product")
        if not (isinstance(product, str) and product in product_ids):
            raise ScenarioValidationError(f"stimulus references unknown product {product!r}")
        if kind == "sensor_batch":
            events = tuple(_entries(raw, "events", "stimulus ", _EVENT_KEYS))
            category, note = get("category", ""), get("note", "")
            if category not in TACIT_CATEGORIES:
                raise ScenarioValidationError(
                    f"sensor_batch category {category!r} must be one of "
                    f"{', '.join(TACIT_CATEGORIES)}")
            if type(note) is not str:
                raise ScenarioValidationError("sensor_batch note must be a string")
            for event in events:
                # No key is unknown, so three keys are all of them.
                if not (len(event) == 3 and type(event["sensor"]) is str
                        and type(event["unit"]) is str and type(event["value"]) in _NUMBER):
                    raise ScenarioValidationError(
                        "sensor_batch events need sensor and unit strings, "
                        "and the value must be a number")
            stim = (tick_, node, kind, product, category, note, events, "", "")
        else:
            # No other kind carries events, and each carries at most its own text.
            text, detail = get("text", ""), get("detail", "")
            if kind == "customer_feedback" and not (type(text) is str and text):
                raise ScenarioValidationError("customer_feedback requires non-empty text")
            if kind == "fault" and not (type(detail) is str and detail):
                raise ScenarioValidationError("fault requires a non-empty detail")
            stim = (tick_, node, kind, product, "", "", (), text, detail)
        stimuli.append(_new_tuple(Stimulus, stim))

    params_raw = _field(doc, "params", "an object", {})
    _unknown_keys(params_raw, _PARAMS_KEYS, "params")
    try:
        policy_raw = _field(params_raw, "eol_policy", "an object", {})
        _unknown_keys(policy_raw, _POLICY_KEYS, "eol_policy")
        params = _build(SimParams, params_raw, eol_policy=_build(EOLPolicy, policy_raw))
    except Exception as exc:
        raise ScenarioValidationError(f"params: {exc}") from None

    return Scenario(
        name=name,
        seed=seed,
        horizon=horizon,
        nodes=tuple(nodes),
        products=tuple(products),
        agents=tuple(agents),
        routing=routing,
        latency=latency,
        partitions=tuple(partitions),
        stimuli=tuple(stimuli),
        params=params,
    )


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Canonical document form; save(load(x)) is byte-stable. Field order
    is file order, so asdict writes all but the rule list, the sorted
    latency pairs, and the agents and stimuli, NamedTuples that asdict
    would copy leaf by leaf only to keep them tuples; they are left out of
    its copy and written with _asdict, each stimulus with its own kind's
    keys."""
    doc = {"format": SCENARIO_FORMAT, **asdict(replace(scenario, agents=(), stimuli=()))}
    doc["routing"] = doc["routing"]["rules"]
    doc["latency"]["pairs"] = [{"a": a, "b": b, "ticks": ticks_}
                               for (a, b), ticks_ in sorted(scenario.latency.pairs.items())]
    doc["agents"] = [agent._asdict() for agent in scenario.agents]
    doc["stimuli"] = [{k: v for k, v in s._asdict().items() if k in _STIMULUS_KEYS[s.kind]}
                      for s in scenario.stimuli]
    for s in doc["stimuli"]:
        if "events" in s:
            s["events"] = [{k: e[k] for k in _EVENT_ORDER} for e in s["events"]]
    return doc


def not_utf8(path: Path | str) -> str:
    """Where a file first fails to decode as UTF-8: its line, the byte and
    the byte's offset in the file, found by reading it again as bytes."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        return f"{path}: {exc}"
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return f"{path}:{line}: not UTF-8 (byte 0x{data[exc.start]:02x} at offset {exc.start})"
    return f"{path}: not UTF-8"


def load_json(path: Path | str) -> Any:
    """The JSON document in a file, with the line and column of a syntax error;
    an unreadable or non-UTF-8 file is a parse error, and a non-UTF-8 one
    names the line and the offset of its first bad byte."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        raise ScenarioParseError(not_utf8(path)) from None
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ScenarioParseError(f"{path}: nests too deeply to decode") from None


def load_scenario(path: Path | str) -> Scenario:
    """The scenario in a file; an error names the file first."""
    raw = load_json(path)
    try:
        return scenario_from_dict(raw)
    except ScenarioValidationError as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from None


def save_scenario(scenario: Scenario, path: Path | str) -> None:
    write_lines((path, (json.dumps(scenario_to_dict(scenario), indent=2),)))


# -- world construction and execution ----------------------------------------


def build_world(scenario: Scenario, seed_override: int | None = None) -> World:
    seed = scenario.seed if seed_override is None else seed_override
    world = World(
        routing=scenario.routing,
        latency=scenario.latency,
        params=scenario.params,
        partitions=scenario.partitions,
    )
    world.log(
        EVT_RUN_STARTED,
        detail={"scenario": scenario.name, "seed": seed, "horizon": scenario.horizon},
    )
    for decl in scenario.nodes:
        world.register_node(decl.kind, decl.id)
    for decl in scenario.products:
        world.register_product(
            product_id=mint_product_id(decl.serial, decl.uri),
            generation=decl.generation,
            phase=decl.phase,
            components=decl.components,
            capabilities=decl.capabilities,
            node=decl.node,
            location_meta=decl.intelligence_location,
        )
    products = world.products
    for agent_id, role, home, product, itinerary in scenario.agents:
        product_id = None if product is None else products[product].product_id
        world.spawn_agent(role, home, product_id, itinerary, agent_id=agent_id)
    for stim in scenario.stimuli:
        product = products[stim.product]
        if stim.kind == "retirement":
            world.schedule_action(stim.tick, Action(LifecycleEvent.RETIREMENT_REQUESTED, product.key))
            continue
        if stim.kind == "sensor_batch":
            at, events = stim.tick, []
            for e in stim.events:
                events.append(SensorEvent(e["sensor"], e["value"], e["unit"], at))
            payload = SensorBatch(product.product_id, product.generation, stim.category,
                                  tuple(events), stim.note)
            key = sensor_routing_key(stim.category)
        elif stim.kind == "customer_feedback":
            payload = CustomerFeedback(
                product_id=product.product_id,
                generation=product.generation,
                text=stim.text,
            )
            key = KEY_CUSTOMER_FEEDBACK
        else:
            payload = FaultReported(
                product_id=product.product_id,
                generation=product.generation,
                detail=stim.detail,
            )
            key = KEY_FAULT_REPORTED
        world.send(key, payload, sender=stim.node, origin_node=stim.node, deliver_at=stim.tick)
    return world


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class LaunchTime:
    family: str
    generation: int
    tick: int


@dataclass(frozen=True)
class RunReport:
    scenario: str
    seed: int
    total_ticks: int
    launch_times: tuple[LaunchTime, ...]
    loop_closure_latency: int | None
    knowledge_by_mode: dict[str, int]
    knowledge_by_source: dict[str, int]
    knowledge_by_activity: dict[str, int]
    eol_decisions: dict[str, int]
    dropped_messages: int
    migrations: int

    @classmethod
    def from_dict(cls, raw: Any) -> "RunReport":
        """A report read back from JSON; each field must have its JSON type."""
        _require(type(raw) is dict, "a report must be an object")
        _unknown_keys(raw, _REPORT_KEYS, "report")
        launch_times = []
        for i, lt in enumerate(_field(raw, "launch_times", "a list")):
            _require(type(lt) is dict, "launch_times[{}] must be an object", i)
            _unknown_keys(lt, _LAUNCH_KEYS, f"launch_times[{i}]")
            launch_times.append(_build(LaunchTime, lt, f"launch_times[{i}]."))
        return cls(
            scenario=_field(raw, "scenario", "a string"),
            seed=_field(raw, "seed", "an integer"),
            total_ticks=_field(raw, "total_ticks", "an integer"),
            launch_times=tuple(launch_times),
            loop_closure_latency=_field(raw, "loop_closure_latency", "an integer or null"),
            knowledge_by_mode=_counts(raw, "knowledge_by_mode"),
            knowledge_by_source=_counts(raw, "knowledge_by_source"),
            knowledge_by_activity=_counts(raw, "knowledge_by_activity"),
            eol_decisions=_counts(raw, "eol_decisions"),
            dropped_messages=_field(raw, "dropped_messages", "an integer"),
            migrations=_field(raw, "migrations", "an integer"),
        )

    def to_text(self) -> str:
        def counts(label: str, mapping: dict[str, int]) -> str:
            if not mapping:
                return f"{label:<22}(none)"
            body = "  ".join(f"{k}={v}" for k, v in sorted(mapping.items()))
            return f"{label:<22}{body}"

        lines = [
            f"{'scenario':<22}{self.scenario}",
            f"{'seed':<22}{self.seed}",
            f"{'total ticks':<22}{self.total_ticks}",
        ]
        if self.launch_times:
            for lt in self.launch_times:
                lines.append(
                    f"{'launch':<22}generation {lt.generation} of {lt.family} "
                    f"at tick {lt.tick}"
                )
        else:
            lines.append(f"{'launch':<22}(no next generation launched)")
        closure = "(no trigger)" if self.loop_closure_latency is None \
            else f"{self.loop_closure_latency} ticks"
        lines.append(f"{'loop closure':<22}{closure}")
        lines.append(counts("knowledge by mode", self.knowledge_by_mode))
        lines.append(counts("knowledge by source", self.knowledge_by_source))
        lines.append(counts("knowledge by activity", self.knowledge_by_activity))
        lines.append(counts("eol decisions", self.eol_decisions))
        lines.append(f"{'dropped messages':<22}{self.dropped_messages}")
        lines.append(f"{'migrations':<22}{self.migrations}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The report as written to ``<name>.report.json``: its fields in
        declaration order, read without the deep copy that ``asdict`` makes."""
        doc = {**vars(self), "launch_times": [vars(lt) for lt in self.launch_times]}
        return json.dumps(doc, indent=2) + "\n"


# The keys a report is read back from; any other key is refused.
_REPORT_KEYS, _LAUNCH_KEYS = _keys(RunReport), _keys(LaunchTime)
# The JSON kind of each detail key of the events a report reads, from the
# type runtime.EVENTS declares for it.
_STARTED, _INSERTED, _LAUNCHED, _EOL = (
    {key: _TYPE_KINDS[type_.__name__] for key, type_ in EVENTS[kind][1].items()}
    for kind in (EVT_RUN_STARTED, EVT_KNOWLEDGE_INSERTED, EVT_GENERATION_LAUNCHED,
                 EVT_EOL_DECISION))
# The kinds compute_report acts on after the first event; it skips the rest.
_REPORTED = frozenset((EVT_KNOWLEDGE_INSERTED, EVT_DESIGN_TRIGGER, EVT_GENERATION_LAUNCHED,
                       EVT_EOL_DECISION, EVT_MESSAGE_DROPPED, EVT_MIGRATION_COMPLETED,
                       EVT_RUN_STARTED))


def compute_report(events: Iterable[LoggedEvent]) -> RunReport:
    """Derive the run report purely from the events of a run log: the
    world's events in ``run``, a saved log's decoded lines in ``ploop report``.
    A log holds one run: its first event is ``run_started``, no second one
    follows, and its last event is ``run_finished``, whose tick is the run's
    length. Each detail field read must be present, of the type that
    ``runtime.EVENTS`` declares for it. Each rule is
    checked as its event is read, the last after the last one, so a reader
    that counts the lines it yields can name the line refused. An event of
    a kind not in ``_REPORTED`` costs one set lookup; no detail is mutated."""
    first_record_tick: int | None = None
    first_trigger_tick: int | None = None
    launch_times: list[LaunchTime] = []
    by_mode: dict[str, int] = {}
    by_source: dict[str, int] = {}
    by_activity: dict[str, int] = {}
    eol_decisions: dict[str, int] = {}
    dropped = 0
    migrations = 0

    events = iter(events)
    first = next(events, None)
    if first is None:
        raise ScenarioValidationError("no run_started line")
    tick, kind, _, _, _, detail = first
    if kind != EVT_RUN_STARTED:
        raise ScenarioValidationError(f"the first event is {kind!r}, not run_started")
    scenario = _field(detail, "scenario", _STARTED["scenario"], what="run_started ")
    seed = _field(detail, "seed", _STARTED["seed"], what="run_started ")
    _field(detail, "horizon", _STARTED["horizon"], what="run_started ")
    # Each count a record adds to, with the detail key it reads and its kind.
    counted = ((by_mode, "mode", _INSERTED["mode"]), (by_source, "source", _INSERTED["source"]),
               (by_activity, "activity", _INSERTED["activity"]))
    reported = _REPORTED
    for tick, kind, _, _, _, detail in events:
        if kind not in reported:
            continue
        # migration_completed first: a mobile agent logs one per hop.
        if kind == EVT_MIGRATION_COMPLETED:
            migrations += 1
        elif kind == EVT_KNOWLEDGE_INSERTED:
            if first_record_tick is None:
                first_record_tick = tick
            for counts, key, json_kind in counted:
                value = _field(detail, key, json_kind, what="knowledge_inserted ")
                counts[value] = counts.get(value, 0) + 1
        elif kind == EVT_DESIGN_TRIGGER:
            if first_trigger_tick is None:
                first_trigger_tick = tick
        elif kind == EVT_GENERATION_LAUNCHED:
            launch_times.append(LaunchTime(
                _field(detail, "family", _LAUNCHED["family"], what="generation_launched "),
                _field(detail, "generation", _LAUNCHED["generation"],
                       what="generation_launched "),
                tick,
            ))
        elif kind == EVT_EOL_DECISION:
            decision = _field(detail, "decision", _EOL["decision"], what="eol_decision ")
            eol_decisions[decision] = eol_decisions.get(decision, 0) + 1
        elif kind == EVT_MESSAGE_DROPPED:
            dropped += 1
        elif kind == EVT_RUN_STARTED:
            raise ScenarioValidationError(
                f"a second run_started event, at tick {tick}: a log holds one run")
    if kind != EVT_RUN_FINISHED:
        raise ScenarioValidationError(f"the last event is {kind!r}, not run_finished")

    closure = None
    if first_trigger_tick is not None and first_record_tick is not None:
        closure = first_trigger_tick - first_record_tick
    return RunReport(
        scenario=scenario,
        seed=seed,
        total_ticks=tick,
        launch_times=tuple(sorted(launch_times, key=lambda lt: (lt.tick, lt.family, lt.generation))),
        loop_closure_latency=closure,
        knowledge_by_mode=dict(sorted(by_mode.items())),
        knowledge_by_source=dict(sorted(by_source.items())),
        knowledge_by_activity=dict(sorted(by_activity.items())),
        eol_decisions=dict(sorted(eol_decisions.items())),
        dropped_messages=dropped,
        migrations=migrations,
    )


@dataclass(frozen=True)
class RunResult:
    """A finished run: the world, whose events are the log, and the report."""

    world: World
    report: RunReport

    @property
    def log_lines(self) -> tuple[str, ...]:
        """The log as written to ``<name>.events.jsonl``, one line per event."""
        return tuple(self.world.log_lines())


def run(
    scenario: Scenario,
    seed_override: int | None = None,
    out_dir: Path | str | None = None,
) -> RunResult:
    """Execute ticks 1..horizon and report from the log alone.

    Fault events inside the simulation are logged, never raised. When
    out_dir is given, the event log, both report forms, and the knowledge
    repository are written there.
    """
    world = build_world(scenario, seed_override)
    for _ in range(scenario.horizon):
        tick(world)
    world.log(EVT_RUN_FINISHED, detail={"ticks": scenario.horizon})
    report = compute_report(world.events)
    if out_dir is not None:
        write_run_files(scenario.name, world, report, out_dir)
    return RunResult(world=world, report=report)


def write_run_files(
    name: str, world: World, report: RunReport, out_dir: Path | str
) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "events": out / f"{name}.events.jsonl",
        "report_json": out / f"{name}.report.json",
        "report_text": out / f"{name}.report.txt",
        "repository": out / f"{name}.repository.jsonl",
    }
    # Each report text ends in the newline that write_lines adds.
    write_lines((paths["events"], world.log_lines()),
                (paths["report_json"], (report.to_json()[:-1],)),
                (paths["report_text"], (report.to_text()[:-1],)),
                (paths["repository"],
                 map(KnowledgeRecord.to_json_line, world.repository.records)))
    return paths


# -- comparison ---------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonSummary:
    feedback_launch_tick: int
    baseline_launch_tick: int
    delta: int
    improvement: bool

    def to_text(self) -> str:
        verdict = "improvement" if self.improvement else "no improvement"
        return (
            f"feedback launch tick   {self.feedback_launch_tick}\n"
            f"baseline launch tick   {self.baseline_launch_tick}\n"
            f"delta                  {self.delta} ({verdict})\n"
        )


def compare(report_feedback: RunReport, report_baseline: RunReport) -> ComparisonSummary:
    """Quantify the launch-phase gain of the feedback run over the
    baseline; positive delta means the feedback run launched earlier."""
    for report in (report_feedback, report_baseline):
        if not report.launch_times:
            raise IncomparableRuns(f"report {report.scenario!r} has no completed launch")
    feedback_tick = min(lt.tick for lt in report_feedback.launch_times)
    baseline_tick = min(lt.tick for lt in report_baseline.launch_times)
    delta = baseline_tick - feedback_tick
    return ComparisonSummary(
        feedback_launch_tick=feedback_tick,
        baseline_launch_tick=baseline_tick,
        delta=delta,
        improvement=delta > 0,
    )
