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
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .identity import (
    IntelligenceChannel,
    IntelligenceGranularity,
    IntelligenceLocation,
    PEIDCapability,
    SensorEvent,
    mint_product_id,
)
from .knowledge import TACIT_CATEGORIES
from .lifecycle import ComponentCondition, EOLPolicy, LifecyclePhase
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
    Action,
    ActionKind,
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
    detail_str,  # unused here; perfbench traces ploop.harness.detail_str by name
    tick,
)

logger = logging.getLogger(__name__)

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
    node_id: str
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
    memory: dict[str, Any] = field(default_factory=dict)
    location_meta: IntelligenceLocation | None = None

    @property
    def rendered_id(self) -> str:
        return f"{self.serial}@{self.uri}"


@dataclass(frozen=True)
class AgentDecl:
    agent_id: str
    role: AgentRole
    home: str
    product: str | None = None
    itinerary: tuple[str, ...] = ()


@dataclass(frozen=True)
class Stimulus:
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


STIMULUS_KINDS = ("sensor_batch", "customer_feedback", "fault", "retirement")


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


def _enum_value(enum_cls: Any, raw: Any, what: str) -> Any:
    try:
        return enum_cls(raw)
    except ValueError:
        choices = ", ".join(member.value for member in enum_cls)
        raise ScenarioValidationError(
            f"{what}: {raw!r} is not one of {choices}"
        ) from None


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


def _field(raw: dict[str, Any], key: str, kind: str, default: Any = None, what: str = "") -> Any:
    """raw[key], or default when absent, required to be of the named kind."""
    value = raw.get(key, default)
    if type(value) not in _KINDS[kind]:
        raise ScenarioValidationError(
            f"{what}{key} must be {kind}, got {type(value).__name__}")
    return value


def _entries(raw: dict[str, Any], key: str, what: str = "") -> list[dict[str, Any]]:
    """The list under raw[key] (empty when absent), each entry an object."""
    entries = _field(raw, key, "a list", [], what)
    for i, entry in enumerate(entries):
        if type(entry) is not dict:
            raise ScenarioValidationError(f"{what}{key}[{i}] must be an object")
    return entries


def _counts(raw: dict[str, Any], key: str) -> dict[str, int]:
    """The name -> count object under raw[key]."""
    counts = _field(raw, key, "an object")
    for name, value in counts.items():
        _require(type(value) is int, "{}.{} must be an integer, got {}",
                 key, name, type(value).__name__)
    return dict(counts)


def _known(ref: Any, ids: set[str]) -> bool:
    """Whether ref names a declared id; a non-string never does."""
    return isinstance(ref, str) and ref in ids


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    _require(isinstance(doc, dict), "scenario document must be a JSON object")
    _require(doc.get("format") == SCENARIO_FORMAT,
             "unsupported scenario format {!r}, expected {}", doc.get("format"), SCENARIO_FORMAT)
    name = doc.get("name")
    _require(isinstance(name, str) and bool(name), "scenario name must be a non-empty string")
    seed = _field(doc, "seed", "an integer", 0)
    _require(seed >= 0, "seed must be a non-negative integer")
    horizon = _field(doc, "horizon", "an integer")
    _require(horizon >= 1, "horizon must be an integer >= 1")

    nodes: list[NodeDecl] = []
    node_ids: set[str] = set()
    for raw in _entries(doc, "nodes"):
        node_id = raw.get("id")
        _require(isinstance(node_id, str) and bool(node_id), "node id must be a non-empty string")
        _require(node_id not in node_ids, "duplicate node id {!r}", node_id)
        node_ids.add(node_id)
        nodes.append(NodeDecl(node_id, _enum_value(NodeKind, raw.get("kind"), f"node {node_id}")))
    _require(bool(nodes), "at least one node is required")

    products: list[ProductDecl] = []
    product_ids: set[str] = set()
    for raw in _entries(doc, "products"):
        serial, uri = raw.get("serial"), raw.get("uri")
        try:
            mint_product_id(str(serial), str(uri))
        except ValueError as exc:
            raise ScenarioValidationError(f"product {serial!r}: {exc}") from None
        node = raw.get("node")
        _require(_known(node, node_ids), "product {!r} references unknown node {!r}", serial, node)
        what = f"product {serial!r}: "
        generation = _field(raw, "generation", "an integer", 1, what)
        _require(generation >= 1, "{}generation must be an integer >= 1", what)
        components = []
        for c in _entries(raw, "components", what):
            try:
                components.append(ComponentCondition(
                    component=c["component"],
                    condition=_field(c, "condition", "a number", what=f"{what}component "),
                    hazardous=_field(c, "hazardous", "a boolean", False, f"{what}component "),
                ))
            except (KeyError, ValueError) as exc:
                raise ScenarioValidationError(f"product {serial!r} component: {exc}") from None
        capabilities = tuple(
            _enum_value(PEIDCapability, c, f"product {serial!r} capability")
            for c in _field(raw, "capabilities", "a list", [m.value for m in PEIDCapability], what)
        )
        meta_raw = raw.get("intelligence_location")
        location_meta = None
        if meta_raw is not None:
            _field(raw, "intelligence_location", "an object", what=what)
            location_meta = IntelligenceLocation(
                channel=_enum_value(IntelligenceChannel, meta_raw.get("channel"),
                                    f"product {serial!r} intelligence channel"),
                granularity=_enum_value(IntelligenceGranularity, meta_raw.get("granularity"),
                                        f"product {serial!r} intelligence granularity"),
            )
        decl = ProductDecl(
            serial=str(serial),
            uri=str(uri),
            generation=generation,
            phase=_enum_value(LifecyclePhase, raw.get("phase"), f"product {serial!r} phase"),
            node=node,
            components=tuple(components),
            capabilities=capabilities,
            memory=dict(_field(raw, "memory", "an object", {}, what)),
            location_meta=location_meta,
        )
        _require(decl.rendered_id not in product_ids, "duplicate product {!r}", decl.rendered_id)
        product_ids.add(decl.rendered_id)
        products.append(decl)

    agents: list[AgentDecl] = []
    agent_ids: set[str] = set()
    bound: dict[str, str] = {}   # product -> the AgentProduct that speaks for it
    for raw in _entries(doc, "agents"):
        agent_id = raw.get("id")
        _require(isinstance(agent_id, str) and bool(agent_id), "agent id must be a non-empty string")
        _require(agent_id not in agent_ids, "duplicate agent id {!r}", agent_id)
        agent_ids.add(agent_id)
        role = _enum_value(AgentRole, raw.get("role"), f"agent {agent_id} role")
        home = raw.get("home")
        _require(_known(home, node_ids), "agent {!r} references unknown node {!r}", agent_id, home)
        product = raw.get("product")
        if product is not None:
            _require(_known(product, product_ids),
                     "agent {!r} references unknown product {!r}", agent_id, product)
        _require(role is not AgentRole.PRODUCT or product is not None,
                 "agent {!r}: AgentProduct requires a product binding", agent_id)
        if role is AgentRole.PRODUCT:
            _require(product not in bound, "agent {!r}: product {!r} is already bound to "
                     "AgentProduct {!r}", agent_id, product, bound.get(product))
            bound[product] = agent_id
        itinerary = tuple(_field(raw, "itinerary", "a list", [], f"agent {agent_id!r}: "))
        for stop in itinerary:
            _require(_known(stop, node_ids),
                     "agent {!r} itinerary references unknown node {!r}", agent_id, stop)
        agents.append(AgentDecl(agent_id, role, home, product, itinerary))

    rules = []
    for raw in _entries(doc, "routing"):
        pattern = _field(raw, "pattern", "a string", "", "routing rule ")
        recipients = tuple(_field(raw, "recipients", "a list", [], "routing rule "))
        _require(all(type(r) is str for r in recipients),
                 "routing rule recipients must be strings, got {!r}", list(recipients))
        rules.append(RoutingRule(pattern, recipients))
    try:
        routing = RoutingTable(rules=tuple(rules))
    except InvalidRoutingTable as exc:
        raise ScenarioValidationError(f"routing: {exc}") from None

    latency_raw = _field(doc, "latency", "an object", {})
    pairs: dict[tuple[str, str], int] = {}
    for raw in _entries(latency_raw, "pairs", "latency "):
        a, b = raw.get("a"), raw.get("b")
        _require(_known(a, node_ids) and _known(b, node_ids),
                 "latency pair ({!r}, {!r}) unknown node", a, b)
        _require(a != b, "latency pair ({!r}, {!r}) must name two distinct nodes", a, b)
        ticks_ = _field(raw, "ticks", "an integer", what="latency ")
        _require(ticks_ >= 1, "latency ticks must be an integer >= 1")
        key = (a, b) if a <= b else (b, a)
        _require(key not in pairs, "duplicate latency pair ({!r}, {!r})", a, b)
        pairs[key] = ticks_
    default_latency = _field(latency_raw, "default", "an integer", 1, "latency ")
    _require(default_latency >= 1, "default latency must be an integer >= 1")
    latency = LatencyMap(default=default_latency, pairs=pairs)

    partitions: list[PartitionWindow] = []
    for raw in _entries(doc, "partitions"):
        a, b = raw.get("a"), raw.get("b")
        _require(_known(a, node_ids) and _known(b, node_ids),
                 "partition ({!r}, {!r}) unknown node", a, b)
        _require(a != b, "partition ({!r}, {!r}) must name two distinct nodes", a, b)
        what = f"partition ({a!r}, {b!r}): "
        lo = _field(raw, "from_tick", "an integer", what=what)
        hi = _field(raw, "to_tick", "an integer", what=what)
        _require(0 <= lo <= hi, "partition ({!r}, {!r}) needs 0 <= from_tick <= to_tick", a, b)
        partitions.append(PartitionWindow(a=a, b=b, from_tick=lo, to_tick=hi))

    stimuli: list[Stimulus] = []
    for raw in _entries(doc, "stimuli"):
        kind = raw.get("kind")
        _require(kind in STIMULUS_KINDS,
                 "stimulus kind {!r} is not one of {}", kind, ", ".join(STIMULUS_KINDS))
        tick_ = _field(raw, "tick", "an integer", what="stimulus ")
        _require(1 <= tick_ <= horizon, "stimulus tick {!r} must be within 1..{}", tick_, horizon)
        node = raw.get("node")
        _require(_known(node, node_ids), "stimulus references unknown node {!r}", node)
        product = raw.get("product")
        _require(_known(product, product_ids), "stimulus references unknown product {!r}", product)
        stim = Stimulus(
            tick=tick_,
            node=node,
            kind=kind,
            product=product,
            category=raw.get("category", ""),
            note=raw.get("note", ""),
            events=tuple(_entries(raw, "events", "stimulus ")),
            text=raw.get("text", ""),
            detail=raw.get("detail", ""),
        )
        if kind == "sensor_batch":
            _require(stim.category in TACIT_CATEGORIES,
                     "sensor_batch category {!r} must be one of {}",
                     stim.category, ", ".join(TACIT_CATEGORIES))
            _require(type(stim.note) is str, "sensor_batch note must be a string")
            for event in stim.events:
                _require({"sensor", "value", "unit"} <= event.keys()
                         and type(event["sensor"]) is str and type(event["unit"]) is str
                         and type(event["value"]) in _KINDS["a number"],
                         "sensor_batch events need sensor and unit strings, "
                         "and the value must be a number")
        if kind == "customer_feedback":
            _require(type(stim.text) is str and bool(stim.text),
                     "customer_feedback requires non-empty text")
        if kind == "fault":
            _require(type(stim.detail) is str and bool(stim.detail),
                     "fault requires a non-empty detail")
        stimuli.append(stim)

    params_raw = _field(doc, "params", "an object", {})
    try:
        policy_raw = _field(params_raw, "eol_policy", "an object", {})
        policy = EOLPolicy(
            reuse_threshold=_field(policy_raw, "reuse_threshold", "a number", 0.8),
            component_threshold=_field(policy_raw, "component_threshold", "a number", 0.6),
            reclaim_threshold=_field(policy_raw, "reclaim_threshold", "a number", 0.3),
        )
        params = SimParams(
            trigger_threshold=_field(params_raw, "trigger_threshold", "an integer", 10),
            eol_policy=policy,
            message_latency=_field(params_raw, "message_latency", "an integer", 1),
            design_ticks=_field(params_raw, "design_ticks", "an integer", 3),
            manufacture_ticks=_field(params_raw, "manufacture_ticks", "an integer", 4),
            disposal_ticks=_field(params_raw, "disposal_ticks", "an integer", 1),
            trigger_rule_enabled=_field(params_raw, "trigger_rule_enabled", "a boolean", True),
        )
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
    """Canonical document form; save(load(x)) is byte-stable."""
    stimuli_docs = []
    for s in scenario.stimuli:
        raw: dict[str, Any] = {"tick": s.tick, "node": s.node, "kind": s.kind,
                               "product": s.product}
        if s.kind == "sensor_batch":
            raw["category"] = s.category
            raw["note"] = s.note
            raw["events"] = [
                {"sensor": e["sensor"], "value": e["value"], "unit": e["unit"]}
                for e in s.events
            ]
        elif s.kind == "customer_feedback":
            raw["text"] = s.text
        elif s.kind == "fault":
            raw["detail"] = s.detail
        stimuli_docs.append(raw)
    return {
        "format": SCENARIO_FORMAT,
        "name": scenario.name,
        "seed": scenario.seed,
        "horizon": scenario.horizon,
        "nodes": [{"id": n.node_id, "kind": n.kind.value} for n in scenario.nodes],
        "products": [
            {
                "serial": p.serial,
                "uri": p.uri,
                "generation": p.generation,
                "phase": p.phase.value,
                "node": p.node,
                "components": [
                    {"component": c.component, "condition": c.condition,
                     "hazardous": c.hazardous}
                    for c in p.components
                ],
                "capabilities": [c.value for c in p.capabilities],
                "memory": p.memory,
                "intelligence_location": (
                    None if p.location_meta is None else {
                        "channel": p.location_meta.channel.value,
                        "granularity": p.location_meta.granularity.value,
                    }
                ),
            }
            for p in scenario.products
        ],
        "agents": [
            {
                "id": a.agent_id,
                "role": a.role.value,
                "home": a.home,
                "product": a.product,
                "itinerary": list(a.itinerary),
            }
            for a in scenario.agents
        ],
        "routing": [
            {"pattern": r.pattern, "recipients": list(r.recipients)}
            for r in scenario.routing.rules
        ],
        "latency": {
            "default": scenario.latency.default,
            "pairs": [
                {"a": a, "b": b, "ticks": ticks_}
                for (a, b), ticks_ in sorted(scenario.latency.pairs.items())
            ],
        },
        "partitions": [
            {"a": w.a, "b": w.b, "from_tick": w.from_tick, "to_tick": w.to_tick}
            for w in scenario.partitions
        ],
        "stimuli": stimuli_docs,
        "params": {
            "trigger_threshold": scenario.params.trigger_threshold,
            "message_latency": scenario.params.message_latency,
            "design_ticks": scenario.params.design_ticks,
            "manufacture_ticks": scenario.params.manufacture_ticks,
            "disposal_ticks": scenario.params.disposal_ticks,
            "trigger_rule_enabled": scenario.params.trigger_rule_enabled,
            "eol_policy": {
                "reuse_threshold": scenario.params.eol_policy.reuse_threshold,
                "component_threshold": scenario.params.eol_policy.component_threshold,
                "reclaim_threshold": scenario.params.eol_policy.reclaim_threshold,
            },
        },
    }


def read_text(path: Path | str) -> str:
    """The UTF-8 text of a file; an unreadable or non-UTF-8 file is a parse error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"{path}: {exc}") from None


def load_json(path: Path | str) -> Any:
    """The JSON document in a file, with the line and column of a syntax error."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def load_scenario(path: Path | str) -> Scenario:
    return scenario_from_dict(load_json(path))


def save_scenario(scenario: Scenario, path: Path | str) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2) + "\n", encoding="utf-8"
    )


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
        world.register_node(decl.kind, decl.node_id)
    for decl in scenario.products:
        world.register_product(
            product_id=mint_product_id(decl.serial, decl.uri),
            generation=decl.generation,
            phase=decl.phase,
            components=decl.components,
            capabilities=decl.capabilities,
            memory=decl.memory,
            node=decl.node,
            location_meta=decl.location_meta,
        )
    for decl in scenario.agents:
        product_id = None
        if decl.product is not None:
            product_id = world.products[decl.product].product_id
        world.spawn_agent(
            role=decl.role,
            home=decl.home,
            product_id=product_id,
            itinerary=decl.itinerary,
            agent_id=decl.agent_id,
        )
    for stim in scenario.stimuli:
        product = world.products[stim.product]
        if stim.kind == "retirement":
            world.schedule_action(stim.tick, Action(ActionKind.RETIREMENT, product.key))
            continue
        if stim.kind == "sensor_batch":
            payload = SensorBatch(
                product_id=product.product_id,
                generation=product.generation,
                category=stim.category,
                events=tuple(
                    SensorEvent(sensor=e["sensor"], value=e["value"], unit=e["unit"],
                                sim_time=stim.tick)
                    for e in stim.events
                ),
                note=stim.note,
            )
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
        world.send(key, payload, sender=stim.node, origin_node=stim.node,
                   sent_at=stim.tick, deliver_at=stim.tick)
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
        launch_times = []
        for i, lt in enumerate(_field(raw, "launch_times", "a list")):
            what = f"launch_times[{i}]."
            _require(type(lt) is dict, "launch_times[{}] must be an object", i)
            launch_times.append(LaunchTime(
                _field(lt, "family", "a string", what=what),
                _field(lt, "generation", "an integer", what=what),
                _field(lt, "tick", "an integer", what=what),
            ))
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


def compute_report(events: Iterable[LoggedEvent]) -> RunReport:
    """Derive the run report purely from the events of a run log: the
    world's events in ``run``, a saved log's decoded lines in ``ploop report``.
    Each detail field read must have its JSON type."""
    scenario = ""
    seed = 0
    total_ticks = 0
    first_record_tick: int | None = None
    first_trigger_tick: int | None = None
    launch_times: list[LaunchTime] = []
    by_mode: dict[str, int] = {}
    by_source: dict[str, int] = {}
    by_activity: dict[str, int] = {}
    eol_decisions: dict[str, int] = {}
    dropped = 0
    migrations = 0

    for event in events:
        detail = event.detail
        if event.event_kind == EVT_RUN_STARTED:
            scenario = _field(detail, "scenario", "a string", "", "run_started ")
            seed = _field(detail, "seed", "an integer", 0, "run_started ")
            total_ticks = _field(detail, "horizon", "an integer", 0, "run_started ")
        elif event.event_kind == EVT_RUN_FINISHED:
            total_ticks = event.tick
        elif event.event_kind == EVT_KNOWLEDGE_INSERTED:
            if first_record_tick is None:
                first_record_tick = event.tick
            for counts, key in ((by_mode, "mode"), (by_source, "source"),
                                (by_activity, "activity")):
                value = _field(detail, key, "a string", what="knowledge_inserted ")
                counts[value] = counts.get(value, 0) + 1
        elif event.event_kind == EVT_DESIGN_TRIGGER:
            if first_trigger_tick is None:
                first_trigger_tick = event.tick
        elif event.event_kind == EVT_GENERATION_LAUNCHED:
            launch_times.append(LaunchTime(
                _field(detail, "family", "a string", what="generation_launched "),
                _field(detail, "generation", "an integer", what="generation_launched "),
                event.tick,
            ))
        elif event.event_kind == EVT_EOL_DECISION:
            decision = _field(detail, "decision", "a string", what="eol_decision ")
            eol_decisions[decision] = eol_decisions.get(decision, 0) + 1
        elif event.event_kind == EVT_MESSAGE_DROPPED:
            dropped += 1
        elif event.event_kind == EVT_MIGRATION_COMPLETED:
            migrations += 1

    closure = None
    if first_trigger_tick is not None and first_record_tick is not None:
        closure = first_trigger_tick - first_record_tick
    return RunReport(
        scenario=scenario,
        seed=seed,
        total_ticks=total_ticks,
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
        return tuple(event.to_json_line() for event in self.world.events)


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
    paths["events"].write_text(
        "".join(event.to_json_line() + "\n" for event in world.events), encoding="utf-8"
    )
    paths["report_json"].write_text(
        json.dumps(asdict(report), indent=2) + "\n", encoding="utf-8"
    )
    paths["report_text"].write_text(report.to_text(), encoding="utf-8")
    world.repository.save(paths["repository"])
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
    if not report_feedback.launch_times:
        raise IncomparableRuns(
            f"report {report_feedback.scenario!r} has no completed launch"
        )
    if not report_baseline.launch_times:
        raise IncomparableRuns(
            f"report {report_baseline.scenario!r} has no completed launch"
        )
    feedback_tick = min(lt.tick for lt in report_feedback.launch_times)
    baseline_tick = min(lt.tick for lt in report_baseline.launch_times)
    delta = baseline_tick - feedback_tick
    return ComparisonSummary(
        feedback_launch_tick=feedback_tick,
        baseline_launch_tick=baseline_tick,
        delta=delta,
        improvement=delta > 0,
    )
