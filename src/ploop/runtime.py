"""Node registry, first-match message routing, atomic agent migration, and
the seeded discrete-event scheduler.

The engine is single-threaded by contract: one event at a time mutates the
World. Each tick runs a fixed sub-phase order so equal (scenario, seed)
pairs replay byte-identical logs:

  1. clock advances by one
  2. due migrations complete (ordered by arrival tick, then agent id);
     an arrival across a currently severed pair is held in flight until
     the pair heals
  3. due scheduled actions run (retirement, disposition, generation
     pipeline steps), in scheduling order
  4. due messages deliver, ordered by (deliver_at, msg_id): world rules
     for the payload kind apply first, then routing resolves recipients
     and each recipient handles the message, its effects applied in list
     order; a delivery across a severed pair is blocked and logged
  5. resident agents with a pending itinerary plan one migration attempt

The engine draws no random numbers: every order above is fixed by ticks
and ids, so the seed only labels the run in its log.

Each product speaks through its own agent: a payload about one product
(a sensor batch, service order, customer feedback or fault report) that
a rule sends to the AgentProduct role reaches only the AgentProduct bound
to that product, and a world holds at most one such agent per product.
Other roles, and payloads about no one product, reach every resident
agent of the role.

Per-tick cost follows activity, not agent count. The World keeps its
indexes up to date instead of rescanning: the resident directory (agent
to role for every agent not in flight) and resident agent ids by role,
which routing reads with the AgentProduct bound to each product; the
residents with a pending itinerary, which step 5 walks; and the
partition windows by node pair, which ``severed`` reads. Spawn,
migration start and arrival maintain the resident indexes; a product's
AgentProduct is bound once, at spawn, and the windows are fixed at
construction.
A parked agent without an itinerary costs a tick nothing, and a delivery
costs only the recipients its rule resolves to.

Fail-closed faults: partitioned migrations are refused at send time and
logged; partitioned deliveries are dropped and logged; no message or agent
ever crosses a severed pair.

Every log site passes its detail as a dict; ``LoggedEvent`` owns the line
format, encoding it only when a line is written and decoding it only when
a saved log is read back.
"""

from __future__ import annotations

import heapq
import json
import logging
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Collection, Iterable, Mapping

from .agents import (
    AgentRole,
    AgentState,
    Effect,
    EmitKnowledge,
    SendMessage,
    UnhandledMessage,
    UnknownNode,
    UpdateMemory,
    apply_memory,
    handle,
    plan_migration,
)
from .identity import (
    PEID,
    IntelligenceLocation,
    NonMonotonicTime,
    PEIDCapability,
    ProductID,
    classify_intelligence,
    record_event,
)
from .knowledge import DesignTrigger, DuplicateRecord, KnowledgeRecord, KnowledgeRepository
from .lifecycle import (
    ComponentCondition,
    EOLPolicy,
    IllegalTransition,
    LifecycleEvent,
    LifecyclePhase,
    advance,
    decide_eol,
    initial_state,
)
from .messages import (
    KEY_DESIGN_TRIGGER,
    KEY_KNOWLEDGE_RECORD,
    CustomerFeedback,
    FaultReported,
    Message,
    Payload,
    SensorBatch,
    ServiceOrder,
    payload_kind,
)

logger = logging.getLogger(__name__)


class SimulationError(Exception):
    """Base class for runtime failures."""


class UnknownAgent(SimulationError):
    """Agent id is not registered."""


class AgentInFlight(SimulationError):
    """Agent is mid-transfer and cannot be migrated again."""


class Partitioned(SimulationError):
    """The source/target pair is severed; the operation fails closed."""


class InvalidRoutingTable(SimulationError):
    """Routing table violates its structural rules."""


class NodeKind(str, Enum):
    MANUFACTURER = "Manufacturer"
    REPAIR_GARAGE = "RepairGarage"
    RECYCLING_ENTERPRISE = "RecyclingEnterprise"
    CUSTOMER_SITE = "CustomerSite"
    PRODUCT_EMBEDDED = "ProductEmbedded"


# Event kinds appearing in the log.
EVT_RUN_STARTED = "run_started"
EVT_RUN_FINISHED = "run_finished"
EVT_NODE_REGISTERED = "node_registered"
EVT_PRODUCT_REGISTERED = "product_registered"
EVT_AGENT_SPAWNED = "agent_spawned"
EVT_MESSAGE_SENT = "message_sent"
EVT_MESSAGE_DELIVERED = "message_delivered"
EVT_MESSAGE_DROPPED = "message_dropped"
EVT_MESSAGE_BLOCKED = "message_blocked"
EVT_UNHANDLED_MESSAGE = "unhandled_message"
EVT_KNOWLEDGE_INSERTED = "knowledge_inserted"
EVT_DESIGN_TRIGGER = "design_trigger"
EVT_GENERATION_STARTED = "generation_started"
EVT_GENERATION_LAUNCHED = "generation_launched"
EVT_LIFECYCLE_ADVANCED = "lifecycle_advanced"
EVT_LIFECYCLE_REFUSED = "lifecycle_refused"
EVT_EOL_DECISION = "eol_decision"
EVT_MIGRATION_STARTED = "migration_started"
EVT_MIGRATION_COMPLETED = "migration_completed"
EVT_MIGRATION_REFUSED = "migration_refused"
EVT_PEID_REFUSED = "peid_refused"


@dataclass(frozen=True, slots=True)
class LoggedEvent:
    """One line of the run log, and the one owner of its format.

    ``detail`` is a plain dict in memory. ``to_json_line`` is the only
    encoder: six fixed fields in a fixed order, with the detail written as
    key-sorted compact JSON text (``""`` when empty). ``from_json_line`` is
    the only decoder, and it refuses a field of the wrong JSON type.
    """

    tick: int
    event_kind: str
    node: str = ""
    agent: str = ""
    msg_id: str = ""
    detail: dict[str, Any] = field(default_factory=dict)

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "tick": self.tick,
                "event_kind": self.event_kind,
                "node": self.node,
                "agent": self.agent,
                "msg_id": self.msg_id,
                "detail": detail_str(self.detail) if self.detail else "",
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json_line(cls, line: str) -> "LoggedEvent":
        raw = json.loads(line)
        if type(raw) is not dict:
            raise ValueError("a log line must be a JSON object")
        if type(raw.get("tick")) is not int:
            raise ValueError(f"tick must be an integer, got {type(raw.get('tick')).__name__}")
        for key in ("event_kind", "node", "agent", "msg_id", "detail"):
            if type(raw.get(key)) is not str:
                raise ValueError(f"{key} must be a string, got {type(raw.get(key)).__name__}")
        detail = json.loads(raw["detail"]) if raw["detail"] else {}
        if type(detail) is not dict:
            raise ValueError("detail must be empty or the text of a JSON object")
        return cls(raw["tick"], raw["event_kind"], raw["node"], raw["agent"],
                   raw["msg_id"], detail)


def detail_str(detail: Mapping[str, Any]) -> str:
    """Compact, key-sorted JSON: the detail field as a log line writes it."""
    return json.dumps(detail, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RoutingRule:
    """First-match rule: exact key or prefix ending in '*'."""

    pattern: str
    recipients: tuple[str, ...]

    def matches(self, key: str) -> bool:
        if self.pattern == "*":
            return True
        if self.pattern.endswith("*"):
            return key.startswith(self.pattern[:-1])
        return key == self.pattern


@dataclass(frozen=True)
class RoutingTable:
    rules: tuple[RoutingRule, ...]

    def __post_init__(self) -> None:
        if not self.rules or self.rules[-1].pattern != "*":
            raise InvalidRoutingTable("a terminal catch-all '*' rule is required")
        for rule in self.rules[:-1]:
            if rule.pattern == "*":
                raise InvalidRoutingTable("catch-all '*' must be the terminal rule")
        for rule in self.rules:
            if "*" in rule.pattern[:-1]:
                raise InvalidRoutingTable(
                    f"'*' is only allowed as a trailing wildcard: {rule.pattern!r}"
                )
            if not rule.pattern:
                raise InvalidRoutingTable("empty pattern")

    def first_match(self, key: str) -> RoutingRule:
        for rule in self.rules:
            if rule.matches(key):
                return rule
        raise AssertionError("unreachable: catch-all guarantees a match")


CATCH_ALL_TABLE = RoutingTable(rules=(RoutingRule("*", ()),))

_ROLES = {role.value: role for role in AgentRole}

# Payloads about one product; an AgentProduct selector binds them to it.
_PRODUCT_SCOPED = (SensorBatch, ServiceOrder, CustomerFeedback, FaultReported)


def route(
    message: Message,
    table: RoutingTable,
    directory: Mapping[str, AgentRole],
    roles: Mapping[AgentRole, Collection[str]],
    products: Mapping[ProductID, str],
) -> list[str]:
    """Resolve the first matching rule to concrete resident agents.

    ``directory`` maps each resident agent to its role, ``roles`` each role
    to its resident agents and ``products`` each product to the
    AgentProduct bound to it at spawn, resident or in flight. An agent-id
    selector names that agent; a role selector names every resident agent
    of the role, except that the AgentProduct selector binds a SensorBatch,
    ServiceOrder, CustomerFeedback or FaultReported to the one AgentProduct
    of its ``product_id``. Unknown selectors and agents in flight resolve
    to nothing. The result is ascending by agent id; an empty result means
    drop-with-log.
    """
    rule = table.first_match(message.routing_key)
    payload = message.payload
    out: set[str] = set()
    for selector in rule.recipients:
        role = _ROLES.get(selector)
        if role is None:
            if selector in directory:
                out.add(selector)
        elif role is AgentRole.PRODUCT and isinstance(payload, _PRODUCT_SCOPED):
            bound = products.get(payload.product_id)
            if bound in directory:
                out.add(bound)
        else:
            out.update(roles.get(role, ()))
    return sorted(out)


def _pair(a: str, b: str) -> tuple[str, str]:
    """The unordered node pair as a sorted key."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class LatencyMap:
    """Symmetric per-node-pair migration latency in ticks."""

    default: int = 1
    pairs: Mapping[tuple[str, str], int] = field(default_factory=dict)

    def get(self, a: str, b: str) -> int:
        return self.pairs.get(_pair(a, b), self.default)


@dataclass(frozen=True)
class PartitionWindow:
    """Node pair severed for ticks from_tick..to_tick inclusive."""

    a: str
    b: str
    from_tick: int
    to_tick: int

    def covers(self, x: str, y: str, tick: int) -> bool:
        return {x, y} == {self.a, self.b} and self.from_tick <= tick <= self.to_tick


@dataclass(frozen=True)
class SimParams:
    """Scenario-level knobs applied by the engine."""

    trigger_threshold: int = 10
    eol_policy: EOLPolicy = EOLPolicy()
    message_latency: int = 1
    design_ticks: int = 3
    manufacture_ticks: int = 4
    disposal_ticks: int = 1
    trigger_rule_enabled: bool = True

    def __post_init__(self) -> None:
        for name in ("trigger_threshold", "message_latency", "design_ticks",
                     "manufacture_ticks", "disposal_ticks"):
            if getattr(self, name) < 1:
                raise SimulationError(f"{name} must be >= 1")


@dataclass
class Node:
    node_id: str
    kind: NodeKind
    resident_agents: set[str] = field(default_factory=set)


@dataclass
class ProductState:
    """World-side record of one product instance."""

    product_id: ProductID
    family: str
    generation: int
    phase: LifecyclePhase
    peid: PEID
    components: tuple[ComponentCondition, ...] = ()
    node: str | None = None
    location_meta: IntelligenceLocation | None = None

    @property
    def key(self) -> str:
        return self.product_id.render()


@dataclass(frozen=True)
class Transfer:
    agent_id: str
    source: str
    target: str
    arrive_at: int


class ActionKind(str, Enum):
    RETIREMENT = "retirement"
    DISPOSITION = "disposition"
    DESIGN_COMPLETE = "design_complete"
    MANUFACTURE_COMPLETE = "manufacture_complete"


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    product_key: str


class World:
    """The complete simulation state; exactly one live copy of each agent
    exists across nodes and in-flight transfers at all times."""

    def __init__(
        self,
        routing: RoutingTable = CATCH_ALL_TABLE,
        latency: LatencyMap = LatencyMap(),
        params: SimParams = SimParams(),
        partitions: tuple[PartitionWindow, ...] = (),
    ) -> None:
        self.clock = 0
        self.routing = routing
        self.latency = latency
        self.params = params
        self.partitions = partitions
        # Windows by sorted node pair, so severed() reads only that pair's.
        self._windows: dict[tuple[str, str], list[PartitionWindow]] = {}
        for window in partitions:
            self._windows.setdefault(_pair(window.a, window.b), []).append(window)
        self.nodes: dict[str, Node] = {}
        self.agents: dict[str, AgentState] = {}
        self.in_flight: dict[str, Transfer] = {}
        self.products: dict[str, ProductState] = {}
        self.events: list[LoggedEvent] = []
        # The one knowledge repository; only the keeper (AgentKnowledge) inserts.
        self.repository = KnowledgeRepository()
        self.started_generations: set[tuple[str, int]] = set()
        # Kept by _settle and _depart: every agent not in flight with its
        # role, the same agents by role, and those whose itinerary is not
        # empty.
        self._residents: dict[str, AgentRole] = {}
        self._by_role: dict[AgentRole, set[str]] = {role: set() for role in AgentRole}
        # Set once at spawn: each product's AgentProduct, resident or not.
        self._by_product: dict[ProductID, str] = {}
        self._travellers: set[str] = set()
        self._pending: list[tuple[int, int, Message]] = []
        self._actions: list[tuple[int, int, Action]] = []
        self._msg_seq = 0
        self._node_seq = 0
        self._agent_seq = 0
        self._action_seq = 0

    # -- logging ----------------------------------------------------------

    def log(self, event_kind: str, node: str = "", agent: str = "",
            msg_id: str = "", *, detail: dict[str, Any]) -> None:
        self.events.append(
            LoggedEvent(self.clock, event_kind, node, agent, msg_id, detail)
        )

    # -- registration -----------------------------------------------------

    def register_node(self, kind: NodeKind, node_id: str | None = None) -> str:
        if node_id is None:
            self._node_seq += 1
            node_id = f"node-{self._node_seq:04d}"
        if node_id in self.nodes:
            raise SimulationError(f"node id already registered: {node_id!r}")
        self.nodes[node_id] = Node(node_id=node_id, kind=kind)
        self.log(EVT_NODE_REGISTERED, node=node_id, detail={"kind": kind.value})
        return node_id

    def register_product(
        self,
        product_id: ProductID,
        generation: int,
        phase: LifecyclePhase,
        components: tuple[ComponentCondition, ...] = (),
        capabilities: Iterable[PEIDCapability] | None = None,
        memory: Mapping[str, Any] | None = None,
        node: str | None = None,
        family: str | None = None,
        location_meta: IntelligenceLocation | None = None,
    ) -> ProductState:
        caps = frozenset(capabilities) if capabilities is not None else frozenset(PEIDCapability)
        peid = PEID(product_id=product_id, capabilities=caps, memory=dict(memory or {}))
        state = ProductState(
            product_id=product_id,
            family=family or product_id.render(),
            generation=generation,
            phase=phase,
            peid=peid,
            components=components,
            node=node,
            location_meta=location_meta,
        )
        if state.key in self.products:
            raise SimulationError(f"product already registered: {state.key!r}")
        if node is not None and node not in self.nodes:
            raise UnknownNode(f"product node {node!r} is not registered")
        self.products[state.key] = state
        detail = {
            "family": state.family,
            "generation": generation,
            "phase": phase.value,
            "intelligence": classify_intelligence(caps).value,
        }
        if location_meta is not None:
            detail["channel"] = location_meta.channel.value
            detail["granularity"] = location_meta.granularity.value
        self.log(EVT_PRODUCT_REGISTERED, node=node or "", detail=detail)
        return state

    def spawn_agent(
        self,
        role: AgentRole,
        home: str,
        product_id: ProductID | None = None,
        itinerary: tuple[str, ...] = (),
        agent_id: str | None = None,
        memory: Mapping[str, Any] | None = None,
    ) -> str:
        if home not in self.nodes:
            raise UnknownNode(f"home node {home!r} is not registered")
        for stop in itinerary:
            if stop not in self.nodes:
                raise UnknownNode(f"itinerary node {stop!r} is not registered")
        if agent_id is None:
            self._agent_seq += 1
            agent_id = f"agent-{self._agent_seq:04d}"
        if agent_id in self.agents:
            raise SimulationError(f"agent id already registered: {agent_id!r}")
        state = AgentState(
            agent_id=agent_id,
            role=role,
            location=home,
            product_id=product_id,
            memory=dict(memory or {}),
            itinerary=itinerary,
        )
        if role is AgentRole.PRODUCT:
            bound = self._by_product.get(product_id)
            if bound is not None:
                raise SimulationError(
                    f"AgentProduct {agent_id!r}: product {product_id.render()!r} is "
                    f"already bound to AgentProduct {bound!r}")
            self._by_product[product_id] = agent_id
        self.agents[agent_id] = state
        self._settle(state)
        self.log(
            EVT_AGENT_SPAWNED,
            node=home,
            agent=agent_id,
            detail={
                "role": role.value,
                "product": product_id.render() if product_id else "",
            },
        )
        return agent_id

    # -- messaging --------------------------------------------------------

    def send(
        self,
        routing_key: str,
        payload: Payload,
        sender: str,
        origin_node: str,
        sent_at: int | None = None,
        deliver_at: int | None = None,
    ) -> Message:
        self._msg_seq += 1
        sent = self.clock if sent_at is None else sent_at
        deliver = sent + self.params.message_latency if deliver_at is None else deliver_at
        message = Message(
            msg_id=f"m{self._msg_seq:06d}",
            sender=sender,
            routing_key=routing_key,
            payload=payload,
            sent_at=sent,
            deliver_at=deliver,
            origin_node=origin_node,
        )
        heapq.heappush(self._pending, (message.deliver_at, self._msg_seq, message))
        self.log(
            EVT_MESSAGE_SENT,
            node=origin_node,
            agent=sender,
            msg_id=message.msg_id,
            detail={"key": routing_key, "kind": payload_kind(payload)},
        )
        return message

    def schedule_action(self, tick: int, action: Action) -> None:
        if tick <= self.clock:
            raise SimulationError(
                f"action {action.kind.value} scheduled at tick {tick} "
                f"not after clock {self.clock}"
            )
        self._action_seq += 1
        heapq.heappush(self._actions, (tick, self._action_seq, action))

    # -- partitions -------------------------------------------------------

    def severed(self, a: str, b: str) -> bool:
        clock = self.clock
        return any(w.from_tick <= clock <= w.to_tick
                   for w in self._windows.get(_pair(a, b), ()))

    # -- resident indexes ---------------------------------------------------

    def _settle(self, agent: AgentState) -> None:
        """Index an agent that now stands at its location."""
        self.nodes[agent.location].resident_agents.add(agent.agent_id)
        self._residents[agent.agent_id] = agent.role
        self._by_role[agent.role].add(agent.agent_id)
        if agent.itinerary:
            self._travellers.add(agent.agent_id)

    def _depart(self, agent: AgentState) -> None:
        """Unindex an agent leaving its location."""
        self.nodes[agent.location].resident_agents.discard(agent.agent_id)
        del self._residents[agent.agent_id]
        self._by_role[agent.role].discard(agent.agent_id)
        self._travellers.discard(agent.agent_id)

    # -- invariant helpers --------------------------------------------------

    def census(self) -> dict[str, str]:
        """Where every agent is right now: 'node:<id>' or 'in_flight'."""
        placement: dict[str, str] = {}
        for node in self.nodes.values():
            for aid in node.resident_agents:
                if aid in placement:
                    raise SimulationError(f"agent {aid} resident at two nodes")
                placement[aid] = f"node:{node.node_id}"
        for aid in self.in_flight:
            if aid in placement:
                raise SimulationError(f"agent {aid} both resident and in flight")
            placement[aid] = "in_flight"
        return placement

    def resident_directory(self) -> dict[str, AgentRole]:
        """Every agent not in flight, with its role (a copy)."""
        return dict(self._residents)


# -- module operation surface ------------------------------------------------


def migrate(world: World, agent_id: str, target: str) -> World:
    """Begin the atomic three-step transfer of an agent.

    Removes the agent from its source node and schedules insertion at the
    target after the pair's latency. Fails closed without touching state
    when the pair is severed at send time.
    """
    if agent_id not in world.agents:
        raise UnknownAgent(f"unknown agent {agent_id!r}")
    if agent_id in world.in_flight:
        raise AgentInFlight(f"agent {agent_id!r} is already in flight")
    if target not in world.nodes:
        raise UnknownNode(f"unknown target node {target!r}")
    agent = world.agents[agent_id]
    source = agent.location
    if world.severed(source, target):
        raise Partitioned(f"({source}, {target}) is severed")
    world._depart(agent)
    arrive_at = world.clock + world.latency.get(source, target)
    world.in_flight[agent_id] = Transfer(agent_id, source, target, arrive_at)
    world.log(
        EVT_MIGRATION_STARTED,
        node=source,
        agent=agent_id,
        detail={"target": target, "arrive_at": arrive_at},
    )
    return world


def tick(world: World) -> list[LoggedEvent]:
    """Advance the clock one tick and run the fixed sub-phase order.

    Returns the events this tick appended to the world log.
    """
    mark = len(world.events)
    world.clock += 1
    _complete_due_migrations(world)
    _run_due_actions(world)
    _deliver_due_messages(world)
    _plan_itineraries(world)
    return world.events[mark:]


# -- tick sub-phases ---------------------------------------------------------


def _complete_due_migrations(world: World) -> None:
    due = sorted(
        (t for t in world.in_flight.values() if t.arrive_at <= world.clock),
        key=lambda t: (t.arrive_at, t.agent_id),
    )
    for transfer in due:
        # Held in flight while the pair is severed; lands once it heals.
        if world.severed(transfer.source, transfer.target):
            continue
        agent = replace(world.agents[transfer.agent_id], location=transfer.target)
        world.agents[transfer.agent_id] = agent
        world._settle(agent)
        del world.in_flight[transfer.agent_id]
        world.log(
            EVT_MIGRATION_COMPLETED,
            node=transfer.target,
            agent=transfer.agent_id,
            detail={"source": transfer.source},
        )


def _run_due_actions(world: World) -> None:
    while world._actions and world._actions[0][0] <= world.clock:
        tick_due, _, action = heapq.heappop(world._actions)
        if tick_due < world.clock:
            raise SimulationError(f"missed action {action.kind.value} at {tick_due}")
        _apply_action(world, action)


def _advance_product(world: World, product: ProductState, event: LifecycleEvent) -> bool:
    try:
        new_phase = advance(product.phase, event)
    except IllegalTransition:
        world.log(
            EVT_LIFECYCLE_REFUSED,
            node=product.node or "",
            detail={
                "family": product.family,
                "generation": product.generation,
                "event": event.value,
                "phase": product.phase.value,
            },
        )
        return False
    world.log(
        EVT_LIFECYCLE_ADVANCED,
        node=product.node or "",
        detail={
            "family": product.family,
            "generation": product.generation,
            "event": event.value,
            "from_phase": product.phase.value,
            "to_phase": new_phase.value,
        },
    )
    product.phase = new_phase
    return True


def _apply_action(world: World, action: Action) -> None:
    product = world.products[action.product_key]
    if action.kind is ActionKind.RETIREMENT:
        if _advance_product(world, product, LifecycleEvent.RETIREMENT_REQUESTED):
            world.schedule_action(
                world.clock + world.params.disposal_ticks,
                Action(ActionKind.DISPOSITION, product.key),
            )
        if not world.params.trigger_rule_enabled:
            # Baseline: the next generation starts at scheduled retirement.
            _start_generation(world, product.family, product.generation + 1)
    elif action.kind is ActionKind.DISPOSITION:
        if not product.components:
            world.log(
                EVT_LIFECYCLE_REFUSED,
                node=product.node or "",
                detail={
                    "family": product.family,
                    "generation": product.generation,
                    "event": LifecycleEvent.DISPOSITION_EXECUTED.value,
                    "phase": "no-components",
                },
            )
            return
        decision = decide_eol(product.components, world.params.eol_policy)
        world.log(
            EVT_EOL_DECISION,
            node=product.node or "",
            detail={
                "family": product.family,
                "generation": product.generation,
                "decision": decision.value,
            },
        )
        _advance_product(world, product, LifecycleEvent.DISPOSITION_EXECUTED)
    elif action.kind is ActionKind.DESIGN_COMPLETE:
        if _advance_product(world, product, LifecycleEvent.DESIGN_COMPLETE):
            world.schedule_action(
                world.clock + world.params.manufacture_ticks,
                Action(ActionKind.MANUFACTURE_COMPLETE, product.key),
            )
    elif action.kind is ActionKind.MANUFACTURE_COMPLETE:
        if _advance_product(world, product, LifecycleEvent.MANUFACTURED):
            world.log(
                EVT_GENERATION_LAUNCHED,
                detail={"family": product.family, "generation": product.generation},
            )


def _start_generation(world: World, family: str, next_generation: int) -> None:
    """Kick off the BOL pipeline for the next product generation, once."""
    if (family, next_generation) in world.started_generations:
        return
    parent = world.products[family]
    world.started_generations.add((family, next_generation))
    next_id = ProductID(
        serial=f"{parent.product_id.serial}-g{next_generation}",
        uri=parent.product_id.uri,
    )
    world.register_product(
        product_id=next_id,
        generation=next_generation,
        phase=initial_state(),
        capabilities=parent.peid.capabilities,
        family=family,
    )
    world.log(
        EVT_GENERATION_STARTED,
        detail={"family": family, "generation": next_generation},
    )
    world.schedule_action(
        world.clock + world.params.design_ticks,
        Action(ActionKind.DESIGN_COMPLETE, next_id.render()),
    )


def _deliver_due_messages(world: World) -> None:
    while world._pending and world._pending[0][0] <= world.clock:
        deliver_at, _, message = heapq.heappop(world._pending)
        if deliver_at < world.clock:
            raise SimulationError(f"missed delivery of {message.msg_id} at {deliver_at}")
        _process_delivery(world, message)


def _world_rules(world: World, message: Message) -> None:
    """Engine-level consequences of a payload arriving, before routing."""
    payload = message.payload
    if isinstance(payload, SensorBatch):
        product = world.products.get(payload.product_id.render())
        if product is not None:
            try:
                peid = product.peid
                for event in payload.events:
                    peid = record_event(peid, event)
                product.peid = peid
            except NonMonotonicTime as exc:
                world.log(
                    EVT_PEID_REFUSED,
                    node=product.node or "",
                    msg_id=message.msg_id,
                    detail={"family": product.family, "reason": str(exc)},
                )
    elif isinstance(payload, FaultReported):
        product = world.products.get(payload.product_id.render())
        if product is not None:
            _advance_product(world, product, LifecycleEvent.FAULT_REPORTED)
    elif isinstance(payload, ServiceOrder):
        # Order reaching the garage-side handler completes the repair.
        product = world.products.get(payload.product_id.render())
        if product is not None:
            _advance_product(world, product, LifecycleEvent.REPAIRED)
    elif isinstance(payload, DesignTrigger):
        world.log(
            EVT_DESIGN_TRIGGER,
            node=message.origin_node,
            msg_id=message.msg_id,
            detail={
                "family": payload.family,
                "from_generation": payload.from_generation,
                "next_generation": payload.next_generation,
            },
        )
        if payload.family in world.products:
            _start_generation(world, payload.family, payload.next_generation)


def _process_delivery(world: World, message: Message) -> None:
    _world_rules(world, message)
    recipients = route(message, world.routing, world._residents, world._by_role,
                       world._by_product)
    if not recipients:
        world.log(
            EVT_MESSAGE_DROPPED,
            node=message.origin_node,
            msg_id=message.msg_id,
            detail={"key": message.routing_key},
        )
        return
    for agent_id in recipients:
        agent = world.agents[agent_id]
        location = agent.location
        if world.severed(message.origin_node, location):
            world.log(
                EVT_MESSAGE_BLOCKED,
                node=location,
                agent=agent_id,
                msg_id=message.msg_id,
                detail={"origin": message.origin_node, "key": message.routing_key},
            )
            continue
        world.log(
            EVT_MESSAGE_DELIVERED,
            node=location,
            agent=agent_id,
            msg_id=message.msg_id,
            detail={"origin": message.origin_node, "key": message.routing_key},
        )
        try:
            effects = handle(agent, message, world.clock)
        except UnhandledMessage as exc:
            world.log(
                EVT_UNHANDLED_MESSAGE,
                node=location,
                agent=agent_id,
                msg_id=message.msg_id,
                detail={"kind": payload_kind(message.payload), "reason": str(exc)},
            )
            continue
        for effect in effects:
            _apply_effect(world, agent_id, effect)


def _apply_effect(world: World, agent_id: str, effect: Effect) -> None:
    agent = world.agents[agent_id]
    if isinstance(effect, SendMessage):
        world.send(
            effect.routing_key, effect.payload, sender=agent_id,
            origin_node=agent.location,
        )
    elif isinstance(effect, EmitKnowledge):
        if agent.role is AgentRole.KNOWLEDGE:
            _insert_record(world, agent, effect.record)
        else:
            # Submissions travel to the repository keeper as messages.
            world.send(
                KEY_KNOWLEDGE_RECORD, effect.record, sender=agent_id,
                origin_node=agent.location,
            )
    elif isinstance(effect, UpdateMemory):
        world.agents[agent_id] = apply_memory(agent, effect.key, effect.value)
    else:
        raise SimulationError(f"unknown effect type {type(effect).__name__}")


def _insert_record(world: World, agent: AgentState, record: KnowledgeRecord) -> None:
    """Insert at the keeper; the insert that brings its (family, generation)
    to exactly the threshold sends the design trigger, so it fires once."""
    try:
        world.repository.insert(record)
    except DuplicateRecord:
        logger.debug("duplicate knowledge record dropped: %s", record.record_id)
        return
    world.log(
        EVT_KNOWLEDGE_INSERTED,
        node=agent.location,
        agent=agent.agent_id,
        detail={
            "family": record.family,
            "generation": record.generation,
            "mode": record.mode.value,
            "source": record.source.value,
            "activity": record.activity.value,
            "record_id": record.record_id,
        },
    )
    params = world.params
    count = world.repository.count(record.family, record.generation)
    if params.trigger_rule_enabled and count == params.trigger_threshold:
        trigger = DesignTrigger(record.family, record.generation, record.generation + 1)
        world.send(KEY_DESIGN_TRIGGER, trigger, sender=agent.agent_id,
                   origin_node=agent.location)


def _plan_itineraries(world: World) -> None:
    for agent_id in sorted(world._travellers):
        agent = world.agents[agent_id]
        itinerary = agent.itinerary
        while itinerary and itinerary[0] == agent.location:
            itinerary = itinerary[1:]
        if itinerary != agent.itinerary:
            agent = replace(agent, itinerary=itinerary)
            world.agents[agent_id] = agent
        if not itinerary:
            world._travellers.discard(agent_id)
            continue
        effect = plan_migration(agent, world.nodes.keys())
        if effect is not None:
            try:
                migrate(world, agent_id, effect.target)
            except Partitioned:
                world.log(
                    EVT_MIGRATION_REFUSED,
                    node=agent.location,
                    agent=agent_id,
                    detail={"target": effect.target, "reason": "partitioned"},
                )
