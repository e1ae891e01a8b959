"""Node registry, first-match message routing, atomic agent migration, and
the seeded discrete-event scheduler.

The engine is single-threaded by contract: one event at a time mutates the
World. Each tick runs a fixed sub-phase order so equal (scenario, seed)
pairs replay byte-identical logs:

  1. clock advances by one
  2. due migrations complete, ordered by arrival tick, then agent id
  3. due lifecycle events run (retirement, disposition, design and
     manufacture of the next generation), in scheduling order
  4. due messages deliver, ordered by (deliver_at, msg_id): world rules
     for the payload kind apply first, then routing resolves recipients
     and each recipient handles the message, its effects applied in list
     order
  5. resident agents with a pending itinerary plan one migration attempt
     each, in agent id order

The engine draws no random numbers: every order above is fixed by ticks
and ids, so the seed only labels the run in its log.

Partitions fail closed: no message or agent ever crosses a severed pair.
A migration across one is refused at send time, an arrival across one is
held in flight until the pair heals, and a delivery across one is
blocked; each refusal and block is logged.

Every log site passes its detail as a dict; ``LoggedEvent``, a
NamedTuple, owns the line format.

Per-tick cost follows activity, not agent count: a parked agent without
an itinerary costs a tick nothing, and a delivery costs only the
recipients its rule resolves to. The World keeps up to date, instead of
rescanning, only the indexes a hot path reads (see ``World.__init__``),
so neither a hop nor a delivery scans the world.
"""

from __future__ import annotations

import heapq
import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Collection, Iterable, Iterator, Mapping, NamedTuple

from .agents import (
    AgentRole,
    AgentState,
    Effect,
    SendMessage,
    UnhandledMessage,
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
    EmptyConditions,
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


class SimulationError(Exception):
    """Base class for runtime failures."""


class UnknownAgent(SimulationError):
    """Agent id is not registered."""


class UnknownNode(SimulationError):
    """A node id is not registered."""


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


# The event vocabulary: each kind a log line may name, with the envelope
# fields it sets beside tick and event_kind (every other one is "") and
# its detail keys with the type each decodes to. "node?" is a product's
# node, "" for a product declared without one; a detail key ending in "?"
# may be absent. The writer checks nothing against it; readers do.
EVENTS: dict[str, tuple[tuple[str, ...], dict[str, type]]] = {
    "run_started": ((), {"scenario": str, "seed": int, "horizon": int}),
    "run_finished": ((), {"ticks": int}),
    "node_registered": (("node",), {"kind": str}),
    "product_registered": (("node?",), {"family": str, "generation": int, "phase": str,
                                        "intelligence": str, "channel?": str,
                                        "granularity?": str}),
    "agent_spawned": (("node", "agent"), {"role": str, "product": str}),
    "message_sent": (("node", "agent", "msg_id"), {"key": str, "kind": str}),
    "message_delivered": (("node", "agent", "msg_id"), {"origin": str, "key": str}),
    "message_dropped": (("node", "msg_id"), {"key": str}),
    "message_blocked": (("node", "agent", "msg_id"), {"origin": str, "key": str}),
    "unhandled_message": (("node", "agent", "msg_id"), {"kind": str, "reason": str}),
    "knowledge_inserted": (("node", "agent"), {"family": str, "generation": int, "mode": str,
                                               "source": str, "activity": str,
                                               "record_id": str}),
    "design_trigger": (("node", "msg_id"), {"family": str, "from_generation": int,
                                            "next_generation": int}),
    "generation_started": ((), {"family": str, "generation": int}),
    "generation_launched": ((), {"family": str, "generation": int}),
    "lifecycle_advanced": (("node?",), {"family": str, "generation": int, "event": str,
                                        "from_phase": str, "to_phase": str}),
    "lifecycle_refused": (("node?",), {"family": str, "generation": int, "event": str,
                                       "phase": str}),
    "eol_decision": (("node?",), {"family": str, "generation": int, "decision": str}),
    "migration_started": (("node", "agent"), {"target": str, "arrive_at": int}),
    "migration_completed": (("node", "agent"), {"source": str}),
    "migration_refused": (("node", "agent"), {"target": str, "reason": str}),
    "peid_refused": (("node?", "msg_id"), {"family": str, "reason": str}),
}
# One name per kind: EVT_RUN_STARTED is "run_started", and so on.
globals().update({"EVT_" + kind.upper(): kind for kind in EVENTS})


# What json.dumps writes for an int; _quote is what it writes for a str.
_int = int.__repr__
_DETAIL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_scan = json.JSONDecoder().scan_once
# The fields of a log line, in the order to_json_line writes them.
_ENVELOPE = ("tick", "event_kind", "node", "agent", "msg_id", "detail")
# Builds a NamedTuple from its fields in order, past the class's own __new__,
# a Python function that only forwards them; the paths that build a record
# per event, hop or declaration build it so.
_new_tuple = tuple.__new__
# The kinds whose detail the World takes from World.shared_detail, and so the
# only kinds whose detail tokens recur in a log.
SHARED_KINDS = frozenset({"agent_spawned", "message_sent", "message_delivered",
                          "message_blocked", "migration_completed", "migration_refused"})
# The most written detail tokens a reader's memo holds (see from_json_line).
# Bounded, so a read keeps no more decoded details however many distinct
# tokens its log holds; only SHARED_KINDS lines use it, so one-off tokens do
# not evict the ones that recur. The notes of BENCH_detail_memo.json give the
# counts behind it.
_DETAILS_KEPT = 32


class LoggedEvent(NamedTuple):
    """One line of the run log, and the one owner of its format.

    A NamedTuple, so building one costs a tuple. ``detail`` is a plain dict
    in memory, or the empty read-only mapping by default; the writer
    refuses a non-empty mapping of any other type. ``to_json_line`` is the
    only encoder: six fixed fields in a fixed order, with the detail
    written as key-sorted compact JSON text (``""`` when empty). Events of
    one run may share a detail dict (see ``World.shared_detail``), and so
    may events decoded through one memo; nothing mutates a detail.
    ``from_json_line`` is the only decoder.
    """

    tick: int
    event_kind: str
    node: str = ""
    agent: str = ""
    msg_id: str = ""
    detail: dict[str, Any] = MappingProxyType({})

    def to_json_line(self, texts: Mapping[int, str] | None = None) -> str:
        """The line, without its newline. ``texts`` maps the ``id`` of a
        detail dict to its quoted text, to be written as it stands; the
        caller keeps every dict it names alive while it is in use, so no
        other dict can take its ``id`` (see ``World.log_lines``)."""
        tick, kind, node, agent, msg_id, detail = self
        if texts is None or (text := texts.get(id(detail))) is None:
            if (kind == EVT_MIGRATION_STARTED and type(detail) is dict and len(detail) == 2
                    and type(arrive_at := detail.get("arrive_at")) is int
                    and type(target := detail.get("target")) is str):
                # The hop's one written form: what detail_str writes for it.
                text = _quote(f'{{"arrive_at":{_int(arrive_at)},"target":{_quote(target)}}}')
            else:
                text = _quote(detail_str(detail)) if detail else '""'
        return (f'{{"tick":{_int(tick)},"event_kind":{_quote(kind)},'
                f'"node":{_quote(node)},"agent":{_quote(agent)},'
                f'"msg_id":{_quote(msg_id)},"detail":{text}}}')

    @classmethod
    def from_json_line(cls, line: str,
                       details: dict[str, dict[str, Any]] | None = None) -> "LoggedEvent":
        """The event a line holds; the line may end in its ``"\\n"``.

        A line as ``to_json_line`` writes it is read by one match of
        ``_written_line``: its envelope strings hold no escape or control
        character, so each decodes to itself, and its tick has at most 18
        digits. Its detail token, the quoted text as written, is read by the
        first of these that applies:

        - A line of one of ``SHARED_KINDS``, whose tokens recur, looks its
          token up in ``details``, a reader's memo that maps each token
          decoded to its dict, which later events with that token share.
        - A ``migration_started`` token in the hop's written form, one
          match of ``_written_hop``, becomes its two fields in text order.
        - Any other token is scanned in place and must end where the match
          ends it; then its text is decoded by ``_decode_detail``. On a line
          of ``SHARED_KINDS`` a text that is not empty goes into the memo,
          which is emptied when it holds ``_DETAILS_KEPT`` tokens and
          another comes. Only a token that decoded to a JSON object goes
          in, so no refusal depends on the memo.

        Any other line, or one whose token scans short, is read without the
        memo by one ``json.loads`` of the line less its ``"\\n"`` and one
        ``_envelope_fields`` check, so a refusal is worded as for the bare
        line."""
        written = _written_line(line)
        if written is not None:
            tick, kind, node, agent, msg_id, token = written.groups()
            if kind not in SHARED_KINDS:
                details = None
                if kind == EVT_MIGRATION_STARTED and (hop := _written_hop(token)) is not None:
                    arrive_at, target = hop.groups()
                    return _new_tuple(cls, (int(tick), kind, node, agent, msg_id,
                                            {"arrive_at": int(arrive_at), "target": target}))
            elif details is not None and (detail := details.get(token)) is not None:
                return _new_tuple(cls, (int(tick), kind, node, agent, msg_id, detail))
            start, stop = written.span(6)
            try:
                text, end = _scan(line, start)
            except ValueError:
                end = None
            if end == stop:
                detail = _decode_detail(text)
                if text and details is not None:
                    if len(details) >= _DETAILS_KEPT:
                        details.clear()
                    details[token] = detail
                return _new_tuple(cls, (int(tick), kind, node, agent, msg_id, detail))
        try:
            raw = json.loads(line.removesuffix("\n"))
        except RecursionError:
            raise ValueError("a log line nests too deeply to decode") from None
        tick, kind, node, agent, msg_id, text = _envelope_fields(raw)
        return _new_tuple(cls, (tick, kind, node, agent, msg_id, _decode_detail(text)))


# What LoggedEvent.to_json_line writes: a tick of at most 18 digits, so that
# int() reads it under any int-digits limit, four strings that need no escape,
# and the detail's quoted text as a token to scan. Groups 1-6 are the fields.
_written_line = re.compile(r"\{%s\}\n?" % ",".join(
    f'"{key}":' + (r"(0|[1-9][0-9]{0,17})" if key == "tick" else
                   r'(".*")' if key == "detail" else r'"([^"\\\x00-\x1f]*)"')
    for key in _ENVELOPE)).fullmatch
# The detail token of a migration_started line as to_json_line writes it: an
# arrive_at of at most 18 digits, as _written_line reads a tick, and a target
# that decodes to itself. Groups 1-2 are the values.
_written_hop = re.compile(
    r'"\{\\"arrive_at\\":(0|-?[1-9][0-9]{0,17}),\\"target\\":\\"([^"\\\x00-\x1f]*)\\"\}"'
).fullmatch


def _decode_detail(text: str) -> dict[str, Any]:
    """The dict a detail text decodes to, ``{}`` for the empty text."""
    if not text:
        return {}
    try:
        try:
            detail, end = _scan(text, 0)
            if end != len(text):
                detail = json.loads(text)
        except StopIteration:
            detail = json.loads(text)
    except RecursionError:
        raise ValueError("detail nests too deeply to decode") from None
    if type(detail) is not dict:
        raise ValueError("detail must be empty or the text of a JSON object")
    return detail


def _envelope_fields(raw: Any) -> list[Any]:
    """The six fields of a decoded line, in envelope order. A line that is
    not an object is refused, and otherwise the first field, in envelope
    order, that is missing or lacks its JSON type is named, a null as null."""
    if type(raw) is not dict:
        raise ValueError("a log line must be a JSON object")
    for key in _ENVELOPE:
        if key not in raw:
            raise ValueError(f"{key} is missing")
        if type(raw[key]) is not (int if key == "tick" else str):
            got = "null" if raw[key] is None else type(raw[key]).__name__
            raise ValueError(
                f"{key} must be {'an integer' if key == 'tick' else 'a string'}, got {got}")
    return [raw[key] for key in _ENVELOPE]


if c_make_encoder is None:
    def detail_str(detail: Mapping[str, Any]) -> str:
        """Compact, key-sorted JSON: the detail field as a log line writes it."""
        return _DETAIL_ENCODER.encode(detail)
else:
    # No markers dict: nothing outlives a failed encode, and a cyclic detail
    # would raise RecursionError. None is built: every detail, a dict literal
    # or a World.shared_detail dict, holds only str and int values.
    _encode_detail = c_make_encoder(None, _DETAIL_ENCODER.default, _quote, None,
                                    ":", ",", True, False, True)

    def detail_str(detail: Mapping[str, Any]) -> str:
        """Compact, key-sorted JSON: the detail field as a log line writes it."""
        return "".join(_encode_detail(detail, 0))


@dataclass(frozen=True)
class RoutingRule:
    """First-match rule: exact key or prefix ending in '*'."""

    pattern: str
    recipients: tuple[str, ...]

    def matches(self, key: str) -> bool:
        if self.pattern.endswith("*"):
            return key.startswith(self.pattern[:-1])
        return key == self.pattern


@dataclass(frozen=True)
class RoutingTable:
    """First-match rules ending in the catch-all. A table never changes, so
    ``first_match`` scans the rules for a key once and remembers the rule it
    found; the memo is not a field, so equality, hash, repr and ``asdict``
    see only ``rules``. It holds one entry per key routed, and a run routes
    only the few keys its scenario and the runtime name."""

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
        object.__setattr__(self, "_matched", {})

    def first_match(self, key: str) -> RoutingRule:
        rule = self._matched.get(key)
        if rule is None:
            # The catch-all guarantees a match.
            rule = self._matched[key] = next(r for r in self.rules if r.matches(key))
        return rule


CATCH_ALL_TABLE = RoutingTable(rules=(RoutingRule("*", ()),))

_ROLES = {role.value: role for role in AgentRole}

# Payloads about one product; an AgentProduct selector binds them to it.
_PRODUCT_SCOPED = (SensorBatch, ServiceOrder, CustomerFeedback, FaultReported)


def route(
    message: Message,
    table: RoutingTable,
    directory: Collection[str],
    roles: Mapping[AgentRole, Collection[str]],
    products: Mapping[ProductID, str],
) -> list[str]:
    """Resolve the first matching rule to concrete resident agents.

    ``directory`` holds the ids of the resident agents, ``roles`` maps each
    role to its resident agents and ``products`` each product to the
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


def _drop_heads(itinerary: tuple[str, ...], location: str) -> tuple[str, ...]:
    """The itinerary without the leading stops at ``location``."""
    while itinerary and itinerary[0] == location:
        itinerary = itinerary[1:]
    return itinerary


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


def _severed_bounds(windows: Iterable[PartitionWindow]) -> dict[tuple[str, str], list[int]]:
    """Each severed pair, under both node orders, to the bounds of its
    windows merged into disjoint spans: ``[from_0, to_0 + 1, from_1, ...]``,
    strictly ascending. A tick is covered exactly when an odd number of
    bounds is at or below it, which one ``bisect_right`` counts."""
    by_pair: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for w in windows:
        if w.from_tick <= w.to_tick:   # a window that covers no tick adds no span
            by_pair.setdefault(_pair(w.a, w.b), []).append((w.from_tick, w.to_tick + 1))
    out: dict[tuple[str, str], list[int]] = {}
    for (a, b), spans in by_pair.items():
        bounds: list[int] = []
        for lo, hi in sorted(spans):
            if bounds and lo <= bounds[-1]:
                bounds[-1] = max(bounds[-1], hi)   # overlapping or adjacent: merge
            else:
                bounds += (lo, hi)
        out[a, b] = out[b, a] = bounds
    return out


@dataclass(frozen=True)
class SimParams:
    """Scenario-level knobs applied by the engine. Field order is the key
    order of a scenario file's ``params``; an absent key takes the default
    here."""

    trigger_threshold: int = 10
    message_latency: int = 1
    design_ticks: int = 3
    manufacture_ticks: int = 4
    disposal_ticks: int = 1
    trigger_rule_enabled: bool = True
    eol_policy: EOLPolicy = EOLPolicy()

    def __post_init__(self) -> None:
        for name in ("trigger_threshold", "message_latency", "design_ticks",
                     "manufacture_ticks", "disposal_ticks"):
            if getattr(self, name) < 1:
                raise SimulationError(f"{name} must be >= 1")


@dataclass
class ProductState:
    """World-side record of one product instance."""

    product_id: ProductID
    family: str
    generation: int
    phase: LifecyclePhase
    peid: PEID
    components: tuple[ComponentCondition, ...] = ()
    node: str = ""   # as logged: "" for none

    @property
    def key(self) -> str:
        return self.product_id.render()


class Transfer(NamedTuple):
    """One agent in flight to ``target``, due at ``arrive_at``.

    The source is not stored: the agent's ``AgentState.location`` stays the
    node it left until it lands. A NamedTuple, the cheapest immutable
    record, which ``migrate`` builds with ``_new_tuple``. Each tick scans
    ``World.in_flight`` for the due transfers instead of keeping them in a
    heap: in a run only agents with an itinerary travel, so few are in
    flight, and an arrival held by a partition stays due, so a heap would
    pop and push it back every tick the pair stays severed.
    """

    agent_id: str
    target: str
    arrive_at: int


# Due arrivals land by arrival tick, then agent id.
_ARRIVAL_ORDER = itemgetter(2, 0)


@dataclass(frozen=True)
class Action:
    """A lifecycle event the engine applies to one product at a set tick."""

    event: LifecycleEvent
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
        self.params = params
        # Each pair's latency under both node orders, so a hop looks it up
        # once; as in LatencyMap.get, only a sorted key names a pair.
        self._latency = {key: ticks for (a, b), ticks in latency.pairs.items()
                         if a <= b for key in ((a, b), (b, a))}
        self._default_latency = latency.default
        self._bounds = _severed_bounds(partitions)
        self.nodes: set[str] = set()
        self.agents: dict[str, AgentState] = {}
        self.in_flight: dict[str, Transfer] = {}
        self.products: dict[str, ProductState] = {}
        self.events: list[LoggedEvent] = []
        # The one knowledge repository; only the keeper (AgentKnowledge) inserts.
        self.repository = KnowledgeRepository()
        self.started_generations: set[tuple[str, int]] = set()
        # Kept by spawn_agent, migrate and arrivals: every agent not in flight,
        # the same agents by role, and those whose itinerary is not empty.
        self._residents: set[str] = set()
        self._by_role: dict[AgentRole, set[str]] = {role: set() for role in AgentRole}
        # Set once at spawn: each product's AgentProduct, resident or not.
        self._by_product: dict[ProductID, str] = {}
        self._travellers: set[str] = set()
        self._pending: list[tuple[int, int, Message]] = []
        self._actions: list[tuple[int, int, Action]] = []
        self._msg_seq = 0
        self._action_seq = 0
        # The detail dicts that recur, by (kind, *values); see shared_detail.
        self._details: dict[tuple[str, ...], dict[str, str]] = {}

    # -- event log --------------------------------------------------------

    def log(self, event_kind: str, node: str = "", agent: str = "",
            msg_id: str = "", *, detail: dict[str, Any]) -> None:
        """Append an event at the clock. The sites that log once per spawn,
        send, hop, delivery or insert append their bare ``LoggedEvent``
        inline instead, past this call."""
        self.events.append(
            _new_tuple(LoggedEvent, (self.clock, event_kind, node, agent, msg_id, detail))
        )

    def shared_detail(self, key: tuple[str, ...]) -> dict[str, str]:
        """The one detail dict of ``key``, ``(kind, *values)``: the kind's
        ``EVENTS`` keys, in order, mapped to the values. Every value is a
        str, so equal keys mean equal details. The World keeps each dict
        for its whole life, and the events that log it share it. The kinds
        whose details recur, ``SHARED_KINDS``, take theirs from here, and
        ``message_blocked`` shares the dict of ``message_delivered``; the
        other kinds' details hardly repeat and stay dict literals."""
        detail = self._details.get(key)
        if detail is None:
            detail = self._details[key] = dict(zip(EVENTS[key[0]][1], key[1:]))
        return detail

    def log_lines(self) -> Iterator[str]:
        """The log as written to ``<name>.events.jsonl``, one line per
        event, without newlines. Each shared detail is encoded once, into a
        map from its ``id`` that lives only as long as this iterator, which
        holds the World and so every dict the map names."""
        texts = {id(detail): _quote(detail_str(detail)) for detail in self._details.values()}
        yield from map(LoggedEvent.to_json_line, self.events, repeat(texts))

    # -- registration -----------------------------------------------------

    def register_node(self, kind: NodeKind, node_id: str) -> str:
        if node_id in self.nodes:
            raise SimulationError(f"node id already registered: {node_id!r}")
        self.nodes.add(node_id)
        self.log(EVT_NODE_REGISTERED, node=node_id, detail={"kind": kind.value})
        return node_id

    def register_product(
        self,
        product_id: ProductID,
        generation: int,
        phase: LifecyclePhase,
        components: tuple[ComponentCondition, ...] = (),
        capabilities: Iterable[PEIDCapability] | None = None,
        node: str = "",
        family: str | None = None,
        location_meta: IntelligenceLocation | None = None,
    ) -> ProductState:
        caps = frozenset(capabilities) if capabilities is not None else frozenset(PEIDCapability)
        peid = PEID(product_id=product_id, capabilities=caps)
        state = ProductState(
            product_id=product_id,
            family=family or product_id.render(),
            generation=generation,
            phase=phase,
            peid=peid,
            components=components,
            node=node,
        )
        if state.key in self.products:
            raise SimulationError(f"product already registered: {state.key!r}")
        if node and node not in self.nodes:
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
        self.log(EVT_PRODUCT_REGISTERED, node=node, detail=detail)
        return state

    def spawn_agent(
        self,
        role: AgentRole,
        home: str,
        product_id: ProductID | None = None,
        itinerary: tuple[str, ...] = (),
        *,
        agent_id: str,
    ) -> str:
        """Place a new agent, resident at ``home``, and log it. An unknown
        node, a taken id, or a second AgentProduct for one product is
        refused before any index is touched: a world holds at most one
        AgentProduct per product."""
        nodes = self.nodes
        if home not in nodes:
            raise UnknownNode(f"home node {home!r} is not registered")
        if not nodes.issuperset(itinerary):
            stop = next(stop for stop in itinerary if stop not in nodes)
            raise UnknownNode(f"itinerary node {stop!r} is not registered")
        if agent_id in self.agents:
            raise SimulationError(f"agent id already registered: {agent_id!r}")
        itinerary = _drop_heads(itinerary, home)
        state = AgentState(agent_id, role, home, product_id, itinerary)
        if role is AgentRole.PRODUCT:
            bound = self._by_product.get(product_id)
            if bound is not None:
                raise SimulationError(
                    f"AgentProduct {agent_id!r}: product {product_id.render()!r} is "
                    f"already bound to AgentProduct {bound!r}")
            self._by_product[product_id] = agent_id
        self.agents[agent_id] = state
        self._residents.add(agent_id)
        self._by_role[role].add(agent_id)
        if itinerary:
            self._travellers.add(agent_id)
        detail = self.shared_detail(
            (EVT_AGENT_SPAWNED, role._value_, product_id.render() if product_id else ""))
        self.events.append(_new_tuple(LoggedEvent, (
            self.clock, EVT_AGENT_SPAWNED, home, agent_id, "", detail)))
        return agent_id

    # -- messaging --------------------------------------------------------

    def send(
        self,
        routing_key: str,
        payload: Payload,
        sender: str,
        origin_node: str,
        deliver_at: int | None = None,
    ) -> Message:
        clock = self.clock
        if deliver_at is None:
            deliver_at = clock + self.params.message_latency
        elif deliver_at < clock:
            raise SimulationError(f"deliver_at {deliver_at} precedes the clock {clock}")
        self._msg_seq = seq = self._msg_seq + 1
        msg_id = "m%06d" % seq
        message = _new_tuple(Message, (msg_id, routing_key, payload, deliver_at, origin_node))
        heapq.heappush(self._pending, (deliver_at, seq, message))
        detail = self.shared_detail((EVT_MESSAGE_SENT, routing_key, payload_kind(payload)))
        self.events.append(_new_tuple(LoggedEvent, (
            clock, EVT_MESSAGE_SENT, origin_node, sender, msg_id, detail)))
        return message

    def schedule_action(self, tick: int, action: Action) -> None:
        if tick <= self.clock:
            raise SimulationError(
                f"action {action.event.value} scheduled at tick {tick} "
                f"not after clock {self.clock}"
            )
        self._action_seq += 1
        heapq.heappush(self._actions, (tick, self._action_seq, action))

    # -- partitions -------------------------------------------------------

    def severed(self, a: str, b: str) -> bool:
        """Whether a window covers the pair (in either order) at the clock:
        one dict lookup and, for a pair with windows, one bisect."""
        bounds = self._bounds.get((a, b))
        return bounds is not None and bisect_right(bounds, self.clock) % 2 == 1

    # -- invariant helpers --------------------------------------------------

    def census(self) -> dict[str, str]:
        """Where every agent is right now: 'node:<id>' or 'in_flight',
        derived from each resident's location and ``in_flight``."""
        agents = self.agents
        placement = {aid: f"node:{agents[aid].location}" for aid in self._residents}
        for aid in self.in_flight:
            if aid in placement:
                raise SimulationError(f"agent {aid} both resident and in flight")
            placement[aid] = "in_flight"
        return placement

    def resident_directory(self) -> dict[str, AgentRole]:
        """Every agent not in flight, with its role (a new dict)."""
        agents = self.agents
        return {aid: agents[aid].role for aid in self._residents}


# -- module operation surface ------------------------------------------------


def migrate(world: World, agent_id: str, target: str) -> World:
    """Begin the atomic three-step transfer of an agent.

    Removes the agent from its source node and schedules insertion at the
    target after the pair's latency. Fails closed without touching state
    when the pair is severed at send time.
    """
    agent = world.agents.get(agent_id)
    if agent is None:
        raise UnknownAgent(f"unknown agent {agent_id!r}")
    if agent_id in world.in_flight:
        raise AgentInFlight(f"agent {agent_id!r} is already in flight")
    if target not in world.nodes:
        raise UnknownNode(f"unknown target node {target!r}")
    source = agent.location
    if world.severed(source, target):
        raise Partitioned(f"({source}, {target}) is severed")
    # Unindex the agent leaving its location.
    world._residents.remove(agent_id)
    world._by_role[agent.role].discard(agent_id)
    world._travellers.discard(agent_id)
    clock = world.clock
    arrive_at = clock + world._latency.get((source, target), world._default_latency)
    world.in_flight[agent_id] = _new_tuple(Transfer, (agent_id, target, arrive_at))
    world.events.append(_new_tuple(LoggedEvent, (
        clock, EVT_MIGRATION_STARTED, source, agent_id, "",
        {"target": target, "arrive_at": arrive_at})))
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
    clock = world.clock
    in_flight = world.in_flight
    due = [t for t in in_flight.values() if t.arrive_at <= clock]
    if not due:
        return
    due.sort(key=_ARRIVAL_ORDER)
    agents, append, shared = world.agents, world.events.append, world.shared_detail
    residents, by_role, travellers = world._residents, world._by_role, world._travellers
    for agent_id, target, _ in due:
        agent = agents[agent_id]
        source = agent.location
        # Held in flight while the pair is severed; lands once it heals.
        if world.severed(source, target):
            continue
        itinerary = _drop_heads(agent.itinerary, target)
        agents[agent_id] = AgentState(agent_id, agent.role, target, agent.product_id, itinerary)
        # Index the agent where it now stands.
        residents.add(agent_id)
        by_role[agent.role].add(agent_id)
        if itinerary:
            travellers.add(agent_id)
        del in_flight[agent_id]
        append(_new_tuple(LoggedEvent, (
            clock, EVT_MIGRATION_COMPLETED, target, agent_id, "",
            shared((EVT_MIGRATION_COMPLETED, source)))))


def _run_due_actions(world: World) -> None:
    while world._actions and world._actions[0][0] <= world.clock:
        tick_due, _, action = heapq.heappop(world._actions)
        if tick_due < world.clock:
            raise SimulationError(f"missed action {action.event.value} at {tick_due}")
        _apply_action(world, action)


def _refuse(world: World, product: ProductState, event: LifecycleEvent, phase: str) -> None:
    world.log(
        EVT_LIFECYCLE_REFUSED,
        node=product.node,
        detail={
            "family": product.family,
            "generation": product.generation,
            "event": event.value,
            "phase": phase,
        },
    )


def _advance_product(world: World, product: ProductState, event: LifecycleEvent) -> bool:
    try:
        new_phase = advance(product.phase, event)
    except IllegalTransition:
        _refuse(world, product, event, product.phase.value)
        return False
    world.log(
        EVT_LIFECYCLE_ADVANCED,
        node=product.node,
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
    event = action.event
    params = world.params
    if event is LifecycleEvent.DISPOSITION_EXECUTED:
        try:
            decision = decide_eol(product.components, params.eol_policy)
        except EmptyConditions:
            _refuse(world, product, event, "no-components")
            return
        world.log(
            EVT_EOL_DECISION,
            node=product.node,
            detail={
                "family": product.family,
                "generation": product.generation,
                "decision": decision.value,
            },
        )
    if _advance_product(world, product, event):
        if event is LifecycleEvent.RETIREMENT_REQUESTED:
            world.schedule_action(world.clock + params.disposal_ticks,
                                  Action(LifecycleEvent.DISPOSITION_EXECUTED, product.key))
        elif event is LifecycleEvent.DESIGN_COMPLETE:
            world.schedule_action(world.clock + params.manufacture_ticks,
                                  Action(LifecycleEvent.MANUFACTURED, product.key))
        elif event is LifecycleEvent.MANUFACTURED:
            world.log(
                EVT_GENERATION_LAUNCHED,
                detail={"family": product.family, "generation": product.generation},
            )
    if event is LifecycleEvent.RETIREMENT_REQUESTED and not params.trigger_rule_enabled:
        # Baseline: the next generation starts at scheduled retirement.
        _start_generation(world, product.family, product.generation + 1)


def next_generation_id(parent: ProductID, generation: int) -> ProductID:
    """The id of the product that generation ``generation`` of ``parent``'s
    family is registered under when it starts."""
    return ProductID(serial=f"{parent.serial}-g{generation}", uri=parent.uri)


def _start_generation(world: World, family: str, next_generation: int) -> None:
    """Kick off the BOL pipeline for the next product generation, once."""
    if (family, next_generation) in world.started_generations:
        return
    parent = world.products[family]
    world.started_generations.add((family, next_generation))
    next_id = next_generation_id(parent.product_id, next_generation)
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
        Action(LifecycleEvent.DESIGN_COMPLETE, next_id.render()),
    )


def _deliver_due_messages(world: World) -> None:
    while world._pending and world._pending[0][0] <= world.clock:
        deliver_at, _, message = heapq.heappop(world._pending)
        if deliver_at < world.clock:
            raise SimulationError(f"missed delivery of {message.msg_id} at {deliver_at}")
        _process_delivery(world, message)


# The lifecycle step a payload's arrival applies to its product; a service
# order reaching the garage-side handler completes the repair.
_PAYLOAD_EVENTS = {
    FaultReported: LifecycleEvent.FAULT_REPORTED,
    ServiceOrder: LifecycleEvent.REPAIRED,
}


def _world_rules(world: World, message: Message) -> None:
    """Engine-level consequences of a payload arriving, before routing. A
    non-empty sensor batch reaches its product's PEID in one
    ``record_event`` call."""
    payload = message.payload
    event = _PAYLOAD_EVENTS.get(type(payload))
    if event is not None:
        product = world.products.get(payload.product_id.render())
        if product is not None:
            _advance_product(world, product, event)
    elif isinstance(payload, SensorBatch):
        product = world.products.get(payload.product_id.render())
        if product is not None and payload.events:
            try:
                product.peid = record_event(product.peid, *payload.events)
            except NonMonotonicTime as exc:
                world.log(
                    EVT_PEID_REFUSED,
                    node=product.node,
                    msg_id=message.msg_id,
                    detail={"family": product.family, "reason": str(exc)},
                )
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
    msg_id, key, payload, _, origin = message
    if not recipients:
        world.log(EVT_MESSAGE_DROPPED, node=origin, msg_id=msg_id, detail={"key": key})
        return
    agents, append, clock = world.agents, world.events.append, world.clock
    # message_blocked declares message_delivered's keys: one dict for both.
    detail = world.shared_detail((EVT_MESSAGE_DELIVERED, origin, key))
    for agent_id in recipients:
        agent = agents[agent_id]
        location = agent.location
        if world.severed(origin, location):
            append(_new_tuple(LoggedEvent, (
                clock, EVT_MESSAGE_BLOCKED, location, agent_id, msg_id, detail)))
            continue
        append(_new_tuple(LoggedEvent, (
            clock, EVT_MESSAGE_DELIVERED, location, agent_id, msg_id, detail)))
        try:
            effects = handle(agent, message, clock)
        except UnhandledMessage as exc:
            world.log(
                EVT_UNHANDLED_MESSAGE,
                node=location,
                agent=agent_id,
                msg_id=msg_id,
                detail={"kind": payload_kind(payload), "reason": str(exc)},
            )
            continue
        for effect in effects:
            _apply_effect(world, agent, effect)


def _apply_effect(world: World, agent: AgentState, effect: Effect) -> None:
    """Apply a SendMessage, or else the other effect, an EmitKnowledge."""
    if isinstance(effect, SendMessage):
        key, payload = effect.routing_key, effect.payload
    elif agent.role is AgentRole.KNOWLEDGE:
        _insert_record(world, agent, effect.record)
        return
    else:
        # Submissions travel to the repository keeper as messages.
        key, payload = KEY_KNOWLEDGE_RECORD, effect.record
    world.send(key, payload, sender=agent.agent_id, origin_node=agent.location)


def _insert_record(world: World, agent: AgentState, record: KnowledgeRecord) -> None:
    """Insert at the keeper; the insert that brings its (family, generation)
    to exactly the threshold sends the design trigger, so it fires once.
    The logged enum values are read from the members' ``_value_``, past
    the ``value`` property."""
    try:
        world.repository.insert(record)
    except DuplicateRecord:
        return
    family, generation = record.family, record.generation
    world.events.append(_new_tuple(LoggedEvent, (
        world.clock, EVT_KNOWLEDGE_INSERTED, agent.location, agent.agent_id, "", {
            "family": family,
            "generation": generation,
            "mode": record.mode._value_,
            "source": record.source._value_,
            "activity": record.activity._value_,
            "record_id": record.record_id,
        })))
    params = world.params
    count = world.repository.count(family, generation)
    if params.trigger_rule_enabled and count == params.trigger_threshold:
        trigger = DesignTrigger(family, generation, generation + 1)
        world.send(KEY_DESIGN_TRIGGER, trigger, sender=agent.agent_id,
                   origin_node=agent.location)


def _plan_itineraries(world: World) -> None:
    for agent_id in sorted(world._travellers):
        agent = world.agents[agent_id]
        target = plan_migration(agent)
        try:
            migrate(world, agent_id, target)
        except Partitioned:
            world.log(
                EVT_MIGRATION_REFUSED,
                node=agent.location,
                agent=agent_id,
                detail=world.shared_detail((EVT_MIGRATION_REFUSED, target, "partitioned")),
            )
