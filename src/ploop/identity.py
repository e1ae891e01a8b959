"""Product identity: serial@uri identifiers, the embedded information
device (PEID), and product-intelligence classification.

Identifiers render as ``serial@uri`` with '@' forbidden in both halves so
the rendered form parses unambiguously on its single separator. The
rendered string is the canonical wire/file representation used everywhere
else in the package.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from typing import Iterable
from urllib.parse import urlparse


class IdentityError(ValueError):
    """Base class for identity validation failures."""


class MalformedSerial(IdentityError):
    """Serial is empty or contains the '@' separator."""


class MalformedURI(IdentityError):
    """URI is empty, relative, or contains the '@' separator."""


class MalformedProductID(IdentityError):
    """Rendered identifier does not split into two non-empty halves."""


class NonMonotonicTime(IdentityError):
    """Sensor event is earlier than the tail of the event log."""


@dataclass(frozen=True)
class ProductID:
    """An identity joining a physical product and its software counterpart.

    Equality is field-wise; the rendered form is exactly ``serial@uri``,
    built once, when the id is, and kept outside the fields.
    """

    serial: str
    uri: str

    def __post_init__(self) -> None:
        if not self.serial:
            raise MalformedSerial("serial must be non-empty")
        if "@" in self.serial:
            raise MalformedSerial(f"serial must not contain '@': {self.serial!r}")
        if not self.uri:
            raise MalformedURI("uri must be non-empty")
        if "@" in self.uri:
            raise MalformedURI(f"uri must not contain '@': {self.uri!r}")
        object.__setattr__(self, "_rendered", f"{self.serial}@{self.uri}")

    def render(self) -> str:
        return self._rendered

    def __str__(self) -> str:
        return self._rendered


def mint_product_id(serial: str, uri: str) -> ProductID:
    """Create a new ProductID, requiring an absolute URI.

    Raises MalformedSerial or MalformedURI. The result round-trips through
    parse_product_id.
    """
    if not uri:
        raise MalformedURI("uri must be non-empty")
    if not urlparse(uri).scheme:
        raise MalformedURI(f"uri must be absolute (have a scheme): {uri!r}")
    return ProductID(serial=serial, uri=uri)


def parse_product_id(rendered: str) -> ProductID:
    """Decode a rendered ``serial@uri`` string.

    More permissive than mint_product_id: the uri half is not checked for
    absoluteness, only for being non-empty (the minting side validates).
    """
    parts = rendered.split("@")
    if len(parts) != 2:
        raise MalformedProductID(
            f"expected exactly one '@' separator, got {len(parts) - 1}: {rendered!r}"
        )
    serial, uri = parts
    if not serial or not uri:
        raise MalformedProductID(f"empty half in {rendered!r}")
    return ProductID(serial=serial, uri=uri)


class PEIDCapability(str, Enum):
    """The five fundamental properties an intelligent product can carry."""

    UNIQUE_ID = "UniqueID"
    COMMUNICATION = "Communication"
    SELF_STORAGE = "SelfStorage"
    FEATURE_LANGUAGE = "FeatureLanguage"
    DECISION_MAKING = "DecisionMaking"


# Properties 1-3: identity, communication, self-storage.
LEVEL1_CAPABILITIES = frozenset(
    {
        PEIDCapability.UNIQUE_ID,
        PEIDCapability.COMMUNICATION,
        PEIDCapability.SELF_STORAGE,
    }
)

ALL_CAPABILITIES = frozenset(PEIDCapability)


class IntelligenceLevel(str, Enum):
    NOT_INTELLIGENT = "NotIntelligent"
    LEVEL1 = "Level1"
    LEVEL2 = "Level2"


class IntelligenceChannel(str, Enum):
    THROUGH_NETWORK = "ThroughNetwork"
    AT_OBJECT = "AtObject"


class IntelligenceGranularity(str, Enum):
    ITEM = "Item"
    CONTAINER = "Container"


@dataclass(frozen=True)
class IntelligenceLocation:
    """Where intelligence sits. Recorded metadata only; no runtime effect."""

    channel: IntelligenceChannel
    granularity: IntelligenceGranularity


@dataclass(frozen=True, slots=True, init=False)
class SensorEvent:
    """One scalar reading captured by the on-product device."""

    sensor: str
    value: float
    unit: str
    sim_time: int

    def __init__(self, sensor: str, value: float, unit: str, sim_time: int) -> None:
        if sim_time < 0:
            raise IdentityError(f"sim_time must be >= 0, got {sim_time}")
        _set_sensor(self, sensor)
        _set_value(self, value)
        _set_unit(self, unit)
        _set_sim_time(self, sim_time)


_set_sensor, _set_value, _set_unit, _set_sim_time = (
    SensorEvent.__dict__[name].__set__ for name in SensorEvent.__slots__)


class PEID:
    """Product-embedded information device: identity, capability set, and
    an append-only sensor event log.

    The capability set must include UniqueID; a device without identity is
    unconstructible. Event log timestamps are non-decreasing. A PEID is
    immutable and compares and hashes by its three fields, as a frozen
    dataclass would.

    The PEIDs that ``record_event`` makes one from another share one list
    of events, each knowing its own length, so ``event_log`` is the first
    ``_size`` entries of ``_events`` and an append is O(1) amortized.
    """

    __slots__ = ("product_id", "capabilities", "_events", "_size")

    def __init__(
        self,
        product_id: ProductID,
        capabilities: Iterable[PEIDCapability] = ALL_CAPABILITIES,
        event_log: Iterable[SensorEvent] = (),
    ) -> None:
        capabilities = frozenset(capabilities)
        if PEIDCapability.UNIQUE_ID not in capabilities:
            raise IdentityError("PEID capabilities must include UniqueID")
        events = list(event_log)
        if any(a.sim_time > b.sim_time for a, b in zip(events, events[1:])):
            raise NonMonotonicTime("event_log timestamps must be non-decreasing")
        _fill(self, product_id, capabilities, events, len(events))

    @property
    def event_log(self) -> tuple[SensorEvent, ...]:
        return tuple(self._events[:self._size])

    def _fields(self) -> tuple[ProductID, frozenset[PEIDCapability], tuple[SensorEvent, ...]]:
        return self.product_id, self.capabilities, self.event_log

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return ("{}(product_id={!r}, capabilities={!r}, event_log={!r})"
                .format(type(self).__name__, *self._fields()))

    def __reduce__(self) -> tuple[type, tuple]:
        """Copy and pickle through the constructor, since assignment is refused."""
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


_set_product_id, _set_capabilities, _set_events, _set_size = (
    PEID.__dict__[name].__set__ for name in PEID.__slots__)


def _fill(peid: PEID, product_id: ProductID, capabilities: frozenset[PEIDCapability],
          events: list[SensorEvent], size: int) -> None:
    """Set the slots of a new PEID through their descriptors, past its
    refusal of assignment."""
    _set_product_id(peid, product_id)
    _set_capabilities(peid, capabilities)
    _set_events(peid, events)
    _set_size(peid, size)


def record_event(peid: PEID, *events: SensorEvent) -> PEID:
    """A PEID whose log is peid's with the sensor events appended in order;
    peid is left as it was, and so is its log when an event is refused.

    Each event's sim_time must not precede the entry before it, the first
    event's the log tail; prior entries are never rewritten. The refusal
    names the entry it would follow as the log tail, as appending the
    events one at a time would. Every PEID's log is ordered once built, so
    these checks are the whole check. The new PEID extends peid's list in
    place when peid's log is all of it; when an append from peid has
    already grown the list, it extends a copy of peid's own entries
    instead. A whole batch thus costs one PEID.
    """
    log, size = peid._events, peid._size
    tail = log[size - 1] if size else None
    for event in events:
        if tail is not None and event.sim_time < tail.sim_time:
            raise NonMonotonicTime(
                f"event at t={event.sim_time} precedes log tail t={tail.sim_time}")
        tail = event
    if len(log) != size:
        log = log[:size]
    log.extend(events)
    appended = object.__new__(type(peid))
    _fill(appended, peid.product_id, peid.capabilities, log, size + len(events))
    return appended


def classify_intelligence(capabilities: frozenset[PEIDCapability]) -> IntelligenceLevel:
    """Classify a capability set.

    Level1 covers properties 1-3; Level2 ("decision oriented") covers all
    five. Anything missing the first three is not intelligent.
    """
    caps = frozenset(capabilities)
    if caps >= ALL_CAPABILITIES:
        return IntelligenceLevel.LEVEL2
    if caps >= LEVEL1_CAPABILITIES:
        return IntelligenceLevel.LEVEL1
    return IntelligenceLevel.NOT_INTELLIGENT
