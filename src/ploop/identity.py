"""Product identity: serial@uri identifiers, the embedded information
device (PEID), and product-intelligence classification.

Identifiers render as ``serial@uri`` with '@' forbidden in both halves so
the rendered form parses unambiguously on its single separator. The
rendered string is the canonical wire/file representation used everywhere
else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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

    Equality is field-wise; the rendered form is exactly ``serial@uri``.
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

    def render(self) -> str:
        return f"{self.serial}@{self.uri}"

    def __str__(self) -> str:
        return self.render()


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


@dataclass(frozen=True)
class SensorEvent:
    """One scalar reading captured by the on-product device."""

    sensor: str
    value: float
    unit: str
    sim_time: int

    def __post_init__(self) -> None:
        if self.sim_time < 0:
            raise IdentityError(f"sim_time must be >= 0, got {self.sim_time}")


@dataclass(frozen=True)
class PEID:
    """Product-embedded information device: identity, capability set, and
    an append-only sensor event log.

    The capability set must include UniqueID; a device without identity is
    unconstructible. Event log timestamps are non-decreasing.
    """

    product_id: ProductID
    capabilities: frozenset[PEIDCapability] = ALL_CAPABILITIES
    event_log: tuple[SensorEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "capabilities", frozenset(self.capabilities))
        if PEIDCapability.UNIQUE_ID not in self.capabilities:
            raise IdentityError("PEID capabilities must include UniqueID")
        times = [e.sim_time for e in self.event_log]
        if any(a > b for a, b in zip(times, times[1:])):
            raise NonMonotonicTime("event_log timestamps must be non-decreasing")


def record_event(peid: PEID, event: SensorEvent) -> PEID:
    """Append one sensor event, copy-on-update.

    The event's sim_time must not precede the log tail; prior entries are
    never rewritten. Every PEID's log is ordered once built, so the tail
    check is the whole check: the copy skips ``__post_init__`` and its
    rescan of the log.
    """
    if peid.event_log and event.sim_time < peid.event_log[-1].sim_time:
        raise NonMonotonicTime(
            f"event at t={event.sim_time} precedes log tail "
            f"t={peid.event_log[-1].sim_time}"
        )
    appended = object.__new__(type(peid))
    vars(appended).update(vars(peid), event_log=peid.event_log + (event,))
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
