"""Message payload variants spoken between agents and the runtime.

Everything here is a plain value; payloads reference products by their
ProductID and never hold runtime state. The full payload union also
includes KnowledgeRecord and DesignTrigger from the knowledge layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .identity import ProductID, SensorEvent
from .knowledge import DesignTrigger, KnowledgeRecord

# Routing keys stamped on payloads generated inside the simulation.
KEY_SENSOR_PREFIX = "sensor."          # sensor.<category>
KEY_CUSTOMER_FEEDBACK = "feedback.customer"
KEY_FAULT_REPORTED = "fault.reported"
KEY_SERVICE_ORDER = "service.order"
KEY_KNOWLEDGE_RECORD = "knowledge.record"
KEY_DESIGN_TRIGGER = "design.trigger"


@dataclass(frozen=True, slots=True, init=False)
class SensorBatch:
    """A readout of on-product sensor events, tagged with the tacit
    category it evidences (use, environment, failure). A run builds one per
    batch, so its one constructor sets the slots past the frozen
    ``__setattr__``."""

    product_id: ProductID
    generation: int
    category: str
    events: tuple[SensorEvent, ...]
    note: str = ""

    def __init__(self, product_id: ProductID, generation: int, category: str,
                 events: tuple[SensorEvent, ...], note: str = "") -> None:
        _set_product_id(self, product_id)
        _set_generation(self, generation)
        _set_category(self, category)
        _set_events(self, events)
        _set_note(self, note)


_set_product_id, _set_generation, _set_category, _set_events, _set_note = (
    SensorBatch.__dict__[name].__set__ for name in SensorBatch.__slots__)


@dataclass(frozen=True, slots=True)
class CustomerFeedback:
    product_id: ProductID
    generation: int
    text: str


@dataclass(frozen=True, slots=True)
class FaultReported:
    product_id: ProductID
    generation: int
    detail: str


@dataclass(frozen=True, slots=True)
class ServiceOrder:
    product_id: ProductID
    generation: int
    detail: str


Payload = Union[
    SensorBatch,
    CustomerFeedback,
    FaultReported,
    ServiceOrder,
    KnowledgeRecord,
    DesignTrigger,
]


class Message(NamedTuple):
    """A routed payload in flight between agents. The runtime stamps its
    id, its delivery tick and its origin node; ``World.send`` logs the
    sender, refuses a delivery tick before the clock and builds the message
    with a bare ``tuple.__new__``."""

    msg_id: str
    routing_key: str
    payload: Payload
    deliver_at: int
    origin_node: str


def payload_kind(payload: Payload) -> str:
    return type(payload).__name__


def sensor_routing_key(category: str) -> str:
    return f"{KEY_SENSOR_PREFIX}{category}"
