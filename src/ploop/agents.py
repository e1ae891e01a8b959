"""Behavior rules for the five agent roles.

Agents follow one deterministic rule table, ``_RULES``: six rules, each
for a (role, payload type) pair, and no rule for any other pair.
``handle`` maps (state, message, tick) through it to a list of effects
and mutates nothing itself. The runtime owns all side effects; an
agent's knowledge emissions and sends only happen when the runtime
applies the returned effects, and an agent keeps no memory between
messages. Its itinerary is data too: each tick the runtime
migrates a resident agent with stops left to ``plan_migration``'s answer,
the itinerary head.

Role summary:
  AgentProduct   shadows one physical product (same id); turns sensor
                 batches into tacit records and acknowledges service
                 orders, whose repair the runtime applies.
  AgentService   reacts to fault reports with a service order for the
                 repair garage plus a tacit service record.
  AgentCustomer  turns interactive customer feedback into explicit,
                 collectively-sourced records.
  AgentImpact    watches environment-tagged sensor batches and emits
                 tacit impact records.
  AgentKnowledge keeps the repository: every record it is routed goes
                 into the world's one repository, and the runtime sends
                 the design trigger from the keeper when an insert
                 brings a generation's count to the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from .identity import ProductID
from .knowledge import KnowledgeRecord, explicit_record, tacit_record
from .messages import (
    KEY_SERVICE_ORDER,
    CustomerFeedback,
    FaultReported,
    Message,
    Payload,
    SensorBatch,
    ServiceOrder,
    payload_kind,
)


class AgentError(ValueError):
    """Base class for agent behavior failures."""


class UnhandledMessage(AgentError):
    """The role has no rule for this payload kind."""


class AgentRole(str, Enum):
    PRODUCT = "AgentProduct"
    SERVICE = "AgentService"
    CUSTOMER = "AgentCustomer"
    IMPACT = "AgentImpact"
    KNOWLEDGE = "AgentKnowledge"


@dataclass(frozen=True, slots=True, init=False)
class AgentState:
    """Complete migratable state of one agent: its id, role, node, bound
    product and itinerary.

    product_id is mandatory for AgentProduct (the agent and the physical
    product share an id) and optional elsewhere. The itinerary lists nodes
    still to visit; the runtime drops its leading stops at the agent's
    location when the agent spawns or lands, so a resident agent's
    itinerary never starts where it stands.
    """

    agent_id: str
    role: AgentRole
    location: str
    product_id: ProductID | None = None
    itinerary: tuple[str, ...] = ()

    def __init__(self, agent_id: str, role: AgentRole, location: str,
                 product_id: ProductID | None = None, itinerary: tuple[str, ...] = ()) -> None:
        # The cheaper test first; the slots are set past the frozen __setattr__.
        if product_id is None and role is _PRODUCT:
            raise AgentError("AgentProduct requires a product_id")
        _set_id(self, agent_id)
        _set_role(self, role)
        _set_location(self, location)
        _set_product(self, product_id)
        _set_itinerary(self, itinerary)


_PRODUCT = AgentRole.PRODUCT
_set_id, _set_role, _set_location, _set_product, _set_itinerary = (
    AgentState.__dict__[name].__set__ for name in AgentState.__slots__)


# Effects are inert data; the runtime interprets them.


@dataclass(frozen=True, slots=True)
class SendMessage:
    """Ask the runtime to publish a payload under a routing key. The
    runtime stamps its id, its delivery tick and its origin node."""

    routing_key: str
    payload: Payload


@dataclass(frozen=True, slots=True)
class EmitKnowledge:
    """Submit a record to the knowledge repository. Applied as a direct
    insert when the emitter is the repository keeper (AgentKnowledge);
    forwarded as a routed knowledge.record message otherwise."""

    record: KnowledgeRecord


Effect = Union[SendMessage, EmitKnowledge]


def _record_id(agent: AgentState, message: Message) -> str:
    return f"kr-{agent.agent_id}-{message.msg_id}"


def _batch_record(agent: AgentState, message: Message, tick: int) -> KnowledgeRecord:
    batch = message.payload
    return tacit_record(_record_id(agent, message), batch.product_id, batch.generation,
                        batch.category, batch.note, tick)


def _product_batch(agent: AgentState, message: Message, tick: int) -> list[Effect]:
    if not message.payload.events:
        return []
    return [EmitKnowledge(_batch_record(agent, message, tick))]


def _acknowledge(agent: AgentState, message: Message, tick: int) -> list[Effect]:
    # Acknowledge the repair order; the runtime advances the phase.
    return []


def _service_fault(agent: AgentState, message: Message, tick: int) -> list[Effect]:
    payload = message.payload
    order = ServiceOrder(
        product_id=payload.product_id,
        generation=payload.generation,
        detail=payload.detail,
    )
    record = tacit_record(_record_id(agent, message), payload.product_id,
                          payload.generation, "service", payload.detail, tick)
    return [SendMessage(KEY_SERVICE_ORDER, order), EmitKnowledge(record)]


def _customer_feedback(agent: AgentState, message: Message, tick: int) -> list[Effect]:
    payload = message.payload
    record = explicit_record(_record_id(agent, message), payload.product_id,
                             payload.generation, payload.text, tick)
    return [EmitKnowledge(record)]


def _impact_batch(agent: AgentState, message: Message, tick: int) -> list[Effect]:
    batch = message.payload
    if batch.category != "environment" or not batch.events:
        return []
    return [EmitKnowledge(_batch_record(agent, message, tick))]


def _keep_record(agent: AgentState, message: Message, tick: int) -> list[Effect]:
    return [EmitKnowledge(message.payload)]


# The rule table: each (role, payload type) pair a role has a rule for.
_RULES = {
    (AgentRole.PRODUCT, SensorBatch): _product_batch,
    (AgentRole.PRODUCT, ServiceOrder): _acknowledge,
    (AgentRole.SERVICE, FaultReported): _service_fault,
    (AgentRole.CUSTOMER, CustomerFeedback): _customer_feedback,
    (AgentRole.IMPACT, SensorBatch): _impact_batch,
    (AgentRole.KNOWLEDGE, KnowledgeRecord): _keep_record,
}


def handle(agent: AgentState, message: Message, tick: int) -> list[Effect]:
    """Apply the rule for the agent's role and the type of the payload
    delivered at tick.

    Pure: returns the effects to apply. Raises UnhandledMessage when the
    table has no rule for the pair; the runtime logs that and leaves the
    agent untouched.
    """
    payload = message.payload
    rule = _RULES.get((agent.role, type(payload)))
    if rule is None:
        raise UnhandledMessage(f"{agent.role.value} has no rule for {payload_kind(payload)}")
    return rule(agent, message, tick)


def plan_migration(agent: AgentState) -> str:
    """The node the agent migrates to next: the head of its itinerary.

    Precondition: the agent is resident and its itinerary is not empty.
    The runtime keeps the rest true: every stop was a registered node at
    spawn, and the stops at the agent's location were dropped when it
    spawned or landed, so the head is never where the agent stands.
    """
    return agent.itinerary[0]

