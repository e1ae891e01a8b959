"""Per-product lifecycle phase machine and the end-of-life disposition
ladder.

The phase machine uses an extended end-of-life: the use phase belongs to
EOL, so delivery moves a product straight from distribution into EOL_Use.
Disposition picks one of six outcomes from component condition scores via
a deterministic threshold ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from statistics import fmean
from typing import Sequence


class LifecycleError(ValueError):
    """Base class for lifecycle failures."""


class IllegalTransition(LifecycleError):
    """Phase/event pair is not in the transition table."""


class EmptyConditions(LifecycleError):
    """Disposition requested with no component conditions."""


class LifecyclePhase(str, Enum):
    """Declaration order is the reporting order: BOL before MOL before the
    extended EOL sub-phases (service may loop back to use)."""

    BOL_DESIGN = "BOL_Design"
    BOL_MANUFACTURE = "BOL_Manufacture"
    MOL_DISTRIBUTION = "MOL_Distribution"
    EOL_USE = "EOL_Use"
    EOL_SERVICE = "EOL_Service"
    EOL_RECOVERY = "EOL_Recovery"
    EOL_DISPOSED = "EOL_Disposed"


class LifecycleEvent(str, Enum):
    DESIGN_COMPLETE = "DesignComplete"
    MANUFACTURED = "Manufactured"
    DELIVERED = "Delivered"
    FAULT_REPORTED = "FaultReported"
    REPAIRED = "Repaired"
    RETIREMENT_REQUESTED = "RetirementRequested"
    DISPOSITION_EXECUTED = "DispositionExecuted"


# The complete legal transition table. Manufacture hands off to
# distribution directly and delivery enters the extended EOL.
TRANSITIONS: dict[tuple[LifecyclePhase, LifecycleEvent], LifecyclePhase] = {
    (LifecyclePhase.BOL_DESIGN, LifecycleEvent.DESIGN_COMPLETE): LifecyclePhase.BOL_MANUFACTURE,
    (LifecyclePhase.BOL_MANUFACTURE, LifecycleEvent.MANUFACTURED): LifecyclePhase.MOL_DISTRIBUTION,
    (LifecyclePhase.MOL_DISTRIBUTION, LifecycleEvent.DELIVERED): LifecyclePhase.EOL_USE,
    (LifecyclePhase.EOL_USE, LifecycleEvent.FAULT_REPORTED): LifecyclePhase.EOL_SERVICE,
    (LifecyclePhase.EOL_SERVICE, LifecycleEvent.REPAIRED): LifecyclePhase.EOL_USE,
    (LifecyclePhase.EOL_USE, LifecycleEvent.RETIREMENT_REQUESTED): LifecyclePhase.EOL_RECOVERY,
    (LifecyclePhase.EOL_RECOVERY, LifecycleEvent.DISPOSITION_EXECUTED): LifecyclePhase.EOL_DISPOSED,
}


def initial_state() -> LifecyclePhase:
    """Every product instance starts in design."""
    return LifecyclePhase.BOL_DESIGN


def advance(phase: LifecyclePhase, event: LifecycleEvent) -> LifecyclePhase:
    """Apply one event to the phase machine; illegal pairs raise."""
    try:
        return TRANSITIONS[(phase, event)]
    except KeyError:
        raise IllegalTransition(f"{event.value} is illegal in {phase.value}") from None


class EOLDecision(str, Enum):
    """Six disposition outcomes, best first."""

    REUSE_REFURBISH = "ReuseRefurbish"
    REUSE_COMPONENTS_DISASSEMBLY = "ReuseComponentsDisassembly"
    RECLAIM_NO_DISASSEMBLY = "ReclaimNoDisassembly"
    RECLAIM_WITH_DISASSEMBLY = "ReclaimWithDisassembly"
    DISPOSE_NO_INCINERATION = "DisposeNoIncineration"
    DISPOSE_INCINERATION = "DisposeIncineration"


# Rank for monotonicity checks; both reclaim outcomes share a rung.
DECISION_RANK: dict[EOLDecision, int] = {
    EOLDecision.REUSE_REFURBISH: 3,
    EOLDecision.REUSE_COMPONENTS_DISASSEMBLY: 2,
    EOLDecision.RECLAIM_NO_DISASSEMBLY: 1,
    EOLDecision.RECLAIM_WITH_DISASSEMBLY: 1,
    EOLDecision.DISPOSE_NO_INCINERATION: 0,
    EOLDecision.DISPOSE_INCINERATION: 0,
}

# A component counts as worth separating when it clears the reclaim bar
# and sits more than this far from the mean condition.
DISPERSION_MARGIN = 0.2


@dataclass(frozen=True)
class ComponentCondition:
    component: str
    condition: float
    hazardous: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.condition <= 1.0:
            raise LifecycleError(
                f"condition must be in [0, 1], got {self.condition} "
                f"for {self.component!r}"
            )


@dataclass(frozen=True)
class EOLPolicy:
    """Threshold ladder; reclaim <= component <= reuse, all in [0, 1]."""

    reuse_threshold: float = 0.8
    component_threshold: float = 0.6
    reclaim_threshold: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.reclaim_threshold <= self.component_threshold <= self.reuse_threshold <= 1.0:
            raise LifecycleError(
                "thresholds must satisfy 0 <= reclaim <= component <= reuse <= 1, got "
                f"({self.reuse_threshold}, {self.component_threshold}, {self.reclaim_threshold})"
            )


def decide_eol(conditions: Sequence[ComponentCondition], policy: EOLPolicy) -> EOLDecision:
    """Pick a disposition from component conditions.

    Ladder, top down: mean condition at or above the reuse threshold keeps
    the whole product; a single component at or above the component
    threshold is worth disassembling for reuse; a mean at or above the
    reclaim threshold goes to material reclamation (with disassembly when
    some component clears the reclaim bar and deviates from the mean by
    more than DISPERSION_MARGIN); everything else is disposed, incinerated
    iff any component is hazardous.
    """
    if not conditions:
        raise EmptyConditions("at least one component condition is required")
    mean = fmean(c.condition for c in conditions)
    best = max(c.condition for c in conditions)
    hazardous = any(c.hazardous for c in conditions)

    if mean >= policy.reuse_threshold:
        return EOLDecision.REUSE_REFURBISH
    if best >= policy.component_threshold:
        return EOLDecision.REUSE_COMPONENTS_DISASSEMBLY
    if mean >= policy.reclaim_threshold:
        separable = any(
            c.condition >= policy.reclaim_threshold
            and abs(c.condition - mean) > DISPERSION_MARGIN
            for c in conditions
        )
        if separable:
            return EOLDecision.RECLAIM_WITH_DISASSEMBLY
        return EOLDecision.RECLAIM_NO_DISASSEMBLY
    if hazardous:
        return EOLDecision.DISPOSE_INCINERATION
    return EOLDecision.DISPOSE_NO_INCINERATION
