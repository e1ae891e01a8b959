"""ploop: a deterministic mobile-agent platform and discrete-event
simulator for closed-loop product lifecycle management.

Products carry embedded information devices and serial@uri identities;
five cooperating agent roles migrate between lifecycle nodes, feed a
knowledge repository from the extended end-of-life phase, and trigger the
next product generation early enough to shorten its launch."""

from .identity import (
    PEID,
    IntelligenceLevel,
    PEIDCapability,
    ProductID,
    SensorEvent,
    classify_intelligence,
    mint_product_id,
    parse_product_id,
    record_event,
)
from .lifecycle import (
    ComponentCondition,
    EOLDecision,
    EOLPolicy,
    LifecycleEvent,
    LifecyclePhase,
    advance,
    decide_eol,
    initial_state,
)
from .knowledge import (
    Activity,
    DesignInsight,
    DesignTrigger,
    KnowledgeMode,
    KnowledgeRecord,
    KnowledgeRepository,
    KnowledgeSource,
    aggregate,
    classify_activity,
    explicit_record,
    tacit_record,
)
from .agents import AgentRole, AgentState, handle, plan_migration
from .runtime import (
    LatencyMap,
    NodeKind,
    PartitionWindow,
    RoutingRule,
    RoutingTable,
    SimParams,
    World,
    migrate,
    route,
    tick,
)
from .harness import (
    ComparisonSummary,
    RunReport,
    Scenario,
    compare,
    compute_report,
    load_scenario,
    run,
    save_scenario,
)

__version__ = "0.1.0"
