import random
from statistics import fmean

import pytest

from ploop.lifecycle import (
    DECISION_RANK,
    TRANSITIONS,
    ComponentCondition,
    EmptyConditions,
    EOLDecision,
    EOLPolicy,
    IllegalTransition,
    LifecycleEvent,
    LifecyclePhase,
    advance,
    decide_eol,
    initial_state,
)


def oracle_decide(conditions, policy):
    # Naive restatement of the ladder, kept independent of the
    # implementation on purpose.
    values = [c.condition for c in conditions]
    mean = fmean(values)
    if mean >= policy.reuse_threshold:
        return EOLDecision.REUSE_REFURBISH
    if max(values) >= policy.component_threshold:
        return EOLDecision.REUSE_COMPONENTS_DISASSEMBLY
    if mean >= policy.reclaim_threshold:
        for c in conditions:
            if c.condition >= policy.reclaim_threshold and abs(c.condition - mean) > 0.2:
                return EOLDecision.RECLAIM_WITH_DISASSEMBLY
        return EOLDecision.RECLAIM_NO_DISASSEMBLY
    if any(c.hazardous for c in conditions):
        return EOLDecision.DISPOSE_INCINERATION
    return EOLDecision.DISPOSE_NO_INCINERATION


def random_conditions(rng, n=None):
    n = n or rng.randint(1, 6)
    return [
        ComponentCondition(f"c{i}", round(rng.random(), 3), rng.random() < 0.3)
        for i in range(n)
    ]


class TestPhaseMachine:
    def test_initial_state_is_design(self):
        assert initial_state() is LifecyclePhase.BOL_DESIGN

    def test_design_complete_leaves_initial_state(self):
        assert advance(initial_state(), LifecycleEvent.DESIGN_COMPLETE) \
            is LifecyclePhase.BOL_MANUFACTURE

    def test_delivery_enters_extended_eol(self):
        assert advance(LifecyclePhase.MOL_DISTRIBUTION, LifecycleEvent.DELIVERED) \
            is LifecyclePhase.EOL_USE

    def test_repair_loops_back_to_use(self):
        assert advance(LifecyclePhase.EOL_SERVICE, LifecycleEvent.REPAIRED) \
            is LifecyclePhase.EOL_USE

    def test_grid_has_exactly_seven_legal_transitions(self):
        legal = []
        for phase in LifecyclePhase:
            for event in LifecycleEvent:
                try:
                    advance(phase, event)
                    legal.append((phase, event))
                except IllegalTransition:
                    pass
        assert len(legal) == 7
        assert set(legal) == set(TRANSITIONS)

    def test_no_event_leaves_disposed(self):
        for event in LifecycleEvent:
            with pytest.raises(IllegalTransition):
                advance(LifecyclePhase.EOL_DISPOSED, event)

    def test_advance_is_deterministic(self):
        for (phase, event), target in TRANSITIONS.items():
            assert advance(phase, event) is target
            assert advance(phase, event) is target

    def test_reporting_order(self):
        names = [p.value for p in LifecyclePhase]
        assert names.index("BOL_Design") < names.index("BOL_Manufacture") \
            < names.index("MOL_Distribution") < names.index("EOL_Use")


class TestEOLPolicy:
    def test_default_thresholds_are_ordered(self):
        EOLPolicy()

    @pytest.mark.parametrize("thresholds", [
        (0.5, 0.6, 0.3),   # component above reuse
        (0.8, 0.2, 0.3),   # reclaim above component
        (1.2, 0.6, 0.3),   # out of range
    ])
    def test_misordered_thresholds_rejected(self, thresholds):
        with pytest.raises(ValueError):
            EOLPolicy(*thresholds)

    def test_condition_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ComponentCondition("x", 1.5)


class TestDispositionLadder:
    policy = EOLPolicy(0.8, 0.6, 0.3)

    def test_perfect_product_is_refurbished(self):
        conditions = [ComponentCondition("a", 1.0), ComponentCondition("b", 1.0)]
        assert decide_eol(conditions, self.policy) is EOLDecision.REUSE_REFURBISH

    def test_dead_hazardous_product_is_incinerated(self):
        conditions = [ComponentCondition("a", 0.0, True), ComponentCondition("b", 0.0)]
        assert decide_eol(conditions, self.policy) is EOLDecision.DISPOSE_INCINERATION

    def test_dead_clean_product_is_not_incinerated(self):
        conditions = [ComponentCondition("a", 0.0), ComponentCondition("b", 0.0)]
        assert decide_eol(conditions, self.policy) is EOLDecision.DISPOSE_NO_INCINERATION

    def test_one_good_component_goes_to_disassembly(self):
        conditions = [ComponentCondition("a", 0.9), ComponentCondition("b", 0.1)]
        assert decide_eol(conditions, self.policy) \
            is EOLDecision.REUSE_COMPONENTS_DISASSEMBLY

    def test_dispersed_reclaim_separates_components(self):
        conditions = [
            ComponentCondition("a", 0.58),
            ComponentCondition("b", 0.2),
            ComponentCondition("c", 0.2),
        ]
        assert decide_eol(conditions, self.policy) \
            is EOLDecision.RECLAIM_WITH_DISASSEMBLY

    def test_uniform_reclaim_skips_disassembly(self):
        conditions = [ComponentCondition(c, 0.4) for c in "abc"]
        assert decide_eol(conditions, self.policy) is EOLDecision.RECLAIM_NO_DISASSEMBLY

    def test_empty_conditions_rejected(self):
        with pytest.raises(EmptyConditions):
            decide_eol([], self.policy)

    def test_thousand_random_vectors_match_oracle(self):
        rng = random.Random(515)
        for _ in range(1000):
            conditions = random_conditions(rng)
            assert decide_eol(conditions, self.policy) \
                is oracle_decide(conditions, self.policy)

    def test_random_policies_match_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            lo, mid, hi = sorted(round(rng.random(), 2) for _ in range(3))
            policy = EOLPolicy(hi, mid, lo)
            conditions = random_conditions(rng)
            assert decide_eol(conditions, policy) is oracle_decide(conditions, policy)

    def test_every_decision_is_reachable(self):
        produced = {
            decide_eol([ComponentCondition("a", 1.0)], self.policy),
            decide_eol([ComponentCondition("a", 0.9), ComponentCondition("b", 0.1)],
                       self.policy),
            decide_eol([ComponentCondition("a", 0.58), ComponentCondition("b", 0.2),
                        ComponentCondition("c", 0.2)], self.policy),
            decide_eol([ComponentCondition("a", 0.4), ComponentCondition("b", 0.4)],
                       self.policy),
            decide_eol([ComponentCondition("a", 0.1)], self.policy),
            decide_eol([ComponentCondition("a", 0.1, True)], self.policy),
        }
        assert produced == set(EOLDecision)

    def test_raising_conditions_never_lowers_the_rank(self):
        rng = random.Random(808)
        for _ in range(500):
            conditions = random_conditions(rng)
            before = DECISION_RANK[decide_eol(conditions, self.policy)]
            lift = rng.uniform(0.0, 0.5)
            raised = [
                ComponentCondition(c.component, min(1.0, c.condition + lift), c.hazardous)
                for c in conditions
            ]
            after = DECISION_RANK[decide_eol(raised, self.policy)]
            assert after >= before

    def test_hazard_dominance_below_reclaim(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 5)
            hazardous = rng.random() < 0.5
            conditions = [
                ComponentCondition(
                    f"c{i}",
                    round(rng.uniform(0.0, self.policy.reclaim_threshold - 0.01), 3),
                    hazardous and i == 0,
                )
                for i in range(n)
            ]
            decision = decide_eol(conditions, self.policy)
            if hazardous:
                assert decision is EOLDecision.DISPOSE_INCINERATION
            else:
                assert decision is EOLDecision.DISPOSE_NO_INCINERATION

    def test_six_decisions_exist(self):
        assert len(list(EOLDecision)) == 6
