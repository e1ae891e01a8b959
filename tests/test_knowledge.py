import json
import random

import pytest

from ploop.identity import mint_product_id
from ploop.knowledge import (
    TACIT_CATEGORIES,
    Activity,
    EmptyFeedback,
    KnowledgeMode,
    KnowledgeRecord,
    KnowledgeRepository,
    KnowledgeSource,
    ModeMismatch,
    aggregate,
    classify_activity,
    explicit_record,
    normalize_payload,
    save_insight,
    tacit_record,
)
from ploop.messages import KEY_KNOWLEDGE_RECORD
from ploop.runtime import SimParams, SimulationError, tick

PID = mint_product_id("px-9", "urn:mfg:acme")
FAMILY = PID.render()


def add_explicit(repo, text, tick_, generation=1):
    record = explicit_record(f"kr-{len(repo):06d}", PID, generation, text, tick_)
    repo.insert(record)
    return record


def add_tacit(repo, category, note, tick_, generation=1):
    record = tacit_record(f"kr-{len(repo):06d}", PID, generation, category, note, tick_)
    repo.insert(record)
    return record


# Golden activity-to-mode table; names normalize the source table's
# spellings (Engennering & Design, Merketing & Lunch, Custommer).
GOLDEN_TABLE = {
    Activity.USER_INSIGHT: {KnowledgeMode.TACIT, KnowledgeMode.EXPLICIT},
    Activity.MARKET_INVESTIGATION: {KnowledgeMode.EXPLICIT},
    Activity.IDEA_CONCEPT_GENERATION: {KnowledgeMode.TACIT, KnowledgeMode.EXPLICIT},
    Activity.PRODUCT_REQUIREMENTS: {KnowledgeMode.EXPLICIT},
    Activity.ENGINEERING_DESIGN: {KnowledgeMode.EXPLICIT},
    Activity.MARKETING_LAUNCH: {KnowledgeMode.TACIT, KnowledgeMode.EXPLICIT},
    Activity.SALES: {KnowledgeMode.TACIT, KnowledgeMode.EXPLICIT},
    Activity.CUSTOMER: {KnowledgeMode.TACIT, KnowledgeMode.EXPLICIT},
    Activity.INTELLIGENT_PRODUCT: {KnowledgeMode.TACIT},
}


class TestClassifyActivity:
    def test_matches_golden_table_exactly(self):
        for activity in Activity:
            assert classify_activity(activity) == GOLDEN_TABLE[activity], activity

    def test_market_investigation_is_explicit_only(self):
        assert classify_activity(Activity.MARKET_INVESTIGATION) == {KnowledgeMode.EXPLICIT}

    def test_intelligent_product_is_tacit_only(self):
        assert classify_activity(Activity.INTELLIGENT_PRODUCT) == {KnowledgeMode.TACIT}

    def test_union_covers_both_modes(self):
        union = set()
        for activity in Activity:
            union |= classify_activity(activity)
        assert union == {KnowledgeMode.TACIT, KnowledgeMode.EXPLICIT}

    def test_nine_activities_and_two_modes_and_two_sources(self):
        assert len(list(Activity)) == 9
        assert len(list(KnowledgeMode)) == 2
        assert len(list(KnowledgeSource)) == 2


class TestRecordInvariants:
    def test_mode_must_match_activity(self):
        with pytest.raises(ModeMismatch):
            KnowledgeRecord(
                record_id="r1",
                product_id=PID,
                generation=1,
                activity=Activity.INTELLIGENT_PRODUCT,
                mode=KnowledgeMode.EXPLICIT,
                source=KnowledgeSource.SELF_SOURCE,
                payload="x",
                created_at=0,
            )

    def test_generation_must_be_positive(self):
        with pytest.raises(ValueError):
            KnowledgeRecord(
                record_id="r1",
                product_id=PID,
                generation=0,
                activity=Activity.CUSTOMER,
                mode=KnowledgeMode.EXPLICIT,
                source=KnowledgeSource.COLLECTIVE,
                payload="x",
                created_at=0,
            )

    def test_json_line_round_trip(self):
        record = KnowledgeRecord(
            record_id="r1",
            product_id=PID,
            generation=2,
            activity=Activity.CUSTOMER,
            mode=KnowledgeMode.EXPLICIT,
            source=KnowledgeSource.COLLECTIVE,
            payload="battery swells",
            created_at=40,
        )
        assert KnowledgeRecord.from_json_line(record.to_json_line()) == record


class TestIngestExplicit:
    def test_fields_are_forced(self):
        repo = KnowledgeRepository()
        record = add_explicit(repo, "battery swells", 40)
        assert record.activity is Activity.CUSTOMER
        assert record.mode is KnowledgeMode.EXPLICIT
        assert record.source is KnowledgeSource.COLLECTIVE
        assert record.payload == "battery swells"
        assert len(repo) == 1

    def test_empty_feedback_rejected(self):
        with pytest.raises(EmptyFeedback):
            explicit_record("kr-1", PID, 1, "", 40)

    def test_n_feedbacks_count_n(self):
        repo = KnowledgeRepository()
        for i in range(17):
            add_explicit(repo, f"feedback {i}", i)
        insight = aggregate(repo, FAMILY, 1)
        assert insight.explicit_count == 17
        assert insight.record_count == 17


class TestIngestTacit:
    def test_one_category_one_record(self):
        repo = KnowledgeRepository()
        record = add_tacit(repo, "failure", "overheat x3", 10)
        assert len(repo) == 1
        assert record.mode is KnowledgeMode.TACIT
        assert record.source is KnowledgeSource.SELF_SOURCE
        assert record.activity is Activity.INTELLIGENT_PRODUCT
        assert record.payload == "failure overheat x3"

    def test_all_three_categories(self):
        repo = KnowledgeRepository()
        records = [add_tacit(repo, category, "", 10) for category in TACIT_CATEGORIES]
        assert [r.payload for r in records] == ["use", "environment", "failure"]
        assert all(r.mode is KnowledgeMode.TACIT for r in records)


class TestAggregate:
    def test_empty_repository(self):
        insight = aggregate(KnowledgeRepository(), FAMILY, 1)
        assert insight.record_count == 0
        assert insight.tacit_count == 0
        assert insight.explicit_count == 0
        assert insight.top_issues == ()

    def test_counts_add_up(self):
        repo = KnowledgeRepository()
        for category, note in (("use", "a"), ("failure", "b"), ("environment", "c")):
            add_tacit(repo, category, note, 1)
        add_explicit(repo, "one", 2)
        add_explicit(repo, "two", 3)
        insight = aggregate(repo, FAMILY, 1)
        assert (insight.record_count, insight.tacit_count, insight.explicit_count) \
            == (5, 3, 2)

    def test_generation_filter(self):
        repo = KnowledgeRepository()
        add_explicit(repo, "gen one", 1)
        add_explicit(repo, "gen two", 2, generation=2)
        assert aggregate(repo, FAMILY, 1).record_count == 1
        assert aggregate(repo, FAMILY, 2).record_count == 1

    def test_top_issues_ranked_by_frequency_then_lexicographic(self):
        repo = KnowledgeRepository()
        add_explicit(repo, "display dim", 1)
        add_explicit(repo, "display flicker", 2)
        add_explicit(repo, "battery swells", 3)
        insight = aggregate(repo, FAMILY, 1)
        assert insight.top_issues[0] == "display"
        assert insight.top_issues[1:] == ("battery", "dim", "flicker", "swells")

    def test_word_set_counts_once_per_record(self):
        repo = KnowledgeRepository()
        add_explicit(repo, "noise noise noise", 1)
        add_explicit(repo, "buzz", 2)
        add_explicit(repo, "buzz again", 3)
        insight = aggregate(repo, FAMILY, 1)
        assert insight.top_issues[0] == "buzz"

    def test_two_hundred_random_records_match_full_scan_oracle(self):
        rng = random.Random(2718)
        repo = KnowledgeRepository()
        words = ["battery", "fan", "screen", "hinge", "overheat", "dim"]
        expected_tacit = 0
        expected_explicit = 0
        for i in range(200):
            gen = rng.randint(1, 2)
            payload = " ".join(rng.sample(words, rng.randint(1, 3)))
            if rng.random() < 0.5:
                add_tacit(repo, "use", payload, i, generation=gen)
                expected_tacit += gen == 1
            else:
                add_explicit(repo, payload, i, generation=gen)
                expected_explicit += gen == 1
        insight = aggregate(repo, FAMILY, 1)
        # Full-scan recount, independent of the repository's indexing.
        records = [r for r in repo.records if r.generation == 1 and r.family == FAMILY]
        assert insight.record_count == len(records)
        assert insight.tacit_count == expected_tacit
        assert insight.explicit_count == expected_explicit
        assert insight.tacit_count + insight.explicit_count == insight.record_count

    def test_normalize_is_lowercase_word_set(self):
        assert normalize_payload("Fan  NOISE, fan!") == {"fan", "noise"}


class TestLoopClosure:
    """The runtime's trigger rule, read off the log of a world whose one
    keeper is sent one record per tick."""

    def feed(self, world, records):
        for record in records:
            world.send(KEY_KNOWLEDGE_RECORD, record, "mfg", "mfg")
            tick(world)
        for _ in range(world.params.design_ticks + world.params.manufacture_ticks + 1):
            tick(world)

    def records(self, n):
        return [explicit_record(f"kr-{i}", PID, 1, f"item {i}", i) for i in range(n)]

    def kinds(self, world):
        return [e.event_kind for e in world.events]

    def test_below_threshold_no_trigger(self, keeper_world):
        world = keeper_world(PID, 5)
        self.feed(world, self.records(4))
        assert "design_trigger" not in self.kinds(world)
        assert "generation_started" not in self.kinds(world)

    def test_at_threshold_triggers_next_generation(self, keeper_world):
        world = keeper_world(PID, 5)
        self.feed(world, self.records(5))
        (trigger,) = [e for e in world.events if e.event_kind == "design_trigger"]
        assert trigger.detail == {
            "family": FAMILY, "from_generation": 1, "next_generation": 2}
        assert (FAMILY, 2) in world.started_generations
        assert "generation_launched" in self.kinds(world)

    def test_second_call_is_idempotent(self, keeper_world):
        # A record submitted again is a duplicate: it is neither counted
        # nor able to reach the threshold a second time.
        world = keeper_world(PID, 2)
        first, second = self.records(2)
        self.feed(world, [first, first])
        assert len(world.repository) == 1
        assert "design_trigger" not in self.kinds(world)
        self.feed(world, [second, second, first])
        assert len(world.repository) == 2
        assert self.kinds(world).count("design_trigger") == 1

    def test_threshold_must_be_positive(self):
        with pytest.raises(SimulationError):
            SimParams(trigger_threshold=0)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        repo = KnowledgeRepository()
        add_explicit(repo, "battery swells", 40)
        add_tacit(repo, "failure", "overheat", 41)
        path = tmp_path / "repo.jsonl"
        repo.save(path)
        loaded = KnowledgeRepository.load(path)
        assert loaded.records == repo.records

    def test_insight_summary_file_is_flat(self, tmp_path):
        repo = KnowledgeRepository()
        add_explicit(repo, "battery swells", 40)
        add_explicit(repo, "battery weak", 41)
        insight = aggregate(repo, FAMILY, 1)
        path = tmp_path / "insight.json"
        save_insight(insight, path)
        raw = json.loads(path.read_text())
        assert raw["family"] == FAMILY
        assert raw["record_count"] == 2
        assert raw["top_issues"][0] == "battery"
        assert all(not isinstance(v, dict) for v in raw.values())
