import json

import pytest

from ploop.identity import mint_product_id
from ploop.knowledge import (
    CHUNK_LINES,
    TACIT_CATEGORIES,
    Activity,
    EmptyFeedback,
    KnowledgeMode,
    KnowledgeRecord,
    KnowledgeRepository,
    KnowledgeSource,
    ModeMismatch,
    classify_activity,
    explicit_record,
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
        assert json.loads(record.to_json_line()) == {
            "record_id": "r1", "product_id": FAMILY, "generation": 2,
            "activity": "Customer", "mode": "Explicit", "source": "Collective",
            "payload": "battery swells", "created_at": 40,
        }


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
        assert repo.count(FAMILY, 1) == 17
        assert len(repo) == 17


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
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [record.to_json_line() for record in repo.records]
        assert [(raw["record_id"], raw["mode"], raw["payload"], raw["created_at"])
                for raw in map(json.loads, lines)] == [
            ("kr-000000", "Explicit", "battery swells", 40),
            ("kr-000001", "Tacit", "failure overheat", 41),
        ]

    @pytest.mark.parametrize("count", [0, 1, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1,
                                       2 * CHUNK_LINES, 2 * CHUNK_LINES + 1])
    def test_saved_bytes_do_not_depend_on_chunk_bounds(self, tmp_path, count):
        # Lines are written CHUNK_LINES to a call; the file must hold exactly
        # what one write per line would, on and around every chunk bound.
        repo = KnowledgeRepository()
        for i in range(count):
            add_tacit(repo, TACIT_CATEGORIES[i % 3], f"note {i} é ", i)
        path = tmp_path / "repo.jsonl"
        repo.save(path)
        assert path.read_bytes() == "".join(
            record.to_json_line() + "\n" for record in repo.records).encode("utf-8")
