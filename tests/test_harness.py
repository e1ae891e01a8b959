import json
from collections import Counter
from pathlib import Path

import pytest

from ploop.cli import main
from ploop.harness import (
    IncomparableRuns,
    LaunchTime,
    RunReport,
    ScenarioParseError,
    ScenarioValidationError,
    compare,
    compute_report,
    load_scenario,
    run,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from ploop.runtime import LoggedEvent

ROOT = Path(__file__).resolve().parent.parent
# The five fixtures and the generated scenarios pinned in test_golden.py.
SCENARIOS = sorted([*ROOT.glob("fixtures/*.scn"), *ROOT.glob("tests/golden/*.scn")])

MINIMAL_DOC = {
    "format": 1,
    "name": "tiny",
    "seed": 1,
    "horizon": 10,
    "nodes": [{"id": "hub", "kind": "Manufacturer"}],
    "agents": [{"id": "ak-01", "role": "AgentKnowledge", "home": "hub",
                "product": None, "itinerary": []}],
    "routing": [{"pattern": "*", "recipients": []}],
}


def doc_with(**overrides):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc.update(overrides)
    return doc


class TestLoadScenario:
    def test_minimal_document_loads(self):
        scenario = scenario_from_dict(MINIMAL_DOC)
        assert scenario.name == "tiny"
        assert scenario.horizon == 10

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ScenarioParseError):
            load_scenario(tmp_path / "absent.scn")

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.scn"
        path.write_text('{\n  "format": 1,\n  oops\n}\n')
        with pytest.raises(ScenarioParseError, match=r":3:"):
            load_scenario(path)

    def test_agent_with_unknown_node_rejected(self):
        doc = doc_with(agents=[{"id": "a", "role": "AgentKnowledge",
                                "home": "nowhere", "product": None, "itinerary": []}])
        with pytest.raises(ScenarioValidationError, match="unknown node"):
            scenario_from_dict(doc)

    def test_missing_catch_all_rejected(self):
        doc = doc_with(routing=[{"pattern": "sensor.*", "recipients": []}])
        with pytest.raises(ScenarioValidationError, match="catch-all"):
            scenario_from_dict(doc)

    def test_horizon_below_one_rejected(self):
        with pytest.raises(ScenarioValidationError, match="horizon"):
            scenario_from_dict(doc_with(horizon=0))

    def test_wrong_format_rejected(self):
        with pytest.raises(ScenarioValidationError, match="format"):
            scenario_from_dict(doc_with(format=2))

    def test_stimulus_rejects_unknown_product(self):
        doc = doc_with(stimuli=[{"tick": 1, "node": "hub", "kind": "fault",
                                 "product": "ghost@urn:x", "detail": "d"}])
        with pytest.raises(ScenarioValidationError, match="unknown product"):
            scenario_from_dict(doc)

    def test_agent_product_requires_binding(self):
        doc = doc_with(agents=[{"id": "ap", "role": "AgentProduct", "home": "hub",
                                "product": None, "itinerary": []}])
        with pytest.raises(ScenarioValidationError, match="product binding"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "name", ["minimal", "closed_loop", "baseline", "migration", "partition"]
    )
    def test_fixture_round_trips_byte_exact(self, fixtures_dir, tmp_path, name):
        source = fixtures_dir / f"{name}.scn"
        scenario = load_scenario(source)
        copy = tmp_path / f"{name}.scn"
        save_scenario(scenario, copy)
        assert copy.read_bytes() == source.read_bytes()
        assert scenario_to_dict(load_scenario(copy)) == scenario_to_dict(scenario)


class TestRun:
    def test_zero_stimuli_report_is_empty(self, fixtures_dir):
        report = run(load_scenario(fixtures_dir / "minimal.scn")).report
        assert report.launch_times == ()
        assert report.loop_closure_latency is None
        assert report.knowledge_by_mode == {}
        assert report.eol_decisions == {}
        assert report.dropped_messages == 0
        assert report.migrations == 0
        assert report.total_ticks == 10

    def test_same_seed_runs_are_identical(self, fixtures_dir):
        scenario = load_scenario(fixtures_dir / "closed_loop.scn")
        first = run(scenario)
        second = run(scenario)
        assert first.log_lines == second.log_lines
        assert first.report == second.report

    def test_seed_override_lands_in_report(self, fixtures_dir):
        scenario = load_scenario(fixtures_dir / "minimal.scn")
        assert run(scenario, seed_override=99).report.seed == 99

    def test_closed_loop_matches_hand_stepped_trace(self, fixtures_dir):
        # Hand trace, message latency 1, threshold 5:
        #   stimuli m1..m9 are the 3 sensor batches, the fault, and the
        #   5 feedbacks; records land at the manufacturer at ticks
        #   4 (use), 6 (failure), 7 (service), 8 (environment), then
        #   11..15 (feedback sent 10..14). The fifth insert at tick 11
        #   crosses the threshold, so the trigger message (m000017) is
        #   sent at 11 and processed at 12; design takes 3 ticks (done
        #   15) and manufacture 4 (done 19).
        result = run(load_scenario(fixtures_dir / "closed_loop.scn"))
        triggers = [e for e in result.world.events if e.event_kind == "design_trigger"]
        assert len(triggers) == 1
        assert triggers[0].tick == 12
        assert triggers[0].msg_id == "m000017"
        report = result.report
        assert report.launch_times == (
            LaunchTime("px-100@urn:mfg:acme", 2, 19),
        )
        assert report.loop_closure_latency == 12 - 4
        assert report.knowledge_by_mode == {"Explicit": 5, "Tacit": 4}
        assert report.knowledge_by_source == {"Collective": 5, "SelfSource": 4}
        assert report.knowledge_by_activity == {"Customer": 5, "IntelligentProduct": 4}
        assert report.eol_decisions == {"ReclaimNoDisassembly": 1}

    def test_closed_loop_repair_loop_in_log(self, fixtures_dir):
        result = run(load_scenario(fixtures_dir / "closed_loop.scn"))
        advances = [
            e.detail
            for e in result.world.events
            if e.event_kind == "lifecycle_advanced"
        ]
        gen1 = [(a["event"], a["to_phase"]) for a in advances if a["generation"] == 1]
        assert gen1 == [
            ("FaultReported", "EOL_Service"),
            ("Repaired", "EOL_Use"),
            ("RetirementRequested", "EOL_Recovery"),
            ("DispositionExecuted", "EOL_Disposed"),
        ]

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.stem)
    def test_report_recomputed_from_saved_log_matches(self, path, tmp_path, capsys):
        # The report of the run, of the written log decoded, of
        # `ploop report --json` and of report.json are one report.
        scenario = load_scenario(path)
        result = run(scenario, out_dir=tmp_path)
        log = tmp_path / f"{scenario.name}.events.jsonl"
        events = [LoggedEvent.from_json_line(line) for line in log.read_text().splitlines()]
        assert events == result.world.events
        assert compute_report(events) == result.report
        assert main(["report", "--log", str(log), "--json"]) == 0
        printed = capsys.readouterr().out
        saved = (tmp_path / f"{scenario.name}.report.json").read_text()
        assert printed == saved
        assert RunReport.from_dict(json.loads(saved)) == result.report

    def test_run_writes_repository_file(self, fixtures_dir, tmp_path):
        scenario = load_scenario(fixtures_dir / "closed_loop.scn")
        run(scenario, out_dir=tmp_path)
        lines = (tmp_path / "closed_loop.repository.jsonl").read_text().splitlines()
        assert len(lines) == 9


class TestCompare:
    def report(self, name="r", launch=None):
        return RunReport(
            scenario=name,
            seed=1,
            total_ticks=60,
            launch_times=() if launch is None else (LaunchTime("f", 2, launch),),
            loop_closure_latency=None,
            knowledge_by_mode={},
            knowledge_by_source={},
            knowledge_by_activity={},
            eol_decisions={},
            dropped_messages=0,
            migrations=0,
        )

    def test_identical_reports_no_improvement(self):
        report = self.report(launch=40)
        summary = compare(report, report)
        assert summary.delta == 0
        assert not summary.improvement

    def test_arithmetic(self):
        summary = compare(self.report(launch=60), self.report(launch=100))
        assert summary.delta == 40
        assert summary.improvement

    def test_missing_launch_is_incomparable(self):
        with pytest.raises(IncomparableRuns):
            compare(self.report(launch=None), self.report(launch=10))
        with pytest.raises(IncomparableRuns):
            compare(self.report(launch=10), self.report(launch=None))

    def test_paired_golden_fixtures_show_improvement(self, fixtures_dir):
        feedback = run(load_scenario(fixtures_dir / "closed_loop.scn")).report
        baseline = run(load_scenario(fixtures_dir / "baseline.scn")).report
        summary = compare(feedback, baseline)
        assert summary.feedback_launch_tick == 19
        assert summary.baseline_launch_tick == 37
        assert summary.delta == 18
        assert summary.improvement

    def test_baseline_trigger_rule_is_disabled(self, fixtures_dir):
        baseline = run(load_scenario(fixtures_dir / "baseline.scn"))
        assert not any(e.event_kind == "design_trigger"
                       for e in baseline.world.events)
        assert baseline.report.loop_closure_latency is None

    def test_feedback_trigger_precedes_baseline_design_start(self, fixtures_dir):
        feedback = run(load_scenario(fixtures_dir / "closed_loop.scn"))
        baseline = run(load_scenario(fixtures_dir / "baseline.scn"))
        trigger_tick = next(e.tick for e in feedback.world.events
                            if e.event_kind == "design_trigger")
        baseline_start = next(e.tick for e in baseline.world.events
                              if e.event_kind == "generation_started")
        assert trigger_tick < baseline_start
        # The baseline's next generation starts at the scheduled
        # retirement, not before.
        assert baseline_start == 30

    def test_product_registration_carries_intelligence_metadata(self, fixtures_dir):
        result = run(load_scenario(fixtures_dir / "closed_loop.scn"))
        registered = next(e for e in result.world.events
                          if e.event_kind == "product_registered")
        detail = registered.detail
        assert detail["intelligence"] == "Level2"
        assert detail["channel"] == "AtObject"
        assert detail["granularity"] == "Item"


def test_fleet_families_get_their_own_records_from_their_own_agents():
    path = ROOT / "tests" / "golden" / "fleet.scn"
    doc = json.loads(path.read_text())
    result = run(load_scenario(path))
    inserted = [e.detail for e in result.world.events
                if e.event_kind == "knowledge_inserted"]
    # With no partitions, each stimulus that makes a record makes exactly
    # one: a non-empty batch at its product's AgentProduct (or, for the
    # environment category, at the one AgentImpact), feedback at the one
    # AgentCustomer, a fault at the one AgentService.
    assert doc["partitions"] == []
    expected = Counter(
        stim["product"] for stim in doc["stimuli"]
        if stim["kind"] in ("customer_feedback", "fault")
        or (stim["kind"] == "sensor_batch" and stim["events"]))
    assert len(expected) == 3
    assert Counter(d["family"] for d in inserted) == expected
    # A record's id names its author: kr-<agent>-<msg_id>.
    roles = {a["id"]: a["role"] for a in doc["agents"]}
    bound = {a["product"]: a["id"] for a in doc["agents"] if a["role"] == "AgentProduct"}
    from_products = 0
    for d in inserted:
        author = next(aid for aid in roles if d["record_id"].startswith(f"kr-{aid}-m"))
        if roles[author] == "AgentProduct":
            assert author == bound[d["family"]], d
            from_products += 1
    assert from_products > 0
