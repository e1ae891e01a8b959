import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from ploop import harness
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
from ploop.knowledge import CHUNK_LINES, write_lines
from ploop.runtime import EVENTS, LoggedEvent, SimParams

ROOT = Path(__file__).resolve().parent.parent
# The five fixtures and the generated scenarios pinned in test_golden.py.
SCENARIOS = sorted([*ROOT.glob("fixtures/*.scn"), *ROOT.glob("tests/golden/*.scn")])
SCENARIO_BY_NAME = {path.stem: path for path in SCENARIOS}

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


# Every key in an order the writer does not use; no seed, latency default,
# capabilities, itinerary, generation or hazardous flag; params with one
# engine parameter and one threshold.
SPARSE_DOC = {
    "params": {"eol_policy": {"reclaim_threshold": 0.25}, "design_ticks": 5},
    "stimuli": [
        {"product": "px-1@urn:x", "kind": "sensor_batch", "tick": 2, "node": "cust",
         "events": [{"unit": "C", "value": 21.5, "sensor": "temp"}], "note": "warm",
         "category": "environment"},
        {"detail": "rattle", "kind": "fault", "node": "cust", "product": "px-1@urn:x", "tick": 3},
        {"kind": "retirement", "product": "px-1@urn:x", "node": "cust", "tick": 4},
    ],
    "partitions": [{"to_tick": 6, "from_tick": 5, "b": "hub", "a": "cust"}],
    "latency": {"pairs": [{"ticks": 2, "b": "cust", "a": "hub"}]},
    "routing": [{"recipients": ["AgentKnowledge", "ak-01"], "pattern": "*"}],
    "agents": [{"home": "hub", "role": "AgentKnowledge", "id": "ak-01"}],
    "products": [{"node": "cust", "phase": "EOL_Use", "uri": "urn:x", "serial": "px-1",
                  "components": [{"condition": 0.5, "component": "lid"}]}],
    "nodes": [{"kind": "CustomerSite", "id": "cust"}, {"kind": "Manufacturer", "id": "hub"}],
    "horizon": 8,
    "name": "sparse",
    "format": 1,
}

# SPARSE_DOC as the writer puts it: keys in file order, defaults filled in.
SPARSE_CANONICAL = {
    "format": 1, "name": "sparse", "seed": 0, "horizon": 8,
    "nodes": [{"id": "cust", "kind": "CustomerSite"}, {"id": "hub", "kind": "Manufacturer"}],
    "products": [{
        "serial": "px-1", "uri": "urn:x", "generation": 1, "phase": "EOL_Use", "node": "cust",
        "components": [{"component": "lid", "condition": 0.5, "hazardous": False}],
        "capabilities": ["UniqueID", "Communication", "SelfStorage", "FeatureLanguage",
                         "DecisionMaking"],
        "memory": {}, "intelligence_location": None,
    }],
    "agents": [{"id": "ak-01", "role": "AgentKnowledge", "home": "hub", "product": None,
                "itinerary": []}],
    "routing": [{"pattern": "*", "recipients": ["AgentKnowledge", "ak-01"]}],
    "latency": {"default": 1, "pairs": [{"a": "cust", "b": "hub", "ticks": 2}]},
    "partitions": [{"a": "cust", "b": "hub", "from_tick": 5, "to_tick": 6}],
    "stimuli": [
        {"tick": 2, "node": "cust", "kind": "sensor_batch", "product": "px-1@urn:x",
         "category": "environment", "note": "warm",
         "events": [{"sensor": "temp", "value": 21.5, "unit": "C"}]},
        {"tick": 3, "node": "cust", "kind": "fault", "product": "px-1@urn:x", "detail": "rattle"},
        {"tick": 4, "node": "cust", "kind": "retirement", "product": "px-1@urn:x"},
    ],
    "params": {
        "trigger_threshold": 10, "message_latency": 1, "design_ticks": 5,
        "manufacture_ticks": 4, "disposal_ticks": 1, "trigger_rule_enabled": True,
        "eol_policy": {"reuse_threshold": 0.8, "component_threshold": 0.6,
                       "reclaim_threshold": 0.25},
    },
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

    def test_absent_params_take_the_engine_defaults(self):
        assert scenario_from_dict(MINIMAL_DOC).params == SimParams()

    def test_sparse_reordered_document_writes_canonical_json(self):
        written = json.dumps(scenario_to_dict(scenario_from_dict(SPARSE_DOC)), indent=2)
        assert written == json.dumps(SPARSE_CANONICAL, indent=2)

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

    @pytest.mark.parametrize("name", sorted(SCENARIO_BY_NAME))
    def test_fixture_round_trips_byte_exact(self, tmp_path, name):
        source = SCENARIO_BY_NAME[name]
        scenario = load_scenario(source)
        copy = tmp_path / f"{name}.scn"
        save_scenario(scenario, copy)
        assert copy.read_bytes() == source.read_bytes()
        assert scenario_to_dict(load_scenario(copy)) == scenario_to_dict(scenario)

    def test_fixture_generator_writes_the_committed_fixtures(self, fixtures_dir, tmp_path,
                                                              monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "make_fixtures", ROOT / "tools" / "make_fixtures.py")
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        monkeypatch.setattr(generator, "FIXTURES", tmp_path)
        generator.main()
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted(path.name for path in fixtures_dir.glob("*.scn"))
        assert len(written) == 5
        for name in written:
            assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes(), name


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

    def test_every_proper_prefix_of_a_run_log_is_refused(self, fixtures_dir, tmp_path,
                                                         capsys):
        result = run(load_scenario(fixtures_dir / "closed_loop.scn"))
        events = result.world.events
        for end in range(len(events)):
            with pytest.raises(ScenarioValidationError):
                compute_report(events[:end])
        assert compute_report(events) == result.report
        # ploop report on the first 30 of the log's 73 lines names what is missing.
        log = tmp_path / "cut.events.jsonl"
        log.write_text("".join(line + "\n" for line in result.log_lines[:30]))
        assert len(events) == 73
        assert main(["report", "--log", str(log)]) == 1
        assert capsys.readouterr().err == (
            f"error: {log}:30: not a run log "
            "(the last event is 'message_sent', not run_finished)\n")

    def test_the_report_skips_only_kinds_it_does_not_read(self, monkeypatch):
        # One event of each declared kind, run_started first and
        # run_finished last, each with every envelope field and detail key
        # its kind declares: the report must be the one computed with no
        # kind skipped, so a kind the report starts to read cannot be
        # skipped unseen.
        values = {str: "x", int: 1}
        events = []
        for n, (kind, (envelope, keys)) in enumerate(EVENTS.items()):
            fields = {name.rstrip("?"): f"{name.rstrip('?')}-{n}" for name in envelope}
            detail = {key.rstrip("?"): values[type_] for key, type_ in keys.items()}
            events.append(LoggedEvent(n, kind, **fields, detail=detail))
        events.sort(key=lambda event: (event.event_kind != "run_started",
                                       event.event_kind == "run_finished"))
        assert [event.event_kind for event in events[::len(events) - 1]] == [
            "run_started", "run_finished"]
        assert sorted(event.event_kind for event in events) == sorted(EVENTS)
        report = compute_report(events)
        monkeypatch.setattr(harness, "_REPORTED", frozenset(EVENTS))
        assert compute_report(events) == report
        assert (report.dropped_messages, report.migrations, len(report.launch_times),
                sum(report.knowledge_by_mode.values()), sum(report.eol_decisions.values())
                ) == (1, 1, 1, 1, 1)
        assert report.loop_closure_latency is not None


RUN_FILES = ("events.jsonl", "report.json", "report.txt", "repository.jsonl")


class TestRunFiles:
    """``ploop run`` rewrites an existing output in place and cuts it to the
    new length, following a link to the file it names."""

    def run_closed_loop(self, fixtures_dir, out, *seed):
        return main(["run", "--scenario", str(fixtures_dir / "closed_loop.scn"),
                     "--out", str(out), *seed])

    def fresh(self, fixtures_dir, tmp_path):
        """Each run file's bytes, written into a new directory."""
        assert self.run_closed_loop(fixtures_dir, tmp_path / "fresh") == 0
        return {name: (tmp_path / "fresh" / f"closed_loop.{name}").read_bytes()
                for name in RUN_FILES}

    def test_rerun_over_longer_files_matches_a_fresh_directory(self, fixtures_dir, tmp_path,
                                                               capsys):
        expected = self.fresh(fixtures_dir, tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        for name, data in expected.items():
            (out / f"closed_loop.{name}").write_bytes(b"x" * (len(data) + 4096))
        assert self.run_closed_loop(fixtures_dir, out) == 0
        assert {name: (out / f"closed_loop.{name}").read_bytes()
                for name in RUN_FILES} == expected

    def test_symlinked_output_rewrites_its_target_and_keeps_the_link(
            self, fixtures_dir, tmp_path, capsys):
        expected = self.fresh(fixtures_dir, tmp_path)["events.jsonl"]
        target, out = tmp_path / "target.jsonl", tmp_path / "out"
        target.write_bytes(b"x" * (len(expected) + 4096))
        out.mkdir()
        (out / "closed_loop.events.jsonl").symlink_to(target)
        assert self.run_closed_loop(fixtures_dir, out) == 0
        assert (out / "closed_loop.events.jsonl").readlink() == target
        assert target.read_bytes() == expected

    def test_hard_linked_output_keeps_its_inode(self, fixtures_dir, tmp_path, capsys):
        expected = self.fresh(fixtures_dir, tmp_path)["report.json"]
        out = tmp_path / "out"
        out.mkdir()
        report, other = out / "closed_loop.report.json", tmp_path / "other.json"
        report.write_bytes(b"x" * (len(expected) + 4096))
        other.hardlink_to(report)
        assert self.run_closed_loop(fixtures_dir, out) == 0
        assert report.read_bytes() == other.read_bytes() == expected
        assert report.stat().st_ino == other.stat().st_ino
        assert report.stat().st_nlink == 2

    def test_a_failed_write_leaves_only_the_lines_written(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"x" * 100_000)

        def lines():
            for i in range(CHUNK_LINES + 3):
                yield str(i)
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError):
            write_lines((path, lines()))
        assert path.read_text() == "".join(f"{i}\n" for i in range(CHUNK_LINES))

    def test_output_symlinked_to_dev_null_is_written(self, fixtures_dir, tmp_path, capsys):
        log = tmp_path / "closed_loop.events.jsonl"
        log.symlink_to("/dev/null")
        assert self.run_closed_loop(fixtures_dir, tmp_path) == 0, capsys.readouterr().err
        assert log.readlink() == Path("/dev/null")
        assert (tmp_path / "closed_loop.report.json").read_bytes()

    def test_output_that_is_a_directory_exits_1_naming_it(self, fixtures_dir, tmp_path,
                                                            capsys):
        path = tmp_path / "closed_loop.report.json"
        path.mkdir()
        assert self.run_closed_loop(fixtures_dir, tmp_path) == 1
        assert capsys.readouterr().err == f"error: {path}: Is a directory\n"

    def test_an_output_that_cannot_be_opened_leaves_the_others_as_they_were(
            self, fixtures_dir, tmp_path, capsys):
        # Every output is opened before any is written: a seed-2 run that
        # cannot open its text report leaves the seed-1 log, JSON report and
        # repository beside it, never a mix of the two runs.
        assert self.run_closed_loop(fixtures_dir, tmp_path / "seed2", "--seed", "2") == 0
        assert self.run_closed_loop(fixtures_dir, tmp_path, "--seed", "1") == 0
        kept = [name for name in RUN_FILES if name != "report.txt"]
        before = {name: (tmp_path / f"closed_loop.{name}").read_bytes() for name in kept}
        seed2 = (tmp_path / "seed2" / "closed_loop.events.jsonl").read_bytes()
        assert before["events.jsonl"] != seed2
        path = tmp_path / "closed_loop.report.txt"
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        assert self.run_closed_loop(fixtures_dir, tmp_path, "--seed", "2") == 1
        assert capsys.readouterr().err == f"error: {path}: Is a directory\n"
        assert {name: (tmp_path / f"closed_loop.{name}").read_bytes() for name in kept} == before


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
