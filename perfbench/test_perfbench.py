"""Tests of the benchmark's generator, checks and tracer.

Small versions of the workloads keep these quick. Each check is shown to
pass on ploop's own output and to reject a doctored copy of it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402
from ploop import cli, harness  # noqa: E402

SMALL = {
    "fleet": lambda seed: scenarios.fleet(seed, products=3, horizon=60),
    "idle": lambda seed: scenarios.idle(seed, parked=20, parking_nodes=3, horizon=320),
    "roaming": lambda seed: scenarios.roaming(seed, mobile=6, sites=4, horizon=100,
                                              random_pairs=3),
}


class Output:
    """One operation's outputs: the log lines, both reports and the census."""

    def __init__(self, workload: str, seed: int, out: Path) -> None:
        path = scenarios.write(SMALL[workload](seed), out / f"{workload}.scn")
        self.model = checks.Model(json.loads(path.read_text(encoding="utf-8")))
        result = harness.run(harness.load_scenario(path), out_dir=out)
        self.census = result.world.census()
        self.log_path = out / f"{workload}.events.jsonl"
        self.log_text = self.log_path.read_text(encoding="utf-8")
        self.report_file = (out / f"{workload}.report.json").read_text(encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["report", "--log", str(self.log_path), "--json"]) == 0
        self.report_stdout = buf.getvalue()
        self.lines = checks.parse_log(self.log_text)

    def check(self, lines=None, report_stdout=None, census=None) -> dict[str, list[str]]:
        return checks.check_operation(
            self.model, self.lines if lines is None else lines,
            self.report_stdout if report_stdout is None else report_stdout,
            self.report_file, self.census if census is None else census)


@pytest.fixture(scope="module")
def roaming(tmp_path_factory) -> Output:
    return Output("roaming", 3, tmp_path_factory.mktemp("roaming"))


def failing(results: dict[str, list[str]]) -> set[str]:
    return set(checks.failed_checks(results))


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generated_scenario_round_trips_byte_identically(workload, tmp_path):
    first = scenarios.write(SMALL[workload](5), tmp_path / "a.scn")
    again = tmp_path / "b.scn"
    harness.save_scenario(harness.load_scenario(first), again)
    assert first.read_bytes() == again.read_bytes()
    assert scenarios.write(SMALL[workload](5), tmp_path / "c.scn").read_bytes() == \
        first.read_bytes()
    assert scenarios.write(SMALL[workload](6), tmp_path / "d.scn").read_bytes() != \
        first.read_bytes()


@pytest.mark.parametrize("workload", ["idle", "roaming"])
def test_checks_pass_on_ploop_output(workload, tmp_path):
    assert failing(Output(workload, 7, tmp_path).check()) == set()


def test_fleet_fails_at_most_the_per_family_count_and_only_by_fan_out(tmp_path):
    out = Output("fleet", 7, tmp_path)
    results = out.check()
    assert failing(results) <= {checks.KNOWLEDGE_PER_FAMILY}
    if results[checks.KNOWLEDGE_PER_FAMILY]:
        assert checks.matches_role_fan_out(out.model, out.lines)


def test_roaming_exercises_blocking_refusal_and_migration(roaming):
    kinds = {ln.kind for ln in roaming.lines}
    assert {"message_blocked", "migration_refused", "migration_completed"} <= kinds


def test_removed_knowledge_line_is_rejected(roaming):
    i = next(i for i, ln in enumerate(roaming.lines) if ln.kind == "knowledge_inserted")
    doctored = roaming.lines[:i] + roaming.lines[i + 1:]
    assert {checks.KNOWLEDGE_PER_FAMILY, "report_totals"} <= failing(roaming.check(doctored))


def test_delivery_moved_into_partition_window_is_rejected(roaming):
    model = roaming.model
    for i, ln in enumerate(roaming.lines):
        pair = frozenset((ln.detail.get("origin"), ln.node))
        if ln.kind == "message_delivered" and pair in model.cuts:
            lo, _ = model.cuts[pair][0]
            doctored = list(roaming.lines)
            doctored[i] = ln._replace(tick=lo)
            assert "partitions_fail_closed" in failing(roaming.check(doctored))
            return
    pytest.fail("no delivery across a pair that has partition windows")


def test_refusal_moved_out_of_partition_window_is_rejected(roaming):
    i, ln = next((i, ln) for i, ln in enumerate(roaming.lines)
                 if ln.kind == "migration_refused")
    open_tick = next(t for t in range(ln.tick, 0, -1)
                     if not roaming.model.severed(ln.node, ln.detail["target"], t))
    doctored = list(roaming.lines)
    doctored[i] = ln._replace(tick=open_tick)
    assert "partitions_fail_closed" in failing(roaming.check(doctored))


def test_decreasing_tick_is_rejected(roaming):
    doctored = list(roaming.lines)
    doctored[-1] = doctored[-1]._replace(tick=0)
    assert "ticks_monotonic" in failing(roaming.check(doctored))


def test_second_trigger_and_late_launch_are_rejected(roaming):
    i, trigger = next((i, ln) for i, ln in enumerate(roaming.lines)
                      if ln.kind == "design_trigger")
    twice = roaming.lines[:i + 1] + [trigger] + roaming.lines[i + 1:]
    assert "trigger_and_launch" in failing(roaming.check(twice))
    late = [ln._replace(tick=ln.tick + 1) if ln.kind == "generation_launched" else ln
            for ln in roaming.lines]
    assert "trigger_and_launch" in failing(roaming.check(late))


def test_report_that_differs_from_run_is_rejected(roaming):
    report = json.loads(roaming.report_stdout)
    report["migrations"] += 1
    doctored = json.dumps(report, indent=2) + "\n"
    assert {"report_matches", "report_totals"} <= failing(roaming.check(report_stdout=doctored))


def test_census_that_disagrees_with_migrations_is_rejected(roaming):
    i = next(i for i, ln in enumerate(roaming.lines) if ln.kind == "migration_completed")
    doctored = roaming.lines[:i] + roaming.lines[i + 1:]
    assert "census_matches" in failing(roaming.check(doctored))
    census = dict(roaming.census)
    census.popitem()
    assert "census_matches" in failing(roaming.check(census=census))


def test_operation_with_another_log_digest_fails(tmp_path, monkeypatch):
    import ploop
    import run

    monkeypatch.setattr(cli, "run", cli.run)     # Bench wraps it; undo afterwards
    path = scenarios.write(SMALL["roaming"](4), tmp_path / "roaming.scn")
    bench = run.Bench(ploop, path, tmp_path / "out")
    bench.operation()
    assert (bench.attempted, bench.failed, bench.unexpected) == (1, 0, [])
    bench.reference_sha = "0" * 64
    bench.operation()
    assert bench.failed == 1 and bench.unexpected[0].startswith("same_sha256")


def test_traced_run_logs_the_same_bytes(tmp_path):
    path = scenarios.write(SMALL["roaming"](9), tmp_path / "roaming.scn")
    plain = harness.run(harness.load_scenario(path)).log_lines
    tracer = tracing.Tracer()
    tracing.install_ploop(tracer)
    try:
        traced = harness.run(harness.load_scenario(path)).log_lines
    finally:
        tracer.uninstall()
    assert traced == plain
    assert not tracer.absent
    summary = tracer.summary()
    assert summary["runtime.tick"]["calls"] == 100
    assert summary["runtime.migrate"]["calls"] > 0
    assert harness.tick.__name__ == "tick"          # originals are back


def test_self_time_excludes_child_spans():
    layer = types.SimpleNamespace()
    layer.inner = lambda: sum(range(20_000))
    layer.outer = lambda: layer.inner() + layer.inner()
    tracer = tracing.Tracer()
    tracer.patch(layer, "inner", "inner")
    tracer.patch(layer, "outer", "outer")
    tracer.patch(layer, "gone", "gone")
    layer.outer()
    tracer.uninstall()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2 and summary["outer"]["calls"] == 1
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["s"] - summary["inner"]["s"])
    assert tracer.absent == {"gone"}
    metrics = tracing.layer_metrics({}, tracer.counts, 0)
    assert metrics["runtime.tick.calls"] is None


def test_benchmark_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "idle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
