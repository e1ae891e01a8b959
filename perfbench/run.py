"""ploop benchmark: one workload, timed end to end, its outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

One operation takes the workload's generated scenario through
``ploop run --scenario X --out D`` and then ``ploop report --log
D/X.events.jsonl --json``, both called in process through
``ploop.cli.main`` with stdout captured, and checks the outputs (see
checks.py). An operation fails if either command exits non-zero or any
check fails. Operations repeat until ``--seconds`` have passed; every
operation is the same, so the failed share is the same in every run.

``--trace 0`` reports the end-to-end metrics: setup_s (median over one
``harness.load_scenario`` call per operation), run_s and report_s
(medians over the operations) and peak_rss_mb (peak resident memory of
this process). ``--trace 1`` alternates untraced and traced operations and
reports the per-layer metrics of the traced ones (see tracing.py), plus the
tracing overhead against the untraced run_s of the same process. Every
timed call is preceded by ``gc.collect()``; collection stays enabled.

The scenario file is generated in a separate process before any timing,
so the peak memory is ploop's and not the generator's. Results are saved
under perfbench/out/results and the last line of stdout is the result as
one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import checks
import hostspeed
import tracing
from scenarios import WORKLOADS

HERE = Path(__file__).resolve().parent
SPAN_FILE_LIMIT = 100_000


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def _import_ploop(root: Path):
    """Import ploop from the checkout's own src/ tree, never from elsewhere."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import ploop
    import ploop.cli
    import ploop.harness

    if Path(ploop.__file__).resolve().parent != (src / "ploop").resolve():
        raise ImportError(f"ploop imported from {ploop.__file__}, not from {src}")
    return ploop


def _generate(root: Path, workload: str, seed: int, out: Path) -> Path:
    subprocess.run(
        [sys.executable, str(HERE / "scenarios.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        cwd=root, check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    return out / f"{workload}-s{seed}.scn"


def _timed(fn, *args) -> tuple[Any, float]:
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class Bench:
    """Runs operations on one scenario and keeps their timings and verdicts."""

    def __init__(self, ploop, scenario: Path, out_dir: Path) -> None:
        self.cli = ploop.cli
        self.scenario = scenario
        self.out_dir = out_dir
        self.model = checks.Model(json.loads(scenario.read_text(encoding="utf-8")))
        self.log_path = out_dir / f"{self.model.doc['name']}.events.jsonl"
        self.report_path = out_dir / f"{self.model.doc['name']}.report.json"
        self.reference_sha: str | None = None
        self.events_logged = 0
        self.run_s: list[float] = []
        self.report_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []
        self._world = None
        real_run = self.cli.run

        def capture_run(*args, **kwargs):
            result = real_run(*args, **kwargs)
            self._world = result.world
            return result

        # The census check needs the World that `ploop run` built; keep a
        # reference to it without changing what the command does.
        self.cli.run = capture_run

    def _cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def operation(self, record: bool = True) -> None:
        """One operation: both commands timed, then every check."""
        self._world = None
        (code, _, err), run_s = _timed(
            self._cli, ["run", "--scenario", str(self.scenario), "--out", str(self.out_dir)])
        census = self._world.census() if code == 0 and self._world is not None else None
        self._world = None
        (rcode, report_out, rerr), report_s = _timed(
            self._cli, ["report", "--log", str(self.log_path), "--json"])
        results: dict[str, list[str]] = {}
        fan_out = False
        if code != 0:
            results["run_exit"] = [f"exit {code}: {err.strip()}"]
        elif rcode != 0:
            results["report_exit"] = [f"exit {rcode}: {rerr.strip()}"]
        else:
            results, fan_out = self._check(report_out, census)
        if record:
            self.attempted += 1
            self.run_s.append(run_s)
            self.report_s.append(report_s)
            self._classify(results, fan_out)

    def _check(self, report_out: str,
               census: dict[str, str] | None) -> tuple[dict[str, list[str]], bool]:
        """Problems by check name, and whether the knowledge counts are
        exactly those of the role-selector fan-out."""
        log_bytes = self.log_path.read_bytes()
        sha = hashlib.sha256(log_bytes).hexdigest()
        if self.reference_sha is None:
            self.reference_sha = sha
        try:
            lines = checks.parse_log(log_bytes.decode("utf-8"))
            self.events_logged = len(lines)
            results = checks.check_operation(
                self.model, lines, report_out, self.report_path.read_text(encoding="utf-8"),
                census if census is not None else {})
            fan_out = checks.matches_role_fan_out(self.model, lines)
        except (KeyError, TypeError, ValueError) as exc:
            results, fan_out = {"checks_crashed": [f"{type(exc).__name__}: {exc}"]}, False
        if census is None:
            results["census_matches"] = ["World not reachable through ploop.cli.run"]
        results["same_sha256"] = ([] if sha == self.reference_sha else
                                  [f"log sha256 {sha} differs from {self.reference_sha}"])
        return results, fan_out

    def _classify(self, results: dict[str, list[str]], fan_out: bool) -> None:
        failing = checks.failed_checks(results)
        if not failing:
            return
        self.failed += 1
        # The one known fault: role selectors broadcast product-scoped
        # payloads (runtime.route), so each family gets one record per
        # AgentProduct it reaches instead of one. Anything else is unexpected.
        if failing == [checks.KNOWLEDGE_PER_FAMILY] and fan_out:
            if not self.known:
                self.known = list(checks.first_problems(results))
        elif not self.unexpected:
            self.unexpected = list(checks.first_problems(results))


def measure(args: argparse.Namespace, root: Path) -> tuple[dict[str, Any], dict[str, Any]]:
    """The result object and notes for the saved results file."""
    out = root / "perfbench" / "out"
    scenario = _generate(root, args.workload, args.seed, out / "scn")
    ploop = _import_ploop(root)
    deadline = time.perf_counter() + args.seconds
    bench = Bench(ploop, scenario, out / "run" / f"{args.workload}-s{args.seed}")
    bench.operation(record=False)          # warm-up; sets the reference sha256
    tracer = tracing.Tracer() if args.trace else None
    probe = hostspeed.Probe()
    before = probe.seconds()
    probes = [before]
    setup: list[float] = []
    scaled: dict[str, list[float]] = {"setup_s": [], "run_s": [], "report_s": []}
    traced_run_s: list[float] = []
    layers: list[dict[str, float | None]] = []
    while True:
        # Set-up is timed once per round, so its samples span the whole run
        # as the operations' do.
        setup.append(_timed(ploop.harness.load_scenario, scenario)[1])
        bench.operation()
        after = probe.seconds()
        probes.append(after)
        scale = hostspeed.REFERENCE_S / ((before + after) / 2)
        before = after
        for name, raw in (("setup_s", setup), ("run_s", bench.run_s),
                          ("report_s", bench.report_s)):
            scaled[name].append(raw[-1] * scale)
        if tracer is not None:
            tracer.reset()
            tracing.install_ploop(tracer)
            try:
                bench.operation()
            finally:
                tracer.uninstall()
            traced_run_s.append(bench.run_s.pop())
            summary = tracer.summary()
            layers.append(tracing.layer_metrics(summary, tracer.counts, bench.events_logged))
            if len(layers) == 1:
                tracer.write_spans(out / "trace" / f"{args.workload}-s{args.seed}.spans.jsonl",
                                   SPAN_FILE_LIMIT)
            before = probe.seconds()
        if time.perf_counter() >= deadline:
            break

    result: dict[str, Any] = {
        "correct": not bench.unexpected,
        "attempted": bench.attempted,
        "failed": bench.failed,
    }
    if tracer is None:
        result["metrics"] = {name: {"value": statistics.median(values), "unit": "s"}
                             for name, values in scaled.items()}
        result["metrics"]["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    else:
        metrics = {}
        for name, value in layers[0].items():
            unit = tracing.unit_of(name)
            # Times vary per operation and are reported as medians; counts
            # and ratios of counts repeat exactly and are taken from the first.
            if value is not None and unit in ("s", "us"):
                value = statistics.median([layer[name] for layer in layers])
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_run_s) / statistics.median(bench.run_s),
            "unit": "ratio"}
        result["metrics"] = metrics
    notes = {"known_fault": bench.known, "unexpected": bench.unexpected,
             "operations_timed": len(bench.run_s), "traced": len(traced_run_s),
             "probes": probes, "run_wall": bench.run_s,
             "wall_median_s": {"setup_s": statistics.median(setup),
                               "run_s": statistics.median(bench.run_s),
                               "report_s": statistics.median(bench.report_s)}}
    return result, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Time and check one ploop workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ploop" / "__init__.py").is_file():
        return _fail(f"no ploop source tree at {root / 'src' / 'ploop'}; "
                     "run from the repository root")
    try:
        result, notes = measure(args, root)
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    kind = "trace" if args.trace else "e2e"
    saved = root / "perfbench" / "out" / "results" / f"{args.workload}-s{args.seed}.{kind}.json"
    saved.parent.mkdir(parents=True, exist_ok=True)
    saved.write_text(json.dumps({**result, "notes": notes}, indent=2) + "\n", encoding="utf-8")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<8} {name:<44} {metric['value']!s:>14} {metric['unit']}")
    if not args.trace:
        for name, value in notes["wall_median_s"].items():
            print(f"{args.workload:<8} {name + ' (wall, unscaled)':<44} {value!s:>14} s")
    print(f"{args.workload:<8} operations attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for line in notes["known_fault"]:
        print(f"known fault: {line}")
    for line in notes["unexpected"]:
        print(f"UNEXPECTED: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
