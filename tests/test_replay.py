"""Replay is a property of the scenario file, not of the process that runs it.

Each set-up starts one fresh interpreter that runs every fixture and
golden scenario, reads each saved log back with ``ploop report`` in both
forms, and prints the sha256 of every output. Every digest must equal the
one ``test_golden.GOLDEN`` pins, and each report read back must equal the
run's own. Two set-ups fix different ``PYTHONHASHSEED`` values, so no
output may follow the order of a set or dict of strings. The third blocks
json's C accelerator before ploop is imported, so ``runtime.detail_str``
encodes through the pure-Python encoder and ``LoggedEvent.from_json_line``
decodes through the pure-Python scanner.

The pure-Python set-up and the first hash seed also run ``ploop report``
on ``test_log_reader.mutants(logs, 300)``, the seeded mutations of those
logs, and both json back ends must treat each alike: the same exit code
and stdout, and the same stderr, naming the same line, apart from the
words of json's own decoder, which CPython's two scanners word differently.
The three interpreters run side by side, and beside the tests before
these, since conftest.py starts them as soon as the tests are collected.

``tools/replay_matrix.py`` runs the same set-ups under each installed
Python that ``requires-python`` admits.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from test_golden import GOLDEN, OUTPUTS, ROOT

# argv: "pure" or "c", the output suffixes as JSON, the number of log
# mutants to report on, then the scenario paths.
RUNNER = """
import sys
if sys.argv[1] == "pure":
    sys.modules["_json"] = None
import contextlib, hashlib, io, json, json.scanner, tempfile
from pathlib import Path
from ploop import runtime
from ploop.cli import main
from ploop.harness import load_scenario, run

def sha256(data):
    return hashlib.sha256(data).hexdigest()

def report(log, *flags):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--log", str(log), *flags])
    return code, out.getvalue(), err.getvalue()

outputs, count = json.loads(sys.argv[2]), int(sys.argv[3])
result = {"c_encoder": runtime.c_make_encoder is not None,
          "c_scanner": json.scanner.c_make_scanner is not None, "runs": {}}
logs = {}   # named as test_log_reader names them
with tempfile.TemporaryDirectory() as out:
    for path in sys.argv[4:]:
        name = run(load_scenario(path), out_dir=out).report.scenario
        log = Path(out, f"{name}.events.jsonl")
        digests = [sha256(Path(out, f"{name}.{suffix}").read_bytes()) for suffix in outputs]
        for flags in (["--json"], []):
            code, text, _ = report(log, *flags)
            digests.append(sha256(text.encode()) if code == 0 else f"exit {code}")
        result["runs"][path] = digests
        logs[f"{Path(path).parent.name}/{Path(path).stem}"] = log.read_text().splitlines()
    if count:
        from test_log_reader import mutants
        log = Path(out, "mutant.events.jsonl")
        result["mutants"] = []
        for _, data in mutants(logs, count):
            log.write_bytes(data)
            code, text, err = report(log)
            result["mutants"].append([code, sha256(text.encode()), err.replace(str(log), "LOG")])
print(json.dumps(result))
"""

# Each set-up: the json back end, the hash seed and the number of mutants.
SETUPS = {
    "hashseed-0": ("c", "0", 300),
    "hashseed-12345": ("c", "12345", 0),
    "pure-python-json": ("pure", "1", 300),
}


def start(python, setup, count=None):
    """RUNNER, started on every golden scenario under the interpreter python
    in the named set-up, with the set-up's number of mutants unless count
    is given."""
    codec, hashseed, mutants = SETUPS[setup]
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"))))
    argv = [python, "-c", RUNNER, codec, json.dumps(OUTPUTS),
            str(mutants if count is None else count), *sorted(GOLDEN)]
    return subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def finish(process):
    """What a started RUNNER printed, or its stderr when it failed."""
    out, err = process.communicate(timeout=300)
    return json.loads(out) if process.returncode == 0 else err


def mismatches(setup, result):
    """How a set-up's result differs from the pinned digests: each golden
    path whose outputs or reports read back differ, and whether json's C
    accelerator was in use against whether the set-up asked for it."""
    report_json, report_text = OUTPUTS.index("report.json"), OUTPUTS.index("report.txt")
    found = [path for path, digests in GOLDEN.items()
             if result["runs"].get(path) != [*digests, digests[report_json],
                                             digests[report_text]]]
    if not result["c_encoder"] is result["c_scanner"] is (SETUPS[setup][0] == "c"):
        found.append("json back end")
    return found


# Each set-up's interpreter, once started. conftest.py starts them when
# collection ends, so that they run beside the tests that come before these.
STARTED = {}


def start_all():
    STARTED.update((setup, start(sys.executable, setup)) for setup in SETUPS)


@pytest.fixture(scope="module")
def results():
    if not STARTED:
        start_all()
    return {setup: finish(process) for setup, process in STARTED.items()}


@pytest.mark.parametrize("setup", SETUPS)
def test_every_scenario_replays_its_pinned_outputs(setup, results):
    result = results[setup]
    assert isinstance(result, dict), result
    assert sorted(result["runs"]) == sorted(GOLDEN)
    assert mismatches(setup, result) == []


# A refusal's words from json's own decoder, which end in its position.
JSON_WORDS = re.compile(r"not a log event \(.*: line \d+ column \d+ \(char \d+\)\)\n$", re.S)


def test_report_treats_mutated_logs_alike_under_both_json_back_ends(results):
    c, pure = results["hashseed-0"]["mutants"], results["pure-python-json"]["mutants"]
    assert len(c) == len(pure) == 300
    for n, ((c_code, c_out, c_err), (code, out, err)) in enumerate(zip(c, pure)):
        assert (code, out) == (c_code, c_out), n
        assert (JSON_WORDS.sub("not a log event (json's words)", err)
                == JSON_WORDS.sub("not a log event (json's words)", c_err)), n
    # The mutants reach both outcomes, and some refusals are json's own.
    assert {code for code, _, _ in c} == {0, 1}
    assert any(JSON_WORDS.search(err) for _, _, err in c)
