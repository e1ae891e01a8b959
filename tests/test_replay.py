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
"""

import json
import os
import subprocess
import sys

import pytest

from test_golden import GOLDEN, OUTPUTS, ROOT

# argv: "pure" or "c", the output suffixes as JSON, then the scenario paths.
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

outputs = json.loads(sys.argv[2])
result = {"c_encoder": runtime.c_make_encoder is not None,
          "c_scanner": json.scanner.c_make_scanner is not None, "runs": {}}
with tempfile.TemporaryDirectory() as out:
    for path in sys.argv[3:]:
        name = run(load_scenario(path), out_dir=out).report.scenario
        digests = [sha256(Path(out, f"{name}.{suffix}").read_bytes()) for suffix in outputs]
        for flags in (["--json"], []):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = main(["report", "--log", str(Path(out, f"{name}.events.jsonl")), *flags])
            digests.append(sha256(text.getvalue().encode()) if code == 0 else f"exit {code}")
        result["runs"][path] = digests
print(json.dumps(result))
"""

SETUPS = {
    "hashseed-0": ("c", "0"),
    "hashseed-12345": ("c", "12345"),
    "pure-python-json": ("pure", "1"),
}


@pytest.mark.parametrize("setup", SETUPS)
def test_every_scenario_replays_its_pinned_outputs(setup):
    codec, hashseed = SETUPS[setup]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hashseed)
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, codec, json.dumps(OUTPUTS), *sorted(GOLDEN)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["c_encoder"] is result["c_scanner"] is (codec == "c")
    report_json, report_text = OUTPUTS.index("report.json"), OUTPUTS.index("report.txt")
    assert result["runs"] == {
        path: [*digests, digests[report_json], digests[report_text]]
        for path, digests in GOLDEN.items()}
