"""Every narrative demo runs to completion against the source tree and
prints exactly the pinned bytes. Re-pin only for a deliberate change to a
demo or to ploop's behaviour, and say so in CHANGES.md."""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout, by the demo's two-digit prefix.
STDOUT_SHA256 = {
    "01": "176a8989a1eb88cc5de15b292ca531894d88bae111095f6e5c1a9273d2d79105",
    "02": "725f0250a8cc306991ee2426b36b8393259a11d83a56fd8c7cba1d1091c66a91",
    "03": "cb8338c9f5b9ca32816c8f8750af949c6367705908d5f52ae22e23ab43289e62",
    "04": "e3a3e53777f2f5ffa605e6781ad4c262c22f0481c4dd20ca7549b0863ec69032",
}


@functools.cache
def _run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo):
    result = _run(demo)
    assert result.returncode == 0, result.stderr.decode(errors="replace")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_matches_pinned_digest(demo):
    assert hashlib.sha256(_run(demo).stdout).hexdigest() == STDOUT_SHA256[demo.name[:2]]
