"""Replay every fixture and golden scenario under each installed Python.

For each ``python3.X`` on PATH that pyproject.toml's ``requires-python``
admits, this runs tests/test_replay.py's runner in each of its set-ups (two
hash seeds, and json's C accelerator blocked) and compares every output
with the digests that tests/test_golden.py pins. It names the interpreters
it ran and those it skipped, and exits 1 on any mismatch. Which
interpreters exist depends on the machine, so the test suite does not run
it. Run from the repository root:

    python3 tools/replay_matrix.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_oldest_python import oldest_python  # noqa: E402
from test_replay import SETUPS, finish, mismatches, start  # noqa: E402


def interpreters() -> dict[int, str]:
    """The path of each ``python3.X`` on PATH by its minor version X, the
    first found on PATH for each."""
    found: dict[int, str] = {}
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            continue
        for name in names:
            match = re.fullmatch(r"python3\.(\d+)", name)
            path = os.path.join(directory, name)
            if match and int(match[1]) not in found and os.access(path, os.X_OK):
                found[int(match[1])] = path
    return dict(sorted(found.items()))


def resolve(name: str, path: str) -> tuple[str, str] | None:
    """The executable that the python3.X at path runs, and its full version,
    or None if it does not run. A pyenv shim runs the command only under a
    pyenv version that has it, so each version ``pyenv whence`` names for
    it is tried first."""
    pyenv = shutil.which("pyenv")
    whence = subprocess.run([pyenv, "whence", name], capture_output=True, text=True,
                            timeout=60) if pyenv else None
    versions = whence.stdout.split() if whence and whence.returncode == 0 else []
    for env in (*({"PYENV_VERSION": v} for v in versions), {}):
        done = subprocess.run(
            [path, "-c", "import platform, sys; print(platform.python_version(), sys.executable)"],
            env=dict(os.environ, **env), capture_output=True, text=True, timeout=60)
        if done.returncode == 0:
            full, executable = done.stdout.strip().split(" ", 1)
            return executable, full
    return None


def main() -> int:
    oldest = oldest_python()
    ran, skipped, failed = [], [], False
    for minor, python in interpreters().items():
        name = f"python3.{minor}"
        found = resolve(name, python) if (3, minor) >= oldest else None
        if found is None:
            why = "below requires-python" if (3, minor) < oldest else "does not run"
            skipped.append(f"{name} ({why})")
            continue
        python, full = found
        # No mutants: test_log_reader, which makes them, imports pytest,
        # which another interpreter may lack.
        processes = {setup: start(python, setup, count=0) for setup in SETUPS}
        verdicts = []
        for setup, process in processes.items():
            result = finish(process)
            wrong = mismatches(setup, result) if isinstance(result, dict) \
                else [result.strip().splitlines()[-1] if result.strip() else "no output"]
            failed |= bool(wrong)
            verdicts.append(f"{setup} {'MISMATCH: ' + ', '.join(wrong) if wrong else 'ok'}")
        ran.append(full)
        print(f"{name} ({full}): {'; '.join(verdicts)}")
    print(f"ran: {', '.join(ran) or 'none'}")
    print(f"skipped: {', '.join(skipped) or 'none'}")
    return 1 if failed or not ran else 0


if __name__ == "__main__":
    sys.exit(main())
