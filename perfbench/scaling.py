"""How fleet run time grows with product count.

For each N, generates the fleet workload with N products (seed 1) in a
separate process, then times ``ploop run`` on it in process, REPEATS times,
and prints the fastest and the median wall time with the event count. Run
from the repository root:

    python3 perfbench/scaling.py 5 10 20 40
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
REPEATS = 5


def main(argv: list[str]) -> int:
    root = Path.cwd()
    run._import_ploop(root)
    from ploop import cli

    out = root / "perfbench" / "out" / "scaling"
    print(f"{'N':>4} {'events':>8} {'fastest_s':>10} {'median_s':>10}")
    for n in [int(a) for a in argv] or [5, 10, 20, 40]:
        subprocess.run([sys.executable, str(HERE / "scenarios.py"), "--workload", "fleet",
                        "--seed", "1", "--products", str(n), "--out", str(out / f"n{n}")],
                       cwd=root, check=True, timeout=120, stdout=subprocess.DEVNULL)
        scenario = out / f"n{n}" / "fleet-s1.scn"
        argv_run = ["run", "--scenario", str(scenario), "--out", str(out / f"n{n}")]
        times = []
        for _ in range(REPEATS):
            with contextlib.redirect_stdout(io.StringIO()):
                code, seconds = run._timed(cli.main, argv_run)
            if code != 0:
                raise SystemExit(f"ploop run exited {code} at N={n}")
            times.append(seconds)
        events = sum(1 for _ in open(out / f"n{n}" / "fleet.events.jsonl", encoding="utf-8"))
        print(f"{n:>4} {events:>8} {min(times):>10.4f} {statistics.median(times):>10.4f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
