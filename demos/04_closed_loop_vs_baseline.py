#!/usr/bin/env python3
"""The headline experiment: closing the loop shortens the launch.

Runs the paired golden fixtures. Both simulate the same product in the
extended end-of-life: sensor batches, a fault and repair, customer
feedback, and retirement at tick 30. The feedback run lets the knowledge
keeper trigger the next generation as soon as five records accumulate;
the baseline starts the next design only at retirement. Same seed, same
stimuli, one rule flipped.
"""

from pathlib import Path

from ploop.harness import compare, load_scenario, run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

feedback = run(load_scenario(FIXTURES / "closed_loop.scn"))
baseline = run(load_scenario(FIXTURES / "baseline.scn"))

print("=== feedback-enabled run ===")
print(feedback.report.to_text())
print("=== baseline run (trigger rule disabled) ===")
print(baseline.report.to_text())

summary = compare(feedback.report, baseline.report)
print("=== comparison ===")
print(summary.to_text())

