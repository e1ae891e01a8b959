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
from ploop.knowledge import aggregate

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

# What the designer actually gets to read at the manufacturer:
insight = aggregate(feedback.world.repository, "px-100@urn:mfg:acme", 1)
print("=== design insight for generation 1 ===")
print(f"records: {insight.record_count} "
      f"(tacit {insight.tacit_count}, explicit {insight.explicit_count})")
print("top issues:", ", ".join(insight.top_issues[:8]))
