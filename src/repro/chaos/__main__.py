"""``python -m repro.chaos`` — run the chaos soak sweep from the CLI.

Prints one summary line per scenario plus the headline verdict, and
exits non-zero when the resilience contract is violated: any
guard-visible mitigated cell serving a silent wrong answer, any cell
whose request accounting does not fold, or an unmitigated baseline
that failed to corrupt anything (the experiment would be vacuous).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.chaos.soak import default_sweep, run_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="chaos soak: armed fault plans vs the serving defences",
    )
    parser.add_argument(
        "--profile", choices=("quick", "soak"), default="quick",
        help="quick = CI-sized four-cell story; soak = the full grid",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the report rows as JSON",
    )
    args = parser.parse_args(argv)

    scenarios = default_sweep(args.profile)
    print(f"chaos sweep ({args.profile}): {len(scenarios)} scenario(s)")
    reports = run_sweep(scenarios)

    failures = []
    for report in reports:
        print("  " + report.summary())
        s = report.scenario
        if not report.accounted:
            failures.append(f"{s.name}: request accounting does not fold")
        if s.mitigation != "none" and s.guard_visible and report.wrong:
            failures.append(
                f"{s.name}: {report.wrong} silent wrong answer(s) under "
                f"mitigation at a guard-visible site"
            )
        if s.name == "unmitigated" and report.wrong == 0:
            failures.append(
                "unmitigated: no corruption observed — the baseline is "
                "vacuous at this rate"
            )
        if s.kill_after_s > 0 and not report.killed:
            failures.append(f"{s.name}: the worker kill never landed")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump([r.to_row() for r in reports], handle, indent=2)
        print(f"rows written to {args.json}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("resilience contract holds: zero silent wrong answers under "
          "mitigation at guard-visible sites")
    return 0


if __name__ == "__main__":
    sys.exit(main())
