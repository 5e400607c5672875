#!/usr/bin/env python
"""CI smoke check for chaos-hardened serving.

Usage::

    PYTHONPATH=src python tools/chaos_smoke.py [--seed N]

Runs two armed soaks against a two-worker pool with MSB-pinned
transient upsets at the output bus, restricted to the single-crossing
modes (sigmoid/tanh) where the range guard provably sees every hit:

* the **unmitigated baseline** must silently corrupt (otherwise the
  upset rate is vacuous and the next check proves nothing);
* the **defended run** (verify + retry + canaries + quarantine + one
  injected worker kill) must detect at least one upset, land the kill,
  recover the pool, serve **zero silent wrong answers**, and account
  for every offered request in exactly one bucket.

Exits 0 when every check holds, 1 otherwise, printing one line per
check so CI logs show exactly what broke.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

# Allow running straight from a checkout without PYTHONPATH.
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from dataclasses import replace  # noqa: E402

from repro.chaos import ChaosScenario, run_soak  # noqa: E402


def _check(ok: bool, label: str) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'}  {label}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="scenario base seed (default 0)")
    args = parser.parse_args(argv)

    base = ChaosScenario(
        name="", requests=240, rate_rps=4000.0, workers=2,
        modes=("sigmoid", "tanh"), seed=args.seed,
    )
    baseline = run_soak(replace(
        base, name="smoke-unmitigated", fault_rate=0.02, mitigation="none",
    ))
    defended = run_soak(replace(
        base, name="smoke-defended", fault_rate=0.005, mitigation="retry",
        max_retries=3, canary_every=8, quarantine_after=5,
        kill_after_s=0.05,
    ))

    ok = True
    print(f"      {baseline.summary()}")
    print(f"      {defended.summary()}")
    ok &= _check(
        baseline.wrong > 0,
        f"baseline: the unmitigated pool silently corrupts at this rate "
        f"(wrong={baseline.wrong})",
    )
    ok &= _check(
        baseline.accounted,
        "baseline: every offered request lands in exactly one bucket",
    )
    ok &= _check(
        defended.detections >= 1,
        f"defended: at least one upset detected "
        f"(detections={defended.detections})",
    )
    ok &= _check(
        defended.wrong == 0,
        f"defended: zero silent wrong answers (wrong={defended.wrong})",
    )
    ok &= _check(
        defended.accounted,
        "defended: every offered request lands in exactly one bucket "
        f"({defended.correct} correct + {defended.corrected} corrected + "
        f"{defended.wrong} wrong + {defended.shed} shed + "
        f"{defended.failed_loud} loud == {defended.offered})",
    )
    ok &= _check(
        defended.killed,
        "defended: the injected worker kill landed",
    )
    ok &= _check(
        defended.mttr_s is not None,
        f"defended: the pool recovered to full strength "
        f"(MTTR={defended.mttr_s if defended.mttr_s is None else round(defended.mttr_s * 1e3, 1)} ms)",
    )
    ok &= _check(
        defended.restarts >= 1,
        f"defended: the killed worker was restarted "
        f"(restarts={defended.restarts})",
    )

    print("chaos smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
