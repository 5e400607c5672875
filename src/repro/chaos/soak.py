"""Chaos scenarios: armed fault plans under load, accounted exactly.

One :class:`ChaosScenario` is one cell of the resilience experiment:
a transient-upset rate at one datapath site (MSB-pinned by default, so
a range guard *provably* sees every hit at the output site), a
mitigation posture, and optionally a mid-run worker kill. The runner
arms the plan only inside the pool's forked workers (the parent and
the shared table image stay pristine), drives seeded
:mod:`repro.loadgen` traffic, and verifies every completed response
against a clean reference engine — the load harness's bit-identity
oracle is what makes "silent wrong answer" a measured number instead
of a hope.

Accounting is total: ``correct + corrected + wrong + shed +
failed_loud == offered`` holds for every report by construction
(:class:`~repro.loadgen.generator.LoadReport` splits outcomes into
completed / shed / errored; completed further splits against the
oracle and the pool's ``serve.resilience.corrected`` counter, which
folds exactly through :func:`~repro.telemetry.merge_snapshots`).

Detection coverage is site-dependent physics, not harness policy: an
MSB upset at the *final* ``io.out`` crossing leaves the function range
and cannot hide from the range guard — but the exponential and softmax
paths are built from the simpler calls, so ``io.out`` also fires on
their interior hand-offs (sigma feeding e^x, e^x feeding the divider),
where a corrupted intermediate is renormalised back into range before
anyone checks it. Guard-visible cells therefore pin the upset to the
I/O MSB *and* restrict traffic to the single-crossing modes (sigmoid,
tanh); those are the cells smoke tests assert ``wrong == 0`` on.
Everything else — other sites, the full four-mode mix — reports its
measured escape rate instead of claiming a guarantee.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine import BatchEngine
from repro.errors import ConfigError
from repro.faults import plan as _plan
from repro.faults.models import FaultModel, FaultSpec
from repro.faults.plan import FaultPlan, ledger_from_snapshot, mitigation_summary
from repro.loadgen import LoadGenerator, RequestMix, make_offsets, make_requests
from repro.nacu.config import NacuConfig
from repro.serve.pool import WorkerPool
from repro.serve.resilience import ResponsePolicy
from repro.telemetry.collector import Collector

#: Mitigation postures, in escalating order of machinery engaged.
MITIGATIONS = ("none", "detect", "retry")


@dataclass(frozen=True)
class ChaosScenario:
    """One cell of the chaos experiment, fully seeded and replayable."""

    name: str
    n_bits: int = 12
    workers: int = 2
    #: Offered traffic: ``requests`` arrivals at ``rate_rps`` drawn from
    #: the ``arrival`` process, all seeded by ``seed``.
    requests: int = 200
    rate_rps: float = 3000.0
    arrival: str = "poisson"
    seed: int = 0
    #: Per-word transient upset probability per crossing; 0 disarms.
    fault_rate: float = 0.0
    site: str = _plan.IO_OUT
    #: Pinned upset bit (LSB = 0); ``None`` pins the I/O word's MSB —
    #: the guard-visible signature the zero-silent-wrong claim rests on.
    bit: Optional[int] = None
    #: ``none`` ships responses unchecked; ``detect`` verifies and fails
    #: loudly; ``retry`` verifies and re-dispatches before failing.
    mitigation: str = "retry"
    max_retries: int = 3
    canary_every: int = 0
    quarantine_after: int = 0
    #: The request mix, as the servable mode names to blend uniformly.
    modes: Sequence[str] = ("sigmoid", "tanh", "exp", "softmax")
    #: Kill one worker (SIGKILL) this long into the run; 0 disables.
    kill_after_s: float = 0.0
    #: Dispatch rides through restart windows instead of failing fast.
    dispatch_wait_s: float = 0.25
    fast: bool = True
    #: Request sizes: the expected per-request corruption probability is
    #: roughly ``fault_rate × elements``, so chaos mixes stay small.
    max_elements: int = 4
    max_row: int = 6
    timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.mitigation not in MITIGATIONS:
            raise ConfigError(
                f"unknown mitigation {self.mitigation!r}; "
                f"options: {MITIGATIONS}"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ConfigError(
                f"fault rate {self.fault_rate} outside [0, 1]"
            )
        if self.requests < 1:
            raise ConfigError("a scenario offers at least one request")
        if self.kill_after_s < 0:
            raise ConfigError("kill_after_s must be non-negative")
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ConfigError("a scenario serves at least one mode")

    # ------------------------------------------------------------------
    def fault_plan(self, config: NacuConfig) -> Optional[FaultPlan]:
        """The scenario's plan (sharded per worker by the pool itself)."""
        if self.fault_rate == 0.0:
            return None
        bit = (
            self.bit if self.bit is not None
            else config.io_fmt.n_bits - 1
        )
        return FaultPlan(
            seed=self.seed,
            specs=(
                FaultSpec(
                    site=self.site, model=FaultModel.TRANSIENT,
                    rate=self.fault_rate, bit=bit,
                ),
            ),
        )

    def policy(self) -> Optional[ResponsePolicy]:
        """The pool-side defence this cell fights with (or ``None``)."""
        if self.mitigation == "none":
            return None
        return ResponsePolicy(
            canary_every=self.canary_every,
            max_retries=self.max_retries if self.mitigation == "retry" else 0,
            quarantine_after=self.quarantine_after,
        )

    @property
    def guard_visible(self) -> bool:
        """Whether the injected signature provably trips the verifier.

        True for MSB-pinned upsets on the output bus under traffic that
        crosses it exactly once per response: flipping the I/O word's
        top bit takes a sigmoid/tanh value out of the function's range,
        and the range guard checks exactly that. The exp and softmax
        paths cross ``io.out`` on interior hand-offs too (their escapes
        are renormalised back into range), so cells serving them are
        coverage measurements, not guarantees.
        """
        return (
            self.site == _plan.IO_OUT
            and (self.bit is None or self.bit == self.n_bits - 1)
            and set(self.modes) <= {"sigmoid", "tanh"}
        )


@dataclass
class SoakReport:
    """What one scenario offered, where every request ended up."""

    scenario: ChaosScenario
    #: The exhaustive request accounting; the five buckets sum to
    #: ``offered`` by construction (see :attr:`accounted`).
    offered: int
    correct: int
    corrected: int
    wrong: int
    shed: int
    failed_loud: int
    #: Resilience SLO numbers.
    detections: int
    detection_latency_ms: Optional[float]
    retries: int
    canaries: int
    canary_failures: int
    quarantines: int
    restarts: int
    injected: int
    #: Worker-kill recovery: ``None`` when the scenario did not kill.
    killed: bool
    mttr_s: Optional[float]
    duration_s: float
    req_per_s: float
    p50_ms: float
    p99_ms: float
    snapshot: dict = field(repr=False, default_factory=dict)

    @property
    def accounted(self) -> bool:
        """Every offered request landed in exactly one bucket."""
        return (
            self.correct + self.corrected + self.wrong
            + self.shed + self.failed_loud
        ) == self.offered

    @property
    def silent_wrong(self) -> int:
        """Completed responses that differ from the clean reference."""
        return self.wrong

    def to_row(self) -> Dict[str, object]:
        """One flat benchmark-summary row (JSON-able scalars only)."""
        s = self.scenario
        return {
            "scenario": s.name,
            "site": s.site,
            "modes": "+".join(s.modes),
            "fault_rate": s.fault_rate,
            "mitigation": s.mitigation,
            "workers": s.workers,
            "n_bits": s.n_bits,
            "guard_visible": s.guard_visible,
            "offered": self.offered,
            "correct": self.correct,
            "corrected": self.corrected,
            "wrong": self.wrong,
            "shed": self.shed,
            "failed_loud": self.failed_loud,
            "accounted": self.accounted,
            "detections": self.detections,
            "detection_latency_ms": self.detection_latency_ms,
            "retries": self.retries,
            "canaries": self.canaries,
            "canary_failures": self.canary_failures,
            "quarantines": self.quarantines,
            "restarts": self.restarts,
            "injected": self.injected,
            "killed": self.killed,
            "mttr_s": self.mttr_s,
            "duration_s": self.duration_s,
            "req_per_s": self.req_per_s,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
        }

    def summary(self) -> str:
        latency = (
            f", detect {self.detection_latency_ms:.2f} ms"
            if self.detection_latency_ms is not None else ""
        )
        mttr = (
            f", MTTR {self.mttr_s * 1e3:.1f} ms"
            if self.mttr_s is not None else ""
        )
        return (
            f"{self.scenario.name}: {self.offered} offered -> "
            f"{self.correct} correct, {self.corrected} corrected, "
            f"{self.wrong} wrong, {self.shed} shed, "
            f"{self.failed_loud} loud failures; "
            f"{self.detections} detections{latency}, "
            f"{self.retries} retries, {self.quarantines} quarantines, "
            f"{self.restarts} restarts{mttr} "
            f"({self.req_per_s:,.0f} req/s, p99 {self.p99_ms:.2f} ms)"
        )


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def _kill_one_worker(pool: WorkerPool, delay_s: float,
                     out: dict, stop: threading.Event) -> None:
    """SIGKILL one worker after ``delay_s``; time recovery to full."""
    if stop.wait(delay_s):
        return
    pids = pool.worker_pids()
    if not pids:
        return
    victim = pids[0]
    started = time.perf_counter()
    try:
        os.kill(victim, signal.SIGKILL)
    except ProcessLookupError:
        return
    out["killed"] = True
    # Recovery means the *replacement* is up: the victim's pid has left
    # the roster and the pool is back at full strength. Polling for the
    # head count alone would race the kernel — the corpse can look
    # alive for the first poll and recovery would measure as instant.
    deadline = started + 30.0
    while time.perf_counter() < deadline:
        current = pool.worker_pids()
        if victim not in current and len(current) >= pool.workers:
            out["mttr_s"] = time.perf_counter() - started
            return
        time.sleep(0.001)


def run_soak(scenario: ChaosScenario,
             collector: Optional[Collector] = None) -> SoakReport:
    """Run one scenario end to end and account for every request."""
    config = NacuConfig.for_bits(scenario.n_bits)
    if collector is None:
        collector = Collector()
    # The oracle evaluates in the parent, where no plan is ever armed:
    # the bit-accurate datapath is the reference the fast path is held
    # to everywhere else, so mismatches are corruption, not modelling.
    oracle = BatchEngine(config=config, fast=False)
    rng = np.random.default_rng(scenario.seed)
    requests = make_requests(
        scenario.requests,
        RequestMix(
            weights={mode: 1.0 for mode in scenario.modes},
            max_elements=scenario.max_elements, max_row=scenario.max_row,
        ),
        rng=rng,
    )
    offsets = make_offsets(
        scenario.arrival, scenario.requests, scenario.rate_rps, rng
    )

    kill_state: dict = {"killed": False, "mttr_s": None}
    stop_killer = threading.Event()
    killer: Optional[threading.Thread] = None
    pool = WorkerPool(
        config=config,
        workers=scenario.workers,
        fast=scenario.fast,
        collector=collector,
        resilience=scenario.policy(),
        fault_plan=scenario.fault_plan(config),
        dispatch_wait_s=scenario.dispatch_wait_s,
    )
    try:
        if scenario.kill_after_s > 0:
            killer = threading.Thread(
                target=_kill_one_worker,
                args=(pool, scenario.kill_after_s, kill_state, stop_killer),
                name="nacu-chaos-killer", daemon=True,
            )
            killer.start()
        generator = LoadGenerator(pool, verify_engine=oracle)
        report = generator.run_open(
            requests, offsets, timeout_s=scenario.timeout_s
        )
        if killer is not None:
            killer.join(timeout=35.0)
    finally:
        stop_killer.set()
        pool.close()
    snapshot = pool.telemetry_snapshot()

    counters = snapshot.get("counters", {})
    corrected = int(counters.get("serve.resilience.corrected", 0))
    wrong = int(report.mismatches or 0)
    # ``corrected`` requests completed and verified clean; they cannot
    # overlap ``wrong`` at a guard-visible site, and clamping keeps the
    # fold total even if a non-visible site lets one through both.
    corrected = min(corrected, report.completed - wrong)
    correct = report.completed - corrected - wrong
    detect = snapshot.get("timers", {}).get("serve.resilience.detect")
    detection_latency_ms = (
        detect["total_ns"] / detect["count"] / 1e6
        if detect and detect["count"] else None
    )
    return SoakReport(
        scenario=scenario,
        offered=report.offered,
        correct=correct,
        corrected=corrected,
        wrong=wrong,
        shed=report.sheds,
        failed_loud=report.errors,
        detections=int(counters.get("serve.resilience.verify_failures", 0)),
        detection_latency_ms=detection_latency_ms,
        retries=int(counters.get("serve.resilience.retries", 0)),
        canaries=int(counters.get("serve.resilience.canaries", 0)),
        canary_failures=int(
            counters.get("serve.resilience.canary_failures", 0)
        ),
        quarantines=int(counters.get("serve.resilience.quarantines", 0)),
        restarts=int(counters.get("serve.pool.worker_restarts", 0)),
        injected=int(
            mitigation_summary(ledger_from_snapshot(snapshot))["injected"]
        ),
        killed=bool(kill_state["killed"]),
        mttr_s=kill_state["mttr_s"],
        duration_s=report.duration_s,
        req_per_s=report.req_per_s,
        p50_ms=report.p50_ms,
        p99_ms=report.p99_ms,
        snapshot=snapshot,
    )


def run_sweep(scenarios: Sequence[ChaosScenario]) -> List[SoakReport]:
    """Run each scenario in sequence (pools do not share workers)."""
    return [run_soak(scenario) for scenario in scenarios]


# ----------------------------------------------------------------------
# The canonical sweep
# ----------------------------------------------------------------------
def default_sweep(profile: str = "quick") -> List[ChaosScenario]:
    """The fault rate × site × mitigation grid the harness ships with.

    ``quick`` is the CI-sized story in four cells: a clean control (the
    false-positive guard), the unmitigated corruption baseline, detect-
    only (loud, uncorrected), and the full defence with a worker kill.
    ``soak`` widens the grid with more traffic, a quarantine cell and
    non-output sites whose detection coverage is a *measurement*, not a
    guarantee.
    """
    single_crossing = ("sigmoid", "tanh")
    if profile == "quick":
        n = 240
        base = ChaosScenario(name="", requests=n, rate_rps=4000.0)
        return [
            replace(base, name="clean-control", fault_rate=0.0,
                    mitigation="retry", canary_every=4),
            replace(base, name="unmitigated", fault_rate=0.02,
                    mitigation="none", modes=single_crossing),
            replace(base, name="detect-only", fault_rate=0.01,
                    mitigation="detect", modes=single_crossing),
            replace(base, name="retry-kill", fault_rate=0.005,
                    mitigation="retry", modes=single_crossing,
                    canary_every=8, quarantine_after=5,
                    kill_after_s=0.05),
        ]
    if profile == "soak":
        n = 1000
        base = ChaosScenario(name="", requests=n, rate_rps=5000.0)
        return [
            replace(base, name="clean-control", fault_rate=0.0,
                    mitigation="retry", canary_every=4),
            replace(base, name="unmitigated", fault_rate=0.02,
                    mitigation="none", modes=single_crossing),
            replace(base, name="detect-only", fault_rate=0.01,
                    mitigation="detect", modes=single_crossing),
            replace(base, name="retry", fault_rate=0.005,
                    mitigation="retry", modes=single_crossing,
                    canary_every=8),
            replace(base, name="retry-quarantine-kill", fault_rate=0.005,
                    mitigation="retry", modes=single_crossing,
                    canary_every=8, quarantine_after=4,
                    kill_after_s=0.1),
            # Coverage cells: upsets on interior crossings or other
            # sites may land back in range by the output bus — their
            # wrong-rate is the measured escape rate of the defences
            # there, not a harness failure.
            replace(base, name="coverage-fullmix", fault_rate=0.005,
                    mitigation="retry", canary_every=8),
            replace(base, name="coverage-divider", fault_rate=0.005,
                    site=_plan.DIVIDER_PIPE, mitigation="retry",
                    canary_every=8),
            replace(base, name="coverage-mac", fault_rate=0.005,
                    site=_plan.MAC_ACC, mitigation="retry",
                    canary_every=8),
        ]
    raise ConfigError(
        f"unknown chaos profile {profile!r}; options: quick, soak"
    )
