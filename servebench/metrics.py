"""End-to-end metric arithmetic and the steadiness statistics.

Kept apart from the run entry point so the self-tests can check it on
made-up phases with known timings.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

import numpy as np

#: name -> unit, in the order the run prints them.
END_TO_END = {
    "req_per_s": "req/s",
    "cpu_us_per_req": "us",
    "idle_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}


def end_to_end(idle, loaded, loaded_cpu_ns: int, peak_rss_mib: float,
               setup_samples: Sequence[float]) -> Dict[str, float]:
    """The six end-to-end values from two measured phases.

    ``req_per_s`` is the median of the loaded phase's per-slice rates;
    ``cpu_us_per_req`` divides the CPU every process of the run spent
    over the loaded phase by the requests it completed; ``setup_s`` is
    the median of the set-ups timed in this run.
    """
    attempted = idle.attempted + loaded.attempted
    return {
        "req_per_s": float(statistics.median(loaded.slice_rates)),
        "cpu_us_per_req": loaded_cpu_ns / max(loaded.completed, 1) / 1e3,
        "idle_p50_ms": float(np.percentile(idle.latencies_ns, 50)) / 1e6,
        "setup_s": float(statistics.median(setup_samples)),
        "peak_rss_mb": float(peak_rss_mib),
        "success_rate": (idle.correct + loaded.correct) / max(attempted, 1),
    }


def with_units(values: Dict[str, float], units: Dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and the two relative spreads of repeated runs.

    ``iqr_share`` is (q3 - q1) / median with ``statistics.quantiles(n=4)``
    quartiles, the spread a benchmark bound is judged against;
    ``range_share`` is (max - min) / median.
    """
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4)
                 if len(values) > 1 else (values[0],) * 3)
    scale = abs(median) if median else 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "range_share": (max(values) - min(values)) / scale,
    }
