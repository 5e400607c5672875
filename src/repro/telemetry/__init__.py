"""Opt-in datapath telemetry: counters, histograms, timers, cycle ledgers.

The instrumentation the paper's evaluation implies but the model never
had: how often the datapath saturates, which LUT segments are hot, how
many paper-model cycles a workload consumed, how quantisation error
accumulates per NN layer. Everything is off by default and costs one
``None`` check per batch-level call until :func:`enable` installs a
:class:`Collector` (or one is injected via the ``collector=`` parameters
on :class:`~repro.nacu.unit.Nacu` / :class:`~repro.engine.BatchEngine`).

The serving observability layer rides the same registry pattern:

* :mod:`.quantiles` — streaming p50/p99/p999 over fixed log-spaced
  buckets whose shard snapshots merge *exactly*;
* :mod:`.trace` — sampled per-request traces with per-stage timelines
  and fault events, retained in a bounded ring buffer;
* :mod:`.slo` — latency/error-budget targets with good/bad/shed
  accounting (sheds burn budget);
* :mod:`.export` — Prometheus text exposition and a JSONL trace dump.

>>> from repro import telemetry
>>> from repro.engine import BatchEngine
>>> with telemetry.use_collector(telemetry.Collector()) as tel:
...     BatchEngine.for_bits(16).softmax([[1.0, 2.0, 0.5]])
...     snapshot = tel.snapshot()      # doctest: +SKIP
"""

from repro._lazy import lazy_names
from repro.telemetry.collector import (
    Collector,
    disable,
    enable,
    get_collector,
    merge_snapshots,
    resolve,
    set_collector,
    use_collector,
)
from repro.telemetry.quantiles import (
    StreamingQuantiles,
    merge_quantile_entries,
    quantile_from_entry,
    quantiles_from_entry,
)
from repro.telemetry.slo import SLOAccountant, SLOPolicy, slo_summary
from repro.telemetry.trace import (
    RequestTrace,
    StageSink,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    use_tracer,
)

# Reporting, export and the NN probe are for operators and experiments;
# serving never calls them, so they load on first access.
__getattr__ = lazy_names(globals(), {
    "read_traces_jsonl": "repro.telemetry.export",
    "render_prometheus": "repro.telemetry.export",
    "render_trace_timeline": "repro.telemetry.export",
    "write_traces_jsonl": "repro.telemetry.export",
    "probe_layer_error": "repro.telemetry.nn_probe",
    "derived_rates": "repro.telemetry.report",
    "render_snapshot": "repro.telemetry.report",
    "render_table": "repro.telemetry.report",
})

__all__ = [
    "Collector",
    "RequestTrace",
    "SLOAccountant",
    "SLOPolicy",
    "StageSink",
    "StreamingQuantiles",
    "Tracer",
    "disable",
    "disable_tracing",
    "enable",
    "enable_tracing",
    "get_collector",
    "get_tracer",
    "merge_quantile_entries",
    "merge_snapshots",
    "probe_layer_error",
    "derived_rates",
    "quantile_from_entry",
    "quantiles_from_entry",
    "read_traces_jsonl",
    "render_prometheus",
    "render_snapshot",
    "render_table",
    "render_trace_timeline",
    "resolve",
    "set_collector",
    "set_tracer",
    "slo_summary",
    "use_collector",
    "use_tracer",
    "write_traces_jsonl",
]
