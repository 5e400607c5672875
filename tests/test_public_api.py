"""The documented public API must stay importable and stable."""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_readme_quickstart_lines(self):
        from repro import Nacu

        unit = Nacu.for_bits(16)
        assert unit.sigmoid(1.0) == pytest.approx(0.731, abs=1e-3)
        assert unit.tanh(-0.5) == pytest.approx(-0.462, abs=2e-3)
        assert unit.exp(-2.0) == pytest.approx(0.135, abs=2e-3)
        probs = unit.softmax([1.2, -0.5, 3.0])
        assert probs.sum() == pytest.approx(1.0, abs=0.01)


class TestSubpackageSurfaces:
    @pytest.mark.parametrize("module,names", [
        ("repro.fixedpoint", ["FxArray", "QFormat", "ops", "select_format"]),
        ("repro.approx", ["Approximator", "DesignPoint", "InterpolatedLUT",
                          "NonUniformPWL", "PolynomialApproximator",
                          "RangeAddressableLUT", "Segment", "SegmentTable",
                          "UniformLUT", "UniformPWL", "entries_for_accuracy",
                          "error_for_entries", "explore_entries_vs_fracbits",
                          "explore_error_vs_entries", "taylor_coefficients"]),
        ("repro.nacu", ["Nacu", "NacuConfig", "FunctionMode",
                        "build_sigmoid_lut"]),
        ("repro.baselines", ["RELATED_WORK", "get_baseline", "iter_baselines"]),
        ("repro.analysis", ["accuracy_report", "error_distribution",
                            "sigmoid_error_budget"]),
        ("repro.hwcost", ["nacu_area_breakdown", "scale_area"]),
        ("repro.nn", ["Mlp", "FixedPointMlp", "LstmCell", "LstmClassifier",
                      "AdExNeuron", "SmallCnn"]),
        ("repro.rtl", ["NacuPipeline", "Pipeline", "SoftmaxSequencer"]),
        ("repro.cgra", ["Fabric", "FabricLstm", "map_mlp"]),
        ("repro.experiments", ["EXPERIMENTS", "run_experiment"]),
        ("repro.serve", ["AsyncFrontend", "AttachedTableSource",
                         "BackpressureError", "Batch", "InferenceServer",
                         "MicroBatcher", "MmapTableSource", "Request",
                         "ResponsePolicy", "ResponseTimeoutError",
                         "ResponseVerificationError", "ResponseVerifier",
                         "RingManifest", "RingSlotState", "SERVABLE_MODES",
                         "ServeError", "ServerClosedError",
                         "SharedTableStore", "SlotRing", "StoreManifest",
                         "TableEntry", "TornFrameError", "WorkerCrashError",
                         "WorkerPool", "mmap_table"]),
        ("repro.telemetry", ["Collector", "RequestTrace", "SLOAccountant",
                             "SLOPolicy", "StageSink", "StreamingQuantiles",
                             "Tracer", "derived_rates", "disable",
                             "disable_tracing", "enable", "enable_tracing",
                             "get_collector", "get_tracer",
                             "merge_quantile_entries", "merge_snapshots",
                             "probe_layer_error", "quantile_from_entry",
                             "quantiles_from_entry", "read_traces_jsonl",
                             "render_prometheus", "render_snapshot",
                             "render_table", "render_trace_timeline",
                             "resolve", "set_collector", "set_tracer",
                             "slo_summary", "use_collector", "use_tracer",
                             "write_traces_jsonl"]),
        ("repro.loadgen", ["LoadGenerator", "LoadReport", "RequestMix",
                           "make_requests", "make_offsets",
                           "poisson_offsets", "bursty_offsets"]),
    ])
    def test_surface(self, module, names):
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name} missing"

    @pytest.mark.parametrize(
        "module", ["repro", "repro.serve", "repro.approx", "repro.telemetry"]
    )
    def test_star_import_binds_every_export(self, module):
        mod = importlib.import_module(module)
        namespace = {}
        exec(f"from {module} import *", namespace)
        for name in mod.__all__:
            assert namespace[name] is getattr(mod, name), name

    def test_unknown_name_is_an_attribute_error(self):
        import repro.approx

        with pytest.raises(AttributeError, match="no_such_engine"):
            repro.approx.no_such_engine


class TestServingSurface:
    """Every setting a serving tier takes, pinned by name and order.

    A new option has to change this test, and the change that adds it
    says which callers need a value other than the default.
    """

    @pytest.mark.parametrize("name,params", [
        ("InferenceServer", [
            "engine", "config", "n_bits", "fast", "workers",
            "max_batch_elements", "max_delay_us", "max_pending_elements",
            "table_source", "collector", "tracer", "slo",
        ]),
        ("WorkerPool", [
            "config", "n_bits", "workers", "fast", "share_tables",
            "restart", "ring_slots", "ring_slot_elements",
            "max_batch_elements", "max_delay_us", "max_pending_elements",
            "publish_cache", "collector", "tracer", "slo", "resilience",
            "dispatch_wait_s", "fault_plan",
        ]),
        ("AsyncFrontend", ["backend", "max_inflight"]),
    ])
    def test_constructor_parameters(self, name, params):
        import repro.serve

        cls = getattr(repro.serve, name)
        assert list(inspect.signature(cls).parameters) == params

    def test_response_policy_fields(self):
        from repro.serve import ResponsePolicy

        assert [f.name for f in dataclasses.fields(ResponsePolicy)] == [
            "canary_every", "max_retries", "timeout_s", "quarantine_after",
        ]


class TestImportFootprint:
    """What a serving process leaves unloaded: modules, not milliseconds."""

    #: Modules neither serving tier calls.
    UNUSED = (
        "asyncio", "ssl", "repro.serve.frontend", "repro.hwcost",
        "repro.telemetry.export", "repro.telemetry.report",
        "repro.telemetry.nn_probe",
    )

    def test_serving_import_loads_only_what_serving_calls(self):
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=(
            src if not path else os.pathsep.join([src, path])
        ))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.serve; print(' '.join(sys.modules))"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        ).stdout.split()
        assert [m for m in self.UNUSED if m in out] == []
        assert [m for m in out if m.startswith("repro.approx.")] == [
            "repro.approx.minimax"
        ]
