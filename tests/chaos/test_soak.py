"""Chaos soak harness: scenario validation, accounting, the contract."""

from dataclasses import replace

import pytest

from repro.chaos import ChaosScenario, default_sweep, run_soak
from repro.errors import ConfigError
from repro.faults.plan import DIVIDER_PIPE, IO_OUT


class TestScenarioValidation:
    def test_defaults_are_valid(self):
        scenario = ChaosScenario(name="x")
        assert scenario.mitigation == "retry"
        assert isinstance(scenario.modes, tuple) and len(scenario.modes) == 4

    @pytest.mark.parametrize("kwargs", [
        {"mitigation": "hope"},
        {"fault_rate": 1.5},
        {"fault_rate": -0.1},
        {"requests": 0},
        {"kill_after_s": -1.0},
        {"modes": ()},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            ChaosScenario(name="x", **kwargs)

    def test_guard_visible_requires_single_crossing_modes(self):
        base = ChaosScenario(name="x", site=IO_OUT)
        assert replace(base, modes=("sigmoid", "tanh")).guard_visible
        assert not replace(base, modes=("sigmoid", "exp")).guard_visible
        assert not replace(base, site=DIVIDER_PIPE,
                           modes=("sigmoid",)).guard_visible
        assert not replace(base, modes=("sigmoid",), bit=0).guard_visible

    def test_fault_plan_pins_the_io_msb_by_default(self):
        from repro.nacu.config import NacuConfig
        scenario = ChaosScenario(name="x", fault_rate=0.01)
        config = NacuConfig.for_bits(scenario.n_bits)
        plan = scenario.fault_plan(config)
        assert plan.specs[0].bit == config.io_fmt.n_bits - 1
        assert ChaosScenario(name="x").fault_plan(config) is None

    def test_policy_by_mitigation(self):
        assert ChaosScenario(name="x", mitigation="none").policy() is None
        detect = ChaosScenario(name="x", mitigation="detect",
                               max_retries=7).policy()
        assert detect.max_retries == 0
        retry = ChaosScenario(name="x", mitigation="retry",
                              max_retries=7).policy()
        assert retry.max_retries == 7


class TestSoakRuns:
    def test_clean_cell_accounts_and_stays_correct(self):
        report = run_soak(ChaosScenario(
            name="clean", requests=48, rate_rps=4000.0, workers=2,
            mitigation="retry", canary_every=4,
        ))
        assert report.accounted
        assert report.offered == 48
        assert report.wrong == 0 and report.failed_loud == 0
        assert report.correct == 48
        assert report.canaries > 0 and report.canary_failures == 0
        assert report.detections == 0 and report.injected == 0
        assert not report.killed and report.mttr_s is None

    def test_defended_cell_serves_zero_silent_wrong(self):
        report = run_soak(ChaosScenario(
            name="defended", requests=160, rate_rps=4000.0, workers=2,
            modes=("sigmoid", "tanh"), fault_rate=0.01,
            mitigation="retry", max_retries=4,
        ))
        assert report.scenario.guard_visible
        assert report.accounted
        assert report.wrong == 0
        assert report.injected > 0, "the armed plan never injected"
        assert report.detections > 0, "no upset was ever detected"
        # The row is flat JSON scalars, ready for the bench summary.
        row = report.to_row()
        assert all(
            value is None or isinstance(value, (bool, int, float, str))
            for value in row.values()
        )

    def test_summary_mentions_every_bucket(self):
        report = run_soak(ChaosScenario(
            name="tiny", requests=12, rate_rps=4000.0, workers=1,
            mitigation="detect",
        ))
        text = report.summary()
        for word in ("correct", "corrected", "wrong", "shed", "loud"):
            assert word in text


class TestSweeps:
    def test_quick_sweep_shape(self):
        scenarios = default_sweep("quick")
        names = [s.name for s in scenarios]
        assert "unmitigated" in names and "clean-control" in names
        fault_cells = [s for s in scenarios if s.fault_rate > 0]
        assert fault_cells, "a chaos sweep needs armed cells"
        for scenario in fault_cells:
            assert scenario.guard_visible, (
                f"{scenario.name}: quick-profile fault cells must be "
                f"assertable"
            )

    def test_soak_sweep_includes_coverage_cells(self):
        scenarios = default_sweep("soak")
        sites = {s.site for s in scenarios}
        assert DIVIDER_PIPE in sites
        assert any(
            not s.guard_visible and s.fault_rate > 0 for s in scenarios
        )

    def test_unknown_profile_is_loud(self):
        with pytest.raises(ConfigError):
            default_sweep("leisurely")
