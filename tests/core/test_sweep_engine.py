"""Tests for the generic sweep engine against the per-point rebuild path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import clear_template_cache
from repro.core.parameters import paper_parameters
from repro.core.sweep import (
    SWEEP_AXES,
    sweep,
    sweep_hep,
    sweep_policies,
)
from repro.exceptions import ConfigurationError
from tests.oracles import per_point, sweep_per_point_rebuild

#: Fig. 4's failure-rate grid (positive part) and Fig. 5's hep grid.
FIG4_RATES = [float(r) for r in np.linspace(5e-7, 5.5e-6, 11)]
FIG5_HEPS = [0.0, 0.001, 0.01]

FAST_PARAMS = paper_parameters(disk_failure_rate=1e-4, hep=0.05)


def assert_series_match(engine_points, rebuild_points, tol=1e-12):
    assert len(engine_points) == len(rebuild_points)
    for got, want in zip(engine_points, rebuild_points):
        assert got.x == want.x
        assert got.availability == pytest.approx(want.availability, abs=tol)
        assert got.unavailability == pytest.approx(want.unavailability, abs=tol)


class TestTemplateSweepMatchesRebuild:
    """Acceptance: template sweep == per-point rebuild to 1e-12 on Fig. 4/5 grids."""

    @pytest.mark.parametrize("policy", ["baseline", "conventional", "automatic_failover"])
    @pytest.mark.parametrize("hep", [0.001, 0.01])
    def test_fig4_failure_rate_series(self, policy, hep):
        base = paper_parameters(hep=hep)
        engine = sweep(base, "failure_rate", FIG4_RATES, policy, backend="auto")
        rebuild = sweep_per_point_rebuild(base, "failure_rate", FIG4_RATES, policy)
        assert_series_match(engine, rebuild)

    @pytest.mark.parametrize("policy", ["conventional", "automatic_failover"])
    @pytest.mark.parametrize("rate", [1.25e-6, 2.17e-6, 7.96e-6, 2e-5])
    def test_fig5_hep_series(self, policy, rate):
        base = paper_parameters(disk_failure_rate=rate, hep=0.0)
        engine = sweep(base, "hep", FIG5_HEPS, policy, backend="auto")
        rebuild = sweep_per_point_rebuild(base, "hep", FIG5_HEPS, policy)
        assert_series_match(engine, rebuild)

    def test_cold_cache_equivalence(self):
        clear_template_cache()
        base = paper_parameters(hep=0.01)
        engine = sweep(base, "failure_rate", FIG4_RATES, "conventional")
        rebuild = sweep_per_point_rebuild(base, "failure_rate", FIG4_RATES, "conventional")
        assert_series_match(engine, rebuild)

    @pytest.mark.parametrize(
        "axis", ["disk_repair_rate", "ddf_recovery_rate", "human_error_rate", "crash_rate"]
    )
    def test_generic_axes(self, axis):
        base = paper_parameters(hep=0.01)
        values = [0.01, 0.1, 1.0]
        engine = sweep(base, axis, values, "conventional")
        rebuild = sweep_per_point_rebuild(base, axis, values, "conventional")
        assert_series_match(engine, rebuild)

    def test_crash_rate_zero_switches_structure(self):
        # crash_rate = 0 drops the DU -> DL edge; the engine must evaluate it
        # on the reduced template, exactly like a fresh build does.
        base = paper_parameters(hep=0.01)
        values = [0.0, 0.005, 0.01]
        engine = sweep(base, "crash_rate", values, "conventional")
        rebuild = sweep_per_point_rebuild(base, "crash_rate", values, "conventional")
        assert_series_match(engine, rebuild)

    def test_interleaved_hep_zero_points(self):
        base = paper_parameters(hep=0.0)
        values = [0.01, 0.0, 0.001, 0.0, 0.01]
        engine = sweep(base, "hep", values, "conventional")
        rebuild = sweep_per_point_rebuild(base, "hep", values, "conventional")
        assert_series_match(engine, rebuild)


class TestSweepBehaviour:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(paper_parameters(), "warp_factor", [0.1], "conventional")

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(paper_parameters(), "hep", [], "conventional")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(paper_parameters(), "hep", [0.01], "conventional", backend="psychic")

    def test_axis_aliases(self):
        base = paper_parameters(hep=0.01)
        assert SWEEP_AXES["failure_rate"] == "disk_failure_rate"
        a = sweep(base, "failure_rate", [1e-6], "conventional")
        b = sweep(base, "disk_failure_rate", [1e-6], "conventional")
        assert a[0].availability == b[0].availability

    def test_monte_carlo_backend_attaches_intervals(self):
        points = sweep(
            FAST_PARAMS, "hep", [0.01, 0.05], "conventional",
            backend="monte_carlo", mc_iterations=500, seed=2,
        )
        for point in points:
            assert point.has_interval
            assert point.ci_lower <= point.availability <= point.ci_upper
            assert {"ci_lower", "ci_upper"} <= set(point.as_dict())

    def test_auto_backend_uses_monte_carlo_for_chainless_policy(self):
        from repro.core.policies import hot_spare_policy

        points = sweep(
            FAST_PARAMS, "hep", [0.05], hot_spare_policy(2),
            backend="auto", mc_iterations=400, seed=2,
        )
        assert points[0].has_interval

    def test_analytical_points_keep_legacy_dict_shape(self):
        point = sweep_hep(paper_parameters(), [0.01])[0]
        assert set(point.as_dict()) == {"x", "availability", "unavailability", "nines"}

    def test_sweep_policies_accepts_custom_policy_instances(self):
        from repro.core.policies import get_policy

        series = sweep_policies(
            paper_parameters(), [0.001, 0.01],
            models=[get_policy("conventional"), "automatic_failover"],
        )
        assert set(series) == {"conventional", "automatic_failover"}

    def test_per_point_mc_sweep_matches_single_study(self):
        # The per-point path of a policy that cannot stack keeps the
        # pre-stacked guarantee: a one-point sweep is bitwise the same run
        # as a single study.
        from repro.core.evaluation import evaluate

        points = sweep(
            FAST_PARAMS, "hep", [0.05], per_point("conventional"),
            backend="monte_carlo", mc_iterations=600, seed=9,
        )
        single = evaluate(
            FAST_PARAMS.with_hep(0.05), "conventional", backend="monte_carlo",
            n_iterations=600, seed=9,
        )
        assert points[0].availability == single.availability
        assert points[0].ci_lower == single.ci_lower

    def test_stacked_mc_sweep_agrees_with_single_study(self):
        # The stacked default lays its streams out per shard (spawn index
        # 0, 1, ...), so it matches a single study at the statistical level:
        # the 99 % intervals of the two estimates of the same scenario must
        # overlap.
        from repro.core.evaluation import evaluate

        points = sweep(
            FAST_PARAMS, "hep", [0.05], "conventional",
            backend="monte_carlo", mc_iterations=600, seed=9,
        )
        single = evaluate(
            FAST_PARAMS.with_hep(0.05), "conventional", backend="monte_carlo",
            n_iterations=600, seed=9,
        )
        assert points[0].has_interval
        low = max(points[0].ci_lower, single.ci_lower)
        high = min(points[0].ci_upper, single.ci_upper)
        assert low <= high
