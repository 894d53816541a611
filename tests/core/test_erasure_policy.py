"""End-to-end tests of the erasure-coded k-of-N redundancy-scheme family."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.evaluation import analytical_result, evaluate
from repro.core.montecarlo import MonteCarloConfig, run_monte_carlo
from repro.core.montecarlo.batch import run_stacked
from repro.core.montecarlo.parallel import replay_stacked_point
from repro.core.parameters import paper_parameters
from repro.core.policies import (
    MONTHLY_CHECK_HOURS,
    RedundancyScheme,
    erasure_policy,
    get_policy,
    hot_spare_policy,
    parse_scheme,
)
from repro.exceptions import ConfigurationError
from repro.experiments.cross_validation import run_cross_validation
from repro.simulation.rng import RandomStreams
from repro.storage.raid import RaidGeometry
from tests.oracles import scalar_loop

HORIZON = 87_600.0  # ten years, the paper's mission time


def erasure_params(k, n, rate=1e-3, hep=0.1):
    return paper_parameters(
        geometry=RaidGeometry.erasure(k, n), disk_failure_rate=rate, hep=hep
    )


class TestParseScheme:
    def test_two_part_spec_repairs_any_missing_share(self):
        scheme = parse_scheme("3:10")
        assert (scheme.k, scheme.n_shares, scheme.repair_threshold) == (3, 10, 10)
        assert scheme.check_period_hours == MONTHLY_CHECK_HOURS
        assert scheme.is_periodic

    def test_three_part_spec_pins_the_threshold(self):
        scheme = parse_scheme("3:10:7")
        assert scheme.repair_threshold == 7

    def test_custom_check_period(self):
        scheme = parse_scheme("2:5", check_period_hours=24.0)
        assert scheme.check_period_hours == 24.0

    @pytest.mark.parametrize(
        "spec", ["3", "3:10:7:2", "a:b", "0:10", "3:2", "3:10:2", "11:10"]
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_scheme(spec)

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_scheme("3:10", check_period_hours=0.0)


class TestRedundancySchemeResolve:
    def test_unpinned_scheme_derives_from_geometry(self):
        resolved = RedundancyScheme(check_period_hours=730.0).resolve(
            erasure_params(3, 10)
        )
        assert (resolved.n_shares, resolved.k, resolved.repair_threshold) == (10, 3, 10)
        assert resolved.check_period_hours == 730.0
        assert resolved.is_periodic

    def test_continuous_scheme_resolves_without_period(self):
        resolved = RedundancyScheme().resolve(paper_parameters(hep=0.01))
        assert not resolved.is_periodic
        assert resolved.check_period_hours is None

    def test_pinned_share_count_must_match_geometry(self):
        scheme = RedundancyScheme(n_shares=5, k=2, check_period_hours=730.0)
        with pytest.raises(ConfigurationError):
            scheme.resolve(erasure_params(3, 10))

    def test_invalid_ordering_rejected(self):
        params = erasure_params(3, 10)
        with pytest.raises(ConfigurationError):
            RedundancyScheme(k=0, check_period_hours=730.0).resolve(params)
        with pytest.raises(ConfigurationError):
            RedundancyScheme(repair_threshold=2, check_period_hours=730.0).resolve(
                params
            )
        with pytest.raises(ConfigurationError):
            RedundancyScheme(check_period_hours=-1.0).resolve(params)


class TestLegacyPoliciesCarrySchemes:
    """The four legacy policies are re-expressed over RedundancyScheme."""

    LEGACY = ("baseline", "conventional", "automatic_failover", "hot_spare_pool")

    @pytest.mark.parametrize("name", LEGACY)
    def test_scheme_present_and_continuous(self, name):
        policy = get_policy(name)
        assert policy.scheme is not None
        assert not policy.scheme.is_periodic
        assert not policy.has_periodic_checks

    @pytest.mark.parametrize("name", LEGACY)
    def test_scheme_metadata_is_bit_identical_to_schemeless_run(self, name):
        # The continuous schemes are descriptive: stripping them must not
        # change a single drawn lifetime.
        params = paper_parameters(disk_failure_rate=1e-4, hep=0.05)
        policy = get_policy(name)

        def run(p):
            return run_monte_carlo(
                MonteCarloConfig(
                    params=params, policy=p, n_iterations=400,
                    horizon_hours=HORIZON, seed=7,
                )
            )

        with_scheme = run(policy)
        without_scheme = run(replace(policy, scheme=None))
        assert with_scheme.availability == without_scheme.availability
        assert with_scheme.totals == without_scheme.totals

    def test_policies_differing_only_in_scheme_are_unequal(self):
        policy = get_policy("conventional")
        assert replace(policy, scheme=None) != policy


class TestErasurePolicyConstruction:
    def test_pinned_policy_exposes_all_three_faces(self):
        policy = erasure_policy(3, 10, repair_threshold=7)
        assert policy.name == "erasure_3of10"
        assert policy.has_batch_kernel
        assert policy.has_analytical_model
        assert policy.supports_stacked and policy.can_stack
        assert policy.has_periodic_checks
        resolved = policy.scheme.resolve(erasure_params(3, 10))
        assert (resolved.k, resolved.n_shares, resolved.repair_threshold) == (3, 10, 7)

    def test_registered_policy_derives_scheme_from_geometry(self):
        policy = get_policy("erasure")
        assert policy.has_periodic_checks
        resolved = policy.scheme.resolve(erasure_params(4, 6))
        assert (resolved.k, resolved.n_shares, resolved.repair_threshold) == (4, 6, 6)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            erasure_policy(0, 10)
        with pytest.raises(ConfigurationError):
            erasure_policy(3, 10, repair_threshold=2)
        with pytest.raises(ConfigurationError):
            erasure_policy(3, 10, check_period_hours=0.0)

    def test_pinned_policy_rejects_mismatched_geometry(self):
        policy = erasure_policy(3, 10)
        with pytest.raises(ConfigurationError):
            evaluate(
                paper_parameters(disk_failure_rate=1e-3), policy,
                backend="monte_carlo", n_iterations=10, seed=0,
            )

    def test_hot_spare_pool_cannot_stack_schemes(self):
        # Only the erasure family reads per-row scheme planes.
        assert not hot_spare_policy(3).has_periodic_checks


class TestErasureBothFaces:
    """Analytical checker-cycle solver vs the Monte Carlo kernels."""

    SMOKE_GRID = [(2, 5, 4), (3, 10, 7), (4, 6, 6)]

    @pytest.mark.parametrize("k,n,threshold", SMOKE_GRID)
    def test_analytical_within_mc_interval(self, k, n, threshold):
        params = erasure_params(k, n, rate=1e-3, hep=0.1)
        policy = erasure_policy(k, n, repair_threshold=threshold)
        analytical = evaluate(params, policy, backend="analytical")
        mc = evaluate(
            params, policy, backend="monte_carlo",
            n_iterations=3000, seed=0, confidence=0.99,
        )
        assert mc.has_interval
        assert mc.contains(analytical.availability), (
            f"{k}-of-{n} (R={threshold}): analytical {analytical.availability} "
            f"outside [{mc.ci_lower}, {mc.ci_upper}]"
        )

    def test_scalar_and_batch_kernels_statistically_agree(self):
        params = erasure_params(3, 10, rate=1e-3, hep=0.1)
        policy = erasure_policy(3, 10, repair_threshold=7)
        scalar = evaluate(
            params, scalar_loop(policy), backend="monte_carlo",
            n_iterations=800, seed=11,
        )
        batch = evaluate(
            params, policy, backend="monte_carlo", n_iterations=800, seed=12,
        )
        assert abs(scalar.availability - batch.availability) <= (
            scalar.half_width + batch.half_width
        )

    def test_crossval_passes_for_erasure_at_event_rich_point(self):
        rows = run_cross_validation(
            params=erasure_params(3, 10, rate=1e-3, hep=0.1),
            policies=["erasure"],
            mc_iterations=3000,
            seed=0,
        )
        assert [row.policy for row in rows] == ["erasure"]
        assert rows[0].within_ci

    def test_default_crossval_set_excludes_periodic_policies(self):
        rows = run_cross_validation(mc_iterations=200, seed=0)
        assert "erasure" not in {row.policy for row in rows}


class TestStackedMixedGeometry:
    """One stacked kernel invocation covering heterogeneous k-of-N layouts."""

    def _configs(self, workers=1, pool="process"):
        grid = [
            (erasure_params(3, 10, rate=1e-4, hep=0.1)),
            (erasure_params(2, 5, rate=2e-4, hep=0.1)),
            (erasure_params(4, 6, rate=1e-4, hep=0.1)),
        ]
        return [
            MonteCarloConfig(
                params=params, policy="erasure", n_iterations=500,
                horizon_hours=HORIZON, seed=42, workers=workers, pool=pool,
            )
            for params in grid
        ]

    def test_mixed_geometries_in_one_grid(self):
        results = run_stacked(self._configs())
        availabilities = [r.availability for r in results]
        # 3-of-10 tolerates seven losses per month: no outage at this rate.
        assert availabilities[0] == 1.0
        assert 0.99 < availabilities[2] < availabilities[1] < 1.0
        for result in results:
            assert result.n_iterations == 500

    def test_worker_count_and_transport_do_not_change_the_draws(self):
        baseline = [r.availability for r in run_stacked(self._configs())]
        # A process pool rebuilds rows from pickled scalars, a thread pool
        # slices the in-process grid.
        for workers, pool in ((2, "process"), (2, "thread")):
            got = [
                r.availability
                for r in run_stacked(self._configs(workers=workers, pool=pool))
            ]
            assert got == baseline, f"workers={workers} pool={pool}"

    def test_replay_reproduces_one_point_bit_for_bit(self):
        configs = self._configs()
        grid = run_stacked(configs)
        replayed = replay_stacked_point(configs, 1)
        assert replayed.availability == grid[1].availability
        assert replayed.totals == grid[1].totals

    def test_stacked_matches_per_point_runs_statistically(self):
        configs = self._configs()
        stacked = run_stacked(configs)
        for config, point in zip(configs, stacked):
            alone = run_monte_carlo(config)
            # Different stream layouts, same distribution: the intervals of
            # the two estimates must overlap.
            assert abs(alone.availability - point.availability) <= (
                alone.interval.half_width + point.interval.half_width + 1e-12
            )


class TestMixedSchemePlanes:
    def test_one_batch_call_mixes_check_periods(self):
        # Same geometry and rates, three different scrub cadences, one
        # kernel invocation: availability must fall as checks get rarer.
        from repro.core.policies.stacked import stack_parameter_points
        from repro.core.policies.vectorized import batch_erasure

        params = erasure_params(3, 10, rate=1e-3, hep=0.1)
        periods = (24.0, 730.0, 8760.0)
        schemes = [
            RedundancyScheme(
                n_shares=10, k=3, repair_threshold=7, check_period_hours=period
            )
            for period in periods
        ]
        iterations = 400
        stacked = stack_parameter_points(
            [params] * len(schemes), [iterations] * len(schemes), schemes=schemes
        )
        rng = RandomStreams(5).stream("montecarlo")
        batch = batch_erasure(stacked, HORIZON, len(schemes) * iterations, rng)
        means = [
            float(np.mean(segment))
            for segment in np.split(batch.availabilities(), len(schemes))
        ]
        assert means[0] > means[1] > means[2]
