"""Unit tests for chain validation and availability metrics."""

from __future__ import annotations

import pytest

from repro.exceptions import MarkovChainError
from repro.markov import (
    ChainBuilder,
    MarkovChain,
    State,
    Transition,
    check_reachability,
    compare_availability,
    expected_visits_per_year,
    find_absorbing_states,
    is_irreducible,
    mean_time_to_failure,
    state_occupancy_report,
    steady_state_availability,
    validate_chain,
)


def availability_chain(failure=0.01, repair=1.0) -> MarkovChain:
    return MarkovChain(
        [State("UP"), State("DOWN", up=False)],
        [Transition("UP", "DOWN", failure), Transition("DOWN", "UP", repair)],
    )


class TestValidation:
    def test_valid_chain_passes(self):
        report = validate_chain(availability_chain())
        assert report.ok and not report.errors

    def test_unreachable_state_detected(self):
        chain = MarkovChain(
            [State("A"), State("B"), State("C", up=False)],
            [Transition("A", "B", 1.0), Transition("B", "A", 1.0), Transition("C", "A", 1.0)],
        )
        with pytest.raises(MarkovChainError, match=r"states unreachable from 'A': \['C'\]"):
            validate_chain(chain)
        report = validate_chain(chain, raise_on_error=False)
        assert not report.ok and any("unreachable" in e for e in report.errors)

    def test_absorbing_state_detected(self):
        chain = MarkovChain(
            [State("A"), State("B", up=False)], [Transition("A", "B", 1.0)]
        )
        report = validate_chain(chain, raise_on_error=False)
        assert not report.ok
        relaxed = validate_chain(chain, allow_absorbing=True, raise_on_error=False)
        assert relaxed.ok and relaxed.warnings

    def test_reachability_helper(self):
        chain = availability_chain()
        reachable, unreachable = check_reachability(chain)
        assert reachable == {"UP", "DOWN"} and not unreachable

    def test_absorbing_helper(self):
        chain = MarkovChain([State("A"), State("B", up=False)], [Transition("A", "B", 1.0)])
        assert find_absorbing_states(chain) == ["B"]

    def test_irreducibility(self):
        assert is_irreducible(availability_chain())
        chain = MarkovChain([State("A"), State("B", up=False)], [Transition("A", "B", 1.0)])
        assert not is_irreducible(chain)

    def test_builder_validates_on_build(self):
        builder = ChainBuilder()
        builder.add_up_state("A").add_down_state("B")
        builder.add_transition("A", "B", 1.0)
        with pytest.raises(MarkovChainError, match=r"absorbing states present: \['B'\]"):
            builder.build(validate=True)
        chain = builder.build(validate=False)
        assert chain.n_states == 2


class TestAvailabilityMetrics:
    def test_two_state_availability(self):
        failure, repair = 0.01, 1.0
        result = steady_state_availability(availability_chain(failure, repair))
        expected = repair / (failure + repair)
        assert result.availability == pytest.approx(expected, rel=1e-9)
        assert result.unavailability == pytest.approx(1 - expected, rel=1e-6)
        assert result.nines == pytest.approx(-1 * __import__("math").log10(1 - expected), rel=1e-6)
        assert result.downtime_hours_per_year == pytest.approx((1 - expected) * 8760.0, rel=1e-6)

    def test_custom_up_states_override(self):
        chain = availability_chain()
        result = steady_state_availability(chain, up_states=["UP", "DOWN"])
        assert result.availability == pytest.approx(1.0)

    def test_probability_accessor(self):
        result = steady_state_availability(availability_chain())
        assert result.probability_of("UP") > 0.9
        with pytest.raises(MarkovChainError):
            result.probability_of("MISSING")

    def test_as_dict_keys(self):
        payload = steady_state_availability(availability_chain()).as_dict()
        assert {"availability", "nines", "state_probabilities"} <= set(payload)

    def test_mean_time_to_failure_two_state(self):
        result = mean_time_to_failure(availability_chain(failure=0.01), ["DOWN"], "UP")
        assert result == pytest.approx(100.0)

    def test_mean_time_to_failure_requires_states(self):
        chain = MarkovChain([State("A"), State("B")], [Transition("A", "B", 1.0), Transition("B", "A", 1.0)])
        with pytest.raises(MarkovChainError):
            mean_time_to_failure(chain)

    def test_expected_visits_per_year(self):
        failure = 0.01
        chain = availability_chain(failure=failure, repair=1.0)
        visits = expected_visits_per_year(chain, "DOWN")
        availability = 1.0 / (1.0 + failure)
        assert visits == pytest.approx(availability * failure * 8760.0, rel=1e-6)

    def test_state_occupancy_report(self):
        report = state_occupancy_report(availability_chain())
        assert set(report) == {"UP", "DOWN"}
        assert sum(entry["probability"] for entry in report.values()) == pytest.approx(1.0)

    def test_compare_availability_ratio(self):
        base = steady_state_availability(availability_chain(failure=0.001))
        worse = steady_state_availability(availability_chain(failure=0.01))
        comparison = compare_availability(base, worse)
        assert comparison["unavailability_ratio"] == pytest.approx(
            worse.unavailability / base.unavailability, rel=1e-9
        )
        assert comparison["nines_delta"] < 0.0


class TestSharedStationaryVector:
    """Satellite: one steady-state solve serves every metric via ``pi``."""

    def test_precomputed_pi_matches_internal_solve(self):
        from repro.markov import solve_steady_state

        chain = availability_chain(failure=0.02, repair=0.5)
        pi = solve_steady_state(chain)
        shared = steady_state_availability(chain, pi=pi)
        fresh = steady_state_availability(chain)
        assert shared.availability == fresh.availability
        assert shared.state_probabilities == fresh.state_probabilities
        assert expected_visits_per_year(chain, "DOWN", pi=pi) == expected_visits_per_year(
            chain, "DOWN"
        )
        assert state_occupancy_report(chain, pi=pi) == state_occupancy_report(chain)

    def test_pi_argument_skips_the_solver(self, monkeypatch):
        import repro.markov.metrics as metrics_module

        chain = availability_chain()
        pi = metrics_module.solve_steady_state(chain)
        calls = {"n": 0}

        def counting_solve(*args, **kwargs):
            calls["n"] += 1
            return pi

        monkeypatch.setattr(metrics_module, "solve_steady_state", counting_solve)
        steady_state_availability(chain, pi=pi)
        expected_visits_per_year(chain, "DOWN", pi=pi)
        state_occupancy_report(chain, pi=pi)
        assert calls["n"] == 0
        steady_state_availability(chain)
        assert calls["n"] == 1

    def test_availability_result_from_pi_direct(self):
        from repro.markov import availability_result_from_pi

        chain = availability_chain(failure=0.1, repair=1.0)
        pi = {"UP": 1.0 / 1.1, "DOWN": 0.1 / 1.1}
        result = availability_result_from_pi(pi, chain.state_names, ("UP",))
        assert result.availability == pytest.approx(1.0 / 1.1)
        assert result.down_states == ("DOWN",)
