"""EXP-F1 / engine benchmarks — Monte Carlo executors and Markov solver throughput.

These are not figures from the paper but the performance substrate behind
them: how fast the Monte Carlo studies run (which bounds how close to the
paper's 1e6-iteration setting a given time budget allows) and how fast the
Markov chains solve (which bounds the analytical sweeps).

Since the policy-registry refactor the Monte Carlo runner has two execution
paths — the scalar per-lifetime event loop (the seed implementation, kept as
the traced/debug path and run by policies without a batch kernel) and the
vectorised struct-of-arrays batch executor.  The ``*_scalar`` / ``*_batch``
pairs below time both at identical iteration counts, the scalar side on a
batch-less copy of the policy; the 10k-lifetime comparison is the
acceptance benchmark for the batch kernel.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

from repro.core.evaluation import analytical_result
from repro.core.montecarlo import MonteCarloConfig, run_monte_carlo
from repro.core.montecarlo.trace import generate_example_trace, summarise_trace
from repro.core.parameters import paper_parameters
from repro.human.policy import PolicyKind
from tests.oracles import scalar_loop


def _bench_config(policy, n_iterations: int, seed: int) -> MonteCarloConfig:
    return MonteCarloConfig(
        params=paper_parameters(disk_failure_rate=2.5e-6, hep=0.01),
        policy=policy,
        n_iterations=n_iterations,
        horizon_hours=87_600.0,
        seed=seed,
    )


def test_monte_carlo_conventional_throughput(benchmark, bench_seed):
    """Time a 2000-lifetime conventional-policy study (auto = batch path)."""
    config = _bench_config(PolicyKind.CONVENTIONAL, 2000, bench_seed)
    result = benchmark.pedantic(run_monte_carlo, args=(config,), iterations=1, rounds=3)
    print()
    print(f"conventional MC: availability={result.availability:.10f} nines={result.nines:.2f}")
    assert 0.0 < result.availability <= 1.0


def test_monte_carlo_conventional_scalar_throughput(benchmark, bench_seed):
    """Time the same 2000-lifetime study on the scalar (seed) path."""
    config = _bench_config(scalar_loop(PolicyKind.CONVENTIONAL), 2000, bench_seed)
    result = benchmark.pedantic(run_monte_carlo, args=(config,), iterations=1, rounds=3)
    print()
    print(f"conventional MC (scalar): availability={result.availability:.10f}")
    assert 0.0 < result.availability <= 1.0


def test_monte_carlo_failover_throughput(benchmark, bench_seed):
    """Time a 2000-lifetime automatic-fail-over study (auto = batch path)."""
    config = _bench_config(PolicyKind.AUTOMATIC_FAILOVER, 2000, bench_seed)
    result = benchmark.pedantic(run_monte_carlo, args=(config,), iterations=1, rounds=3)
    print()
    print(f"fail-over MC: availability={result.availability:.10f} nines={result.nines:.2f}")
    assert 0.0 < result.availability <= 1.0


def test_monte_carlo_failover_scalar_throughput(benchmark, bench_seed):
    """Time the same 2000-lifetime fail-over study on the scalar path."""
    config = _bench_config(scalar_loop(PolicyKind.AUTOMATIC_FAILOVER), 2000, bench_seed)
    result = benchmark.pedantic(run_monte_carlo, args=(config,), iterations=1, rounds=3)
    print()
    print(f"fail-over MC (scalar): availability={result.availability:.10f}")
    assert 0.0 < result.availability <= 1.0


def test_monte_carlo_hot_spare_batch_throughput(benchmark, bench_seed):
    """Time a 2000-lifetime hot-spare-pool study through the registry."""
    config = _bench_config("hot_spare_pool", 2000, bench_seed)
    result = benchmark.pedantic(run_monte_carlo, args=(config,), iterations=1, rounds=3)
    print()
    print(f"hot-spare MC: availability={result.availability:.10f} nines={result.nines:.2f}")
    assert 0.0 < result.availability <= 1.0


def test_batch_beats_scalar_at_10k_iterations(benchmark, bench_seed):
    """Acceptance check: the batch kernel outruns the scalar loop at 10k lifetimes."""
    config = _bench_config(PolicyKind.CONVENTIONAL, 10_000, bench_seed)

    start = time.perf_counter()
    scalar = run_monte_carlo(replace(config, policy=scalar_loop(config.policy)))
    scalar_seconds = time.perf_counter() - start

    batch = benchmark.pedantic(run_monte_carlo, args=(config,), iterations=1, rounds=3)
    # Best-of-3 from the benchmark's own measurements; no extra run needed.
    batch_seconds = benchmark.stats.stats.min

    print()
    print(
        f"10k lifetimes: scalar {scalar_seconds:.2f}s vs batch {batch_seconds:.2f}s "
        f"(speedup {scalar_seconds / max(batch_seconds, 1e-9):.1f}x)"
    )
    # Same estimator, overlapping 99% confidence intervals.
    assert max(scalar.interval.lower, batch.interval.lower) <= min(
        scalar.interval.upper, batch.interval.upper
    )
    assert batch_seconds < scalar_seconds
    assert batch.n_iterations == 10_000


def test_monte_carlo_sharded_2worker_throughput(benchmark, bench_seed):
    """Time a 20k-lifetime study on the sharded executor with 2 workers.

    Runs on any machine (the two processes share cores when fewer are
    available); the estimate must agree with the single-process batch path
    at the 99 % level.
    """
    config = replace(_bench_config(PolicyKind.CONVENTIONAL, 20_000, bench_seed), workers=2)
    result = benchmark.pedantic(run_monte_carlo, args=(config,), iterations=1, rounds=3)
    batch = run_monte_carlo(replace(config, workers=1))
    print()
    print(f"sharded 2w MC: availability={result.availability:.10f} n={result.n_iterations}")
    assert batch.interval.contains(result.availability) or result.interval.contains(
        batch.availability
    )
    assert result.n_iterations == 20_000


def test_monte_carlo_adaptive_stopping_throughput(benchmark, bench_seed):
    """Time an adaptive run that tightens the interval beyond its first round."""
    config = _bench_config(PolicyKind.CONVENTIONAL, 2000, bench_seed)
    first = run_monte_carlo(replace(config, workers=1, shard_size=2000))
    target = first.interval.half_width / 2.0
    adaptive = replace(
        config, workers=1, shard_size=2000, target_half_width=target, max_iterations=200_000
    )
    result = benchmark.pedantic(run_monte_carlo, args=(adaptive,), iterations=1, rounds=3)
    print()
    print(
        f"adaptive MC: n={result.n_iterations} half_width={result.interval.half_width:.3g} "
        f"(target {target:.3g})"
    )
    assert result.interval.half_width <= target
    assert result.n_iterations > 2000


def test_parallel_beats_single_process_batch(benchmark, bench_seed):
    """Acceptance check: 4 sharded workers outrun the single-process batch path.

    Process-level parallelism only pays where there are cores to run on, so
    the ≥ 2x assertion is gated on a 4-core machine; smaller machines still
    run the workload (as a timing record) without the speed-up assertion.
    """
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"needs >= 4 cores for the 2x assertion, have {cores}")
    config = MonteCarloConfig(
        params=paper_parameters(disk_failure_rate=1e-4, hep=0.01),
        policy=PolicyKind.CONVENTIONAL,
        n_iterations=400_000,
        horizon_hours=87_600.0,
        seed=bench_seed,
    )

    # Same min-of-3 protocol as the benchmarked parallel side, so a
    # transient stall of one single-process run cannot fake a speed-up.
    single_timings = []
    for _ in range(3):
        start = time.perf_counter()
        single = run_monte_carlo(config)
        single_timings.append(time.perf_counter() - start)
    single_seconds = min(single_timings)

    parallel_config = replace(config, workers=4, shard_size=25_000)
    parallel = benchmark.pedantic(
        run_monte_carlo, args=(parallel_config,), iterations=1, rounds=3
    )
    parallel_seconds = benchmark.stats.stats.min

    print()
    print(
        f"400k lifetimes: single-process {single_seconds:.2f}s vs 4 workers "
        f"{parallel_seconds:.2f}s (speedup {single_seconds / max(parallel_seconds, 1e-9):.1f}x)"
    )
    assert single.interval.contains(parallel.availability) or parallel.interval.contains(
        single.availability
    )
    assert parallel_seconds * 2.0 < single_seconds
    assert parallel.n_iterations == 400_000


def test_markov_solver_throughput(benchmark):
    """Time solving both analytical models back to back (one sweep point)."""

    def solve_both():
        params = paper_parameters(disk_failure_rate=1e-6, hep=0.01)
        return (
            analytical_result(params, "conventional").availability,
            analytical_result(params, "automatic_failover").availability,
        )

    conventional, failover = benchmark(solve_both)
    assert failover >= conventional


def test_fig1_event_trace_generation(benchmark):
    """Time generating the Fig. 1 style single-run event trace."""
    trace = benchmark.pedantic(generate_example_trace, kwargs={"seed": 7}, iterations=1, rounds=3)
    summary = summarise_trace(trace)
    print()
    print(f"example trace events: {summary}")
    assert summary["disk_failures"] >= 1
