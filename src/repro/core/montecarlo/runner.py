"""Monte Carlo runner: policy-registry dispatch over two execution paths.

Runs many independent simulated lifetimes (as configured by
:class:`~repro.core.montecarlo.config.MonteCarloConfig`), averages their
availability and attaches a Student-t confidence interval — the estimator
described in the paper's Section III, where the interval width shrinks with
the square root of the iteration count.

The replacement policy is resolved by name through
:mod:`repro.core.policies.registry`; execution happens on one of three
paths:

* the **sharded** path (whenever ``workers > 1``, ``shard_size`` or
  ``target_half_width`` is configured) splits the budget into per-worker
  shards and merges streaming summaries via
  :mod:`repro.core.montecarlo.parallel`,
* the **batch** path (whenever the policy ships a vectorised kernel and no
  event trace was requested) runs all lifetimes as struct-of-arrays numpy
  batches via :mod:`repro.core.montecarlo.batch`, and
* the **scalar** path walks one Python event loop per lifetime — slower,
  but able to record the paper's Fig. 1 style episode traces, which can be
  replayed on the discrete-event engine through
  :mod:`repro.core.montecarlo.engine_bridge`.  Policies without a batch
  kernel run here too.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from repro.core.montecarlo.batch import run_batch
from repro.core.montecarlo.parallel import run_sharded
from repro.core.montecarlo.config import (
    MonteCarloConfig,
    PolicyRef,
    config_from_options,
)
from repro.core.montecarlo.results import (
    EpisodeTrace,
    IterationResult,
    MonteCarloResult,
    merge_iteration_counters,
)
from repro.core.parameters import AvailabilityParameters
from repro.core.policies.registry import resolve_policy
from repro.exceptions import ConfigurationError
from repro.human.policy import PolicyKind
from repro.simulation.confidence import confidence_interval
from repro.simulation.rng import RandomStreams


def _use_batch_path(config: MonteCarloConfig) -> bool:
    """Return whether ``config`` runs on the batch path.

    Traces only exist on the scalar path, and policies without a batch
    kernel have nothing else.
    """
    return not config.collect_trace and resolve_policy(config.policy).has_batch_kernel


def run_iterations(
    config: MonteCarloConfig,
    streams: Optional[RandomStreams] = None,
) -> Tuple[List[IterationResult], Optional[EpisodeTrace]]:
    """Run all configured iterations on the scalar path, raw results.

    The first iteration optionally records an event trace (Fig. 1 style).
    ``streams`` lets a caller supply an externally seeded stream family;
    ``None`` builds one from ``config.seed``.
    """
    policy = resolve_policy(config.policy)
    if streams is None:
        streams = RandomStreams(config.seed)
    rng = streams.stream("montecarlo")
    iterations: List[IterationResult] = []
    trace: Optional[EpisodeTrace] = EpisodeTrace() if config.collect_trace else None
    for index in range(config.n_iterations):
        iteration_trace = trace if (index == 0 and trace is not None) else None
        iterations.append(
            policy.simulate(config.params, config.horizon_hours, rng, trace=iteration_trace)
        )
    return iterations, trace


def run_monte_carlo(config: MonteCarloConfig, pool=None) -> MonteCarloResult:
    """Run the configured study and return the aggregated result.

    Dispatches to the sharded parallel executor (``workers``,
    ``shard_size`` or ``target_half_width`` configured), the vectorised
    batch executor, or the scalar loop (event traces, policies without a
    batch kernel).  ``pool`` optionally shares an
    externally owned executor across sharded studies (see
    :func:`repro.core.montecarlo.parallel.worker_pool`); it is ignored on
    the single-process paths.
    """
    if config.uses_sharded_path:
        return run_sharded(config, pool=pool)
    if config.journal_path is not None:
        raise ConfigurationError(
            "checkpoint/resume journals record *shard* summaries and need "
            "the sharded executor; set workers, shard_size or "
            "target_half_width"
        )
    if _use_batch_path(config):
        return run_batch(config)
    if config.biasing is not None:
        # The config validator already rejects biasing with a trace; this
        # catches a policy without a batch kernel.
        raise ConfigurationError(
            "failure biasing requires the vectorised batch kernels; policy "
            f"{resolve_policy(config.policy).name!r} has no batch kernel and "
            "resolved to the scalar path"
        )
    if config.kernel in ("compiled", "fused"):
        # Same shape as the biasing guard: a policy without a batch kernel
        # runs the scalar loop, where neither compiled row searches nor
        # fused event loops ever run.  kernel="auto" degrades to the scalar
        # path silently instead.
        raise ConfigurationError(
            f"kernel={config.kernel!r} accelerates the vectorised batch "
            f"kernels; policy {resolve_policy(config.policy).name!r} has no "
            "batch kernel and resolved to the scalar path"
        )
    streams = RandomStreams(config.seed)
    iterations, _ = run_iterations(config, streams=streams)
    return summarise_iterations(iterations, config, seed_entropy=streams.seed_entropy)


def run_monte_carlo_with_trace(
    config: MonteCarloConfig,
) -> Tuple[MonteCarloResult, EpisodeTrace]:
    """Run the study on the scalar path and also return the first trace."""
    traced_config = config if config.collect_trace else replace(config, collect_trace=True)
    streams = RandomStreams(traced_config.seed)
    iterations, trace = run_iterations(traced_config, streams=streams)
    assert trace is not None  # collect_trace was forced on above
    result = summarise_iterations(
        iterations, traced_config, seed_entropy=streams.seed_entropy
    )
    return result, trace


def summarise_iterations(
    iterations: List[IterationResult],
    config: MonteCarloConfig,
    seed_entropy: Optional[int] = None,
) -> MonteCarloResult:
    """Aggregate raw iteration results into a :class:`MonteCarloResult`."""
    if len(iterations) < 2:
        raise ConfigurationError("at least two iterations are required to summarise")
    availabilities = np.array([it.availability for it in iterations], dtype=float)
    interval = confidence_interval(availabilities, confidence=config.confidence)
    return MonteCarloResult(
        availability=float(availabilities.mean()),
        interval=interval,
        n_iterations=len(iterations),
        horizon_hours=config.horizon_hours,
        totals=merge_iteration_counters(iterations),
        label=config.label(),
        seed_entropy=seed_entropy,
    )


def estimate_availability(
    params: AvailabilityParameters,
    policy: PolicyRef = PolicyKind.CONVENTIONAL,
    seed: Optional[int] = 0,
    **options,
) -> MonteCarloResult:
    """One-call convenience wrapper around :func:`run_monte_carlo`.

    ``options`` are :class:`MonteCarloConfig` fields, taken as in
    :func:`~repro.core.montecarlo.config.config_from_options`; the one
    default that differs from the config's is ``seed=0``.
    """
    return run_monte_carlo(
        config_from_options(params=params, policy=policy, seed=seed, **options)
    )
