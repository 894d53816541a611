"""Reference implementations the product paths are checked against.

None of this runs in a product call; each function is the older, simpler
algorithm a faster path must reproduce:

* :func:`batch_conventional_gathered` / :func:`batch_spare_pool_gathered`
  — the full-width kernels that gather ``clocks[active]`` every round.
  The compacted kernels of :mod:`repro.core.policies.vectorized` must
  return bit-identical batches and leave the generator in the same state.
* :func:`sweep_per_point_rebuild` — the analytical sweep that rebuilds and
  re-solves the chain per point; the template engine must match it to
  1e-12.
* :func:`scalar_loop` / :func:`per_point` — policy copies without a batch
  kernel, or without stacked-grid support.  These are the paths custom
  policies take, so they reproduce the scalar loop and the per-point sweep
  on the production code.

``benchmarks/`` imports this module too (the compaction and
template-versus-rebuild gates).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.montecarlo.config import PolicyRef
from repro.core.parameters import AvailabilityParameters
from repro.core.policies.base import BatchLifetimes, SimulationPolicy
from repro.core.policies.registry import resolve_policy
from repro.core.policies.vectorized import (
    _SparePoolState,
    _biased_failure_dist,
    _check_lifetimes,
    _clip_downtime,
    _exposed_step,
    _has_positive,
    _initial_clocks,
    _min_and_slot,
    _min_excluding,
    _per_row_or,
    _pick_other_slots,
    _recovery_race,
    _renew_failed_before,
    _renew_slots,
    _rows,
    _sample_rows,
    _spare_pool_state,
    _spare_rebuild_step,
)
from repro.core.sweep import SweepPoint, _analytical_points, _axis_field, _with_axis
from repro.exceptions import ConfigurationError
from repro.markov.metrics import steady_state_availability


# ----------------------------------------------------------------------
# Policy faces
# ----------------------------------------------------------------------
def scalar_loop(policy: PolicyRef) -> SimulationPolicy:
    """Return ``policy`` without its batch kernel: it runs the scalar loop."""
    return replace(resolve_policy(policy), batch=None)


def per_point(policy: PolicyRef) -> SimulationPolicy:
    """Return ``policy`` without stacked-grid support: sweeps go per point."""
    return replace(resolve_policy(policy), supports_stacked=False)


# ----------------------------------------------------------------------
# Full-width gathered kernels
# ----------------------------------------------------------------------
def batch_conventional_gathered(
    params, horizon_hours: float, n_lifetimes: int, rng: np.random.Generator, biasing=None
) -> BatchLifetimes:
    """The gathered twin of :func:`~repro.core.policies.vectorized.batch_conventional`."""
    m = _check_lifetimes(params, n_lifetimes)
    return _conventional_gathered(params, float(horizon_hours), m, rng, biasing)


def batch_spare_pool_gathered(
    params,
    horizon_hours: float,
    n_lifetimes: int,
    rng: np.random.Generator,
    n_spares: int = 1,
    biasing=None,
) -> BatchLifetimes:
    """The gathered twin of :func:`~repro.core.policies.vectorized.batch_spare_pool`."""
    state = _spare_pool_state(params, horizon_hours, n_lifetimes, rng, n_spares, biasing)
    return _spare_pool_gathered(state, state.now.size)


def _conventional_gathered(
    params, horizon_hours: float, m: int, rng: np.random.Generator, biasing=None
) -> BatchLifetimes:
    """The uncompacted conventional kernel (bit-identity oracle).

    Tracks active lifetimes as indices into full-width state and gathers
    ``clocks[active]`` every round — the pre-arena behaviour, retained as
    the baseline the compacted path is benchmarked and verified against.
    """
    n = params.n_disks
    n_disks = _per_row_or(params, "n_disks_rows", n)
    failure_dist, log_weights = _biased_failure_dist(params, horizon_hours, m, biasing)
    repair_dist = params.repair_distribution()
    ddf_dist = params.ddf_recovery_distribution()
    recovery_dist = params.human_error_recovery_distribution()
    hep = params.hep
    has_hep = _has_positive(hep)
    crash_rate = params.crash_rate

    batch = BatchLifetimes.zeros(m, horizon_hours)
    batch.log_weights = log_weights
    clocks = _initial_clocks(params, failure_dist, m, n, rng)
    now = np.zeros(m, dtype=float)
    active = np.arange(m)

    while active.size:
        c = clocks[active]
        slot, fail = _min_and_slot(c)
        fail = np.maximum(fail, now[active])
        alive = fail < horizon_hours
        active = active[alive]
        if active.size == 0:
            break
        c, slot, fail = c[alive], slot[alive], fail[alive]
        batch.disk_failures[active] += 1

        repair_done = fail + _sample_rows(repair_dist, active, rng)
        _, second = _min_excluding(c, slot)
        second = np.maximum(second, fail)

        # Double disk failure during the repair: data loss, backup restore.
        dl = second < repair_done
        dl_idx = active[dl]
        if dl_idx.size:
            batch.disk_failures[dl_idx] += 1
            batch.dl_events[dl_idx] += 1
            outage_end = second[dl] + _sample_rows(ddf_dist, dl_idx, rng)
            batch.downtime_hours[dl_idx] += _clip_downtime(second[dl], outage_end, horizon_hours)
            _renew_failed_before(clocks, dl_idx, outage_end, failure_dist, rng)
            now[dl_idx] = outage_end

        rest = ~dl
        if has_hep:
            he = rest & (rng.random(active.size) < _rows(hep, active))
        else:
            he = np.zeros(active.size, dtype=bool)

        # Wrong disk replacement: data unavailable until the error is undone
        # (or, when the pulled disk crashes, until the backup restore ends).
        he_idx = active[he]
        if he_idx.size:
            batch.human_errors[he_idx] += 1
            batch.du_events[he_idx] += 1
            wrong = _pick_other_slots(rng, _rows(n_disks, he_idx), slot[he])
            duration, crashed = _recovery_race(he_idx, recovery_dist, hep, crash_rate, rng)
            outage_end = repair_done[he] + duration
            cr = np.flatnonzero(crashed)
            if cr.size:
                batch.dl_events[he_idx[cr]] += 1
                outage_end[cr] += _sample_rows(ddf_dist, he_idx[cr], rng)
                _renew_slots(clocks, he_idx[cr], wrong[cr], outage_end[cr], failure_dist, rng)
            batch.downtime_hours[he_idx] += _clip_downtime(repair_done[he], outage_end, horizon_hours)
            _renew_slots(clocks, he_idx, slot[he], outage_end, failure_dist, rng)
            _renew_failed_before(clocks, he_idx, outage_end, failure_dist, rng)
            now[he_idx] = outage_end

        # Successful replacement and rebuild.
        ok = rest & ~he
        ok_idx = active[ok]
        if ok_idx.size:
            _renew_slots(clocks, ok_idx, slot[ok], repair_done[ok], failure_dist, rng)
            now[ok_idx] = repair_done[ok]

    return batch


def _spare_pool_gathered(state: _SparePoolState, m: int) -> BatchLifetimes:
    """The uncompacted spare-pool round loop (bit-identity oracle)."""
    active = np.arange(m)
    while active.size:
        c = state.clocks[active]
        slot, fail = _min_and_slot(c)
        fail = np.maximum(fail, state.now[active])
        alive = fail < state.horizon
        active = active[alive]
        if active.size == 0:
            break
        c, slot, fail = c[alive], slot[alive], fail[alive]
        state.batch.disk_failures[active] += 1

        # Lifetimes entering the exposed service this round, from any branch.
        exposed: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        has_spare = state.spares[active] > 0
        sp = np.flatnonzero(has_spare)
        if sp.size:
            _spare_rebuild_step(state, active[sp], slot[sp], fail[sp], c[sp], exposed)
        ns = np.flatnonzero(~has_spare)
        if ns.size:
            exposed.append((active[ns], slot[ns], fail[ns]))

        if exposed:
            idx = np.concatenate([part[0] for part in exposed])
            ex_slot = np.concatenate([part[1] for part in exposed])
            ex_start = np.concatenate([part[2] for part in exposed])
            _exposed_step(state, idx, ex_slot, ex_start)

    return state.batch


# ----------------------------------------------------------------------
# Per-point analytical rebuild
# ----------------------------------------------------------------------
def sweep_per_point_rebuild(
    base_params: AvailabilityParameters,
    axis: str,
    values: Sequence[float],
    policy: PolicyRef = "conventional",
    method: str = "dense",
) -> List[SweepPoint]:
    """Reference analytical sweep that rebuilds and re-solves per point.

    This is the pre-template algorithm (one builder + chain + validation +
    solver per point), retained as the ground truth the engine is benchmarked
    and regression-tested against — `sweep(...)` must reproduce it to 1e-12.
    """
    if not values:
        raise ConfigurationError(f"sweep over {axis!r} requires at least one value")
    field = _axis_field(axis)
    resolved = resolve_policy(policy)
    if resolved.has_periodic_checks:
        # A periodic-scheme decay chain is absorbing — there is no ergodic
        # steady state to solve for.  The checker-cycle path already rebuilds
        # per point, so it doubles as its own reference algorithm.
        return _analytical_points(
            [_with_axis(base_params, field, v) for v in values],
            [float(v) for v in values],
            resolved,
            method,
        )
    points = []
    for value in values:
        params = _with_axis(base_params, field, value)
        result = steady_state_availability(resolved.build_chain(params), method=method)
        points.append(
            SweepPoint(
                x=float(value),
                availability=result.availability,
                unavailability=result.unavailability,
                nines=result.nines,
            )
        )
    return points
