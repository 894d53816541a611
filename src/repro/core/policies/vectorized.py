"""Vectorised batch Monte Carlo kernels.

Each kernel runs thousands of independent array lifetimes as
struct-of-arrays numpy batches: per round, every still-active lifetime
resolves exactly one failure episode, and all stochastic ingredients of that
round — disk-failure clocks, repair/rebuild durations, human-error Bernoulli
draws, crash races — are sampled as whole arrays.  The per-lifetime scalar
simulators in :mod:`repro.core.montecarlo.simulator` remain the readable
reference (and the traced/debug path); these kernels reproduce their episode
semantics distribution-for-distribution, so at a fixed parameter set the two
paths produce statistically indistinguishable availability estimates.

Three kernels are provided:

``batch_conventional``
    The paper's Fig. 2 conventional replacement policy.
``batch_spare_pool``
    A hot-spare state machine parameterised by the pool size ``n_spares``.
    With ``n_spares=1`` it is the paper's Fig. 3 automatic fail-over policy;
    larger pools implement the hot-spare-pool scenario (each technician
    visit restocks the full pool, and a failure arriving while spares remain
    consumes another spare instead of exposing the array).
``batch_erasure``
    The erasure-coded k-of-N checker/repair family: shares decay between
    deterministic check instants, and the checker repairs below a threshold
    with a human-error botch risk.  Exponential decay is tracked through a
    single aggregate next-failure clock per lifetime (no clock matrix).

The episode kernels accept either a scalar
:class:`~repro.core.parameters.AvailabilityParameters` point (every lifetime
shares one parameter set — bit-identical to the pre-stacked kernels) or a
:class:`~repro.core.policies.stacked.StackedParams` grid, where hep, the
rates, the geometry and the spare-pool size are per-lifetime arrays and a
single invocation simulates an entire ``points x lifetimes`` sweep grid.
The dispatch is duck-typed: row-aware distributions expose ``sample_rows``
and stacked parameter objects expose ``n_disks_rows``/``n_spares_rows``;
plain scalars take the exact pre-stacked code paths (identical draws).

**Allocation discipline.**  By default (``compact=True``) both kernels keep
a *physically compacted* working set: the clock matrix, episode clocks and
bookkeeping arrays hold only the still-active lifetimes, shrinking whenever
lifetimes reach the horizon, so late rounds touch only live rows instead of
gathering ``clocks[active]`` out of the full-width matrix every round.
Per-round scratch (the masked matrix of the second-failure search, the
compaction target) comes from a reusable :class:`_Arena` sized once to the
shard.  Compaction only changes *where* state lives, never which rows are
stepped or in which order they are sampled, so the random draw sequence —
and therefore every result — is bit-identical to the retained uncompacted
path (``compact=False``), which is kept as the bit-identity oracle and the
baseline of the ``stacked_kernel_compaction`` benchmark.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.parameters import AvailabilityParameters
from repro.core.policies.base import BatchLifetimes, RedundancyScheme, ResolvedScheme
from repro.exceptions import ConfigurationError, HumanErrorModelError, SimulationError

__all__ = ["batch_conventional", "batch_erasure", "batch_spare_pool"]


# ----------------------------------------------------------------------
# Array helpers
# ----------------------------------------------------------------------
def _sample(dist, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` samples from a repro distribution as a float array."""
    if size <= 0:
        return np.empty(0, dtype=float)
    return np.asarray(dist.sample(int(size), rng), dtype=float)


def _sample_rows(
    dist, rows: np.ndarray, rng: np.random.Generator, at: Optional[np.ndarray] = None
) -> np.ndarray:
    """Draw one sample per entry of ``rows``.

    Row-aware distributions (``sample_rows``) draw each sample at the rate
    of the lifetime it belongs to; plain distributions fall through to the
    scalar-parameter path, which keeps single-point batches bit-identical
    to the pre-stacked kernels.  ``rows`` are always **global** lifetime
    ids — on the compacted path the callers translate their local working-
    set indices before sampling, so compaction never changes a draw.

    ``at`` carries each draw's birth time (the absolute hour the sampled
    clock starts ticking).  Only the failure-biasing importance sampler
    consumes it — it needs the birth to censor likelihood-ratio
    contributions at the horizon; plain distributions ignore it.
    """
    if isinstance(dist, _BiasedSampler):
        return dist.sample_rows(rows, rng, at=at)
    sampler = getattr(dist, "sample_rows", None)
    if sampler is not None:
        return sampler(rows, rng)
    return _sample(dist, rows.size, rng)


def _rows(value: Union[float, np.ndarray], rows: np.ndarray):
    """Index a per-row parameter array (scalars pass through untouched)."""
    if isinstance(value, np.ndarray):
        return value[rows]
    return value


def _has_positive(value: Union[float, np.ndarray]) -> bool:
    """Return whether a scalar-or-array parameter has any positive entry."""
    return bool(np.any(np.asarray(value) > 0.0))


def _clip_downtime(start: np.ndarray, end: np.ndarray, horizon: float) -> np.ndarray:
    """Return the portion of each ``[start, end]`` inside the horizon."""
    return np.maximum(0.0, np.minimum(end, horizon) - np.minimum(start, horizon))


#: Per-thread override table for the row-search primitives below.  ``None``
#: (the default) keeps the numpy implementations; the compiled backend
#: (``core/montecarlo/compiled.py``) activates an object exposing
#: ``min_and_slot``/``min_excluding``/``second_smallest`` for the duration of
#: a kernel invocation.  The store is per thread for the same reason as
#: ``_SCRATCH_LOCAL``: a thread-pool shard executor runs kernels concurrently
#: on one process's module state.
_KERNEL_OPS_LOCAL = threading.local()


def active_kernel_ops():
    """Return this thread's active kernel-ops table (``None`` = numpy)."""
    return getattr(_KERNEL_OPS_LOCAL, "ops", None)


@contextlib.contextmanager
def kernel_ops(ops):
    """Route this thread's row-search primitives through ``ops``.

    The primitives are pure selections over the clock matrix — no
    arithmetic — so any faithful implementation (the compiled scans) is
    bit-identical to numpy by construction: both return the same elements,
    not recomputed values.  Nesting restores the previous table on exit.
    """
    previous = getattr(_KERNEL_OPS_LOCAL, "ops", None)
    _KERNEL_OPS_LOCAL.ops = ops
    try:
        yield
    finally:
        _KERNEL_OPS_LOCAL.ops = previous


def _min_and_slot(
    clocks: np.ndarray, rows: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Return per-row ``(slot, time)`` of the earliest pending failure.

    ``rows`` optionally supplies a cached ``arange(m)`` (an arena view on
    the compacted paths).  Ties resolve to the lowest slot index on both
    backends (numpy ``argmin`` and the compiled strict-``<`` scan).
    """
    ops = active_kernel_ops()
    if ops is not None:
        return ops.min_and_slot(clocks)
    slot = np.argmin(clocks, axis=1)
    if rows is None:
        rows = np.arange(clocks.shape[0])
    return slot, clocks[rows, slot]


def _min_excluding(
    clocks: np.ndarray, exclude: np.ndarray, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Return per-row ``(slot, time)`` of the earliest failure outside ``exclude``.

    ``out`` optionally supplies the scratch matrix for the masked copy (an
    arena buffer on the compacted path); ``None`` allocates as before.  The
    compiled backend needs no masked copy at all — it skips column
    ``exclude[row]`` inside the scan — and ignores ``out``.
    """
    ops = active_kernel_ops()
    if ops is not None:
        return ops.min_excluding(clocks, exclude)
    if out is None:
        masked = clocks.copy()
    else:
        masked = out
        np.copyto(masked, clocks)
    rows = np.arange(clocks.shape[0])
    masked[rows, exclude] = np.inf
    slot = np.argmin(masked, axis=1)
    return slot, masked[rows, slot]


def _second_smallest(clocks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Return each row's second-smallest clock via an in-place partition.

    Equals ``_min_excluding(clocks, argmin(clocks, axis=1))[1]`` — removing
    one instance of a row's minimum leaves its second order statistic, ties
    included — without the fancy-indexed mask writes.  Requires at least two
    columns, which every kernel guarantees (``n_disks >= 2``).  The compiled
    backend keeps two running minima per row instead of partitioning, which
    selects the same element (duplicates included, NaN impossible — clocks
    are sampled times or ``inf``).
    """
    ops = active_kernel_ops()
    if ops is not None:
        return ops.second_smallest(clocks)
    np.copyto(out, clocks)
    out.partition(1, axis=1)
    return out[:, 1]


def _initial_clocks(params, failure_dist, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample the ``(m, n)`` matrix of first failure times.

    Stacked grids sample every slot at its row's failure parameters and mask
    the slots beyond a row's geometry with ``+inf`` so they can never fire.
    """
    n_rows = getattr(params, "n_disks_rows", None)
    if isinstance(failure_dist, _BiasedSampler):
        # The biased sampler needs the geometry mask so slots that can never
        # fire contribute nothing to the likelihood-ratio weights.
        clocks = failure_dist.sample_matrix(n, rng, n_disks_rows=n_rows)
    else:
        matrix_sampler = getattr(failure_dist, "sample_matrix", None)
        if matrix_sampler is not None:
            clocks = matrix_sampler(n, rng)
        elif getattr(failure_dist, "sample_rows", None) is not None:
            rows = np.repeat(np.arange(m), n)
            clocks = failure_dist.sample_rows(rows, rng).reshape(m, n)
        else:
            clocks = _sample(failure_dist, m * n, rng).reshape(m, n)
    if n_rows is not None and np.any(n_rows < n):
        clocks[np.arange(n)[None, :] >= n_rows[:, None]] = np.inf
    return clocks


def _renew_slots(
    clocks: np.ndarray,
    rows: np.ndarray,
    slots: np.ndarray,
    at_times: np.ndarray,
    failure_dist,
    rng: np.random.Generator,
    sample_rows: Optional[np.ndarray] = None,
) -> None:
    """Install fresh disks in ``(rows, slots)`` at the given times.

    ``sample_rows`` supplies the global lifetime ids when ``rows`` are local
    working-set indices (the compacted path); ``None`` means they coincide.
    """
    if rows.size:
        ids = rows if sample_rows is None else sample_rows
        clocks[rows, slots] = at_times + _sample_rows(failure_dist, ids, rng, at=at_times)


def _renew_failed_before(
    clocks: np.ndarray,
    rows: np.ndarray,
    times: np.ndarray,
    failure_dist,
    rng: np.random.Generator,
    sample_rows: Optional[np.ndarray] = None,
) -> None:
    """Renew, per row, every slot whose failure time is at or before ``times``.

    ``sample_rows`` has the same local-vs-global meaning as in
    :func:`_renew_slots`.
    """
    if rows.size == 0:
        return
    ids = rows if sample_rows is None else sample_rows
    sub = clocks[rows]
    mask = sub <= times[:, None]
    count = int(mask.sum())
    if count:
        # Boolean indexing walks the mask row-major, so repeating each row's
        # renewal time by its renewal count lines the starts up with it.
        per_row = mask.sum(axis=1)
        starts = np.repeat(times, per_row)
        sub[mask] = starts + _sample_rows(
            failure_dist, np.repeat(ids, per_row), rng, at=starts
        )
        clocks[rows] = sub


def _pick_other_slots(
    rng: np.random.Generator, n_disks: Union[int, np.ndarray], slots: np.ndarray
) -> np.ndarray:
    """Pick, per row, a uniformly random operational slot other than ``slots``.

    ``n_disks`` may be a per-row array on stacked grids (each row draws from
    its own geometry).
    """
    if not isinstance(n_disks, np.ndarray):
        if n_disks <= 1:
            return slots.copy()
        choice = rng.integers(n_disks - 1, size=slots.size)
    else:
        choice = rng.integers(n_disks - 1)
    return np.where(choice < slots, choice, choice + 1)


def _random_slots(
    rng: np.random.Generator, n_disks: Union[int, np.ndarray], size: int
) -> np.ndarray:
    """Pick a uniformly random slot per row (per-row geometry on grids)."""
    if not isinstance(n_disks, np.ndarray):
        return rng.integers(n_disks, size=size)
    return rng.integers(n_disks)


def _crash_times(
    crash_rate: Union[float, np.ndarray], size: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample crash clocks of wrongly pulled disks (``inf`` at rate zero)."""
    if not isinstance(crash_rate, np.ndarray):
        if crash_rate > 0.0:
            return rng.exponential(1.0 / crash_rate, size)
        return np.full(size, np.inf)
    crash = np.full(size, np.inf)
    positive = crash_rate > 0.0
    if np.any(positive):
        std = rng.exponential(1.0, size)
        crash[positive] = std[positive] / crash_rate[positive]
    return crash


def _recovery_race(
    rows: np.ndarray,
    recovery_dist,
    hep: Union[float, np.ndarray],
    crash_rate: Union[float, np.ndarray],
    rng: np.random.Generator,
    max_attempts: int = 1000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised twin of ``HumanErrorRecoveryModel.sample_until_recovered``.

    ``rows`` are the **global** lifetime rows (indices into any per-row
    parameter arrays) of the outstanding errors.  Returns
    ``(total_duration_hours, disk_crashed)`` arrays of length ``rows.size``.
    Each round draws one recovery attempt per still-outstanding error, races
    it against a crash of the wrongly pulled disk, and repeats the attempt
    with probability ``hep``.
    """
    size = rows.size
    total = np.zeros(size, dtype=float)
    crashed = np.zeros(size, dtype=bool)
    pending = np.arange(size)
    for _ in range(int(max_attempts)):
        if pending.size == 0:
            return total, crashed
        sub_rows = rows[pending]
        attempt = _sample_rows(recovery_dist, sub_rows, rng)
        crash = _crash_times(_rows(crash_rate, sub_rows), pending.size, rng)
        crash_first = crash < attempt
        total[pending] += np.where(crash_first, crash, attempt)
        crashed[pending[crash_first]] = True
        repeated = (~crash_first) & (rng.random(pending.size) < _rows(hep, sub_rows))
        pending = pending[repeated]
    raise HumanErrorModelError(
        f"error recovery did not terminate within {max_attempts} attempts (hep={hep!r})"
    )


# ----------------------------------------------------------------------
# Failure-biasing importance sampling
# ----------------------------------------------------------------------
def _failure_shape_scale(dist):
    """Return the Weibull ``(shape, scale)`` parameters of a failure law.

    Exponential families report shape 1 (scale ``1/rate``); row-aware
    stacked distributions report per-row arrays.  Anything outside the
    exponential/Weibull scale families cannot be biased by rate inflation
    and is rejected.
    """
    rates = getattr(dist, "rates", None)
    if rates is not None:
        shapes = getattr(dist, "shapes", None)
        if shapes is not None:
            return shapes, dist.scales
        return 1.0, 1.0 / rates
    rate = getattr(dist, "rate_parameter", None)
    if rate is not None:
        return 1.0, 1.0 / float(rate)
    shape = getattr(dist, "shape", None)
    scale = getattr(dist, "scale", None)
    if shape is not None and scale is not None:
        return float(shape), float(scale)
    raise ConfigurationError(
        "failure biasing requires an exponential or Weibull failure "
        f"distribution, got {dist!r}"
    )


class _BiasedSampler:
    """Failure-biasing importance sampler wrapped around a failure law.

    Draws come from the *biased* distribution — every failure rate inflated
    by ``factor`` — while the underlying stream is consumed exactly like the
    unbiased distribution would (one standard draw per sample): for the
    exponential/Weibull scale families, inflating the rate by ``b`` divides
    the scale by ``b``, so a biased draw is the unbiased draw divided by
    ``b``.  Each draw's log-likelihood-ratio contribution ``log dP/dQ`` is
    accumulated into the per-lifetime ``log_weights`` array.

    **Censoring discipline.**  A naive density ratio on every draw makes the
    weight variance explode exponentially in the number of renewals per
    lifetime.  The kernels only ever *act* on a clock value through events
    inside the mission horizon, so the likelihood ratio is taken on the
    horizon-censored observation instead: a draw born at ``tau`` that fires
    at ``tau + t' < H`` contributes the density ratio
    ``-k*log(b) + (b^k - 1) * (t'/s)^k``; a draw that would fire at or
    beyond ``H`` contributes the survival ratio at its censor point,
    ``(b^k - 1) * ((H - tau)/s)^k`` — a *deterministic* quantity given the
    birth time; a draw born at or after ``H`` (or sampled for a geometry
    slot that does not exist) contributes nothing.  Every contribution has
    unit expectation under the biased measure, and the clipped-at-horizon
    downtime is measurable with respect to the censored observations, so
    the weighted availability estimator is exactly unbiased.
    """

    def __init__(self, base, factor, horizon_hours: float, log_weights: np.ndarray) -> None:
        self.base = base
        self.horizon = float(horizon_hours)
        self.log_weights = log_weights
        factor_arr = np.asarray(factor, dtype=float)
        if not np.all(np.isfinite(factor_arr)) or np.any(factor_arr <= 0.0):
            raise ConfigurationError(
                f"biasing factor must be positive and finite, got {factor!r}"
            )
        if factor_arr.ndim == 0:
            self.factor: Union[float, np.ndarray] = float(factor_arr)
        elif factor_arr.shape == (log_weights.size,):
            self.factor = factor_arr
        else:
            raise ConfigurationError(
                f"biasing factor shape {factor_arr.shape} does not match "
                f"{log_weights.size} lifetimes"
            )
        self.shape, self.scale = _failure_shape_scale(base)

    def sample_rows(
        self, rows: np.ndarray, rng: np.random.Generator, at: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Draw biased renewal clocks for ``rows`` born at hours ``at``."""
        if at is None:
            raise SimulationError("biased failure draws require their birth times")
        draws = _sample_rows(self.base, rows, rng)
        b = _rows(self.factor, rows)
        draws = draws / b
        self._accumulate(
            rows,
            draws,
            np.asarray(at, dtype=float),
            b,
            _rows(self.shape, rows),
            _rows(self.scale, rows),
        )
        return draws

    def sample_matrix(
        self,
        n_cols: int,
        rng: np.random.Generator,
        n_disks_rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Draw the biased ``(m, n_cols)`` initial clock matrix (born at 0)."""
        m = self.log_weights.size
        n_cols = int(n_cols)
        matrix_sampler = getattr(self.base, "sample_matrix", None)
        if matrix_sampler is not None:
            draws = np.asarray(matrix_sampler(n_cols, rng), dtype=float)
        elif getattr(self.base, "sample_rows", None) is not None:
            rows = np.repeat(np.arange(m), n_cols)
            draws = self.base.sample_rows(rows, rng).reshape(m, n_cols)
        else:
            draws = _sample(self.base, m * n_cols, rng).reshape(m, n_cols)
        b = np.broadcast_to(np.asarray(self.factor, dtype=float), (m,))[:, None]
        k = np.broadcast_to(np.asarray(self.shape, dtype=float), (m,))[:, None]
        s = np.broadcast_to(np.asarray(self.scale, dtype=float), (m,))[:, None]
        draws = draws / b
        bk = np.power(b, k)
        fired = draws < self.horizon
        contrib = np.where(
            fired,
            (bk - 1.0) * np.power(draws / s, k) - k * np.log(b),
            (bk - 1.0) * np.power(self.horizon / s, k),
        )
        if n_disks_rows is not None and np.any(n_disks_rows < n_cols):
            contrib[np.arange(n_cols)[None, :] >= n_disks_rows[:, None]] = 0.0
        self.log_weights += contrib.sum(axis=1)
        return draws

    def _accumulate(
        self,
        rows: np.ndarray,
        draws: np.ndarray,
        births: np.ndarray,
        b,
        k,
        s,
    ) -> None:
        """Add each draw's censored log-likelihood-ratio to its lifetime."""
        size = draws.size
        if size == 0:
            return
        b = np.broadcast_to(np.asarray(b, dtype=float), (size,))
        k = np.broadcast_to(np.asarray(k, dtype=float), (size,))
        s = np.broadcast_to(np.asarray(s, dtype=float), (size,))
        births = np.broadcast_to(births, (size,))
        remaining = self.horizon - births
        contrib = np.zeros(size, dtype=float)
        live = remaining > 0.0
        fired = live & (draws < remaining)
        censored = live & ~fired
        if np.any(fired):
            bf, kf, sf = b[fired], k[fired], s[fired]
            contrib[fired] = (np.power(bf, kf) - 1.0) * np.power(
                draws[fired] / sf, kf
            ) - kf * np.log(bf)
        if np.any(censored):
            bc, kc, sc = b[censored], k[censored], s[censored]
            contrib[censored] = (np.power(bc, kc) - 1.0) * np.power(
                remaining[censored] / sc, kc
            )
        np.add.at(self.log_weights, rows, contrib)


def _biased_failure_dist(
    params, horizon_hours: float, m: int, biasing
) -> Tuple[object, Optional[np.ndarray]]:
    """Build the (possibly biased) failure distribution for one batch.

    Returns ``(failure_dist, log_weights)``; ``log_weights`` is ``None``
    when no biasing was requested, leaving the unbiased call path untouched.
    """
    failure_dist = params.failure_distribution()
    if biasing is None:
        return failure_dist, None
    log_weights = np.zeros(m, dtype=float)
    return _BiasedSampler(failure_dist, biasing, horizon_hours, log_weights), log_weights


# ----------------------------------------------------------------------
# Scratch-buffer arena
# ----------------------------------------------------------------------
#: Thread-lifetime backing store of the kernel scratch buffers, grown to
#: the largest shard seen.  Re-allocating multi-megabyte scratch per kernel
#: invocation would bounce through ``mmap``/``munmap`` (and re-fault every
#: page) on common allocators; a worker instead pays that cost once and
#: reuses the pages for every subsequent shard.  The store is per *thread*
#: so concurrent kernel invocations (e.g. a caller driving the executors
#: from a thread pool) each get their own buffers instead of silently
#: clobbering another thread's live working set.
_SCRATCH_LOCAL = threading.local()


def _scratch_state() -> dict:
    state = getattr(_SCRATCH_LOCAL, "buffers", None)
    if state is None:
        state = {"ping": None, "pong": None, "masked": None, "arange": None}
        _SCRATCH_LOCAL.buffers = state
    return state


def _scratch_matrix(state: dict, key: str, m: int, n: int) -> np.ndarray:
    buffer = state[key]
    if buffer is None or buffer.size < m * n:
        buffer = np.empty(m * n, dtype=float)
        state[key] = buffer
    return buffer[: m * n].reshape(m, n)


class _Arena:
    """Reusable scratch buffers, sized to the shard, backed process-wide.

    Holds three full-size clock-matrix buffers — one as the scratch of
    masked second-failure searches (:meth:`masked`), two as the alternating
    targets of working-set compactions (:meth:`compact`) — plus a shared
    ``arange``.  Because the live set only ever shrinks, every later
    round's view fits inside the buffers sized for round one; no per-round
    allocation of matrix-sized temporaries remains, and repeat invocations
    (a worker stepping through its shards) reuse the same backing pages
    outright.
    """

    __slots__ = ("_ping", "_pong", "_masked", "_arange", "_use_ping")

    def __init__(self, m: int, n: int) -> None:
        state = _scratch_state()
        self._ping = _scratch_matrix(state, "ping", m, n)
        self._pong = _scratch_matrix(state, "pong", m, n)
        self._masked = _scratch_matrix(state, "masked", m, n)
        arange = state["arange"]
        if arange is None or arange.size < m:
            arange = np.arange(m)
            state["arange"] = arange
        self._arange = arange
        self._use_ping = True

    def arange(self, k: int) -> np.ndarray:
        """Return the cached ``arange(k)`` view."""
        return self._arange[:k]

    def masked(self, k: int) -> np.ndarray:
        """Return a ``(k, n)`` scratch matrix for masked clock searches."""
        return self._masked[:k]

    def compact(self, clocks: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Copy the ``keep`` rows of ``clocks`` into the next free buffer.

        Targets alternate between the two arena matrices, so the source —
        the kernel's own initial clock matrix on the first call, the other
        arena matrix afterwards — is always disjoint from the target:
        compaction costs one dense row copy and zero allocations.
        """
        target = self._ping if self._use_ping else self._pong
        self._use_ping = not self._use_ping
        out = target[: keep.size]
        np.take(clocks, keep, axis=0, out=out)
        return out


# ----------------------------------------------------------------------
# Conventional replacement policy
# ----------------------------------------------------------------------
def batch_conventional(
    params,
    horizon_hours: float,
    n_lifetimes: int,
    rng: np.random.Generator,
    compact: bool = True,
    biasing: Optional[Union[float, np.ndarray]] = None,
) -> BatchLifetimes:
    """Run ``n_lifetimes`` conventional-policy lifetimes as one numpy batch.

    ``params`` is a scalar parameter point or a
    :class:`~repro.core.policies.stacked.StackedParams` grid (one row per
    lifetime; ``n_lifetimes`` must then equal the grid length).

    ``compact=True`` (the default) runs the allocation-lean path: live rows
    are kept physically compacted and scratch comes from a per-invocation
    :class:`_Arena`.  ``compact=False`` retains the original full-width
    gather discipline; both paths consume the random stream identically and
    return bit-identical batches (the equivalence is pinned by
    ``tests/core/test_transport.py::TestCompactionEquivalence``).

    ``biasing`` (a factor > 0, scalar or per-lifetime array) switches the
    kernel to failure-biased importance sampling: failure rates are
    inflated by the factor and the returned batch carries per-lifetime
    ``log_weights`` (see :class:`_BiasedSampler`).  ``None`` — the default —
    takes the exact historical code path.
    """
    if horizon_hours <= 0.0:
        raise SimulationError(f"horizon must be positive, got {horizon_hours!r}")
    m = _check_lifetimes(params, n_lifetimes)
    if compact:
        return _conventional_compacted(params, float(horizon_hours), m, rng, biasing)
    return _conventional_gathered(params, float(horizon_hours), m, rng, biasing)


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


def _conventional_compacted(
    params, horizon_hours: float, m: int, rng: np.random.Generator, biasing=None
) -> BatchLifetimes:
    """The allocation-lean conventional kernel.

    State lives in a physically compacted working set: ``clocks``/``now``
    hold only live rows and ``rows`` maps each back to its global lifetime
    id (used for batch counters and row-aware sampling, so the draw
    sequence matches :func:`_conventional_gathered` exactly).  Matrix-sized
    scratch comes from the :class:`_Arena`.
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
    rows = np.arange(m)
    arena = _Arena(m, n)
    first_round = True

    while rows.size:
        k = rows.size
        r = arena.arange(k)
        slot, fail = _min_and_slot(clocks, r)
        if first_round:
            # ``now`` is still all-zero and clocks are non-negative, so the
            # episode-start clamp is a no-op this round.
            first_round = False
        else:
            np.maximum(fail, now, out=fail)
        alive = fail < horizon_hours
        if not alive.all():
            keep = np.flatnonzero(alive)
            if keep.size == 0:
                break
            clocks = arena.compact(clocks, keep)
            now = now[keep]
            rows = rows[keep]
            slot = slot[keep]
            fail = fail[keep]
            k = keep.size
            r = arena.arange(k)
        batch.disk_failures[rows] += 1

        repair_done = fail + _sample_rows(repair_dist, rows, rng)
        second = _second_smallest(clocks, arena.masked(k))
        np.maximum(second, fail, out=second)

        # Double disk failure during the repair: data loss, backup restore.
        dl = second < repair_done
        dl_pos = np.flatnonzero(dl)
        if dl_pos.size:
            g = rows[dl_pos]
            batch.disk_failures[g] += 1
            batch.dl_events[g] += 1
            outage_end = second[dl_pos] + _sample_rows(ddf_dist, g, rng)
            batch.downtime_hours[g] += _clip_downtime(second[dl_pos], outage_end, horizon_hours)
            _renew_failed_before(clocks, dl_pos, outage_end, failure_dist, rng, sample_rows=g)
            now[dl_pos] = outage_end

        rest = ~dl
        if has_hep:
            he = rest & (rng.random(k) < _rows(hep, rows))
        else:
            he = np.zeros(k, dtype=bool)

        # Wrong disk replacement: data unavailable until the error is undone
        # (or, when the pulled disk crashes, until the backup restore ends).
        he_pos = np.flatnonzero(he)
        if he_pos.size:
            g = rows[he_pos]
            batch.human_errors[g] += 1
            batch.du_events[g] += 1
            wrong = _pick_other_slots(rng, _rows(n_disks, g), slot[he_pos])
            duration, crashed = _recovery_race(g, recovery_dist, hep, crash_rate, rng)
            outage_end = repair_done[he_pos] + duration
            cr = np.flatnonzero(crashed)
            if cr.size:
                batch.dl_events[g[cr]] += 1
                outage_end[cr] += _sample_rows(ddf_dist, g[cr], rng)
                _renew_slots(
                    clocks, he_pos[cr], wrong[cr], outage_end[cr],
                    failure_dist, rng, sample_rows=g[cr],
                )
            batch.downtime_hours[g] += _clip_downtime(repair_done[he_pos], outage_end, horizon_hours)
            _renew_slots(clocks, he_pos, slot[he_pos], outage_end, failure_dist, rng, sample_rows=g)
            _renew_failed_before(clocks, he_pos, outage_end, failure_dist, rng, sample_rows=g)
            now[he_pos] = outage_end

        # Successful replacement and rebuild.
        ok = rest & ~he
        ok_pos = np.flatnonzero(ok)
        if ok_pos.size:
            g = rows[ok_pos]
            _renew_slots(
                clocks, ok_pos, slot[ok_pos], repair_done[ok_pos],
                failure_dist, rng, sample_rows=g,
            )
            now[ok_pos] = repair_done[ok_pos]

    return batch


def _check_lifetimes(params, n_lifetimes: int) -> int:
    """Validate the lifetime count against a (possibly stacked) grid."""
    m = int(n_lifetimes)
    if getattr(params, "n_disks_rows", None) is not None and m != len(params):
        raise ConfigurationError(
            f"stacked grid holds {len(params)} lifetimes but {m} were requested"
        )
    return m


def _per_row_or(params, attr: str, default):
    """Return a per-row parameter array, or ``default`` for scalar points."""
    value = getattr(params, attr, None)
    return default if value is None else value


# ----------------------------------------------------------------------
# Spare-pool state machine (fail-over with n_spares == 1)
# ----------------------------------------------------------------------
@dataclass
class _SparePoolState:
    """Mutable struct-of-arrays state shared by the spare-pool sub-steps.

    On the compacted path ``clocks``/``now``/``spares`` hold only live rows
    and ``rows`` maps local working-set indices to global lifetime ids; the
    uncompacted path leaves ``rows``/``arena`` as ``None``, making local and
    global indices coincide.  Sub-steps therefore index state arrays with
    the indices they were handed and translate through :meth:`gids` for
    batch counters, per-row parameters and row-aware sampling — the one
    discipline that keeps both paths on the same random draw sequence.
    """

    params: object
    horizon: float
    rng: np.random.Generator
    n_spares: Union[int, np.ndarray]
    batch: BatchLifetimes
    clocks: np.ndarray
    now: np.ndarray
    spares: np.ndarray
    failure_dist: object
    rebuild_dist: object
    replace_dist: object
    ddf_dist: object
    recovery_dist: object

    #: Whether any row has a positive hep, computed once per invocation —
    #: the parameter arrays are immutable for the kernel's lifetime, so the
    #: per-round steps must not rescan a grid-sized array.
    has_hep: bool = False

    #: Global lifetime ids of the live rows (compacted path only).
    rows: Optional[np.ndarray] = None

    #: Scratch arena (compacted path only).
    arena: Optional[_Arena] = None

    @property
    def hep(self) -> Union[float, np.ndarray]:
        return self.params.hep

    @property
    def crash_rate(self) -> Union[float, np.ndarray]:
        return self.params.crash_rate

    @property
    def n_disks(self) -> Union[int, np.ndarray]:
        return _per_row_or(self.params, "n_disks_rows", self.params.n_disks)

    def gids(self, idx: np.ndarray) -> np.ndarray:
        """Translate local working-set indices to global lifetime ids."""
        return idx if self.rows is None else self.rows[idx]

    def scratch(self, k: int) -> Optional[np.ndarray]:
        """Return a ``(k, n)`` arena scratch matrix (``None`` uncompacted)."""
        return None if self.arena is None else self.arena.masked(k)

    def restock(self, idx: np.ndarray) -> None:
        """Refill the pools of ``idx`` to their configured sizes."""
        self.spares[idx] = _rows(self.n_spares, self.gids(idx))

    def empty(self, idx: np.ndarray) -> None:
        """Mark the pools of ``idx`` as exhausted."""
        self.spares[idx] = 0


def batch_spare_pool(
    params,
    horizon_hours: float,
    n_lifetimes: int,
    rng: np.random.Generator,
    n_spares: int = 1,
    compact: bool = True,
    biasing: Optional[Union[float, np.ndarray]] = None,
) -> BatchLifetimes:
    """Run ``n_lifetimes`` spare-pool lifetimes as one numpy batch.

    ``n_spares=1`` reproduces the paper's automatic fail-over policy; larger
    values implement the hot-spare-pool scenario.  On a stacked grid the
    per-row ``StackedParams.n_spares_rows`` (when present) overrides the
    scalar argument, so one invocation can mix pool sizes.

    ``compact`` selects the allocation-lean working set exactly as in
    :func:`batch_conventional`; both settings are bit-identical.
    ``biasing`` enables failure-biased importance sampling exactly as in
    :func:`batch_conventional`.
    """
    if horizon_hours <= 0.0:
        raise SimulationError(f"horizon must be positive, got {horizon_hours!r}")
    m = _check_lifetimes(params, n_lifetimes)
    pool_sizes = _per_row_or(params, "n_spares_rows", None)
    if pool_sizes is None:
        pool_sizes = int(n_spares)
        if pool_sizes < 1:
            raise ConfigurationError(
                f"spare pool needs at least one spare, got {n_spares!r}"
            )
        initial = np.full(m, pool_sizes, dtype=np.int64)
    else:
        if np.any(pool_sizes < 1):
            raise ConfigurationError("every stacked pool needs at least one spare")
        initial = np.asarray(pool_sizes, dtype=np.int64).copy()
    n = params.n_disks
    failure_dist, log_weights = _biased_failure_dist(
        params, float(horizon_hours), m, biasing
    )
    state = _SparePoolState(
        params=params,
        horizon=float(horizon_hours),
        rng=rng,
        n_spares=pool_sizes,
        batch=BatchLifetimes.zeros(m, horizon_hours),
        clocks=_initial_clocks(params, failure_dist, m, n, rng),
        now=np.zeros(m, dtype=float),
        spares=initial,
        failure_dist=failure_dist,
        rebuild_dist=params.repair_distribution(),
        replace_dist=params.spare_replacement_distribution(),
        ddf_dist=params.ddf_recovery_distribution(),
        recovery_dist=params.human_error_recovery_distribution(),
        has_hep=_has_positive(params.hep),
    )
    state.batch.log_weights = log_weights
    if compact:
        state.rows = np.arange(m)
        state.arena = _Arena(m, n)
        return _spare_pool_compacted(state)
    return _spare_pool_gathered(state, m)


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


def _spare_pool_compacted(state: _SparePoolState) -> BatchLifetimes:
    """The allocation-lean spare-pool round loop (compacted working set)."""
    arena = state.arena
    first_round = True
    while state.rows.size:
        slot, fail = _min_and_slot(state.clocks, arena.arange(state.rows.size))
        if first_round:
            first_round = False
        else:
            np.maximum(fail, state.now, out=fail)
        alive = fail < state.horizon
        if not alive.all():
            keep = np.flatnonzero(alive)
            if keep.size == 0:
                break
            state.clocks = arena.compact(state.clocks, keep)
            state.now = state.now[keep]
            state.spares = state.spares[keep]
            state.rows = state.rows[keep]
            slot = slot[keep]
            fail = fail[keep]
        state.batch.disk_failures[state.rows] += 1

        # Lifetimes entering the exposed service this round, from any branch.
        exposed: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        has_spare = state.spares > 0
        sp = np.flatnonzero(has_spare)
        if sp.size:
            _spare_rebuild_step(state, sp, slot[sp], fail[sp], state.clocks[sp], exposed)
        ns = np.flatnonzero(~has_spare)
        if ns.size:
            exposed.append((ns, slot[ns], fail[ns]))

        if exposed:
            idx = np.concatenate([part[0] for part in exposed])
            ex_slot = np.concatenate([part[1] for part in exposed])
            ex_start = np.concatenate([part[2] for part in exposed])
            _exposed_step(state, idx, ex_slot, ex_start)

    return state.batch


def _spare_rebuild_step(
    state: _SparePoolState,
    idx: np.ndarray,
    slot: np.ndarray,
    fail: np.ndarray,
    c: np.ndarray,
    exposed: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> None:
    """On-line rebuild onto a hot spare, then the hardware replacement visit."""
    rng = state.rng
    g = state.gids(idx)
    rebuild_done = fail + _sample_rows(state.rebuild_dist, g, rng)
    _, second = _min_excluding(c, slot, out=state.scratch(c.shape[0]))
    second = np.maximum(second, fail)

    # Double disk failure during the rebuild: data loss, backup restore; the
    # restore window is long enough for the technician to restock the pool.
    dl = second < rebuild_done
    dl_idx = idx[dl]
    if dl_idx.size:
        g_dl = g[dl]
        state.batch.disk_failures[g_dl] += 1
        state.batch.dl_events[g_dl] += 1
        outage_end = second[dl] + _sample_rows(state.ddf_dist, g_dl, rng)
        state.batch.downtime_hours[g_dl] += _clip_downtime(second[dl], outage_end, state.horizon)
        _renew_failed_before(
            state.clocks, dl_idx, outage_end, state.failure_dist, rng, sample_rows=g_dl
        )
        state.restock(dl_idx)
        state.now[dl_idx] = outage_end

    # Rebuild finished: the spare carries the data; replace the dead hardware.
    ok = ~dl
    ok_idx = idx[ok]
    if ok_idx.size:
        _renew_slots(
            state.clocks, ok_idx, slot[ok], rebuild_done[ok],
            state.failure_dist, rng, sample_rows=g[ok],
        )
        state.spares[ok_idx] -= 1
        _replacement_visit_step(state, ok_idx, rebuild_done[ok], exposed)


def _replacement_visit_step(
    state: _SparePoolState,
    idx: np.ndarray,
    start: np.ndarray,
    exposed: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> None:
    """Technician visit restocking the spare pool after an on-line rebuild."""
    rng = state.rng
    g = state.gids(idx)
    replace_done = start + _sample_rows(state.replace_dist, g, rng)
    _, next_fail = _min_and_slot(state.clocks[idx])
    next_fail = np.maximum(next_fail, start)

    # A further failure preempts the visit: the pool is not restocked and the
    # failure is handled from scratch next round (another spare when one is
    # left, the exposed service otherwise).
    preempt = (next_fail < replace_done) & (next_fail < state.horizon)
    p_idx = idx[preempt]
    if p_idx.size:
        state.now[p_idx] = next_fail[preempt]

    rest = ~preempt
    if state.has_hep:
        he = rest & (rng.random(idx.size) < _rows(state.hep, g))
    else:
        he = np.zeros(idx.size, dtype=bool)

    ok = rest & ~he
    ok_idx = idx[ok]
    if ok_idx.size:
        state.restock(ok_idx)
        state.now[ok_idx] = replace_done[ok]

    # Wrong pull during the visit: the array was fully redundant, so it only
    # degrades — unless a real failure or a crash of the pulled disk lands
    # while the error is outstanding.
    he_idx = idx[he]
    if he_idx.size == 0:
        return
    g_he = g[he]
    state.batch.human_errors[g_he] += 1
    wrong = _random_slots(rng, _rows(state.n_disks, g_he), he_idx.size)
    duration, crashed = _recovery_race(
        g_he, state.recovery_dist, state.hep, state.crash_rate, rng
    )
    recovery_end = replace_done[he] + duration
    other, second = _min_excluding(
        state.clocks[he_idx], wrong, out=state.scratch(he_idx.size)
    )
    second = np.maximum(second, replace_done[he])
    fail_during = (second < recovery_end) & (second < state.horizon)

    # Failure during the wrong pull, pulled disk crashed: unavailability
    # escalates to data loss; the backup restore fixes everything.
    a = fail_during & crashed
    a_idx = he_idx[a]
    if a_idx.size:
        g_a = g_he[a]
        state.batch.disk_failures[g_a] += 1
        state.batch.du_events[g_a] += 1
        state.batch.dl_events[g_a] += 1
        outage_end = recovery_end[a] + _sample_rows(state.ddf_dist, g_a, rng)
        state.batch.downtime_hours[g_a] += _clip_downtime(second[a], outage_end, state.horizon)
        _renew_failed_before(
            state.clocks, a_idx, outage_end, state.failure_dist, rng, sample_rows=g_a
        )
        state.restock(a_idx)
        state.now[a_idx] = outage_end

    # Failure during the wrong pull, no crash: data unavailable until the
    # error is undone, then the real failure resolves without a spare.
    b = fail_during & ~crashed
    b_idx = he_idx[b]
    if b_idx.size:
        g_b = g_he[b]
        state.batch.disk_failures[g_b] += 1
        state.batch.du_events[g_b] += 1
        state.batch.downtime_hours[g_b] += _clip_downtime(second[b], recovery_end[b], state.horizon)
        exposed.append((b_idx, other[b], recovery_end[b]))

    # No failure, but the pulled disk crashed: it is now a genuine failed
    # disk (array degraded-but-up, pool not restocked).
    cr = ~fail_during & crashed
    cr_idx = he_idx[cr]
    if cr_idx.size:
        exposed.append((cr_idx, wrong[cr], recovery_end[cr]))

    # Clean recovery: the visit still restocked the pool.
    ok2 = ~fail_during & ~crashed
    ok2_idx = he_idx[ok2]
    if ok2_idx.size:
        state.restock(ok2_idx)
        state.now[ok2_idx] = recovery_end[ok2]


def _exposed_step(
    state: _SparePoolState,
    idx: np.ndarray,
    slot: np.ndarray,
    start: np.ndarray,
) -> None:
    """Resolve a failed disk with no spare left (the ``EXPns1`` service).

    The technician rebuilds and replaces hardware in one visit (combined
    rate ``mu_DF + mu_ch``); success restocks the whole pool.
    """
    rng = state.rng
    g = state.gids(idx)
    combined_rate = state.params.disk_repair_rate + state.params.spare_replacement_rate
    if isinstance(combined_rate, np.ndarray):
        service_done = start + rng.exponential(1.0, idx.size) / combined_rate[g]
    else:
        service_done = start + rng.exponential(1.0 / combined_rate, idx.size)
    _, second = _min_excluding(state.clocks[idx], slot, out=state.scratch(idx.size))
    second = np.maximum(second, start)

    # Double failure with no spare: data loss.
    dl = (second < service_done) & (second < state.horizon)
    dl_idx = idx[dl]
    if dl_idx.size:
        g_dl = g[dl]
        state.batch.disk_failures[g_dl] += 1
        state.batch.dl_events[g_dl] += 1
        outage_end = second[dl] + _sample_rows(state.ddf_dist, g_dl, rng)
        state.batch.downtime_hours[g_dl] += _clip_downtime(second[dl], outage_end, state.horizon)
        _renew_slots(
            state.clocks, dl_idx, slot[dl], outage_end,
            state.failure_dist, rng, sample_rows=g_dl,
        )
        _renew_failed_before(
            state.clocks, dl_idx, outage_end, state.failure_dist, rng, sample_rows=g_dl
        )
        state.empty(dl_idx)
        state.now[dl_idx] = outage_end

    rest = ~dl
    if state.has_hep:
        he = rest & (rng.random(idx.size) < _rows(state.hep, g))
    else:
        he = np.zeros(idx.size, dtype=bool)

    # Wrong pull while degraded: data unavailable (data loss if the pulled
    # disk crashes before the error is undone).
    he_idx = idx[he]
    if he_idx.size:
        g_he = g[he]
        state.batch.human_errors[g_he] += 1
        state.batch.du_events[g_he] += 1
        duration, crashed = _recovery_race(
            g_he, state.recovery_dist, state.hep, state.crash_rate, rng
        )
        outage_end = service_done[he] + duration
        cr = np.flatnonzero(crashed)
        if cr.size:
            state.batch.dl_events[g_he[cr]] += 1
            outage_end[cr] += _sample_rows(state.ddf_dist, g_he[cr], rng)
        state.batch.downtime_hours[g_he] += _clip_downtime(
            service_done[he], outage_end, state.horizon
        )
        _renew_slots(
            state.clocks, he_idx, slot[he], outage_end,
            state.failure_dist, rng, sample_rows=g_he,
        )
        _renew_failed_before(
            state.clocks, he_idx, outage_end, state.failure_dist, rng, sample_rows=g_he
        )
        state.empty(he_idx)
        state.now[he_idx] = outage_end

    # Successful combined service: disk back, pool restocked in one visit.
    ok = rest & ~he
    ok_idx = idx[ok]
    if ok_idx.size:
        g_ok = g[ok]
        _renew_slots(
            state.clocks, ok_idx, slot[ok], service_done[ok],
            state.failure_dist, rng, sample_rows=g_ok,
        )
        state.restock(ok_idx)
        state.now[ok_idx] = service_done[ok]


# ----------------------------------------------------------------------
# Erasure-coded k-of-N checker/repair kernel
# ----------------------------------------------------------------------
def _erasure_scheme_planes(params, m: int, scheme):
    """Return per-row ``(n, k, repair_threshold, period)`` arrays.

    Stacked grids carry the scheme as optional per-row planes
    (``k_rows``/``repair_threshold_rows``/``check_period_rows``, built by
    ``stack_parameter_points(..., schemes=...)``); a grid without planes
    falls back to broadcasting a fully pinned scheme.  Scalar points
    resolve the scheme against their geometry.
    """
    n_rows = getattr(params, "n_disks_rows", None)
    if n_rows is None:
        if scheme is None:
            raise ConfigurationError(
                "the erasure kernel needs a redundancy scheme; bind one via "
                "erasure_policy(k, n, ...) or pass scheme= explicitly"
            )
        resolved = scheme.resolve(params) if isinstance(scheme, RedundancyScheme) else scheme
        if not resolved.is_periodic:
            raise ConfigurationError(
                "the erasure kernel simulates periodic check/repair cycles; "
                "the scheme must set check_period_hours"
            )
        return (
            np.full(m, int(resolved.n_shares), dtype=np.int64),
            np.full(m, int(resolved.k), dtype=np.int64),
            np.full(m, int(resolved.repair_threshold), dtype=np.int64),
            np.full(m, float(resolved.check_period_hours), dtype=float),
        )
    k_rows = getattr(params, "k_rows", None)
    if k_rows is not None:
        return (
            np.asarray(n_rows, dtype=np.int64),
            np.asarray(k_rows, dtype=np.int64),
            np.asarray(params.repair_threshold_rows, dtype=np.int64),
            np.asarray(params.check_period_rows, dtype=float),
        )
    pinned = (
        scheme is not None
        and getattr(scheme, "n_shares", None) is not None
        and getattr(scheme, "k", None) is not None
        and getattr(scheme, "repair_threshold", None) is not None
        and getattr(scheme, "check_period_hours", None) is not None
    )
    if not pinned:
        raise ConfigurationError(
            "stacked erasure grids need per-row scheme planes (build the "
            "grid with stack_parameter_points(..., schemes=...)) or a fully "
            "pinned scheme to broadcast"
        )
    if np.any(np.asarray(n_rows) != int(scheme.n_shares)):
        raise ConfigurationError(
            f"scheme pins n_shares={scheme.n_shares!r} but the stacked grid "
            "mixes other geometries; use per-row scheme planes instead"
        )
    return (
        np.asarray(n_rows, dtype=np.int64),
        np.full(m, int(scheme.k), dtype=np.int64),
        np.full(m, int(scheme.repair_threshold), dtype=np.int64),
        np.full(m, float(scheme.check_period_hours), dtype=float),
    )


def batch_erasure(
    params,
    horizon_hours: float,
    n_lifetimes: int,
    rng: np.random.Generator,
    scheme: Optional[object] = None,
    compact: bool = True,
    biasing: Optional[Union[float, np.ndarray]] = None,
) -> BatchLifetimes:
    """Run ``n_lifetimes`` erasure-coded k-of-N lifetimes as one numpy batch.

    The simulated semantics (tahoe-style, shared with the scalar simulator
    and the checker-cycle analytical face in :mod:`repro.markov.checker`):

    * ``N`` shares fail independently at rate ``lambda`` (exponential only —
      the kernel tracks the aggregate next-failure clock ``Exp(s*lambda)``
      by memorylessness, so ``failure_shape`` must be 1);
    * a checker runs every ``check_period`` hours.  Finding ``k <= s <
      repair_threshold`` live shares it repairs back to ``N`` (one
      ``du_events`` repair activation); with probability ``hep`` the repair
      is botched by operator error and leaves ``N - 1`` shares
      (``human_errors``).  Repairs are instantaneous;
    * dropping below ``k`` live shares is a data outage (``dl_events``):
      downtime accrues until the next check discovers it and restores from
      backup (same ``hep`` botch risk; a botched restore of a ``k == N``
      scheme stays down — a continuing outage, not a second ``dl_events``);
    * share failures are not simulated while the object is down.

    ``scheme`` is a :class:`~repro.core.policies.base.RedundancyScheme`
    (resolved against scalar points) or a ready ``ResolvedScheme``; stacked
    grids read the per-row scheme planes instead.  ``compact`` is accepted
    for kernel-signature uniformity and ignored — the working set is a few
    flat arrays, there is no clock matrix to compact.  Failure biasing is
    not supported (the aggregate-clock discipline has no per-share draws to
    tilt); pass ``biasing=None``.

    ``crash_rate`` and the ``mu_*`` repair rates are not read by this
    kernel — repair duration is the check latency itself.
    """
    if horizon_hours <= 0.0:
        raise SimulationError(f"horizon must be positive, got {horizon_hours!r}")
    if biasing is not None:
        raise ConfigurationError(
            "the erasure checker kernel does not support failure biasing; "
            "its aggregate share clocks have no per-draw likelihood ratio"
        )
    horizon = float(horizon_hours)
    m = _check_lifetimes(params, n_lifetimes)
    if np.any(np.asarray(getattr(params, "failure_shape", 1.0)) != 1.0):
        raise ConfigurationError(
            "the erasure kernel requires exponential share failures "
            "(failure_shape == 1); Weibull share decay is not memoryless"
        )
    n_arr, k_arr, r_arr, period = _erasure_scheme_planes(params, m, scheme)
    lam = np.broadcast_to(
        np.asarray(params.disk_failure_rate, dtype=float), (m,)
    )
    hep = params.hep
    has_hep = _has_positive(hep)

    batch = BatchLifetimes.zeros(m, horizon)
    shares = n_arr.copy()
    # Aggregate next-failure clock: from s live shares the next loss arrives
    # at rate s*lambda; one draw per state change (memorylessness).
    pending = rng.exponential(1.0, m) / (shares * lam)
    # Checks fire at T, 2T, ...; while s >= repair_threshold every check is
    # a no-op, so jump straight to the first check at or after the failure.
    next_check = period * np.ceil(pending / period)
    down_since = np.full(m, np.inf)
    active = np.arange(m)

    while active.size:
        pf = pending[active]
        nc = next_check[active]
        etime = np.minimum(pf, nc)
        done = etime >= horizon
        if done.any():
            d_idx = active[done]
            still_down = np.isfinite(down_since[d_idx])
            if still_down.any():
                g = d_idx[still_down]
                batch.downtime_hours[g] += horizon - down_since[g]
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            pf, nc, etime = pf[keep], nc[keep], etime[keep]

        pos = np.arange(active.size)
        is_fail = pf < nc

        # --- share failures (strictly before a coincident check) ---
        fail_pos = pos[is_fail]
        surv_pos = np.empty(0, dtype=np.int64)
        if fail_pos.size:
            f_idx = active[fail_pos]
            batch.disk_failures[f_idx] += 1
            shares[f_idx] -= 1
            broke = shares[f_idx] < k_arr[f_idx]
            br_idx = f_idx[broke]
            if br_idx.size:
                # Data outage until the next check discovers it; failures of
                # the surviving shares are not simulated while down.
                batch.dl_events[br_idx] += 1
                down_since[br_idx] = pending[br_idx]
                pending[br_idx] = np.inf
            surv_pos = fail_pos[~broke]

        # --- checker visits ---
        check_pos = pos[~is_fail]
        acted_up_pos = np.empty(0, dtype=np.int64)
        if check_pos.size:
            c_idx = active[check_pos]
            at = next_check[c_idx]
            is_down = ~np.isfinite(pending[c_idx])
            needs_repair = ~is_down & (shares[c_idx] < r_arr[c_idx])
            act = is_down | needs_repair
            act_pos = check_pos[act]
            if act_pos.size:
                a_idx = active[act_pos]
                a_at = at[act]
                if has_hep:
                    botched = rng.random(a_idx.size) < _rows(hep, a_idx)
                else:
                    botched = np.zeros(a_idx.size, dtype=bool)
                rep_idx = a_idx[needs_repair[act]]
                if rep_idx.size:
                    batch.du_events[rep_idx] += 1
                res = is_down[act]
                res_idx = a_idx[res]
                if res_idx.size:
                    batch.downtime_hours[res_idx] += a_at[res] - down_since[res_idx]
                    down_since[res_idx] = np.inf
                shares[a_idx] = np.where(botched, n_arr[a_idx] - 1, n_arr[a_idx])
                if botched.any():
                    batch.human_errors[a_idx[botched]] += 1
                # A botched restore of a k == N scheme stays down until the
                # next check — a continuing outage, no second dl_event.
                still_down = shares[a_idx] < k_arr[a_idx]
                if still_down.any():
                    down_since[a_idx[still_down]] = a_at[still_down]
                acted_up_pos = act_pos[~still_down]
            next_check[c_idx] = at + period[c_idx]

        # --- fresh aggregate clocks, in global row order ---
        redraw_pos = np.sort(np.concatenate([surv_pos, acted_up_pos]))
        if redraw_pos.size:
            g = active[redraw_pos]
            pending[g] = etime[redraw_pos] + rng.exponential(1.0, g.size) / (
                shares[g] * lam[g]
            )

        # Check-skip: rows at or above the repair threshold see only no-op
        # checks until their next failure, so jump ahead (never backwards).
        up = np.isfinite(pending[active])
        skip_idx = active[up]
        skip_idx = skip_idx[shares[skip_idx] >= r_arr[skip_idx]]
        if skip_idx.size:
            next_check[skip_idx] = np.maximum(
                next_check[skip_idx],
                period[skip_idx] * np.ceil(pending[skip_idx] / period[skip_idx]),
            )

    return batch
