"""Generic parameter-sweep engine over the evaluation backends.

Every figure in the paper is a sweep: availability versus failure rate
(Fig. 4), versus hep (Figs. 5-7), across RAID configurations (Fig. 6) and
across policies (Fig. 7).  The engine here runs such sweeps against any
registered policy on either evaluation backend:

* **analytical** sweeps are template-driven: the policy's chain is built
  once per (policy, geometry, structure) through
  :mod:`repro.core.evaluation`'s cache, and each sweep point only rewrites
  the generator entries whose symbolic rates mention the swept parameter,
  then re-factorizes (dense or sparse by state count).  No builder, chain
  or solver objects are reconstructed per point — see
  ``benchmarks/bench_sweep.py`` for the resulting speedup over the retired
  per-point rebuild loop (kept as a test oracle).
* **monte_carlo** sweeps run on the **stacked-grid engine** by default:
  per-study scalars become per-lifetime broadcast arrays and one kernel
  invocation per shard simulates the whole ``points x lifetimes`` grid
  (:func:`repro.core.montecarlo.batch.run_stacked`), with per-point results
  recovered by one segmented aggregation.  Policies without a
  stacked-capable kernel run one full independent study per point instead,
  sharing a single worker pool (with a one-time warning when an adaptive
  sweep has to leave the stacked allocator); that choice is made by
  :func:`repro.core.evaluation.stacked_estimates` alone.  Adaptive
  (``target_half_width``) sweeps run stacked too: the CI-width allocator
  dispatches each next shard round to the points with the widest
  intervals (see :mod:`repro.core.montecarlo.parallel`), optionally on the
  importance-sampled kernels (``biasing``) for rare-event scenarios.

:func:`sweep_grid` runs a full **2-axis surface** (e.g. the Fig. 5
hep-versus-lambda sheet) in one call on either backend: analytically the
cross-product joins one batched factorization group per chain structure, on
Monte Carlo it becomes a single stacked grid.

Periodic-scheme policies (the erasure k-of-N family) have no ergodic steady
state; analytical sweeps route their points through the checker-cycle solver
in :mod:`repro.markov.checker` instead of the template engine.

The legacy helpers (:func:`sweep_hep`, :func:`sweep_failure_rate`, ...) keep
their signatures; any registered policy name or :class:`SimulationPolicy`
works anywhere a policy is expected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.core.evaluation import (
    BACKENDS,
    analytical_result,
    chain_template,
    check_mc_options_for_backend,
    resolve_backend,
    stacked_estimates,
)
from repro.core.montecarlo.config import PolicyRef, config_from_options
from repro.core.parameters import AvailabilityParameters
from repro.core.policies.base import SimulationPolicy
from repro.core.policies.registry import resolve_policy
from repro.exceptions import ConfigurationError
from repro.markov.metrics import availability_from_up_mass

#: Sweepable parameter axes: public alias -> AvailabilityParameters field.
SWEEP_AXES: Dict[str, str] = {
    "hep": "hep",
    "failure_rate": "disk_failure_rate",
    "disk_failure_rate": "disk_failure_rate",
    "repair_rate": "disk_repair_rate",
    "disk_repair_rate": "disk_repair_rate",
    "ddf_recovery_rate": "ddf_recovery_rate",
    "human_error_rate": "human_error_rate",
    "spare_replacement_rate": "spare_replacement_rate",
    "crash_rate": "crash_rate",
}

#: Sweep backends: the evaluation backends of :mod:`repro.core.evaluation`.
SWEEP_BACKENDS = BACKENDS

@dataclass(frozen=True)
class SweepPoint:
    """One evaluated point of a parameter sweep.

    Monte Carlo backed points additionally carry their confidence interval;
    analytical points leave ``ci_lower``/``ci_upper`` as ``None``.
    ``retried_shards``/``resumed_shards`` count fault-tolerance events of
    the sharded executor (see :mod:`repro.core.montecarlo.parallel`);
    ``interrupted`` marks a partial point from a gracefully interrupted
    sweep — its moments cover only the shards that completed.
    """

    x: float
    availability: float
    unavailability: float
    nines: float
    ci_lower: Optional[float] = None
    ci_upper: Optional[float] = None
    retried_shards: int = 0
    resumed_shards: int = 0
    interrupted: bool = False

    @property
    def has_interval(self) -> bool:
        """Return whether this point carries a confidence interval."""
        return self.ci_lower is not None and self.ci_upper is not None

    def as_dict(self) -> Dict[str, float]:
        """Return the point as a plain mapping (CI keys only when present)."""
        payload = {
            "x": self.x,
            "availability": self.availability,
            "unavailability": self.unavailability,
            "nines": self.nines,
        }
        if self.has_interval:
            payload["ci_lower"] = self.ci_lower
            payload["ci_upper"] = self.ci_upper
        if self.retried_shards:
            payload["retried_shards"] = self.retried_shards
        if self.resumed_shards:
            payload["resumed_shards"] = self.resumed_shards
        if self.interrupted:
            payload["interrupted"] = True
        return payload


def _axis_field(axis: str) -> str:
    try:
        return SWEEP_AXES[axis]
    except KeyError:
        raise ConfigurationError(
            f"unknown sweep axis {axis!r}; known axes: {sorted(SWEEP_AXES)}"
        ) from None


def _with_axis(
    params: AvailabilityParameters, field: str, value: float
) -> AvailabilityParameters:
    return replace(params, **{field: float(value)})


def _point_from_pi(pi, up_indices, x: float) -> SweepPoint:
    # The clip/convert arithmetic lives in availability_from_up_mass so sweep
    # points and evaluate()/analytical_result() can never drift apart.
    availability, unavailability, nines = availability_from_up_mass(
        pi[i] for i in up_indices
    )
    return SweepPoint(
        x=float(x),
        availability=availability,
        unavailability=unavailability,
        nines=nines,
    )


def _analytical_points(
    point_params: Sequence[AvailabilityParameters],
    xs: Sequence[float],
    policy: SimulationPolicy,
    method: str,
) -> List[SweepPoint]:
    """Evaluate arbitrary parameter points through the template engine.

    Points are grouped by chain structure — the hep = 0 rung of a sweep
    uses the reduced chain — and each group is handed to the template's
    vectorized solve_many: only the generator entries the swept symbols
    touch are re-evaluated, and one batched factorization covers the whole
    group.  Periodic-scheme policies (the erasure family) have no ergodic
    steady state; their points route through the checker-cycle solver
    instead, one tiny share-count chain per point.
    """
    if policy.has_periodic_checks:
        points = []
        for params, x in zip(point_params, xs):
            result = analytical_result(params, policy, method=method)
            points.append(
                SweepPoint(
                    x=float(x),
                    availability=result.availability,
                    unavailability=result.unavailability,
                    nines=result.nines,
                )
            )
        return points
    groups: Dict[int, List[int]] = {}
    templates: Dict[int, object] = {}
    for index, params in enumerate(point_params):
        template = chain_template(policy, params)
        templates[id(template)] = template
        groups.setdefault(id(template), []).append(index)
    points: List[Optional[SweepPoint]] = [None] * len(point_params)
    for key, indices in groups.items():
        template = templates[key]
        pis = template.solve_many(
            [point_params[i] for i in indices], method=method
        )
        for row, i in enumerate(indices):
            points[i] = _point_from_pi(pis[row], template.up_indices, xs[i])
    return points


def _point_from_estimate(estimate, x: float) -> SweepPoint:
    return SweepPoint(
        x=float(x),
        availability=estimate.availability,
        unavailability=estimate.unavailability,
        nines=estimate.nines,
        ci_lower=estimate.ci_lower,
        ci_upper=estimate.ci_upper,
        retried_shards=estimate.retried_shards,
        resumed_shards=estimate.resumed_shards,
        interrupted=estimate.interrupted,
    )


def _sweep_points(
    base_params: AvailabilityParameters,
    point_params: Sequence[AvailabilityParameters],
    xs: Sequence[float],
    policy: PolicyRef,
    backend: str,
    *,
    method: str,
    seed: Optional[int],
    crn: bool,
    pool,
    options,
) -> List[SweepPoint]:
    """Evaluate the points of a sweep or grid on the resolved backend."""
    backend, resolved = resolve_backend(backend, policy)
    config = config_from_options(params=base_params, policy=resolved, seed=seed, **options)
    check_mc_options_for_backend(backend, config, crn=crn)
    if backend == "analytical":
        return _analytical_points(point_params, xs, resolved, method)
    estimates = stacked_estimates(point_params, config, crn=crn, pool=pool)
    return [_point_from_estimate(estimate, x) for estimate, x in zip(estimates, xs)]


def sweep(
    base_params: AvailabilityParameters,
    axis: str,
    values: Sequence[float],
    policy: PolicyRef = "conventional",
    backend: str = "auto",
    *,
    method: str = "auto",
    seed: Optional[int] = 0,
    crn: bool = False,
    pool=None,
    **options,
) -> List[SweepPoint]:
    """Sweep one parameter axis for one policy on one backend.

    Parameters
    ----------
    base_params:
        Parameter point every swept value is derived from.
    axis:
        One of :data:`SWEEP_AXES` (``"hep"``, ``"failure_rate"``, ...).
    values:
        Axis values, evaluated in order.
    policy:
        Registry name, legacy enum member or policy instance.
    backend:
        ``"analytical"``, ``"monte_carlo"`` or ``"auto"`` (analytical when
        the policy has a chain face).
    method:
        Steady-state solver for analytical sweeps (``"auto"`` = dense/sparse
        by state count).
    seed:
        Master seed of a Monte Carlo sweep; every point uses it, so
        neighbouring points share their random stream layout.
    crn:
        Stacked engine only — couple every point to identical base random
        streams (common random numbers) for variance-reduced contrasts
        between neighbouring points.
    pool:
        Optional externally owned worker pool; ``None`` with ``workers > 1``
        starts one pool for the whole sweep (not one per point).
    **options:
        Monte Carlo options as in :func:`~repro.core.evaluation.evaluate`:
        any :class:`~repro.core.montecarlo.config.MonteCarloConfig` field or
        entry-point spelling (``mc_iterations``, ``mc_horizon_hours``,
        ``mc_max_iterations``, ``pool_kind``).  A ``checkpoint``/``resume``
        journal covers stacked sweeps only.
    """
    if not values:
        raise ConfigurationError(f"sweep over {axis!r} requires at least one value")
    field = _axis_field(axis)
    return _sweep_points(
        base_params,
        [_with_axis(base_params, field, value) for value in values],
        [float(value) for value in values],
        policy,
        backend,
        method=method,
        seed=seed,
        crn=crn,
        pool=pool,
        options=options,
    )


# ----------------------------------------------------------------------
# 2-axis grid sweeps (fig5-style surfaces)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepGrid:
    """A 2-axis sweep surface: ``points[i][j]`` evaluates ``(values1[i],
    values2[j])``.

    Each :class:`SweepPoint` carries the *second* axis value as its ``x``
    (every row of the grid is a valid 1-axis sweep over ``axis2``).
    """

    axis1: str
    axis2: str
    values1: tuple
    values2: tuple
    points: List[List[SweepPoint]]

    @property
    def shape(self) -> tuple:
        """Return ``(len(values1), len(values2))``."""
        return (len(self.values1), len(self.values2))

    def row(self, index: int) -> List[SweepPoint]:
        """Return the ``axis2`` sweep at ``values1[index]``."""
        return self.points[index]

    def availability_matrix(self) -> List[List[float]]:
        """Return availabilities as a ``values1 x values2`` nested list."""
        return [[point.availability for point in row] for row in self.points]

    def nines_matrix(self) -> List[List[float]]:
        """Return nines as a ``values1 x values2`` nested list."""
        return [[point.nines for point in row] for row in self.points]

    def as_dict(self) -> Dict[str, object]:
        """Return a serialisable description of the surface."""
        return {
            "axis1": self.axis1,
            "axis2": self.axis2,
            "values1": list(self.values1),
            "values2": list(self.values2),
            "points": [[point.as_dict() for point in row] for row in self.points],
        }


def sweep_grid(
    base_params: AvailabilityParameters,
    axis1: str,
    values1: Sequence[float],
    axis2: str,
    values2: Sequence[float],
    policy: PolicyRef = "conventional",
    backend: str = "auto",
    *,
    method: str = "auto",
    seed: Optional[int] = 0,
    crn: bool = False,
    pool=None,
    **options,
) -> SweepGrid:
    """Sweep two parameter axes at once (a fig5-style surface) in one call.

    The cross product ``values1 x values2`` is evaluated as **one** batch:
    analytically all points join the template engine's grouped batched
    factorizations, on Monte Carlo they form a single stacked grid (one
    kernel invocation per shard for the entire surface).  Options match
    :func:`sweep`.
    """
    field1, field2 = _axis_field(axis1), _axis_field(axis2)
    if field1 == field2:
        # Compare the underlying fields, not the axis names: aliases such as
        # failure_rate/disk_failure_rate would otherwise silently produce a
        # degenerate surface (axis2 overwriting axis1 row by row).
        raise ConfigurationError(
            f"grid axes must sweep different parameters, got {axis1!r} and "
            f"{axis2!r} (both sweep {field1!r})"
        )
    if not values1 or not values2:
        raise ConfigurationError("both grid axes require at least one value")
    flat = _sweep_points(
        base_params,
        [
            _with_axis(_with_axis(base_params, field1, v1), field2, v2)
            for v1 in values1
            for v2 in values2
        ],
        [float(v2) for _ in values1 for v2 in values2],
        policy,
        backend,
        method=method,
        seed=seed,
        crn=crn,
        pool=pool,
        options=options,
    )
    n2 = len(values2)
    rows = [flat[i * n2 : (i + 1) * n2] for i in range(len(values1))]
    return SweepGrid(
        axis1=axis1,
        axis2=axis2,
        values1=tuple(float(v) for v in values1),
        values2=tuple(float(v) for v in values2),
        points=rows,
    )


# ----------------------------------------------------------------------
# Figure-shaped helpers (legacy signatures, registry-era internals)
# ----------------------------------------------------------------------
def sweep_failure_rate(
    base_params: AvailabilityParameters,
    failure_rates: Sequence[float],
    model: PolicyRef = "conventional",
    backend: str = "analytical",
    **options,
) -> List[SweepPoint]:
    """Evaluate a policy across a range of disk failure rates (Fig. 4 axis)."""
    if not failure_rates:
        raise ConfigurationError("failure_rates must be non-empty")
    return sweep(
        base_params, "disk_failure_rate", failure_rates,
        policy=model, backend=backend, **options,
    )


def sweep_hep(
    base_params: AvailabilityParameters,
    hep_values: Sequence[float],
    model: PolicyRef = "conventional",
    backend: str = "analytical",
    **options,
) -> List[SweepPoint]:
    """Evaluate a policy across a range of human error probabilities."""
    if not hep_values:
        raise ConfigurationError("hep_values must be non-empty")
    return sweep(
        base_params, "hep", hep_values, policy=model, backend=backend, **options
    )


def sweep_hep_for_failure_rates(
    base_params: AvailabilityParameters,
    hep_values: Sequence[float],
    failure_rates: Sequence[float],
    model: PolicyRef = "conventional",
    backend: str = "analytical",
    **options,
) -> Dict[float, List[SweepPoint]]:
    """Return one hep sweep per failure rate (the shape of Fig. 5).

    The whole surface is evaluated as one :func:`sweep_grid` call — one
    batched factorization group per chain structure analytically, one
    stacked grid on Monte Carlo — and re-keyed by failure rate for the
    legacy mapping shape.
    """
    if not failure_rates:
        raise ConfigurationError("failure_rates must be non-empty")
    if not hep_values:
        raise ConfigurationError("hep_values must be non-empty")
    grid = sweep_grid(
        base_params,
        "disk_failure_rate",
        failure_rates,
        "hep",
        hep_values,
        policy=model,
        backend=backend,
        **options,
    )
    return {
        float(rate): grid.row(index) for index, rate in enumerate(failure_rates)
    }


def sweep_policies(
    base_params: AvailabilityParameters,
    hep_values: Sequence[float],
    models: Optional[Sequence[PolicyRef]] = None,
    backend: str = "analytical",
    **options,
) -> Dict[str, List[SweepPoint]]:
    """Return one hep sweep per policy (the shape of Fig. 7).

    ``models`` defaults to the paper's two replacement policies; series are
    keyed by registry name.
    """
    chosen = list(models) if models is not None else [
        "conventional",
        "automatic_failover",
    ]
    if not chosen:
        raise ConfigurationError("at least one policy is required")
    series: Dict[str, List[SweepPoint]] = {}
    for ref in chosen:
        policy = resolve_policy(ref)
        series[policy.name] = sweep_hep(
            base_params, hep_values, policy, backend=backend, **options
        )
    return series


def nines_series(points: Sequence[SweepPoint]) -> List[float]:
    """Return the nines column of a sweep."""
    return [point.nines for point in points]


def availability_series(points: Sequence[SweepPoint]) -> List[float]:
    """Return the availability column of a sweep."""
    return [point.availability for point in points]


def x_series(points: Sequence[SweepPoint]) -> List[float]:
    """Return the x column of a sweep."""
    return [point.x for point in points]
