"""Periodic check/repair cycle analysis for erasure-coded schemes.

The paper's RAID policies repair *continuously* — a technician reacts to
every failure, so the availability model is an ergodic CTMC and the
steady-state solvers in :mod:`repro.markov.solver` apply directly.  The
erasure-coded k-of-N family repairs on a *schedule*: shares decay between
checks (a pure-death CTMC over share counts), and every ``T`` hours a
checker inspects the share count and triggers repair below a threshold.
The right object is therefore not a generator matrix but a **cycle
operator**:

``M = expm(Q * T)``
    the share-count distribution transported across one check period, and
``D``
    the discrete check/repair matrix applied at the check instant
    (:func:`check_repair_matrix`).

One cycle maps a check-instant distribution ``phi`` to ``phi @ M @ D``.
The long-run behaviour is the fixed point ``phi = phi M D`` (the cycle-start
stationary distribution), and long-run availability is one minus the
expected fraction of a cycle spent in down states, computed *exactly* from
the occupancy integral ``OCC = integral_0^T expm(Q u) du`` — both blocks of
a single augmented matrix exponential (:func:`cycle_operator`), so no time
grid or quadrature error enters the default path.

``method="uniformization"`` provides an independent reference built from
:func:`repro.markov.transient.transient_distribution_uniformization`
(Jensen's method, the package's robust transient engine): ``M`` by
propagating each basis vector across the period and ``OCC`` by trapezoidal
integration over a fine grid.  The equivalence of the two methods is pinned
by the checker test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import SolverError, StateError
from repro.markov.chain import MarkovChain
from repro.markov.transient import _trapezoid, transient_distribution_uniformization

#: Name of the absorbing data-down state of an erasure decay chain.
DOWN_STATE = "DOWN"

#: Residual tolerance of the cycle-stationary fixed-point solve.
_RESIDUAL_TOLERANCE = 1e-9


def share_state_name(n_live: int) -> str:
    """Return the state name of ``n_live`` surviving shares."""
    return f"SH{int(n_live)}"


@dataclass(frozen=True)
class CheckCycleResult:
    """Long-run behaviour of a periodic check/repair cycle.

    Attributes
    ----------
    availability:
        Long-run fraction of time spent in up states.
    cycle_start:
        Stationary distribution at the start of a cycle (just after a
        check), in chain state order.
    occupancy_hours:
        Expected hours per cycle spent in each state, in chain state order;
        sums to the check period.
    state_names:
        Column labels of the two vectors.
    """

    availability: float
    cycle_start: np.ndarray
    occupancy_hours: np.ndarray
    state_names: tuple


def check_repair_matrix(
    chain: MarkovChain,
    n_shares: int,
    k: int,
    repair_threshold: int,
    hep: float,
    restore_from_down: bool = True,
) -> np.ndarray:
    """Return the discrete check/repair matrix ``D`` of one check instant.

    Row ``i`` of ``D`` is the distribution the checker leaves behind when it
    finds the system in state ``i``:

    * ``s >= repair_threshold`` live shares — nothing to do, identity row;
    * ``k <= s < repair_threshold`` — repair back to ``N`` shares with
      probability ``1 - hep``; with probability ``hep`` the repair is
      botched by operator error and leaves ``N - 1`` shares (or the down
      state when ``N - 1 < k``);
    * the down state — the check discovers the outage and restores from
      backup with the same ``hep`` botch risk.  ``restore_from_down=False``
      leaves the down row as identity instead, turning the cycle into a
      *reliability* model (absorbing data loss) for survival curves.
    """
    n, k, threshold = int(n_shares), int(k), int(repair_threshold)
    if not 1 <= k <= threshold <= n:
        raise SolverError(
            f"check/repair needs 1 <= k <= repair_threshold <= N, got "
            f"k={k!r}, repair_threshold={threshold!r}, N={n!r}"
        )
    hep = float(hep)
    if not 0.0 <= hep <= 1.0:
        raise SolverError(f"hep must lie in [0, 1], got {hep!r}")
    d = np.eye(chain.n_states)
    full = chain.index_of(share_state_name(n))
    down = chain.index_of(DOWN_STATE)
    # A botched repair leaves N - 1 shares — the down state when k == N.
    botched = chain.index_of(share_state_name(n - 1)) if n - 1 >= k else down
    repaired_rows = [chain.index_of(share_state_name(s)) for s in range(k, threshold)]
    if restore_from_down:
        repaired_rows.append(down)
    for i in repaired_rows:
        d[i, :] = 0.0
        d[i, full] = 1.0 - hep
        d[i, botched] += hep
    return d


def cycle_operator(q: np.ndarray, period_hours: float):
    """Return ``(M, OCC)`` for one check period from a single ``expm``.

    ``M = expm(Q T)`` transports a distribution across the period and
    ``OCC = integral_0^T expm(Q u) du`` is the exact occupancy integral
    (``(phi @ OCC)[j]`` is the expected hours spent in state ``j`` over a
    period started from ``phi``).  Both come out of one exponential of the
    augmented block matrix ``[[Q, I], [0, 0]]`` — its upper-left block is
    ``M`` and its upper-right block is ``OCC``.
    """
    period = float(period_hours)
    if period <= 0.0:
        raise SolverError(f"check period must be positive, got {period_hours!r}")
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if q.shape != (n, n):
        raise SolverError(f"generator must be square, got shape {q.shape!r}")
    augmented = np.zeros((2 * n, 2 * n))
    augmented[:n, :n] = q
    augmented[:n, n:] = np.eye(n)
    from scipy.linalg import expm

    exp = expm(augmented * period)
    return exp[:n, :n], exp[:n, n:]


def cycle_start_distribution(cycle_matrix: np.ndarray) -> np.ndarray:
    """Solve the fixed point ``phi = phi @ cycle_matrix``, ``phi . 1 = 1``.

    ``cycle_matrix`` is the full-cycle stochastic matrix ``M @ D``.  The
    dense solve replaces one equation of the rank-deficient system with the
    normalisation row; the result is clipped to ``[0, 1]``, renormalised,
    and checked against the fixed-point residual.
    """
    matrix = np.asarray(cycle_matrix, dtype=float)
    n = matrix.shape[0]
    a = matrix.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        phi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"cycle-stationary solve failed: {exc}") from None
    phi = np.clip(phi, 0.0, 1.0)
    total = phi.sum()
    if total <= 0.0:
        raise SolverError("cycle-stationary solve produced a zero distribution")
    phi = phi / total
    residual = float(np.max(np.abs(phi @ matrix - phi)))
    if residual > _RESIDUAL_TOLERANCE:
        raise SolverError(
            f"cycle-stationary fixed point residual {residual:.3e} exceeds "
            f"{_RESIDUAL_TOLERANCE:.0e}"
        )
    return phi


def _uniformized_operator(chain: MarkovChain, period_hours: float, n_grid: int = 201):
    """Build ``(M, OCC)`` from the uniformization transient engine.

    The reference path for :func:`cycle_operator`: each basis vector is
    propagated across ``[0, T]`` by Jensen uniformization; the final row
    gives that row of ``M`` and trapezoidal integration over the grid gives
    the corresponding row of ``OCC`` (quadrature-accurate, unlike the exact
    augmented-``expm`` default — which is why the default is the default).
    """
    times = np.linspace(0.0, float(period_hours), int(n_grid))
    size = chain.n_states
    m = np.empty((size, size))
    occ = np.empty((size, size))
    for i, name in enumerate(chain.state_names):
        result = transient_distribution_uniformization(chain, times, initial_state=name)
        m[i] = result.probabilities[-1]
        occ[i] = _trapezoid(result.probabilities, times, axis=0)
    return m, occ


def cycle_stationary_availability(
    chain: MarkovChain,
    repair: np.ndarray,
    period_hours: float,
    method: str = "expm",
) -> CheckCycleResult:
    """Return long-run availability under a periodic check/repair cycle.

    ``chain`` is the between-checks decay CTMC (down states absorbing until
    the next check), ``repair`` the check-instant matrix from
    :func:`check_repair_matrix`, and ``period_hours`` the check period.
    ``method="expm"`` (default) uses the exact augmented matrix
    exponential; ``method="uniformization"`` rebuilds both operators from
    the transient uniformization engine as an independent cross-check.
    """
    repair = np.asarray(repair, dtype=float)
    size = chain.n_states
    if repair.shape != (size, size):
        raise SolverError(
            f"repair matrix shape {repair.shape!r} does not match "
            f"{size} chain states"
        )
    if method == "expm":
        m, occ = cycle_operator(chain.generator_matrix(), period_hours)
    elif method == "uniformization":
        m, occ = _uniformized_operator(chain, period_hours)
    else:
        raise SolverError(f"unknown checker method {method!r}")
    phi = cycle_start_distribution(m @ repair)
    occupancy = phi @ occ
    down_mask = ~chain.up_mask()
    availability = 1.0 - float(occupancy[down_mask].sum()) / float(period_hours)
    return CheckCycleResult(
        availability=float(min(max(availability, 0.0), 1.0)),
        cycle_start=phi,
        occupancy_hours=occupancy,
        state_names=chain.state_names,
    )


def survival_curve(
    chain: MarkovChain,
    repair: np.ndarray,
    period_hours: float,
    n_cycles: int,
    initial_state: Optional[str] = None,
) -> np.ndarray:
    """Return the survival probability at the end of each check cycle.

    Iterates ``p <- p @ M @ D`` from the given start state (the full-shares
    state by default) and records ``1 - P(down)`` after each cycle's check.
    With a ``restore_from_down=False`` repair matrix the down state is
    absorbing and the curve is the tahoe-style reliability trajectory
    ("probability the file is still recoverable after j check periods").
    """
    if int(n_cycles) < 1:
        raise SolverError(f"survival curve needs at least one cycle, got {n_cycles!r}")
    m, _ = cycle_operator(chain.generator_matrix(), period_hours)
    cycle_matrix = m @ np.asarray(repair, dtype=float)
    start = initial_state
    if start is None:
        up_names = chain.up_states()
        if not up_names:
            raise StateError("survival curve requires at least one up state")
        start = up_names[0]
    p = np.zeros(chain.n_states)
    p[chain.index_of(start)] = 1.0
    down_mask = ~chain.up_mask()
    curve = np.empty(int(n_cycles))
    for j in range(int(n_cycles)):
        p = p @ cycle_matrix
        curve[j] = 1.0 - float(p[down_mask].sum())
    return np.clip(curve, 0.0, 1.0)
