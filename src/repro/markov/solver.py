"""Steady-state solvers for continuous-time Markov chains.

The availability numbers reported by the paper are long-run (steady-state)
probabilities of the up states.  For an irreducible CTMC the stationary
distribution ``pi`` satisfies ``pi Q = 0`` with ``sum(pi) = 1``.  The rates
in these models span ten orders of magnitude (disk failures at 1e-7/h versus
operator actions at 1/h), so the solvers pay attention to conditioning:

* :func:`solve_steady_state_dense` — replace one balance equation by the
  normalisation constraint and solve the dense linear system (default).
* :func:`solve_steady_state_least_squares` — minimum-norm least-squares
  solution of the stacked system; robust to mild redundancy.
* :func:`solve_steady_state_power` — power iteration on the uniformized
  DTMC; slower but never forms an explicit inverse, useful as an
  independent cross-check in tests.
* :func:`solve_steady_state_sparse` — sparse LU for larger chains (the
  multi-array subsystem models can reach thousands of states).

Every solver also exists at the **array level** (``stationary_*_from_q``),
operating directly on a generator matrix: the parameterized-chain sweep
engine (:mod:`repro.markov.template`) re-solves an updated ``Q`` without
materialising a fresh :class:`~repro.markov.chain.MarkovChain` per point.
The ``"auto"`` method selects dense or sparse by state count
(:data:`SPARSE_STATE_THRESHOLD`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.exceptions import SolverError
from repro.markov.chain import MarkovChain

#: Tolerance used to check that a candidate solution satisfies pi Q = 0.
_RESIDUAL_TOL = 1e-8

#: State count at or above which the ``"auto"`` method switches from the
#: dense direct solve to the sparse LU factorisation.
SPARSE_STATE_THRESHOLD = 500


def _check_pi(q: np.ndarray, pi: np.ndarray, residual_tol: float, name: str) -> np.ndarray:
    """Validate, clip and renormalise a candidate stationary vector."""
    if np.any(~np.isfinite(pi)):
        raise SolverError(f"steady-state solution for {name!r} contains non-finite entries")
    # Tiny negative entries are numerical noise; anything sizeable is a bug.
    most_negative = float(pi.min())
    if most_negative < -1e-9:
        raise SolverError(
            f"steady-state solution for {name!r} has negative probability {most_negative:.3e}"
        )
    pi = np.clip(pi, 0.0, None)
    total = float(pi.sum())
    if total <= 0.0:
        raise SolverError(f"steady-state solution for {name!r} sums to zero")
    pi = pi / total
    residual = float(np.max(np.abs(pi @ q)))
    scale = max(1.0, float(np.max(np.abs(q))))
    if residual > residual_tol * scale:
        raise SolverError(
            f"steady-state residual {residual:.3e} exceeds tolerance for chain {name!r}"
        )
    return pi


def stationary_dense_from_q(
    q: np.ndarray, residual_tol: float = _RESIDUAL_TOL, name: str = "generator"
) -> np.ndarray:
    """Solve ``pi Q = 0, sum(pi) = 1`` with a dense direct solve on ``Q``.

    One column of the transposed generator is replaced by the normalisation
    row, which keeps the system square and well determined for irreducible
    chains.
    """
    n = q.shape[0]
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"dense steady-state solve failed for chain {name!r}: {exc}"
        ) from exc
    return _check_pi(q, pi, residual_tol, name)


def stationary_lstsq_from_q(
    q: np.ndarray, residual_tol: float = _RESIDUAL_TOL, name: str = "generator"
) -> np.ndarray:
    """Solve the stacked system ``[Q^T; 1] pi = [0; 1]`` in the least-squares sense."""
    n = q.shape[0]
    a = np.vstack([q.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return _check_pi(q, pi, residual_tol, name)


def stationary_power_from_q(
    q: np.ndarray,
    tol: float = 1e-14,
    max_iterations: int = 2_000_000,
    residual_tol: float = 1e-6,
    name: str = "generator",
) -> np.ndarray:
    """Power iteration on the uniformized DTMC derived from ``Q``.

    Convergence can be slow when rates span many orders of magnitude (the
    spectral gap of the uniformized chain is tiny), so this solver is mainly
    used as an independent numerical cross-check on small chains.
    """
    n = q.shape[0]
    max_exit = float(np.max(-np.diag(q))) if n > 0 else 0.0
    lam = max_exit * 1.02
    if lam <= 0.0:
        # Chain with no transitions at all: uniform distribution is stationary.
        return np.full(n, 1.0 / n)
    p = np.eye(n) + q / lam
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        nxt = pi @ p
        delta = float(np.max(np.abs(nxt - pi)))
        pi = nxt
        if delta < tol:
            break
    else:
        raise SolverError(
            f"power iteration did not converge within {max_iterations} iterations "
            f"for chain {name!r}"
        )
    return _check_pi(q, pi, residual_tol, name)


def stationary_sparse_from_q(
    q: np.ndarray, residual_tol: float = _RESIDUAL_TOL, name: str = "generator"
) -> np.ndarray:
    """Sparse LU solve on ``Q``, suitable for chains with thousands of states."""
    # Imported here: only chains at or above SPARSE_STATE_THRESHOLD get here.
    from scipy import sparse
    from scipy.sparse import linalg as sparse_linalg

    n = q.shape[0]
    a = sparse.lil_matrix(sparse.csr_matrix(q).T)
    a[n - 1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = sparse_linalg.spsolve(sparse.csc_matrix(a), b)
    except Exception as exc:  # scipy raises several distinct error types here
        raise SolverError(
            f"sparse steady-state solve failed for chain {name!r}: {exc}"
        ) from exc
    pi = np.atleast_1d(np.asarray(pi, dtype=float))
    return _check_pi(q, pi, residual_tol, name)


_Q_METHODS = {
    "dense": stationary_dense_from_q,
    "lstsq": stationary_lstsq_from_q,
    "power": stationary_power_from_q,
    "sparse": stationary_sparse_from_q,
}


def resolve_method(method: str, n_states: int) -> str:
    """Resolve ``"auto"`` into a concrete solver name by state count."""
    if method == "auto":
        return "sparse" if n_states >= SPARSE_STATE_THRESHOLD else "dense"
    if method not in _Q_METHODS:
        raise SolverError(
            f"unknown steady-state method {method!r}; expected one of "
            f"{sorted(_Q_METHODS) + ['auto']}"
        )
    return method


def stationary_from_q(
    q: np.ndarray,
    method: str = "auto",
    name: str = "generator",
    **kwargs: float,
) -> np.ndarray:
    """Return the stationary vector of a generator matrix.

    ``method`` is ``"auto"`` (dense below :data:`SPARSE_STATE_THRESHOLD`
    states, sparse at or above it), ``"dense"``, ``"lstsq"``, ``"power"`` or
    ``"sparse"``.
    """
    solver = _Q_METHODS[resolve_method(method, q.shape[0])]
    return solver(q, name=name, **kwargs)


def _as_dict(chain: MarkovChain, pi: np.ndarray) -> Dict[str, float]:
    return dict(zip(chain.state_names, pi.tolist()))


def solve_steady_state_dense(
    chain: MarkovChain, residual_tol: float = _RESIDUAL_TOL
) -> Dict[str, float]:
    """Solve ``pi Q = 0, sum(pi) = 1`` with a dense direct solve."""
    q = chain.generator_matrix()
    return _as_dict(chain, stationary_dense_from_q(q, residual_tol, name=chain.name))


def solve_steady_state_least_squares(
    chain: MarkovChain, residual_tol: float = _RESIDUAL_TOL
) -> Dict[str, float]:
    """Solve the stacked system ``[Q^T; 1] pi = [0; 1]`` in the least-squares sense."""
    q = chain.generator_matrix()
    return _as_dict(chain, stationary_lstsq_from_q(q, residual_tol, name=chain.name))


def solve_steady_state_power(
    chain: MarkovChain,
    tol: float = 1e-14,
    max_iterations: int = 2_000_000,
    residual_tol: float = 1e-6,
) -> Dict[str, float]:
    """Power iteration on the uniformized DTMC (independent cross-check)."""
    q = chain.generator_matrix()
    pi = stationary_power_from_q(
        q, tol=tol, max_iterations=max_iterations,
        residual_tol=residual_tol, name=chain.name,
    )
    return _as_dict(chain, pi)


def solve_steady_state_sparse(
    chain: MarkovChain, residual_tol: float = _RESIDUAL_TOL
) -> Dict[str, float]:
    """Sparse LU solve, suitable for chains with thousands of states."""
    q = chain.generator_matrix()
    return _as_dict(chain, stationary_sparse_from_q(q, residual_tol, name=chain.name))


_METHODS = {
    "dense": solve_steady_state_dense,
    "lstsq": solve_steady_state_least_squares,
    "power": solve_steady_state_power,
    "sparse": solve_steady_state_sparse,
}


def solve_steady_state(
    chain: MarkovChain,
    method: str = "dense",
    **kwargs: float,
) -> Dict[str, float]:
    """Return the stationary distribution using the requested method.

    ``method`` is one of ``"dense"`` (default), ``"lstsq"``, ``"power"``,
    ``"sparse"`` or ``"auto"`` (dense/sparse selected by state count).
    """
    solver = _METHODS[resolve_method(method, chain.n_states)]
    return solver(chain, **kwargs)


def stationary_vector(chain: MarkovChain, method: str = "dense") -> np.ndarray:
    """Return the stationary distribution as an array in state order."""
    pi = solve_steady_state(chain, method=method)
    return np.array([pi[name] for name in chain.state_names], dtype=float)


def mean_time_to_absorption(
    chain: MarkovChain,
    absorbing_states: Optional[list] = None,
    start_state: Optional[str] = None,
) -> float:
    """Return the expected time (hours) to reach the absorbing set.

    Parameters
    ----------
    chain:
        Chain in which the ``absorbing_states`` have had their outgoing
        transitions removed (see
        :meth:`~repro.markov.chain.MarkovChain.with_states_absorbing`), or a
        chain from which they will be removed here.
    absorbing_states:
        Target set.  Defaults to the chain's down states, which yields the
        Mean Time To Data Loss / unavailability entry.
    start_state:
        Initial state; defaults to the first declared state.

    Notes
    -----
    With ``T`` the set of transient states and ``Q_TT`` the generator
    restricted to them, the vector of expected absorption times ``m``
    satisfies ``Q_TT m = -1``.
    """
    absorbing = list(absorbing_states) if absorbing_states is not None else list(chain.down_states())
    if not absorbing:
        raise SolverError("mean_time_to_absorption requires a non-empty absorbing set")
    for name in absorbing:
        chain.index_of(name)
    start = start_state or chain.state_names[0]
    if start in absorbing:
        return 0.0
    transient = [name for name in chain.state_names if name not in absorbing]
    indices = {name: i for i, name in enumerate(transient)}
    q = chain.generator_matrix()
    full_index = {name: i for i, name in enumerate(chain.state_names)}
    q_tt = np.zeros((len(transient), len(transient)))
    for src in transient:
        for dst in transient:
            q_tt[indices[src], indices[dst]] = q[full_index[src], full_index[dst]]
    rhs = -np.ones(len(transient))
    try:
        m = np.linalg.solve(q_tt, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"mean time to absorption solve failed for chain {chain.name!r}: {exc}"
        ) from exc
    if np.any(m < -1e-9):
        raise SolverError("mean time to absorption produced negative expectations")
    return float(m[indices[start]])
