"""Structural validation of Markov chains.

The availability chains built from the paper's figures are small but easy to
get wrong when transcribing: a missing repair edge silently produces an
absorbing down state and an availability of zero.  These checks catch such
transcription errors early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.exceptions import MarkovChainError
from repro.markov.chain import MarkovChain

# networkx is optional and only ``to_networkx`` uses it.  It is still
# imported here, when installed, because perfbench's
# ``setup.import_networkx_s`` layer times it as part of ``import repro``;
# it moves inside ``to_networkx`` when that layer is replaced (ROADMAP).
try:
    import networkx as nx
except ImportError:
    nx = None


@dataclass
class ValidationReport:
    """Outcome of structural validation.

    Attributes
    ----------
    ok:
        ``True`` when no error-level issue was found.
    errors:
        Problems that make steady-state availability analysis meaningless
        (e.g. unreachable states, unintended absorbing states).
    warnings:
        Suspicious but legal structure (e.g. states with no outgoing edges
        in a chain explicitly allowed to have absorbing states).
    """

    ok: bool = True
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def add_error(self, message: str) -> None:
        """Record an error and mark the report as failed."""
        self.errors.append(message)
        self.ok = False

    def add_warning(self, message: str) -> None:
        """Record a warning without failing the report."""
        self.warnings.append(message)


def to_networkx(chain: MarkovChain) -> "nx.DiGraph":
    """Return the chain's directed graph (positive-rate edges only).

    Needs the optional ``networkx`` package, which nothing else in
    :mod:`repro` uses; raises ``ImportError`` naming it when it is missing.
    """
    if nx is None:
        raise ImportError("to_networkx requires the optional 'networkx' package")
    graph = nx.DiGraph()
    for state in chain.states:
        graph.add_node(state.name, up=state.up)
    for transition in chain.transitions:
        if transition.rate > 0.0:
            if graph.has_edge(transition.source, transition.target):
                graph[transition.source][transition.target]["rate"] += transition.rate
            else:
                graph.add_edge(transition.source, transition.target, rate=transition.rate)
    return graph


def _successors(chain: MarkovChain, reverse: bool = False) -> Dict[str, List[str]]:
    """Return each state's positive-rate neighbours (predecessors if ``reverse``)."""
    out: Dict[str, List[str]] = {name: [] for name in chain.state_names}
    for transition in chain.transitions:
        if transition.rate > 0.0:
            if reverse:
                out[transition.target].append(transition.source)
            else:
                out[transition.source].append(transition.target)
    return out


def _reach(successors: Dict[str, List[str]], start: str) -> Set[str]:
    """Return every state reachable from ``start``, ``start`` included."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in successors[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def check_reachability(chain: MarkovChain, from_state: str = "") -> Tuple[Set[str], Set[str]]:
    """Return ``(reachable, unreachable)`` state-name sets.

    Reachability is computed from ``from_state`` (default: the first declared
    state, which by convention is the fully-operational state).
    """
    start = from_state or chain.state_names[0]
    chain.index_of(start)
    reachable = _reach(_successors(chain), start)
    unreachable = set(chain.state_names) - reachable
    return reachable, unreachable


def find_absorbing_states(chain: MarkovChain) -> List[str]:
    """Return states with no outgoing positive-rate transition."""
    absorbing = []
    for state in chain.states:
        if chain.exit_rate(state.name) <= 0.0:
            absorbing.append(state.name)
    return absorbing


def is_irreducible(chain: MarkovChain) -> bool:
    """Return whether the positive-rate graph is strongly connected.

    It is when the forward and the reverse search from the first state both
    reach every state.
    """
    everything = set(chain.state_names)
    return all(
        _reach(_successors(chain, reverse), chain.state_names[0]) == everything
        for reverse in (False, True)
    )


def generator_row_sums(chain: MarkovChain) -> np.ndarray:
    """Return the row sums of the generator matrix (should all be ~0)."""
    return chain.generator_matrix().sum(axis=1)


def validate_chain(
    chain: MarkovChain,
    allow_absorbing: bool = False,
    raise_on_error: bool = True,
) -> ValidationReport:
    """Run all structural checks and return a :class:`ValidationReport`.

    Parameters
    ----------
    chain:
        Chain to validate.
    allow_absorbing:
        Reliability models (MTTDL analysis) intentionally contain absorbing
        failure states; pass ``True`` to downgrade absorbing-state findings
        to warnings.
    raise_on_error:
        When ``True`` (default) a failed report raises
        :class:`~repro.exceptions.MarkovChainError`.
    """
    report = ValidationReport()

    # Generator rows must sum to zero by construction; a violation indicates
    # numerical overflow from absurd rate magnitudes.
    row_sums = generator_row_sums(chain)
    worst = float(np.max(np.abs(row_sums))) if row_sums.size else 0.0
    scale = max(1.0, float(np.max(np.abs(chain.generator_matrix()))))
    if worst > 1e-9 * scale:
        report.add_error(f"generator rows do not sum to zero (worst residual {worst:.3e})")

    # Unreachable states are almost always transcription bugs.
    _, unreachable = check_reachability(chain)
    if unreachable:
        report.add_error(
            f"states unreachable from {chain.state_names[0]!r}: {sorted(unreachable)}"
        )

    # Absorbing states make long-run availability trivially 0 or 1.
    absorbing = find_absorbing_states(chain)
    if absorbing:
        message = f"absorbing states present: {absorbing}"
        if allow_absorbing:
            report.add_warning(message)
        else:
            report.add_error(message)

    # An availability chain should have at least one up and one down state;
    # otherwise availability is identically one or zero.
    if not chain.up_states():
        report.add_warning("chain has no up states; availability is identically zero")
    if not chain.down_states():
        report.add_warning("chain has no down states; availability is identically one")

    if not report.ok and raise_on_error:
        raise MarkovChainError(
            f"chain {chain.name!r} failed validation: " + "; ".join(report.errors)
        )
    return report
