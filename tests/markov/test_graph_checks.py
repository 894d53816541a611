"""The graph checks give the answers of two independent references.

``check_reachability`` and ``is_irreducible`` search the positive-rate
transitions directly.  These tests hold the searches to a boolean transitive
closure computed with numpy, on seeded random chains and on every registered
policy's chain, and also to networkx's verdicts where networkx is installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import paper_parameters
from repro.core.policies.registry import available_policies, get_policy
from repro.markov import (
    MarkovChain,
    State,
    Transition,
    check_reachability,
    is_irreducible,
    to_networkx,
)


def random_chain(rng: np.random.Generator) -> MarkovChain:
    """A chain of 1-9 states with sparse random edges, some of rate zero."""
    n = int(rng.integers(1, 10))
    names = [f"S{i}" for i in range(n)]
    density = rng.uniform(0.05, 0.6)
    transitions = [
        Transition(a, b, float(rng.choice([0.0, rng.uniform(1e-6, 2.0)], p=[0.2, 0.8])))
        for a in names for b in names
        if a != b and rng.uniform() < density
    ]
    return MarkovChain([State(name, up=i % 2 == 0) for i, name in enumerate(names)], transitions)


def policy_chains():
    params = paper_parameters()
    cases = []
    for name in available_policies():
        policy = get_policy(name)
        if policy.has_analytical_model:
            for hep in (0.0, params.hep):
                cases.append(pytest.param(policy, params.with_hep(hep), id=f"{name}-hep{hep}"))
    return cases


def closure(chain: MarkovChain) -> np.ndarray:
    """``reach[i, j]``: state j is reachable from state i over positive rates."""
    reach = np.eye(chain.n_states, dtype=bool)
    for transition in chain.transitions:
        if transition.rate > 0.0:
            reach[chain.index_of(transition.source), chain.index_of(transition.target)] = True
    while True:
        wider = reach | ((reach.astype(np.int64) @ reach.astype(np.int64)) > 0)
        if (wider == reach).all():
            return reach
        reach = wider


def assert_matches_references(chain: MarkovChain) -> None:
    names = chain.state_names
    reach = closure(chain)
    for i, start in enumerate(names):
        expected = {names[j] for j in np.flatnonzero(reach[i])}
        reachable, unreachable = check_reachability(chain, start)
        assert reachable == expected
        assert unreachable == set(names) - expected
    assert check_reachability(chain) == check_reachability(chain, names[0])
    assert is_irreducible(chain) == bool(reach.all())
    try:
        import networkx as nx
    except ImportError:
        return
    graph = to_networkx(chain)
    for start in names:
        assert check_reachability(chain, start)[0] == set(nx.descendants(graph, start)) | {start}
    assert is_irreducible(chain) == (chain.n_states <= 1 or nx.is_strongly_connected(graph))


def test_random_chains_match_the_references():
    rng = np.random.default_rng(2017)
    verdicts = set()
    for _ in range(400):
        chain = random_chain(rng)
        assert_matches_references(chain)
        verdicts.add(is_irreducible(chain))
    # The sample covers both answers.
    assert verdicts == {True, False}


@pytest.mark.parametrize("policy, params", policy_chains())
def test_policy_chains_match_the_references(policy, params):
    assert_matches_references(policy.build_chain(params))


def test_a_zero_rate_edge_does_not_connect():
    chain = MarkovChain(
        [State("A"), State("B", up=False)],
        [Transition("A", "B", 1.0), Transition("B", "A", 0.0)],
    )
    assert not is_irreducible(chain)
    assert check_reachability(chain, "B") == ({"B"}, {"A"})
