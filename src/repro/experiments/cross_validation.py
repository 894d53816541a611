"""Experiment EXP-XV — cross-backend validation of every dual-face policy.

The paper's central methodological claim is that its Markov chains and its
Monte Carlo simulator describe the *same* system: Fig. 4 demonstrates it for
the conventional policy only.  With every registered policy now carrying
both an analytical face and a simulation face behind one evaluation API,
this experiment generalises the check: **for each policy that has both
faces, the analytical steady-state availability must fall inside the Monte
Carlo confidence interval** at the evaluated operating point.

The Monte Carlo side runs on the sharded executor (so the experiment also
exercises the PR 2 merge path), and the experiment doubles as the CI smoke
job via ``python -m repro crossval --iterations <small>``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.availability.report import Table
from repro.core.evaluation import (
    analytical_policies,
    evaluate,
    evaluate_config,
    shared_pool,
)
from repro.core.montecarlo.config import PolicyRef, config_from_options
from repro.core.parameters import AvailabilityParameters, paper_parameters
from repro.core.policies.registry import resolve_policy
from repro.experiments.config import DEFAULTS
from repro.storage.raid import RaidGeometry


@dataclass(frozen=True)
class CrossValidationRow:
    """Analytical-vs-Monte-Carlo agreement for one policy."""

    policy: str
    analytical_availability: float
    analytical_nines: float
    mc_availability: float
    mc_ci_low: float
    mc_ci_high: float
    mc_half_width: float
    n_iterations: int
    within_ci: bool

    def as_dict(self) -> Dict[str, object]:
        """Return a serialisable row."""
        return {
            "policy": self.policy,
            "analytical_availability": self.analytical_availability,
            "analytical_nines": self.analytical_nines,
            "mc_availability": self.mc_availability,
            "mc_ci_low": self.mc_ci_low,
            "mc_ci_high": self.mc_ci_high,
            "mc_half_width": self.mc_half_width,
            "n_iterations": self.n_iterations,
            "within_ci": self.within_ci,
        }


def run_cross_validation(
    params: Optional[AvailabilityParameters] = None,
    policies: Optional[Sequence[PolicyRef]] = None,
    mc_iterations: int = DEFAULTS.mc_iterations,
    *,
    seed: Optional[int] = DEFAULTS.seed,
    pool=None,
    **options,
) -> List[CrossValidationRow]:
    """Validate analytical against Monte Carlo for every dual-face policy.

    Parameters
    ----------
    params:
        Operating point; defaults to the paper's Section V-B rates at an
        elevated failure rate (1e-4/h) and ``hep = 0.01`` so the Monte Carlo
        interval is informative at moderate iteration counts.
    policies:
        Policies to validate; defaults to every registered policy with an
        analytical face *except* periodic-scheme (checker-cycle) policies,
        whose sparse repair events would make the default smoke job flaky.
    mc_iterations, seed:
        Lifetimes and master seed of every policy's Monte Carlo run
        (``seed=None`` draws fresh entropy per policy).  The shard size is
        pinned to a quarter of ``mc_iterations``, so the drawn lifetimes
        are identical across ``workers`` values.
    pool:
        Optional externally owned worker pool; otherwise one pool is
        shared across policies.
    **options:
        Further Monte Carlo options (``workers``, ``kernel``,
        ``pool_kind``, ``confidence``, ...), as in
        :func:`~repro.core.evaluation.evaluate`.
    """
    if params is None:
        params = paper_parameters(
            geometry=RaidGeometry.raid5(3), disk_failure_rate=1e-4, hep=0.01
        )
    # Pinning the shard size keeps the drawn lifetimes identical across
    # --workers values, so the smoke job is reproducible on any machine.
    config = config_from_options(
        params=params,
        seed=seed,
        n_iterations=mc_iterations,
        shard_size=max(1, mc_iterations // 4),
        **options,
    )
    if policies is None:
        # Periodic-scheme policies (the erasure family) are excluded from the
        # default set: at sparse operating points the monthly checker sees so
        # few repair events that the Monte Carlo interval degenerates to
        # [1, 1] for a large fraction of seeds, making the smoke job flaky.
        # Validate them explicitly — ``policies=["erasure"]`` or the CLI's
        # ``crossval --policy erasure`` — at an event-rich operating point.
        chosen = [
            p
            for p in (resolve_policy(name) for name in analytical_policies())
            if not p.has_periodic_checks
        ]
    else:
        chosen = [resolve_policy(p) for p in policies]
    rows: List[CrossValidationRow] = []
    with shared_pool(config, pool) as policy_pool:
        for policy in chosen:
            analytical = evaluate(params, policy=policy, backend="analytical")
            mc = evaluate_config(replace(config, policy=policy), policy_pool)
            rows.append(
                CrossValidationRow(
                    policy=policy.name,
                    analytical_availability=analytical.availability,
                    analytical_nines=analytical.nines,
                    mc_availability=mc.availability,
                    mc_ci_low=mc.ci_lower,
                    mc_ci_high=mc.ci_upper,
                    mc_half_width=mc.half_width,
                    n_iterations=mc.n_iterations,
                    within_ci=mc.contains(analytical.availability),
                )
            )
    return rows


def cross_validation_table(rows: Sequence[CrossValidationRow]) -> Table:
    """Render the cross-backend validation as a report table."""
    table = Table(
        title="EXP-XV — analytical vs Monte Carlo, every dual-face policy",
        columns=[
            "policy",
            "analytical_nines",
            "mc_availability",
            "mc_ci_low",
            "mc_ci_high",
            "within_ci",
        ],
    )
    for row in rows:
        table.add_row(
            policy=row.policy,
            analytical_nines=row.analytical_nines,
            mc_availability=row.mc_availability,
            mc_ci_low=row.mc_ci_low,
            mc_ci_high=row.mc_ci_high,
            within_ci=str(row.within_ci),
        )
    table.add_note(
        "acceptance: the analytical steady-state availability lies inside the "
        "sharded Monte Carlo confidence interval for every policy"
    )
    return table


def all_within_ci(rows: Sequence[CrossValidationRow]) -> bool:
    """Return whether every policy's analytical value fell inside its CI."""
    return bool(rows) and all(row.within_ci for row in rows)
