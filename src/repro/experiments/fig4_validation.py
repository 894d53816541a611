"""Experiment EXP-F4 — Fig. 4: validation of the Markov model against Monte Carlo.

The paper's Fig. 4 plots availability (in nines) versus disk failure rate
for ``hep = 0.001`` and ``hep = 0.01``, showing that the Markov prediction
falls inside the Monte Carlo confidence interval at every point.  This
module reruns that validation through the backend-agnostic evaluation API:
each (failure rate, hep) grid point is evaluated **twice through the same
front door** — once on the ``"analytical"`` backend (the conventional
policy's Fig. 2 chain) and once on the ``"monte_carlo"`` backend — and the
report records both values, the Monte Carlo interval and whether the
analytical value is inside it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.availability.report import Table
from repro.core.evaluation import evaluate
from repro.core.montecarlo.parallel import worker_pool
from repro.core.parameters import paper_parameters
from repro.experiments.config import DEFAULTS, FIG4_HEP_VALUES, fig4_failure_rates
from repro.storage.raid import RaidGeometry


@dataclass(frozen=True)
class ValidationPoint:
    """One grid point of the Fig. 4 validation."""

    disk_failure_rate: float
    hep: float
    markov_availability: float
    markov_nines: float
    mc_availability: float
    mc_nines: float
    mc_ci_low: float
    mc_ci_high: float
    markov_within_ci: bool

    def as_dict(self) -> Dict[str, object]:
        """Return a serialisable row."""
        return {
            "disk_failure_rate": self.disk_failure_rate,
            "hep": self.hep,
            "markov_availability": self.markov_availability,
            "markov_nines": self.markov_nines,
            "mc_availability": self.mc_availability,
            "mc_nines": self.mc_nines,
            "mc_ci_low": self.mc_ci_low,
            "mc_ci_high": self.mc_ci_high,
            "markov_within_ci": self.markov_within_ci,
        }


def run_fig4_validation(
    failure_rates: Optional[Sequence[float]] = None,
    hep_values: Sequence[float] = FIG4_HEP_VALUES,
    mc_iterations: int = DEFAULTS.mc_iterations,
    mc_horizon_hours: float = DEFAULTS.mc_horizon_hours,
    seed: int = DEFAULTS.seed,
    workers: int = 1,
    pool=None,
) -> List[ValidationPoint]:
    """Run the validation grid and return one point per (rate, hep) pair.

    The Monte Carlo side runs on the policy's batch kernel.  ``workers > 1``
    fans each grid point's iteration budget out over the sharded
    multi-process executor; ``pool`` optionally shares a caller-owned
    executor (e.g. across several experiments).
    """
    rates = list(failure_rates) if failure_rates is not None else fig4_failure_rates()
    points: List[ValidationPoint] = []
    # One pool for the whole grid: pool startup is paid once, not per point.
    context = nullcontext(pool) if pool is not None else worker_pool(workers)
    with context as grid_pool:
        for hep in hep_values:
            for rate in rates:
                points.append(
                    _validate_point(
                        rate, hep, mc_iterations, mc_horizon_hours, seed,
                        workers, grid_pool,
                    )
                )
    return points


def _validate_point(
    rate: float,
    hep: float,
    mc_iterations: int,
    mc_horizon_hours: float,
    seed: int,
    workers: int,
    pool,
) -> ValidationPoint:
    """Run one (rate, hep) grid point of the validation."""
    params = paper_parameters(
        geometry=RaidGeometry.raid5(3), disk_failure_rate=rate, hep=hep
    )
    markov = evaluate(params, policy="conventional", backend="analytical")
    mc = evaluate(
        params,
        policy="conventional",
        backend="monte_carlo",
        horizon_hours=mc_horizon_hours,
        n_iterations=mc_iterations,
        confidence=DEFAULTS.mc_confidence,
        seed=seed,
        workers=workers,
        pool=pool,
    )
    return ValidationPoint(
        disk_failure_rate=rate,
        hep=hep,
        markov_availability=markov.availability,
        markov_nines=markov.nines,
        mc_availability=mc.availability,
        mc_nines=mc.nines,
        mc_ci_low=mc.ci_lower,
        mc_ci_high=mc.ci_upper,
        markov_within_ci=mc.contains(markov.availability),
    )


def fig4_table(points: Sequence[ValidationPoint]) -> Table:
    """Render the validation grid as the Fig. 4 series table."""
    table = Table(
        title="Fig. 4 — Markov vs Monte Carlo validation (RAID5 3+1)",
        columns=[
            "failure_rate",
            "hep",
            "markov_nines",
            "mc_nines",
            "mc_ci_low",
            "mc_ci_high",
            "markov_within_ci",
        ],
    )
    for point in points:
        table.add_row(
            failure_rate=point.disk_failure_rate,
            hep=point.hep,
            markov_nines=point.markov_nines,
            mc_nines=point.mc_nines,
            mc_ci_low=point.mc_ci_low,
            mc_ci_high=point.mc_ci_high,
            markov_within_ci=str(point.markov_within_ci),
        )
    table.add_note(
        "paper: Markov availability lies within the MC 99% interval for hep=0.001 and 0.01"
    )
    return table


def agreement_fraction(points: Sequence[ValidationPoint]) -> float:
    """Return the fraction of grid points where Markov falls inside the MC CI."""
    if not points:
        return 0.0
    return sum(1 for p in points if p.markov_within_ci) / len(points)
