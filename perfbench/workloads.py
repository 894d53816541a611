"""The benchmark's workloads.

``BENCHMARK.json`` gates ``reproduce``, ``stacked_surface`` and
``rare_query``.  ``solve_queries`` runs the same way by name but is left out
of the gated set: on the 2-core host it was tuned on, its run-to-run spread
(0.19-0.23 of the median) sat too close to the largest allowed bound.

Each workload is one closed-loop client calling the library's public API
with the library defaults (``kernel=auto``, ``transport=auto``,
``pool=process``) and ``workers = nproc``.  Every input is generated from
the run's ``--seed``.  A workload runs in *passes*: a pass is a fixed unit
of user work (see each class), timed from the first call to the last.
Cheap output checks run after every pass, outside its timing; the costly
ones run once, in :meth:`Workload.final_checks`.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro import RaidGeometry, evaluate, paper_parameters, sweep_grid
from repro.core.evaluation import evaluate_stacked
from repro.core.montecarlo.config import DEFAULT_HORIZON_HOURS, MonteCarloConfig
from repro.core.montecarlo.parallel import replay_stacked_point
from repro.core.policies.registry import resolve_policy
from repro.exceptions import ReproError
from repro.experiments.config import DEFAULTS
from repro.experiments.runner import run_all_experiments
from repro.markov import steady_state_availability

#: Relative tolerance between a cached analytical answer and a fresh rebuild.
REBUILD_RTOL = 1e-9


def nproc() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass
class PassResult:
    """What one pass did; ``query_ms`` times each single-point query."""

    wall_s: float
    query_ms: List[float] = field(default_factory=list)
    lifetimes: int = 0
    attempted: int = 0
    failed: int = 0
    mc_points: int = 0
    ci_misses: int = 0
    layer: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: seeded inputs, one pass per call, accumulated problems."""

    name = ""

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workers = nproc()
        self.problems: List[str] = []

    def pass_seed(self, index: int) -> int:
        """Seed of pass ``index``, derived from the run's seed."""
        return int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Costly correctness checks on the last pass; append to problems."""

    def _check_estimate(self, label: str, availability: float) -> bool:
        """Every Monte Carlo estimate is finite and inside [0, 1]."""
        if not (math.isfinite(availability) and 0.0 <= availability <= 1.0):
            self.problems.append(f"{label}: estimate {availability!r} not finite in [0, 1]")
            return False
        return True


class Reproduce(Workload):
    """``run_all_experiments``: the paper's whole evaluation, one call per pass."""

    name = "reproduce"
    #: Tables of the report that hold Monte Carlo intervals, with the column
    #: holding their analytical counterpart (in nines).
    MC_TABLES = {"Fig. 4": "markov_nines", "EXP-XV": "analytical_nines",
                 "EXP-S1": None, "EXP-SCRUB": "analytical_nines"}

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        self.iterations = 2_000 if smoke else DEFAULTS.mc_iterations

    def run_pass(self, index: int) -> PassResult:
        start = time.perf_counter()
        report = run_all_experiments(
            mc_iterations=self.iterations, workers=self.workers, seed=self.pass_seed(index)
        )
        wall = time.perf_counter() - start
        result = PassResult(wall_s=wall, attempted=1)
        for key, value in report.headline.items():
            if not math.isfinite(value):
                self.problems.append(f"reproduce: headline {key} = {value!r}")
        for table in report.tables:
            prefix = next((p for p in self.MC_TABLES if table.title.startswith(p)), None)
            if prefix is None:
                continue
            truth_column = self.MC_TABLES[prefix]
            for row in table.rows:
                result.lifetimes += self.iterations
                low = row.get("mc_ci_low", row.get("ci_low"))
                high = row.get("mc_ci_high", row.get("ci_high"))
                if not (math.isfinite(low) and math.isfinite(high)):
                    self.problems.append(f"reproduce: {prefix} interval [{low}, {high}]")
                    result.failed += 1
                if "mc_availability" in row and not self._check_estimate(prefix, row["mc_availability"]):
                    result.failed += 1
                if truth_column is not None:
                    truth = 1.0 - 10.0 ** (-row[truth_column])
                    result.mc_points += 1
                    result.ci_misses += not (low <= truth <= high)
        return result


class StackedSurface(Workload):
    """A Fig-5-style Monte Carlo surface, hep x failure rate, per policy.

    One pass is one ``sweep_grid`` call per policy.
    """

    name = "stacked_surface"
    POLICIES = ("conventional", "automatic_failover")

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        side = 3 if smoke else 8
        self.heps = [float(v) for v in np.linspace(0.0, 0.1, side)]
        self.rates = [float(v) for v in np.logspace(-6, -4, side)]
        self.lifetimes = 500 if smoke else 10_000
        self.base = paper_parameters()
        self.truth = {
            policy: [
                point.availability
                for row in sweep_grid(self.base, "hep", self.heps, "disk_failure_rate",
                                      self.rates, policy=policy, backend="analytical").points
                for point in row
            ]
            for policy in self.POLICIES
        }
        self.last: Tuple[int, Dict[str, object]] = (0, {})

    def _grid(self, policy: str, seed: int):
        return sweep_grid(
            self.base, "hep", self.heps, "disk_failure_rate", self.rates,
            policy=policy, backend="monte_carlo", mc_iterations=self.lifetimes,
            workers=self.workers, seed=seed,
        )

    def run_pass(self, index: int) -> PassResult:
        seed = self.pass_seed(index)
        start = time.perf_counter()
        grids = {policy: self._grid(policy, seed) for policy in self.POLICIES}
        result = PassResult(wall_s=time.perf_counter() - start)
        for policy, grid in grids.items():
            points = [point for row in grid.points for point in row]
            result.attempted += 1
            result.lifetimes += self.lifetimes * len(points)
            for point, truth in zip(points, self.truth[policy]):
                ok = self._check_estimate(policy, point.availability)
                if not ok or point.retried_shards or point.interrupted:
                    result.failed += 1
                result.mc_points += 1
                result.ci_misses += not (point.ci_lower <= truth <= point.ci_upper)
        self.last = (seed, grids)
        return result

    def final_checks(self) -> None:
        """One seeded grid point, replayed alone, equals the grid bit for bit."""
        seed, grids = self.last
        rng = np.random.default_rng(self.seed)
        policy = self.POLICIES[int(rng.integers(len(self.POLICIES)))]
        index = int(rng.integers(len(self.heps) * len(self.rates)))
        configs = [
            MonteCarloConfig(
                params=replace(self.base, hep=hep, disk_failure_rate=rate),
                policy=resolve_policy(policy), horizon_hours=DEFAULT_HORIZON_HOURS,
                n_iterations=self.lifetimes, seed=seed, workers=self.workers,
            )
            for hep in self.heps
            for rate in self.rates
        ]
        replayed = replay_stacked_point(configs, index)
        point = grids[policy].points[index // len(self.rates)][index % len(self.rates)]
        if (replayed.availability, replayed.interval.lower, replayed.interval.upper) != (
            point.availability, point.ci_lower, point.ci_upper
        ):
            self.problems.append(
                f"stacked_surface: replay of {policy} point {index} differs from the grid"
            )


class RareQuery(Workload):
    """An importance-sampled adaptive five-nines query with a journal.

    One pass is one ``evaluate_stacked`` call with ``biasing``, the
    ``ci_width`` allocator, a half-width target and a ceiling, checkpointed
    to a fresh journal.  After the timed call the journal is resumed.  Pass
    0 (the untimed warm-up) always runs at seed 2017, where the
    lambda=1e-6/hep=0.001 point is known to stop early with an interval
    that excludes the analytical value; it counts in ``ci_miss_fraction``.
    """

    name = "rare_query"
    KNOWN_DEFECT_SEED = 2017
    BIASING = 5.0

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        self.points = [
            paper_parameters(disk_failure_rate=rate, hep=hep)
            for rate in (1e-6, 2e-6)
            for hep in (0.001, 0.01)
        ]
        self.first_round = 500 if smoke else 5_000
        self.ceiling = 20_000 if smoke else 500_000
        self.target = 5e-8 if smoke else 5e-9

    def _query(self, seed: int, **journal):
        return evaluate_stacked(
            self.points, "conventional", n_iterations=self.first_round, seed=seed,
            workers=self.workers, biasing=self.BIASING, allocator="ci_width",
            target_half_width=self.target, max_iterations=self.ceiling, **journal,
        )

    def run_pass(self, index: int) -> PassResult:
        seed = self.KNOWN_DEFECT_SEED if index == 0 else self.pass_seed(index)
        journal = self.workdir / f"rare-{index}.jsonl"
        start = time.perf_counter()
        estimates = self._query(seed, checkpoint=str(journal))
        wall = time.perf_counter() - start
        result = PassResult(wall_s=wall, attempted=1)
        start = time.perf_counter()
        resumed = self._query(seed, resume=str(journal))
        result.layer["journal.resume_s"] = time.perf_counter() - start
        shards = len(journal.read_text(encoding="ascii").splitlines()) - 1
        result.layer["journal.bytes"] = float(journal.stat().st_size)
        journal.unlink()
        if resumed[0].resumed_shards != shards:
            self.problems.append(
                f"rare_query: resume reused {resumed[0].resumed_shards} of {shards} shards"
            )
        for fresh, again in zip(estimates, resumed):
            result.lifetimes += fresh.n_iterations
            if (fresh.availability, fresh.ci_lower, fresh.ci_upper, fresh.n_iterations) != (
                again.availability, again.ci_lower, again.ci_upper, again.n_iterations
            ):
                self.problems.append(f"rare_query: resumed estimate differs at seed {seed}")
            if not (fresh.half_width <= self.target or fresh.n_iterations >= self.ceiling):
                self.problems.append(
                    f"rare_query: point stopped at {fresh.n_iterations} lifetimes "
                    f"with half-width {fresh.half_width:.3g} above target"
                )
            ok = self._check_estimate("rare_query", fresh.availability)
            if not ok or fresh.retried_shards or fresh.interrupted:
                result.failed += 1
            result.mc_points += 1
            result.ci_misses += not fresh.contains(fresh.analytical_reference)
        return result


def _solve_shapes():
    """(geometry, policy) shapes of the analytical query mix."""
    shapes = [(RaidGeometry.raid1(), policy) for policy in StackedSurface.POLICIES]
    shapes += [
        (RaidGeometry.raid5(data), policy)
        for data in range(2, 40)
        for policy in StackedSurface.POLICIES
    ]
    shapes += [(RaidGeometry.erasure(k, n), "erasure") for k, n in ((3, 5), (4, 6), (6, 9), (10, 14))]
    return shapes


class SolveQueries(Workload):
    """Single-point analytical queries from one client, a seeded Zipf mix.

    One pass is a block of queries.  Shapes are ranked by a fixed
    permutation (the same mix on every seed) and drawn with Zipf weights;
    the run's seed draws the query sequence.  Failure rates are log-uniform
    over 1e-7..1e-4 /h and hep is 0 for 30% of queries (a different chain
    structure), else log-uniform over 1e-4..1e-1.  With two structures per
    chain shape that is about 160 structures against the 64-entry template
    cache.
    """

    name = "solve_queries"
    ZIPF_EXPONENT = 1.1
    MIX_SEED = 2017
    ZERO_HEP_SHARE = 0.3
    SAMPLE_PER_PASS = 5

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        self.shapes = _solve_shapes()
        self.rng = np.random.default_rng(self.seed)
        ranks = np.arange(1, len(self.shapes) + 1, dtype=float) ** -self.ZIPF_EXPONENT
        self.weights = ranks / ranks.sum()
        self.order = np.random.default_rng(self.MIX_SEED).permutation(len(self.shapes))
        self.block = 50 if smoke else 1_000
        self.sample: List[Tuple[object, str, float]] = []

    def run_pass(self, index: int) -> PassResult:
        n = self.block
        picks = self.order[self.rng.choice(len(self.shapes), size=n, p=self.weights)]
        rates = 10.0 ** self.rng.uniform(-7.0, -4.0, n)
        heps = np.where(
            self.rng.random(n) < self.ZERO_HEP_SHARE, 0.0, 10.0 ** self.rng.uniform(-4.0, -1.0, n)
        )
        answers = []
        result = PassResult(wall_s=0.0, attempted=n)
        start = time.perf_counter()
        for pick, rate, hep in zip(picks, rates, heps):
            geometry, policy = self.shapes[pick]
            params = paper_parameters(geometry=geometry, disk_failure_rate=rate, hep=hep)
            call = time.perf_counter()
            try:
                estimate = evaluate(params, policy=policy, backend="analytical")
            except ReproError:
                result.failed += 1
                estimate = None
            result.query_ms.append((time.perf_counter() - call) * 1e3)
            answers.append((params, policy, estimate))
        result.wall_s = time.perf_counter() - start
        for params, policy, estimate in answers:
            if estimate is not None and not math.isfinite(estimate.unavailability):
                self.problems.append(f"solve_queries: non-finite answer for {policy}")
                result.failed += 1
        chained = [item for item in answers if item[1] != "erasure" and item[2] is not None]
        for position in self.rng.choice(len(chained), size=min(self.SAMPLE_PER_PASS, len(chained)), replace=False):
            params, policy, estimate = chained[position]
            self.sample.append((params, policy, estimate.unavailability))
        return result

    def final_checks(self) -> None:
        """Sampled answers equal a fresh chain build and steady-state solve."""
        for params, policy, unavailability in self.sample:
            fresh = steady_state_availability(resolve_policy(policy).build_chain(params))
            if abs(unavailability - fresh.unavailability) > REBUILD_RTOL * abs(fresh.unavailability):
                self.problems.append(
                    f"solve_queries: {policy} {params.geometry.label} answer "
                    f"{unavailability!r} != fresh rebuild {fresh.unavailability!r}"
                )


WORKLOADS = {cls.name: cls for cls in (Reproduce, StackedSurface, RareQuery, SolveQueries)}
