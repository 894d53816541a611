"""Row-transport bit-identity, kernel-compaction equivalence and pool tests.

How a stacked grid's rows reach a shard must be invisible in the results:
process-pool shards rebuild their rows from pickled scalars, in-process
shards slice one materialised grid, and the compacted kernels and their
gathered oracles (``tests/oracles.py``) all have to produce byte-identical ``MonteCarloResult``s, because they feed
the very same kernels the very same parameter rows and random streams.
This suite pins those guarantees, plus the operational ones — a pooled
grid leaves no helper process behind, no grid creates a shared-memory
segment even when its kernel raises, and the worker initializer (BLAS
pinning) actually runs in every pool worker.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.montecarlo import (
    MonteCarloConfig,
    replay_stacked_point,
    run_stacked,
)
from repro.core.montecarlo.parallel import worker_pool, worker_probe
from repro.core.montecarlo.simulator import simulate_conventional
from repro.core.montecarlo.transport import resolve_stacked_transport
from repro.core.parameters import paper_parameters
from repro.core.policies.base import SimulationPolicy
from repro.core.policies.stacked import stack_parameter_points
from repro.core.policies.vectorized import batch_conventional, batch_spare_pool
from repro.exceptions import SimulationError
from repro.simulation.rng import RandomStreams
from repro.storage.raid import RaidGeometry
from tests.oracles import batch_conventional_gathered, batch_spare_pool_gathered

HORIZON = 87_600.0

#: Elevated rates so short runs still see failures, repairs and wrong pulls.
STRESS = dict(disk_failure_rate=1e-4, hep=0.02)

BATCH_FIELDS = ("downtime_hours", "du_events", "dl_events", "disk_failures", "human_errors")


def _conventional_points(n_points):
    return [
        paper_parameters(disk_failure_rate=1e-4, hep=float(hep))
        for hep in np.linspace(0.0, 0.05, n_points)
    ]


def _erasure_points():
    return [
        paper_parameters(geometry=RaidGeometry.erasure(k, n), disk_failure_rate=rate, hep=0.1)
        for k, n, rate in ((2, 5, 2e-4), (4, 6, 1e-4))
    ]


#: Grids of the pickle-vs-view oracle: ``(policy, points, extra options)``.
#: The erasure grid rebuilds its per-row scheme planes worker-side on the
#: pickle path; the biased ``ci_width`` grid adds adaptive follow-up rounds.
GRIDS = {
    "scalar": ("conventional", _conventional_points(1), {}),
    "stacked": ("conventional", _conventional_points(4), {}),
    "erasure": ("erasure", _erasure_points(), {}),
    "biased-ci_width": (
        "conventional",
        [paper_parameters(disk_failure_rate=rate, hep=0.02) for rate in (5e-5, 2e-4)],
        dict(biasing=3.0, allocator="ci_width", target_half_width=1e-6, max_iterations=600),
    ),
}


#: Lifetimes per grid point (the first round of the adaptive grid).
ITERATIONS = 300


def _grid_configs(grid, workers, pool="process"):
    policy, points, extra = GRIDS[grid]
    return [
        MonteCarloConfig(
            params=params,
            policy=policy,
            n_iterations=ITERATIONS,
            horizon_hours=HORIZON,
            seed=11,
            workers=workers,
            pool=pool,
            shard_size=128,
            **extra,
        )
        for params in points
    ]


def _result_key(results):
    return [
        (
            r.availability,
            r.interval.half_width,
            r.interval.std_error,
            r.n_iterations,
            r.ess,
            tuple(sorted(r.totals.items())),
        )
        for r in results
    ]


class TestTransportBitIdentity:
    """Pickled rows and in-process views are byte-identical, any worker count."""

    def test_pool_decides_the_transport(self):
        assert resolve_stacked_transport(pooled=True) == "pickle"
        assert resolve_stacked_transport(pooled=False) == "view"

    @pytest.mark.parametrize(
        "grid,crn",
        [(grid, crn) for grid in GRIDS for crn in (False, True)
         # Adaptive rounds re-plan from merged widths; they refuse CRN.
         if not (crn and "target_half_width" in GRIDS[grid][2])],
        ids=lambda value: {False: "plain", True: "crn"}.get(value, value),
    )
    def test_pickle_equals_view_across_worker_counts(self, grid, crn):
        reference = run_stacked(_grid_configs(grid, 1, pool="serial"), crn=crn)
        if "target_half_width" in GRIDS[grid][2]:
            assert sum(r.n_iterations for r in reference) > ITERATIONS * len(reference)
        for workers in (1, 2, 4):
            results = run_stacked(_grid_configs(grid, workers), crn=crn)
            assert _result_key(results) == _result_key(reference), workers

    def test_replay_matches_grid_run_on_every_transport(self):
        for pool in ("process", "serial"):
            configs = _grid_configs("stacked", 2, pool=pool)
            grid = run_stacked(configs)
            for point in range(len(configs)):
                replayed = replay_stacked_point(configs, point)
                assert replayed.availability == grid[point].availability
                assert replayed.totals == grid[point].totals
                assert replayed.n_iterations == grid[point].n_iterations

    def test_unknown_transport_rejected(self):
        with pytest.raises(TypeError, match="transport"):
            MonteCarloConfig(transport="pickle")


#: Runs one pooled stacked grid, then reports the ``multiprocessing``
#: resource tracker's pipe and every child process still alive.
_POOLED_GRID_SCRIPT = """
import json, os
from multiprocessing import resource_tracker
from repro.core.montecarlo import MonteCarloConfig, run_stacked
from repro.core.parameters import paper_parameters

configs = [
    MonteCarloConfig(
        params=paper_parameters(disk_failure_rate=1e-4, hep=hep),
        policy="conventional", n_iterations=200, seed=5,
        workers=2, pool="process", shard_size=64, kernel="numpy",
    )
    for hep in (0.0, 0.02)
]
run_stacked(configs)
children = []
for entry in os.listdir("/proc"):
    if entry.isdigit():
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rpartition(")")[2].split()[1]) == os.getpid():
            children.append(int(entry))
print(json.dumps({
    "tracker_fd": resource_tracker._resource_tracker._fd,
    "children": children,
}))
"""


class TestNoHelperProcess:
    """A pooled grid starts no process that outlives the call."""

    @pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc to list children")
    def test_pooled_grid_leaves_no_tracker_or_child(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _POOLED_GRID_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["tracker_fd"] is None
        assert report["children"] == []


def _exploding_batch(params, horizon_hours, n_lifetimes, rng, **kwargs):
    """A stacked-capable kernel that always fails (worker-side)."""
    raise SimulationError("intentional kernel failure (transport lifecycle test)")


EXPLODING_POLICY = SimulationPolicy(
    name="exploding",
    description="raises inside the worker to exercise cleanup paths",
    scalar=simulate_conventional,
    batch=_exploding_batch,
    supports_stacked=True,
)


class TestShmLifecycle:
    """No grid creates a shared-memory segment, on any exit path."""

    def test_no_segments_leak_after_successful_sweep(self, no_shared_memory):
        for workers in (1, 2):
            with no_shared_memory():
                run_stacked(_grid_configs("stacked", workers))

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pooled"])
    def test_no_segments_leak_after_failing_sweep(self, no_shared_memory, workers):
        configs = [
            MonteCarloConfig(
                params=paper_parameters(disk_failure_rate=1e-4, hep=hep),
                policy=EXPLODING_POLICY,
                n_iterations=200,
                horizon_hours=HORIZON,
                seed=3,
                workers=workers,
                shard_size=64,
            )
            for hep in (0.0, 0.01)
        ]
        with no_shared_memory():
            with pytest.raises(SimulationError, match="intentional kernel failure"):
                run_stacked(configs)


class TestWorkerInitializer:
    """The BLAS-pinning initializer runs in every pool worker."""

    def test_initializer_ran_in_each_worker(self):
        with worker_pool(2) as pool:
            assert pool is not None
            probes = [pool.submit(worker_probe) for _ in range(16)]
            seen = {}
            for probe in probes:
                pid, initialised = probe.result()
                seen[pid] = initialised
        assert seen, "no worker answered the probe"
        assert all(seen.values()), f"initializer missing in workers: {seen}"


#: Each compacted kernel paired with its gathered oracle.
CONVENTIONAL = (batch_conventional, batch_conventional_gathered)
SPARE_POOL = (batch_spare_pool, batch_spare_pool_gathered)


class TestCompactionEquivalence:
    """The compacted kernels and their gathered oracles are the same random experiment."""

    def _assert_equivalent(self, kernels, params, n, **kwargs):
        kernel, oracle = kernels
        rng_ref = RandomStreams(2017).stream("montecarlo")
        reference = oracle(params, HORIZON, n, rng_ref, **kwargs)
        rng_new = RandomStreams(2017).stream("montecarlo")
        compacted = kernel(params, HORIZON, n, rng_new, **kwargs)
        for field in BATCH_FIELDS:
            assert np.array_equal(
                getattr(reference, field), getattr(compacted, field)
            ), field
        # Stronger than equal outputs: the generators must end in the same
        # state, i.e. both paths drew the same numbers in the same order.
        assert rng_ref.bit_generator.state == rng_new.bit_generator.state

    @pytest.mark.parametrize(
        "kernels,kwargs",
        [
            (CONVENTIONAL, {}),
            (SPARE_POOL, {"n_spares": 1}),
            (SPARE_POOL, {"n_spares": 3}),
        ],
        ids=["conventional", "failover", "pool3"],
    )
    def test_scalar_params(self, kernels, kwargs):
        params = paper_parameters(**STRESS)
        self._assert_equivalent(kernels, params, 1500, **kwargs)

    @pytest.mark.parametrize(
        "kernels,kwargs",
        [(CONVENTIONAL, {}), (SPARE_POOL, {"n_spares": 2})],
        ids=["conventional", "pool"],
    )
    def test_stacked_grid(self, kernels, kwargs):
        points = [
            paper_parameters(disk_failure_rate=rate, hep=hep)
            for rate, hep in ((1e-4, 0.0), (5e-5, 0.02), (1e-5, 0.05))
        ]
        grid = stack_parameter_points(points, [500, 600, 400])
        self._assert_equivalent(kernels, grid, len(grid), **kwargs)

    def test_mixed_geometry_grid_with_per_row_pools(self):
        points = [
            paper_parameters(geometry=RaidGeometry.from_label("RAID5(3+1)"), **STRESS),
            paper_parameters(geometry=RaidGeometry.from_label("RAID5(7+1)"), **STRESS),
        ]
        grid = stack_parameter_points(points, [700, 500], n_spares=[1, 3])
        self._assert_equivalent(SPARE_POOL, grid, len(grid))
        self._assert_equivalent(CONVENTIONAL, grid, len(grid))

    def test_weibull_failure_clocks(self):
        points = [
            paper_parameters(disk_failure_rate=1e-4, hep=0.01, failure_shape=1.3),
            paper_parameters(disk_failure_rate=5e-5, hep=0.02, failure_shape=1.3),
        ]
        grid = stack_parameter_points(points, [400, 300])
        self._assert_equivalent(CONVENTIONAL, grid, len(grid))
