"""Span recorder for the traced benchmark run.

Nothing under ``src/`` knows about this module.  The tracer wraps public
functions of the ``repro`` layers from the outside, for the duration of one
traced pass, and restores the originals afterwards:

* every module attribute (and class attribute) that holds a wrapped
  function is swapped, so call sites that did ``from x import f`` are timed
  too;
* the wrappers are installed before any worker pool of the pass forks, so
  forked workers inherit them;
* ``ProcessPoolExecutor.submit`` wraps each submitted shard in
  :class:`TimedCall`, which records queue wait and busy time in the worker
  and ships the worker-side sums back through a per-process spool file
  that the parent reads after the pass.

Sums are kept per metric name.  A metric's time counts only its outermost
call, so recursive or nested calls of the same layer are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro.core.evaluation as evaluation
from repro.core.montecarlo.journal import ShardJournal
from repro.core.montecarlo.transport import SharedGridPlanes
from repro.core.policies.base import SimulationPolicy
from repro.core.policies.stacked import STACKED_PLANE_FIELDS
from repro.markov.template import ChainTemplate, TemplateEvaluator
from repro.simulation.confidence import StreamingMoments

#: The installed tracer.  Worker processes reach it through this name after
#: fork, which is why it is module state rather than an argument.
_ACTIVE: Optional["Tracer"] = None

#: Layer events summed over every event of one field.
_KERNEL_EVENT_FIELDS = ("disk_failures", "human_errors", "du_events", "dl_events")


def _grid_bytes(grid) -> int:
    """Bytes of a materialised :class:`StackedParams` grid's planes."""
    total = 0
    for item in fields(grid):
        plane = getattr(grid, item.name)
        if plane is not None:
            total += plane.nbytes
    return total


def _planes_bytes(planes) -> int:
    """Bytes of a shared-memory plane segment, from its attach spec."""
    spec = planes.spec
    n_planes = len(STACKED_PLANE_FIELDS) + int(spec.has_spares) + 3 * int(spec.has_schemes)
    return 8 * spec.n_rows * n_planes


class TimedCall:
    """Picklable shard wrapper: times one pooled task inside its worker."""

    def __init__(self, fn: Callable, submitted: float, pool_created: float) -> None:
        self.fn = fn
        self.submitted = submitted
        self.pool_created = pool_created

    def __call__(self, *args, **kwargs):
        # A forked worker inherits the parent's sums; start this task afresh.
        tracer = _ACTIVE
        tracer.sink, tracer.depth = defaultdict(float), defaultdict(int)
        start = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            record = {
                "pool_created": self.pool_created,
                "submitted": self.submitted,
                "start": start,
                "end": end,
                "sums": dict(tracer.sink),
            }
            spool = Path(tracer.spool_dir) / f"{os.getpid()}.jsonl"
            with spool.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")


class Tracer:
    """Sums of layer time and counts over one traced pass.

    Use as a context manager around the pass; :meth:`collect` then returns
    the parent's sums merged with every worker's.
    """

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.sink: Dict[str, float] = defaultdict(float)
        self.depth: Dict[str, int] = defaultdict(int)
        self.ess_ratios: List[float] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def add(self, name: str, value: float = 1.0) -> None:
        self.sink[name] += value

    def _timed(self, time_name: Optional[str], count_name: Optional[str] = None, after=None):
        """Wrapper factory: time the outermost call, count every call."""

        def factory(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if count_name is not None:
                    self.add(count_name)
                if time_name is not None:
                    self.depth[time_name] += 1
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    if time_name is not None:
                        self.depth[time_name] -= 1
                        if self.depth[time_name] == 0:
                            self.add(time_name, time.perf_counter() - start)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        return factory

    # -- patching ------------------------------------------------------
    def _patch_function(self, module_name: str, name: str, factory) -> None:
        """Swap every ``repro`` module attribute bound to the function."""
        original = getattr(importlib.import_module(module_name), name)
        wrapped = factory(original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append(functools.partial(setattr, module, attr, original))

    def _patch_method(self, cls, name: str, factory, kind=None) -> None:
        raw = cls.__dict__[name]
        function = raw.__func__ if kind is not None else raw
        wrapped = factory(function)
        setattr(cls, name, kind(wrapped) if kind is not None else wrapped)
        self._undo.append(functools.partial(setattr, cls, name, raw))

    def install(self) -> None:
        """Wrap the layers' public functions (parent and future workers)."""
        global _ACTIVE
        for module, drivers in EXPERIMENT_DRIVERS.items():
            for driver in drivers:
                self._patch_function(
                    f"repro.experiments.{module}", driver,
                    self._timed(f"experiments.{module}_s"),
                )

        def template_lookup(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                misses = evaluation.template_cache_stats()["misses"]
                start = time.perf_counter()
                result = original(*args, **kwargs)
                if evaluation.template_cache_stats()["misses"] > misses:
                    self.add("evaluation.template_build_s", time.perf_counter() - start)
                return result

            return wrapper

        self._patch_function("repro.core.evaluation", "chain_template", template_lookup)
        self._patch_method(TemplateEvaluator, "solve", self._timed("markov.solve_s", "markov.solve_calls"))
        self._patch_method(ChainTemplate, "solve_many", self._timed("markov.solve_s", "markov.solve_calls"))
        self._patch_function(
            "repro.markov.checker", "cycle_stationary_availability",
            self._timed("markov.checker_s"),
        )

        parallel = "repro.core.montecarlo.parallel"
        self._patch_function(parallel, "run_shard", self._timed(None, "parallel.shards"))
        self._patch_function(parallel, "plan_shards", self._timed(None, "parallel.rounds"))
        self._patch_function(parallel, "plan_stacked_shards", self._timed(None, "parallel.rounds"))
        self._patch_function(parallel, "run_sharded", self._timed(None, after=self._results_seen))
        self._patch_function(parallel, "run_stacked_sharded", self._timed(None, after=self._results_seen))
        self._patch_pool()

        self._patch_function(
            "repro.core.policies.stacked", "stack_parameter_points",
            self._timed("transport.materialise_s", after=lambda a, k, grid: self.add("transport.grid_bytes", _grid_bytes(grid))),
        )
        self._patch_method(
            SharedGridPlanes, "from_points",
            self._timed("transport.materialise_s", after=lambda a, k, planes: self.add("transport.grid_bytes", _planes_bytes(planes))),
            kind=classmethod,
        )

        def kernel_done(args, kwargs, batch):
            self.add("policies.kernel_lifetimes", len(batch))
            self.add("policies.kernel_events", float(sum(getattr(batch, key).sum() for key in _KERNEL_EVENT_FIELDS)))

        self._patch_method(SimulationPolicy, "simulate_batch", self._timed("policies.kernel_s", after=kernel_done))
        self._patch_method(SimulationPolicy, "simulate_stacked", self._timed("policies.kernel_s", after=kernel_done))
        self._patch_function(
            "repro.core.policies.vectorized", "batch_erasure",
            self._timed("policies.kernel_s", after=kernel_done),
        )

        batch = "repro.core.montecarlo.batch"
        self._patch_function(
            batch, "segment_point_records",
            self._timed("batch.summarise_s", after=lambda a, k, r: self.add("parallel.shards")),
        )
        self._patch_function(batch, "summarise_batch", self._timed("batch.summarise_s"))
        self._patch_method(StreamingMoments, "from_samples", self._timed("batch.summarise_s"), kind=classmethod)
        self._patch_method(StreamingMoments, "merge", self._timed("confidence.merge_s", "confidence.merge_calls"))

        self._patch_method(ShardJournal, "append", self._timed("journal.append_s", "journal.appends"))

        _ACTIVE = self

    def _results_seen(self, args, kwargs, result) -> None:
        """Record retries and the useful-to-attempted ESS ratio of a run."""
        results = result if isinstance(result, list) else [result]
        for item in results:
            self.add("parallel.retries", item.retried_shards)
            if item.ess is not None and item.n_iterations:
                self.ess_ratios.append(item.ess / item.n_iterations)

    def _patch_pool(self) -> None:
        original_init = ProcessPoolExecutor.__init__
        original_submit = ProcessPoolExecutor.submit

        @functools.wraps(original_init)
        def init(pool, *args, **kwargs):
            original_init(pool, *args, **kwargs)
            pool._perfbench_created = time.perf_counter()

        @functools.wraps(original_submit)
        def submit(pool, fn, /, *args, **kwargs):
            created = getattr(pool, "_perfbench_created", time.perf_counter())
            return original_submit(pool, TimedCall(fn, time.perf_counter(), created), *args, **kwargs)

        ProcessPoolExecutor.__init__ = init
        ProcessPoolExecutor.submit = submit
        self._undo.append(functools.partial(setattr, ProcessPoolExecutor, "__init__", original_init))
        self._undo.append(functools.partial(setattr, ProcessPoolExecutor, "submit", original_submit))

    def uninstall(self) -> None:
        global _ACTIVE
        while self._undo:
            self._undo.pop()()
        _ACTIVE = None

    def __enter__(self) -> "Tracer":
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- collection ----------------------------------------------------
    def collect(self) -> Dict[str, float]:
        """Merge the workers' spooled records into the parent's sums.

        Adds ``parallel.queue_wait_s`` (submit to start), ``worker_busy_s``
        (start to end) and ``pool_start_s`` (pool creation to its first
        task's start, summed over pools).
        """
        sums = defaultdict(float, self.sink)
        first_start: Dict[float, float] = {}
        for spool in sorted(self.spool_dir.glob("*.jsonl")):
            for line in spool.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                for name, value in record["sums"].items():
                    sums[name] += value
                sums["parallel.queue_wait_s"] += record["start"] - record["submitted"]
                sums["parallel.worker_busy_s"] += record["end"] - record["start"]
                created = record["pool_created"]
                first_start[created] = min(first_start.get(created, record["start"]), record["start"])
            spool.unlink()
        sums["parallel.pool_start_s"] += sum(start - created for created, start in first_start.items())
        return dict(sums)


#: Experiment driver functions timed per module (``experiments.<module>_s``).
EXPERIMENT_DRIVERS = {
    "fig4_validation": ("run_fig4_validation",),
    "cross_validation": ("run_cross_validation",),
    "hot_spare": ("run_hot_spare_study",),
    "scrub_interval": ("run_scrub_interval_study",),
    "fig5_hep_sweep": ("run_fig5_sweep", "run_fig5_surface"),
    "fig6_raid_comparison": ("run_fig6_comparison",),
    "fig7_failover": ("run_fig7_comparison",),
    "underestimation": ("run_underestimation_study", "headline_factor"),
}
