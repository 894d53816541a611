"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` alternates untraced and traced passes: the traced ones give
the per-layer metrics (see ``perfbench/layers.json``), the ratio of the
two gives ``trace_overhead``.  Every run checks the workload's outputs; a
failed check prints ``"correct": false`` and exits with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a readable report and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics, gated by the bounds in BENCHMARK.json.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Modules whose cumulative import time ``-X importtime`` reports as
#: ``setup.import_<name>_s``.
SETUP_MODULES = (
    "repro", "repro.availability", "repro.core", "repro.distributions",
    "repro.human", "repro.markov", "repro.simulation", "repro.storage",
    "numpy", "networkx",
)

#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_REPEATS = 3


def setup_metric_name(module: str) -> str:
    short = module.split(".", 1)[1] if module.startswith("repro.") else module
    return f"setup.import_{short.replace('.', '_')}_s"


def load_layers() -> Dict[str, dict]:
    """The per-layer metrics and their interaction map, in declared order."""
    return json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["per_layer"]


def _child_env() -> Dict[str, str]:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def measure_setup(repeats: int) -> List[float]:
    """Seconds from starting a fresh interpreter to ``import repro`` done."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro"], env=_child_env(), check=True)
        samples.append(time.perf_counter() - start)
    return samples


def import_times() -> Dict[str, float]:
    """Cumulative import seconds of :data:`SETUP_MODULES` in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=_child_env(), check=True, capture_output=True, text=True,
    )
    cumulative = {}
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return {setup_metric_name(module): cumulative.get(module, 0.0) for module in SETUP_MODULES}


def provenance(seed: int) -> Dict[str, object]:
    """Host, toolchain and what the library's ``auto`` settings resolved to."""
    import numpy
    import scipy

    from repro.core.montecarlo.compiled import compiled_available, resolve_kernel
    from repro.core.montecarlo.transport import resolve_stacked_transport
    from workloads import nproc

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kernel = resolve_kernel("auto")
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": compiled_available(),
        "kernel_auto": kernel,
        "transport_auto": resolve_stacked_transport("auto", pooled=True),
        "pool": "process",
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_passes(workload, seconds: float, trace: bool, spool: Path):
    """Pass 0 warms up untimed; then passes run until ``seconds`` elapse.

    With ``trace`` odd passes run untraced and even passes traced, so both
    see the same warm state.  Returns every pass, the untraced timed
    passes, and the traced passes with their layer sums.
    """
    from repro.core.evaluation import template_cache_stats
    from tracing import Tracer

    every = [workload.run_pass(0)]
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 1
    while True:
        if trace and index % 2 == 0:
            tracer = Tracer(spool)
            before = template_cache_stats()
            with tracer:
                result = workload.run_pass(index)
            sums = tracer.collect()
            after = template_cache_stats()
            for key in ("hits", "misses", "evictions"):
                sums[f"evaluation.cache_{key}"] = float(after[key] - before[key])
            sums.update(result.layer)
            traced.append((result, sums, tracer.ess_ratios))
        else:
            result = workload.run_pass(index)
            untraced.append(result)
        every.append(result)
        index += 1
        if time.perf_counter() >= deadline and untraced and (traced or not trace):
            return every, untraced, traced


def workload_metrics(workload, every, untraced) -> Tuple[Dict[str, float], int]:
    """The workload-level figures users see, from untraced passes."""
    walls = [r.wall_s for r in untraced]
    queries = [ms for r in untraced for ms in r.query_ms]
    points = sum(r.mc_points for r in every)
    return {
        "wall_s": statistics.median(walls),
        "lifetimes_per_s": sum(r.lifetimes for r in untraced) / sum(walls),
        "lifetimes_to_target": (
            statistics.median(r.lifetimes for r in untraced) if workload.name == "rare_query" else 0.0
        ),
        "ci_miss_fraction": sum(r.ci_misses for r in every) / points if points else 0.0,
        "query_p50_ms": percentile(queries, 50) if queries else 0.0,
        "query_p99_ms": percentile(queries, 99) if queries else 0.0,
        "queries_per_s": len(queries) / sum(walls),
        "failed_ops_fraction": sum(r.failed for r in every) / sum(r.attempted for r in every),
    }, len(queries)


def layer_metrics(workload, untraced, traced, names) -> Dict[str, float]:
    """Per-layer metrics: means over traced passes, plus derived ratios."""
    n = len(traced)
    metrics = {name: sum(sums.get(name, 0.0) for _, sums, _ in traced) / n for name in names}
    walls = [result.wall_s for result, _, _ in traced]
    busy = [sums.get("parallel.worker_busy_s", 0.0) for _, sums, _ in traced]
    metrics["parallel.worker_utilisation"] = statistics.mean(
        b / (workload.workers * w) for b, w in zip(busy, walls)
    )
    kernel_s = metrics["policies.kernel_s"]
    metrics["policies.lifetimes_per_kernel_s"] = (
        metrics["policies.kernel_lifetimes"] / kernel_s if kernel_s else 0.0
    )
    ratios = [ratio for _, _, seen in traced for ratio in seen]
    metrics["confidence.ess_ratio_min"] = min(ratios) if ratios else 1.0
    metrics["trace_overhead"] = statistics.median(walls) / statistics.median(
        r.wall_s for r in untraced
    )
    return metrics


def _child_pids() -> List[int]:
    """Pids of the live processes whose parent is this process."""
    me = os.getpid()
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(encoding="ascii")
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            children.append(int(entry.name))
    return children


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The library shuts its worker pools down itself.  What outlives them is
    the ``multiprocessing`` resource tracker that the first shared-memory
    segment starts: it exits only when the last holder of its pipe closes
    it, which is after this process unless the pipe is closed here.  Live
    segments are unlinked first, since unlinking one restarts the tracker.
    Anything else still a child of this process is terminated and reaped.
    """
    from multiprocessing import resource_tracker

    from repro.core.montecarlo import transport

    transport._dispose_live_planes()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and one setup sample (for the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
        every, untraced, traced = run_passes(workload, args.seconds, bool(args.trace), workdir / "spool")
        workload.final_checks()
        setup = measure_setup(1 if args.smoke else SETUP_REPEATS)
        user, n_queries = workload_metrics(workload, every, untraced)
        end_to_end = {
            "setup_s": statistics.median(setup),
            "wall_s": user.pop("wall_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"provenance {json.dumps(provenance(args.seed), sort_keys=True)}")
        print(
            f"workload {workload.name}: {len(untraced)} untraced and {len(traced)} traced "
            f"timed passes, {n_queries} queries timed, setup samples {len(setup)}"
        )
        print(f"pass wall_s {[round(r.wall_s, 4) for r in untraced]} setup_s {[round(t, 4) for t in setup]}")
        units = {name: entry["unit"] for name, entry in load_layers().items()}
        for name, value in {**end_to_end, **user}.items():
            print(f"metric {name} {value!r} {END_TO_END_UNITS.get(name) or units[name]}")
        for problem in workload.problems:
            print(f"check failed: {problem}")
        if args.trace:
            metrics = layer_metrics(workload, untraced, traced, units)
            metrics.update(import_times())
            metrics.update(user)
            chosen = {name: metrics[name] for name in units}
        else:
            units = END_TO_END_UNITS
            chosen = end_to_end
        correct = not workload.problems
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r.attempted for r in every),
            "failed": sum(r.failed for r in every),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in chosen.items()},
        }))
        return 0 if correct else 1
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
