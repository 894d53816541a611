"""Monte Carlo (simulation-based) availability model of the paper.

Policies are resolved by name through :mod:`repro.core.policies`; execution
happens either on the vectorised batch path (:mod:`.batch`) or the scalar
traced path (:mod:`.runner` / :mod:`.engine_bridge`).
"""

from repro.core.montecarlo.batch import (
    POINT_SUMMARY_DTYPE,
    PointSummary,
    run_batch,
    run_batch_lifetimes,
    run_stacked,
    segment_point_records,
    segment_point_summaries,
    summarise_batch,
)
from repro.core.montecarlo.compiled import (
    KERNELS,
    compiled_available,
    has_compiled_face,
    kernel_context,
    resolve_kernel,
)
from repro.core.montecarlo.fused import (
    fused_available,
    has_fused_face,
    run_fused_batch,
    warmup_fused,
)
from repro.core.montecarlo.config import (
    ALLOCATORS,
    DEFAULT_ADAPTIVE_CEILING,
    DEFAULT_HORIZON_HOURS,
    DEFAULT_ITERATIONS,
    POOLS,
    MonteCarloConfig,
)
from repro.core.montecarlo.engine_bridge import (
    replay_trace_on_engine,
    run_traced_on_engine,
)
from repro.core.montecarlo.faults import (
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FaultInjected,
    FaultPlan,
    ShardFault,
    fault_plan,
)
from repro.core.montecarlo.journal import (
    ShardJournal,
    journal_entropy,
    run_digest,
)
from repro.core.montecarlo.parallel import (
    DEFAULT_SHARD_CAP,
    DEFAULT_STACKED_SHARD_SIZE,
    ShardSummary,
    StackedShard,
    effective_shard_size,
    plan_shards,
    plan_stacked_shards,
    replay_stacked_point,
    run_shard,
    run_sharded,
    run_stacked_shard,
    worker_pool,
)
from repro.core.montecarlo.transport import resolve_stacked_transport
from repro.core.montecarlo.results import (
    EpisodeTrace,
    IterationResult,
    MonteCarloResult,
    merge_iteration_counters,
    merge_totals,
)
from repro.core.montecarlo.runner import (
    estimate_availability,
    run_iterations,
    run_monte_carlo,
    run_monte_carlo_with_trace,
    summarise_iterations,
)
from repro.core.montecarlo.simulator import simulate_conventional, simulate_failover
from repro.core.montecarlo.trace import (
    generate_example_trace,
    render_timeline,
    summarise_trace,
)

__all__ = [
    "ALLOCATORS",
    "DEFAULT_ADAPTIVE_CEILING",
    "DEFAULT_HORIZON_HOURS",
    "DEFAULT_SHARD_CAP",
    "DEFAULT_STACKED_SHARD_SIZE",
    "DEFAULT_ITERATIONS",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "KERNELS",
    "POOLS",
    "EpisodeTrace",
    "FaultInjected",
    "FaultPlan",
    "IterationResult",
    "MonteCarloConfig",
    "MonteCarloResult",
    "POINT_SUMMARY_DTYPE",
    "PointSummary",
    "ShardFault",
    "ShardJournal",
    "ShardSummary",
    "StackedShard",
    "compiled_available",
    "effective_shard_size",
    "estimate_availability",
    "fault_plan",
    "fused_available",
    "generate_example_trace",
    "has_compiled_face",
    "has_fused_face",
    "journal_entropy",
    "kernel_context",
    "merge_iteration_counters",
    "merge_totals",
    "plan_shards",
    "plan_stacked_shards",
    "render_timeline",
    "run_digest",
    "replay_stacked_point",
    "replay_trace_on_engine",
    "resolve_kernel",
    "resolve_stacked_transport",
    "run_batch",
    "run_batch_lifetimes",
    "run_fused_batch",
    "run_iterations",
    "run_monte_carlo",
    "run_monte_carlo_with_trace",
    "run_shard",
    "run_sharded",
    "run_stacked",
    "run_stacked_shard",
    "run_traced_on_engine",
    "segment_point_records",
    "warmup_fused",
    "segment_point_summaries",
    "simulate_conventional",
    "simulate_failover",
    "summarise_batch",
    "summarise_iterations",
    "summarise_trace",
    "worker_pool",
]
