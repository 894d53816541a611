"""Configuration of a Monte Carlo availability study."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, Optional, Tuple, Union

from repro.core.parameters import AvailabilityParameters
from repro.core.policies.base import SimulationPolicy
from repro.exceptions import ConfigurationError
from repro.human.policy import PolicyKind

#: Default mission time of one simulated lifetime: ten years of operation.
DEFAULT_HORIZON_HOURS = 10 * 8760.0

#: Default number of simulated lifetimes.  The paper uses 1e6; the default
#: here is sized for interactive use and can be raised per experiment.
DEFAULT_ITERATIONS = 20_000

#: Accepted execution styles: ``"auto"`` picks the vectorised batch path
#: whenever the policy has a kernel and no trace was requested.
EXECUTORS = ("auto", "batch", "scalar")

#: Accepted kernel backends: ``"auto"`` prefers the compiled (numba) row
#: scans when importable and falls back to numpy with a one-time warning,
#: ``"numpy"`` pins the pure-numpy kernels (the bit-identity oracle),
#: ``"compiled"`` demands numba.  Re-exported from the compiled module,
#: the single source of truth.
from repro.core.montecarlo.compiled import KERNELS  # noqa: E402

#: Accepted shard-executor pools: ``"process"`` fans shards out over worker
#: processes (today's default), ``"thread"`` over in-process threads that
#: share the stacked grid planes outright (no pickling, no rebuild),
#: ``"serial"`` runs the identical shard plan sequentially in-process even
#: with ``workers > 1`` (the pool oracle).  All three are bit-identical:
#: shard decomposition, spawn-indexed draws and CGL merge order are pool
#: independent.
POOLS = ("process", "thread", "serial")

#: Iteration ceiling of an adaptive (``target_half_width``) run when no
#: explicit ``max_iterations`` is configured — the paper's 1e6 setting.
DEFAULT_ADAPTIVE_CEILING = 1_000_000

#: Accepted adaptive-round budget allocators for stacked grids:
#: ``"uniform"`` gives every unmet point the same next-round budget,
#: ``"ci_width"`` sizes each unmet point's round by its own interval gap.
ALLOCATORS = ("uniform", "ci_width")

#: How a policy may be specified: a registry name, a legacy enum member, or
#: a ready :class:`~repro.core.policies.base.SimulationPolicy` instance.
PolicyRef = Union[str, PolicyKind, SimulationPolicy]

#: Role tags of the config fields (``dataclasses.field`` metadata ``"role"``).
#: Each field carries exactly one; the hand-written lists that used to
#: enumerate fields are derived from (or tested against) these tags.
#:
#: * ``per_point`` — may differ between the points of one stacked grid
#:   (parameters, lifetime count, adaptive ceiling);
#: * ``shard_content`` — shared by a stacked grid and part of what a shard
#:   computes, so it belongs in the resume digest of
#:   :func:`repro.core.montecarlo.journal.run_digest`;
#: * ``execution`` — shared by a stacked grid but never changes a number
#:   (worker count, pool, retries, journal path).
PER_POINT = "per_point"
SHARD_CONTENT = "shard_content"
EXECUTION = "execution"
ROLES = (PER_POINT, SHARD_CONTENT, EXECUTION)

#: Entry-point spellings of config fields.  Sweeps and experiments size a
#: run with ``mc_``-prefixed names, and every front door says ``pool_kind``
#: because its ``pool`` argument is the shared executor.
OPTION_ALIASES: Dict[str, str] = {
    "mc_iterations": "n_iterations",
    "mc_horizon_hours": "horizon_hours",
    "mc_max_iterations": "max_iterations",
    "pool_kind": "pool",
}


def _tagged(role: str, default=MISSING, **kwargs):
    """Declare a config field with its role tag."""
    return field(default=default, metadata={"role": role}, **kwargs)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Everything needed to run a Monte Carlo availability estimate.

    This is the one run plan: every Monte Carlo entry point
    (:func:`~repro.core.evaluation.evaluate`,
    :func:`~repro.core.evaluation.evaluate_stacked`,
    :func:`~repro.core.sweep.sweep`, :func:`~repro.core.sweep.sweep_grid`,
    the experiments and the CLI) builds one of these from its keyword
    options (see :func:`config_from_options`), so the attributes below are
    the single reference for those options.  Each field carries a role tag
    (:data:`PER_POINT`, :data:`SHARD_CONTENT` or :data:`EXECUTION`).

    Attributes
    ----------
    params:
        Rates, probabilities and RAID geometry of the simulated array.
    policy:
        Replacement policy: a registry name (``"conventional"``,
        ``"automatic_failover"``, ``"hot_spare_pool"``, ...), a legacy
        :class:`~repro.human.policy.PolicyKind` member, or a
        :class:`~repro.core.policies.base.SimulationPolicy` instance.
    horizon_hours:
        Mission time of each simulated lifetime.
    n_iterations:
        Number of independent lifetimes to simulate.
    confidence:
        Confidence level of the availability interval (0.99 in the paper).
    seed:
        Master seed for reproducibility; ``None`` draws a fresh seed.
    collect_trace:
        When ``True`` the first iteration records a Fig. 1 style event trace
        (this forces the scalar execution path).
    executor:
        ``"auto"`` (batch whenever the policy has a vectorised kernel and no
        trace is collected), ``"batch"`` or ``"scalar"``.  An explicit
        ``"scalar"`` is part of a checkpoint journal's run digest: scalar
        and batch shards draw different numbers.
    workers:
        Number of worker processes for the sharded executor.  ``1`` (the
        default) runs all shards in-process; ``> 1`` fans shards out over a
        process pool.
    shard_size:
        Lifetimes per shard on the sharded path.  ``None`` derives
        ``ceil(round_budget / workers)`` (one shard per worker and round),
        capped at 50k lifetimes per shard
        (:data:`repro.core.montecarlo.parallel.DEFAULT_SHARD_CAP`), which
        ties the decomposition — and therefore the exact random draws — to
        the worker count.  Setting it explicitly pins the decomposition
        instead (no cap applied), making results bit-identical across
        different worker counts.
    target_half_width:
        Adaptive-stopping target: keep dispatching shard rounds until the
        Student-t interval half-width at ``confidence`` drops to this value
        (or ``max_iterations`` is reached).  ``n_iterations`` sizes the
        first round.  ``None`` disables adaptive mode.
    max_iterations:
        Iteration ceiling of an adaptive run; ``None`` uses
        ``DEFAULT_ADAPTIVE_CEILING``.  Ignored without ``target_half_width``.
    biasing:
        Failure-biasing factor of the importance-sampled kernels: failure
        rates are inflated by this factor (> 0) and every lifetime carries a
        log-likelihood-ratio weight, so estimates stay unbiased while
        rare-event scenarios resolve with orders of magnitude fewer
        lifetimes.  ``None`` (the default) runs the unbiased kernels on the
        exact historical call path.  Requires a batch kernel (no scalar
        executor, no event traces).
    allocator:
        How adaptive (``target_half_width``) stacked runs split each next
        shard round across grid points: ``"uniform"`` gives every unmet
        point the same budget, ``"ci_width"`` sizes each unmet point's
        budget by its own confidence-interval gap.  Ignored without
        ``target_half_width``; single-point runs have nothing to allocate.
    kernel:
        Which kernel backend the batch path uses: ``"auto"`` (the compiled
        numba row scans when importable, numpy otherwise with a one-time
        warning), ``"numpy"`` (the retained oracle), ``"compiled"`` (demand
        numba; :class:`ConfigurationError` without it) or ``"fused"`` (the
        whole-event-loop nopython kernels of
        :mod:`repro.core.montecarlo.fused`; demands numba or the explicit
        ``REPRO_FUSED_PUREPY=1`` fallback).  ``numpy`` and ``compiled`` are
        bit-identical — the compiled primitives are pure selections over
        the same spawn-indexed Generator draws; ``fused`` owns its draw
        discipline (statistically pinned cross-backend, still bit-identical
        across worker counts and pools within itself) and is never chosen
        by ``"auto"``.
    pool:
        Which executor the sharded path fans shards out over when
        ``workers > 1``: ``"process"`` (worker processes, today's
        behaviour), ``"thread"`` (in-process threads sharing the stacked
        grid planes outright) or ``"serial"`` (the identical shard plan run
        sequentially in-process, the pool oracle).  The pool also decides
        how a stacked grid's rows reach each shard: in-process shards slice
        one grid materialised per sweep, process workers rebuild theirs
        from the points' scalars.  Bit-identical across pools and worker
        counts.
    shard_timeout:
        Seconds the sharded collector waits for the next unfinished shard
        (in plan order) before declaring it hung: the pool is torn down,
        rebuilt, and every unfinished shard resubmitted — counting one
        retry against the timed-out shard.  ``None`` (the default) waits
        forever, today's behaviour.  Not enforceable on the inline
        (``workers=1``/serial) path, where shards run in the caller.
    max_shard_retries:
        How many times a failed shard — in-shard exception, timeout, or a
        worker lost to ``BrokenProcessPool`` — is resubmitted before the
        run gives up and re-raises.  Retried shards recompute bit-identical
        records (the spawn-indexed stream family depends only on the master
        entropy and shard index), so retries never change results.  ``0``
        (the default) keeps the historical fail-fast behaviour.
    retry_backoff:
        Base of the exponential pause between a shard's failure and its
        resubmission: attempt ``k`` sleeps ``retry_backoff * 2**(k-1)``
        seconds.  ``0`` disables the pause.
    checkpoint:
        Path of a shard journal to write (and, when it already exists with
        a matching run digest, to resume): completed shard summaries are
        appended durably as they are collected, and already-journaled
        shards are skipped on restart.  See
        :mod:`repro.core.montecarlo.journal`.
    resume:
        Like ``checkpoint`` but the journal **must** already exist — the
        explicit "continue that killed run" spelling.  Requires a matching
        digest; a ``seed=None`` resume adopts the journaled run's entropy.
    """

    params: AvailabilityParameters = _tagged(
        PER_POINT, default_factory=AvailabilityParameters
    )
    policy: PolicyRef = _tagged(SHARD_CONTENT, PolicyKind.CONVENTIONAL)
    horizon_hours: float = _tagged(SHARD_CONTENT, DEFAULT_HORIZON_HOURS)
    n_iterations: int = _tagged(PER_POINT, DEFAULT_ITERATIONS)
    confidence: float = _tagged(SHARD_CONTENT, 0.99)
    seed: Optional[int] = _tagged(SHARD_CONTENT, None)
    collect_trace: bool = _tagged(EXECUTION, False)
    executor: str = _tagged(SHARD_CONTENT, "auto")
    workers: int = _tagged(EXECUTION, 1)
    shard_size: Optional[int] = _tagged(SHARD_CONTENT, None)
    target_half_width: Optional[float] = _tagged(SHARD_CONTENT, None)
    max_iterations: Optional[int] = _tagged(PER_POINT, None)
    biasing: Optional[float] = _tagged(SHARD_CONTENT, None)
    allocator: str = _tagged(SHARD_CONTENT, "uniform")
    kernel: str = _tagged(SHARD_CONTENT, "auto")
    pool: str = _tagged(EXECUTION, "process")
    shard_timeout: Optional[float] = _tagged(EXECUTION, None)
    max_shard_retries: int = _tagged(EXECUTION, 0)
    retry_backoff: float = _tagged(EXECUTION, 0.1)
    checkpoint: Optional[str] = _tagged(EXECUTION, None)
    resume: Optional[str] = _tagged(EXECUTION, None)

    def __post_init__(self) -> None:
        if self.horizon_hours <= 0.0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon_hours!r}")
        if self.n_iterations < 2:
            raise ConfigurationError(
                f"at least two iterations are required, got {self.n_iterations!r}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"confidence must lie in (0, 1), got {self.confidence!r}"
            )
        if self.executor not in EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if int(self.workers) < 1:
            raise ConfigurationError(f"workers must be at least 1, got {self.workers!r}")
        if self.shard_size is not None and int(self.shard_size) < 1:
            raise ConfigurationError(
                f"shard size must be at least 1, got {self.shard_size!r}"
            )
        if self.target_half_width is not None and self.target_half_width <= 0.0:
            raise ConfigurationError(
                f"target half-width must be positive, got {self.target_half_width!r}"
            )
        if (
            self.target_half_width is not None
            and self.max_iterations is not None
            and self.max_iterations < self.n_iterations
        ):
            # Without a target the ceiling is documented as ignored, so it
            # is deliberately left unvalidated there.
            raise ConfigurationError(
                f"max_iterations ({self.max_iterations!r}) must not be below "
                f"n_iterations ({self.n_iterations!r}); the adaptive ceiling "
                "cannot undercut the first round"
            )
        if self.allocator not in ALLOCATORS:
            raise ConfigurationError(
                f"allocator must be one of {ALLOCATORS}, got {self.allocator!r}"
            )
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        if self.pool not in POOLS:
            raise ConfigurationError(f"pool must be one of {POOLS}, got {self.pool!r}")
        if self.kernel in ("compiled", "fused"):
            if self.executor == "scalar":
                raise ConfigurationError(
                    f"kernel={self.kernel!r} accelerates the vectorised batch "
                    "kernels; it cannot be combined with executor='scalar'"
                )
            if self.collect_trace:
                raise ConfigurationError(
                    f"kernel={self.kernel!r} runs on the batch path and "
                    "cannot collect an event trace"
                )
        if self.biasing is not None:
            if not float(self.biasing) > 0.0:
                raise ConfigurationError(
                    f"biasing factor must be positive, got {self.biasing!r}"
                )
            if self.executor == "scalar":
                raise ConfigurationError(
                    "failure biasing requires the vectorised batch kernels; "
                    "it cannot be combined with executor='scalar'"
                )
            if self.collect_trace:
                raise ConfigurationError(
                    "failure biasing runs on the batch path and cannot "
                    "collect an event trace"
                )
        if self.shard_timeout is not None and not float(self.shard_timeout) > 0.0:
            raise ConfigurationError(
                f"shard timeout must be positive, got {self.shard_timeout!r}"
            )
        if int(self.max_shard_retries) < 0:
            raise ConfigurationError(
                f"max_shard_retries must be non-negative, got {self.max_shard_retries!r}"
            )
        if float(self.retry_backoff) < 0.0:
            raise ConfigurationError(
                f"retry_backoff must be non-negative, got {self.retry_backoff!r}"
            )
        if self.checkpoint is not None and self.resume is not None:
            raise ConfigurationError(
                "checkpoint= and resume= name the same journal mechanism; "
                "pass one of them (resume requires the file to exist, "
                "checkpoint creates it)"
            )
        if self.collect_trace and self.uses_sharded_path:
            raise ConfigurationError(
                "event traces require the single-process scalar path; "
                "collect_trace cannot be combined with workers > 1, "
                "shard_size or target_half_width"
            )

    @property
    def uses_sharded_path(self) -> bool:
        """Return whether this config runs on the sharded parallel executor."""
        return (
            int(self.workers) > 1
            or self.shard_size is not None
            or self.target_half_width is not None
        )

    @property
    def journal_path(self) -> Optional[str]:
        """Return the configured journal path (``resume`` wins), if any."""
        return self.resume if self.resume is not None else self.checkpoint

    @property
    def adaptive_ceiling(self) -> int:
        """Return the iteration ceiling of an adaptive run."""
        if self.max_iterations is not None:
            return int(self.max_iterations)
        return max(DEFAULT_ADAPTIVE_CEILING, int(self.n_iterations))

    @property
    def policy_name(self) -> str:
        """Return the registry name of the configured policy."""
        if isinstance(self.policy, SimulationPolicy):
            return self.policy.name
        if isinstance(self.policy, PolicyKind):
            return self.policy.value
        return str(self.policy)

    def label(self) -> str:
        """Return a short description used in result tables."""
        return (
            f"{self.params.geometry.label} {self.policy_name} "
            f"lambda={self.params.disk_failure_rate:g} hep={self.params.hep:g}"
        )


def fields_with_role(*roles: str) -> Tuple[str, ...]:
    """Return the names of the config fields tagged with any of ``roles``."""
    return tuple(f.name for f in fields(MonteCarloConfig) if f.metadata["role"] in roles)


def config_from_options(**options) -> MonteCarloConfig:
    """Build the run plan of an entry point from its keyword options.

    Accepts every :class:`MonteCarloConfig` field name and the entry-point
    spellings of :data:`OPTION_ALIASES`.  An unknown name raises
    :class:`TypeError` naming it, exactly as a misspelt keyword argument
    of an ordinary signature would.
    """
    renamed: Dict[str, object] = {}
    for name, value in options.items():
        field_name = OPTION_ALIASES.get(name, name)
        if field_name in renamed:
            raise TypeError(f"got multiple values for option {field_name!r} ({name!r})")
        renamed[field_name] = value
    return MonteCarloConfig(**renamed)
