"""Tests for ``MonteCarloConfig`` as the one run plan of every entry point.

Covers the field role tags (and the hand-written lists they check: the
resume digest and the stacked-grid must-share validator), the scalar loop
of a batch-less policy in the resume digest, the refusal of Monte Carlo-only options on
analytical calls, and the keyword surface of the public entry points, which
take their Monte Carlo options as ``**options``.
"""

from __future__ import annotations

import inspect
from dataclasses import fields, replace

import pytest

from repro.core.evaluation import evaluate, evaluate_stacked
from repro.core.montecarlo import (
    MonteCarloConfig,
    estimate_availability,
    run_digest,
    run_monte_carlo,
)
from repro.core.montecarlo.config import (
    EXECUTION,
    OPTION_ALIASES,
    PER_POINT,
    ROLES,
    SHARD_CONTENT,
    fields_with_role,
)
from repro.core.montecarlo.parallel import _validate_stacked
from repro.core.parameters import paper_parameters
from repro.core.policies.registry import resolve_policy
from repro.core.sweep import sweep, sweep_grid
from repro.exceptions import ConfigurationError
from repro.experiments.cross_validation import run_cross_validation
from repro.human.policy import PolicyKind
from repro.simulation.rng import RandomStreams
from tests.oracles import scalar_loop

PARAMS = paper_parameters(disk_failure_rate=1e-4, hep=0.01)

#: A valid, unsharded config every variation below is derived from.
PLAIN = MonteCarloConfig(
    params=PARAMS,
    policy=resolve_policy("conventional"),
    n_iterations=400,
    seed=3,
    kernel="numpy",
)

#: A journaled-run shape: pinned shards (so ``workers`` stays out of the
#: digest) and adaptive stopping (so ``allocator`` is in it).
ADAPTIVE = replace(PLAIN, shard_size=100, target_half_width=1e-3, max_iterations=800)

#: A changed value for every shared (non per-point) field.
SHARD_CONTENT_CHANGES = {
    "policy": resolve_policy("automatic_failover"),
    "horizon_hours": 1000.0,
    "confidence": 0.95,
    "seed": 4,
    "shard_size": 50,
    "target_half_width": 2e-3,
    "biasing": 5.0,
    "allocator": "ci_width",
    "kernel": "fused",
}
EXECUTION_CHANGES = {
    "collect_trace": True,
    "workers": 3,
    "pool": "thread",
    "shard_timeout": 5.0,
    "max_shard_retries": 2,
    "retry_backoff": 0.0,
    "checkpoint": "run.journal",
    "resume": "run.journal",
}
PER_POINT_CHANGES = {
    "params": paper_parameters(disk_failure_rate=2e-4, hep=0.01),
    "n_iterations": 500,
    "max_iterations": 900,
}

#: Digests written before the scalar executor entered the key; batch-path
#: journals must keep resuming, so these never change.
BATCH_DIGEST = "e37137f64136cdf1196bb1e1c8d2182a7e53d986cb7c91823540e85cf57d2a90"
STACKED_DIGEST = "f3f0834461980e4d81653dce8152e41d0c911044f3d9e938f1689e6d61dc074a"

#: The digest an explicit scalar executor used to write for the batch
#: digest's run; a batch-less copy of the policy now writes it.
SCALAR_DIGEST = "32ca98c741c703f777dab60addb893d811f07bfb0f3a1ae696a5de210cb4465e"


def _digest(configs, scalar=True):
    """Return the resume digest the sharded executor computes for a run."""
    first = configs[0]
    digest, _ = run_digest(
        configs,
        resolve_policy(first.policy),
        master_entropy=RandomStreams(first.seed).seed_entropy,
        shard_size=first.shard_size,
        kernel=first.kernel,
        scalar=scalar,
    )
    return digest


# ----------------------------------------------------------------------
# Field role tags
# ----------------------------------------------------------------------
class TestFieldTags:
    def test_every_field_carries_exactly_one_tag(self):
        for f in fields(MonteCarloConfig):
            assert set(f.metadata) == {"role"}, f.name
            assert f.metadata["role"] in ROLES, f.name

    def test_change_tables_cover_every_field(self):
        # A new field must be tagged and given a changed value here, which
        # puts it through the digest and validator checks below.
        assert set(SHARD_CONTENT_CHANGES) == set(fields_with_role(SHARD_CONTENT))
        assert set(EXECUTION_CHANGES) == set(fields_with_role(EXECUTION))
        assert set(PER_POINT_CHANGES) == set(fields_with_role(PER_POINT))

    @pytest.mark.parametrize("name", sorted(SHARD_CONTENT_CHANGES))
    def test_shard_content_field_changes_digest(self, name):
        changed = replace(ADAPTIVE, **{name: SHARD_CONTENT_CHANGES[name]})
        assert _digest([changed]) != _digest([ADAPTIVE])

    @pytest.mark.parametrize("name", sorted(PER_POINT_CHANGES))
    def test_per_point_field_changes_digest(self, name):
        changed = replace(ADAPTIVE, **{name: PER_POINT_CHANGES[name]})
        assert _digest([changed]) != _digest([ADAPTIVE])

    @pytest.mark.parametrize("name", sorted(EXECUTION_CHANGES))
    def test_execution_field_keeps_digest(self, name):
        # Traces never run sharded, so collect_trace is checked unsharded.
        base = PLAIN if name == "collect_trace" else ADAPTIVE
        changed = replace(base, **{name: EXECUTION_CHANGES[name]})
        assert _digest([changed]) == _digest([base])

    @pytest.mark.parametrize(
        "name", sorted({**SHARD_CONTENT_CHANGES, **EXECUTION_CHANGES})
    )
    def test_stacked_grid_must_share_every_other_field(self, name):
        value = {**SHARD_CONTENT_CHANGES, **EXECUTION_CHANGES}[name]
        with pytest.raises(ConfigurationError):
            _validate_stacked([PLAIN, replace(PLAIN, **{name: value})])

    def test_stacked_grid_may_differ_in_per_point_fields(self):
        grid = [PLAIN, replace(PLAIN, **PER_POINT_CHANGES)]
        policy, first = _validate_stacked(grid)
        assert policy.name == "conventional" and first is PLAIN


# ----------------------------------------------------------------------
# Scalar loop in the resume digest
# ----------------------------------------------------------------------
class TestExecutorDigest:
    def test_batch_digests_unchanged(self):
        config = replace(PLAIN, shard_size=100)
        assert _digest([config]) == BATCH_DIGEST
        scalar = replace(config, policy=scalar_loop(config.policy))
        assert _digest([scalar]) == SCALAR_DIGEST
        grid = [
            replace(PLAIN, shard_size=100),
            replace(PLAIN, shard_size=100, params=PER_POINT_CHANGES["params"]),
        ]
        assert _digest(grid, scalar=False) == STACKED_DIGEST

    def test_scalar_journal_refuses_batch_resume(self, tmp_path):
        journal = str(tmp_path / "scalar.journal")
        base = replace(PLAIN, shard_size=100)
        scalar = replace(base, policy=scalar_loop(base.policy))
        written = run_monte_carlo(replace(scalar, checkpoint=journal))
        assert written.n_iterations == 400
        with pytest.raises(ConfigurationError, match="different run"):
            run_monte_carlo(replace(base, resume=journal))
        resumed = run_monte_carlo(replace(scalar, resume=journal))
        assert resumed.resumed_shards == 4
        assert resumed.availability == written.availability


# ----------------------------------------------------------------------
# Monte Carlo-only options on analytical calls
# ----------------------------------------------------------------------
class TestAnalyticalRefusal:
    def test_evaluate_auto_refuses_biasing(self):
        with pytest.raises(ConfigurationError, match="analytical backend"):
            evaluate(PARAMS, policy="conventional", biasing=5.0)

    def test_sweep_refuses_checkpoint_and_writes_nothing(self, tmp_path):
        journal = tmp_path / "sweep.journal"
        with pytest.raises(ConfigurationError, match="analytical backend"):
            sweep(PARAMS, "hep", [0.01], backend="analytical", checkpoint=str(journal))
        assert not journal.exists()

    def test_evaluate_refuses_resume(self, tmp_path):
        with pytest.raises(ConfigurationError, match="analytical backend"):
            evaluate(PARAMS, backend="analytical", resume=str(tmp_path / "j"))

    def test_evaluate_validates_options_on_analytical_backend(self):
        with pytest.raises(ConfigurationError, match="kernel"):
            evaluate(PARAMS, backend="analytical", kernel="bogus")

    def test_sizing_options_stay_accepted(self):
        # run_fig5_surface passes its Monte Carlo sizing on analytical runs.
        grid = sweep_grid(
            PARAMS, "hep", [0.001, 0.01], "failure_rate", [1e-5],
            backend="analytical", mc_iterations=1000, workers=2, pool_kind="serial",
        )
        assert grid.shape == (2, 1)
        estimate = evaluate(PARAMS, backend="analytical", n_iterations=500, workers=4)
        assert estimate.backend == "analytical"


# ----------------------------------------------------------------------
# Entry-point keywords
# ----------------------------------------------------------------------
_MC_KEYWORDS = {
    "seed": 0,
    "confidence": 0.99,
    "workers": 1,
    "shard_size": None,
    "target_half_width": None,
    "biasing": None,
    "allocator": "uniform",
    "kernel": "auto",
    "pool_kind": "process",
    "pool": None,
    "shard_timeout": None,
    "max_shard_retries": 0,
    "retry_backoff": 0.1,
    "checkpoint": None,
    "resume": None,
}

#: Keyword names and defaults each entry point accepted before its Monte
#: Carlo options moved into ``**options``.
ENTRY_KEYWORDS = {
    "evaluate": {
        "policy": "conventional",
        "backend": "auto",
        "method": "auto",
        "n_iterations": 20000,
        "horizon_hours": 87600.0,
        "max_iterations": None,
        **_MC_KEYWORDS,
    },
    "evaluate_stacked": {
        "policy": "conventional",
        "n_iterations": 20000,
        "horizon_hours": 87600.0,
        "max_iterations": None,
        "crn": False,
        **_MC_KEYWORDS,
    },
    "sweep": {
        "policy": "conventional",
        "backend": "auto",
        "method": "auto",
        "mc_iterations": 20000,
        "mc_horizon_hours": 87600.0,
        "mc_max_iterations": None,
        "crn": False,
        **_MC_KEYWORDS,
    },
    "run_cross_validation": {
        "params": None,
        "policies": None,
        "mc_iterations": 40000,
        "mc_horizon_hours": 87600.0,
        "confidence": 0.99,
        "seed": 2017,
        "workers": 1,
        "kernel": "auto",
        "pool_kind": "process",
        "pool": None,
    },
    "estimate_availability": {
        "policy": PolicyKind.CONVENTIONAL,
        "n_iterations": 20000,
        "horizon_hours": 87600.0,
        "seed": 0,
        "confidence": 0.99,
        "workers": 1,
        "target_half_width": None,
    },
}
ENTRY_KEYWORDS["sweep_grid"] = ENTRY_KEYWORDS["sweep"]

ENTRY_POINTS = {
    "evaluate": evaluate,
    "evaluate_stacked": evaluate_stacked,
    "sweep": sweep,
    "sweep_grid": sweep_grid,
    "run_cross_validation": run_cross_validation,
    "estimate_availability": estimate_availability,
}

#: Required positional arguments of each entry point.
ENTRY_ARGS = {
    "evaluate": (PARAMS,),
    "evaluate_stacked": ([PARAMS],),
    "sweep": (PARAMS, "hep", [0.01]),
    "sweep_grid": (PARAMS, "hep", [0.01], "failure_rate", [1e-4]),
    "run_cross_validation": (),
    "estimate_availability": (PARAMS,),
}


def _effective_default(function, name):
    """Return the default a keyword takes: its own, or the config's."""
    parameter = inspect.signature(function).parameters.get(name)
    if parameter is not None:
        return parameter.default
    field_name = OPTION_ALIASES.get(name, name)
    return {f.name: f.default for f in fields(MonteCarloConfig)}[field_name]


class TestEntryPointKeywords:
    @pytest.mark.parametrize("entry", sorted(ENTRY_KEYWORDS))
    def test_defaults_unchanged(self, entry):
        function = ENTRY_POINTS[entry]
        for name, default in ENTRY_KEYWORDS[entry].items():
            assert _effective_default(function, name) == default, (entry, name)

    @pytest.mark.parametrize("entry", sorted(ENTRY_KEYWORDS))
    def test_every_keyword_accepted(self, entry):
        keywords = dict(ENTRY_KEYWORDS[entry])
        if entry == "run_cross_validation":
            # One policy keeps the call cheap; every keyword is still passed.
            keywords["policies"] = ["conventional"]
        elif "backend" in keywords:
            keywords["backend"] = "monte_carlo"
        ENTRY_POINTS[entry](*ENTRY_ARGS[entry], **keywords)

    @pytest.mark.parametrize("entry", sorted(ENTRY_KEYWORDS))
    def test_misspelt_keyword_raises_type_error(self, entry):
        with pytest.raises(TypeError, match="shard_timout"):
            ENTRY_POINTS[entry](*ENTRY_ARGS[entry], shard_timout=1)

    @pytest.mark.parametrize(
        "entry,keyword",
        [(entry, "transport") for entry in sorted(ENTRY_KEYWORDS)]
        + [(entry, "executor") for entry in sorted(ENTRY_KEYWORDS)]
        + [("sweep", "mc_engine"), ("sweep_grid", "mc_engine")],
    )
    def test_removed_transport_keyword_raises_type_error(self, entry, keyword):
        # The pool alone decides how a stacked grid's rows reach a shard,
        # and the policy alone decides the Monte Carlo path: removed
        # selectors fail loudly instead of being ignored.
        with pytest.raises(TypeError, match=keyword):
            ENTRY_POINTS[entry](*ENTRY_ARGS[entry], **{keyword: "auto"})

    def test_alias_and_field_name_conflict(self):
        with pytest.raises(TypeError, match="n_iterations"):
            sweep(PARAMS, "hep", [0.01], mc_iterations=400, n_iterations=400)
