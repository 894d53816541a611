"""Tests for the sharded executor's fault tolerance.

Covers the retry/timeout/backoff layer (crashed, hung and killed shards
recompute bit-identical summaries), worker-loss recovery on process pools,
graceful interruption into flagged partial results, the durable
checkpoint/resume journal (resumed runs bit-identical to uninterrupted
ones, across worker counts) and the deterministic fault-injection
harness itself.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.montecarlo import (
    FaultInjected,
    FaultPlan,
    MonteCarloConfig,
    ShardJournal,
    fault_plan,
    journal_entropy,
    replay_stacked_point,
    run_digest,
    run_monte_carlo,
    run_stacked,
)
from repro.core.parameters import paper_parameters
from repro.core.policies import get_policy
from repro.exceptions import ConfigurationError
from repro.simulation.rng import RandomStreams

#: Exaggerated operating point: events are frequent enough that a few
#: thousand lifetimes resolve an interval (same point the executor tests use).
STRESS = dict(disk_failure_rate=1e-4, hep=0.05)
HORIZON = 50_000.0


def _config(**overrides) -> MonteCarloConfig:
    defaults = dict(
        params=paper_parameters(**STRESS),
        n_iterations=2000,
        horizon_hours=HORIZON,
        seed=13,
        shard_size=500,
        max_shard_retries=2,
        retry_backoff=0.0,
    )
    defaults.update(overrides)
    return MonteCarloConfig(**defaults)


def _stacked_configs(n_points: int = 3, **overrides):
    heps = np.linspace(0.01, 0.05, n_points)
    defaults = dict(
        n_iterations=1500,
        horizon_hours=HORIZON,
        seed=13,
        shard_size=500,
        max_shard_retries=2,
        retry_backoff=0.0,
    )
    defaults.update(overrides)
    return [
        MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=1e-4, hep=float(hep)),
            policy="conventional",
            **defaults,
        )
        for hep in heps
    ]


def _assert_bit_identical(results, reference):
    for got, want in zip(results, reference):
        assert got.availability == want.availability
        assert got.interval.half_width == want.interval.half_width
        assert got.n_iterations == want.n_iterations
        assert got.totals == want.totals


class TestConfigValidation:
    def test_shard_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            _config(shard_timeout=0.0)
        with pytest.raises(ConfigurationError):
            _config(shard_timeout=-1.0)

    def test_max_shard_retries_non_negative(self):
        with pytest.raises(ConfigurationError):
            _config(max_shard_retries=-1)

    def test_retry_backoff_non_negative(self):
        with pytest.raises(ConfigurationError):
            _config(retry_backoff=-0.5)

    def test_checkpoint_and_resume_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            _config(checkpoint="a.journal", resume="b.journal")

    def test_journal_requires_sharded_executor(self):
        config = MonteCarloConfig(
            params=paper_parameters(**STRESS),
            n_iterations=2000,
            horizon_hours=HORIZON,
            seed=13,
            checkpoint="never-written.journal",
        )
        with pytest.raises(ConfigurationError, match="sharded"):
            run_monte_carlo(config)
        assert not Path("never-written.journal").exists()

    def test_with_retries_helper(self):
        config = replace(_config(), max_shard_retries=3, shard_timeout=1.5)
        assert config.max_shard_retries == 3
        assert config.shard_timeout == 1.5

    def test_with_journal_helper(self):
        config = replace(_config(), checkpoint="x.journal")
        assert config.checkpoint == "x.journal"
        assert config.journal_path == "x.journal"
        resumed = replace(_config(), resume="x.journal")
        assert resumed.journal_path == "x.journal"


class TestFaultHarness:
    def test_plan_round_trips_through_file(self, tmp_path):
        from repro.core.montecarlo.faults import ShardFault, active_plan

        plan = FaultPlan(
            faults={2: ShardFault("hang", 0.25)},
            abort_after=3,
        )
        with fault_plan(plan, tmp_path) as path:
            installed = active_plan()
            assert installed is not None
            assert installed.plan.abort_after == 3
            assert installed.plan.faults[2].kind == "hang"
            assert installed.plan.faults[2].hang_seconds == 0.25
            assert Path(path).exists()
        assert os.environ.get("REPRO_FAULT_PLAN") is None

    def test_faults_fire_exactly_once(self, tmp_path):
        from repro.core.montecarlo.faults import check_fault

        with fault_plan(FaultPlan.single(0, "raise"), tmp_path):
            with pytest.raises(FaultInjected):
                check_fault(0)
            check_fault(0)  # armed: second attempt runs clean

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.single(0, "explode")


class TestScalarShardRetry:
    @pytest.mark.parametrize("pool", ["serial", "thread", "process"])
    @pytest.mark.parametrize("kind", ["raise", "kill"])
    def test_faulted_shard_retries_bit_identical(self, tmp_path, pool, kind):
        # "kill" degrades to "raise" on thread/serial pools (documented);
        # on the process pool it exercises the BrokenProcessPool rebuild.
        workers = 1 if pool == "serial" else 2
        clean = run_monte_carlo(_config(workers=workers, pool=pool))
        with fault_plan(FaultPlan.single(0, kind), tmp_path):
            faulted = run_monte_carlo(_config(workers=workers, pool=pool))
        assert faulted.retried_shards >= 1
        assert not faulted.interrupted
        _assert_bit_identical([faulted], [clean])

    def test_hang_trips_timeout_and_retries(self, tmp_path):
        clean = run_monte_carlo(_config(workers=2, pool="process"))
        with fault_plan(FaultPlan.single(0, "hang", hang_seconds=30.0), tmp_path):
            faulted = run_monte_carlo(
                _config(workers=2, pool="process", shard_timeout=1.0)
            )
        assert faulted.retried_shards >= 1
        _assert_bit_identical([faulted], [clean])

    def test_retries_exhausted_raises(self, tmp_path):
        # Two distinct shard faults against a single-retry budget: the
        # second failure exceeds max_shard_retries for its shard only if it
        # keeps faulting, so plan a fresh fault per attempt via retries=0.
        with fault_plan(FaultPlan.single(1, "raise"), tmp_path):
            with pytest.raises(FaultInjected):
                run_monte_carlo(_config(workers=2, pool="thread", max_shard_retries=0))

    def test_inline_path_retries_exceptions(self, tmp_path):
        # workers=1 without a pool runs shards inline; the retry budget
        # still applies to in-shard exceptions (timeouts are documented as
        # unenforced there).
        clean = run_monte_carlo(_config(workers=1))
        with fault_plan(FaultPlan.single(2, "raise"), tmp_path):
            faulted = run_monte_carlo(_config(workers=1))
        assert faulted.retried_shards == 1
        _assert_bit_identical([faulted], [clean])


class TestStackedFaultMatrix:
    @pytest.mark.parametrize(
        ("kind", "pool", "workers"),
        [
            ("raise", "serial", 1),
            ("raise", "thread", 2),
            ("raise", "process", 2),
            ("kill", "serial", 1),
            ("kill", "thread", 4),
            ("kill", "process", 2),
        ],
    )
    def test_faulted_stacked_shard_retries_bit_identical(
        self, tmp_path, kind, pool, workers
    ):
        clean = run_stacked(_stacked_configs(workers=workers, pool=pool))
        with fault_plan(FaultPlan.single(1, kind), tmp_path):
            faulted = run_stacked(_stacked_configs(workers=workers, pool=pool))
        assert sum(point.retried_shards for point in faulted) >= 1
        _assert_bit_identical(faulted, clean)

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_stacked_hang_trips_timeout(self, tmp_path, pool):
        clean = run_stacked(_stacked_configs(workers=2, pool=pool))
        with fault_plan(FaultPlan.single(0, "hang", hang_seconds=3.0), tmp_path):
            faulted = run_stacked(
                _stacked_configs(workers=2, pool=pool, shard_timeout=0.75)
            )
        assert sum(point.retried_shards for point in faulted) >= 1
        _assert_bit_identical(faulted, clean)

    def test_adaptive_run_survives_fault(self, tmp_path):
        kwargs = dict(
            n_iterations=1000,
            target_half_width=5e-3,
            max_iterations=8000,
            workers=2,
            pool="thread",
        )
        clean = run_stacked(_stacked_configs(**kwargs))
        with fault_plan(FaultPlan.single(0, "raise"), tmp_path):
            faulted = run_stacked(_stacked_configs(**kwargs))
        assert sum(point.retried_shards for point in faulted) >= 1
        _assert_bit_identical(faulted, clean)


class TestInterruptAndResume:
    def test_scalar_interrupt_flags_partial_and_resumes(self, tmp_path):
        journal = str(tmp_path / "scalar.journal")
        clean = run_monte_carlo(_config(workers=1))
        with fault_plan(FaultPlan(abort_after=2), tmp_path / "plan"):
            partial = run_monte_carlo(_config(workers=1, checkpoint=journal))
        assert partial.interrupted
        assert partial.n_iterations == 1000  # 2 of 4 journaled shards
        resumed = run_monte_carlo(_config(workers=1, resume=journal))
        assert not resumed.interrupted
        assert resumed.resumed_shards == 2
        _assert_bit_identical([resumed], [clean])

    @pytest.mark.parametrize("resume_workers", [1, 4])
    def test_stacked_resume_bit_identical_across_workers(
        self, tmp_path, resume_workers
    ):
        journal = str(tmp_path / "stacked.journal")
        clean = run_stacked(_stacked_configs(workers=1))
        with fault_plan(FaultPlan(abort_after=2), tmp_path / "plan"):
            partial = run_stacked(_stacked_configs(workers=1, checkpoint=journal))
        assert any(point.interrupted for point in partial)
        resumed = run_stacked(
            _stacked_configs(
                workers=resume_workers,
                pool="thread" if resume_workers > 1 else "process",
                resume=journal,
            )
        )
        assert all(not point.interrupted for point in resumed)
        assert sum(point.resumed_shards for point in resumed) >= 2
        _assert_bit_identical(resumed, clean)

    def test_adaptive_resume_bit_identical(self, tmp_path):
        journal = str(tmp_path / "adaptive.journal")
        kwargs = dict(
            n_iterations=1000,
            target_half_width=5e-3,
            max_iterations=8000,
        )
        clean = run_stacked(_stacked_configs(**kwargs))
        with fault_plan(FaultPlan(abort_after=1), tmp_path / "plan"):
            partial = run_stacked(_stacked_configs(checkpoint=journal, **kwargs))
        assert any(point.interrupted for point in partial)
        resumed = run_stacked(_stacked_configs(resume=journal, **kwargs))
        assert sum(point.resumed_shards for point in resumed) >= 1
        _assert_bit_identical(resumed, clean)

    def test_completed_journal_resumes_without_recompute(self, tmp_path):
        journal = str(tmp_path / "done.journal")
        clean = run_stacked(_stacked_configs(checkpoint=journal))
        again = run_stacked(_stacked_configs(resume=journal))
        # Every shard of the finished run is journaled: the resume replays
        # them all without computing anything new.
        assert sum(point.resumed_shards for point in again) == 9  # 4500 / 500
        assert all(point.retried_shards == 0 for point in again)
        _assert_bit_identical(again, clean)

    def test_resume_with_unseeded_run_adopts_journal_entropy(self, tmp_path):
        journal = str(tmp_path / "unseeded.journal")
        with fault_plan(FaultPlan(abort_after=1), tmp_path / "plan"):
            partial = run_stacked(
                _stacked_configs(seed=None, checkpoint=journal)
            )
        assert any(point.interrupted for point in partial)
        entropy = journal_entropy(journal)
        assert entropy is not None
        resumed = run_stacked(_stacked_configs(seed=None, resume=journal))
        assert all(point.seed_entropy == entropy for point in resumed)
        assert sum(point.resumed_shards for point in resumed) >= 1

    def test_replay_of_unseeded_resumed_grid_matches_grid(self, tmp_path):
        # A seed=None resume adopts the journal's entropy; replaying one of
        # its points must adopt it too, not draw fresh entropy.
        journal = str(tmp_path / "replay.journal")
        run_stacked(_stacked_configs(seed=None, checkpoint=journal))
        configs = _stacked_configs(seed=None, resume=journal)
        grid = run_stacked(configs)
        for index, point in enumerate(grid):
            replayed = replay_stacked_point(configs, index)
            assert replayed.seed_entropy == point.seed_entropy
            _assert_bit_identical([replayed], [point])


class TestJournalIntegrity:
    def test_missing_resume_journal_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            run_stacked(
                _stacked_configs(resume=str(tmp_path / "missing.journal"))
            )

    def test_digest_mismatch_rejected(self, tmp_path):
        journal = str(tmp_path / "mismatch.journal")
        run_stacked(_stacked_configs(checkpoint=journal))
        with pytest.raises(ConfigurationError, match="different run"):
            run_stacked(_stacked_configs(seed=99, resume=journal))

    def test_torn_tail_tolerated(self, tmp_path):
        journal = tmp_path / "torn.journal"
        with fault_plan(FaultPlan(abort_after=1), tmp_path / "plan"):
            run_stacked(_stacked_configs(checkpoint=str(journal)))
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "shard", "key": [9')  # torn mid-write
        clean = run_stacked(_stacked_configs())
        resumed = run_stacked(_stacked_configs(resume=str(journal)))
        _assert_bit_identical(resumed, clean)

    def test_digest_excludes_workers_and_transport(self):
        configs = _stacked_configs()
        policy = get_policy("conventional")
        entropy = RandomStreams(13).seed_entropy
        base, _ = run_digest(
            configs, policy, master_entropy=entropy, shard_size=500
        )
        varied = [
            MonteCarloConfig(
                params=config.params,
                policy=config.policy,
                n_iterations=config.n_iterations,
                horizon_hours=config.horizon_hours,
                seed=config.seed,
                shard_size=config.shard_size,
                workers=8,
                pool="thread",
                max_shard_retries=config.max_shard_retries,
                retry_backoff=config.retry_backoff,
            )
            for config in configs
        ]
        same, _ = run_digest(
            varied, policy, master_entropy=entropy, shard_size=500
        )
        assert same == base
        other, _ = run_digest(
            configs, policy, master_entropy=entropy + 1, shard_size=500
        )
        assert other != base

    def test_journal_append_idempotent(self, tmp_path):
        from repro.core.montecarlo.journal import record_from_summary
        from repro.simulation.confidence import StreamingMoments

        path = tmp_path / "idem.journal"
        rec = record_from_summary(StreamingMoments(), {})
        with ShardJournal.open(path, "d" * 64, {"k": 1}, 1234) as journal:
            journal.append((0, -1, -1), rec)
            journal.append((0, -1, -1), rec)
            assert len(journal) == 1


class TestShmOrphanRecovery:
    def test_no_segments_leak_after_faulted_run(self, tmp_path, no_shared_memory):
        with no_shared_memory(), fault_plan(FaultPlan.single(0, "kill"), tmp_path):
            faulted = run_stacked(_stacked_configs(workers=2, pool="process"))
        assert sum(point.retried_shards for point in faulted) >= 1


class TestCliFaultFlags:
    def test_mc_interrupt_exits_nonzero_with_hint(self, tmp_path, capsys):
        from repro.cli import main

        journal = str(tmp_path / "cli.journal")
        args = [
            "mc",
            "--failure-rate", "1e-4",
            "--hep", "0.05",
            "--iterations", "2000",
            "--shard-size", "500",
            "--seed", "13",
        ]
        with fault_plan(FaultPlan(abort_after=2), tmp_path / "plan"):
            code = main(args + ["--checkpoint", journal])
        assert code == 3
        out = capsys.readouterr().out
        assert "interrupted" in out
        assert f"--resume {journal}" in out

        assert main(args + ["--resume", journal]) == 0
        out = capsys.readouterr().out
        assert "resumed shards:" in out

    def test_mc_retry_count_printed(self, tmp_path, capsys):
        from repro.cli import main

        with fault_plan(FaultPlan.single(0, "raise"), tmp_path):
            code = main(
                [
                    "mc",
                    "--failure-rate", "1e-4",
                    "--hep", "0.05",
                    "--iterations", "2000",
                    "--shard-size", "500",
                    "--seed", "13",
                    "--max-shard-retries", "2",
                ]
            )
        assert code == 0
        assert "retried shards:     1" in capsys.readouterr().out

    def test_sweep_interrupt_exits_nonzero_with_hint(self, tmp_path, capsys):
        from repro.cli import main

        journal = str(tmp_path / "sweep.journal")
        args = [
            "sweep",
            "--axis", "hep",
            "--values", "0.01,0.03,0.05",
            "--backend", "monte_carlo",
            "--failure-rate", "1e-4",
            "--iterations", "1500",
            "--seed", "13",
        ]
        with fault_plan(FaultPlan(abort_after=1), tmp_path / "plan"):
            code = main(args + ["--checkpoint", journal])
        assert code == 3
        out = capsys.readouterr().out
        assert "interrupted" in out
        assert f"--resume {journal}" in out

        assert main(args + ["--resume", journal]) == 0
        out = capsys.readouterr().out
        assert "resumed shards:" in out
