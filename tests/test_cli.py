"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestSolveCommand:
    def test_default_solve(self, capsys):
        assert main(["solve"]) == 0
        out = capsys.readouterr().out
        assert "nines:" in out and "RAID5(3+1)" in out

    def test_solve_raid1_failover(self, capsys):
        assert main([
            "solve", "--raid", "RAID1(1+1)", "--hep", "0.01",
            "--model", "automatic_failover", "--failure-rate", "1e-5",
        ]) == 0
        out = capsys.readouterr().out
        assert "automatic_failover" in out and "RAID1(1+1)" in out

    def test_solve_baseline_matches_library(self, capsys):
        from repro import analytical_result, paper_parameters

        main(["solve", "--model", "baseline", "--hep", "0"])
        out = capsys.readouterr().out
        expected = analytical_result(paper_parameters(hep=0.0), "baseline").nines
        assert f"{expected:.3f}" in out


class TestCompareCommand:
    def test_compare_prints_ranking(self, capsys):
        assert main(["compare", "--hep", "0.01", "--failure-rate", "1e-6"]) == 0
        out = capsys.readouterr().out
        assert "ranking (best first):" in out
        assert "RAID5(7+1)" in out

    def test_compare_hep_zero_prefers_raid1(self, capsys):
        main(["compare", "--hep", "0", "--failure-rate", "1e-6"])
        out = capsys.readouterr().out
        ranking_line = [line for line in out.splitlines() if line.startswith("ranking")][0]
        assert ranking_line.split(": ")[1].split(" > ")[0] == "RAID1(1+1)"


class TestMcCommand:
    def test_mc_batch_run(self, capsys):
        assert main([
            "mc", "--policy", "conventional", "--failure-rate", "1e-4",
            "--hep", "0.05", "--iterations", "500", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "policy:             conventional" in out
        assert "availability:" in out and "interval:" in out

    def test_mc_hot_spare_pool_end_to_end(self, capsys):
        assert main([
            "mc", "--policy", "hot_spare_pool", "--failure-rate", "1e-4",
            "--hep", "0.05", "--iterations", "500", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "hot_spare_pool" in out and "disk failures" in out

    def test_mc_custom_spares(self, capsys):
        assert main([
            "mc", "--spares", "3", "--failure-rate", "1e-4",
            "--hep", "0.05", "--iterations", "300", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "hot_spare_pool_k3" in out

    @pytest.mark.parametrize(
        "workers,label",
        [(1, "batch kernel="), (2, "sharded(2 workers, process pool) kernel=")],
    )
    def test_mc_executor_line_names_the_path_that_ran(self, capsys, workers, label):
        from repro.core.evaluation import evaluate
        from repro.core.parameters import paper_parameters

        assert main([
            "mc", "--failure-rate", "1e-4", "--hep", "0.05",
            "--iterations", "200", "--seed", "1", "--workers", str(workers),
        ]) == 0
        out = capsys.readouterr().out
        line = next(line for line in out.splitlines() if line.startswith("executor:"))
        estimate = evaluate(
            paper_parameters(disk_failure_rate=1e-4, hep=0.05),
            backend="monte_carlo", n_iterations=200, seed=1, workers=workers,
        )
        assert line == "executor:           " + estimate.provenance.removeprefix("executor=")
        assert label in line and "auto" not in line

    def test_mc_seed_entropy_printed(self, capsys):
        assert main([
            "mc", "--failure-rate", "1e-4", "--hep", "0.05",
            "--iterations", "200", "--seed", "17",
        ]) == 0
        assert "seed entropy:       17" in capsys.readouterr().out

    def test_mc_random_seed_resolves_entropy(self, capsys):
        assert main([
            "mc", "--failure-rate", "1e-4", "--hep", "0.05",
            "--iterations", "200", "--seed", "random",
        ]) == 0
        out = capsys.readouterr().out
        entropy_line = next(line for line in out.splitlines() if "seed entropy:" in line)
        assert int(entropy_line.split(":")[1]) >= 0

    def test_mc_sharded_workers(self, capsys):
        assert main([
            "mc", "--failure-rate", "1e-4", "--hep", "0.05",
            "--iterations", "600", "--seed", "1", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "executor:           sharded(2 workers, process pool)" in out
        assert "iterations:         600" in out

    def test_mc_adaptive_target_half_width(self, capsys):
        assert main([
            "mc", "--failure-rate", "1e-4", "--hep", "0.05",
            "--iterations", "300", "--seed", "1",
            "--target-half-width", "2e-4", "--max-iterations", "5000",
        ]) == 0
        out = capsys.readouterr().out
        assert "executor:           sharded(1 worker)" in out

    def test_mc_pinned_shard_size_worker_invariant(self, capsys):
        args = [
            "mc", "--failure-rate", "1e-4", "--hep", "0.05",
            "--iterations", "600", "--seed", "1", "--shard-size", "200",
        ]
        assert main(args + ["--workers", "1"]) == 0
        one = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        two = capsys.readouterr().out
        line = next(l for l in one.splitlines() if "availability:" in l)
        assert line in two  # same decomposition -> bit-identical estimate

    def test_mc_negative_seed_is_clean_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mc", "--iterations", "200", "--seed", "-5"])
        assert excinfo.value.code == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_mc_max_iterations_requires_target(self, capsys):
        assert main([
            "mc", "--iterations", "200", "--max-iterations", "5000",
        ]) == 2
        assert "--target-half-width" in capsys.readouterr().err

    def test_mc_policy_and_spares_conflict(self, capsys):
        assert main([
            "mc", "--policy", "conventional", "--spares", "2", "--iterations", "100",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_mc_unknown_policy_is_clean_error(self, capsys):
        assert main(["mc", "--policy", "bogus", "--iterations", "100"]) == 2
        err = capsys.readouterr().err
        assert "unknown policy 'bogus'" in err
        assert "conventional" in err  # the error lists the alternatives


class TestSweepCommand:
    def test_analytical_hep_sweep(self, capsys):
        assert main([
            "sweep", "--axis", "hep", "--values", "0,0.001,0.01",
            "--backend", "auto",
        ]) == 0
        out = capsys.readouterr().out
        assert "axis:     hep (3 points)" in out
        assert "backend:  auto" in out
        assert out.count("0.9999") >= 3

    def test_sweep_matches_solve(self, capsys):
        assert main(["sweep", "--axis", "hep", "--values", "0.01"]) == 0
        sweep_out = capsys.readouterr().out
        assert main(["solve", "--hep", "0.01"]) == 0
        solve_out = capsys.readouterr().out
        availability = next(
            line.split(":")[1].strip()
            for line in solve_out.splitlines() if line.startswith("availability")
        )
        assert availability in sweep_out

    def test_grid_spacing(self, capsys):
        assert main([
            "sweep", "--axis", "failure_rate", "--grid", "5e-7:5.5e-6:6",
            "--policy", "automatic_failover",
        ]) == 0
        out = capsys.readouterr().out
        assert "axis:     failure_rate (6 points)" in out

    def test_log_grid(self, capsys):
        assert main([
            "sweep", "--axis", "failure_rate", "--grid", "1e-7:1e-5:3:log",
        ]) == 0
        assert "(3 points)" in capsys.readouterr().out

    def test_monte_carlo_backend_prints_intervals(self, capsys):
        assert main([
            "sweep", "--axis", "hep", "--values", "0.05", "--backend", "monte_carlo",
            "--failure-rate", "1e-4", "--iterations", "400", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "ci_low" in out and "ci_high" in out

    def test_two_axis_grid_monte_carlo(self, capsys):
        assert main([
            "sweep", "--axis", "hep", "--values", "0,0.05",
            "--axis2", "failure_rate", "--grid2", "1e-5:1e-4:2",
            "--backend", "monte_carlo", "--failure-rate", "1e-4",
            "--iterations", "400", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "hep x failure_rate" in out and "2 x 2 = 4 points" in out
        assert "ci_low" in out

    def test_two_axis_grid_analytical(self, capsys):
        assert main([
            "sweep", "--axis", "hep", "--values", "0.001,0.01",
            "--axis2", "failure_rate", "--values2", "1e-6,1e-5",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 x 2 = 4 points" in out and "ci_low" not in out

    def test_crn_flag_runs_stacked_engine(self, capsys):
        assert main([
            "sweep", "--axis", "hep", "--values", "0.01,0.05",
            "--backend", "monte_carlo", "--failure-rate", "1e-4",
            "--iterations", "400", "--seed", "1", "--crn",
        ]) == 0
        assert "ci_low" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "--executor", "scalar"],
            ["sweep", "--axis", "hep", "--values", "0.05", "--mc-engine", "per_point"],
        ],
        ids=["executor", "mc-engine"],
    )
    def test_removed_path_flags_rejected(self, capsys, argv):
        # The policy picks the Monte Carlo path; the old selectors are
        # unknown flags, not silently ignored ones.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_axis2_without_values2_is_clean_error(self, capsys):
        assert main([
            "sweep", "--axis", "hep", "--values", "0.01",
            "--axis2", "failure_rate",
        ]) == 2
        assert "--axis2 and --values2/--grid2" in capsys.readouterr().err

    def test_missing_values_is_clean_error(self, capsys):
        assert main(["sweep", "--axis", "hep"]) == 2
        assert "--values or --grid" in capsys.readouterr().err

    def test_bad_grid_is_clean_error(self, capsys):
        assert main(["sweep", "--axis", "hep", "--grid", "nonsense"]) == 2
        assert "START:STOP:POINTS" in capsys.readouterr().err

    def test_bad_values_is_clean_error(self, capsys):
        assert main(["sweep", "--axis", "hep", "--values", "a,b"]) == 2
        assert "comma-separated" in capsys.readouterr().err


class TestCrossvalCommand:
    def test_smoke_run_passes(self, capsys):
        assert main([
            "crossval", "--iterations", "1500", "--seed", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "cross-validation: PASS" in out
        assert "automatic_failover" in out and "baseline" in out


class TestPoliciesCommand:
    def test_policies_lists_registry(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "conventional" in out
        assert "automatic_failover" in out
        assert "hot_spare_pool" in out
        assert "erasure" in out
        assert "batch+scalar" in out
        # the erasure family advertises its periodic scheme; the legacy
        # policies advertise continuous repair
        assert "check every 730 h" in out
        assert "continuous repair" in out


class TestReproduceCommand:
    def test_reproduce_without_monte_carlo(self, capsys):
        assert main(["reproduce", "--no-mc"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out and "Fig. 7" in out
        assert "max_underestimation_factor" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--model", "bogus"])
