"""Tests for the ``python -m repro`` command-line front end."""

import pathlib

import pytest

from repro.__main__ import build_parser, main
from repro.sim.simulator import Simulator

DEMO = pathlib.Path(__file__).resolve().parents[1] / "examples" / "chaos_demo.json"

# Full-simulation module: runs real multi-epoch simulations end to end.
# Deselect with -m 'not slow' for a fast inner loop; CI runs everything.
pytestmark = pytest.mark.slow


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.category is None  # resolved to "H" at run time
        assert args.nodes == [16]
        assert args.network == ["bless"]
        assert args.controller == ["none"]

    def test_app_and_category_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--app", "mcf", "--category", "M"])

    def test_rejects_unknown_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--network", "wormhole"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--category", "X"])

    def test_hierarchical_flag_defaults(self):
        args = build_parser().parse_args(["--controller", "hierarchical"])
        assert args.controller_domains == 0  # topology's natural partition
        assert args.controller_mode == "global"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--controller-mode", "anarchic"])


class TestMain:
    def test_basic_run(self, capsys):
        rc = main(["--nodes", "16", "--cycles", "1500", "--epoch", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "system throughput" in out
        assert "IPC/node" in out

    def test_central_controller_run(self, capsys):
        rc = main(["--cycles", "1500", "--epoch", "500",
                   "--controller", "central"])
        assert rc == 0
        assert "controller=central" in capsys.readouterr().out

    def test_distributed_controller_run(self, capsys):
        rc = main(["--cycles", "1200", "--epoch", "400",
                   "--controller", "distributed"])
        assert rc == 0

    def test_static_controller_run(self, capsys):
        rc = main(["--cycles", "1200", "--epoch", "400",
                   "--controller", "static", "--static-rate", "0.7"])
        assert rc == 0

    def test_homogeneous_app_run(self, capsys):
        rc = main(["--app", "povray", "--cycles", "1200", "--epoch", "400"])
        assert rc == 0

    def test_buffered_torus_run(self, capsys):
        rc = main(["--cycles", "1200", "--epoch", "400",
                   "--network", "buffered", "--topology", "torus",
                   "--locality", "exponential"])
        assert rc == 0

    def test_run_alias_is_the_default_command(self, capsys):
        rc = main(["run", "--nodes", "16", "--cycles", "1200",
                   "--epoch", "400"])
        assert rc == 0
        assert "system throughput" in capsys.readouterr().out

    def test_hierarchical_controller_run(self, capsys):
        rc = main(["run", "--nodes", "64", "--cycles", "1500",
                   "--epoch", "500", "--controller", "hierarchical",
                   "--controller-domains", "4", "--controller-mode",
                   "local", "--check-invariants"])
        assert rc == 0
        assert "controller=hierarchical" in capsys.readouterr().out


class TestRegistryListing:
    def test_list_controllers(self, capsys):
        assert main(["run", "--list-controllers"]) == 0
        out = capsys.readouterr().out
        for name in ("none", "central", "distributed", "static",
                     "hierarchical", "fair"):
            assert name in out
        assert '("hierarchical", domains, mode)' in out
        assert '("static", rate, app)' in out
        assert '("central", alpha_throt, gamma_throt)' in out
        assert '("fair",)' in out
        assert "system throughput" not in out  # listing, not a run

    def test_list_topologies(self, capsys):
        assert main(["--list-topologies"]) == 0
        out = capsys.readouterr().out
        for name in ("mesh", "torus", "mesh3d", "torus3d", "chiplet",
                     "express"):
            assert name in out

    def test_both_listings_in_one_call(self, capsys):
        assert main(["--list-controllers", "--list-topologies"]) == 0
        out = capsys.readouterr().out
        assert "controller" in out and "topology" in out


class TestSweepSubcommand:
    """What the ``sweep`` verb did, as a ``run`` grid."""

    def test_sweep_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.backend is None  # numpy for one run, picked in a grid
        assert args.jobs is None  # resolved from $REPRO_JOBS at run time
        assert args.cache_dir is None

    def test_sweep_cold_then_warm(self, tmp_path, capsys):
        # One cell given --cache-dir is a grid of one.
        argv = ["run", "--nodes", "16", "--cycles", "1200", "--epoch", "400",
                "--jobs", "1", "--cache-dir", str(tmp_path), "--no-progress"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "harness: 1 jobs, 0 cache hits, 1 executed" in cold
        assert "IPC/node" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "harness: 1 jobs, 1 cache hits, 0 executed" in warm

    def test_sweep_parallel_workers(self, tmp_path, capsys):
        rc = main(["run", "--nodes", "16", "25", "--controller", "none",
                   "central", "--cycles", "1100", "--epoch", "400",
                   "--jobs", "2", "--no-progress"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "harness: 4 jobs" in out and "workers 2" in out
        rows = [line.split()[:3] for line in out.splitlines()[2:6]]
        assert rows == [["16", "bless", "none"], ["16", "bless", "central"],
                        ["25", "bless", "none"], ["25", "bless", "central"]]

    def test_sweep_rejects_bad_sizes(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--nodes", "16", "banana", "--no-progress"])
        assert exit_info.value.code == 2
        assert "--nodes" in capsys.readouterr().err

    def test_sweep_rejects_unknown_category(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--nodes", "16", "25", "--category", "ZZ", "--no-progress"])
        assert exit_info.value.code == 2
        assert "--category" in capsys.readouterr().err

    def test_sweep_rejects_sizes_the_topology_cannot_lay_out(self, capsys):
        rc = main(["--nodes", "16", "15", "--no-progress"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not square" in err
        assert len(err.splitlines()) == 1

    def test_sweep_rejects_unknown_network(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--nodes", "16", "--network", "bless", "wormhole",
                  "--no-progress"])
        assert exit_info.value.code == 2


class TestObservabilityFlags:
    def test_profile_run_prints_phase_table(self, capsys):
        rc = main(["--cycles", "1200", "--epoch", "400", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "network" in out and "cycles/s" in out

    def test_trace_run_prints_trace_summary(self, capsys):
        rc = main(["--cycles", "1200", "--epoch", "400", "--trace",
                   "--trace-sample", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "inject" in out and "eject" in out

    def test_default_run_prints_no_observability(self, capsys):
        rc = main(["--cycles", "1200", "--epoch", "400"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile:" not in out
        assert "trace:" not in out


class TestProfileSubcommand:
    """What the ``profile`` verb did, as ``run --profile``."""

    def test_profile_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.profile is False and args.trace is False
        assert args.overhead_check is None

    def test_profile_trace_and_no_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["--nodes", "16", "--cycles", "600", "--epoch", "300",
                   "--profile", "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile: wall" in out and "cycles/s" in out
        assert "trace:" in out and "inject@" in out
        assert list(tmp_path.iterdir()) == []

    def test_profile_overhead_gate_pass_and_fail(self, capsys):
        base = ["--nodes", "16", "--cycles", "500", "--epoch", "250",
                "--profile"]
        # A generous limit always passes...
        assert main(base + ["--overhead-check", "1000"]) == 0
        assert "overhead check OK" in capsys.readouterr().out
        # ...and an impossible (negative) limit always fails with exit 1.
        assert main(base + ["--overhead-check", "-1000"]) == 1
        assert "overhead check FAILED" in capsys.readouterr().err

    def test_overhead_check_times_one_run_not_a_grid(self, capsys):
        assert main(["--nodes", "16", "25", "--overhead-check", "5"]) == 2
        assert capsys.readouterr().err == (
            "error: --overhead-check times one run, not a grid\n"
        )


class TestFlitLoss:
    """What the ``chaos`` verb's exit 1 did, on every run and grid row."""

    @pytest.fixture
    def lose_one_flit_at_16_nodes(self, monkeypatch):
        result = Simulator.result

        def leaky(self):
            res = result(self)
            if res.num_nodes == 16:
                res.ejected_flits -= 1
            return res

        monkeypatch.setattr(Simulator, "result", leaky)

    def test_run_exits_1_with_one_line(self, lose_one_flit_at_16_nodes,
                                       capsys):
        assert main(["--cycles", "600", "--epoch", "300"]) == 1
        err = capsys.readouterr().err
        assert err == "FLIT LOSS: 1 in-network flit(s) unaccounted for\n"

    def test_grid_exits_1_with_one_line_per_lossy_row(
        self, lose_one_flit_at_16_nodes, capsys
    ):
        assert main(["--nodes", "16", "25", "--cycles", "600", "--epoch",
                     "300", "--jobs", "1", "--no-progress"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "FLIT LOSS" in line] == [
            "FLIT LOSS: 1 in-network flit(s) unaccounted for"
        ]

    def test_chaos_campaign_prints_its_table(self, capsys):
        assert main(["--chaos-script", str(DEMO), "--cycles", "2500",
                     "--epoch", "500", "--check-invariants",
                     "--watchdog", "2000"]) == 0
        out = capsys.readouterr().out
        assert "chaos: " in out and "events applied" in out
        assert "link_down" in out and "orphaned pre-injection" in out


class TestGuardrailFlags:
    def test_checked_run_reports_guardrails(self, capsys):
        rc = main(["--cycles", "1200", "--epoch", "400",
                   "--check-invariants", "--watchdog", "5000"])
        assert rc == 0
        assert "guardrails:" in capsys.readouterr().out

    def test_unchecked_run_prints_no_guardrail_line(self, capsys):
        rc = main(["--cycles", "1200", "--epoch", "400"])
        assert rc == 0
        assert "guardrails:" not in capsys.readouterr().out

    def test_fault_injection_run(self, capsys):
        rc = main(["--cycles", "1500", "--epoch", "500",
                   "--check-invariants", "--link-faults", "0.05",
                   "--router-faults", "0.06", "--fault-seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "link(s)" in out
        assert "router(s)" in out

    def test_guardrail_abort_exits_2(self, capsys):
        # A zero wall-clock budget trips the timeout guardrail.
        rc = main(["--cycles", "1000000", "--timeout", "0.0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "guardrail abort" in err

    def test_bad_fault_rate_rejected(self, capsys):
        assert main(["--cycles", "1000", "--link-faults", "1.5"]) == 2
        assert capsys.readouterr().err == (
            "error: link_fault_rate must be in [0, 1), got 1.5\n"
        )


class TestInvalidInput:
    """Bad input to a run or a grid is one line on stderr and exit 2;
    construction errors never reach a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["--app", "nosuchapp"], "unknown application 'nosuchapp'"),
        (["--nodes", "15"], "workload size 15 is not square"),
        (["--cycles", "0"], "argument --cycles: must be >= 1, got 0"),
        (["--controller", "static", "--static-rate", "1.5"],
         "rate must be a number in [0, 1), got 1.5"),
        (["--controller", "hierarchical", "--controller-domains", "999"],
         "into 999 rectangular domains"),
        (["--trace-capacity", "0"], "trace_capacity must be positive"),
        (["--backend", "native", "--trace"], "native backend: "),
        (["--profile", "--nodes", "15"], "workload size 15 is not square"),
        (["--chaos-script", str(DEMO), "--nodes", "15"],
         "workload size 15 is not square"),
        (["--chaos-script", "/nonexistent.json"],
         "error: cannot load chaos script '/nonexistent.json'"),
        (["--nodes", "16", "25", "--cycles", "0"],
         "argument --cycles: must be >= 1, got 0"),
        (["--nodes", "16", "25", "--epoch", "0", "--cycles", "500"],
         "error: epoch must be positive"),
        (["--nodes", "16", "25", "--locality", "exponential",
          "--locality-param", "-1", "--cycles", "500"],
         "error: mean distance must be positive"),
        (["--locality-param", "-1"],
         "error: uniform locality takes no parameter, got -1"),
    ])
    def test_exits_2_with_one_line(self, argv, message, capsys):
        usage_error = False
        try:
            rc = main(argv)
        except SystemExit as exit_info:  # argparse's own usage error
            rc, usage_error = exit_info.code, True
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""  # nothing ran
        if not usage_error:
            assert captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1
