"""Tests for the command-line interface (direct main() invocation)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthesize_defaults(self):
        args = build_parser().parse_args(["synthesize", "steane"])
        assert args.prep == "heuristic"
        assert args.verification == "optimal"

    def test_simulate_p_list(self):
        args = build_parser().parse_args(
            ["simulate", "steane", "--p", "0.001", "0.01"]
        )
        assert args.p == [0.001, 0.01]

    def test_shard_flags_on_every_engine_backed_subcommand(self):
        for command in (
            ["check", "steane"],
            ["ftcheck", "steane"],
            ["simulate", "steane"],
            ["table1"],
            ["figure4"],
            ["budget", "steane"],
        ):
            args = build_parser().parse_args(command)
            assert args.workers == 1, command
            assert args.max_slab is None, command
            assert args.cluster is None, command
            args = build_parser().parse_args(
                command
                + [
                    "--workers", "4", "--max-slab", "2048",
                    "--cluster", "127.0.0.1:7781,127.0.0.1:7782",
                ]
            )
            assert args.workers == 4
            assert args.max_slab == 2048
            assert args.cluster == "127.0.0.1:7781,127.0.0.1:7782"
            # --max-slab is the only chunk-size flag.
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--mem-budget", "64M"])

    def test_pipeline_depth_on_every_engine_backed_subcommand(self):
        for command in (
            ["check", "steane"],
            ["ftcheck", "steane"],
            ["simulate", "steane"],
            ["table1"],
            ["figure4"],
            ["budget", "steane"],
        ):
            args = build_parser().parse_args(command)
            assert args.pipeline_depth is None, command
            args = build_parser().parse_args(command + ["--pipeline-depth", "8"])
            assert args.pipeline_depth == 8

    def test_engine_choices_are_batched_and_reference(self):
        for command in (
            ["ftcheck", "steane"],
            ["simulate", "steane"],
            ["figure4"],
            ["budget", "steane"],
            ["query", "--connect", "127.0.0.1:7790", "sweep", "steane"],
        ):
            for engine in ("batched", "reference"):
                args = build_parser().parse_args(
                    command + ["--engine", engine]
                )
                assert args.engine == engine
            for engine in ("kernel", "auto", "warp"):
                with pytest.raises(SystemExit) as exc:
                    build_parser().parse_args(command + ["--engine", engine])
                assert exc.value.code == 2

    def test_figure4_shard_axis(self):
        # The axis follows from --codes/--workers/--cluster alone.
        assert not hasattr(build_parser().parse_args(["figure4"]), "shard")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure4", "--shard", "intra"])

    def test_cluster_worker_subcommand(self):
        args = build_parser().parse_args(
            ["cluster", "worker", "--listen", "127.0.0.1:7781"]
        )
        assert args.command == "cluster"
        assert args.cluster_command == "worker"
        assert args.listen == "127.0.0.1:7781"
        assert args.max_chunks is None
        args = build_parser().parse_args(
            ["cluster", "worker", "--listen", ":0", "--max-chunks", "3"]
        )
        assert args.max_chunks == 3

    def test_cluster_worker_requires_listen(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "worker"])


class TestCommands:
    def test_codes(self, capsys):
        assert main(["codes"]) == 0
        out = capsys.readouterr().out
        assert "steane" in out
        assert "(16, 6, 4)" in out

    def test_synthesize(self, capsys):
        assert main(["synthesize", "steane"]) == 0
        out = capsys.readouterr().out
        assert "1 verification ancillas, 3 CNOTs" in out

    def test_synthesize_with_outputs(self, tmp_path, capsys):
        protocol_path = tmp_path / "steane.json"
        qasm_dir = tmp_path / "qasm"
        assert (
            main(
                [
                    "synthesize",
                    "steane",
                    "-o",
                    str(protocol_path),
                    "--qasm",
                    str(qasm_dir),
                ]
            )
            == 0
        )
        assert protocol_path.exists()
        assert (qasm_dir / "prep.qasm").exists()

    def test_check_catalog_code(self, capsys):
        assert main(["check", "steane"]) == 0
        assert "fault tolerant" in capsys.readouterr().out

    def test_check_loaded_protocol(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["synthesize", "steane", "-o", str(path)])
        capsys.readouterr()
        assert main(["check", "--load", str(path)]) == 0
        assert "fault tolerant" in capsys.readouterr().out

    def test_check_without_target_errors(self, capsys):
        assert main(["check"]) == 2

    def test_check_takes_the_ftcheck_flags(self, capsys):
        assert main(["check", "steane", "--survey", "20"]) == 0
        out = capsys.readouterr().out
        assert "fault tolerant" in out and "t=2 survey" in out

    def test_simulate(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "steane",
                    "--shots",
                    "300",
                    "--k-max",
                    "2",
                    "--p",
                    "0.001",
                    "0.01",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "f_1 = 0.0" in out
        assert "p=0.001" in out

    def test_figure4_single_code(self, capsys):
        assert (
            main(["figure4", "--codes", "steane", "--shots", "300"]) == 0
        )
        out = capsys.readouterr().out
        assert "== steane" in out
        assert "slope" in out

    def test_budget(self, capsys):
        assert main(["budget", "steane"]) == 0
        out = capsys.readouterr().out
        assert "c2 = 57.40" in out
        assert "%" in out

    def test_budget_reference_engine_identical(self, capsys):
        assert main(["budget", "steane"]) == 0
        batched = capsys.readouterr().out
        assert main(["budget", "steane", "--engine", "reference"]) == 0
        assert capsys.readouterr().out == batched

    def test_budget_cluster_pipeline_depth_identical(self, capsys):
        """--pipeline-depth only changes scheduling, never results."""
        import threading

        from repro.sim.cluster import ClusterWorker

        assert main(["budget", "steane"]) == 0
        serial = capsys.readouterr().out
        worker = ClusterWorker("127.0.0.1", 0)
        threading.Thread(target=worker.serve_forever, daemon=True).start()
        spec = f"{worker.host}:{worker.port}"
        try:
            for depth in ("1", "8"):
                assert (
                    main(
                        ["budget", "steane", "--cluster", spec,
                         "--pipeline-depth", depth]
                    )
                    == 0
                )
                assert capsys.readouterr().out == serial
        finally:
            worker.stop()

    def test_budget_sharded_identical(self, capsys):
        assert main(["budget", "steane"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(
                ["budget", "steane", "--workers", "2", "--max-slab", "999"]
            )
            == 0
        )
        assert capsys.readouterr().out == serial

    def test_simulate_workers_identical(self, capsys):
        command = [
            "simulate", "steane", "--shots", "300", "--k-max", "2",
            "--p", "0.01",
        ]
        assert main(command + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(command + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_budget_max_runs_guard(self, capsys):
        with pytest.raises(ValueError):
            main(["budget", "steane", "--max-runs", "10"])

    def test_budget_cluster_identical(self, capsys):
        """--cluster against two real localhost TCP workers reproduces
        the serial output byte-for-byte."""
        import threading

        from repro.sim.cluster import ClusterWorker

        assert main(["budget", "steane"]) == 0
        serial = capsys.readouterr().out
        workers = [ClusterWorker("127.0.0.1", 0) for _ in range(2)]
        for worker in workers:
            threading.Thread(target=worker.serve_forever, daemon=True).start()
        spec = ",".join(f"{w.host}:{w.port}" for w in workers)
        try:
            assert main(["budget", "steane", "--cluster", spec]) == 0
            assert capsys.readouterr().out == serial
        finally:
            for worker in workers:
                worker.stop()

    def test_ftcheck(self, capsys):
        assert main(["ftcheck", "steane"]) == 0
        out = capsys.readouterr().out
        assert "fault tolerant" in out
        assert "batched engine" in out

    def test_ftcheck_with_survey(self, capsys):
        assert main(["ftcheck", "steane", "--survey", "200"]) == 0
        out = capsys.readouterr().out
        assert "t=2 survey" in out
        assert "sampled fault pairs" in out

    def test_ftcheck_loaded_protocol(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["synthesize", "steane", "-o", str(path)])
        capsys.readouterr()
        assert main(["ftcheck", "--load", str(path)]) == 0
        assert "fault tolerant" in capsys.readouterr().out

    def test_ftcheck_without_target_errors(self, capsys):
        assert main(["ftcheck"]) == 2

    def test_simulate_direct(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "steane",
                    "--shots",
                    "200",
                    "--k-max",
                    "2",
                    "--p",
                    "0.01",
                    "--direct",
                ]
            )
            == 0
        )
        assert "direct, 200 shots" in capsys.readouterr().out

    def test_table1_single_fast_run(self, capsys, monkeypatch):
        # Restrict to the Steane rows to keep the test quick.
        import repro.experiments.table1 as table1_module

        monkeypatch.setattr(
            table1_module,
            "TABLE1_FAST_ROWS",
            [("steane", "heuristic", "optimal")],
        )
        assert main(["table1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "steane" in out
        assert "ΣANC" in out

    def test_table1_verify_ft_column(self, capsys, monkeypatch):
        import repro.experiments.table1 as table1_module

        monkeypatch.setattr(
            table1_module,
            "TABLE1_FAST_ROWS",
            [("steane", "heuristic", "optimal")],
        )
        assert main(["table1", "--fast", "--verify-ft"]) == 0
        assert " FT " in capsys.readouterr().out


class TestNoiseFlag:
    def test_noise_flag_on_every_engine_backed_subcommand(self):
        for command in (
            ["check", "steane"],
            ["ftcheck", "steane"],
            ["simulate", "steane"],
            ["table1"],
            ["figure4"],
            ["budget", "steane"],
        ):
            args = build_parser().parse_args(command)
            assert args.noise is None, command
            args = build_parser().parse_args(
                command + ["--noise", "biased:eta=100,p=1e-3"]
            )
            assert args.noise == "biased:eta=100,p=1e-3"

    def test_bad_spec_is_loud(self):
        with pytest.raises(ValueError, match="unknown noise model"):
            main(["budget", "steane", "--noise", "thermal:p=1"])

    def test_e1_1_spec_output_identical_to_default(self, capsys):
        assert main(["budget", "steane"]) == 0
        plain = capsys.readouterr().out
        assert main(["budget", "steane", "--noise", "e1_1:p=1e-3"]) == 0
        assert capsys.readouterr().out == plain

    def test_direct_sweep_with_legacy_model_specs(self, capsys):
        """--direct calls model.with_p per sweep point — E1_1 and scaled
        specs must survive it (regression: with_p was missing)."""
        for spec in ("e1_1:p=1e-3", "scaled:p=1e-3,two_qubit=5"):
            assert (
                main(
                    [
                        "simulate",
                        "steane",
                        "--shots",
                        "100",
                        "--direct",
                        "--noise",
                        spec,
                        "--p",
                        "1e-3",
                    ]
                )
                == 0
            )
            assert "direct" in capsys.readouterr().out

    def test_biased_simulate_runs(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "steane",
                    "--shots",
                    "300",
                    "--noise",
                    "biased:eta=100,p=2e-2",
                    "--p",
                    "1e-3",
                    "2e-2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "biased:eta=100,p=2e-2" in out
        assert "p_L" in out

    def test_rate_map_model_with_default_sweep(self, capsys):
        """The CLI's own --noise help example must run with the default
        --p sweep: unreachable points (a site rate would reach 1) are
        skipped with a note, not a crash."""
        assert (
            main(
                [
                    "simulate",
                    "steane",
                    "--shots",
                    "150",
                    "--noise",
                    "inhom:p=1e-3,meas=1e-2,loc12=5e-3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "skipping p >=" in out
        assert "p=0.01:" in out  # reachable points still reported

    def test_correlated_ftcheck_reports_pair_events(self, capsys):
        code = main(
            [
                "ftcheck",
                "steane",
                "--noise",
                "correlated:p=1e-3,pair_rate=1e-4",
                "--max-violations",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # weight-2 crosstalk events defeat a d=3 protocol
        assert "NOT fault tolerant" in out
