"""CLI wiring for the daemon era: serve/query/ledger commands and the
``--ledger`` / ``--no-ledger`` flags (and their ``REPRO_LEDGER`` fold)."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import _fold_cache_flags, build_parser, main
from repro.serve.ledger import ENV_VAR, ResultsLedger


class TestParser:
    def test_ledger_flags_on_simulation_subcommands(self):
        for command in (["simulate", "steane"], ["figure4"]):
            args = build_parser().parse_args(command)
            assert args.ledger is None and args.no_ledger is False
            args = build_parser().parse_args(command + ["--no-ledger"])
            assert args.no_ledger is True
            args = build_parser().parse_args(
                command + ["--ledger", "/tmp/led"]
            )
            assert args.ledger == Path("/tmp/led")
        with pytest.raises(SystemExit):  # mutually exclusive
            build_parser().parse_args(
                ["figure4", "--ledger", "/x", "--no-ledger"]
            )

    def test_serve_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--listen", "127.0.0.1:0"]
        )
        assert args.listen == "127.0.0.1:0"
        assert args.engine_slots == 8
        assert args.compute_threads == 4
        assert args.workers == 1 and args.cluster is None

    def test_query_subcommands(self):
        args = build_parser().parse_args(
            [
                "query", "--connect", ":7790", "sweep", "steane",
                "--shots", "2000", "--p", "0.001", "0.01",
                "--direct-at", "0.01",
            ]
        )
        assert args.query_command == "sweep"
        assert args.shots == 2000 and args.p == [0.001, 0.01]
        assert args.direct_at == 0.01
        args = build_parser().parse_args(
            ["query", "--connect", "h:1", "direct", "steane", "0.001"]
        )
        assert args.p == 0.001
        for op in ("ping", "stats", "shutdown"):
            args = build_parser().parse_args(["query", "--connect", "h:1", op])
            assert args.query_command == op

    def test_ledger_maintenance_subcommands(self):
        args = build_parser().parse_args(["ledger", "ls"])
        assert args.ledger_command == "ls"
        args = build_parser().parse_args(["ledger", "show", "series", "abc"])
        assert (args.kind, args.key) == ("series", "abc")
        args = build_parser().parse_args(["ledger", "gc", "--max-bytes", "1M"])
        assert args.max_bytes == 1 << 20

    @pytest.mark.parametrize("value", ["lots", "0", "-3"])
    def test_bad_max_bytes_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["ledger", "gc", "--max-bytes", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--max-bytes" in err and "byte count" in err
        assert "Traceback" not in err


class TestLedgerFlagFold:
    def test_no_ledger_folds_to_off(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        args = build_parser().parse_args(["figure4", "--no-ledger"])
        _fold_cache_flags(args)
        assert os.environ[ENV_VAR] == "off"

    def test_ledger_path_folds_to_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_VAR, raising=False)
        args = build_parser().parse_args(
            ["figure4", "--ledger", str(tmp_path / "led")]
        )
        _fold_cache_flags(args)
        assert os.environ[ENV_VAR] == str(tmp_path / "led")

    def test_unflagged_leaves_environment_alone(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "keep-me")
        args = build_parser().parse_args(["figure4"])
        _fold_cache_flags(args)
        assert os.environ[ENV_VAR] == "keep-me"


class TestLedgerCommand:
    @pytest.fixture(autouse=True)
    def _isolate_env(self, monkeypatch):
        # main() folds --ledger into REPRO_LEDGER; monkeypatch records
        # and restores the pre-test value around that mutation.
        monkeypatch.setenv(ENV_VAR, "off")

    @pytest.fixture
    def seeded_root(self, tmp_path):
        ledger = ResultsLedger(tmp_path / "ledger")
        ledger.put("series", "deadbeef", {"trials": 10, "failures": 1})
        return ledger.root

    def test_ls(self, seeded_root, capsys):
        assert main(["ledger", "--ledger", str(seeded_root), "ls"]) == 0
        out = capsys.readouterr().out
        assert "series" in out and "deadbeef" in out and "1 records" in out

    def test_show(self, seeded_root, capsys):
        code = main(
            ["ledger", "--ledger", str(seeded_root), "show", "series", "deadbeef"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "trials": 10,
            "failures": 1,
        }

    def test_show_missing_key(self, seeded_root, capsys):
        code = main(
            ["ledger", "--ledger", str(seeded_root), "show", "series", "nope"]
        )
        assert code == 1

    def test_verify_clean_and_corrupt(self, seeded_root, capsys):
        assert main(["ledger", "--ledger", str(seeded_root), "verify"]) == 0
        segment = seeded_root / "segments" / "series.jsonl"
        segment.write_bytes(segment.read_bytes() + b"garbage\n")
        assert main(["ledger", "--ledger", str(seeded_root), "verify"]) == 1
        out = capsys.readouterr().out
        assert "1 bad lines quarantined" in out

    def test_gc(self, seeded_root, capsys):
        assert main(["ledger", "--ledger", str(seeded_root), "gc", "--max-bytes", "1"]) == 0
        assert "evicted 1 records" in capsys.readouterr().out

    def test_disabled_ledger_is_loud(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_VAR, "off")
        assert main(["ledger", "ls"]) == 2
        assert "disabled" in capsys.readouterr().err


class TestServeCommand:
    def test_bad_listen_is_loud(self, capsys):
        assert main(["serve", "--listen", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_bad_ledger_root_fails_at_once(self, monkeypatch, tmp_path, capsys):
        not_a_dir = tmp_path / "ledger"
        not_a_dir.write_text("")
        monkeypatch.setenv(ENV_VAR, str(not_a_dir))
        assert main(["serve", "--listen", "127.0.0.1:0"]) == 1
        assert "failed to start: [Errno 20] Not a directory" in capsys.readouterr().err

    def test_noise_flag_rejected(self, capsys):
        # Noise is per query; serve does not declare --noise at all.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--listen", "127.0.0.1:0", "--noise", "biased:eta=10,p=1e-3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --noise" in capsys.readouterr().err
