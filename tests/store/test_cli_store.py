"""CLI surface of the artifact store: --store/--no-store and the
``repro store ls|verify|gc`` maintenance subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.store import ArtifactStore


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    """CLI invocations mutate REPRO_STORE; keep it test-local."""
    monkeypatch.setenv("REPRO_STORE", "off")


class TestParser:
    def test_store_flags_on_every_pipeline_subcommand(self):
        for command in (
            ["synthesize", "steane"],
            ["check", "steane"],
            ["ftcheck", "steane"],
            ["simulate", "steane"],
            ["table1"],
            ["figure4"],
            ["budget", "steane"],
        ):
            args = build_parser().parse_args(command)
            assert args.store is None, command
            assert args.no_store is False, command
            args = build_parser().parse_args(command + ["--no-store"])
            assert args.no_store is True

    def test_store_and_no_store_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["synthesize", "steane", "--store", "/x", "--no-store"]
            )

    def test_store_subcommand(self):
        args = build_parser().parse_args(["store", "ls"])
        assert args.store_command == "ls"
        args = build_parser().parse_args(
            ["store", "--store", "/x", "gc", "--max-bytes", "512M"]
        )
        assert args.store_command == "gc"
        assert args.max_bytes == 512 << 20
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "gc"])  # --max-bytes required

    @pytest.mark.parametrize("value", ["lots", "0", "-3"])
    def test_bad_max_bytes_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["store", "--store", "/x", "gc", "--max-bytes", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--max-bytes" in err and "byte count" in err
        assert "Traceback" not in err


class TestCommands:
    def test_synthesize_populates_then_store_ls(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert (
            main(["synthesize", "steane", "--store", str(root)]) == 0
        )
        kinds = {e.kind for e in ArtifactStore(root).entries()}
        assert kinds == {"protocol"}

        assert main(["store", "--store", str(root), "ls"]) == 0
        out = capsys.readouterr().out
        assert "protocol" in out and str(root) in out

    def test_no_store_writes_nothing(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        monkeypatch.setenv("REPRO_STORE", str(root))
        assert main(["synthesize", "steane", "--no-store"]) == 0
        assert not root.exists()

    def test_store_verify_reports_and_quarantines(self, tmp_path, capsys):
        root = tmp_path / "store"
        main(["synthesize", "steane", "--store", str(root)])
        capsys.readouterr()
        store = ArtifactStore(root)
        entries = list(store.entries())
        entries[0].path.write_bytes(b"garbage")
        assert main(["store", "--store", str(root), "verify"]) == 1
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert main(["store", "--store", str(root), "verify"]) == 0

    def test_store_gc_respects_byte_suffixes(self, tmp_path, capsys):
        root = tmp_path / "store"
        main(["synthesize", "steane", "--store", str(root)])
        capsys.readouterr()
        assert main(["store", "--store", str(root), "gc", "--max-bytes", "1K"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        assert ArtifactStore(root).total_bytes() <= 1024

    def test_store_command_refuses_disabled_store(self, capsys):
        assert main(["store", "ls"]) == 2  # REPRO_STORE=off from fixture
        assert "disabled" in capsys.readouterr().err

    def test_check_warm_and_cold_agree(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main(["check", "steane", "--store", str(root)]) == 0
        cold = capsys.readouterr().out
        assert main(["check", "steane", "--store", str(root)]) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert main(["check", "steane", "--no-store"]) == 0
        assert capsys.readouterr().out == cold
