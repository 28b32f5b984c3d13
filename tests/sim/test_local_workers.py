"""``workers=N``: N loopback cluster workers (``repro.sim.cluster.LocalWorkers``).

The one local multi-process backend. These tests pin what the launcher
owes its caller: the same tallies as inline, a readable refusal for an
engine without a payload, workers that only the launching process can
use, a child environment that keeps traces single and BLAS single-
threaded, and no worker outliving its coordinator.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.sim.cluster import ClusterEvaluator, ClusterProtocolError, LocalWorkers
from repro.sim.frame import protocol_locations
from repro.sim.logical import LogicalJudge
from repro.sim.sampler import make_sampler
from repro.sim.shard import ShardedEvaluator, merge_partials, resolve_evaluator

from ..conftest import cached_protocol
from ..reference import FakeEngine

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def steane_engine():
    return make_sampler(cached_protocol("steane"))


def _gone(pid: int) -> bool:
    """The process has exited (reaped, or a zombie awaiting its reaper)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return True
    return "\nState:\tZ" in status


def _environ(pid: int) -> dict[str, str]:
    raw = Path(f"/proc/{pid}/environ").read_bytes()
    return dict(
        entry.split("=", 1) for entry in raw.decode().split("\0") if "=" in entry
    )


class _OddJudge(LogicalJudge):
    """A judge class no registry entry rebuilds."""


class TestResolveEvaluator:
    def test_workers_gives_a_cluster_evaluator_over_loopback_workers(
        self, steane_engine
    ):
        inline = ShardedEvaluator(steane_engine, max_slab=64)
        rows = inline.reduce(inline.planner.plan_rows())
        stratum = inline.reduce(inline.planner.plan_stratum(3, 5000, 11))
        evaluator = resolve_evaluator(steane_engine, workers=2, max_slab=64)
        try:
            assert isinstance(evaluator, ClusterEvaluator)
            assert len(evaluator.endpoints) == 2
            assert all(ep.host == "127.0.0.1" for ep in evaluator.endpoints)
            got_rows = merge_partials(evaluator.map(evaluator.planner.plan_rows()))
            got_stratum = evaluator.reduce(evaluator.planner.plan_stratum(3, 5000, 11))
            processes = list(evaluator.local_workers._processes)
        finally:
            evaluator.close()
        assert got_rows.trials == evaluator.planner.num_rows()
        assert (got_rows.failures, got_rows.weighted_mass) == (
            rows.failures,
            rows.weighted_mass,
        )
        assert (got_stratum.trials, got_stratum.failures) == (
            stratum.trials,
            stratum.failures,
        )
        assert stratum.failures > 0
        # close() stopped and reaped every worker.
        assert evaluator.local_workers is None
        assert all(process.returncode is not None for process in processes)

    def test_custom_engine_is_refused_readably(self):
        """A custom engine has no payload; ``workers > 1`` refuses it by
        name, pointing at ``workers=1``."""
        engine = FakeEngine(
            lambda injections: False,
            protocol_locations(cached_protocol("steane")),
        )
        with pytest.raises(ValueError, match=r"FakeEngine.*workers=1"):
            resolve_evaluator(engine, workers=2)
        # workers=1 runs it inline.
        evaluator = resolve_evaluator(engine, workers=1, max_slab=64)
        merged = evaluator.reduce(evaluator.planner.plan_stratum(1, 100, 3))
        assert (merged.trials, merged.failures) == (100, 0)

    def test_custom_judge_is_refused_readably(self, steane_engine):
        protocol = cached_protocol("steane")
        engine = make_sampler(protocol, judge=_OddJudge(protocol.code))
        with pytest.raises(ValueError, match=r"judges.*workers=1"):
            resolve_evaluator(engine, workers=2)

    def test_nonpositive_workers_rejected(self, steane_engine):
        with pytest.raises(ValueError):
            resolve_evaluator(steane_engine, workers=0)


class TestLaunch:
    def test_workers_require_the_launch_token(self, steane_engine):
        """Another local process (no token) cannot use the workers."""
        with LocalWorkers(1) as workers:
            assert len(workers.token) >= 32
            stranger = ClusterEvaluator(steane_engine, workers.endpoints)
            with pytest.raises(ClusterProtocolError, match="requires a token"):
                stranger._ensure_links()
            with workers(steane_engine, 64) as evaluator:
                merged = evaluator.reduce(evaluator.planner.plan_stratum(1, 200, 5))
            assert merged.trials == 200

    @pytest.mark.skipif(not Path("/proc/self/environ").exists(), reason="needs /proc")
    def test_child_environment_and_close(self, monkeypatch, tmp_path):
        """One BLAS thread per worker, the launch token, and no trace
        variables: spans come back once, through the handshake. Closing
        twice is harmless."""
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.jsonl"))
        monkeypatch.setenv("REPRO_TRACE_CTX", "abc:def")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
        workers = LocalWorkers(1)
        (process,) = workers._processes
        try:
            env = _environ(process.pid)
        finally:
            workers.close()
        workers.close()
        assert process.returncode is not None
        assert "REPRO_TRACE" not in env and "REPRO_TRACE_CTX" not in env
        assert env["REPRO_NET_TOKEN"] == workers.token
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert env[name] == "1"
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
    def test_workers_exit_when_their_coordinator_is_killed(self):
        """SIGKILL leaves no chance to clean up; the workers still go,
        because their stdin pipe closes with the coordinator."""
        script = textwrap.dedent(
            """
            import time
            from repro.codes.catalog import get_code
            from repro.core.protocol import synthesize_protocol
            from repro.sim.sampler import make_sampler
            from repro.sim.shard import resolve_evaluator

            engine = make_sampler(synthesize_protocol(get_code("steane")))
            evaluator = resolve_evaluator(engine, workers=2, max_slab=64)
            evaluator.reduce(evaluator.planner.plan_stratum(1, 256, 1))
            pids = [p.pid for p in evaluator.local_workers._processes]
            print(*pids, flush=True)
            time.sleep(60)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_STORE="off")
        coordinator = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            pids = [int(pid) for pid in coordinator.stdout.readline().split()]
            assert len(pids) == 2 and not any(map(_gone, pids))
        finally:
            coordinator.send_signal(signal.SIGKILL)
            coordinator.wait()
            coordinator.stdout.close()
        deadline = time.monotonic() + 5.0
        while not all(map(_gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if not _gone(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors, f"workers {survivors} outlived their coordinator"



def test_table1_certifies_every_row_on_one_worker_set(monkeypatch):
    """``run_table1(verify_ft=True, workers=2)`` launches one worker set
    for all its rows, not one per row, and certifies like inline."""
    from repro.experiments.table1 import run_table1

    launches = []
    launch = LocalWorkers.__init__

    def counted(self, count):
        launches.append(count)
        launch(self, count)

    monkeypatch.setattr(LocalWorkers, "__init__", counted)
    rows = [("steane", "heuristic", "optimal"), ("shor", "heuristic", "optimal")]
    sharded = run_table1(rows, verify_ft=True, workers=2, max_slab=64)
    assert launches == [2]
    inline = run_table1(rows, verify_ft=True)
    assert [row.ft_certified for row in sharded] == [True, True]
    assert [row.ft_certified for row in inline] == [True, True]
