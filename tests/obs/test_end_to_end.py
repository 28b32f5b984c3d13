"""End-to-end observability contracts (the PR's acceptance criteria).

* A ``--trace`` run of ``figure4 --cluster`` produces **one stitched
  JSONL trace** spanning the CLI root, the planner, every cluster
  worker that executed chunks, the merge, and the ledger put — and the
  traced run is bit-identical to the same run untraced.
* A cluster worker killed mid-stream (fault-injection drill) leaves a
  **well-formed** trace: the lost dispatches appear as
  ``status="requeued"`` records, the retries are siblings under the
  same ``cluster.map`` span on a surviving worker, and nothing orphans.
* The serve daemon ships its spans back to a traced client, exposes the
  metrics registry through ``stats``/``metrics``, and the registry keeps
  operator-visible counters monotone across daemon restarts.
"""

import re
import threading

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.obs.summary import load_trace, verify_trace
from repro.obs.trace import trace_command
from repro.sim.cluster import ClusterEvaluator, ClusterWorker
from repro.sim.sampler import make_sampler
from repro.sim.shard import ShardedEvaluator

from ..conftest import cached_protocol


@pytest.fixture
def spin_workers():
    """In-process ``ClusterWorker`` servers on real localhost sockets."""
    started: list[ClusterWorker] = []

    def factory(count: int = 2, **kwargs) -> list[str]:
        workers = [
            ClusterWorker("127.0.0.1", 0, **kwargs) for _ in range(count)
        ]
        for worker in workers:
            threading.Thread(target=worker.serve_forever, daemon=True).start()
        started.extend(workers)
        return [worker.address for worker in workers]

    yield factory
    for worker in started:
        worker.stop()


def _strip_timings(text: str) -> str:
    """Wall-clock fragments out of the render (the only nondeterminism)."""
    return re.sub(r"\d+\.\d+s", "Ts", text)


class TestTracedFigure4Cluster:
    def test_one_stitched_trace_and_bit_identical_output(
        self, spin_workers, tmp_path, monkeypatch, capsys
    ):
        cached_protocol("steane")  # warm the synthesis cache
        addresses = spin_workers(2)
        cluster_arg = ",".join(addresses)
        trace_path = tmp_path / "figure4.jsonl"
        # Small slab -> many chunks, so the credit scheduler feeds both
        # workers; fresh ledger roots per run so neither run replays.
        base = [
            "figure4",
            "--codes",
            "steane",
            "--shots",
            "400",
            "--max-slab",
            "16",
            "--cluster",
            cluster_arg,
        ]
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger-traced"))
        assert cli_main(base + ["--trace", str(trace_path)]) == 0
        traced_out = capsys.readouterr().out
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger-plain"))
        assert cli_main(base) == 0
        untraced_out = capsys.readouterr().out

        # Determinism: identical output modulo wall-clock fragments
        # (which differ between two *untraced* runs too).
        assert _strip_timings(traced_out) == _strip_timings(untraced_out)

        spans = load_trace(trace_path)
        report = verify_trace(spans)
        assert report["ok"], report["errors"]
        assert report["roots"] == ["repro.figure4"]
        names = {record["name"] for record in spans}
        assert {
            "repro.figure4",
            "figure4.series",
            "plan",
            "cluster.map",
            "cluster.dispatch",
            "cluster.chunk",
            "merge",
            "ledger.put",
        } <= names
        # Every worker that executed chunks is in the trace, by address;
        # with ~25+ chunks across the strata both workers participate.
        chunk_workers = {
            record["attrs"]["worker"]
            for record in spans
            if record["name"] == "cluster.chunk"
        }
        assert chunk_workers == set(addresses)
        # Worker-side spans parent into the coordinator's tree: every
        # cluster.chunk hangs off a span that exists in this trace (the
        # orphan check above already guarantees it — make it explicit).
        ids = {record["span"] for record in spans}
        assert all(
            record["parent"] in ids
            for record in spans
            if record["name"] == "cluster.chunk"
        )


class TestTracedLocalWorkers:
    def test_ftcheck_on_workers_traces_every_span_once(self, tmp_path, capsys):
        """``--workers 2`` runs two loopback workers; their chunk spans
        arrive once, through the handshake, and the traced output equals
        the untraced one."""
        cached_protocol("steane")  # warm the synthesis cache
        trace_path = tmp_path / "ftcheck.jsonl"
        base = ["ftcheck", "steane", "--workers", "2", "--max-slab", "16"]
        assert cli_main(base + ["--trace", str(trace_path)]) == 0
        traced_out = capsys.readouterr().out
        assert cli_main(base) == 0
        assert _strip_timings(traced_out) == _strip_timings(capsys.readouterr().out)

        assert cli_main(["trace", "verify", str(trace_path)]) == 0
        spans = load_trace(trace_path)
        report = verify_trace(spans)
        assert report["ok"], report["errors"]
        assert report["roots"] == ["repro.ftcheck"]
        ids = [record["span"] for record in spans]
        assert len(ids) == len(set(ids))
        chunks = [record for record in spans if record["name"] == "cluster.chunk"]
        dispatches = [
            record for record in spans if record["name"] == "cluster.dispatch"
        ]
        assert chunks and len(chunks) == len(dispatches)
        assert len({record["attrs"]["worker"] for record in chunks}) == 2


class TestTracedFaultInjection:
    def test_worker_kill_mid_stream_leaves_wellformed_trace(
        self, spin_workers, tmp_path
    ):
        """The drill from the cluster suite, traced: the dying worker's
        lost dispatches become ``requeued`` records, the retries land as
        siblings under the same map span, and the result stays
        bit-identical to the inline baseline."""
        engine = make_sampler(cached_protocol("steane"))
        (survivor,) = spin_workers(1)
        (dying,) = spin_workers(1, max_chunks=2)
        inline = ShardedEvaluator(engine, max_slab=16)
        baseline = inline.reduce(
            inline.planner.plan_rows(checkable_only=True, threshold=1)
        )
        trace_path = tmp_path / "drill.jsonl"
        with trace_command(trace_path, "repro.test"):
            with ClusterEvaluator(
                engine, [dying, survivor], max_slab=16
            ) as evaluator:
                merged = evaluator.reduce(
                    evaluator.planner.plan_rows(
                        checkable_only=True, threshold=1
                    )
                )
        assert merged.trials == baseline.trials
        np.testing.assert_array_equal(merged.rows, baseline.rows)

        spans = load_trace(trace_path)
        report = verify_trace(spans)
        assert report["ok"], report["errors"]  # crash left no orphans

        (map_record,) = [r for r in spans if r["name"] == "cluster.map"]
        assert map_record["attrs"]["requeues"] >= 1
        dispatches = [r for r in spans if r["name"] == "cluster.dispatch"]
        # Every dispatch — lost and retried — is a sibling under the map.
        assert all(r["parent"] == map_record["span"] for r in dispatches)
        requeued = [r for r in dispatches if r["status"] == "requeued"]
        assert requeued
        succeeded = [r for r in dispatches if r["status"] == "ok"]
        for lost in requeued:
            retries = [
                r
                for r in succeeded
                if r["attrs"]["index"] == lost["attrs"]["index"]
            ]
            assert retries, f"chunk {lost['attrs']['index']} never retried"
            assert all(
                r["attrs"]["worker"] != lost["attrs"]["worker"]
                for r in retries
            )
        # The dead worker shipped no span for its dropped in-flight
        # chunk: each executed chunk index appears at most once per
        # worker address.
        seen = [
            (r["attrs"]["worker"], r["attrs"]["index"])
            for r in spans
            if r["name"] == "cluster.chunk"
        ]
        assert len(seen) == len(set(seen))
