"""Tests for the multi-node chunk execution backend (``repro.sim.cluster``).

Mirrors ``tests/sim/test_shard.py`` one level up the distribution stack
and pins the cluster path's contracts:

* **wire round-trips** — chunk specs and partials survive the
  length-prefixed JSON framing, and the versioned handshake refuses
  mismatched peers instead of desyncing;
* **exactly-once merging** — a worker killed mid-stream gets its
  unacknowledged chunk requeued to the survivors and the merged
  :class:`~repro.sim.shard.ShardPartial` stays bit-identical to the
  inline run (never double-counted);
* **one slab knob** — an explicit ``max_slab`` (or the default) bounds
  every chunk, and a small one splits plans identically on either
  engine;
* **per-consumer parity** — every routed consumer produces bit-identical
  results on a two-worker localhost cluster and ``workers=1`` inline.
"""

import json
import socket
import threading

import numpy as np
import pytest

from repro.net import parse_endpoint
from repro.net.framing import recv_frame, send_frame
from repro.sim.cluster import (
    ClusterError,
    ClusterEvaluator,
    ClusterExecutorFactory,
    ClusterProtocolError,
    ClusterWorker,
    PROTOCOL_VERSION,
)
from repro.sim.sampler import make_sampler
from repro.sim.shard import (
    BernoulliChunk,
    PairChunk,
    RowChunk,
    RowPairChunk,
    ShardedEvaluator,
    StratumChunk,
    chunk_from_jsonable,
    chunk_to_jsonable,
    engine_payload,
    resolve_evaluator,
)
from repro.sim.subset import SubsetSampler, direct_mc
from repro.sim.noise import E1_1

from ..conftest import cached_protocol


@pytest.fixture(scope="module")
def steane_engine():
    return make_sampler(cached_protocol("steane"))


@pytest.fixture
def spin_workers():
    """Factory starting in-process ``ClusterWorker`` servers on real
    localhost TCP sockets; all stopped at teardown."""
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


class TestWireFormat:
    def test_chunk_specs_round_trip_frames(self):
        """Every chunk-spec type survives the JSON framing exactly."""
        specs = [
            StratumChunk(index=0, k=2, shots=500, entropy=(77, 0)),
            BernoulliChunk(index=1, shots=64, entropy=(5, 1), model=E1_1(p=0.01)),
            RowChunk(index=2, lo=10, hi=74, checkable_only=True, threshold=1),
            PairChunk(index=3, lo=0, hi=9),
            RowPairChunk(index=4, pairs=((0, 5), (3, 17)), threshold=2),
        ]
        left, right = socket.socketpair()
        try:
            for spec in specs:
                send_frame(left, ("chunk", chunk_to_jsonable(spec)))
            for spec in specs:
                kind, received = recv_frame(right)
                assert kind == "chunk"
                assert chunk_from_jsonable(received) == spec
        finally:
            left.close()
            right.close()

    def test_recv_frame_clean_eof_is_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_handshake_round_trip(self, steane_engine, spin_workers):
        (address,) = spin_workers(1)
        payload = json.loads(engine_payload(steane_engine))
        evaluator = ClusterEvaluator(steane_engine, [address], max_slab=32)
        links = evaluator._ensure_links()
        assert len(links) == 1
        assert links[0].info["locations"] == len(steane_engine.locations)
        assert (payload["engine"], payload["judge"]) == ("batched", "lookup")
        evaluator.close()

    def test_version_mismatch_rejected(self, steane_engine, spin_workers):
        """A worker refuses a future-version coordinator with a reason."""
        import repro.sim.cluster as cluster_module

        (address,) = spin_workers(1)
        header = {"digest": "0" * 64, "max_slab": 64}
        sock = socket.create_connection(parse_endpoint(address).address, timeout=5)
        try:
            send_frame(
                sock,
                ("hello", cluster_module._MAGIC, PROTOCOL_VERSION + 1, header),
            )
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply[0] == "reject"
        assert "version mismatch" in reply[1]

    def test_bad_magic_rejected(self, steane_engine, spin_workers):
        (address,) = spin_workers(1)
        sock = socket.create_connection(parse_endpoint(address).address, timeout=5)
        try:
            send_frame(sock, ("hello", "NOT-REPRO", PROTOCOL_VERSION, None))
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply[0] == "reject"
        assert "magic" in reply[1]

    def test_coordinator_raises_on_reject(self, steane_engine):
        """The coordinator surfaces a worker's reject as a protocol error."""
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def reject_once():
            conn, _ = server.accept()
            recv_frame(conn)
            send_frame(conn, ("reject", "wrong era"))
            conn.close()

        thread = threading.Thread(target=reject_once, daemon=True)
        thread.start()
        try:
            evaluator = ClusterEvaluator(
                steane_engine, ["%s:%d" % server.getsockname()[:2]], max_slab=32
            )
            with pytest.raises(ClusterProtocolError, match="wrong era"):
                evaluator._ensure_links()
        finally:
            thread.join(timeout=5)
            server.close()

    def test_unregistered_engine_refused(self):
        class FakeEngine:
            name = "batched"
            locations = []

        with pytest.raises(ValueError, match="registered engines"):
            ClusterEvaluator(FakeEngine(), ["127.0.0.1:1"])


class TestAdaptiveSlabPolicy:
    """Chunk sizing has one knob: an explicit ``max_slab``, or the module
    default of 8192 configurations."""

    def test_budgeted_series_is_engine_invariant(self, steane_engine):
        """Ledger keys leave the engine out, so a small-slab plan must not
        depend on it: batched and reference draw the same chunks and give
        bit-identical strata and direct tallies. A 64-configuration slab
        splits every sampled plan (500 stratum shots, 400 direct shots)
        into several chunks."""
        from repro.experiments.figure4 import run_series

        def series(engine):
            return run_series(
                "steane",
                protocol=steane_engine.protocol,
                shots=500,
                k_max=2,
                seed=11,
                engine=engine,
                direct_check_at=0.05,
                direct_shots=400,
                max_slab=64,
                ledger=False,
            )

        batched, reference = series("batched"), series("reference")
        assert batched.f1_exact == reference.f1_exact
        assert batched.estimates == reference.estimates
        assert (batched.direct.trials, batched.direct.failures) == (
            reference.direct.trials,
            reference.direct.failures,
        )

    def test_parse_mem_budget(self):
        from repro.cli import parse_bytes

        assert parse_bytes("4096") == 4096
        assert parse_bytes("64K") == 64 << 10
        assert parse_bytes("2m") == 2 << 20
        assert parse_bytes("1GiB") == 1 << 30
        assert parse_bytes(512) == 512
        with pytest.raises(ValueError):
            parse_bytes("lots")
        with pytest.raises(ValueError):
            parse_bytes("-3")

    def test_resolve_evaluator_priority(self, steane_engine):
        # An explicit max_slab wins; None is the module default.
        explicit = resolve_evaluator(steane_engine, max_slab=123)
        assert explicit.max_slab == explicit.planner.max_slab == 123
        defaulted = resolve_evaluator(steane_engine)
        assert defaulted.max_slab == defaulted.planner.max_slab == 8192
        # A cluster backend plans with the same bound and sends it to
        # every worker in the handshake header.
        factory = ClusterExecutorFactory(("127.0.0.1:1",))
        for max_slab, expected in ((123, 123), (None, 8192)):
            cluster = resolve_evaluator(
                steane_engine, max_slab=max_slab, executor=factory
            )
            assert cluster.max_slab == cluster.planner.max_slab == expected
            assert cluster._header["max_slab"] == expected


class TestExactlyOnceMerging:
    def test_worker_kill_mid_stream_requeues_bit_identical(
        self, steane_engine, spin_workers
    ):
        """A worker that dies after 2 chunks (unacknowledged in-flight
        chunk dropped) must not lose or double-count anything."""
        (survivor,) = spin_workers(1)
        (dying,) = spin_workers(1, max_chunks=2)
        inline = ShardedEvaluator(steane_engine, max_slab=16)
        baseline = inline.reduce(
            inline.planner.plan_rows(checkable_only=True, threshold=1)
        )
        with ClusterEvaluator(
            steane_engine, [dying, survivor], max_slab=16
        ) as evaluator:
            merged = evaluator.reduce(
                evaluator.planner.plan_rows(checkable_only=True, threshold=1)
            )
        assert merged.trials == baseline.trials
        assert merged.heavy == baseline.heavy
        np.testing.assert_array_equal(merged.x_hist, baseline.x_hist)
        np.testing.assert_array_equal(merged.z_hist, baseline.z_hist)
        np.testing.assert_array_equal(merged.rows, baseline.rows)

    def test_all_workers_dead_raises(self, steane_engine, spin_workers):
        (address,) = spin_workers(1, max_chunks=1)
        with pytest.raises(ClusterError, match="disconnected"):
            with ClusterEvaluator(
                steane_engine, [address], max_slab=8
            ) as evaluator:
                evaluator.reduce(
                    evaluator.planner.plan_rows(checkable_only=True)
                )

    def test_unreachable_worker_skipped_if_any_up(
        self, steane_engine, spin_workers
    ):
        (address,) = spin_workers(1)
        dead_port = _free_port()
        with ClusterEvaluator(
            steane_engine,
            [f"127.0.0.1:{dead_port}", address],
            max_slab=64,
            connect_timeout=2.0,
        ) as evaluator:
            merged = evaluator.reduce(evaluator.planner.plan_pairs())
            assert [failure[0] for failure in evaluator.failed_addresses] == [
                ("127.0.0.1", dead_port)
            ]
        inline = ShardedEvaluator(steane_engine, max_slab=64)
        baseline = inline.reduce(inline.planner.plan_pairs())
        assert merged.failures == baseline.failures
        assert merged.weighted_mass == baseline.weighted_mass

    def test_no_worker_reachable_raises(self, steane_engine):
        with pytest.raises(ClusterError, match="no cluster worker"):
            with ClusterEvaluator(
                steane_engine,
                [f"127.0.0.1:{_free_port()}"],
                connect_timeout=2.0,
            ) as evaluator:
                evaluator.reduce(evaluator.planner.plan_pairs())

    def test_close_with_live_map_drops_connections(
        self, steane_engine, spin_workers
    ):
        """close() while a map generator is still alive (the consumer
        broke out of the loop) must drop connections instead of racing
        the worker threads with bye frames — and a fresh session must
        come up afterwards."""
        addresses = spin_workers(2)
        evaluator = ClusterEvaluator(steane_engine, addresses, max_slab=8)
        stream = evaluator.map(
            evaluator.planner.plan_rows(checkable_only=True)
        )
        assert next(stream).trials == 8
        evaluator.close()
        merged = evaluator.reduce(
            evaluator.planner.plan_rows(checkable_only=True)
        )
        assert merged.trials == evaluator.planner.num_rows(True)
        stream.close()
        evaluator.close()

    def test_early_abort_streams_and_reconnects(
        self, steane_engine, spin_workers
    ):
        """Consume only the head of a plan, then reuse the evaluator: the
        abandoned session is torn down and a fresh one comes up."""
        addresses = spin_workers(2)
        with ClusterEvaluator(
            steane_engine, addresses, max_slab=8
        ) as evaluator:
            stream = evaluator.map(
                evaluator.planner.plan_rows(checkable_only=True)
            )
            first = next(stream)
            assert first.index == 0
            assert first.trials == 8
            stream.close()
            merged = evaluator.reduce(
                evaluator.planner.plan_rows(checkable_only=True)
            )
        assert merged.trials == evaluator.planner.num_rows(True)


class TestConsumerParity:
    """Every routed consumer: two-worker localhost cluster == inline."""

    def test_subset_sampler_strata_and_enumerations(self, spin_workers):
        protocol = cached_protocol("steane")
        addresses = spin_workers(2)
        tallies = {}
        for backend in ("inline", "cluster"):
            executor = (
                ClusterExecutorFactory(tuple(addresses))
                if backend == "cluster"
                else None
            )
            with SubsetSampler.for_protocol(
                protocol,
                rng=np.random.default_rng(11),
                workers=1,
                max_slab=250,
                executor=executor,
            ) as sampler:
                sampler.enumerate_k1_exact()
                for k in (2, 3):
                    sampler.sample_stratum(k, 600)
                tallies[backend] = {
                    k: (stats.trials, stats.failures)
                    for k, stats in sampler.strata.items()
                }
        assert tallies["inline"] == tallies["cluster"]

    def test_concurrent_sessions_one_worker_set(self, spin_workers):
        """A second evaluator session must not deadlock behind an open
        first one on the same workers (``simulate --direct --cluster``:
        direct_mc runs inside the sampler's own open session)."""
        protocol = cached_protocol("steane")
        addresses = spin_workers(2)
        factory = ClusterExecutorFactory(tuple(addresses))
        with SubsetSampler.for_protocol(
            protocol,
            rng=np.random.default_rng(7),
            max_slab=200,
            executor=factory,
        ) as sampler:
            sampler.sample_stratum(1, 400)  # session 1 now holds links
            nested = direct_mc(
                sampler.engine,
                E1_1(p=0.02),
                800,
                rng=np.random.default_rng(3),
                max_slab=200,
                executor=factory,
            )
        inline = direct_mc(
            sampler.engine,
            E1_1(p=0.02),
            800,
            rng=np.random.default_rng(3),
            workers=1,
            max_slab=200,
        )
        assert nested.failures == inline.failures

    def test_direct_mc_parity(self, steane_engine, spin_workers):
        addresses = spin_workers(2)
        inline = direct_mc(
            steane_engine,
            E1_1(p=0.02),
            2000,
            rng=np.random.default_rng(3),
            workers=1,
            max_slab=300,
        )
        clustered = direct_mc(
            steane_engine,
            E1_1(p=0.02),
            2000,
            rng=np.random.default_rng(3),
            max_slab=300,
            executor=ClusterExecutorFactory(tuple(addresses)),
        )
        assert inline.failures == clustered.failures

    def test_certificate_parity(self, spin_workers):
        from repro.core.ftcheck import check_fault_tolerance

        protocol = cached_protocol("steane")
        addresses = spin_workers(2)
        inline = check_fault_tolerance(protocol, max_slab=32)
        clustered = check_fault_tolerance(
            protocol,
            max_slab=32,
            executor=ClusterExecutorFactory(tuple(addresses)),
        )
        assert inline == clustered == []

    def test_survey_parity(self, spin_workers):
        from repro.core.ftcheck import second_order_survey

        protocol = cached_protocol("steane")
        addresses = spin_workers(2)
        inline = second_order_survey(
            protocol, samples=400, rng=np.random.default_rng(5), max_slab=64
        )
        clustered = second_order_survey(
            protocol,
            samples=400,
            rng=np.random.default_rng(5),
            max_slab=64,
            executor=ClusterExecutorFactory(tuple(addresses)),
        )
        assert inline == clustered

    def test_budget_parity_with_disconnect(self, spin_workers):
        """The acceptance drill: budgets bit-identical to inline even
        when one of the two workers is killed mid-enumeration."""
        from repro.core.analysis import two_fault_error_budget

        protocol = cached_protocol("steane")
        (survivor,) = spin_workers(1)
        (dying,) = spin_workers(1, max_chunks=3)
        baseline = two_fault_error_budget(protocol)
        clustered = two_fault_error_budget(
            protocol,
            max_slab=613,
            executor=ClusterExecutorFactory((dying, survivor)),
        )
        assert baseline == clustered

    def test_figure4_parity(self, spin_workers):
        from repro.experiments.figure4 import run_figure4

        protocol = cached_protocol("steane")  # warm the synthesis cache
        assert protocol is not None
        addresses = spin_workers(2)
        inline = run_figure4(["steane"], shots=400, workers=1)[0]
        clustered = run_figure4(
            ["steane"],
            shots=400,
            executor=ClusterExecutorFactory(tuple(addresses)),
        )[0]
        assert inline.shots == clustered.shots
        assert [e.mean for e in inline.estimates] == [
            e.mean for e in clustered.estimates
        ]

    def test_table1_verify_ft_parity(self, spin_workers):
        from repro.experiments.table1 import run_table1

        protocol = cached_protocol("steane")
        assert protocol is not None
        addresses = spin_workers(2)
        rows = [("steane", "heuristic", "optimal")]
        inline = run_table1(rows, verify_ft=True)
        clustered = run_table1(
            rows,
            verify_ft=True,
            executor=ClusterExecutorFactory(tuple(addresses)),
        )
        assert inline[0].ft_certified is True
        assert clustered[0].ft_certified is True


class TestEngineCacheReuse:
    """ISSUE-5 satellite: workers cache the compiled payload by digest."""

    def test_second_session_hits_the_cache(self, steane_engine, spin_workers):
        (address,) = spin_workers(1)
        first = ClusterEvaluator(steane_engine, [address], max_slab=256)
        base = first.reduce(first.planner.plan_stratum(2, 1500, 42))
        assert first._links[0].info["engine_source"] == "payload"
        first.close()

        second = ClusterEvaluator(steane_engine, [address], max_slab=256)
        again = second.reduce(second.planner.plan_stratum(2, 1500, 42))
        assert second._links[0].info["engine_source"] == "memory"
        second.close()
        assert (base.trials, base.failures) == (again.trials, again.failures)

    def test_digest_is_stable_across_coordinators(self, steane_engine):
        """Two evaluators over the same engine payload share one digest,
        so a worker serves both from one compiled engine."""
        a = ClusterEvaluator(steane_engine, ["127.0.0.1:1"])
        b = ClusterEvaluator(steane_engine, ["127.0.0.1:1"])
        assert a.payload_digest == b.payload_digest

    def test_mislabeled_payload_rejected_not_cached(
        self, steane_engine, spin_workers
    ):
        """The worker re-hashes the payload bytes before caching: a
        payload that does not hash to the advertised digest is refused,
        so a buggy coordinator cannot poison the digest's cache slot."""
        import repro.sim.cluster as cluster_module

        (address,) = spin_workers(1)
        payload = engine_payload(steane_engine)
        header = {"digest": "0" * 64, "max_slab": 64, "model": None}
        sock = socket.create_connection(parse_endpoint(address).address, timeout=5)
        try:
            send_frame(
                sock,
                ("hello", cluster_module._MAGIC, PROTOCOL_VERSION, header),
            )
            kind, _ = recv_frame(sock)
            assert kind == "need-payload"
            send_frame(sock, ("payload", payload))
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply[0] == "reject"
        assert "hash" in reply[1]
        # The bogus digest must not have been cached: a well-formed
        # session against the same worker still starts from a cache miss.
        evaluator = ClusterEvaluator(steane_engine, [address], max_slab=64)
        evaluator._ensure_links()
        assert evaluator._links[0].info["engine_source"] == "payload"
        evaluator.close()

    def test_different_slab_same_engine_cache(self, steane_engine, spin_workers):
        """max_slab is per-session (planner state), not part of the
        engine digest — a re-sized session still hits the cache."""
        (address,) = spin_workers(1)
        first = ClusterEvaluator(steane_engine, [address], max_slab=128)
        first.reduce(first.planner.plan_stratum(1, 200, 7))
        first.close()
        second = ClusterEvaluator(steane_engine, [address], max_slab=4096)
        second.reduce(second.planner.plan_stratum(1, 200, 7))
        assert second._links[0].info["engine_source"] == "memory"
        second.close()


class TestHeterogeneousModelOnCluster:
    """Noise models travel in the handshake header: cluster runs of
    heterogeneous workloads are bit-identical to inline."""

    def test_biased_workloads_bit_identical(self, steane_engine, spin_workers):
        from repro.sim.noisemodels import BiasedPauliModel

        model = BiasedPauliModel(p=0.01, eta=100.0)
        addresses = spin_workers(2)
        with ShardedEvaluator(steane_engine, max_slab=512, model=model) as inline:
            stratum = inline.reduce(inline.planner.plan_stratum(2, 3000, 99))
            rows = inline.reduce(inline.planner.plan_rows(checkable_only=False))
            pairs = inline.reduce(inline.planner.plan_pairs())
        with ClusterEvaluator(
            steane_engine, addresses, max_slab=512, model=model
        ) as cluster:
            c_stratum = cluster.reduce(cluster.planner.plan_stratum(2, 3000, 99))
            c_rows = cluster.reduce(cluster.planner.plan_rows(checkable_only=False))
            c_pairs = cluster.reduce(cluster.planner.plan_pairs())
        assert (stratum.trials, stratum.failures) == (
            c_stratum.trials,
            c_stratum.failures,
        )
        assert rows.weighted_mass == c_rows.weighted_mass
        assert pairs.weighted_mass == c_pairs.weighted_mass
        assert np.array_equal(pairs.pair_ids, c_pairs.pair_ids)
        assert np.array_equal(pairs.pair_mass, c_pairs.pair_mass)

    def test_correlated_certificate_parity(self, spin_workers):
        from repro.core.ftcheck import check_fault_tolerance
        from repro.sim.cluster import ClusterExecutorFactory
        from repro.sim.noisemodels import CorrelatedPairModel

        protocol = cached_protocol("steane")
        model = CorrelatedPairModel(p=1e-3, pair_rate=5e-4)
        addresses = spin_workers(2)
        inline = check_fault_tolerance(protocol, model=model, max_violations=50)
        clustered = check_fault_tolerance(
            protocol,
            model=model,
            max_violations=50,
            executor=ClusterExecutorFactory(tuple(addresses)),
        )
        assert inline == clustered
        assert inline  # crosstalk events do defeat a d=3 protocol


class TestPipelinedFabric:
    """Protocol-3 credit window + compressed frames: scheduling and the
    wire codec may change throughput, never results."""

    def test_old_version_peer_rejected_cleanly(
        self, steane_engine, spin_workers
    ):
        """A protocol-2 coordinator gets a readable reject, not a hung
        socket or a codec-byte desync (handshake frames stayed raw for
        exactly this reason)."""
        import repro.sim.cluster as cluster_module

        (address,) = spin_workers(1)
        sock = socket.create_connection(parse_endpoint(address).address, timeout=5)
        try:
            send_frame(
                sock,
                ("hello", cluster_module._MAGIC, PROTOCOL_VERSION - 1, None),
            )
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply[0] == "reject"
        assert "version mismatch" in reply[1]

    def test_codec_negotiation_prefers_coordinator_order(self):
        from repro.sim.cluster import _negotiate_codec
        from repro.store import available_codecs

        ours = available_codecs()
        # The coordinator's preference list is walked in order; the
        # first mutually-speakable codec wins.
        assert _negotiate_codec(ours) == ours[0]
        assert _negotiate_codec(("none", "zlib")) == "none"
        # No overlap (or no list at all) falls back to raw frames.
        assert _negotiate_codec(("martian",)) == "none"
        assert _negotiate_codec(()) == "none"
        assert _negotiate_codec(None) == "none"

    def test_welcome_announces_codec_framer_uses_it(
        self, steane_engine, spin_workers
    ):
        from repro.store import available_codecs

        (address,) = spin_workers(1)
        with ClusterEvaluator(
            steane_engine, [address], max_slab=64
        ) as evaluator:
            (link,) = evaluator._ensure_links()
            assert link.info["codec"] == available_codecs()[0]
            assert link.framer.codec == link.info["codec"]

    def test_multi_chunk_in_flight_requeue_bit_identical(
        self, steane_engine, spin_workers
    ):
        """The acceptance drill: a worker killed with a *window* of
        unacknowledged chunks in flight (depth 6, dies after 2) must
        have the entire window requeued — nothing lost, nothing
        double-counted."""
        (survivor,) = spin_workers(1)
        (dying,) = spin_workers(1, max_chunks=2)
        inline = ShardedEvaluator(steane_engine, max_slab=8)
        baseline = inline.reduce(
            inline.planner.plan_rows(checkable_only=True, threshold=1)
        )
        with ClusterEvaluator(
            steane_engine, [dying, survivor], max_slab=8, pipeline_depth=6
        ) as evaluator:
            assert evaluator.pipeline_depth == 6
            merged = evaluator.reduce(
                evaluator.planner.plan_rows(checkable_only=True, threshold=1)
            )
        assert merged.trials == baseline.trials
        assert merged.heavy == baseline.heavy
        np.testing.assert_array_equal(merged.rows, baseline.rows)
        np.testing.assert_array_equal(merged.x_hist, baseline.x_hist)
        np.testing.assert_array_equal(merged.z_hist, baseline.z_hist)

    def test_depth_one_degenerates_to_lockstep(
        self, steane_engine, spin_workers
    ):
        """pipeline_depth=1 is the old ack-per-chunk protocol: at most
        one outstanding chunk, same merged results."""
        addresses = spin_workers(2)
        inline = ShardedEvaluator(steane_engine, max_slab=16)
        baseline = inline.reduce(inline.planner.plan_stratum(2, 1500, 42))
        with ClusterEvaluator(
            steane_engine, addresses, max_slab=16, pipeline_depth=1
        ) as evaluator:
            merged = evaluator.reduce(
                evaluator.planner.plan_stratum(2, 1500, 42)
            )
            assert evaluator.wire_stats()["pipeline_depth"] == 1
        assert (merged.trials, merged.failures) == (
            baseline.trials,
            baseline.failures,
        )

    def test_depth_resolution_and_clamping(self, steane_engine):
        addresses = ["127.0.0.1:1"]
        assert (
            ClusterEvaluator(steane_engine, addresses).pipeline_depth == 4
        )
        assert (
            ClusterEvaluator(
                steane_engine, addresses, pipeline_depth=1000
            ).pipeline_depth
            == 32
        )
        assert (
            ClusterEvaluator(
                steane_engine, addresses, pipeline_depth=0
            ).pipeline_depth
            == 1
        )

    def test_executor_factory_forwards_depth(self, steane_engine):
        explicit = ClusterExecutorFactory(
            ("127.0.0.1:1",), pipeline_depth=7
        )
        assert explicit(steane_engine, 64).pipeline_depth == 7
        defaulted = ClusterExecutorFactory(("127.0.0.1:1",))
        assert defaulted(steane_engine, 64).pipeline_depth == 4

    def test_wire_stats_counts_and_survives_close(
        self, steane_engine, spin_workers
    ):
        from repro.store import available_codecs

        (address,) = spin_workers(1)
        evaluator = ClusterEvaluator(steane_engine, [address], max_slab=64)
        merged = evaluator.reduce(evaluator.planner.plan_stratum(1, 500, 9))
        assert merged.trials == 500
        live = evaluator.wire_stats()
        assert live["frames_sent"] > 0
        assert live["frames_received"] > 0
        assert live["raw_sent"] > 0 and live["wire_sent"] > 0
        assert live["compression_ratio"] > 0
        assert live["codec"] == available_codecs()[0]
        evaluator.close()
        # Retired-link counters are absorbed, not dropped, at close()
        # (the bye frame itself is one more sent frame).
        closed = evaluator.wire_stats()
        assert closed["frames_sent"] >= live["frames_sent"]
        assert closed["raw_received"] >= live["raw_received"]

    def test_framer_round_trip_and_counters(self):
        from repro.net.framing import JsonFramer
        from repro.store import preferred_codec

        left, right = socket.socketpair()
        sender = JsonFramer(left, preferred_codec())
        receiver = JsonFramer(right, preferred_codec())
        try:
            compressible = ["chunk", {"rows": list(range(2000))}]
            sender.send(compressible)
            assert receiver.recv() == compressible
            # 2000 consecutive ints are highly redundant JSON: the codec
            # must have shrunk the wire below the raw JSON size.
            assert sender.wire_sent < sender.raw_sent
            assert receiver.raw_received == sender.raw_sent
            # An incompressible payload ships raw under the "none" tag
            # instead of inflating the wire (9 bytes framing overhead).
            import base64
            import os as _os

            noise = ("blob", base64.b64encode(_os.urandom(1 << 14)).decode())
            sender.send(noise)
            kind, blob = receiver.recv()
            assert kind == "blob" and blob == noise[1]
            assert receiver.frames_received == 2
        finally:
            left.close()
            right.close()

    def test_framer_rejects_unknown_codec(self):
        from repro.net.framing import JsonFramer

        left, right = socket.socketpair()
        try:
            with pytest.raises(ClusterProtocolError, match="unknown frame codec"):
                JsonFramer(left, "martian")
            # An unknown codec id on the wire is a protocol error, not
            # a silent mis-decode.
            framer = JsonFramer(right, "none")
            import struct as _struct

            left.sendall(_struct.pack(">Q", 2) + bytes((250, 0)))
            with pytest.raises(ClusterProtocolError, match="codec id"):
                framer.recv()
        finally:
            left.close()
            right.close()


def _free_port() -> int:
    """A port that was just free (nothing listens on it afterwards)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port
