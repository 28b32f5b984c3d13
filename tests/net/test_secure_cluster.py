"""Security fault-injection drills for the cluster fabric.

Every rejection here must land *before any chunk is dispatched or
executed* (asserted via the worker's served-chunk counter) with a
readable error naming the cure — and the secured transport must change
no result bit: TLS + token runs merge identically to plaintext and to
the inline ``workers=1`` baseline, including under a mid-stream worker
kill."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.net import (
    Endpoint,
    NONCE_BYTES,
    client_proof,
    make_nonce,
    recv_frame,
    send_frame,
    server_ssl_context,
)
from repro.sim.cluster import (
    ClusterError,
    ClusterEvaluator,
    ClusterProtocolError,
    ClusterWorker,
    PROTOCOL_VERSION,
    _MAGIC,
)
from repro.sim.sampler import make_sampler
from repro.sim.shard import ShardedEvaluator

from ..conftest import cached_protocol


@pytest.fixture(scope="module")
def steane_engine():
    return make_sampler(cached_protocol("steane"))


@pytest.fixture
def spin_worker():
    """Factory starting one in-process worker with arbitrary security
    knobs; returns ``(worker, connect_endpoint)``. All stopped at
    teardown."""
    started: list[ClusterWorker] = []

    def factory(
        token=None, tls_pair=None, cafile=None, allow=None, max_chunks=None
    ):
        listen = Endpoint(
            "127.0.0.1",
            0,
            tls=tls_pair is not None,
            certfile=tls_pair[0] if tls_pair else None,
            keyfile=tls_pair[1] if tls_pair else None,
        )
        worker = ClusterWorker(
            "127.0.0.1",
            0,
            token="" if token is None else token,
            ssl_context=server_ssl_context(listen),
            allow=allow,
            max_chunks=max_chunks,
        )
        threading.Thread(target=worker.serve_forever, daemon=True).start()
        started.append(worker)
        connect = Endpoint(
            "127.0.0.1",
            worker.port,
            tls=tls_pair is not None,
            cafile=cafile if cafile is not None else (
                tls_pair[0] if tls_pair else None
            ),
        )
        return worker, connect

    yield factory
    for worker in started:
        worker.stop()


def _stratum(evaluator, shots=600, seed=11):
    merged = evaluator.reduce(evaluator.planner.plan_stratum(2, shots, seed))
    return (merged.trials, merged.failures)


def _fake_header(auth: bool) -> dict:
    """A syntactically valid hello header; auth runs before the digest
    is ever resolved, so the digest can be nonsense for auth drills."""
    return {
        "digest": "0" * 64,
        "max_slab": 16,
        "model": None,
        "codecs": ["none"],
        "auth": auth,
    }


class TestTokenFaultInjection:
    def test_wrong_token_rejected_before_any_chunk(
        self, steane_engine, spin_worker
    ):
        worker, endpoint = spin_worker(token="righttok")
        evaluator = ClusterEvaluator(
            steane_engine, [endpoint], max_slab=32, token="wrongtok"
        )
        with pytest.raises(ClusterProtocolError, match="does not verify"):
            _stratum(evaluator)
        assert worker._served == 0

    def test_tokenless_client_against_token_worker(
        self, steane_engine, spin_worker
    ):
        worker, endpoint = spin_worker(token="s3cret")
        evaluator = ClusterEvaluator(steane_engine, [endpoint], max_slab=32)
        with pytest.raises(
            ClusterProtocolError, match="requires a token"
        ):
            _stratum(evaluator)
        assert worker._served == 0

    def test_token_client_against_open_worker(
        self, steane_engine, spin_worker
    ):
        """One-sided the other way: the coordinator holds a token, the
        worker runs open — never ship work to a peer that cannot prove
        token knowledge."""
        worker, endpoint = spin_worker(token=None)
        evaluator = ClusterEvaluator(
            steane_engine, [endpoint], max_slab=32, token="s3cret"
        )
        with pytest.raises(ClusterProtocolError, match="runs open"):
            _stratum(evaluator)
        assert worker._served == 0

    def test_truncated_proof_rejected(self, spin_worker):
        worker, endpoint = spin_worker(token="s3cret")
        with socket.create_connection(endpoint.address, timeout=10) as sock:
            send_frame(
                sock, ("hello", _MAGIC, PROTOCOL_VERSION, _fake_header(True))
            )
            kind, server_nonce = recv_frame(sock)
            assert kind == "auth-challenge"
            client_nonce = make_nonce()
            proof = client_proof("s3cret", bytes.fromhex(server_nonce), client_nonce)
            send_frame(sock, ("auth-proof", client_nonce.hex(), proof[:-1].hex()))
            reply = recv_frame(sock)
            assert reply[0] == "reject" and "does not verify" in reply[1]
        assert worker._served == 0

    def test_malformed_nonce_rejected(self, spin_worker):
        worker, endpoint = spin_worker(token="s3cret")
        with socket.create_connection(endpoint.address, timeout=10) as sock:
            send_frame(
                sock, ("hello", _MAGIC, PROTOCOL_VERSION, _fake_header(True))
            )
            assert recv_frame(sock)[0] == "auth-challenge"
            send_frame(sock, ("auth-proof", "abcd", "junk"))
            reply = recv_frame(sock)
            assert reply[0] == "reject" and "auth-proof" in reply[1]
        assert worker._served == 0

    def test_replayed_proof_is_worthless(self, spin_worker):
        """A recorded (nonce, proof) pair from one connection must fail
        on the next: the server's nonce is fresh per connection."""
        worker, endpoint = spin_worker(token="s3cret")
        with socket.create_connection(endpoint.address, timeout=10) as sock:
            send_frame(
                sock, ("hello", _MAGIC, PROTOCOL_VERSION, _fake_header(True))
            )
            kind, first_nonce = recv_frame(sock)
            assert kind == "auth-challenge"
            recorded_nonce = make_nonce().hex()
            recorded_proof = client_proof(
                "s3cret", bytes.fromhex(first_nonce), bytes.fromhex(recorded_nonce)
            ).hex()
            send_frame(sock, ("auth-proof", recorded_nonce, recorded_proof))
            assert recv_frame(sock)[0] == "auth-ok"  # the original works
        with socket.create_connection(endpoint.address, timeout=10) as sock:
            send_frame(
                sock, ("hello", _MAGIC, PROTOCOL_VERSION, _fake_header(True))
            )
            kind, second_nonce = recv_frame(sock)
            assert kind == "auth-challenge"
            assert second_nonce != first_nonce
            send_frame(sock, ("auth-proof", recorded_nonce, recorded_proof))
            reply = recv_frame(sock)
            assert reply[0] == "reject" and "does not verify" in reply[1]
        assert worker._served == 0

    def test_right_token_works_and_advertises_auth(
        self, steane_engine, spin_worker
    ):
        _, endpoint = spin_worker(token="s3cret")
        with ShardedEvaluator(steane_engine, max_slab=32) as inline:
            baseline = _stratum(inline)
        with ClusterEvaluator(
            steane_engine, [endpoint], max_slab=32, token="s3cret"
        ) as cluster:
            assert _stratum(cluster) == baseline
            info = cluster._ensure_links()[0].info
            assert info["auth"] is True and info["tls"] is False
            stats = cluster.wire_stats()
            assert stats["auth"] is True
            assert stats["transport"] == "plaintext"

    def test_ambient_env_token_secures_both_sides(
        self, steane_engine, monkeypatch
    ):
        # token=None on both constructor paths -> both fall back to env.
        monkeypatch.setenv("REPRO_NET_TOKEN", "envtok")
        worker_env = ClusterWorker("127.0.0.1", 0)
        threading.Thread(
            target=worker_env.serve_forever, daemon=True
        ).start()
        try:
            assert worker_env._token == "envtok"
            with ClusterEvaluator(
                steane_engine,
                [Endpoint("127.0.0.1", worker_env.port)],
                max_slab=32,
            ) as cluster:
                trials, _ = _stratum(cluster)
                assert trials > 0
                assert cluster.wire_stats()["auth"] is True
        finally:
            worker_env.stop()


class TestTLSFaultInjection:
    def test_tls_client_against_plaintext_worker(
        self, steane_engine, spin_worker, tls_cert_pair
    ):
        worker, plain = spin_worker()
        endpoint = Endpoint(
            "127.0.0.1", plain.port, tls=True, cafile=tls_cert_pair[0]
        )
        evaluator = ClusterEvaluator(steane_engine, [endpoint], max_slab=32)
        with pytest.raises(
            ClusterProtocolError, match="TLS handshake failed"
        ):
            _stratum(evaluator)
        assert worker._served == 0

    def test_plaintext_client_against_tls_worker(
        self, steane_engine, spin_worker, tls_cert_pair
    ):
        worker, secure = spin_worker(tls_pair=tls_cert_pair)
        endpoint = Endpoint("127.0.0.1", secure.port)  # tls omitted
        evaluator = ClusterEvaluator(steane_engine, [endpoint], max_slab=32)
        with pytest.raises(
            (ClusterProtocolError, ClusterError), match="tls=1|reachable"
        ):
            _stratum(evaluator)
        assert worker._served == 0

    def test_tls_token_results_bit_identical_with_worker_kill(
        self, steane_engine, spin_worker, tls_cert_pair
    ):
        """The acceptance drill: a TLS + token cluster — including one
        worker that crashes mid-stream and forces the requeue path —
        merges bit-identically to plaintext and to inline."""
        with ShardedEvaluator(steane_engine, max_slab=32) as inline:
            baseline = _stratum(inline, shots=1500)
        _, healthy = spin_worker(token="s3cret", tls_pair=tls_cert_pair)
        _, dying = spin_worker(
            token="s3cret", tls_pair=tls_cert_pair, max_chunks=2
        )
        secure = [dying, healthy]
        with ClusterEvaluator(
            steane_engine, secure, max_slab=32, token="s3cret"
        ) as cluster:
            assert _stratum(cluster, shots=1500) == baseline
            stats = cluster.wire_stats()
            assert stats["transport"] == "tls" and stats["auth"] is True
        _, plain = spin_worker()
        with ClusterEvaluator(
            steane_engine, [plain], max_slab=32
        ) as plaintext:
            assert _stratum(plaintext, shots=1500) == baseline


class TestAllowlist:
    def test_peer_outside_allowlist_dropped_before_handshake(
        self, steane_engine, spin_worker
    ):
        worker, endpoint = spin_worker(allow=["203.0.113.0/24"])
        evaluator = ClusterEvaluator(steane_engine, [endpoint], max_slab=32)
        with pytest.raises((ClusterProtocolError, ClusterError)):
            _stratum(evaluator)
        assert worker._served == 0

    def test_loopback_allowlist_admits_local_coordinator(
        self, steane_engine, spin_worker
    ):
        _, endpoint = spin_worker(allow=["127.0.0.0/8"])
        with ShardedEvaluator(steane_engine, max_slab=32) as inline:
            baseline = _stratum(inline)
        with ClusterEvaluator(
            steane_engine, [endpoint], max_slab=32
        ) as cluster:
            assert _stratum(cluster) == baseline


class TestFactorySecurity:
    def test_factory_round_trips_endpoint_security(self, tls_cert_pair):
        """The figure4 spawn-pool pickle path: a factory built from
        endpoint specs must carry TLS/token fields through its rendered
        (picklable) address strings."""
        import pickle

        from repro.sim.cluster import ClusterExecutorFactory

        spec = (
            f"127.0.0.1:7781?tls=1&cafile={tls_cert_pair[0]}&token=s3cret"
        )
        factory = ClusterExecutorFactory((spec,))
        thawed = pickle.loads(pickle.dumps(factory))
        from repro.net import parse_endpoint

        ep = parse_endpoint(thawed.addresses[0], use_env=False)
        assert ep.tls and ep.cafile == tls_cert_pair[0]
        assert ep.token == "s3cret"

    def test_nonce_sizes_documented_by_protocol(self):
        assert NONCE_BYTES == 32
