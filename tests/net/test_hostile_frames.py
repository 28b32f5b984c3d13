"""Hostile-input drills for the cluster wire.

Nothing read off a cluster socket is unpickled: a frame whose body is a
pickle — here one whose ``__reduce__`` would create a sentinel file —
gets a readable refusal from either side, and the sentinel never
appears. A worker fed a payload that does not compile, or a chunk it
cannot decode, rejects that session readably, caches nothing under the
bad digest, and keeps serving the next coordinator."""

from __future__ import annotations

import json
import pickle
import socket
import struct
import threading

import pytest

from repro.net.framing import JsonFramer, recv_frame, send_frame
from repro.sim.cluster import (
    ClusterEvaluator,
    ClusterProtocolError,
    ClusterWorker,
    PROTOCOL_VERSION,
    _MAGIC,
)
from repro.sim.sampler import make_sampler
from repro.sim.shard import chunk_to_jsonable, engine_from_payload, engine_payload
from repro.store.keys import sha256_hex

from ..conftest import cached_protocol


class _CreatesFile:
    """Unpickling this object creates ``path``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def _pickle_frame(sentinel, *, codec_byte: bool) -> bytes:
    body = pickle.dumps(("hello", b"RPRO-CLUSTER", 4, _CreatesFile(sentinel)))
    if codec_byte:
        body = b"\x00" + body  # a post-welcome frame under codec "none"
    return struct.pack(">Q", len(body)) + body


@pytest.fixture(scope="module")
def steane_engine():
    return make_sampler(cached_protocol("steane"))


@pytest.fixture
def worker():
    server = ClusterWorker("127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server
    server.stop()


def _connect(worker) -> socket.socket:
    return socket.create_connection((worker.host, worker.port), timeout=10)


def _hello(sock, payload: str, **header) -> list:
    """Send a hello naming ``payload``'s digest; the worker's reply."""
    header = {"digest": sha256_hex(payload.encode("utf-8")), "max_slab": 64, **header}
    send_frame(sock, ["hello", _MAGIC, PROTOCOL_VERSION, header])
    return recv_frame(sock)


def _open_session(sock, payload: str) -> JsonFramer:
    """A full handshake up to ``welcome``; the session framer."""
    reply = _hello(sock, payload, codecs=["none"])
    if reply[0] == "need-payload":
        send_frame(sock, ["payload", payload])
        reply = recv_frame(sock)
    assert reply[0] == "welcome", reply
    return JsonFramer(sock, reply[2]["codec"])


class TestPickleFramesRefused:
    def test_worker_refuses_a_pickled_hello(self, worker, tmp_path):
        sentinel = tmp_path / "pwned"
        with _connect(worker) as sock:
            sock.sendall(_pickle_frame(sentinel, codec_byte=False))
            reply = recv_frame(sock)
        assert reply[0] == "reject" and "not UTF-8 JSON" in reply[1]
        assert not sentinel.exists()

    def test_worker_refuses_a_pickled_frame_after_welcome(
        self, worker, steane_engine, tmp_path
    ):
        sentinel = tmp_path / "pwned"
        with _connect(worker) as sock:
            framer = _open_session(sock, engine_payload(steane_engine))
            sock.sendall(_pickle_frame(sentinel, codec_byte=True))
            reply = framer.recv()
        assert reply[0] == "reject" and "not UTF-8 JSON" in reply[1]
        assert not sentinel.exists()
        assert worker._served == 0

    @pytest.mark.parametrize("after_welcome", [False, True])
    def test_coordinator_refuses_a_pickle_from_its_worker(
        self, steane_engine, tmp_path, after_welcome
    ):
        """A fake worker answers the hello — or, after a clean welcome,
        the first chunk — with a pickle frame."""
        sentinel = tmp_path / "pwned"
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def serve_pickle():
            conn, _ = server.accept()
            with conn:
                recv_frame(conn)
                if after_welcome:
                    send_frame(conn, ["welcome", PROTOCOL_VERSION, {"codec": "none"}])
                    JsonFramer(conn).recv()
                conn.sendall(_pickle_frame(sentinel, codec_byte=after_welcome))
                conn.recv(1)  # hold the socket open until the peer closes

        thread = threading.Thread(target=serve_pickle, daemon=True)
        thread.start()
        evaluator = ClusterEvaluator(
            steane_engine, ["%s:%d" % server.getsockname()[:2]], max_slab=32
        )
        try:
            with pytest.raises(ClusterProtocolError, match="not UTF-8 JSON"):
                evaluator.reduce(evaluator.planner.plan_stratum(1, 40, 3))
        finally:
            evaluator.close()
            server.close()
            thread.join(timeout=10)
        assert not sentinel.exists()


def _mutated_payload(engine, mutate) -> str:
    data = json.loads(engine_payload(engine))
    protocol = json.loads(data["protocol"])
    mutate(protocol)
    data["protocol"] = json.dumps(protocol)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _float_index(protocol):
    protocol["prep_segment"]["instructions"][-1][1] = 0.5


def _negative_generator(protocol):
    protocol["prep"]["generator"][0][0] = -1


def _qubit_out_of_range(protocol):
    # The last ancilla wire no longer exists: loading refuses the wider
    # circuits by name instead of indexing out of bounds on a shot.
    protocol["num_wires"] -= 1


BAD_PAYLOADS = {
    "float-index": (_float_index, TypeError),
    "negative-generator": (_negative_generator, OverflowError),
    "qubit-out-of-range": (_qubit_out_of_range, ValueError),
}


class TestWorkerRefusesBadInput:
    @pytest.mark.parametrize("name", sorted(BAD_PAYLOADS))
    def test_payload_that_does_not_build_is_rejected_not_cached(
        self, worker, steane_engine, name
    ):
        mutate, error = BAD_PAYLOADS[name]
        payload = _mutated_payload(steane_engine, mutate)
        with pytest.raises(error):  # the fuzz class this payload stands for
            engine_from_payload(payload)
        with _connect(worker) as sock:
            assert _hello(sock, payload)[0] == "need-payload"
            send_frame(sock, ["payload", payload])
            reply = recv_frame(sock)
        assert reply[0] == "reject"
        assert "engine payload does not build" in reply[1]
        assert error.__name__ in reply[1]
        # The bad digest was not cached: it still asks for the payload.
        with _connect(worker) as sock:
            assert _hello(sock, payload)[0] == "need-payload"
        self._next_coordinator_succeeds(worker, steane_engine)

    @pytest.mark.parametrize(
        "chunk, reason",
        [
            ({"type": "martian", "index": 0}, "unknown type"),
            (
                {"type": "stratum", "index": 0, "k": 1, "shots": -5, "entropy": [1, 0]},
                "'shots' out of range",
            ),
            (
                {
                    "type": "bernoulli",
                    "index": 0,
                    "shots": 16,
                    "entropy": [1, 0],
                    "model": {"type": "E1_1", "p": "x"},
                },
                "E1_1 rate p must be a real in [0, 1], got 'x'",
            ),
        ],
    )
    def test_chunk_that_does_not_decode_is_rejected(
        self, worker, steane_engine, chunk, reason
    ):
        with _connect(worker) as sock:
            framer = _open_session(sock, engine_payload(steane_engine))
            framer.send(["chunk", chunk])
            reply = framer.recv()
        assert reply[0] == "reject"
        assert "bad chunk frame" in reply[1] and reason in reply[1]
        assert worker._served == 0
        self._next_coordinator_succeeds(worker, steane_engine)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("digest", [1]),
            ("max_slab", "64"),
            ("max_slab", 0),
            ("model", {"type": "Martian"}),
            ("codecs", 5),
            ("codecs", [["zlib"]]),
        ],
    )
    def test_malformed_session_header_is_rejected(
        self, worker, steane_engine, field, value
    ):
        with _connect(worker) as sock:
            reply = _hello(sock, engine_payload(steane_engine), **{field: value})
        assert reply[0] == "reject" and "malformed session header" in reply[1]
        self._next_coordinator_succeeds(worker, steane_engine)

    def test_well_formed_chunk_frame_is_served(self, worker, steane_engine):
        """The drills above fail for their bad input, not for the
        hand-rolled session: the same session serves a real chunk."""
        from repro.sim.shard import StratumChunk

        with _connect(worker) as sock:
            framer = _open_session(sock, engine_payload(steane_engine))
            chunk = StratumChunk(index=0, k=1, shots=16, entropy=(3, 0))
            framer.send(["chunk", chunk_to_jsonable(chunk)])
            reply = framer.recv()
        assert reply[0] == "partial" and reply[2]["trials"] == 16

    @staticmethod
    def _next_coordinator_succeeds(worker, engine):
        with ClusterEvaluator(engine, [worker.address], max_slab=64) as evaluator:
            merged = evaluator.reduce(evaluator.planner.plan_stratum(1, 100, 7))
        assert merged.trials == 100
