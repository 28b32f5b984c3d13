"""The shared frame plumbing (``repro.net.framing``): both transports,
the counter vocabulary, the absurd-length guard, and the refusal of any
frame body that is not JSON."""

from __future__ import annotations

import pickle
import socket
import struct

import pytest

from repro.net.framing import (
    FrameCounters,
    JsonFramer,
    JsonLinesTransport,
    MAX_FRAME_BYTES,
    WireProtocolError,
    recv_frame,
    send_frame,
)


@pytest.fixture
def sock_pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestRawFrames:
    def test_round_trip(self, sock_pair):
        left, right = sock_pair
        send_frame(left, ("hello", {"k": [1, 2, 3]}))
        # JSON: tuples come back as lists.
        assert recv_frame(right) == ["hello", {"k": [1, 2, 3]}]

    def test_clean_eof_is_none(self, sock_pair):
        left, right = sock_pair
        left.close()
        assert recv_frame(right) is None

    def test_absurd_length_is_a_readable_error(self, sock_pair):
        """A TLS ClientHello read as a length prefix decodes to an
        astronomically large frame; the guard must refuse it instead of
        attempting the allocation."""
        left, right = sock_pair
        left.sendall(struct.pack(">Q", MAX_FRAME_BYTES + 1) + b"x" * 16)
        with pytest.raises(WireProtocolError, match="absurd"):
            recv_frame(right)

    def test_pickle_body_is_a_readable_error(self, sock_pair):
        """A pre-JSON peer's pickle (first byte 0x80) is refused, never
        unpickled."""
        left, right = sock_pair
        body = pickle.dumps(("hello", b"RPRO-CLUSTER", 4, {}))
        left.sendall(struct.pack(">Q", len(body)) + body)
        with pytest.raises(WireProtocolError, match="not UTF-8 JSON"):
            recv_frame(right)


class TestJsonFramer:
    def test_round_trip_and_counters(self, sock_pair):
        left, right = sock_pair
        tx, rx = JsonFramer(left), JsonFramer(right)
        payload = {"blob": "x" * 2048, "n": 7}
        tx.send(payload)
        assert rx.recv() == payload
        assert tx.frames_sent == 1 and rx.frames_received == 1
        assert tx.raw_sent > 0 and tx.wire_sent > 0
        assert rx.raw_received == tx.raw_sent
        assert rx.wire_received == tx.wire_sent

    def test_zlib_codec_shrinks_compressible_frames(self, sock_pair):
        left, right = sock_pair
        tx, rx = JsonFramer(left, codec="zlib"), JsonFramer(right)
        tx.send({"zeros": "0" * (1 << 16)})
        rx.recv()
        assert tx.wire_sent < tx.raw_sent
        stats = rx.stats("zlib")
        assert stats["compression_ratio"] > 1.0

    def test_unknown_codec_name_refused(self, sock_pair):
        with pytest.raises(WireProtocolError, match="codec"):
            JsonFramer(sock_pair[0], codec="brotli")

    def test_unknown_codec_id_on_the_wire_refused(self, sock_pair):
        left, right = sock_pair
        left.sendall(struct.pack(">Q", 2) + bytes([250, 0]))
        with pytest.raises(WireProtocolError, match="codec id"):
            JsonFramer(right).recv()

    def test_absurd_length_guard(self, sock_pair):
        left, right = sock_pair
        left.sendall(struct.pack(">Q", MAX_FRAME_BYTES + 1))
        with pytest.raises(WireProtocolError, match="absurd"):
            JsonFramer(right).recv()

    def test_pickle_body_is_a_readable_error(self, sock_pair):
        left, right = sock_pair
        body = b"\x00" + pickle.dumps(["chunk", None])  # codec "none"
        left.sendall(struct.pack(">Q", len(body)) + body)
        with pytest.raises(WireProtocolError, match="not UTF-8 JSON"):
            JsonFramer(right).recv()


class TestJsonLinesTransport:
    def test_round_trip_and_uniform_counters(self, sock_pair):
        left, right = sock_pair
        tx, rx = JsonLinesTransport(left), JsonLinesTransport(right)
        tx.send_obj({"id": 1, "op": "ping"})
        assert rx.recv_obj() == {"id": 1, "op": "ping"}
        # Same vocabulary as the cluster framer, raw == wire (no codec).
        stats = rx.wire_stats()
        assert stats["codec"] == "none"
        assert stats["raw_received"] == stats["wire_received"] > 0
        assert set(FrameCounters.FIELDS) <= set(stats)

    def test_blank_lines_are_skipped_not_frames(self, sock_pair):
        left, right = sock_pair
        rx = JsonLinesTransport(right)
        left.sendall(b"\n\n{\"ok\":true}\n")
        assert rx.recv_obj() == {"ok": True}
        assert rx.frames_received == 1

    def test_non_json_line_is_a_readable_error(self, sock_pair):
        left, right = sock_pair
        rx = JsonLinesTransport(right)
        left.sendall(b"GET / HTTP/1.1\r\n")
        with pytest.raises(WireProtocolError, match="non-JSON"):
            rx.recv_obj()

    def test_clean_eof_is_none(self, sock_pair):
        left, right = sock_pair
        rx = JsonLinesTransport(right)
        left.close()
        assert rx.recv_obj() is None


class TestCompatibilityReexports:
    def test_cluster_module_reexports(self):
        """The cluster module keeps its error alias; the frame plumbing
        is imported from ``repro.net.framing`` only."""
        from repro.sim import cluster

        assert cluster.ClusterProtocolError is WireProtocolError
        assert not {"_Framer", "send_frame", "recv_frame"} & set(cluster.__all__)

    def test_counters_absorb(self):
        a, b = FrameCounters(), FrameCounters()
        b.raw_sent = 5
        b.frames_received = 2
        a.absorb(b)
        a.absorb(b)
        assert a.raw_sent == 10 and a.frames_received == 4
