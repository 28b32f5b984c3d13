"""Contract tests for the ``repro serve`` daemon (in-process, real TCP).

What must hold on the wire:

* request multiplexing — one connection, many in-flight ids, responses
  correlated by ``id``; malformed or unknown requests produce ``error``
  events, never a dropped connection or a dead server;
* **exactly-one-compute** — N concurrent identical requests run the
  simulation once: one ``computed`` response, N-1 ``coalesced``, all
  carrying the same payload; distinct keys compute independently;
* warm answers — a repeated query is served from the ledger with zero
  engine dispatches, and a daemon restarted over the same ledger root
  resumes fully warm;
* a client that disconnects mid-stream never cancels the computation
  or poisons the ledger: the record lands and the next client gets it.
"""

import threading
import time

import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ReproServer
from repro.store import keys as store_keys

from ..conftest import cached_protocol

SWEEP_PARAMS = dict(shots=800, k_max=2, seed=5, sweep=[1e-3, 1e-2])


def _wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    pytest.fail(f"timed out waiting for {message}")


@pytest.fixture
def ledger_root(tmp_path):
    return tmp_path / "ledger"


@pytest.fixture
def server(ledger_root):
    instance = ReproServer("127.0.0.1", 0, ledger=ledger_root)
    # Synthesis is session-cached in-process; pre-warm the protocol tier
    # so per-test latency is the simulation, not SAT.
    protocol = cached_protocol("steane")
    instance._protocols[("steane", "heuristic", "optimal")] = (
        protocol,
        store_keys.protocol_digest(protocol),
    )
    instance.start_background()
    yield instance
    instance.stop()


@pytest.fixture
def client(server):
    with ServeClient(server.host, server.port, timeout=120.0) as c:
        yield c


class TestWire:
    def test_ping_and_stats(self, client):
        assert client.ping()["ok"] is True
        stats = client.stats()
        assert stats["requests"] >= 1
        assert stats["computes"] == 0

    def test_unknown_op_is_an_error_event(self, client, server):
        with pytest.raises(ServeError, match="unknown op"):
            client.request("frobnicate")
        # The connection (and the server) survive the error.
        assert client.ping()["ok"] is True
        assert server.stats.errors == 1

    def test_missing_code_is_an_error_event(self, client):
        with pytest.raises(ServeError, match="code"):
            client.request("sweep")

    def test_out_of_range_rate_is_an_error_event(self, client, server):
        with pytest.raises(ServeError, match=r"\[0, 1\]"):
            client.request("direct", code="steane", p=1.5)
        with pytest.raises(ServeError, match="sweep point"):
            client.request(
                "sweep", code="steane", **{**SWEEP_PARAMS, "sweep": [float("nan")]}
            )
        assert client.ping()["ok"] is True
        assert server.stats.computes == 0

    def test_malformed_json_line_is_an_error_event(self, client):
        client._sock.sendall(b"this is not json\n")
        # The error response carries id=None; collect it manually.
        import json

        line = json.loads(client._file.readline())
        assert line["event"] == "error"
        assert client.ping()["ok"] is True

    def test_multiplexed_requests_one_connection(self, client):
        rid_a = client.submit("sweep", code="steane", **SWEEP_PARAMS)
        rid_b = client.submit("ping")
        rid_c = client.submit("stats")
        # Collect out of submission order; buffering must sort it out.
        assert client.collect(rid_c)["result"]["requests"] >= 1
        assert client.collect(rid_b)["result"]["ok"] is True
        assert client.collect(rid_a)["result"]["estimates"]


class TestComputeAndLedger:
    def test_sweep_computes_then_ledger_hits(self, client, server):
        progress = []
        first = client.sweep(
            "steane", on_progress=progress.append, **SWEEP_PARAMS
        )
        assert first["source"] == "computed"
        assert first["result"]["estimates"]
        assert progress, "compute streamed no progress events"
        second = client.sweep("steane", **SWEEP_PARAMS)
        assert second["source"] == "ledger"
        assert second["result"] == first["result"]
        assert second["key"] == first["key"]
        assert server.stats.computes == 1

    def test_unknown_engine_is_an_error_even_when_warm(self, client, server):
        """The ledger lookup runs before any engine is built, so the
        engine name is checked first: a warm daemon refuses a bad name
        exactly as a cold one does, instead of answering from the ledger."""
        assert client.sweep("steane", **SWEEP_PARAMS)["source"] == "computed"
        assert client.sweep("steane", **SWEEP_PARAMS)["source"] == "ledger"
        for engine in ("bogus", "kernel", "auto"):
            with pytest.raises(ServeError, match="unknown engine"):
                client.sweep("steane", engine=engine, **SWEEP_PARAMS)
        assert client.ping()["ok"] is True
        assert server.stats.computes == 1
        assert server.stats.errors == 3

    def test_one_record_serves_every_grid(self, client, server):
        client.sweep("steane", **SWEEP_PARAMS)
        other_grid = dict(SWEEP_PARAMS, sweep=[3e-4, 2e-3, 5e-2])
        warm = client.sweep("steane", **other_grid)
        assert warm["source"] == "ledger"
        assert [e["p"] for e in warm["result"]["estimates"]] == [
            3e-4,
            2e-3,
            5e-2,
        ]
        assert server.stats.computes == 1

    def test_ftcheck_budget_direct_dedup(self, client, server):
        for op, params in [
            ("ftcheck", {}),
            ("budget", {}),
            ("direct", {"p": 1e-3, "shots": 400}),
        ]:
            first = client.request(op, code="steane", **params)
            assert first["source"] == "computed"
            again = client.request(op, code="steane", **params)
            assert again["source"] == "ledger"
            assert again["result"] == first["result"]
        assert server.stats.computes == 3

    def test_engine_is_resident_across_requests(self, client, server):
        client.sweep("steane", **SWEEP_PARAMS)
        client.direct("steane", 1e-3, shots=400)
        assert server.stats.engine_compiles == 1
        assert server.stats.engine_hits >= 1

    def test_restart_resumes_fully_warm(self, server, ledger_root):
        with ServeClient(server.host, server.port) as c:
            cold = c.sweep("steane", **SWEEP_PARAMS)
        server.stop()
        reborn = ReproServer("127.0.0.1", 0, ledger=ledger_root)
        reborn.start_background()
        try:
            with ServeClient(reborn.host, reborn.port) as c:
                warm = c.sweep("steane", **SWEEP_PARAMS)
            assert warm["source"] == "ledger"
            assert warm["result"] == cold["result"]
            assert reborn.stats.computes == 0
            assert reborn.stats.engine_compiles == 0
        finally:
            reborn.stop()

    def test_shutdown_op_stops_the_server(self, server):
        with ServeClient(server.host, server.port) as c:
            assert c.shutdown() == {"stopping": True}
        _wait_for(
            lambda: server._thread is None or not server._thread.is_alive(),
            message="server thread exit",
        )


class TestConcurrency:
    def _gate_sweep(self, server):
        """Make every sweep compute block on a release event."""
        gate = threading.Event()
        original = server._compute_sweep

        def gated(protocol, digest, norm, model, progress):
            assert gate.wait(timeout=60), "gate never released"
            return original(protocol, digest, norm, model, progress)

        server._compute_sweep = gated
        return gate

    def test_identical_concurrent_requests_compute_once(self, server):
        gate = self._gate_sweep(server)
        with ServeClient(server.host, server.port) as c1, ServeClient(
            server.host, server.port
        ) as c2, ServeClient(server.host, server.port) as c3:
            rid1 = c1.submit("sweep", code="steane", **SWEEP_PARAMS)
            _wait_for(
                lambda: server.stats.computes == 1, message="first compute"
            )
            rid2 = c2.submit("sweep", code="steane", **SWEEP_PARAMS)
            rid3 = c3.submit("sweep", code="steane", **SWEEP_PARAMS)
            _wait_for(
                lambda: server.stats.coalesced == 2, message="coalescing"
            )
            gate.set()
            lines = [c1.collect(rid1), c2.collect(rid2), c3.collect(rid3)]
        assert server.stats.computes == 1
        assert sorted(line["source"] for line in lines) == [
            "coalesced",
            "coalesced",
            "computed",
        ]
        assert lines[0]["result"] == lines[1]["result"] == lines[2]["result"]

    def test_distinct_keys_compute_independently(self, server):
        gate = self._gate_sweep(server)
        other = dict(SWEEP_PARAMS, seed=6)
        with ServeClient(server.host, server.port) as c1, ServeClient(
            server.host, server.port
        ) as c2:
            rid1 = c1.submit("sweep", code="steane", **SWEEP_PARAMS)
            rid2 = c2.submit("sweep", code="steane", **other)
            _wait_for(
                lambda: server.stats.computes == 2, message="both computes"
            )
            assert server.stats.coalesced == 0
            gate.set()
            r1, r2 = c1.collect(rid1), c2.collect(rid2)
        assert r1["source"] == r2["source"] == "computed"
        assert r1["key"] != r2["key"]

    def test_failed_compute_propagates_to_coalesced_waiters(self, server):
        original = server._compute_sweep

        def exploding(protocol, digest, norm, model, progress):
            time.sleep(0.2)  # hold the inflight slot long enough to join
            raise RuntimeError("engine on fire")

        server._compute_sweep = exploding
        try:
            with ServeClient(server.host, server.port) as c1, ServeClient(
                server.host, server.port
            ) as c2:
                rid1 = c1.submit("sweep", code="steane", **SWEEP_PARAMS)
                _wait_for(
                    lambda: server.stats.computes == 1, message="compute"
                )
                rid2 = c2.submit("sweep", code="steane", **SWEEP_PARAMS)
                with pytest.raises(ServeError, match="engine on fire"):
                    c1.collect(rid1)
                with pytest.raises(ServeError, match="engine on fire"):
                    c2.collect(rid2)
        finally:
            server._compute_sweep = original
        # The failure was not ledgered; a retry recomputes and succeeds.
        with ServeClient(server.host, server.port) as c:
            assert c.sweep("steane", **SWEEP_PARAMS)["source"] == "computed"

    def test_disconnect_mid_stream_never_cancels_the_compute(self, server):
        gate = self._gate_sweep(server)
        client = ServeClient(server.host, server.port)
        client.submit("sweep", code="steane", **SWEEP_PARAMS)
        _wait_for(lambda: server.stats.computes == 1, message="compute start")
        client.close()  # walk away mid-computation
        gate.set()
        # The record still lands in the ledger...
        _wait_for(
            lambda: list(server.ledger.entries("series")),
            message="orphaned record to be ledgered",
        )
        _wait_for(lambda: not server._inflight, message="inflight cleanup")
        # ...and the next client is served from it, without recompute.
        with ServeClient(server.host, server.port) as c:
            line = c.sweep("steane", **SWEEP_PARAMS)
        assert line["source"] == "ledger"
        assert server.stats.computes == 1
