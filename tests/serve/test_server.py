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
  or poisons the ledger: the record lands and the next client gets it;
* a ledger hit is answered on the event loop, with no submission to the
  compute pool, also on the first request after a restart;
* a ``shutdown`` with a client still connected exits 0 without a
  traceback;
* a daemon that dies before it listens raises its own error from
  ``start_background`` at once, not after the 30 s start-up wait.
"""

import os
import re
import socket
import subprocess
import sys
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


def _prewarm(instance):
    # Synthesis is session-cached in-process; pre-warm the protocol tier
    # so per-test latency is the simulation, not SAT.
    protocol = cached_protocol("steane")
    instance._protocols[("steane", "heuristic", "optimal")] = (
        protocol,
        store_keys.protocol_digest(protocol),
    )
    return instance


@pytest.fixture
def server(ledger_root):
    instance = _prewarm(ReproServer("127.0.0.1", 0, ledger=ledger_root))
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


class CountingPool:
    """The daemon's compute pool, counting what is submitted to it."""

    def __init__(self, inner):
        self.inner = inner
        self.submissions = 0

    def submit(self, fn, *args, **kwargs):
        self.submissions += 1
        return self.inner.submit(fn, *args, **kwargs)

    def shutdown(self, *args, **kwargs):
        self.inner.shutdown(*args, **kwargs)


HIT_OPS = [
    ("sweep", SWEEP_PARAMS),
    ("ftcheck", {}),
    ("budget", {}),
    ("direct", {"p": 1e-3, "shots": 400}),
]


def _counted(instance):
    instance._pool = CountingPool(instance._pool)
    instance.start_background()
    return instance


class TestStartupFailure:
    """``start_background`` re-raises the loop thread's start-up error."""

    def _raises_fast(self, server, error, match):
        start = time.monotonic()
        with pytest.raises(error, match=match):
            server.start_background()
        assert time.monotonic() - start < 1.0
        assert server._thread is None

    def test_port_in_use(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            server = ReproServer("127.0.0.1", port, ledger=False)
            self._raises_fast(server, OSError, "address already in use")

    def test_ledger_root_is_a_regular_file(self, tmp_path, monkeypatch):
        not_a_dir = tmp_path / "ledger"
        not_a_dir.write_text("")
        monkeypatch.setenv("REPRO_LEDGER", str(not_a_dir))
        self._raises_fast(ReproServer("127.0.0.1", 0), NotADirectoryError, "Not a directory")


class TestHitPath:
    @pytest.fixture
    def counted(self, ledger_root):
        instance = _counted(
            _prewarm(ReproServer("127.0.0.1", 0, ledger=ledger_root))
        )
        yield instance
        instance.stop()

    def test_warm_hits_never_touch_the_pool(self, counted):
        with ServeClient(counted.host, counted.port, timeout=120.0) as c:
            for op, params in HIT_OPS:
                assert c.request(op, code="steane", **params)["source"] == "computed"
            counted._pool.submissions = 0
            for op, params in HIT_OPS:
                assert c.request(op, code="steane", **params)["source"] == "ledger"
        assert counted._pool.submissions == 0

    def test_fresh_sweep_computes_in_the_pool(self, counted):
        with ServeClient(counted.host, counted.port, timeout=120.0) as c:
            line = c.sweep("steane", **SWEEP_PARAMS)
        assert line["source"] == "computed"
        assert counted._pool.submissions >= 1

    def test_first_hit_after_restart_never_touches_the_pool(
        self, server, ledger_root
    ):
        with ServeClient(server.host, server.port, timeout=120.0) as c:
            for op, params in HIT_OPS:
                c.request(op, code="steane", **params)
        server.stop()
        reborn = _counted(
            _prewarm(ReproServer("127.0.0.1", 0, ledger=ledger_root))
        )
        try:
            # Loaded before the listener opened: no hit reads disk.
            assert {"series", "ftcheck", "budget", "direct"} <= set(
                reborn.ledger._index
            )
            with ServeClient(reborn.host, reborn.port) as c:
                for op, params in HIT_OPS:
                    line = c.request(op, code="steane", **params)
                    assert line["source"] == "ledger"
                    assert reborn._pool.submissions == 0
        finally:
            reborn.stop()

    def test_loop_reads_race_pool_appends(self, server):
        """The loop looks keys up in the ledger index while pool threads
        append to it. Six clients (more than the cores) ask for eight
        keys twice each, with a short switch interval: every key computes
        once and every answer equals the one its key computed."""
        seeds = list(range(8)) * 2
        answers: dict[int, list] = {seed: [] for seed in seeds}

        def ask(order):
            with ServeClient(server.host, server.port, timeout=120.0) as c:
                for seed in order:
                    line = c.direct("steane", 1e-2, shots=64, seed=seed)
                    answers[seed].append(line["result"])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=ask, args=(seeds[i:] + seeds[:i],))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert server.stats.computes == 8
        assert all(len(got) == 12 for got in answers.values())
        assert all(got.count(got[0]) == 12 for got in answers.values())
        assert len(list(server.ledger.entries("direct"))) == 8


def test_shutdown_with_a_connected_client_exits_cleanly(tmp_path):
    """The shutdown op ends a ``repro serve`` process with exit 0 and
    nothing on stderr about the connection it cancelled."""
    env = dict(os.environ, REPRO_LEDGER=str(tmp_path / "ledger"), REPRO_STORE="off")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = daemon.stdout.readline()
        host, port = re.search(r"listening on (\S+):(\d+)", banner).groups()
        with ServeClient(host, int(port)) as c:
            assert c.ping()["ok"] is True
            assert c.shutdown() == {"stopping": True}
            _, stderr = daemon.communicate(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()
    assert daemon.returncode == 0
    assert "Traceback" not in stderr


def test_workers_daemon_never_forks(tmp_path, monkeypatch):
    """``workers=2`` starts one loopback worker set before the listener
    opens and computes on it: with ``os.fork`` and ``multiprocessing``
    pools made to raise, a sweep and an ftcheck still answer exactly
    what the inline daemon answers, and shutdown reaps the workers."""
    import multiprocessing
    import multiprocessing.context

    def refuse(*args, **kwargs):
        raise AssertionError("the daemon forked")

    answers = {}
    for workers in (1, 2):
        with monkeypatch.context() as patch:
            if workers > 1:
                patch.setattr(os, "fork", refuse)
                patch.setattr(multiprocessing, "Pool", refuse)
                patch.setattr(multiprocessing.context.BaseContext, "Pool", refuse)
            server = _prewarm(
                ReproServer(
                    "127.0.0.1", 0, ledger=tmp_path / f"l{workers}", workers=workers
                )
            )
            server.start_background()
            try:
                launched = server._executor
                assert (launched is not None) == (workers > 1)
                processes = list(launched._processes) if launched else []
                assert len(processes) == (workers if workers > 1 else 0)
                with ServeClient(server.host, server.port, timeout=120.0) as c:
                    sweep = c.sweep("steane", **SWEEP_PARAMS)
                    ftcheck = c.ftcheck("steane")
                assert sweep["source"] == ftcheck["source"] == "computed"
                answers[workers] = (sweep["result"], ftcheck["result"])
            finally:
                server.stop()
        assert all(process.returncode is not None for process in processes)
        assert server._executor is None
    assert answers[2] == answers[1]
