"""One benchmark pass, in a fresh process: set up, run the timed work, check.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python3 perfbench/passes.py --workload W --seed N --mode M \\
        --spawned-at T --tmp DIR --out FILE [--trace]

``--mode setup`` stops after set-up, ``timed`` also runs the timed work
and reports a digest of every output, ``checked`` additionally checks
the outputs against their oracles (outside the timed region). The pass
writes one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

from stats import cpu_seconds, peak_rss_mb, summarize

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

#: The eight Table-I codes that synthesize in seconds (tesseract, ~100 s
#: cold, is left out).
CODES = (
    "steane",
    "shor",
    "surface_3",
    "11_1_3",
    "tetrahedral",
    "hamming",
    "carbon",
    "16_2_4",
)
FIGURE4_SHOTS = 100_000
CLUSTER_SHOTS = 50_000
DIRECT_AT = 0.05
#: Shots of the reduced replay that compares the batched engine with the
#: per-shot reference engine.
REPLAY_SHOTS = 2_000
REPLAY_DIRECT_SHOTS = 500

SERVE_REQUESTS = 4_000
#: One request in this many is a fresh sweep (a ledger miss).
SERVE_FRESH_EVERY = 20
SERVE_SWEEP_SHOTS = 2_000
SERVE_FRESH_SHOTS = 1_000
SERVE_DIRECT_SHOTS = 2_000
#: Budgets cost up to ~1 s on the larger codes; the pool asks only these.
SERVE_BUDGET_CODES = ("steane", "shor", "surface_3", "11_1_3")
#: Fresh-sweep seeds start here; pool seeds stay below it.
FRESH_SEED_BASE = 1_000_000


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_protocols() -> dict:
    from repro.core.serialize import protocol_from_json

    return {
        code: protocol_from_json((FIXTURES / "protocols" / f"{code}.json").read_text())
        for code in CODES
    }


def series_seeds(seed: int) -> dict:
    rng = random.Random(seed)
    return {code: rng.randrange(1, 2**31) for code in CODES}


def series_output(series) -> dict:
    """Everything a Fig. 4 series reports except its wall time."""
    return {
        "code": series.code,
        "shots": series.shots,
        "f1": series.f1_exact,
        "estimates": [[e.p, e.mean, e.lower, e.upper, e.tail] for e in series.estimates],
        "direct": None
        if series.direct is None
        else [series.direct.p, series.direct.trials, series.direct.failures],
    }


def stop_process(proc: subprocess.Popen) -> None:
    """SIGINT (the daemons shut down cleanly on it), then wait; kill as
    a last resort so nothing outlives the pass."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def spawn_host(args, tmp: Path, name: str, cli_args: list) -> tuple:
    """Start ``repro <cli_args>`` under ``host.py``; returns the process,
    the address it printed, and the spans file (traced passes only)."""
    cmd = [sys.executable, str(HERE / "host.py")]
    spans = None
    if args.trace:
        spans = tmp / f"{name}-spans.json"
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd + cli_args, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if "listening on" not in line:
        stop_process(proc)
        raise RuntimeError(f"{name} did not start: {line!r}")
    address = line.split("listening on ")[1].split()[0]
    return proc, address, spans


def host_layers(spans_path, window) -> dict:
    from layers import layer_metrics

    spans = [tuple(s) for s in json.loads(Path(spans_path).read_text())]
    metrics = layer_metrics(spans, window)
    # Coverage is of this pass's own wall time; another process's spans
    # overlap it rather than add to it.
    del metrics["covered_s"]
    return metrics


# -- workloads -----------------------------------------------------------------


class Workload:
    """Hooks every workload shares; subclasses override what they use."""

    #: Spans file of the daemon or worker a traced pass started.
    host_spans = None

    def begin(self):
        """Traced passes: snapshot counters right before the timed work."""

    def extras(self) -> dict:
        """Traced passes: workload-specific per-layer figures, right
        after the timed work."""
        return {}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self):
        pass


class Table1(Workload):
    """``run_table1(TABLE1_FAST_ROWS)`` cold: SAT synthesis of 11 rows."""

    def __init__(self, args):
        from repro.experiments import table1

        self.table1 = table1
        self.expected = json.loads((FIXTURES / "table1_expected.json").read_text())
        # The seed permutes the codes; a code's rows stay in table order.
        groups: dict[str, list] = {}
        for row in table1.TABLE1_FAST_ROWS:
            groups.setdefault(row[0], []).append(row)
        order = list(groups)
        random.Random(args.seed).shuffle(order)
        self.rows = [row for code in order for row in groups[code]]
        self.protocols = []
        if args.mode == "checked":
            self._capture()

    def _capture(self):
        """Keep each row's protocol for the FT certificate (one list
        append per row; the synthesis calls themselves are untouched)."""
        table1, protocols = self.table1, self.protocols
        synthesize, optimize = table1.synthesize_protocol, table1.globally_optimize_protocol

        def synthesize_kept(*a, **k):
            protocols.append(synthesize(*a, **k))
            return protocols[-1]

        def optimize_kept(*a, **k):
            result = optimize(*a, **k)
            protocols.append(result.protocol)
            return result

        table1.synthesize_protocol = synthesize_kept
        table1.globally_optimize_protocol = optimize_kept

    def timed(self):
        """Latency is per code (its rows run back to back): the 11 rows
        differ too much in size for a steady per-row median."""
        self.result = self.table1.run_table1(self.rows)
        per_code: dict[str, float] = {}
        for row in self.result:
            per_code[row.code] = per_code.get(row.code, 0.0) + row.seconds * 1e3
        return list(per_code.values())

    def outputs(self):
        return [self._cells(row) for row in self.result]

    @staticmethod
    def _cells(row):
        cells = row.cells()
        cells.pop("sec")
        return cells

    def check(self):
        from repro.core.ftcheck import check_fault_tolerance

        failed = 0
        for row, protocol in zip(self.result, self.protocols):
            key = f"{row.code}/{row.prep_method}/{row.verification_method}"
            ok = self.expected.get(key) == self._cells(row)
            ok = ok and check_fault_tolerance(protocol) == []
            failed += not ok
        return failed + abs(len(self.result) - len(self.protocols))


class Figure4(Workload):
    """``run_series(workers=1, engine="batched")`` over the 8 codes,
    protocols loaded from fixtures: all simulation, no SAT."""

    shots = FIGURE4_SHOTS
    executor = None

    def __init__(self, args):
        from repro.experiments.figure4 import run_series

        self.run_series = run_series
        self.protocols = load_protocols()
        self.seeds = series_seeds(args.seed)
        self.pinned = json.loads((FIXTURES / "figure4_expected.json").read_text())

    def series(self, code, **kwargs):
        kwargs.setdefault("shots", self.shots)
        kwargs.setdefault("direct_check_at", DIRECT_AT)
        return self.run_series(
            code,
            protocol=self.protocols[code],
            seed=self.seeds[code],
            workers=1,
            ledger=False,
            **kwargs,
        )

    def timed(self):
        self.result, latencies = [], []
        for code in CODES:
            start = time.perf_counter()
            self.result.append(self.series(code, engine="batched", executor=self.executor))
            latencies.append((time.perf_counter() - start) * 1e3)
        return latencies

    def outputs(self):
        return [series_output(s) for s in self.result]

    def check(self):
        failed = 0
        for got in self.result:
            replay = {
                engine: series_output(
                    self.series(
                        got.code,
                        engine=engine,
                        shots=REPLAY_SHOTS,
                        direct_shots=REPLAY_DIRECT_SHOTS,
                    )
                )
                for engine in ("batched", "reference")
            }
            ok = replay["batched"] == replay["reference"]
            ok = ok and got.f1_exact == self.pinned["f1_exact"][got.code]
            failed += not ok
        return failed


class Cluster(Figure4):
    """The Fig. 4 questions through ``ClusterExecutorFactory`` to one
    local ``repro cluster worker``."""

    shots = CLUSTER_SHOTS

    def __init__(self, args):
        self.worker, address, self.host_spans = spawn_host(
            args, Path(args.tmp), "worker", ["cluster", "worker", "--listen", "127.0.0.1:0"]
        )
        super().__init__(args)
        from repro.sim.cluster import ClusterExecutorFactory

        self.executor = ClusterExecutorFactory((address,))

    def check(self):
        # Bit-identical to the inline workers=1 run of the same questions.
        return sum(
            series_output(self.series(got.code)) != series_output(got)
            for got in self.result
        )

    def begin(self):
        self.cpu_before = time.process_time()
        self.worker_cpu_before = cpu_seconds(self.worker.pid)

    def extras(self):
        from repro.obs.metrics import get_registry

        snap = get_registry().snapshot()

        def both(field):
            return snap.get(f"cluster.wire.{field}_sent", 0) + snap.get(
                f"cluster.wire.{field}_received", 0
            )

        return {
            "net.wire_bytes": both("wire"),
            "net.raw_bytes": both("raw"),
            "net.frames": both("frames"),
            "cluster.requeued": snap.get("cluster.requeues", 0),
            "cluster.coordinator_cpu_s": time.process_time() - self.cpu_before,
            "cluster.worker_cpu_s": cpu_seconds(self.worker.pid) - self.worker_cpu_before,
        }

    def peak_rss_mb(self):
        return peak_rss_mb() + peak_rss_mb(self.worker.pid)

    def close(self):
        stop_process(self.worker)


class Serve(Workload):
    """A real ``repro serve`` driven closed-loop over one connection:
    ledger hits from a warmed-up question pool plus fresh sweeps."""

    def __init__(self, args):
        tmp = Path(args.tmp)
        self._prime_store()
        self.daemon, address, self.host_spans = spawn_host(
            args, tmp, "daemon", ["serve", "--listen", "127.0.0.1:0"]
        )
        from repro.serve.client import ServeClient

        host, port = address.rsplit(":", 1)
        self.client = ServeClient(host, int(port))
        rng = random.Random(args.seed)
        self.pool = self._pool(rng)
        # Warm-up: every pool question is computed once (a ledger write),
        # so the timed stream finds it in the ledger.
        self.warmup = [self.client.request(op, **params) for op, params in self.pool]
        self.stream = self._stream(rng)

    @staticmethod
    def _prime_store():
        """Put the fixture protocols where the daemon's synthesis looks
        first, so serving never runs SAT."""
        from repro.codes.catalog import get_code
        from repro.store import keys, resolve_store

        store = resolve_store(None)
        for code in CODES:
            key = keys.protocol_key(
                get_code(code),
                prep_method="heuristic",
                verification_method="optimal",
                max_correction_measurements=4,
            )
            store.put_text("protocol", key, (FIXTURES / "protocols" / f"{code}.json").read_text())

    @staticmethod
    def _pool(rng) -> list:
        pool = []
        for code in CODES:
            for seed in rng.sample(range(1, FRESH_SEED_BASE), 2):
                pool.append(("sweep", {"code": code, "shots": SERVE_SWEEP_SHOTS, "seed": seed}))
            pool.append(("ftcheck", {"code": code}))
            pool.append(
                (
                    "direct",
                    {
                        "code": code,
                        "p": rng.choice((1e-3, 1e-2, 5e-2)),
                        "shots": SERVE_DIRECT_SHOTS,
                        "seed": rng.randrange(1, FRESH_SEED_BASE),
                    },
                )
            )
        for code in SERVE_BUDGET_CODES:
            pool.append(("budget", {"code": code}))
        return pool

    def _stream(self, rng) -> list:
        """Request plan: (pool index or None, op, params). Exactly one in
        ``SERVE_FRESH_EVERY`` is a fresh sweep, at seeded positions, and
        every code gets the same number of them, so the compute-class
        latencies do not depend on the seed's mix of codes."""
        count = SERVE_REQUESTS // SERVE_FRESH_EVERY
        fresh = dict(zip(rng.sample(range(SERVE_REQUESTS), count), CODES * (count // len(CODES))))
        stream = []
        for i in range(SERVE_REQUESTS):
            if i in fresh:
                params = {"code": fresh[i], "shots": SERVE_FRESH_SHOTS, "seed": FRESH_SEED_BASE + i}
                stream.append((None, "sweep", params))
            else:
                index = rng.randrange(len(self.pool))
                stream.append((index, *self.pool[index]))
        return stream

    def timed(self):
        self.replies, self.latencies = [], []
        request = self.client.request
        for _, op, params in self.stream:
            start = time.perf_counter()
            reply = request(op, **params)
            self.latencies.append((time.perf_counter() - start) * 1e3)
            self.replies.append(reply)
        return self.latencies

    def outputs(self):
        return [[r["source"], digest(r["result"])] for r in self.replies]

    def check(self):
        answers = [(r["source"], digest(r["result"])) for r in self.warmup]
        failed = sum(source != "computed" for source, _ in answers)
        for (index, _, _), (source, answer) in zip(self.stream, self.outputs()):
            if index is None:
                failed += source != "computed"
            else:
                failed += (source, answer) != ("ledger", answers[index][1])
        # Hits equal their warm-up answer; the first of those must equal
        # the library's own inline run of the same question.
        from repro.experiments.figure4 import run_series

        _, params = self.pool[0]
        served = self.warmup[0]["result"]
        series = run_series(
            params["code"],
            protocol=load_protocols()[params["code"]],
            shots=params["shots"],
            seed=params["seed"],
            # The daemon's default grid differs from FIGURE4_SWEEP in the
            # last bit of two points; ask for the grid it answered.
            sweep=[e["p"] for e in served["estimates"]],
            workers=1,
            ledger=False,
        )
        ok = served["shots"] == series.shots and served["estimates"] == [
            {"p": e.p, "mean": e.mean, "lower": e.lower, "upper": e.upper, "tail": e.tail}
            for e in series.estimates
        ]
        return failed + (not ok)

    def begin(self):
        self.stats_before = self.client.stats()
        self.wire_before = self.client.wire_stats()
        self.daemon_cpu_before = cpu_seconds(self.daemon.pid)
        self.client_cpu_before = time.process_time()

    def extras(self):
        client_cpu = time.process_time() - self.client_cpu_before
        daemon_cpu = cpu_seconds(self.daemon.pid) - self.daemon_cpu_before
        wire = self.client.wire_stats()
        after = self.client.stats()
        n = len(self.stream)
        by_source: dict[str, list] = {}
        for reply, ms in zip(self.replies, self.latencies):
            by_source.setdefault(reply["source"], []).append(ms)
        hits = summarize(by_source.get("ledger", []))
        return {
            "serve.requests": n,
            "serve.hit_p50_ms": hits["median"],
            "serve.hit_p99_ms": hits["tail"],
            "serve.compute_p50_ms": summarize(by_source.get("computed", []))["median"],
            "serve.daemon_cpu_ms_per_req": daemon_cpu * 1e3 / n,
            "serve.client_cpu_ms_per_req": client_cpu * 1e3 / n,
            "net.line_bytes": sum(
                wire[k] - self.wire_before[k] for k in ("raw_sent", "raw_received")
            ),
            "serve.ledger_hits": after["ledger_hits"] - self.stats_before["ledger_hits"],
            "serve.computes": after["computes"] - self.stats_before["computes"],
            # Lifetime count: compiles beyond one per code are wasted work.
            "serve.engine_compiles": after["engine_compiles"],
        }

    def peak_rss_mb(self):
        return peak_rss_mb(self.daemon.pid)

    def close(self):
        self.client.close()
        stop_process(self.daemon)


WORKLOADS = {"table1": Table1, "figure4": Figure4, "serve": Serve, "cluster": Cluster}


def run_pass(args) -> dict:
    recorder = None
    if args.trace:
        from layers import Recorder, install

        recorder = Recorder()
        install(recorder)
    workload = WORKLOADS[args.workload](args)
    try:
        if recorder is not None:
            workload.begin()
        start = time.monotonic()
        out = {"setup_s": start - args.spawned_at}
        if args.mode == "setup":
            return out
        latencies = workload.timed()
        end = time.monotonic()
        extras = workload.extras() if recorder is not None else {}
        out.update(
            wall_s=end - start,
            peak_rss_mb=workload.peak_rss_mb(),
            latencies_ms=latencies,
            outputs=[digest(o) for o in workload.outputs()],
        )
        if args.mode == "checked":
            out["failed"] = workload.check()
    finally:
        workload.close()
    if recorder is not None:
        from layers import layer_metrics

        layers = layer_metrics(recorder.spans, (start, end))
        if workload.host_spans is not None:
            host = host_layers(workload.host_spans, (start, end))
            layers = {k: layers.get(k, 0) + host.get(k, 0) for k in layers.keys() | host.keys()}
        out["layers"] = {**layers, **extras}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "checked"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
