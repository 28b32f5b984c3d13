"""Benchmark: resident daemon cold vs warm query latency (repro.serve).

Boots a real ``repro serve`` daemon subprocess (ephemeral port, fresh
ledger root), then measures the four compute ops twice each: the cold
pass computes on the daemon's engines, the warm pass must be served
from the results ledger. Three gates ride along, all hard failures:

* **bit-identity, daemon vs library** — the cold sweep payload must
  equal a ``run_series`` call (the figure4/CLI core) float for float;
* **bit-identity, warm vs cold** — ledger answers equal computed ones;
* **dedup** — the warm pass performs zero computations (daemon ``stats``
  counters), and warm sweep latency stays under ``--warm-ceiling``.

Record fields follow the other ``BENCH_*.json`` datapoints so
``scripts/bench_delta.py`` and ``scripts/bench_trend.py`` pick the
``*_seconds`` / ``*_speedup`` metrics up automatically.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_serve [--code steane]
        [--shots 4000] [--connect ENDPOINT] [--warm-ceiling 1.0]
        [--tls-cert cert.pem --tls-key key.pem] [--out BENCH_serve.json]

``--tls-cert``/``--tls-key`` spawn the daemon behind TLS (CI passes an
ephemeral self-signed pair) and an ambient ``REPRO_NET_TOKEN`` arms the
token handshake; the record's ``transport``/``auth`` fields say which
posture produced the datapoint. Every gate holds regardless — results
never depend on the transport.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path


def _spawn_daemon(
    ledger_root: Path,
    store_root: Path,
    tls: tuple[str, str] | None = None,
):
    """Start ``repro serve`` on an ephemeral port; returns the process
    plus the client-side connect :class:`~repro.net.Endpoint`.

    With ``tls=(certfile, keyfile)`` the daemon listens over TLS and the
    connect endpoint pins the server cert as the CA; an ambient
    ``REPRO_NET_TOKEN`` (inherited by the subprocess) arms the token
    handshake on both sides without any flag.
    """
    from repro.net import Endpoint

    env = dict(
        os.environ,
        REPRO_LEDGER=str(ledger_root),
        REPRO_STORE=str(store_root),
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    listen = Endpoint(
        "127.0.0.1",
        0,
        tls=tls is not None,
        certfile=tls[0] if tls else None,
        keyfile=tls[1] if tls else None,
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--listen", listen.render()],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        raise RuntimeError(f"daemon failed to start: {line!r}")
    host, _, port = line.split("listening on ")[1].split(" ")[0].rpartition(":")
    endpoint = Endpoint(
        host, int(port), tls=tls is not None, cafile=tls[0] if tls else None
    )
    return proc, endpoint


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _sweep_equals_series(line: dict, series) -> bool:
    result = line["result"]
    if result["f1_exact"] != series.f1_exact:
        return False
    if len(result["estimates"]) != len(series.estimates):
        return False
    return all(
        (w["p"], w["mean"], w["lower"], w["upper"], w["tail"])
        == (e.p, e.mean, e.lower, e.upper, e.tail)
        for w, e in zip(result["estimates"], series.estimates)
    )


def run_recorder(args, endpoint) -> dict:
    from repro.experiments.figure4 import run_series
    from repro.serve.client import ServeClient

    grid = [1e-4, 1e-3, 1e-2, 1e-1]
    sweep_params = dict(
        shots=args.shots, k_max=args.k_max, seed=args.seed, sweep=grid
    )
    ops = [
        ("sweep", "sweep", dict(sweep_params)),
        ("ftcheck", "ftcheck", {}),
        ("budget", "budget", {}),
        ("direct", "direct", {"p": 1e-3, "shots": args.shots}),
    ]
    cold: dict[str, tuple] = {}
    warm: dict[str, tuple] = {}
    with ServeClient(endpoint, timeout=600.0) as client:
        client.ping()
        for name, op, params in ops:
            cold[name] = _timed(
                lambda op=op, params=params: client.request(
                    op, code=args.code, **params
                )
            )
        for name, op, params in ops:
            warm[name] = _timed(
                lambda op=op, params=params: client.request(
                    op, code=args.code, **params
                )
            )
        stats = client.stats()

    # The warm pass must be pure ledger service: identical payloads,
    # zero additional computes.
    warm_sources = {name: line["source"] for name, (line, _) in warm.items()}
    bit_identical_warm = all(
        warm[name][0]["result"] == cold[name][0]["result"] for name in cold
    )
    dedup_clean = (
        all(source == "ledger" for source in warm_sources.values())
        and stats["computes"] == len(ops)
    )

    # Daemon vs the cold library path (the figure4/CLI core).
    series = run_series(
        args.code,
        shots=args.shots,
        k_max=args.k_max,
        seed=args.seed,
        sweep=grid,
        workers=1,  # inline; the daemon's backend draws the same stream
        ledger=False,
    )
    bit_identical_library = _sweep_equals_series(cold["sweep"][0], series)

    cold_seconds = sum(seconds for _, seconds in cold.values())
    warm_seconds = sum(seconds for _, seconds in warm.values())
    record = {
        "benchmark": "serve_smoke",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "code": args.code,
        "shots": args.shots,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "serve_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
        "sweep_seconds_cold": round(cold["sweep"][1], 4),
        "sweep_seconds_warm": round(warm["sweep"][1], 4),
        "requests": stats["requests"],
        "computes": stats["computes"],
        "ledger_hits": stats["ledger_hits"],
        "engine_compiles": stats["engine_compiles"],
        "transport": stats.get("transport", "plaintext"),
        "auth": stats.get("auth", False),
        "dedup_clean": dedup_clean,
        "bit_identical_warm": bit_identical_warm,
        "bit_identical_library": bit_identical_library,
        # The daemon's full metrics registry (repro.obs.metrics) as
        # reported by the stats op — per-chunk latency histograms,
        # ledger/store counters, wire bytes.
        "metrics": stats.get("metrics"),
    }
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--code", default="steane")
    parser.add_argument("--shots", type=int, default=4000)
    parser.add_argument("--k-max", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--connect",
        default=None,
        metavar="ENDPOINT",
        help=(
            "benchmark an already-running daemon instead of spawning one "
            "(the spawned daemon gets a fresh ledger, so cold is cold); "
            "full repro.net endpoint grammar: "
            "HOST:PORT[?tls=1&cafile=...&token=...]"
        ),
    )
    parser.add_argument(
        "--tls-cert",
        default=None,
        metavar="PEM",
        help=(
            "spawn the daemon behind TLS with this certificate (needs "
            "--tls-key; the cert doubles as the client-side pinned CA). "
            "Set REPRO_NET_TOKEN to add the token handshake on top."
        ),
    )
    parser.add_argument(
        "--tls-key",
        default=None,
        metavar="PEM",
        help="private key for --tls-cert",
    )
    parser.add_argument(
        "--warm-ceiling",
        type=float,
        default=1.0,
        help=(
            "maximum allowed warm sweep wall-clock in seconds "
            "(0 disables the gate; correctness gates always apply)"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_serve.json",
    )
    args = parser.parse_args()

    if bool(args.tls_cert) != bool(args.tls_key):
        parser.error("--tls-cert and --tls-key go together")
    tls = (args.tls_cert, args.tls_key) if args.tls_cert else None

    proc = None
    if args.connect:
        from repro.net import parse_endpoint

        endpoint = parse_endpoint(args.connect, default_port=7790)
    else:
        scratch = Path(tempfile.mkdtemp(prefix="repro-bench-serve-"))
        proc, endpoint = _spawn_daemon(
            scratch / "ledger", scratch / "store", tls=tls
        )
    try:
        record = run_recorder(args, endpoint)
    finally:
        if proc is not None:
            proc.terminate()
            proc.wait(timeout=15)

    print(json.dumps(record, indent=2))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    failures = []
    if not record["bit_identical_warm"]:
        failures.append("warm (ledger) payloads differ from cold (computed)")
    if not record["bit_identical_library"]:
        failures.append("daemon sweep differs from the cold library path")
    if not record["dedup_clean"]:
        failures.append("warm pass was not pure ledger service")
    if args.warm_ceiling and record["sweep_seconds_warm"] > args.warm_ceiling:
        failures.append(
            f"warm sweep took {record['sweep_seconds_warm']}s "
            f"(ceiling {args.warm_ceiling}s)"
        )
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
