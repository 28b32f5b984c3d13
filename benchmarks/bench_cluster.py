"""Benchmark/smoke: multi-node cluster execution vs inline, bit-identical.

The ISSUE-4 acceptance workload: the FT-certificate row enumeration, the
exact two-fault budget, and a deep sampled stratum of one catalog code
executed twice — ``workers=1`` inline (the bit-identity baseline) and on
a localhost TCP cluster (``repro.sim.cluster``) — asserting every tally,
histogram, and float mass is identical. A third pass repeats the stratum
with a **fault-injection worker** (an in-process ``ClusterWorker`` with
``max_chunks=3``, the drill behind ``repro cluster worker --max-chunks``:
it dies mid-stream with its in-flight chunk unacknowledged) to prove the
requeue path is also bit-identical, then everything lands in
``BENCH_cluster.json`` for the CI artifact/delta machinery.

Workers are either external (``--cluster HOST:PORT,...`` — the CI smoke
job spins up two ``repro cluster worker`` processes) or ``--spawn N``
loopback workers (default 2; ``repro.sim.cluster.LocalWorkers``, the
``workers=N`` backend) so the benchmark runs anywhere::

    PYTHONPATH=src python -m benchmarks.bench_cluster [--code steane]
        [--shots 20000] [--cluster 127.0.0.1:7781,127.0.0.1:7782]
        [--spawn 2] [--pipeline-depth 4]
        [--out BENCH_cluster.json]

The record now also carries the protocol-3 fabric datapoints: the
effective ``pipeline_depth``, a depth-1 lockstep rerun of the stratum
(``pipeline_vs_lockstep`` is what the credit window buys), and the frame
codec, compression ratio, and bytes-on-wire from
:meth:`ClusterEvaluator.wire_stats` — plus the ``repro.net`` security
posture (``transport: plaintext|tls`` and ``auth``). ``--tls-cert``/
``--tls-key`` put the drill worker behind TLS to match TLS ``--cluster``
workers (CI generates an ephemeral self-signed pair), and an ambient
``REPRO_NET_TOKEN`` arms the token handshake on both sides; loopback
workers carry their own per-launch token. The identity gates hold
regardless, because results never depend on the transport.

Cluster speedup on a single-core container is physical nonsense (same
box, extra sockets), so like ``bench_shard`` there is no hard speedup
floor here — correctness (identity + disconnect recovery) is the gate,
wall-clocks are the recorded trend datapoints.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import socket
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.codes.catalog import get_code
from repro.core.analysis import two_fault_error_budget
from repro.core.ftcheck import check_fault_tolerance
from repro.core.protocol import synthesize_protocol
from repro.net import Endpoint, parse_endpoints
from repro.sim.cluster import (
    ClusterEvaluator,
    ClusterExecutorFactory,
    ClusterWorker,
    LocalWorkers,
)
from repro.sim.sampler import make_sampler
from repro.sim.shard import ShardedEvaluator


def _wait_for_port(endpoint: Endpoint, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    address = (endpoint.connect_host, endpoint.port)
    while True:
        try:
            socket.create_connection(address, timeout=1.0).close()
            return
        except OSError:
            if time.monotonic() > deadline:
                raise TimeoutError(f"no cluster worker came up on {address}")
            time.sleep(0.2)


def _drill_worker(tls: tuple[str, str] | None, token: str | None) -> Endpoint:
    """Start an in-process ``ClusterWorker`` that crashes after 3 chunks
    (its ``max_chunks`` drill) and return its connect endpoint.

    With ``tls=(certfile, keyfile)`` it listens over TLS and the endpoint
    pins the cert as the CA; ``token`` (else the ambient
    ``REPRO_NET_TOKEN``) arms the handshake, as for the other workers.
    """
    listen = Endpoint(
        "127.0.0.1",
        0,
        tls=tls is not None,
        certfile=tls[0] if tls else None,
        keyfile=tls[1] if tls else None,
        token=token,
    )
    worker = ClusterWorker.from_endpoint(listen, max_chunks=3)
    threading.Thread(target=worker.serve_forever, daemon=True).start()
    return Endpoint(
        "127.0.0.1",
        worker.port,
        tls=tls is not None,
        cafile=tls[0] if tls else None,
    )


def _stratum(evaluator, k: int, shots: int, seed: int):
    merged = evaluator.reduce(evaluator.planner.plan_stratum(k, shots, seed))
    return (merged.trials, merged.failures)


def _timed_stratum(evaluator, k: int, shots: int, seed: int, reps: int = 3):
    """Best-of-``reps`` wall clock for one stratum (the regions are tens
    of milliseconds on the smoke workload — a single shot is scheduler
    noise); the tallies of every rep must agree."""
    results, times = [], []
    for _ in range(reps):
        start = time.perf_counter()
        results.append(_stratum(evaluator, k, shots, seed))
        times.append(time.perf_counter() - start)
    assert all(result == results[0] for result in results)
    return results[0], min(times)


def run_recorder(
    code_key: str,
    shots: int,
    k: int,
    seed: int,
    addresses,
    max_slab: int,
    drill_addresses=None,
    pipeline_depth: int | None = None,
    token: str | None = None,
) -> dict:
    synth_start = time.perf_counter()
    protocol = synthesize_protocol(get_code(code_key))
    synth_seconds = time.perf_counter() - synth_start
    engine = make_sampler(protocol)

    # Inline baseline: certificate rows, budget, deep stratum.
    with ShardedEvaluator(engine, max_slab=max_slab) as inline:
        start = time.perf_counter()
        rows_base = inline.reduce(
            inline.planner.plan_rows(checkable_only=True, threshold=1)
        )
        rows_seconds = time.perf_counter() - start
        stratum_base, stratum_seconds = _timed_stratum(inline, k, shots, seed)
        inline_seconds = rows_seconds + stratum_seconds
    budget_base = two_fault_error_budget(protocol, max_slab=max_slab)
    ft_base = check_fault_tolerance(protocol, max_slab=max_slab)

    # The same plans on the cluster (pipelined, compressed frames).
    # A tiny warmup reduce first: it opens the connections, runs the
    # handshake, and seeds each worker's engine cache — one-time session
    # setup the steady-state numbers should not carry (consumers hold
    # one evaluator across many reduces, so chunks never pay it again).
    with ClusterEvaluator(
        engine,
        addresses,
        pipeline_depth=pipeline_depth,
        max_slab=max_slab,
        token=token,
    ) as cluster:
        effective_depth = cluster.pipeline_depth
        cluster.reduce(cluster.planner.plan_stratum(k, 64, seed + 1))
        start = time.perf_counter()
        rows_cluster = cluster.reduce(
            cluster.planner.plan_rows(checkable_only=True, threshold=1)
        )
        cluster_rows_seconds = time.perf_counter() - start
        stratum_cluster, cluster_stratum_seconds = _timed_stratum(
            cluster, k, shots, seed
        )
        cluster_seconds = cluster_rows_seconds + cluster_stratum_seconds
        wire = cluster.wire_stats()

    # The identical stratum in ack-per-chunk lockstep (depth 1): the
    # old protocol's cadence, so the record shows what the credit
    # window itself buys on this workload (same warmup, same plans).
    with ClusterEvaluator(
        engine, addresses, pipeline_depth=1, max_slab=max_slab, token=token
    ) as lockstep:
        lockstep.reduce(lockstep.planner.plan_stratum(k, 64, seed + 1))
        stratum_lockstep, lockstep_seconds = _timed_stratum(
            lockstep, k, shots, seed
        )

    factory = ClusterExecutorFactory(
        tuple(addresses), pipeline_depth=pipeline_depth, token=token
    )
    budget_cluster = two_fault_error_budget(
        protocol, executor=factory, max_slab=max_slab
    )
    ft_cluster = check_fault_tolerance(protocol, executor=factory, max_slab=max_slab)

    rows_identical = (
        rows_base.trials == rows_cluster.trials
        and rows_base.heavy == rows_cluster.heavy
    )
    identical = (
        rows_identical
        and stratum_base == stratum_cluster
        and stratum_base == stratum_lockstep
        and budget_base == budget_cluster
        and ft_base == ft_cluster
    )

    # Forced-disconnect drill: one dying worker in the set, same answer.
    drill_identical = None
    if drill_addresses is not None:
        with ClusterEvaluator(
            engine, drill_addresses, max_slab=max_slab, token=token
        ) as drill:
            drill_identical = (
                _stratum(drill, k, shots, seed) == stratum_base
            )

    return {
        "benchmark": "cluster_smoke",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "code": code_key,
        "locations": len(engine.locations),
        "shots": shots,
        "stratum_k": k,
        "seed": seed,
        "cluster_workers": len(parse_endpoints(addresses)),
        "max_slab": max_slab,
        "synthesis_seconds": round(synth_seconds, 4),
        "inline_seconds": round(inline_seconds, 4),
        "cluster_seconds": round(cluster_seconds, 4),
        "cluster_speedup": round(inline_seconds / cluster_seconds, 2),
        "pipeline_depth": effective_depth,
        "lockstep_seconds": round(lockstep_seconds, 4),
        "pipeline_vs_lockstep": round(
            lockstep_seconds / cluster_stratum_seconds, 2
        ),
        "frame_codec": wire["codec"],
        "transport": wire["transport"],
        "auth": wire["auth"],
        "compression_ratio": round(wire["compression_ratio"], 3),
        "bytes_on_wire": wire["wire_sent"] + wire["wire_received"],
        "bytes_raw": wire["raw_sent"] + wire["raw_received"],
        "tallies_identical": identical,
        "budget_identical": budget_base == budget_cluster,
        "ftcheck_identical": ft_base == ft_cluster,
        "disconnect_drill_identical": drill_identical,
        "failure_rate": round(stratum_base[1] / shots, 6),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--code", default="steane")
    parser.add_argument("--shots", type=int, default=20_000)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--cluster",
        default=None,
        metavar="ENDPOINT[,ENDPOINT...]",
        help=(
            "use these already-running workers instead of spawning "
            "(full repro.net endpoint grammar: "
            "HOST:PORT[?tls=1&cafile=...&token=...])"
        ),
    )
    parser.add_argument(
        "--spawn",
        type=int,
        default=2,
        help="start this many loopback workers (ignored with --cluster)",
    )
    parser.add_argument(
        "--tls-cert",
        default=None,
        metavar="PEM",
        help=(
            "run the disconnect-drill worker behind TLS with this "
            "certificate, to match TLS --cluster workers (needs "
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
    parser.add_argument("--max-slab", type=int, default=2048)
    parser.add_argument(
        "--pipeline-depth",
        type=int,
        default=None,
        help="outstanding chunks per worker (default: module default of 4)",
    )
    parser.add_argument(
        "--skip-drill",
        action="store_true",
        help="skip the forced worker-disconnect drill",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_cluster.json",
    )
    args = parser.parse_args()

    if bool(args.tls_cert) != bool(args.tls_key):
        parser.error("--tls-cert and --tls-key go together")
    tls = (args.tls_cert, args.tls_key) if args.tls_cert else None

    with contextlib.ExitStack() as stack:
        token = None
        if args.cluster:
            addresses = list(parse_endpoints(args.cluster))
            for endpoint in addresses:
                _wait_for_port(endpoint)
        else:
            workers = stack.enter_context(LocalWorkers(max(2, args.spawn)))
            addresses, token = list(workers.endpoints), workers.token
        drill_addresses = None
        if not args.skip_drill:
            drill_addresses = [_drill_worker(tls, token)] + addresses
        record = run_recorder(
            args.code,
            args.shots,
            args.k,
            args.seed,
            addresses,
            args.max_slab,
            drill_addresses=drill_addresses,
            pipeline_depth=args.pipeline_depth,
            token=token,
        )

    # The coordinator runs in this process, so the registry holds the
    # cluster-side numbers: requeues, chunk latency histograms, wire
    # byte counters (repro.obs.metrics).
    from repro.obs.metrics import get_registry

    record["metrics"] = get_registry().snapshot()

    print(json.dumps(record, indent=2))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not record["tallies_identical"]:
        print("FAIL: cluster results differ from the workers=1 baseline")
        return 1
    if record["disconnect_drill_identical"] is False:
        print("FAIL: results changed under a forced worker disconnect")
        return 1
    print(
        f"OK: {record['cluster_workers']}-worker cluster bit-identical to "
        f"inline ({record['cluster_speedup']}x wall-clock, depth "
        f"{record['pipeline_depth']} = {record['pipeline_vs_lockstep']}x "
        f"over lockstep, {record['frame_codec']} frames "
        f"{record['compression_ratio']}x), disconnect drill "
        + (
            "identical"
            if record["disconnect_drill_identical"]
            else "skipped"
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
