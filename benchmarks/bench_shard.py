"""Benchmark: intra-code sharding throughput (1 vs N workers, one code).

The ISSUE-3 acceptance workload: a deep sampled stratum of the *largest*
catalog code ([[16,6,4]] tesseract, 221 fault locations) executed through
the sharded evaluation path (``repro.sim.shard``) with ``workers=1``
(inline, the bit-identity baseline) and ``workers=N`` (N loopback
cluster workers, ``repro.sim.cluster.LocalWorkers``, each compiling the
protocol once from its JSON payload). Worker start-up and the handshake
are paid by an untimed warm-up pass. Asserts the tallies are
identical — the sharded path's core contract — and that no chunk exceeds
the ``--max-slab`` memory bound, then records wall-clocks and speedup in
``BENCH_shard.json`` (picked up by ``scripts/bench_delta.py`` in CI).

Parallel speedup is physical, not magic: on a ``cpu_count=1`` box the
workers only add overhead, so the >= 2x floor is enforced only when the
machine actually has at least 4 cores (``--floor 0`` disables it, e.g.
on shared CI runners whose core counts jitter). The recorded
``cpu_count`` field says which regime a datapoint came from.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_shard [--code tesseract]
        [--shots 60000] [--k 3] [--workers 4] [--max-slab 8192]
        [--floor 2.0] [--out BENCH_shard.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.codes.catalog import get_code
from repro.core.protocol import synthesize_protocol
from repro.sim.sampler import make_sampler
from repro.sim.shard import merge_partials, resolve_evaluator
from repro.store import resolve_store


def _run_sharded(protocol, k, shots, seed, workers, max_slab):
    """One timed pass: plan, execute, merge. Returns (tallies, seconds, peak)."""
    engine = make_sampler(protocol)
    peak = 0
    original = engine.failures_indexed

    def recording(loc_idx, draw_idx):
        nonlocal peak
        peak = max(peak, loc_idx.shape[0])
        return original(loc_idx, draw_idx)

    if workers == 1:
        # Only the inline path can observe per-call slab sizes; the
        # workers execute in their own processes.
        engine.failures_indexed = recording
    with resolve_evaluator(engine, workers=workers, max_slab=max_slab) as ev:
        list(ev.map(ev.planner.plan_stratum(k, 256, seed)))  # warm the workers
        start = time.perf_counter()
        merged = merge_partials(
            ev.map(ev.planner.plan_stratum(k, shots, seed))
        )
        seconds = time.perf_counter() - start
    return (merged.trials, merged.failures), seconds, peak


def run_recorder(
    code_key: str,
    shots: int,
    k: int,
    seed: int,
    workers: int,
    max_slab: int,
) -> dict:
    # Two timed synthesis calls: with the artifact store enabled
    # (repro.store, the default) the first call pays the full SAT search
    # and the second loads the stored protocol JSON, so the cold/warm gap
    # is the store's synthesis saving; with REPRO_STORE=off both are
    # cold. "synthesis_seconds" stays the cold number for ledger
    # continuity with earlier datapoints.
    synth_start = time.perf_counter()
    protocol = synthesize_protocol(get_code(code_key))
    synth_seconds = time.perf_counter() - synth_start
    warm_start = time.perf_counter()
    protocol = synthesize_protocol(get_code(code_key))
    synth_warm_seconds = time.perf_counter() - warm_start

    serial_tallies, serial_seconds, peak_slab = _run_sharded(
        protocol, k, shots, seed, 1, max_slab
    )
    sharded_tallies, sharded_seconds, _ = _run_sharded(
        protocol, k, shots, seed, workers, max_slab
    )

    from repro.sim.frame import protocol_locations

    return {
        "benchmark": "shard_smoke",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "code": code_key,
        "locations": len(protocol_locations(protocol)),
        "shots": shots,
        "stratum_k": k,
        "seed": seed,
        "workers": workers,
        "max_slab": max_slab,
        "peak_slab_observed": peak_slab,
        "synthesis_seconds": round(synth_seconds, 4),
        "synthesis_seconds_cold": round(synth_seconds, 4),
        "synthesis_seconds_warm": round(synth_warm_seconds, 4),
        "store_enabled": resolve_store(None) is not None,
        "serial_seconds": round(serial_seconds, 4),
        "sharded_seconds": round(sharded_seconds, 4),
        "serial_shots_per_second": round(shots / serial_seconds),
        "sharded_shots_per_second": round(shots / sharded_seconds),
        "shard_speedup": round(serial_seconds / sharded_seconds, 2),
        "tallies_identical": serial_tallies == sharded_tallies,
        "slab_bound_respected": peak_slab <= max_slab,
        "failure_rate": round(serial_tallies[1] / shots, 6),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--code", default="tesseract")
    parser.add_argument("--shots", type=int, default=60_000)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--workers", type=int, default=min(4, os.cpu_count() or 1)
    )
    parser.add_argument("--max-slab", type=int, default=8192)
    parser.add_argument(
        "--floor",
        type=float,
        default=2.0,
        help=(
            "minimum required speedup at workers=N (enforced only when "
            "the machine has >= 4 cores; 0 disables)"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_shard.json",
    )
    args = parser.parse_args()

    workers = max(2, args.workers)
    record = run_recorder(
        args.code, args.shots, args.k, args.seed, workers, args.max_slab
    )
    print(json.dumps(record, indent=2))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not record["tallies_identical"]:
        print("FAIL: sharded tallies differ from the workers=1 baseline")
        return 1
    if not record["slab_bound_respected"]:
        print(
            f"FAIL: a chunk materialized {record['peak_slab_observed']} "
            f"configurations (> --max-slab {args.max_slab})"
        )
        return 1
    cores = record["cpu_count"] or 1
    if args.floor and cores >= 4:
        if record["shard_speedup"] < args.floor:
            print(
                f"FAIL: speedup {record['shard_speedup']}x below the "
                f"{args.floor}x floor on a {cores}-core machine"
            )
            return 1
        print(
            f"OK: {record['shard_speedup']}x at workers={workers}, "
            "tallies identical, slab bound respected"
        )
    else:
        print(
            f"OK (floor not enforced, {cores} core(s)): "
            f"{record['shard_speedup']}x at workers={workers}, tallies "
            "identical, slab bound respected"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
