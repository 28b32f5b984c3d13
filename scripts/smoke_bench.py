"""Smoke benchmark: batched vs per-shot sampling throughput.

Times the two execution engines on the same seeded 10k-shot stratum of the
steane protocol, each as the median of ``REPEATS`` runs, asserts their
verdicts are bit-for-bit identical, and records the result in
``BENCH_sampler.json`` so the repository carries a throughput datapoint per
change. Both engines take the same index arrays, so the per-shot time
includes expanding them into injection dicts (``materialize_stratum``).
CI runs this in quick mode after the tier-1 suite.

Usage::

    PYTHONPATH=src python scripts/smoke_bench.py [--code steane]
        [--shots 10000] [--k 2] [--seed 2025] [--out BENCH_sampler.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.codes.catalog import get_code
from repro.core.protocol import synthesize_protocol
from repro.sim.noise import sample_injections_stratum
from repro.sim.sampler import BatchedSampler, ReferenceSampler

#: Timed runs per engine; the reported time is their median, so one slow
#: run does not move ``speedup``.
REPEATS = 5


def median_seconds(run) -> tuple[float, object]:
    """Median wall time of ``REPEATS`` calls of ``run`` and its first result."""
    times, results = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        results.append(run())
        times.append(time.perf_counter() - start)
    return statistics.median(times), results[0]


def run_smoke(code_key: str, shots: int, k: int, seed: int) -> dict:
    synth_start = time.perf_counter()
    protocol = synthesize_protocol(get_code(code_key))
    synth_seconds = time.perf_counter() - synth_start

    batched = BatchedSampler(protocol)
    reference = ReferenceSampler(protocol)
    rng = np.random.default_rng(seed)
    loc_idx, draw_idx = sample_injections_stratum(
        batched.locations, k, shots, rng
    )

    # Warm both paths so one-time compilation/caching is off the clock.
    batched.failures_indexed(loc_idx[:64], draw_idx[:64])
    reference.failures_indexed(loc_idx[:64], draw_idx[:64])

    batched_seconds, batched_verdicts = median_seconds(
        lambda: batched.failures_indexed(loc_idx, draw_idx)
    )
    reference_seconds, reference_verdicts = median_seconds(
        lambda: reference.failures_indexed(loc_idx, draw_idx)
    )

    identical = bool(np.array_equal(batched_verdicts, reference_verdicts))
    speedup = reference_seconds / batched_seconds
    return {
        "benchmark": "sampler_smoke",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "code": code_key,
        "shots": shots,
        "stratum_k": k,
        "seed": seed,
        "repeats": REPEATS,
        "locations": len(batched.locations),
        "synthesis_seconds": round(synth_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "reference_seconds": round(reference_seconds, 4),
        "batched_shots_per_second": round(shots / batched_seconds),
        "reference_shots_per_second": round(shots / reference_seconds),
        "speedup": round(speedup, 1),
        "verdicts_identical": identical,
        "failure_rate": round(float(batched_verdicts.mean()), 6),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--code", default="steane")
    parser.add_argument("--shots", type=int, default=10_000)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).resolve().parents[1] / "BENCH_sampler.json"
    )
    args = parser.parse_args()

    record = run_smoke(args.code, args.shots, args.k, args.seed)
    print(json.dumps(record, indent=2))
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not record["verdicts_identical"]:
        print("FAIL: engines disagree")
        return 1
    if record["speedup"] < 10.0:
        print(f"FAIL: speedup {record['speedup']}x below the 10x floor")
        return 1
    print(f"OK: {record['speedup']}x speedup, verdicts identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
