"""Benchmark/gate: the compiled kernel tier vs the NumPy batched engine.

Times the two hot paths the kernel tier replaces — the fused segment
application behind ``failures_indexed`` and the residual-weight popcount
reduction behind ``residual_weights_indexed`` — on seeded k=3 strata of
catalog codes, executing each workload on both engines and asserting the
verdicts and weights are **bit-identical** before any clock is read.

The speedup gate is numba-aware: with numba importable
(``pip install repro[fast]``) the sampler smoke must reach the floor
(default 2x) or the benchmark fails; on a numba-free interpreter the
kernel tier runs its pure-NumPy twins — same dispatch, same semantics,
roughly batched-engine speed — so the floor is **self-disabled** and
identity is the only gate. Either way the record lands in
``BENCH_kernels.json`` for the CI artifact/delta/trend machinery::

    PYTHONPATH=src python -m benchmarks.bench_kernels [--codes steane ...]
        [--shots 20000] [--k 3] [--min-speedup 2.0]
        [--out BENCH_kernels.json]
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
from repro.sim import kernels
from repro.sim.noise import sample_injections_stratum
from repro.sim.sampler import make_sampler

#: Codes the smoke profile times (small + mid-size; --codes overrides).
DEFAULT_CODES = ["steane", "surface_3", "carbon"]


def _best_of(callable_, reps: int = 3):
    """Best-of-``reps`` wall clock and the (identical) last result."""
    result, best = None, float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return result, best


def bench_code(code_key: str, shots: int, k: int, seed: int) -> dict:
    protocol = synthesize_protocol(get_code(code_key))
    batched = make_sampler(protocol, engine="batched")
    kernel = make_sampler(protocol, engine="kernel")

    loc_idx, draw_idx = sample_injections_stratum(
        batched.locations, k, shots, np.random.default_rng(seed)
    )
    code = protocol.code
    x_reducer = code.x_error_reducer()
    z_reducer = code.z_error_reducer()

    # Warm both engines off the clock: signature caches, CSR builds,
    # and (with numba) the one-time JIT compilation of the kernels.
    batched.failures_indexed(loc_idx[:64], draw_idx[:64])
    kernel.failures_indexed(loc_idx[:64], draw_idx[:64])
    batched.residual_weights_indexed(
        loc_idx[:64], draw_idx[:64], x_reducer, z_reducer
    )
    kernel.residual_weights_indexed(
        loc_idx[:64], draw_idx[:64], x_reducer, z_reducer
    )

    verdicts_batched, failures_batched_s = _best_of(
        lambda: batched.failures_indexed(loc_idx, draw_idx)
    )
    verdicts_kernel, failures_kernel_s = _best_of(
        lambda: kernel.failures_indexed(loc_idx, draw_idx)
    )
    weights_batched, weights_batched_s = _best_of(
        lambda: batched.residual_weights_indexed(
            loc_idx, draw_idx, x_reducer, z_reducer
        )
    )
    weights_kernel, weights_kernel_s = _best_of(
        lambda: kernel.residual_weights_indexed(
            loc_idx, draw_idx, x_reducer, z_reducer
        )
    )

    failures_identical = bool(np.array_equal(verdicts_batched, verdicts_kernel))
    weights_identical = bool(
        np.array_equal(weights_batched[0], weights_kernel[0])
        and np.array_equal(weights_batched[1], weights_kernel[1])
    )
    return {
        "code": code_key,
        "locations": len(batched.locations),
        "shots": shots,
        "stratum_k": k,
        "failures_batched_seconds": round(failures_batched_s, 5),
        "failures_kernel_seconds": round(failures_kernel_s, 5),
        "failures_speedup": round(failures_batched_s / failures_kernel_s, 2),
        "weights_batched_seconds": round(weights_batched_s, 5),
        "weights_kernel_seconds": round(weights_kernel_s, 5),
        "weights_speedup": round(weights_batched_s / weights_kernel_s, 2),
        "failures_identical": failures_identical,
        "weights_identical": weights_identical,
        "failure_rate": round(float(verdicts_batched.mean()), 6),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--codes", nargs="+", default=DEFAULT_CODES)
    parser.add_argument("--shots", type=int, default=20_000)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help=(
            "sampler-smoke speedup floor, enforced only when numba is "
            "importable (the pure-NumPy twins are a fallback, not a win)"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_kernels.json",
    )
    args = parser.parse_args()

    results = [
        bench_code(code_key, args.shots, args.k, args.seed)
        for code_key in args.codes
    ]
    best = max(result["failures_speedup"] for result in results)
    identical = all(
        result["failures_identical"] and result["weights_identical"]
        for result in results
    )
    gate_enabled = kernels.available()
    record = {
        "benchmark": "kernels",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "kernel_backend": kernels.backend_name(),
        "numba_available": gate_enabled,
        "speedup_floor": args.min_speedup if gate_enabled else None,
        "kernel_speedup": best,
        "identical": identical,
        "results": results,
    }

    print(json.dumps(record, indent=2))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not identical:
        print("FAIL: kernel tier diverged from the batched engine")
        return 1
    if gate_enabled and best < args.min_speedup:
        print(
            f"FAIL: numba kernels reached only {best}x "
            f"(floor {args.min_speedup}x)"
        )
        return 1
    print(
        f"OK: kernel tier ({record['kernel_backend']}) bit-identical on "
        f"{len(results)} codes, best sampler speedup {best}x"
        + ("" if gate_enabled else " (numba absent: speedup floor disabled)")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
