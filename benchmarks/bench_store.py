"""Benchmark: artifact-store cold vs warm pipeline startup (repro.store).

The ISSUE-6 acceptance workload: synthesize + compile the *largest*
catalog code ([[16,6,4]] tesseract — about 0.6 s of synthesis
cold) against a fresh store root, then repeat the identical calls warm.
The warm pass must load the stored protocol JSON instead of re-running
the SAT search, and must finish under the ``--warm-ceiling`` wall-clock
bound (2 s by default). Compiled engines are not cached, so
``compile_seconds_warm`` is a fresh compile of the store-served
protocol. The protocol JSON is asserted byte-identical between the two
passes: the store must never change a result, only its latency.

Record fields follow the other ``BENCH_*.json`` datapoints so
``scripts/bench_delta.py`` and ``scripts/bench_trend.py`` pick the
``*_seconds`` / ``*_speedup`` metrics up automatically.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_store [--code tesseract]
        [--store PATH] [--warm-ceiling 2.0] [--out BENCH_store.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path


def _timed_pipeline(code_key: str) -> tuple[object, object, float, float]:
    """One synthesize + compile pass against the ambient store.

    Returns ``(protocol, engine, synthesis_seconds, compile_seconds)``.
    Imports stay inside so the cold pass pays no hidden warm-up from
    module state created by an earlier pass.
    """
    from repro.codes.catalog import get_code
    from repro.core.protocol import synthesize_protocol
    from repro.sim.sampler import make_sampler

    start = time.perf_counter()
    protocol = synthesize_protocol(get_code(code_key))
    synthesis_seconds = time.perf_counter() - start
    start = time.perf_counter()
    engine = make_sampler(protocol)
    compile_seconds = time.perf_counter() - start
    return protocol, engine, synthesis_seconds, compile_seconds


def run_recorder(code_key: str, store_root: Path) -> dict:
    from repro.core.serialize import protocol_to_json
    from repro.store import ArtifactStore

    os.environ["REPRO_STORE"] = str(store_root)

    cold_protocol, _, synth_cold, compile_cold = _timed_pipeline(code_key)
    warm_protocol, _, synth_warm, compile_warm = _timed_pipeline(code_key)

    bit_identical = protocol_to_json(cold_protocol) == protocol_to_json(
        warm_protocol
    )

    store = ArtifactStore(store_root)
    entries = list(store.entries())
    integrity = store.verify()

    cold_seconds = synth_cold + compile_cold
    warm_seconds = synth_warm + compile_warm
    return {
        "benchmark": "store_smoke",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "code": code_key,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "store_speedup": round(cold_seconds / warm_seconds, 1),
        "synthesis_seconds_cold": round(synth_cold, 4),
        "synthesis_seconds_warm": round(synth_warm, 4),
        "compile_seconds_cold": round(compile_cold, 4),
        "compile_seconds_warm": round(compile_warm, 4),
        "store_entries": len(entries),
        "store_bytes": sum(entry.size for entry in entries),
        "store_integrity_ok": not integrity["quarantined"],
        "protocol_bit_identical": bit_identical,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--code", default="tesseract")
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "store root for the run (default: a fresh temporary "
            "directory, so the cold pass is genuinely cold)"
        ),
    )
    parser.add_argument(
        "--warm-ceiling",
        type=float,
        default=2.0,
        help=(
            "maximum allowed warm-pass wall-clock in seconds "
            "(0 disables the gate; correctness gates always apply)"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_store.json",
    )
    args = parser.parse_args()

    store_root = args.store or Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    record = run_recorder(args.code, store_root)
    print(json.dumps(record, indent=2))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not record["protocol_bit_identical"]:
        print("FAIL: warm protocol JSON differs from the cold synthesis")
        return 1
    if not record["store_integrity_ok"]:
        print("FAIL: store verify quarantined entries after a clean run")
        return 1
    if args.warm_ceiling and record["warm_seconds"] > args.warm_ceiling:
        print(
            f"FAIL: warm pass took {record['warm_seconds']}s "
            f"(> {args.warm_ceiling}s ceiling; cold was "
            f"{record['cold_seconds']}s)"
        )
        return 1
    print(
        f"OK: cold {record['cold_seconds']}s -> warm "
        f"{record['warm_seconds']}s ({record['store_speedup']}x), "
        "results identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
