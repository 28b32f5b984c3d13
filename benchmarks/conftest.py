"""Shared benchmark fixtures.

Protocols are synthesized once per session and shared across benchmark
files. Set ``REPRO_BENCH_PROFILE=full`` to run the paper-scale
configuration (all codes incl. tesseract, 8000 subset-sampling shots);
the default ``fast`` profile keeps the whole benchmark suite at laptop
scale, as recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import os

import pytest

from repro.codes.catalog import get_code
from repro.core.protocol import synthesize_protocol

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "fast")
FULL = PROFILE == "full"

#: Codes simulated in the default profile (the full profile adds tesseract,
#: whose cold synthesis takes ~0.5 s).
BENCH_CODES = [
    "steane",
    "shor",
    "surface_3",
    "11_1_3",
    "tetrahedral",
    "hamming",
    "carbon",
    "16_2_4",
] + (["tesseract"] if FULL else [])

#: Subset-sampling shots per code (paper: 8000 at p_max = 0.1).
FIGURE4_SHOTS = 8000 if FULL else 2000

_CACHE: dict = {}


def bench_protocol(code_key: str, prep="heuristic", verification="optimal"):
    key = (code_key, prep, verification)
    if key not in _CACHE:
        _CACHE[key] = synthesize_protocol(
            get_code(code_key),
            prep_method=prep,
            verification_method=verification,
        )
    return _CACHE[key]


@pytest.fixture
def emit(request):
    """Print results to the real terminal, bypassing pytest capture."""
    capmanager = request.config.pluginmanager.getplugin("capturemanager")

    def _emit(text: str):
        if capmanager is not None:
            with capmanager.global_and_fixture_disabled():
                print(text, flush=True)
        else:
            print(text, flush=True)

    return _emit
