"""Pins of the engines' Fig. 4 tallies: exact counts on fixed inputs.

Each of the eight perfbench fixture protocols runs through ``run_series``
at 4000 shots and a fixed seed, and the pins hold every stratum's
``(trials, failures)`` plus the direct-check tally. A change that only
speeds up the engines (grouping, segment application, judging) leaves
them untouched; a deliberate change to the draw stream or the estimator
re-pins them in the same commit, from the dict this file prints::

    PYTHONPATH=src python tests/sim/test_engine_pins.py --record
"""

import sys
from pathlib import Path

import pytest

from repro.core.serialize import protocol_from_json
from repro.experiments.figure4 import run_series
from repro.sim.subset import SubsetSampler

PROTOCOLS = Path(__file__).parents[2] / "perfbench" / "fixtures" / "protocols"

SEEDS = {
    "11_1_3": 11,
    "16_2_4": 16,
    "carbon": 12,
    "hamming": 15,
    "shor": 9,
    "steane": 7,
    "surface_3": 13,
    "tetrahedral": 17,
}

# k = 1 is the exact enumeration: its trials field is the 10**9 sentinel.
PINS = {
    "11_1_3": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (500, 17), 3: (3500, 333)},
               "direct": (4000, 335)},
    "16_2_4": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (500, 28), 3: (3500, 449)},
               "direct": (4000, 1688)},
    "carbon": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (500, 46), 3: (3500, 547)},
               "direct": (4000, 1825)},
    "hamming": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (500, 119), 3: (3500, 1521)},
                "direct": (4000, 1931)},
    "shor": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (2000, 487), 3: (2000, 735)},
             "direct": (4000, 541)},
    "steane": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (1500, 234), 3: (2500, 695)},
               "direct": (4000, 313)},
    "surface_3": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (1500, 184), 3: (2500, 564)},
                  "direct": (4000, 334)},
    "tetrahedral": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (500, 9), 3: (3500, 150)},
                    "direct": (4000, 333)},
}


def series_tally(code: str, engine: str) -> dict:
    """``{"strata": {k: (trials, failures)}, "direct": (trials, failures)}``."""
    protocol = protocol_from_json((PROTOCOLS / f"{code}.json").read_text())
    strata = {}
    curve = SubsetSampler.curve

    def recording_curve(sampler, sweep):
        strata.update(
            {k: (s.trials, s.failures) for k, s in sorted(sampler.strata.items())}
        )
        return curve(sampler, sweep)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SubsetSampler, "curve", recording_curve)
        series = run_series(
            code,
            protocol=protocol,
            shots=4000,
            seed=SEEDS[code],
            engine=engine,
            workers=1,
            ledger=False,
            direct_check_at=0.05,
        )
    return {"strata": strata, "direct": (series.direct.trials, series.direct.failures)}


@pytest.mark.parametrize("engine", ["batched"])
@pytest.mark.parametrize("code", sorted(PINS))
def test_series_tally_pinned(code, engine):
    assert series_tally(code, engine) == PINS[code]


def format_pins(pins: dict) -> str:
    """``pins`` as the ``PINS = {...}`` source block above."""
    lines = ["PINS = {"]
    for code, pin in pins.items():
        strata = ", ".join(
            f"{k}: ({'10**9' if trials == 10**9 else trials}, {failures})"
            for k, (trials, failures) in pin["strata"].items()
        )
        lines.append(f'    "{code}": {{"strata": {{{strata}}},')
        lines.append(" " * (len(code) + 9) + f'"direct": {pin["direct"]}}},')
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: python {sys.argv[0]} --record")
    print(format_pins({code: series_tally(code, "batched") for code in sorted(SEEDS)}))
