"""Pins of the engines' Fig. 4 tallies: exact counts on fixed inputs.

Each of the eight perfbench fixture protocols runs through ``run_series``
at 4000 shots and a fixed seed, and the pins hold every stratum's
``(trials, failures)`` plus the direct-check tally. A change that only
speeds up the engines (grouping, segment application, judging) leaves
them untouched; a deliberate change to the draw stream or the estimator
re-pins them in the same commit.
"""

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
    "11_1_3": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (500, 15), 3: (3500, 298)},
               "direct": (4000, 335)},
    "16_2_4": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (500, 28), 3: (3500, 431)},
               "direct": (4000, 1688)},
    "carbon": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (500, 30), 3: (3500, 556)},
               "direct": (4000, 1825)},
    "hamming": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (500, 119), 3: (3500, 1548)},
                "direct": (4000, 1931)},
    "shor": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (2000, 492), 3: (2000, 737)},
             "direct": (4000, 541)},
    "steane": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (1500, 197), 3: (2500, 693)},
               "direct": (4000, 313)},
    "surface_3": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (1500, 135), 3: (2500, 518)},
                  "direct": (4000, 334)},
    "tetrahedral": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (500, 11), 3: (3500, 191)},
                    "direct": (4000, 333)},
}


def series_tally(monkeypatch, code: str, engine: str) -> dict:
    """``{"strata": {k: (trials, failures)}, "direct": (trials, failures)}``."""
    protocol = protocol_from_json((PROTOCOLS / f"{code}.json").read_text())
    strata = {}
    curve = SubsetSampler.curve

    def recording_curve(sampler, sweep):
        strata.update(
            {k: (s.trials, s.failures) for k, s in sorted(sampler.strata.items())}
        )
        return curve(sampler, sweep)

    monkeypatch.setattr(SubsetSampler, "curve", recording_curve)
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


@pytest.mark.parametrize("engine", ["batched", "kernel"])
@pytest.mark.parametrize("code", sorted(PINS))
def test_series_tally_pinned(monkeypatch, code, engine):
    assert series_tally(monkeypatch, code, engine) == PINS[code]
