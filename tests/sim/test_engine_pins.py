"""Pins of the engines' Fig. 4 tallies: exact counts on fixed inputs.

Each of the eight perfbench fixture protocols runs through ``run_series``
at 4000 shots and a fixed seed, and the pins hold every stratum's
``(trials, failures)`` plus the direct-check tally. Two codes are also
pinned at 40,000 shots, where DSS re-allocates in ``shots // 32``-shot
rounds instead of 500-shot ones. ``MODEL_PINS`` holds the same tallies for
steane and surface_3 under a biased, a rate-map and a correlated model;
``FLOAT_PINS`` holds the bits of steane's E1_1 estimator floats (exact
masses, row weights, curve, two-fault budget), which ``None``, ``E1_1``
and a unit ``ScaledNoiseModel`` must all reproduce. A change that only
speeds up the engines (grouping, segment application, judging) leaves
them untouched; a deliberate change to the draw stream or the estimator
re-pins them in the same commit, from the dict this file prints::

    PYTHONPATH=src python tests/sim/test_engine_pins.py --record
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.analysis import two_fault_error_budget
from repro.core.serialize import protocol_from_json
from repro.experiments.figure4 import run_series
from repro.sim.frame import protocol_locations
from repro.sim.noise import E1_1, ScaledNoiseModel
from repro.sim.noisemodels import parse_noise_spec
from repro.sim.shard import StratumPlanner
from repro.sim.subset import SubsetSampler, wilson_interval

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


# DSS rounds of 40_000 // 32 = 1250 shots; the direct check stays at 4000.
PINS_40K = {
    "carbon": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (1250, 94), 3: (38750, 6223)},
               "direct": (4000, 1825)},
    "steane": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (16250, 2518), 3: (23750, 6391)},
               "direct": (4000, 313)},
}


#: The non-uniform models of ``MODEL_PINS``: weighted draws, a rate map,
#: and correlated pair sites.
MODELS = {
    "biased": "biased:p=0.01,eta=100",
    "inhom": "inhom:p=0.01,2q=0.02,meas=0.005,loc3=0.03",
    "correlated": "correlated:p=0.01,pair_rate=0.005,pairs=adjacent",
}

MODEL_PINS = {
    "steane biased": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (3500, 117), 3: (500, 37)},
                      "direct": (4000, 82)},
    "steane correlated": {"strata": {0: (1, 0), 1: (10**9, 13071329), 2: (3500, 599), 3: (500, 143)},
                          "direct": (4000, 463)},
    "steane inhom": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (3500, 549), 3: (500, 134)},
                     "direct": (4000, 604)},
    "surface_3 biased": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (3500, 92), 3: (500, 30)},
                         "direct": (4000, 116)},
    "surface_3 correlated": {"strata": {0: (1, 0), 1: (10**9, 4103760), 2: (3500, 413), 3: (500, 93)},
                             "direct": (4000, 413)},
    "surface_3 inhom": {"strata": {0: (1, 0), 1: (10**9, 0), 2: (3500, 472), 3: (500, 106)},
                        "direct": (4000, 634)},
}

#: Three spellings of the uniform model; each must give ``FLOAT_PINS``.
UNIFORM_MODELS = {
    "none": None,
    "e1_1": E1_1(p=0.01),
    "scaled": ScaledNoiseModel(p=0.01),
}

FLOAT_SWEEP = [1e-3, 1e-2, 1e-1]

FLOAT_PINS = {
    "f1": "0x0.0p+0",
    "f2_sampler": "0x1.36f7f071c0f2ap-3",
    "rows": "f43bcea0ae4c8e20",
    "curve": (
        ("0x1.e968a6fa76b1dp-15", "0x1.b2f0176552270p-15", "0x1.12bf85f515598p-14", "0x1.5911820000000p-26"),
        ("0x1.58028725ab67fp-8", "0x1.33c990ef38770p-8", "0x1.8ac5e23e062e2p-8", "0x1.625ff5e2e9000p-13"),
        ("0x1.a7db5d8be2044p-4", "0x1.85c9f353f75c5p-4", "0x1.abd953827b7a2p-2", "0x1.38c39c6d44682p-2"),
    ),
    "f2": "0x1.36f7f071c0f28p-3",
    "c2": "0x1.cb2a1907f6e61p+5",
}


def load_protocol(code: str):
    return protocol_from_json((PROTOCOLS / f"{code}.json").read_text())


def series_tally(code: str, engine: str, shots: int = 4000, model=None) -> dict:
    """``{"strata": {k: (trials, failures)}, "direct": (trials, failures)}``."""
    protocol = load_protocol(code)
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
            shots=shots,
            seed=SEEDS[code],
            engine=engine,
            workers=1,
            ledger=False,
            direct_check_at=0.05,
            model=model,
        )
    return {"strata": strata, "direct": (series.direct.trials, series.direct.failures)}


@pytest.mark.parametrize("engine", ["batched"])
@pytest.mark.parametrize("code", sorted(PINS))
def test_series_tally_pinned(code, engine):
    assert series_tally(code, engine) == PINS[code]


@pytest.mark.parametrize("code", sorted(PINS_40K))
def test_40k_series_tally_pinned(code):
    assert series_tally(code, "batched", shots=40_000) == PINS_40K[code]


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("code", ["steane", "surface_3"])
def test_model_series_tally_pinned(code, model):
    tally = series_tally(code, "batched", model=parse_noise_spec(MODELS[model]))
    assert tally == MODEL_PINS[f"{code} {model}"]


def float_pins(model) -> dict:
    """``float.hex`` of steane's exact k = 1 and k = 2 masses, its curve
    over ``FLOAT_SWEEP`` (mean, lower, upper, tail per point) and its
    two-fault budget's ``f2_exact``/``c2_exact`` under ``model``, plus a
    digest of every exact k = 1 row weight (the k = 1 mass of an FT
    protocol is 0, which would pin no weight)."""
    protocol = load_protocol("steane")
    masses = []
    exact = SubsetSampler._exact

    def recording_exact(sampler, k, mass):
        masses.append(mass)
        exact(sampler, k, mass)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SubsetSampler, "_exact", recording_exact)
        series = run_series(
            "steane",
            protocol=protocol,
            shots=4000,
            seed=SEEDS["steane"],
            sweep=FLOAT_SWEEP,
            ledger=False,
            model=model,
        )
        SubsetSampler.for_protocol(
            protocol, k_max=2, model=model, ledger=False
        ).enumerate_k2_exact()
    budget = two_fault_error_budget(protocol, model=model)
    planner = StratumPlanner(protocol_locations(protocol), model=model)
    weights = np.concatenate(
        [planner.materialize_rows_with_weights(c)[2] for c in planner.plan_rows()]
    )
    return {
        "f1": masses[0].hex(),
        "f2_sampler": masses[1].hex(),
        "rows": hashlib.sha256(weights.tobytes()).hexdigest()[:16],
        "curve": tuple(
            tuple(x.hex() for x in (e.mean, e.lower, e.upper, e.tail))
            for e in series.estimates
        ),
        "f2": budget.f2_exact.hex(),
        "c2": budget.c2_exact.hex(),
    }


@pytest.mark.parametrize("model", sorted(UNIFORM_MODELS))
def test_uniform_floats_pinned(model):
    assert float_pins(UNIFORM_MODELS[model]) == FLOAT_PINS


@pytest.mark.parametrize(
    "code, f2_exact", [("steane", 0.15184), ("surface_3", 0.11417)]
)
def test_40k_k2_interval_holds_the_exact_rate(code, f2_exact):
    """The sampled k = 2 Wilson interval of a 40,000-shot series contains
    the exact enumeration of the same stratum."""
    enumerated = SubsetSampler.for_protocol(load_protocol(code), ledger=False)
    enumerated.enumerate_k2_exact()
    assert enumerated.strata[2].rate == pytest.approx(f2_exact, abs=1e-5)
    trials, failures = series_tally(code, "batched", shots=40_000)["strata"][2]
    lower, upper = wilson_interval(failures, trials)
    assert lower <= enumerated.strata[2].rate <= upper


FAKE_LOCATIONS = [((("seg",), i), "meas", (0,)) for i in range(20)]

# Every ``(k, shots)`` stratum plan ``schedule(8000)`` issues, recorded
# with the constant 500-shot rounds of ``DRAW_REVISION`` 2.
SCHEDULE_8000 = [
    (1, 500), (2, 500), (3, 500), (2, 500), (1, 500), (2, 500), (1, 500),
    (3, 500), (2, 500), (1, 500), (2, 500), (1, 500), (3, 500), (2, 500),
    (1, 500), (2, 500),
]


def schedule(shots: int) -> list[tuple[int, int]]:
    """The ``(k, shots)`` stratum plans of ``sample(shots)`` on a k_max = 3
    sampler whose strata all fail at a rate near 1/3."""
    from ..reference import FakeEngine  # deferred: --record runs as a script

    sampler = SubsetSampler(
        FakeEngine(lambda inj: sum(key[1] for key in inj) % 3 == 1, FAKE_LOCATIONS),
        k_max=3,
        rng=np.random.default_rng(3),
        ledger=False,
    )
    plans = []
    sample_stratum = sampler.sample_stratum

    def recording(k, n):
        plans.append((k, n))
        return sample_stratum(k, n)

    sampler.sample_stratum = recording
    sampler.sample(shots)
    assert sampler.total_trials() == shots
    return plans


class TestAllocationRounds:
    def test_large_budget_takes_a_fixed_number_of_rounds(self):
        assert len(schedule(100_000)) <= 34

    def test_budget_up_to_16031_keeps_the_500_shot_rounds(self):
        assert schedule(8000) == SCHEDULE_8000


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
    print(
        format_pins(
            {code: series_tally(code, "batched", 40_000) for code in ("carbon", "steane")}
        ).replace("PINS = {", "PINS_40K = {")
    )
    print(
        format_pins(
            {
                f"{code} {model}": series_tally(
                    code, "batched", model=parse_noise_spec(MODELS[model])
                )
                for code in ("steane", "surface_3")
                for model in sorted(MODELS)
            }
        ).replace("PINS = {", "MODEL_PINS = {")
    )
    pins = float_pins(None)
    print("FLOAT_PINS = {")
    for name in ("f1", "f2_sampler", "rows"):
        print(f'    "{name}": "{pins[name]}",')
    print('    "curve": (')
    for point in pins["curve"]:
        print("        (" + ", ".join(f'"{x}"' for x in point) + "),")
    print("    ),")
    for name in ("f2", "c2"):
        print(f'    "{name}": "{pins[name]}",')
    print("}")
