"""Unit tests for the E1_1 noise model and injection samplers."""

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from repro.core.serialize import protocol_from_json
from repro.sim.frame import Injection, protocol_locations
from repro.sim.noise import (
    E1_1,
    draw_counts,
    fault_draws,
    sample_injections,
    sample_injections_stratum,
)

from ..conftest import cached_protocol

FIXTURES = Path(__file__).parents[2] / "perfbench" / "fixtures" / "protocols"


def locations_of(protocol):
    return protocol_locations(protocol)


class TestFaultDraws:
    def test_1q_draws(self):
        draws = fault_draws("1q", (3,))
        assert len(draws) == 3
        letters = {d.paulis[0][1] for d in draws}
        assert letters == {"X", "Y", "Z"}

    def test_2q_draws(self):
        draws = fault_draws("2q", (0, 1))
        assert len(draws) == 15
        # II must be absent; all draws non-empty.
        assert all(d.paulis for d in draws)

    def test_2q_single_sided_draws_present(self):
        draws = fault_draws("2q", (0, 1))
        sides = {tuple(sorted(w for w, _ in d.paulis)) for d in draws}
        assert (0,) in sides and (1,) in sides and (0, 1) in sides

    def test_reset_draws(self):
        assert fault_draws("reset_z", (2,)) == [
            Injection(paulis=((2, "X"),))
        ]
        assert fault_draws("reset_x", (2,)) == [
            Injection(paulis=((2, "Z"),))
        ]

    def test_meas_draw(self):
        assert fault_draws("meas", (1,)) == [Injection(flip=True)]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fault_draws("3q", (0, 1, 2))


class TestSampling:
    def test_zero_rate_no_injections(self, steane_protocol):
        locations = locations_of(steane_protocol)
        injections = sample_injections(
            locations, 0.0, np.random.default_rng(0)
        )
        assert injections == {}

    def test_unit_rate_all_locations(self, steane_protocol):
        locations = locations_of(steane_protocol)
        injections = sample_injections(
            locations, 1.0, np.random.default_rng(0)
        )
        assert len(injections) == len(locations)

    def test_expected_count(self, steane_protocol):
        locations = locations_of(steane_protocol)
        rng = np.random.default_rng(1)
        p = 0.2
        counts = [
            len(sample_injections(locations, p, rng)) for _ in range(500)
        ]
        mean = np.mean(counts)
        assert abs(mean - p * len(locations)) < 0.5

    def test_keys_are_location_keys(self, steane_protocol):
        locations = locations_of(steane_protocol)
        injections = sample_injections(
            locations, 0.5, np.random.default_rng(2)
        )
        valid = {key for key, _, _ in locations}
        assert set(injections) <= valid


class TestModel:
    def test_uniform_probability(self):
        model = E1_1(p=0.01)
        for kind in ("1q", "2q", "reset_z", "meas"):
            assert model.probability(kind) == 0.01

    def test_frozen(self):
        model = E1_1(p=0.1)
        with pytest.raises(Exception):
            model.p = 0.2

    def test_rate_must_be_a_real_in_the_unit_interval(self):
        for p in (0, 0.0, 1, 1.0, np.float64(0.25)):
            assert E1_1(p=p).p == p
        for p in (2.0, -0.1, float("nan"), True, "x", None):
            with pytest.raises(ValueError, match="E1_1 rate p"):
                E1_1(p=p)
        with pytest.raises(ValueError, match="E1_1 rate p"):
            E1_1(p=0.1).with_p(1.5)


class TestStratumDraw:
    """The Floyd k-subset draw of ``sample_injections_stratum``."""

    def test_subsets_are_uniform(self, steane_protocol):
        """Seeded chi-square over all C(6, 3) = 20 subsets of 6 locations;
        43.8 is the 0.999 quantile of chi-square with 19 degrees of freedom."""
        locations = locations_of(steane_protocol)[:6]
        shots = 200_000
        loc_idx, _ = sample_injections_stratum(
            locations, 3, shots, np.random.default_rng(0)
        )
        subsets = {s: i for i, s in enumerate(combinations(range(6), 3))}
        observed = np.bincount(
            [subsets[tuple(row)] for row in np.sort(loc_idx, axis=1).tolist()],
            minlength=len(subsets),
        )
        expected = shots / len(subsets)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 43.8

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "fixture", sorted(path.stem for path in FIXTURES.glob("*.json"))
    )
    def test_rows_hold_distinct_locations(self, fixture, k):
        protocol = protocol_from_json((FIXTURES / f"{fixture}.json").read_text())
        locations = protocol_locations(protocol)
        loc_idx, draw_idx = sample_injections_stratum(
            locations, k, 2000, np.random.default_rng(k)
        )
        assert loc_idx.shape == draw_idx.shape == (2000, k)
        ordered = np.sort(loc_idx, axis=1)
        assert (np.diff(ordered, axis=1) > 0).all()
        assert ordered[:, 0].min() >= 0 and ordered[:, -1].max() < len(locations)
        counts = draw_counts(locations)
        assert ((draw_idx >= 0) & (draw_idx < counts[loc_idx])).all()

    def test_all_locations_is_a_permutation(self, steane_protocol):
        locations = locations_of(steane_protocol)[:5]
        loc_idx, _ = sample_injections_stratum(
            locations, 5, 300, np.random.default_rng(1)
        )
        assert (np.sort(loc_idx, axis=1) == np.arange(5)).all()

    def test_zero_faults(self, steane_protocol):
        loc_idx, draw_idx = sample_injections_stratum(
            locations_of(steane_protocol), 0, 40, np.random.default_rng(1)
        )
        assert loc_idx.shape == draw_idx.shape == (40, 0)

    def test_more_faults_than_locations(self, steane_protocol):
        locations = locations_of(steane_protocol)[:3]
        with pytest.raises(ValueError):
            sample_injections_stratum(locations, 4, 10, np.random.default_rng(1))
