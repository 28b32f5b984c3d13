"""Unit tests for the E1_1 noise model and injection samplers."""

import numpy as np
import pytest

from repro.sim.frame import Injection, protocol_locations
from repro.sim.noise import (
    E1_1,
    fault_draws,
    sample_injections,
)

from ..conftest import cached_protocol


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
