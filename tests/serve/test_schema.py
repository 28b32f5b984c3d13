"""Request normalization of the ``repro serve`` wire schema."""

import math

import pytest

from repro.experiments.figure4 import FIGURE4_SWEEP
from repro.serve.schema import ServeRequestError, normalize_request

BAD_RATES = [1.5, -0.2, math.nan, math.inf, -math.inf]


class TestDefaults:
    def test_default_sweep_is_the_figure4_grid(self):
        norm = normalize_request("sweep", {"code": "steane"})
        assert norm["sweep"] == FIGURE4_SWEEP


class TestEngine:
    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_registry_names_accepted(self, engine):
        norm = normalize_request("sweep", {"code": "steane", "engine": engine})
        assert norm["engine"] == engine

    @pytest.mark.parametrize("engine", ["bogus", "kernel", "auto", "", 3, None])
    def test_other_names_refused(self, engine):
        with pytest.raises(ServeRequestError, match="unknown engine"):
            normalize_request("sweep", {"code": "steane", "engine": engine})


class TestRateBounds:
    """Out-of-range rates would make the estimator serve nonsense
    (e.g. a negative p_L), so they never get past normalization."""

    @pytest.mark.parametrize("value", BAD_RATES)
    def test_sweep_point(self, value):
        with pytest.raises(ServeRequestError, match="sweep point"):
            normalize_request("sweep", {"code": "steane", "sweep": [1e-3, value]})

    @pytest.mark.parametrize("value", BAD_RATES)
    def test_direct_p(self, value):
        with pytest.raises(ServeRequestError, match="p must"):
            normalize_request("direct", {"code": "steane", "p": value})

    @pytest.mark.parametrize("value", BAD_RATES)
    def test_direct_check_at(self, value):
        with pytest.raises(ServeRequestError, match="direct_check_at"):
            normalize_request(
                "sweep", {"code": "steane", "direct_check_at": value}
            )

    def test_closed_interval_accepted(self):
        norm = normalize_request(
            "sweep",
            {"code": "steane", "sweep": [1.0, 0.0], "direct_check_at": 1.0},
        )
        assert norm["sweep"] == [0.0, 1.0]
        assert norm["direct_check_at"] == 1.0
        assert normalize_request("direct", {"code": "steane", "p": 0})["p"] == 0.0
