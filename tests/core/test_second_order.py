"""Tests for the t = 2 fault-pair survey (paper's future-work metric)."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.ftcheck import second_order_survey
from repro.core.serialize import protocol_from_json

from ..conftest import cached_protocol

FIXTURES = Path(__file__).parents[2] / "perfbench" / "fixtures" / "protocols"

# (pairs_checked, violations) of the perfbench fixture protocols at
# samples=2000 and rng seed 0, identical on every engine and worker count.
SURVEY_PINS = {"steane": (1870, 0), "carbon": (1955, 143)}


class TestSecondOrderSurvey:
    def test_returns_counts(self, steane_protocol):
        survey = second_order_survey(
            steane_protocol, samples=300, rng=np.random.default_rng(0)
        )
        assert survey["pairs_checked"] > 0
        assert 0 <= survey["violations"] <= survey["pairs_checked"]
        assert 0.0 <= survey["violation_fraction"] <= 1.0

    def test_deterministic_given_rng(self, steane_protocol):
        a = second_order_survey(
            steane_protocol, samples=200, rng=np.random.default_rng(7)
        )
        b = second_order_survey(
            steane_protocol, samples=200, rng=np.random.default_rng(7)
        )
        assert a == b

    def test_t1_synthesis_not_t2_clean_in_general(self, shor_protocol):
        """A t=1 synthesis is not expected to satisfy t=2: for the Shor
        protocol ~9% of sampled fault pairs leave wt_S > 2 — the gap the
        paper's future-work section targets."""
        survey = second_order_survey(
            shor_protocol, samples=2000, rng=np.random.default_rng(1)
        )
        assert survey["violations"] > 0

    def test_steane_happens_to_be_t2_clean(self, steane_protocol):
        """Observed: no sampled Steane fault pair exceeds weight 2. (This
        does not contradict p_L ~ p^2 — weight-2 residuals already defeat
        a d=3 decoder.) Pinned as a regression observation."""
        survey = second_order_survey(
            steane_protocol, samples=2000, rng=np.random.default_rng(1)
        )
        assert survey["violations"] == 0

    def test_violation_fraction_small(self, steane_protocol):
        """Most pairs are still benign — the protocol degrades gracefully."""
        survey = second_order_survey(
            steane_protocol, samples=2000, rng=np.random.default_rng(2)
        )
        assert survey["violation_fraction"] < 0.5


class TestSurveyPins:
    @pytest.mark.parametrize("name", sorted(SURVEY_PINS))
    @pytest.mark.parametrize(
        "engine, workers", [("batched", 1), ("reference", 1), ("batched", 2)]
    )
    def test_pinned_counts(self, name, engine, workers):
        protocol = protocol_from_json((FIXTURES / f"{name}.json").read_text())
        survey = second_order_survey(
            protocol,
            samples=2000,
            rng=np.random.default_rng(0),
            engine=engine,
            workers=workers,
        )
        checked, violations = SURVEY_PINS[name]
        assert survey == {
            "pairs_checked": checked,
            "violations": violations,
            "violation_fraction": violations / checked,
        }
