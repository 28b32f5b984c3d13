"""Cross-validation of the batched certificate/budget paths.

The acceptance contract of the evaluation-substrate refactor: the batched
``check_fault_tolerance``, ``second_order_survey`` (seeded), and
``two_fault_error_budget`` must agree *exactly* — verdicts, violation
lists, f2 mass per segment/kind pair — with the per-shot reference path on
every catalog code, and the MWPM decoder must be a drop-in judge for the
batched engine on matchable codes.
"""

import copy

import numpy as np
import pytest

from repro.core.analysis import two_fault_error_budget
from repro.core.ftcheck import check_fault_tolerance, second_order_survey
from repro.sim.logical import LogicalJudge
from repro.sim.matching import is_matchable
from repro.sim.noise import sample_injections_stratum
from repro.sim.sampler import BatchedSampler

from ..conftest import ALL_CODES, FAST_CODES, cached_protocol

SLOW_CODES = [key for key in ALL_CODES if key not in FAST_CODES]


class TestFTCheckCrossValidation:
    @pytest.mark.parametrize("key", FAST_CODES)
    def test_engines_agree_fast_codes(self, key):
        protocol = cached_protocol(key)
        batched = check_fault_tolerance(protocol, engine="batched")
        reference = check_fault_tolerance(protocol, engine="reference")
        assert batched == reference == []

    @pytest.mark.slow
    @pytest.mark.parametrize("key", SLOW_CODES)
    def test_engines_agree_large_codes(self, key):
        protocol = cached_protocol(key)
        batched = check_fault_tolerance(protocol, engine="batched")
        reference = check_fault_tolerance(protocol, engine="reference")
        assert batched == reference == []

    def test_engines_agree_on_violations(self, steane_protocol):
        """A sabotaged protocol must yield identical violation lists —
        same faults, same weights, same flip evidence, same order."""
        protocol = copy.deepcopy(steane_protocol)
        protocol.layers[0].branches.clear()
        batched = check_fault_tolerance(protocol, engine="batched")
        reference = check_fault_tolerance(protocol, engine="reference")
        assert batched  # the sabotage is detected
        assert batched == reference

    def test_max_violations_cap_respected_by_batched_path(
        self, steane_protocol
    ):
        protocol = copy.deepcopy(steane_protocol)
        protocol.layers[0].branches.clear()
        capped = check_fault_tolerance(protocol, max_violations=3)
        assert len(capped) == 3
        full = check_fault_tolerance(protocol, max_violations=10**9)
        assert capped == full[:3]


class TestSurveyCrossValidation:
    @pytest.mark.parametrize("key", ["steane", "shor", "surface_3"])
    def test_seeded_surveys_identical(self, key):
        protocol = cached_protocol(key)
        batched = second_order_survey(
            protocol, samples=600, rng=np.random.default_rng(11)
        )
        reference = second_order_survey(
            protocol,
            samples=600,
            rng=np.random.default_rng(11),
            engine="reference",
        )
        assert batched == reference


class TestBudgetCrossValidation:
    @pytest.mark.parametrize("key", ["steane", "surface_3"])
    def test_budgets_bit_identical(self, key):
        protocol = cached_protocol(key)
        batched = two_fault_error_budget(protocol, engine="batched")
        reference = two_fault_error_budget(protocol, engine="reference")
        assert batched.f2_exact == reference.f2_exact
        assert batched.c2_exact == reference.c2_exact
        assert batched.by_segment_pair == reference.by_segment_pair
        assert batched.by_kind_pair == reference.by_kind_pair

    @pytest.mark.slow
    @pytest.mark.parametrize("key", SLOW_CODES + ["shor", "11_1_3", "carbon"])
    def test_budgets_bit_identical_all_codes(self, key):
        """Every catalog code: either both engines produce the identical
        budget, or both refuse identically at the enumeration guard.

        The guard is tightened so that the largest enumerations (carbon's
        ~1M runs and up) stay out of the per-shot path's reach — the
        refusal itself must still match across engines.
        """
        protocol = cached_protocol(key)
        max_runs = 150_000
        try:
            batched = two_fault_error_budget(
                protocol, engine="batched", max_runs=max_runs
            )
        except ValueError:
            with pytest.raises(ValueError, match="two-fault budget needs"):
                two_fault_error_budget(
                    protocol, engine="reference", max_runs=max_runs
                )
            return
        reference = two_fault_error_budget(
            protocol, engine="reference", max_runs=max_runs
        )
        assert batched == reference

    def test_batch_slab_size_does_not_change_result(self, steane_protocol):
        small = two_fault_error_budget(steane_protocol, max_slab=257)
        large = two_fault_error_budget(steane_protocol, max_slab=100_000)
        assert small == large


class TestMatchingJudgeBatch:
    @pytest.mark.parametrize("key", ["shor", "surface_3"])
    def test_matching_judge_matches_lookup_in_batch(self, key):
        """MWPM-backed judging through the batched engine must reproduce
        the lookup-table verdicts on the matchable codes."""
        protocol = cached_protocol(key)
        code = protocol.code
        assert is_matchable(code.hz)
        lookup_engine = BatchedSampler(protocol)
        matching_engine = BatchedSampler(
            protocol, judge=LogicalJudge.with_matching(code)
        )
        rng = np.random.default_rng(53)
        loc_idx, draw_idx = sample_injections_stratum(
            lookup_engine.locations, 2, 500, rng
        )
        assert np.array_equal(
            matching_engine.failures_indexed(loc_idx, draw_idx),
            lookup_engine.failures_indexed(loc_idx, draw_idx),
        )

    def test_matching_judge_per_shot_consistency(self):
        """Batch mask and per-shot is_logical_failure agree for MWPM."""
        protocol = cached_protocol("surface_3")
        judge = LogicalJudge.with_matching(protocol.code)
        engine = BatchedSampler(protocol, judge=judge)
        rng = np.random.default_rng(59)
        loc_idx, draw_idx = sample_injections_stratum(
            engine.locations, 2, 200, rng
        )
        batch = engine.run_indexed(loc_idx, draw_idx)
        expected = np.array(
            [judge.is_logical_failure(batch.result(s)) for s in range(200)]
        )
        assert np.array_equal(judge.failure_mask(batch.x_words, 200), expected)
