"""Tests for |+...+>_L preparation via duality."""

import numpy as np
import pytest

from repro.codes.catalog import get_code, steane_code
from repro.core.ftcheck import check_fault_tolerance
from repro.sim.frame import ProtocolRunner
from repro.synth.plus import (
    PlusStateJudge,
    plus_state_stabilizers,
    synthesize_plus_protocol,
)


class TestDualCode:
    def test_dual_swaps_matrices(self):
        code = get_code("shor")
        dual = code.dual()
        assert (dual.hx == code.hz).all()
        assert (dual.hz == code.hx).all()

    def test_dual_parameters_swap_distances(self):
        code = get_code("shor")
        dual = code.dual()
        assert dual.n == code.n
        assert dual.k == code.k
        assert dual.x_distance() == code.z_distance()
        assert dual.z_distance() == code.x_distance()

    def test_dual_involution(self):
        code = get_code("surface_3")
        double = code.dual().dual()
        assert (double.hx == code.hx).all()
        assert (double.hz == code.hz).all()

    def test_self_dual_codes(self):
        for key in ("steane", "hamming", "tesseract"):
            assert get_code(key).is_self_dual()

    def test_non_self_dual(self):
        assert not get_code("shor").is_self_dual()

    def test_dual_validates(self):
        for key in ("steane", "shor", "carbon"):
            get_code(key).dual().validate()


class TestPlusProtocol:
    @pytest.mark.parametrize("key", ["steane", "shor", "surface_3"])
    def test_plus_protocol_fault_tolerant(self, key):
        protocol = synthesize_plus_protocol(get_code(key))
        assert check_fault_tolerance(protocol) == []

    def test_self_dual_code_same_cost_as_zero(self):
        """For a self-dual code the plus protocol costs the same as the
        zero protocol (transversal-H symmetry)."""
        from repro.core.metrics import protocol_metrics
        from repro.core.protocol import synthesize_protocol

        code = steane_code()
        zero = protocol_metrics(synthesize_protocol(code))
        plus = protocol_metrics(synthesize_plus_protocol(code))
        assert (
            zero.total_verification_ancillas
            == plus.total_verification_ancillas
        )
        assert zero.total_verification_cnots == plus.total_verification_cnots

    def test_plus_protocol_targets_dual(self):
        protocol = synthesize_plus_protocol(get_code("shor"))
        assert protocol.code.name.endswith("~dual")


class TestPlusJudge:
    def test_clean_run_not_failure(self):
        code = steane_code()
        protocol = synthesize_plus_protocol(code)
        judge = PlusStateJudge(code)
        result = ProtocolRunner(protocol).run()
        assert not judge.is_logical_failure(result)

    def test_single_faults_never_fail(self):
        from repro.core.ftcheck import enumerate_checkable_injections

        code = steane_code()
        protocol = synthesize_plus_protocol(code)
        runner = ProtocolRunner(protocol)
        judge = PlusStateJudge(code)
        for location, injection in enumerate_checkable_injections(protocol):
            assert not judge.is_logical_failure(runner.run({location: injection}))

    def test_logical_error_scaling(self):
        """Plus-state protocol also shows O(p^2) logical scaling."""
        from repro.sim.subset import SubsetSampler

        code = steane_code()
        protocol = synthesize_plus_protocol(code)
        sampler = SubsetSampler.for_protocol(
            protocol,
            judge=PlusStateJudge(code),
            k_max=2,
            rng=np.random.default_rng(5),
        )
        sampler.enumerate_k1_exact()
        assert sampler.strata[1].rate == 0.0

    def test_batched_engine_matches_per_shot_judge(self):
        """The batched engine's vectorized verdicts equal the per-shot ones."""
        from repro.sim.noise import sample_injections_stratum
        from repro.sim.sampler import make_sampler

        code = steane_code()
        protocol = synthesize_plus_protocol(code)
        judge = PlusStateJudge(code)
        batched = make_sampler(protocol, judge=judge)
        reference = make_sampler(protocol, engine="reference", judge=judge)
        loc_idx, draw_idx = sample_injections_stratum(
            batched.locations, 2, 300, np.random.default_rng(0)
        )
        verdicts = batched.failures_indexed(loc_idx, draw_idx)
        assert verdicts.any()
        assert np.array_equal(
            verdicts, reference.failures_indexed(loc_idx, draw_idx)
        )


class TestPlusStabilizers:
    def test_stabilizer_count(self):
        code = steane_code()
        stabs = plus_state_stabilizers(code)
        assert stabs.shape[0] == code.hx.shape[0] + code.k

    def test_contains_logical_x(self):
        from repro.pauli.symplectic import row_space_contains

        code = steane_code()
        stabs = plus_state_stabilizers(code)
        for row in code.logical_x:
            assert row_space_contains(stabs, row)
