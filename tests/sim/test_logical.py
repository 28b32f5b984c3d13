"""Unit tests for logical-failure determination."""

import numpy as np
import pytest

from repro.codes.catalog import steane_code
from repro.sim.frame import RunResult
from repro.sim.decoder import LookupDecoder
from repro.sim.logical import LogicalJudge

from ..conftest import cached_protocol
from ..reference import packed_planes


def result_with(data_x, n=7):
    return RunResult(
        data_x=np.asarray(data_x, dtype=np.uint8),
        data_z=np.zeros(n, dtype=np.uint8),
        flips={},
    )


class TestLogicalJudge:
    def setup_method(self):
        self.code = steane_code()
        self.judge = LogicalJudge(self.code)

    def test_clean_run_no_failure(self):
        assert not self.judge.is_logical_failure(result_with([0] * 7))

    def test_single_x_errors_never_fail(self):
        """Perfect EC corrects any weight-1 residual (d = 3)."""
        for q in range(7):
            error = [0] * 7
            error[q] = 1
            assert not self.judge.is_logical_failure(result_with(error))

    def test_logical_x_fails(self):
        assert self.judge.is_logical_failure(
            result_with(self.code.logical_x[0])
        )

    def test_stabilizer_never_fails(self):
        for row in self.code.hx:
            assert not self.judge.is_logical_failure(result_with(row))

    def test_z_residual_invisible(self):
        """Z errors cannot flip a Z-basis readout of a Z eigenstate."""
        result = RunResult(
            data_x=np.zeros(7, dtype=np.uint8),
            data_z=np.ones(7, dtype=np.uint8),
            flips={},
        )
        assert not self.judge.is_logical_failure(result)

    def test_some_weight_two_error_fails(self):
        failures = 0
        for q1 in range(7):
            for q2 in range(q1 + 1, 7):
                error = [0] * 7
                error[q1] = error[q2] = 1
                if self.judge.is_logical_failure(result_with(error)):
                    failures += 1
        assert failures > 0

    def test_logical_plus_stabilizer_still_fails(self):
        error = self.code.logical_x[0] ^ self.code.hx[0]
        assert self.judge.is_logical_failure(result_with(error))


class TestJudgeOnProtocols:
    @pytest.mark.parametrize("key", ["steane", "shor", "surface_3", "carbon"])
    def test_every_single_fault_judged_harmless(self, key):
        """End-to-end restatement of fault tolerance: protocol + perfect EC
        + destructive readout never fails under one fault."""
        from repro.core.ftcheck import enumerate_checkable_injections
        from repro.sim.frame import ProtocolRunner

        protocol = cached_protocol(key)
        runner = ProtocolRunner(protocol)
        judge = LogicalJudge(protocol.code)
        for location, injection in enumerate_checkable_injections(protocol):
            result = runner.run({location: injection})
            assert not judge.is_logical_failure(result), (
                f"single fault at {location} caused a logical failure"
            )


class TestFailureMaskMemo:
    """``failure_mask`` memoizes syndrome -> correction parity across calls."""

    @staticmethod
    def batches(n, count=6, shots=40, seed=5):
        rng = np.random.default_rng(seed)
        return [
            (rng.random((shots, n)) < 0.2).astype(np.uint8) for _ in range(count)
        ]

    @staticmethod
    def mask(judge, batch):
        return judge.failure_mask(packed_planes(batch), len(batch))

    @pytest.mark.parametrize("key", ["steane", "surface_3"])
    def test_any_call_order_matches_fresh_judge(self, key):
        code = cached_protocol(key).code
        batches = self.batches(code.n)
        expected = [self.mask(LogicalJudge(code), b) for b in batches]
        for order in (range(len(batches)), reversed(range(len(batches)))):
            judge = LogicalJudge(code)
            for i in order:
                assert np.array_equal(self.mask(judge, batches[i]), expected[i])
        # A memo warm from every batch still agrees with the per-shot path.
        for batch in batches:
            per_shot = [judge.is_logical_failure(result_with(row, code.n)) for row in batch]
            assert self.mask(judge, batch).tolist() == per_shot

    def test_wide_syndrome_ids(self):
        """A decoder with more than 16 checks gets 32- or 64-bit syndrome
        ids; verdicts match the same decoder behind its own checks."""
        code = cached_protocol("steane").code
        lookup = LookupDecoder(code.hz)

        class RepeatedChecks:
            def __init__(self, copies):
                self.checks = np.tile(code.hz, (copies, 1))

            def decode(self, syndrome):
                return lookup.decode(syndrome[: code.hz.shape[0]])

        batch = self.batches(code.n, count=1, shots=130, seed=11)[0]
        expected = self.mask(LogicalJudge(code), batch)
        assert expected.any()
        for copies in (6, 20):  # 18 and 60 checks
            judge = LogicalJudge(code, x_decoder=RepeatedChecks(copies))
            assert np.array_equal(self.mask(judge, batch), expected)

    def test_more_than_62_checks_rejected(self):
        class WideDecoder:
            checks = np.zeros((63, 7), dtype=np.uint8)

            def decode(self, syndrome):
                return np.zeros(7, dtype=np.uint8)

        with pytest.raises(ValueError, match="63 checks"):
            LogicalJudge(steane_code(), x_decoder=WideDecoder())
