"""Unit tests for verification-circuit synthesis (SAT-optimal + greedy)."""

import numpy as np
import pytest

from repro.codes.catalog import get_code, steane_code
from repro.core.errors import dangerous_errors, detection_basis, error_reducer
from repro.synth.prep import prepare_zero_heuristic
from repro.synth.verification import (
    enumerate_optimal_verifications,
    synthesize_verification_greedy,
    synthesize_verification_optimal,
)


def detects_all(measurements, errors) -> bool:
    """Every error anticommutes with at least one measurement."""
    return all(
        any(int(m @ e) % 2 for m in measurements) for e in errors
    )


def steane_instance():
    code = steane_code()
    prep = prepare_zero_heuristic(code)
    errors = dangerous_errors(prep, "X")
    basis = detection_basis(code, "X")
    return code, errors, basis


class TestOptimal:
    def test_detects_all_dangerous_errors(self):
        _, errors, basis = steane_instance()
        result = synthesize_verification_optimal(basis, errors)
        assert detects_all(result.measurements, errors)

    def test_steane_needs_exactly_one_weight_3_measurement(self):
        """Paper Table I row 1: Steane verification is 1 ancilla, 3 CNOTs."""
        _, errors, basis = steane_instance()
        result = synthesize_verification_optimal(basis, errors)
        assert result.num_ancillas == 1
        assert result.total_weight == 3

    def test_measurements_lie_in_detection_span(self):
        from repro.pauli.symplectic import row_space_contains

        _, errors, basis = steane_instance()
        result = synthesize_verification_optimal(basis, errors)
        for m in result.measurements:
            assert row_space_contains(basis, m)

    def test_empty_error_set_returns_none(self):
        """No dangerous errors — no verification needed (documented API)."""
        _, _, basis = steane_instance()
        assert synthesize_verification_optimal(basis, []) is None

    def test_single_error(self):
        code = steane_code()
        basis = detection_basis(code, "X")
        error = np.zeros(7, dtype=np.uint8)
        error[[0, 1]] = 1  # dangerous weight-2 X error
        result = synthesize_verification_optimal(basis, [error])
        assert result.num_ancillas == 1
        assert detects_all(result.measurements, [error])

    def test_optimality_vs_greedy(self):
        # SAT-optimal is never worse than greedy on any catalog instance.
        for key in ("steane", "shor", "surface_3", "11_1_3"):
            code = get_code(key)
            prep = prepare_zero_heuristic(code)
            errors = dangerous_errors(prep, "X")
            if not errors:
                continue
            basis = detection_basis(code, "X")
            opt = synthesize_verification_optimal(basis, errors)
            greedy = synthesize_verification_greedy(basis, errors)
            assert opt.num_ancillas <= greedy.num_ancillas
            if opt.num_ancillas == greedy.num_ancillas:
                assert opt.total_weight <= greedy.total_weight


class TestGreedy:
    def test_detects_all(self):
        _, errors, basis = steane_instance()
        result = synthesize_verification_greedy(basis, errors)
        assert detects_all(result.measurements, errors)

    def test_method_tag(self):
        _, errors, basis = steane_instance()
        assert synthesize_verification_greedy(basis, errors).method == "greedy"


class TestDedupe:
    def test_coset_duplicates_removed(self):
        code = steane_code()
        reducer = error_reducer(code, "X")
        e = np.zeros(7, dtype=np.uint8)
        e[[0, 1]] = 1
        shifted = e ^ code.hx[0]
        unique = reducer.dedupe([e, shifted, e.copy()])
        assert len(unique) == 1

    def test_distinct_cosets_kept(self):
        code = steane_code()
        reducer = error_reducer(code, "X")
        e1 = np.zeros(7, dtype=np.uint8)
        e1[[0, 1]] = 1
        e2 = np.zeros(7, dtype=np.uint8)
        e2[[0, 3]] = 1
        assert len(reducer.dedupe([e1, e2])) == 2


class TestEnumeration:
    def test_all_solutions_are_optimal_and_distinct(self):
        _, errors, basis = steane_instance()
        best = synthesize_verification_optimal(basis, errors)
        solutions = enumerate_optimal_verifications(basis, errors, limit=64)
        assert len(solutions) >= 1
        keys = set()
        for sol in solutions:
            assert sol.num_ancillas == best.num_ancillas
            assert sol.total_weight == best.total_weight
            assert detects_all(sol.measurements, errors)
            keys.add(tuple(sorted(m.tobytes() for m in sol.measurements)))
        assert len(keys) == len(solutions)

    def test_limit_respected(self):
        _, errors, basis = steane_instance()
        solutions = enumerate_optimal_verifications(basis, errors, limit=1)
        assert len(solutions) == 1

    def test_empty_errors(self):
        _, _, basis = steane_instance()
        assert enumerate_optimal_verifications(basis, []) == []
