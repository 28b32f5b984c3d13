"""Unit tests for CORRECTION CIRCUIT SYNTHESIS — the paper's contribution.

The defining property (paper Sec. IV box): after measuring the synthesized
stabilizers, all errors sharing an extended syndrome are reduced to
``wt_S <= 1`` by one shared recovery. Optimality is validated by brute
force over small instances: no (u-1)-measurement solution may exist.
"""

import itertools

import numpy as np
import pytest

from repro.codes.catalog import get_code, steane_code
from repro.core.correction import (
    CorrectionCircuit,
    CorrectionInfeasible,
    _candidate_pool,
    _CorrectionEncoder,
    _maximal_columns,
    synthesize_correction,
)
from repro.core.errors import dangerous_errors, detection_basis, error_reducer
from repro.pauli.symplectic import as_bit_matrix, row_space_contains, span_matrix
from repro.sat.solver import Solver
from repro.synth.prep import prepare_zero_heuristic

from .test_weight_floor import record_synthesis


def check_correction_valid(correction, errors, basis, reducer):
    """The paper's validity predicate, evaluated directly."""
    for m in correction.measurements:
        assert row_space_contains(basis, m), "measurement not a state stabilizer"
    groups = {}
    for e in errors:
        syndrome = tuple(
            int(m @ e) % 2 for m in correction.measurements
        )
        groups.setdefault(syndrome, []).append(e)
    for syndrome, members in groups.items():
        recovery = correction.recovery_for(syndrome)
        assert recovery is not None, f"no recovery for syndrome {syndrome}"
        for e in members:
            assert reducer.coset_weight(e ^ recovery) <= 1


def brute_force_min_measurements(errors, basis, reducer, max_u=3):
    """Smallest number of measurements for which ANY choice works."""
    span = [v for v in span_matrix(basis) if v.any()]
    for u in range(0, max_u + 1):
        for combo in itertools.combinations(span, u):
            groups = {}
            for e in errors:
                syndrome = tuple(int(m @ e) % 2 for m in combo)
                groups.setdefault(syndrome, []).append(e)
            if all(
                _has_common_recovery(members, reducer)
                for members in groups.values()
            ):
                return u
    return None


def _has_common_recovery(members, reducer):
    n = reducer.n
    candidates = [np.zeros(n, dtype=np.uint8)]
    for q in range(n):
        vec = np.zeros(n, dtype=np.uint8)
        vec[q] = 1
        candidates.append(vec)
    pool = []
    for e in members:
        pool.extend(e ^ r for r in candidates)
    for c in pool:
        if all(reducer.coset_weight(e ^ c) <= 1 for e in members):
            return True
    return False


def steane_class():
    """The Steane X-error class behind Table I's [1]/[3] correction."""
    code = steane_code()
    prep = prepare_zero_heuristic(code)
    errors = dangerous_errors(prep, "X")
    return code, errors


class TestSteane:
    def test_bare_dangerous_pair_needs_no_measurement(self):
        """The two dangerous Steane prep errors alone share a recovery
        (u = 0). The paper's [1]/[3] Table-I entry arises only once the
        class also holds the syndrome-sharing single-qubit errors — that
        protocol-level class is asserted in test_metrics.py."""
        code, errors = steane_class()
        reducer = error_reducer(code, "X")
        correction = synthesize_correction(
            errors, detection_basis(code, "X"), reducer
        )
        assert correction.num_ancillas == 0
        recovery = correction.recovery_for(())
        for e in errors:
            assert reducer.coset_weight(e ^ recovery) <= 1

    def test_protocol_level_class_needs_one_measurement(self):
        """With the identity and triggered single-qubit errors included
        (as the protocol builder does), one extra measurement is required —
        reproducing the paper's [1]/[3] Steane entry."""
        code, errors = steane_class()
        reducer = error_reducer(code, "X")
        basis = detection_basis(code, "X")
        # The protocol's verification measurement for this class:
        from repro.synth.verification import synthesize_verification_optimal

        verification = synthesize_verification_optimal(basis, errors)
        (m,) = verification.measurements
        # Class E_b for b = 1: dangerous errors + identity (measurement
        # fault) + single-qubit errors anticommuting with m.
        klass = list(errors) + [np.zeros(7, dtype=np.uint8)]
        for q in range(7):
            single = np.zeros(7, dtype=np.uint8)
            single[q] = 1
            if int(m @ single) % 2:
                klass.append(single)
        correction = synthesize_correction(klass, basis, reducer)
        assert correction.num_ancillas == 1
        assert correction.cnot_count == 3
        check_correction_valid(correction, klass, basis, reducer)

    def test_validity(self):
        code, errors = steane_class()
        reducer = error_reducer(code, "X")
        correction = synthesize_correction(
            errors, detection_basis(code, "X"), reducer
        )
        check_correction_valid(
            correction, errors, detection_basis(code, "X"), reducer
        )

    def test_optimality_vs_brute_force(self):
        code, errors = steane_class()
        reducer = error_reducer(code, "X")
        correction = synthesize_correction(
            errors, detection_basis(code, "X"), reducer
        )
        best = brute_force_min_measurements(
            errors, detection_basis(code, "X"), reducer
        )
        assert correction.num_ancillas == best


class TestDegenerateCases:
    def test_empty_error_set(self):
        code = steane_code()
        correction = synthesize_correction(
            [], detection_basis(code, "X"), error_reducer(code, "X")
        )
        assert correction.measurements == []
        assert correction.recoveries == {}

    def test_single_correctable_class_needs_no_measurement(self):
        """One dangerous error alone: a direct recovery suffices (u = 0)."""
        code = steane_code()
        reducer = error_reducer(code, "X")
        e = np.zeros(7, dtype=np.uint8)
        e[[0, 1]] = 1
        correction = synthesize_correction(
            [e], detection_basis(code, "X"), reducer
        )
        assert correction.num_ancillas == 0
        recovery = correction.recovery_for(())
        assert recovery is not None
        assert reducer.coset_weight(e ^ recovery) <= 1

    def test_single_qubit_error_with_identity(self):
        """Sec. IV single-qubit-error care: the recovery applied on the
        shared syndrome must not push a weight-1 error above weight 1."""
        code = steane_code()
        reducer = error_reducer(code, "X")
        double = np.zeros(7, dtype=np.uint8)
        double[[0, 1]] = 1
        single = np.zeros(7, dtype=np.uint8)
        single[0] = 1
        correction = synthesize_correction(
            [double, single], detection_basis(code, "X"), reducer
        )
        check_correction_valid(
            correction, [double, single], detection_basis(code, "X"), reducer
        )

    def test_identity_error_in_class(self):
        """A pure measurement fault leaves no data error: the recovery for
        its class must leave the clean state clean (wt <= 1)."""
        code = steane_code()
        reducer = error_reducer(code, "X")
        double = np.zeros(7, dtype=np.uint8)
        double[[0, 1]] = 1
        identity = np.zeros(7, dtype=np.uint8)
        correction = synthesize_correction(
            [double, identity], detection_basis(code, "X"), reducer
        )
        check_correction_valid(
            correction,
            [double, identity],
            detection_basis(code, "X"),
            reducer,
        )

    def test_infeasible_raises(self):
        code = steane_code()
        reducer = error_reducer(code, "X")
        # Logical X needs measurements to separate from identity; forbid them.
        e1 = code.logical_x[0].copy()
        identity = np.zeros(7, dtype=np.uint8)
        with pytest.raises(CorrectionInfeasible):
            synthesize_correction(
                [e1, identity],
                detection_basis(code, "X"),
                reducer,
                max_measurements=0,
            )


class TestMultiErrorInstances:
    @pytest.mark.parametrize("key", ["shor", "surface_3", "11_1_3", "hamming"])
    def test_validity_on_catalog_codes(self, key):
        code = get_code(key)
        prep = prepare_zero_heuristic(code)
        errors = dangerous_errors(prep, "X")
        if not errors:
            pytest.skip("no dangerous X errors")
        reducer = error_reducer(code, "X")
        basis = detection_basis(code, "X")
        correction = synthesize_correction(errors, basis, reducer)
        check_correction_valid(correction, errors, basis, reducer)

    @pytest.mark.parametrize("key", ["shor", "surface_3"])
    def test_optimality_on_small_codes(self, key):
        code = get_code(key)
        prep = prepare_zero_heuristic(code)
        errors = dangerous_errors(prep, "X")
        reducer = error_reducer(code, "X")
        basis = detection_basis(code, "X")
        correction = synthesize_correction(errors, basis, reducer)
        best = brute_force_min_measurements(errors, basis, reducer)
        assert correction.num_ancillas == best

    def test_weight_minimized_at_fixed_u(self):
        """Second optimality phase: CNOT count minimal for the found u —
        brute-force all u-subsets of the span for a smaller total weight."""
        code, errors = steane_class()
        reducer = error_reducer(code, "X")
        basis = detection_basis(code, "X")
        correction = synthesize_correction(errors, basis, reducer)
        u = correction.num_ancillas
        span = [v for v in span_matrix(basis) if v.any()]
        for combo in itertools.combinations(span, u):
            weight = sum(int(m.sum()) for m in combo)
            if weight >= correction.cnot_count:
                continue
            groups = {}
            for e in errors:
                syndrome = tuple(int(m @ e) % 2 for m in combo)
                groups.setdefault(syndrome, []).append(e)
            assert not all(
                _has_common_recovery(members, reducer)
                for members in groups.values()
            ), f"lighter valid correction exists: {weight} < {correction.cnot_count}"


FAST_CODES = ["steane", "shor", "surface_3", "11_1_3", "tetrahedral",
              "hamming", "carbon", "16_2_4"]


def covered_subsets(matrix: np.ndarray) -> np.ndarray:
    """For every subset ``S`` of rows (bit ``e`` of the index = row ``e``),
    whether some column of ``matrix`` is true on all of ``S``."""
    num_rows = matrix.shape[0]
    columns = (matrix.astype(np.int64) << np.arange(num_rows)[:, None]).sum(axis=0)
    subsets = np.arange(1 << num_rows)
    return ((subsets[:, None] & ~columns[None, :]) == 0).any(axis=1)


@pytest.fixture(scope="module")
def branches():
    """(code, errors, basis, ok, result) of every correction branch the
    fast catalog codes synthesize."""
    found = []
    for key in FAST_CODES:
        for call in record_synthesis(key)["correction"]:
            errors = call.reducer.dedupe(call.errors)
            _, ok = _candidate_pool(errors, call.reducer)
            found.append((key, errors, as_bit_matrix(call.basis), ok, call.result))
    return found


class TestMaximalColumns:
    """The encoder gets only the distinct inclusion-maximal columns of
    ``ok``: a set of errors has a common recovery among them iff it has
    one in the full pool, so every (u, bound) instance keeps its answer."""

    def test_exact_on_every_fast_branch(self, branches):
        assert len(branches) == 33
        for key, errors, _, ok, _ in branches:
            assert len(errors) <= 13, key
            assert (covered_subsets(_maximal_columns(ok)) == covered_subsets(ok)).all()

    def test_exact_on_random_matrices(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            rows, cols = rng.integers(1, 11), rng.integers(1, 40)
            ok = rng.random((rows, cols)) < rng.uniform(0.1, 0.9)
            cover = _maximal_columns(ok)
            assert (covered_subsets(cover) == covered_subsets(ok)).all()
            kept = {tuple(c) for c in cover.T}
            assert len(kept) == cover.shape[1]  # distinct
            for a in kept:  # none inside another
                assert not any(a != b and all(x <= y for x, y in zip(a, b)) for b in kept)

    def test_hard_tetrahedral_branch_keeps_13_of_164(self, branches):
        (ok,) = [ok for key, _, _, ok, result in branches
                 if key == "tetrahedral" and result.num_ancillas == 3]
        assert ok.shape == (13, 164)
        assert _maximal_columns(ok).shape == (13, 13)

    def test_full_and_pruned_encoders_agree(self, branches):
        """UNSAT at ``u - 1`` and at ``v - 1``, SAT at ``v``, with either."""
        probed = 0
        for _, errors, basis, ok, result in branches:
            u, v = result.num_ancillas, result.cnot_count
            if u == 0:
                continue
            for cols in (ok, _maximal_columns(ok)):
                if u > 1:
                    fewer = _CorrectionEncoder(basis, errors, cols, u - 1)
                    assert not Solver(fewer.cnf).solve().sat
                encoder = _CorrectionEncoder(basis, errors, cols, u)
                solver = Solver(encoder.cnf)
                assert not solver.solve(assumptions=encoder.totalizer.at_most(v - 1)).sat
                assert solver.solve(assumptions=encoder.totalizer.at_most(v)).sat
            probed += 1
        assert probed == 29


class TestCorrectionCircuitAPI:
    def test_counts(self):
        c = CorrectionCircuit(
            [np.array([1, 1, 0], dtype=np.uint8)],
            {(0,): np.zeros(3, dtype=np.uint8)},
        )
        assert c.num_ancillas == 1
        assert c.cnot_count == 2

    def test_recovery_for_missing_syndrome(self):
        c = CorrectionCircuit([], {})
        assert c.recovery_for(()) is None

    def test_repr(self):
        c = CorrectionCircuit([], {})
        assert "CorrectionCircuit" in repr(c)
