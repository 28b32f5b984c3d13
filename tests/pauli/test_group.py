"""Unit tests for coset-weight machinery (the paper's wt_S)."""

import numpy as np
import pytest

from repro.codes.catalog import steane_code
from repro.pauli.group import CosetReducer
from repro.pauli.symplectic import as_bit_matrix, span_matrix


class TestCosetReducer:
    def test_trivial_group_weight_is_plain_weight(self):
        reducer = CosetReducer(as_bit_matrix([], 5), 5)
        assert reducer.coset_weight([1, 1, 0, 1, 0]) == 3

    def test_group_element_has_weight_zero(self):
        reducer = CosetReducer(["1100", "0011"])
        assert reducer.coset_weight([1, 1, 1, 1]) == 0

    def test_reduce_returns_min_weight_member(self):
        reducer = CosetReducer(["1110"])
        rep = reducer.reduce([1, 1, 0, 0])
        assert rep.sum() == reducer.coset_weight([1, 1, 0, 0]) == 1

    def test_reduce_stays_in_coset(self):
        rng = np.random.default_rng(0)
        basis = rng.integers(0, 2, size=(3, 7), dtype=np.uint8)
        reducer = CosetReducer(basis)
        span = {row.tobytes() for row in span_matrix(basis)}
        for _ in range(20):
            vec = rng.integers(0, 2, size=7, dtype=np.uint8)
            rep = reducer.reduce(vec)
            assert (rep ^ vec).tobytes() in span

    def test_canonical_identifies_cosets(self):
        reducer = CosetReducer(["1100"])
        assert reducer.canonical([1, 0, 0, 0]) == reducer.canonical([0, 1, 0, 0])
        assert reducer.canonical([1, 0, 0, 0]) != reducer.canonical([0, 0, 1, 0])

    def test_canonical_invariant_under_group_action(self):
        rng = np.random.default_rng(1)
        basis = rng.integers(0, 2, size=(3, 6), dtype=np.uint8)
        reducer = CosetReducer(basis)
        vec = rng.integers(0, 2, size=6, dtype=np.uint8)
        for g in span_matrix(basis):
            assert reducer.canonical(vec ^ g) == reducer.canonical(vec)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        basis = rng.integers(0, 2, size=(3, 6), dtype=np.uint8)
        reducer = CosetReducer(basis)
        mat = rng.integers(0, 2, size=(10, 6), dtype=np.uint8)
        batch = reducer.coset_weights_batch(mat)
        for row, w in zip(mat, batch):
            assert reducer.coset_weight(row) == w

    def test_batch_empty(self):
        reducer = CosetReducer(["11"])
        assert reducer.coset_weights_batch(as_bit_matrix([], 2)).shape == (0,)

    def test_contains(self):
        reducer = CosetReducer(["1100", "0110"])
        assert reducer.contains([1, 0, 1, 0])  # sum of the two rows
        assert not reducer.contains([1, 0, 0, 0])

    def test_zero_always_contained(self):
        reducer = CosetReducer(["101"])
        assert reducer.contains([0, 0, 0])

    def test_rank_reported(self):
        reducer = CosetReducer(["110", "011", "101"])  # dependent
        assert reducer.rank == 2


class TestCanonicalAndDedupe:
    """``canonical`` is the bytes-least coset member and ``dedupe`` the
    first-seen ``reduce`` per coset, for every width: ``dedupe`` keys
    rows by uint64 on ``n <= 64`` and by Python ints beyond."""

    @pytest.mark.parametrize("n, r", [(7, 3), (16, 5), (64, 4), (70, 4), (5, 0)])
    def test_match_the_definitions(self, n, r):
        rng = np.random.default_rng(n)
        basis = rng.integers(0, 2, size=(r, n), dtype=np.uint8)
        reducer = CosetReducer(basis, n)
        span = span_matrix(basis) if r else np.zeros((1, n), dtype=np.uint8)
        vecs = rng.integers(0, 2, size=(40, n), dtype=np.uint8)
        # Repeat some cosets through other members.
        vecs = np.vstack([vecs, vecs[:20] ^ span[rng.integers(0, len(span), 20)]])
        expected, seen = [], set()
        for vec in vecs:
            label = min(row.tobytes() for row in span ^ vec)
            assert reducer.canonical(vec) == label
            if label not in seen:
                seen.add(label)
                expected.append(reducer.reduce(vec))
        got = reducer.dedupe(list(vecs))
        assert [v.tobytes() for v in got] == [v.tobytes() for v in expected]

    def test_dedupe_empty(self):
        assert CosetReducer(["1100"]).dedupe([]) == []


class TestSteaneWtS:
    """Paper Example 1/2: stabilizer-equivalence on the Steane code."""

    def setup_method(self):
        self.code = steane_code()

    def test_x_stabilizer_has_weight_zero(self):
        reducer = self.code.x_error_reducer()
        for row in self.code.hx:
            assert reducer.coset_weight(row) == 0

    def test_single_x_error_weight_one(self):
        reducer = self.code.x_error_reducer()
        for q in range(7):
            vec = np.zeros(7, dtype=np.uint8)
            vec[q] = 1
            assert reducer.coset_weight(vec) == 1

    def test_weight_two_errors_irreducible(self):
        # d=3: no weight-2 X error is stabilizer-equivalent to weight <= 1,
        # unless it differs from a stabilizer by one qubit... for Steane,
        # stabilizers have weight 4, so weight-2 errors stay weight 2.
        reducer = self.code.x_error_reducer()
        vec = np.zeros(7, dtype=np.uint8)
        vec[[0, 1]] = 1
        assert reducer.coset_weight(vec) == 2

    def test_logical_z_reduces_on_zero_state(self):
        # On |0>_L the Z reducer includes logical Z: Z_L itself is harmless.
        z_reducer = self.code.z_error_reducer()
        for row in self.code.logical_z:
            assert z_reducer.coset_weight(row) == 0

    def test_logical_z_not_in_plain_stabilizer(self):
        plain = CosetReducer(self.code.hz, 7)
        for row in self.code.logical_z:
            assert plain.coset_weight(row) > 0
