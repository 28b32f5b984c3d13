"""The span-weight floor that ends both (u, v) searches.

At the minimal ``u`` an optimal measurement set is linearly independent,
so its total weight is at least the sum of the ``u`` lightest nonzero
vectors of the detection span. The searches never probe a bound below
that floor. Correction settles u = 1 and the floor itself by enumeration
and probes with SAT from one above the floor; verification steps down
from its first model. These tests record every weight probe of whole
syntheses and check the optima they return by brute force.
"""

import itertools
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import pytest

import repro.core.protocol as protocol_module
from repro.codes.catalog import get_code
from repro.core.correction import CorrectionInfeasible, synthesize_correction
from repro.core.errors import detection_basis, error_reducer
from repro.pauli.symplectic import as_bit_matrix, span_matrix, span_weight_floors
from repro.sat.cardinality import Totalizer
from repro.sat.solver import Solver

# (u, floor) of the 12 tesseract correction branches, in synthesis order.
TESSERACT_FLOORS = [
    (2, 8), (3, 12), (2, 8), (2, 8), (2, 8), (1, 8),
    (2, 8), (1, 4), (1, 8), (2, 8), (1, 8), (1, 4),
]


def floor_of(basis, u: int) -> int:
    return int(span_weight_floors(as_bit_matrix(basis))[u - 1]) if u else 0


class Call(NamedTuple):
    """One synthesis call: its inputs, result, and the ``(k, sat)`` of
    every ``at_most(k)`` solve it issued."""

    errors: list
    basis: np.ndarray
    reducer: object  # None for verification
    result: object
    probes: list

    @property
    def floor(self) -> int:
        return floor_of(self.basis, self.result.num_ancillas)


@contextmanager
def recorded_probes():
    """Log the ``(k, sat)`` of every ``at_most(k)`` solve issued inside."""
    probes: list[tuple[int, bool]] = []
    last_bound = [None]
    at_most, solve = Totalizer.at_most, Solver.solve

    def tagged(self, k):
        last_bound[0] = k
        return at_most(self, k)

    def counted(self, assumptions=None):
        result = solve(self, assumptions)
        if assumptions:
            probes.append((last_bound[0], result.sat))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Totalizer, "at_most", tagged)
        mp.setattr(Solver, "solve", counted)
        yield probes


def record_synthesis(code_key: str) -> dict[str, list[Call]]:
    """Synthesize ``code_key`` and log every correction/verification call."""
    calls: dict[str, list] = {"correction": [], "verification": []}

    def recorded(kind, synthesize):
        def wrapper(*args, **kwargs):
            start = len(probes)
            result = synthesize(*args, **kwargs)
            if kind == "correction":
                errors, basis, reducer = args[:3]
            else:
                (basis, errors), reducer = args[:2], None
            calls[kind].append(Call(errors, basis, reducer, result, probes[start:]))
            return result
        return wrapper

    with recorded_probes() as probes, pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol_module, "synthesize_correction",
                   recorded("correction", protocol_module.synthesize_correction))
        mp.setattr(protocol_module, "synthesize_verification_optimal",
                   recorded("verification", protocol_module.synthesize_verification_optimal))
        protocol_module.synthesize_protocol(get_code(code_key), store=False)
    return calls


def random_correction_classes():
    """Seeded random ``(errors, basis, reducer)`` correction inputs over
    four small codes: u = 0, 1, 2 and infeasible all occur (at
    ``max_measurements=2``), and some reach the SAT weight descent,
    which no Table I correction does."""
    rng = np.random.default_rng(36)
    codes = ["steane", "shor", "surface_3", "11_1_3"]
    for trial in range(50):
        code = get_code(codes[trial % len(codes)])
        kind = "XZ"[trial // len(codes) % 2]
        errors = [np.zeros(code.n, dtype=np.uint8)]
        for _ in range(rng.integers(3, 11)):
            error = np.zeros(code.n, dtype=np.uint8)
            error[rng.choice(code.n, size=rng.integers(1, 4), replace=False)] = 1
            errors.append(error)
        yield errors, detection_basis(code, kind), error_reducer(code, kind)


@pytest.fixture(scope="module")
def tesseract_calls():
    return record_synthesis("tesseract")


@pytest.fixture(scope="module")
def code_16_2_4_calls():
    return record_synthesis("16_2_4")


@pytest.fixture(scope="module")
def random_correction_calls():
    """Every feasible random class's correction call and its probes."""
    calls = []
    for errors, basis, reducer in random_correction_classes():
        with recorded_probes() as probes:
            try:
                result = synthesize_correction(
                    errors, basis, reducer, max_measurements=2
                )
            except CorrectionInfeasible:
                continue
        calls.append(Call(errors, basis, reducer, result, probes))
    return calls


def correctable(errors, measurements, ok) -> bool:
    """Every extended-syndrome class shares a recovery (``ok`` rows ANDed)."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for ei, e in enumerate(errors):
        classes.setdefault(tuple(int(m @ e) % 2 for m in measurements), []).append(ei)
    return all(np.logical_and.reduce(ok[members]).any() for members in classes.values())


def recovery_table(errors, reducer) -> np.ndarray:
    """``ok[e][c]``: candidate ``c`` (a class member plus at most one
    flipped qubit) leaves ``e`` at coset weight <= 1."""
    n = reducer.n
    singles = np.vstack([np.zeros(n, dtype=np.uint8), np.eye(n, dtype=np.uint8)])
    pool = np.array([e ^ s for e in errors for s in singles], dtype=np.uint8)
    return np.array([reducer.coset_weights_batch(pool ^ e) <= 1 for e in errors])


class TestFloors:
    def test_floor_is_running_sum_of_lightest_span_weights(self):
        basis = as_bit_matrix(["1100", "0110", "0011"])
        # Span weights: 2, 2, 2, 2, 2, 2, 4 (and the zero vector).
        assert span_weight_floors(basis).tolist() == [2, 4, 6, 8, 10, 12, 16]

    def test_tesseract_branch_floors_golden(self, tesseract_calls):
        got = [(call.result.num_ancillas, call.floor) for call in tesseract_calls["correction"]]
        assert got == TESSERACT_FLOORS

    def test_tesseract_branches_end_at_their_floor(self, tesseract_calls):
        for call in tesseract_calls["correction"]:
            assert call.result.cnot_count == call.floor


class TestProbes:
    @pytest.mark.parametrize("kind", ["correction", "verification"])
    def test_no_probe_below_the_floor(
        self, tesseract_calls, code_16_2_4_calls, random_correction_calls, kind
    ):
        calls = tesseract_calls[kind] + code_16_2_4_calls[kind]
        if kind == "correction":
            calls += random_correction_calls
        probes = [(k, call.floor) for call in calls for k, _ in call.probes]
        assert probes, "no weight probe was checked"
        assert all(k >= floor for k, floor in probes)

    def test_correction_probes_the_floor_first(self, random_correction_calls):
        """Enumeration settles the floor itself, so the SAT descent's
        first probe is ``floor + 1`` and no probe is at or below it."""
        probed = [call for call in random_correction_calls if call.probes]
        assert probed, "no random class reached the SAT descent"
        for call in probed:
            assert call.probes[0][0] == call.floor + 1
            assert all(k > call.floor for k, _ in call.probes)

    def test_tesseract_issues_no_unsat_weight_probe(self, tesseract_calls):
        for kind in ("correction", "verification"):
            for call in tesseract_calls[kind]:
                assert all(sat for _, sat in call.probes)


class TestAboveTheFloor:
    """16_2_4's u = 1 branch ends above its floor. The single-measurement
    scan settles it without SAT, and the optimum it returns is checked by
    brute force over every single measurement of the span."""

    @pytest.fixture(scope="class")
    def branch(self, code_16_2_4_calls):
        above = [
            call for call in code_16_2_4_calls["correction"]
            if call.result.cnot_count > call.floor
        ]
        assert len(above) == 1
        return above[0]

    def test_u1_branch_makes_no_sat_call(self, branch, monkeypatch):
        assert branch.result.num_ancillas == 1
        assert branch.probes == []
        calls = []
        solve = Solver.solve

        def counted(self, assumptions=None):
            calls.append(assumptions)
            return solve(self, assumptions)

        monkeypatch.setattr(Solver, "solve", counted)
        again = protocol_module.synthesize_correction(
            branch.errors, branch.basis, branch.reducer
        )
        assert calls == []
        assert (again.num_ancillas, again.cnot_count) == (1, branch.result.cnot_count)

    def test_optimum_by_brute_force(self, branch):
        reducer, result = branch.reducer, branch.result
        errors = reducer.dedupe(branch.errors)
        ok = recovery_table(errors, reducer)
        assert correctable(errors, result.measurements, ok)
        assert not correctable(errors, [], ok)  # u - 1 = 0 is infeasible
        lighter = [m for m in span_matrix(as_bit_matrix(branch.basis))
                   if 0 < m.sum() < result.cnot_count]
        assert lighter
        assert not any(correctable(errors, [m], ok) for m in lighter)


def detects_all(measurements, errors) -> bool:
    return all(any(int(m @ e) % 2 for m in measurements) for e in errors)


class TestVerificationOptimality:
    """Lexicographic (u, v) optimality of every verification layer a
    synthesis asks for, by brute force over measurement subsets of the
    detection span."""

    # carbon's Z layer needs u = 2 and ends above its floor (v = 10).
    @pytest.mark.parametrize("key", ["steane", "shor", "surface_3", "carbon"])
    def test_brute_force(self, key):
        calls = record_synthesis(key)["verification"]
        assert calls
        for call in calls:
            u, v = call.result.num_ancillas, call.result.total_weight
            assert detects_all(call.result.measurements, call.errors)
            span = [m for m in span_matrix(as_bit_matrix(call.basis)) if m.any()]
            for smaller in range(1, u):
                assert not any(
                    detects_all(combo, call.errors)
                    for combo in itertools.combinations(span, smaller)
                )
            assert not any(
                detects_all(combo, call.errors)
                for combo in itertools.combinations(span, u)
                if sum(int(m.sum()) for m in combo) < v
            )


class TestCorrectionOptimality:
    """Lexicographic (u, v) optimality of every correction branch a
    synthesis asks for, by brute force over measurement subsets of the
    detection span, with recoveries drawn from the full candidate pool."""

    @pytest.mark.parametrize("key", ["steane", "shor", "surface_3", "11_1_3"])
    def test_brute_force(self, key):
        calls = record_synthesis(key)["correction"]
        assert calls
        for call in calls:
            u, v = call.result.num_ancillas, call.result.cnot_count
            errors = call.reducer.dedupe(call.errors)
            ok = recovery_table(errors, call.reducer)
            assert correctable(errors, call.result.measurements, ok)
            span = [m for m in span_matrix(as_bit_matrix(call.basis)) if m.any()]
            for smaller in range(u):
                assert not any(
                    correctable(errors, combo, ok)
                    for combo in itertools.combinations(span, smaller)
                )
            assert not any(
                correctable(errors, combo, ok)
                for combo in itertools.combinations(span, u)
                if sum(int(m.sum()) for m in combo) < v
            )
