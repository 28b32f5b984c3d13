"""Correction synthesis by enumeration against SAT and brute force.

``synthesize_correction`` settles ``u = 1`` by scanning single
measurements and every ``u >= 2`` floor by a search over the floor-weight
sets, testing each set by whether it separates every minimal incompatible
error set. :func:`tests.reference.sat_correction` decides the same
questions with the SAT encoder alone; the two must agree on ``(u, v)``.
Where enumeration decides, its pick must be the lexicographically first
feasible set of the span sorted by (weight, ``span_matrix`` row).
"""

import itertools

import numpy as np
import pytest

from repro.core.correction import (
    CorrectionInfeasible,
    _first_cover,
    _incompatible_sets,
    _maximal_columns,
    _split_matrix,
    synthesize_correction,
)
from repro.pauli.symplectic import as_bit_matrix, span_matrix

from ..reference import sat_correction
from .test_weight_floor import (
    correctable,
    random_correction_classes,
    record_synthesis,
    recovery_table,
)


def uv(synthesize, *args, **kwargs):
    """``(u, v)`` of a synthesis, or None if it is infeasible."""
    try:
        result = synthesize(*args, **kwargs)
    except CorrectionInfeasible:
        return None
    return result.num_ancillas, result.cnot_count


def sorted_span(basis) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero span vectors by (weight, ``span_matrix`` row), and weights."""
    span = span_matrix(as_bit_matrix(basis))
    weights = span.sum(axis=1)
    order = [i for i in np.argsort(weights, kind="stable") if weights[i]]
    return span[order], weights[order]


@pytest.mark.parametrize(
    "key", ["steane", "shor", "surface_3", "11_1_3", "tetrahedral", "carbon"]
)
def test_same_optimum_as_sat_on_every_branch(key):
    calls = record_synthesis(key)["correction"]
    assert calls
    for call in calls:
        got = (call.result.num_ancillas, call.result.cnot_count)
        assert got == uv(sat_correction, call.errors, call.basis, call.reducer)


def test_same_optimum_as_sat_on_random_classes():
    seen = set()
    for errors, basis, reducer in random_correction_classes():
        got = uv(synthesize_correction, errors, basis, reducer, max_measurements=2)
        assert got == uv(sat_correction, errors, basis, reducer, max_measurements=2)
        seen.add(got if got is None else got[0])
    assert seen == {None, 0, 1, 2}


def test_split_criterion_equals_correctable():
    """Every class shares a recovery iff the measurements separate every
    minimal incompatible set; the sets are exactly the minimal subsets
    whose ``ok`` rows AND to zero, with or without non-maximal columns."""
    rng = np.random.default_rng(7)
    for _ in range(60):
        num_errors, n = int(rng.integers(2, 9)), int(rng.integers(3, 8))
        ok = rng.random((num_errors, int(rng.integers(1, 12)))) < rng.uniform(0.2, 0.8)
        # Every error alone has a recovery, as in a candidate pool.
        ok[np.arange(num_errors), rng.integers(0, ok.shape[1], num_errors)] = True
        sets = _incompatible_sets(ok)
        assert sets == _incompatible_sets(_maximal_columns(ok))

        def compatible(members):
            return np.logical_and.reduce(ok[list(members)]).any()

        subsets = [s for k in range(1, num_errors + 1)
                   for s in itertools.combinations(range(num_errors), k)]
        minimal = [list(s) for s in subsets if not compatible(s)
                   and all(compatible(set(s) - {x}) for x in s)]
        assert sorted(sets) == sorted(minimal)

        errors = rng.integers(0, 2, size=(num_errors, n), dtype=np.uint8)
        for _ in range(10):
            measurements = rng.integers(0, 2, size=(int(rng.integers(0, 4)), n),
                                        dtype=np.uint8)
            separated = _split_matrix(measurements, errors, sets).any(axis=0).all()
            assert separated == correctable(errors, measurements, ok)


def test_first_cover_is_the_first_combination():
    """The pruned search returns what a scan of ``itertools.combinations``
    in order returns: the first ``need`` rows covering every column."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(0, 7))
        tier = rng.random((rows, cols)) < rng.uniform(0.1, 0.6)
        need = int(rng.integers(1, rows + 1))
        first = next((list(combo) for combo in itertools.combinations(range(rows), need)
                      if tier[list(combo)].any(axis=0).all()), None)
        assert _first_cover(tier, need) == first


@pytest.mark.parametrize(
    "key", ["steane", "shor", "surface_3", "11_1_3", "hamming", "carbon", "tetrahedral"]
)
def test_pick_is_lexicographically_first(key):
    """``u = 1``: the first feasible vector of the sorted span. ``u >= 2``
    at the floor: the first feasible ``u``-set of floor weight, with sets
    in lexicographic order of their sorted-span indices."""
    checked = 0
    for call in record_synthesis(key)["correction"]:
        u, v = call.result.num_ancillas, call.result.cnot_count
        span, weights = sorted_span(call.basis)
        if u == 0 or (u > 1 and v > weights[:u].sum()):
            continue
        errors = call.reducer.dedupe(call.errors)
        ok = recovery_table(errors, call.reducer)
        light = range(len(span)) if u == 1 else np.flatnonzero(weights <= weights[u - 1])
        first = next(
            combo for combo in itertools.combinations(light, u)
            if (u == 1 or weights[list(combo)].sum() == v)
            and correctable(errors, span[list(combo)], ok)
        )
        assert np.array_equal(np.array(call.result.measurements), span[list(first)])
        checked += 1
    assert checked


def test_measurement_limit_is_respected():
    """tetrahedral's u = 2 branch: one measurement allowed is infeasible."""
    (call,) = [call for call in record_synthesis("tetrahedral")["correction"]
               if call.result.num_ancillas == 2]
    with pytest.raises(CorrectionInfeasible):
        synthesize_correction(call.errors, call.basis, call.reducer, max_measurements=1)
    again = synthesize_correction(call.errors, call.basis, call.reducer, max_measurements=2)
    assert (again.num_ancillas, again.cnot_count) == (2, call.result.cnot_count)
