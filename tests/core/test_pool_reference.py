"""The correction candidate pool against the per-row references.

``CosetReducer.dedupe`` reduces its first-seen rows in one chunked
broadcast and ``_candidate_pool`` builds ``ok`` from integer row keys with
one ``isin``; :func:`tests.reference.per_row_dedupe` and
:func:`tests.reference.per_error_candidate_pool` reduce one row and score
one error at a time. Pool, representatives and ``ok`` must match exactly
on every correction class the small codes synthesize, and on a reducer
with n > 64, whose row keys are Python ints.
"""

import numpy as np
import pytest

from repro.core.correction import _candidate_pool
from repro.pauli.group import CosetReducer

from ..reference import per_error_candidate_pool, per_row_dedupe
from .test_weight_floor import record_synthesis

CODES = ["steane", "shor", "surface_3", "11_1_3", "tetrahedral"]


def assert_same_pool(errors, reducer):
    deduped = reducer.dedupe(errors)
    assert [e.tobytes() for e in deduped] == [
        e.tobytes() for e in per_row_dedupe(reducer, errors)
    ]
    pool, ok = _candidate_pool(deduped, reducer)
    ref_pool, ref_ok = per_error_candidate_pool(deduped, reducer)
    assert [c.tobytes() for c in pool] == [c.tobytes() for c in ref_pool]
    assert ok.dtype == ref_ok.dtype and ok.shape == ref_ok.shape
    assert (ok == ref_ok).all()


@pytest.mark.parametrize("key", CODES)
def test_every_correction_class(key):
    calls = record_synthesis(key)["correction"]
    assert calls
    for call in calls:
        assert_same_pool(call.errors, call.reducer)


def test_reducer_wider_than_64_qubits():
    rng = np.random.default_rng(35)
    n = 70
    reducer = CosetReducer(rng.integers(0, 2, size=(4, n), dtype=np.uint8))
    assert reducer._keys.dtype == object
    errors = rng.integers(0, 2, size=(8, n), dtype=np.uint8)
    errors[rng.random((8, n)) < 0.85] = 0
    # Repeat cosets through other members, as a class does.
    errors = np.vstack([errors, errors[:3] ^ reducer.basis[0]])
    assert_same_pool(list(errors), reducer)
