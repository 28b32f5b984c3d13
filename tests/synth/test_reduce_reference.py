"""The array-op column reduction against the pair-scan reference.

``_reduce_columns`` picks each step's (source, target) addition with one
flat argmax; :func:`tests.reference.loop_reduce_columns` scans every pair
with a strict ``>``. Both must return the same op list, so every prep
circuit (and every optimal-prep choice) stays the same. Tier-1 covers every
information set of the three small codes and 50 seeded sets of each other
catalog code; the nightly job covers every set of every code.
"""

import numpy as np
import pytest

from repro.codes.catalog import CATALOG, get_code
from repro.synth.prep import _reduce_columns

from ..reference import loop_reduce_columns, reduction_mismatches

EXHAUSTIVE = ["steane", "shor", "surface_3"]


@pytest.mark.parametrize("key", list(CATALOG))
def test_same_ops_as_pair_scan(key):
    sample = None if key in EXHAUSTIVE else 50
    compared, mismatches = reduction_mismatches(get_code(key), sample)
    assert mismatches == []
    assert compared == sample or key in EXHAUSTIVE


def test_same_ops_on_random_generators():
    # Unit pivot columns anywhere, random non-pivot columns (repeats and
    # zero columns included): ties between (target, source) pairs abound.
    rng = np.random.default_rng(35)
    for _ in range(200):
        r, n = int(rng.integers(2, 7)), int(rng.integers(7, 15))
        pivots = sorted(rng.choice(n, size=r, replace=False).tolist())
        generator = rng.integers(0, 2, size=(r, n), dtype=np.uint8)
        generator[:, pivots] = np.eye(r, dtype=np.uint8)
        assert _reduce_columns(generator, pivots) == loop_reduce_columns(generator, pivots)


def test_same_ops_past_62_rows():
    # 70 rows do not fit an int64 column key; the columns become Python ints.
    rng = np.random.default_rng(7)
    r, n = 70, 74
    pivots = sorted(rng.choice(n, size=r, replace=False).tolist())
    generator = (rng.random((r, n)) < 0.3).astype(np.uint8)
    generator[:, pivots] = np.eye(r, dtype=np.uint8)
    assert _reduce_columns(generator, pivots) == loop_reduce_columns(generator, pivots)


@pytest.mark.parametrize("case", ["two ones", "swapped rows", "too few pivots"])
def test_non_unit_pivot_columns_are_refused(case):
    generator = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
    pivots = [0, 1]
    if case == "two ones":
        generator[1, 0] = 1
    elif case == "swapped rows":
        generator = generator[::-1].copy()
    else:
        pivots = [0]
    with pytest.raises(ValueError, match="unit vectors"):
        _reduce_columns(generator, pivots)
