"""GF(2) linear algebra on dense numpy bit matrices.

All routines operate on ``numpy`` arrays of dtype ``uint8`` whose entries are
0 or 1. Matrices are row-major: a k x n matrix represents k vectors of
length n. These helpers back every F2 computation in the library: stabilizer
group manipulation, code construction, syndrome algebra, and the SAT
encodings (which fold F2 constants into CNF).
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "as_bit_matrix",
    "as_bit_vector",
    "rref",
    "rank",
    "kernel",
    "row_space_contains",
    "solve",
    "span_iter",
    "span_matrix",
    "span_weight_floors",
    "min_weight_in_coset",
    "min_weight_vector_in_coset",
    "independent_rows",
    "augment_to_basis",
    "random_full_rank",
    "popcount",
]


def as_bit_matrix(rows, n: int | None = None) -> np.ndarray:
    """Normalize ``rows`` into a 2-D uint8 matrix with entries in {0, 1}.

    ``rows`` may be a numpy array, a sequence of sequences of 0/1 ints, or a
    sequence of support-strings like ``"1011"``. An empty input produces a
    ``0 x n`` matrix (``n`` must then be given).
    """
    if isinstance(rows, np.ndarray):
        mat = (rows.astype(np.uint8) & 1).copy()
        if mat.ndim == 1:
            mat = mat.reshape(1, -1)
        return mat
    rows = list(rows)
    if not rows:
        if n is None:
            raise ValueError("empty matrix requires explicit column count n")
        return np.zeros((0, n), dtype=np.uint8)
    parsed = []
    for row in rows:
        if isinstance(row, str):
            parsed.append([1 if ch == "1" else 0 for ch in row])
        else:
            parsed.append([int(x) & 1 for x in row])
    mat = np.array(parsed, dtype=np.uint8)
    if n is not None and mat.shape[1] != n:
        raise ValueError(f"expected {n} columns, got {mat.shape[1]}")
    return mat


def as_bit_vector(vec, n: int | None = None) -> np.ndarray:
    """Normalize ``vec`` into a 1-D uint8 vector with entries in {0, 1}."""
    if isinstance(vec, str):
        vec = [1 if ch == "1" else 0 for ch in vec]
    arr = np.asarray(vec, dtype=np.uint8) & 1
    if arr.ndim != 1:
        raise ValueError("expected a 1-D vector")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected length {n}, got {arr.shape[0]}")
    return arr.copy()


def rref(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns ``(reduced, pivots)`` where ``reduced`` has zero rows removed and
    ``pivots`` lists the pivot column of each remaining row in order.
    """
    work = as_bit_matrix(mat).copy()
    nrows, ncols = work.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_rows = np.nonzero(work[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        pr = r + int(pivot_rows[0])
        if pr != r:
            work[[r, pr]] = work[[pr, r]]
        # Eliminate every other 1 in this column (full reduction).
        hits = np.nonzero(work[:, c])[0]
        for h in hits:
            if h != r:
                work[h, :] ^= work[r, :]
        pivots.append(c)
        r += 1
    return work[:r].copy(), pivots


def rank(mat: np.ndarray) -> int:
    """Rank of ``mat`` over GF(2)."""
    reduced, _ = rref(mat)
    return reduced.shape[0]


def kernel(mat: np.ndarray) -> np.ndarray:
    """Basis (rows) for the right null space ``{v : mat @ v = 0 (mod 2)}``."""
    mat = as_bit_matrix(mat)
    _, ncols = mat.shape
    reduced, pivots = rref(mat)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free_cols), ncols), dtype=np.uint8)
    for i, free in enumerate(free_cols):
        basis[i, free] = 1
        for row_idx, piv in enumerate(pivots):
            basis[i, piv] = reduced[row_idx, free]
    return basis


def row_space_contains(mat: np.ndarray, vec: np.ndarray) -> bool:
    """True iff ``vec`` lies in the row space of ``mat`` over GF(2)."""
    return solve(mat, vec) is not None


def solve(mat: np.ndarray, vec: np.ndarray) -> np.ndarray | None:
    """Solve ``x @ mat = vec`` over GF(2); return coefficient vector or None.

    ``x`` expresses ``vec`` as a combination of the *rows* of ``mat``.
    """
    mat = as_bit_matrix(mat)
    vec = as_bit_vector(vec, mat.shape[1])
    nrows = mat.shape[0]
    if nrows == 0:
        return np.zeros(0, dtype=np.uint8) if not vec.any() else None
    # Row-reduce [mat | I] so we can read off combination coefficients.
    augmented = np.concatenate([mat, np.eye(nrows, dtype=np.uint8)], axis=1)
    reduced, pivots = rref(augmented)
    ncols = mat.shape[1]
    residual = vec.copy()
    coeffs = np.zeros(nrows, dtype=np.uint8)
    for row_idx, piv in enumerate(pivots):
        if piv >= ncols:
            break
        if residual[piv]:
            residual ^= reduced[row_idx, :ncols]
            coeffs ^= reduced[row_idx, ncols:]
    if residual.any():
        return None
    return coeffs


def span_iter(basis: np.ndarray):
    """Yield every vector in the row span of ``basis`` (2^rank vectors).

    The basis is reduced first so the iteration never repeats a vector.
    Iteration order is Gray-code-free but deterministic.
    """
    reduced, _ = rref(basis)
    r, n = reduced.shape
    if r == 0:
        yield np.zeros(basis.shape[1] if basis.ndim == 2 else 0, dtype=np.uint8)
        return
    if r > 24:
        raise ValueError(f"span of rank {r} too large to enumerate")
    for bits in itertools.product((0, 1), repeat=r):
        vec = np.zeros(n, dtype=np.uint8)
        for i, b in enumerate(bits):
            if b:
                vec ^= reduced[i]
        yield vec


def span_matrix(basis: np.ndarray) -> np.ndarray:
    """All vectors of the row span of ``basis`` stacked as a matrix.

    Computed with a doubling construction, so the cost is linear in the
    output size. Rows are deduplicated by construction.
    """
    reduced, _ = rref(basis)
    r, n = reduced.shape
    if r > 24:
        raise ValueError(f"span of rank {r} too large to materialize")
    out = np.zeros((1 << r, n), dtype=np.uint8)
    size = 1
    for i in range(r):
        out[size : 2 * size] = out[:size] ^ reduced[i]
        size *= 2
    return out


def span_weight_floors(basis: np.ndarray) -> np.ndarray:
    """``floors[u - 1]``: the least total weight of ``u`` independent span vectors.

    ``u`` linearly independent vectors of ``rowspan(basis)`` are ``u``
    distinct nonzero span members, so together they weigh at least the
    ``u`` lightest nonzero members: the running sum of the sorted nonzero
    weights.
    """
    weights = span_matrix(basis).sum(axis=1, dtype=np.int64)
    return np.cumsum(np.sort(weights[weights > 0]))


def min_weight_in_coset(group: np.ndarray, vec: np.ndarray) -> int:
    """``min { wt(vec + g) : g in rowspan(group) }`` — the coset weight.

    This is the paper's ``wt_S`` for a Pauli error restricted to one type,
    with ``group`` the relevant same-type stabilizer span basis.
    """
    span = span_matrix(as_bit_matrix(group, len(vec)))
    weights = (span ^ as_bit_vector(vec)).sum(axis=1)
    return int(weights.min())


def min_weight_vector_in_coset(group: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """A minimal-weight representative of ``vec + rowspan(group)``."""
    span = span_matrix(as_bit_matrix(group, len(vec)))
    shifted = span ^ as_bit_vector(vec)
    weights = shifted.sum(axis=1)
    return shifted[int(weights.argmin())].copy()


_BYTE_WEIGHTS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def popcount(keys: np.ndarray) -> np.ndarray:
    """Set-bit counts of non-negative integer keys (object arrays hold
    Python ints; numpy < 2, which lacks ``bitwise_count``, reads bytes)."""
    if keys.dtype == object:
        return np.frompyfunc(int.bit_count, 1, 1)(keys).astype(np.int64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(keys)
    keys = np.ascontiguousarray(keys)
    counts = _BYTE_WEIGHTS[keys.view(np.uint8)].reshape(*keys.shape, keys.itemsize)
    return counts.sum(axis=-1, dtype=np.int64)


def _packed(mat: np.ndarray) -> list[int]:
    """The rows of a bit matrix as ints (column 0 is the highest bit)."""
    return [
        int.from_bytes(row.tobytes(), "big") for row in np.packbits(mat, axis=1)
    ]


def _independent(rows: list[int]) -> list[int]:
    """Indices of the packed ``rows`` independent of the rows before them.

    One incremental echelon, each kept row keyed by its highest set bit:
    reducing a row walks down its leading bits instead of taking a rank.
    """
    pivots: dict[int, int] = {}
    kept = []
    for i, row in enumerate(rows):
        while row and (pivot := pivots.get(row.bit_length() - 1)):
            row ^= pivot
        if row:
            pivots[row.bit_length() - 1] = row
            kept.append(i)
    return kept


def independent_rows(mat: np.ndarray) -> np.ndarray:
    """Subset of the original rows forming a basis of the row space."""
    mat = as_bit_matrix(mat)
    return mat[_independent(_packed(mat))].copy()


def augment_to_basis(subspace: np.ndarray, space: np.ndarray) -> np.ndarray:
    """Rows of ``space`` extending ``subspace`` to a basis of rowspan(space).

    Returns only the *added* rows. Requires rowspan(subspace) to be contained
    in rowspan(space); raises ValueError otherwise.
    """
    sub_rows = _packed(as_bit_matrix(subspace, space.shape[1]))
    space_rows = _packed(as_bit_matrix(space))
    if any(i >= len(space_rows) for i in _independent(space_rows + sub_rows)):
        raise ValueError("subspace is not contained in space")
    m = len(sub_rows)
    added = [i - m for i in _independent(sub_rows + space_rows) if i >= m]
    return space[added].astype(np.uint8)


def random_full_rank(
    rng: np.random.Generator, nrows: int, ncols: int, max_tries: int = 1000
) -> np.ndarray:
    """Sample a random ``nrows x ncols`` GF(2) matrix of full row rank."""
    if nrows > ncols:
        raise ValueError("cannot have row rank exceeding column count")
    for _ in range(max_tries):
        mat = rng.integers(0, 2, size=(nrows, ncols), dtype=np.uint8)
        if rank(mat) == nrows:
            return mat
    raise RuntimeError("failed to sample a full-rank matrix")
