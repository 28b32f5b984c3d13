"""Randomized discovery of CSS codes with prescribed ``[[n, k, d]]``.

The paper draws its ``[[11,1,3]]`` and ``[[16,2,4]]`` instances from Grassl's
CSS code tables, and the Carbon ``[[12,2,4]]`` code from a hardware
demonstration. Those exact check matrices are not available offline, so this
module finds codes with the same parameters by seeded randomized search:
sample a full-rank ``Hx``, choose ``Hz`` inside ``ker(Hx)``, and accept when
both distances meet the target. Because the synthesis method under study is
automatic for *any* CSS code, parameter-equivalent instances preserve the
evaluation (documented in docs/architecture.md, "Substitutions and
modelling choices").

The search is deterministic given the seed; `catalog.py` pins the matrices it
found so that users never pay the search cost.
"""

from __future__ import annotations

import numpy as np

from ..pauli.symplectic import as_bit_matrix, kernel, rank, span_matrix
from .css import CSSCode

__all__ = ["find_css_code", "find_self_dual_css_code", "SearchFailure"]


class SearchFailure(RuntimeError):
    """Raised when no code with the requested parameters was found."""


def find_css_code(
    n: int,
    k: int,
    d: int,
    *,
    rx: int | None = None,
    seed: int = 0,
    max_tries: int = 200_000,
    max_row_weight: int | None = None,
    name: str | None = None,
) -> CSSCode:
    """Search for an ``[[n, k, d]]`` CSS code (distance exactly checked).

    Parameters
    ----------
    rx:
        Number of X stabilizer generators; defaults to a balanced split
        ``(n - k) // 2`` (the remainder goes to Z).
    max_row_weight:
        Optional cap on generator weights, biasing toward LDPC-ish codes and
        cheaper measurement circuits.
    """
    m = n - k
    if rx is None:
        rx = m // 2
    rz = m - rx
    rng = np.random.default_rng(seed)
    for attempt in range(max_tries):
        hx = _sample_check_matrix(rng, rx, n, max_row_weight)
        if hx is None or rank(hx) != rx:
            continue
        ker = kernel(hx)  # dim n - rx >= rz
        hz = _sample_subspace(rng, ker, rz, max_row_weight)
        if hz is None:
            continue
        code = CSSCode(name or f"search[[{n},{k},{d}]]", hx, hz)
        if code.k != k:
            continue
        if code.z_distance() < d or code.x_distance() < d:
            continue
        if code.distance() != d:
            continue
        code.validate()
        return code
    raise SearchFailure(
        f"no [[{n},{k},{d}]] CSS code found in {max_tries} tries (seed={seed})"
    )


def find_self_dual_css_code(
    n: int,
    k: int,
    d: int,
    *,
    row_weight: int = 4,
    seed: int = 0,
    max_tries: int = 500_000,
    name: str | None = None,
) -> CSSCode:
    """Search for a self-dual CSS code (``Hx == Hz``) with given parameters.

    Builds the common check matrix row by row, keeping only rows of weight
    ``row_weight`` that are orthogonal to all previous rows (self-duality
    needs ``H @ H.T == 0``), then checks the distance by enumerating the dual
    space. Self-dual structure matches e.g. the Carbon code [19] and shrinks
    the search space enormously compared to unconstrained sampling.
    """
    m = (n - k) // 2
    if 2 * m != n - k:
        raise ValueError("self-dual CSS needs n - k even")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        h = _sample_self_orthogonal(rng, m, n, row_weight)
        if h is None:
            continue
        if _self_dual_distance(h) != d:
            continue
        code = CSSCode(name or f"search[[{n},{k},{d}]]", h, h.copy())
        code.validate()
        if code.parameters() != (n, k, d):
            continue
        return code
    raise SearchFailure(
        f"no self-dual [[{n},{k},{d}]] found in {max_tries} tries (seed={seed})"
    )


def _sample_self_orthogonal(rng, nrows, ncols, row_weight):
    """Incrementally sample ``nrows`` mutually orthogonal even-weight rows."""
    rows: list[np.ndarray] = []
    for _ in range(nrows):
        for _ in range(200):
            support = rng.choice(ncols, size=row_weight, replace=False)
            row = np.zeros(ncols, dtype=np.uint8)
            row[support] = 1
            if all(int((row & prev).sum()) % 2 == 0 for prev in rows):
                candidate = np.array(rows + [row], dtype=np.uint8)
                if rank(candidate) == len(rows) + 1:
                    rows.append(row)
                    break
        else:
            return None
    return np.array(rows, dtype=np.uint8)


def _self_dual_distance(h: np.ndarray) -> int:
    """``min wt(C_perp \\ C)`` for ``C = rowspan(h)`` with ``C`` self-orthogonal."""
    dual = span_matrix(kernel(h))
    own = span_matrix(h)
    own_set = {row.tobytes() for row in own}
    weights = dual.sum(axis=1)
    best = h.shape[1] + 1
    for row, weight in zip(dual, weights):
        if 0 < weight < best and row.tobytes() not in own_set:
            best = int(weight)
    return best


def _sample_check_matrix(rng, nrows, ncols, max_row_weight):
    mat = rng.integers(0, 2, size=(nrows, ncols), dtype=np.uint8)
    if max_row_weight is not None:
        for i in range(nrows):
            while mat[i].sum() > max_row_weight:
                support = np.nonzero(mat[i])[0]
                mat[i, rng.choice(support)] = 0
    if not all(mat.sum(axis=1) >= 2):
        return None
    return mat


def _sample_subspace(rng, basis, nrows, max_row_weight):
    """Pick ``nrows`` independent random combinations of ``basis`` rows."""
    basis = as_bit_matrix(basis)
    dim = basis.shape[0]
    if dim < nrows:
        return None
    for _ in range(20):
        coeffs = rng.integers(0, 2, size=(nrows, dim), dtype=np.uint8)
        if rank(coeffs) != nrows:
            continue
        hz = coeffs @ basis % 2
        hz = hz.astype(np.uint8)
        if max_row_weight is not None and (hz.sum(axis=1) > max_row_weight).any():
            continue
        if (hz.sum(axis=1) < 2).any():
            continue
        return hz
    return None
