"""The code catalog used in the paper's evaluation (Table I / Fig. 4).

Nine ``[[n, k, d < 5]]`` CSS code instances:

===========  ============  ===========================================
Name         Parameters    Source of the check matrices
===========  ============  ===========================================
steane       [[7, 1, 3]]   paper Example 1 (qubit labelling as given)
shor         [[9, 1, 3]]   Shor '95 two-level repetition construction
surface_3    [[9, 1, 3]]   rotated distance-3 surface code
11_1_3       [[11, 1, 3]]  seeded search stand-in (see end)
tetrahedral  [[15, 1, 3]]  punctured quantum Reed-Muller QRM(15)
hamming      [[15, 7, 3]]  classical [15,11,3] Hamming, self-dual CSS
carbon       [[12, 2, 4]]  seeded search stand-in (see end)
16_2_4       [[16, 2, 4]]  tesseract subcode via RM(2,4) extension
tesseract    [[16, 6, 4]]  RM(1,4) self-dual CSS construction
===========  ============  ===========================================

The search-found matrices are pinned as literals so that loading the catalog
never pays the discovery cost; `tests/codes/test_catalog.py` re-verifies all
parameters including distances. Why parameter-equivalent stand-ins preserve
the evaluation: docs/architecture.md, "Substitutions and modelling choices".
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .css import CSSCode

__all__ = [
    "CATALOG",
    "get_code",
    "steane_code",
    "shor_code",
    "surface_code_d3",
    "code_11_1_3",
    "tetrahedral_code",
    "hamming_code",
    "carbon_code",
    "code_16_2_4",
    "tesseract_code",
]


def _supports(n: int, supports: list[list[int]]) -> np.ndarray:
    mat = np.zeros((len(supports), n), dtype=np.uint8)
    for i, support in enumerate(supports):
        mat[i, support] = 1
    return mat


@lru_cache(maxsize=None)
def steane_code() -> CSSCode:
    """The [[7,1,3]] Steane code, qubit labelling from paper Example 1."""
    stabs = _supports(7, [[0, 1, 4, 5], [0, 2, 4, 6], [3, 4, 5, 6]])
    return CSSCode("Steane", stabs, stabs.copy())


@lru_cache(maxsize=None)
def shor_code() -> CSSCode:
    """The [[9,1,3]] Shor code: phase-flip over three bit-flip blocks."""
    hx = _supports(9, [[0, 1, 2, 3, 4, 5], [3, 4, 5, 6, 7, 8]])
    hz = _supports(9, [[0, 1], [1, 2], [3, 4], [4, 5], [6, 7], [7, 8]])
    return CSSCode("Shor", hx, hz)


@lru_cache(maxsize=None)
def surface_code_d3() -> CSSCode:
    """The rotated distance-3 surface code on a 3x3 grid (row-major qubits)."""
    hx = _supports(9, [[0, 1, 3, 4], [4, 5, 7, 8], [1, 2], [6, 7]])
    hz = _supports(9, [[1, 2, 4, 5], [3, 4, 6, 7], [0, 3], [5, 8]])
    return CSSCode("Surface_3", hx, hz)


@lru_cache(maxsize=None)
def tetrahedral_code() -> CSSCode:
    """The [[15,1,3]] tetrahedral (punctured quantum Reed-Muller) code.

    Qubit ``q`` corresponds to the non-zero 4-bit string ``q + 1``. X
    generators are the four degree-1 monomial supports (weight 8); Z
    generators add the six degree-2 monomial supports (weight 4).
    """
    def bit(value: int, j: int) -> int:
        return (value >> j) & 1

    x_rows = [
        [q for q in range(15) if bit(q + 1, j)] for j in range(4)
    ]
    z_rows = x_rows + [
        [q for q in range(15) if bit(q + 1, j) and bit(q + 1, l)]
        for j in range(4)
        for l in range(j + 1, 4)
    ]
    return CSSCode("Tetrahedral", _supports(15, x_rows), _supports(15, z_rows))


@lru_cache(maxsize=None)
def hamming_code() -> CSSCode:
    """The [[15,7,3]] quantum Hamming code (self-dual CSS)."""
    columns = np.array(
        [[(q + 1) >> j & 1 for q in range(15)] for j in range(4)],
        dtype=np.uint8,
    )
    return CSSCode("Hamming", columns, columns.copy())


@lru_cache(maxsize=None)
def tesseract_code() -> CSSCode:
    """The [[16,6,4]] tesseract code: self-dual CSS from RM(1,4)."""
    rows = [list(range(16))] + [
        [q for q in range(16) if (q >> j) & 1] for j in range(4)
    ]
    mat = _supports(16, rows)
    return CSSCode("Tesseract", mat, mat.copy())


@lru_cache(maxsize=None)
def code_16_2_4() -> CSSCode:
    """A [[16,2,4]] CSS code: tesseract extended by RM(2,4) generators.

    Adds the X generators ``x0 x1`` and ``x2 x3`` and the Z generators
    ``x0 x2`` and ``x1 x3`` to the RM(1,4) stabilizers; all cross products
    have even overlap, and the distance stays 4 (verified in tests). This is
    a deterministic stand-in for the paper's Grassl-table instance.
    """
    def monomial(bits: tuple[int, ...]) -> list[int]:
        return [q for q in range(16) if all((q >> j) & 1 for j in bits)]

    base = [list(range(16))] + [monomial((j,)) for j in range(4)]
    hx = _supports(16, base + [monomial((0, 1)), monomial((2, 3))])
    hz = _supports(16, base + [monomial((0, 2)), monomial((1, 3))])
    return CSSCode("[[16,2,4]]", hx, hz)


# -- pinned search results (regenerate with scripts/find_catalog_codes.py) ---

_CODE_11_1_3_HX = [
    "10101001000",
    "01011010101",
    "01110100010",
    "10010011100",
    "01001111000",
]
_CODE_11_1_3_HZ = [
    "11110100000",
    "11011000001",
    "10000101010",
    "00010110000",
    "00100101101",
]

# Both Carbon check matrices have odd-weight columns drawn from F2^5, which
# makes every <= 3-column subset linearly independent, so both distances are
# >= 4 by construction; the pairing satisfying Hx @ Hz.T = 0 was found by
# local search on the 25 orthogonality bits (scripts/find_catalog_codes.py).
_CARBON_HX = [
    "101110101000",
    "100010001111",
    "011001001101",
    "001111000110",
    "100101010011",
]
_CARBON_HZ = [
    "010100110011",
    "101110000011",
    "010010011101",
    "011001100110",
    "001110110100",
]


@lru_cache(maxsize=None)
def code_11_1_3() -> CSSCode:
    """An [[11,1,3]] CSS code (search stand-in for the Grassl instance)."""
    return CSSCode("[[11,1,3]]", _CODE_11_1_3_HX, _CODE_11_1_3_HZ)


@lru_cache(maxsize=None)
def carbon_code() -> CSSCode:
    """A [[12,2,4]] CSS code (search stand-in for the Carbon code [19])."""
    return CSSCode("Carbon", _CARBON_HX, _CARBON_HZ)


CATALOG = {
    "steane": steane_code,
    "shor": shor_code,
    "surface_3": surface_code_d3,
    "11_1_3": code_11_1_3,
    "tetrahedral": tetrahedral_code,
    "hamming": hamming_code,
    "carbon": carbon_code,
    "16_2_4": code_16_2_4,
    "tesseract": tesseract_code,
}


def get_code(name: str) -> CSSCode:
    """Look up a catalog code by name (see module docstring for the list)."""
    try:
        return CATALOG[name]()
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown code {name!r}; known codes: {known}") from None
