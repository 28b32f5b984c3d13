"""Compiled bit-plane kernels for the batched engine's hot loops.

Profiling the batched engine (``repro.sim.sampler``) shows the remaining
wall-clock is NumPy *dispatch*, not arithmetic: one segment application
is a handful of ufunc calls, the fault image is a buffered
``bitwise_xor.at``, and the residual-weight path broadcasts a ``(rows,
span, n)`` uint8 cube just to count bits. Each of those is a few
microseconds of work behind ufunc setup — multiplied by segments ×
strata × sweep points.

This module holds the three hot loops as **fused kernels**, each in two
line-for-line parallel implementations behind one dispatch:

* a ``numba.njit`` version (``nopython``, ``nogil``) used when numba is
  importable — the *raw-speed tier*; and
* a pure-NumPy twin with the identical call signature and semantics,
  used when it is not — the honest fallback, exercised by the same test
  suite so the two can never drift.

The kernels:

``apply_segment``
    One pass over the packed uint64 shot-word planes: the F2-linear
    segment map (the segment's CSR over frame + bit components), the
    fault XOR (each fault row's masked shot words into its component),
    and the mask merge (``(new & mask) | (old & ~mask)`` for frame
    components, ``new & mask`` for measured bits) — what the NumPy
    engine does with a gather, a ``reduceat`` and the mask ops.

``coset_weights``
    Stabilizer-coset weight minimization over *packed* words:
    ``min_g popcount(row ^ g)`` with both the rows and the span packed 8
    bits per byte (64 per word), instead of the uint8 broadcast cube of
    :meth:`repro.pauli.group.CosetReducer.coset_weights_batch`.

``toggle_bits``
    The fault-image builder: ``image[position] ^= bit`` for every
    (fault component, shot) entry of a batch — ``np.bitwise_xor.at`` is
    a buffered ufunc loop; the kernel is the plain loop.

:class:`~repro.sim.sampler.KernelSampler` (``engine="kernel"``) routes
the batched engine through these dispatchers and is cross-validated
bit-for-bit against :class:`~repro.sim.sampler.BatchedSampler` exactly
as the batched engine is validated against the per-shot reference —
on every catalog code and every routed consumer (``tests/sim/
test_kernels.py``). ``engine="auto"`` picks the kernel tier when numba
is importable and falls back to plain batched otherwise, so a
numba-free interpreter never errors and never silently changes results.

Numba is an *optional* dependency (``pip install repro[fast]``): nothing
in this module imports it at call time when it is absent, and the
compiled functions are cached per process after the first call.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NUMBA_AVAILABLE",
    "available",
    "backend_name",
    "apply_segment",
    "coset_weights",
    "toggle_bits",
    "pack_rows",
]

try:  # optional, baked images ship without it — the NumPy twins serve
    import numba as _numba
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - environment-dependent
    _numba = None
    NUMBA_AVAILABLE = False


def available() -> bool:
    """True when the compiled (numba) tier backs the dispatchers."""
    return NUMBA_AVAILABLE


def backend_name() -> str:
    """``"numba"`` or ``"numpy"`` — which twin the dispatchers call."""
    return "numba" if NUMBA_AVAILABLE else "numpy"


# -- packing helpers (shared by both twins) ------------------------------------


def pack_rows(mat: np.ndarray) -> np.ndarray:
    """(R, n) uint8 0/1 matrix -> (R, ceil(n/64)) uint64 words.

    Bit order within a word is an internal convention: both operands of
    every XOR/popcount below are packed by this same function, and
    popcounts are bit-order invariant, so only consistency matters.
    Padding bits are zero on both sides and cancel under XOR.
    """
    packed = np.packbits(mat, axis=1)
    rows, num_bytes = packed.shape
    padded_bytes = -(-num_bytes // 8) * 8
    if padded_bytes != num_bytes:
        out = np.zeros((rows, padded_bytes), dtype=np.uint8)
        out[:, :num_bytes] = packed
        packed = out
    return np.ascontiguousarray(packed).view(np.uint64)


# -- NumPy twins ---------------------------------------------------------------
#
# Same signatures, same in-place contracts as the njit versions; the
# fallback tier and the semantic reference the kernel tests pin the
# compiled versions against.


def _np_apply_segment(
    incoming: np.ndarray,  # (frame_components, words) uint64, read-only
    indptr: np.ndarray,  # (components + 1,) int64 CSR pointers
    indices: np.ndarray,  # (nnz,) int64 incoming-component ids
    frame_components: int,  # components < this merge against `incoming`
    fault_rows: np.ndarray,  # (fault_nnz,) int64 fault-batch row ids
    fault_cols: np.ndarray,  # (fault_nnz,) int64 signature component ids
    fault_masks: np.ndarray,  # (faults, words) uint64 per-fault shot masks
    mask: np.ndarray,  # (words,) uint64 shots this application touches
    out: np.ndarray,  # (components, words) uint64, zero-initialized
) -> None:
    components = indptr.shape[0] - 1
    for component in range(components):
        lo = int(indptr[component])
        hi = int(indptr[component + 1])
        if hi == lo:
            continue
        if hi - lo == 1:
            out[component] = incoming[indices[lo]]
        else:
            out[component] = np.bitwise_xor.reduce(
                incoming[indices[lo:hi]], axis=0
            )
    if fault_cols.size:
        np.bitwise_xor.at(out, fault_cols, fault_masks[fault_rows] & mask)
    keep = ~mask
    out[:frame_components] &= mask
    out[:frame_components] |= incoming[:frame_components] & keep
    out[frame_components:] &= mask


def _np_coset_weights(rows: np.ndarray, span: np.ndarray) -> np.ndarray:
    """``min_g popcount(rows[r] ^ span[g])`` over packed uint64 words."""
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    out = np.empty(rows.shape[0], dtype=np.int64)
    # Bound the (block, span, words) popcount cube to ~32 MiB.
    block = max(1, (1 << 22) // max(1, span.shape[0] * span.shape[1]))
    for lo in range(0, rows.shape[0], block):
        chunk = rows[lo : lo + block]
        counts = np.bitwise_count(chunk[:, None, :] ^ span[None, :, :])
        out[lo : lo + block] = (
            counts.sum(axis=2, dtype=np.int64).min(axis=1)
        )
    return out


def _np_toggle_bits(
    image: np.ndarray,  # (size,) uint64, written in place
    positions: np.ndarray,  # (entries,) intp word position per entry
    bits: np.ndarray,  # (entries,) uint64 bit value per entry
) -> None:
    np.bitwise_xor.at(image, positions, bits)


# -- numba twins ---------------------------------------------------------------

if NUMBA_AVAILABLE:
    _U64_1 = np.uint64(0x5555555555555555)
    _U64_2 = np.uint64(0x3333333333333333)
    _U64_4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    _U64_P = np.uint64(0x0101010101010101)
    _U64_ZERO = np.uint64(0)
    _U64_ONE = np.uint64(1)
    _U64_TWO = np.uint64(2)
    _U64_FOUR = np.uint64(4)
    _U64_56 = np.uint64(56)

    @_njit(cache=True, nogil=True)
    def _popcount64(word):  # pragma: no cover - needs numba
        word = word - ((word >> _U64_ONE) & _U64_1)
        word = (word & _U64_2) + ((word >> _U64_TWO) & _U64_2)
        word = (word + (word >> _U64_FOUR)) & _U64_4
        return (word * _U64_P) >> _U64_56

    @_njit(cache=True, nogil=True)
    def _nb_apply_segment(
        incoming,
        indptr,
        indices,
        frame_components,
        fault_rows,
        fault_cols,
        fault_masks,
        mask,
        out,
    ):  # pragma: no cover - needs numba
        components = indptr.shape[0] - 1
        words = incoming.shape[1]
        for component in range(components):
            lo = indptr[component]
            hi = indptr[component + 1]
            for word in range(words):
                acc = _U64_ZERO
                for entry in range(lo, hi):
                    acc ^= incoming[indices[entry], word]
                out[component, word] = acc
        for entry in range(fault_cols.shape[0]):
            component = fault_cols[entry]
            row = fault_rows[entry]
            for word in range(words):
                out[component, word] ^= fault_masks[row, word] & mask[word]
        for component in range(components):
            if component < frame_components:
                for word in range(words):
                    out[component, word] = (
                        out[component, word] & mask[word]
                    ) | (incoming[component, word] & ~mask[word])
            else:
                for word in range(words):
                    out[component, word] &= mask[word]

    @_njit(cache=True, nogil=True)
    def _nb_coset_weights(rows, span):  # pragma: no cover - needs numba
        num_rows = rows.shape[0]
        num_span = span.shape[0]
        words = rows.shape[1]
        out = np.empty(num_rows, dtype=np.int64)
        for row in range(num_rows):
            best = np.int64(64 * words + 1)
            for member in range(num_span):
                weight = np.int64(0)
                for word in range(words):
                    weight += np.int64(
                        _popcount64(rows[row, word] ^ span[member, word])
                    )
                    if weight >= best:
                        break
                if weight < best:
                    best = weight
                    if best == 0:
                        break
            out[row] = best
        return out

    @_njit(cache=True, nogil=True)
    def _nb_toggle_bits(image, positions, bits):  # pragma: no cover - needs numba
        for entry in range(positions.shape[0]):
            image[positions[entry]] ^= bits[entry]


# -- dispatch ------------------------------------------------------------------


def apply_segment(
    incoming: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    frame_components: int,
    fault_rows: np.ndarray,
    fault_cols: np.ndarray,
    fault_masks: np.ndarray,
    mask: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fused segment application over packed planes (writes ``out``).

    ``out[c] = XOR(incoming[indices[indptr[c]:indptr[c+1]]])``, XORed
    with every fault whose signature touches component ``c`` (masked by
    that fault's shot mask *and* the application mask), then merged:
    frame components (``c < frame_components``) keep the incoming words
    outside ``mask``; measured-bit components are zeroed there.
    """
    if NUMBA_AVAILABLE:
        _nb_apply_segment(
            incoming,
            indptr,
            indices,
            frame_components,
            fault_rows,
            fault_cols,
            fault_masks,
            mask,
            out,
        )
    else:
        _np_apply_segment(
            incoming,
            indptr,
            indices,
            frame_components,
            fault_rows,
            fault_cols,
            fault_masks,
            mask,
            out,
        )


def coset_weights(mat: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Coset weight of each row of ``mat`` against ``span``, deduped.

    ``mat`` is the unpacked (rows, n) uint8 residual-plane matrix and
    ``span`` the reducer's materialized group span (members, n) —
    i.e. :meth:`CosetReducer.coset_weights_dedup` semantics: each
    *distinct* row is minimized once over the packed span, then the
    result is scattered back to all rows.
    """
    mat = np.ascontiguousarray(mat, dtype=np.uint8)
    if mat.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    packed = np.packbits(mat, axis=1)
    unique_rows, inverse = np.unique(packed, axis=0, return_inverse=True)
    rows64 = pack_rows(
        np.unpackbits(unique_rows, axis=1, count=mat.shape[1])
    )
    span64 = pack_rows(np.ascontiguousarray(span, dtype=np.uint8))
    if NUMBA_AVAILABLE:
        weights = _nb_coset_weights(rows64, span64)
    else:
        weights = _np_coset_weights(rows64, span64)
    return weights[inverse.ravel()]


def toggle_bits(image: np.ndarray, positions: np.ndarray, bits: np.ndarray) -> None:
    """``image[positions[e]] ^= bits[e]`` in place, for every entry."""
    if NUMBA_AVAILABLE:
        _nb_toggle_bits(
            image,
            np.ascontiguousarray(positions, dtype=np.int64),
            np.ascontiguousarray(bits, dtype=np.uint64),
        )
    else:
        _np_toggle_bits(image, positions, bits)
