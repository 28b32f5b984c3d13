"""Batched, bit-packed Pauli-frame sampling engines (the Monte-Carlo hot path).

The per-shot :class:`~repro.sim.frame.ProtocolRunner` walks the instruction
list once per fault configuration, paying Python-interpreter cost for every
instruction of every shot. But the Pauli-frame semantics are *F2-linear*:
within one segment (prep, a verification layer, or a correction branch —
the units between which the Fig. 3 decision tree branches) the outgoing
frame and every recorded measurement flip are XORs of

* a fixed linear image of the incoming frame, and
* a fixed signature per injected fault draw.

:class:`CompiledProtocol` therefore compiles each segment once into

one CSR over its outgoing components (frame wires, then measured bits):
row ``c`` lists the incoming components whose XOR produces component
``c``. Both it and every fault draw's signature (the components the draw
flips at segment end) come from one ``core.faults.propagate_all_faults``
sweep of the segment. The components of all segments share one
protocol-wide numbering.

:class:`BatchedSampler` then executes *all shots at once*: the frame of
shot ``s`` lives in bit ``s`` of packed ``uint64`` words. On its first
indexed batch an engine gathers every (location, draw) signature into one
component-major table (per component, the pairs that flip it); each batch
then turns into one packed *fault image* — row ``c``, bit ``s`` is the
parity of shot ``s``'s faults that flip component ``c`` — as a GF(2)
product: one packed shot mask per pair, XOR-scattered from the draws,
then one ``bitwise_xor.reduceat`` of the masks over the table. One
segment application is then one gather, one ``bitwise_xor.reduceat`` over
the segment CSR, one XOR of the segment's fault-image rows and one mask
merge, instead of ``shots × instructions`` dict updates. The judge reads
the packed data X plane directly (``LogicalJudge.failure_mask``). Branch
divergence is handled with per-shot masks — each branch segment is
applied only to the shots whose verification signature selects it, which
is exactly the reference runner's control flow evaluated in parallel.

Every engine call takes one *indexed batch*: ``(shots, k)`` arrays
``loc_idx`` / ``draw_idx`` naming, per shot, each fault's location and its
draw in the location's ``fault_draws`` table (``loc_idx == -1`` slots carry
no fault). :class:`ReferenceSampler` expands the same arrays into per-shot
injection dicts (``noise.materialize_stratum``) and walks the per-shot
runner, so every consumer can switch engines with one argument
(``engine="batched" | "reference"``). Given the same batch, the batched
engine reproduces the reference runner **bit-for-bit**: same data frame,
same recorded flips, same branches, same termination — the
cross-validation suite asserts this on enumerated and random fault sets.

Packing convention: bit ``s`` of word ``s // 64`` (little bit order), so
byte-level views match ``np.packbits(..., bitorder="little")`` on
little-endian hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..circuits.circuit import Circuit
from ..core.faults import propagate_all_faults
from ..core.protocol import DeterministicProtocol
from .frame import ProtocolRunner, RunResult, protocol_locations
from .logical import LogicalJudge
from .noise import draw_counts, materialize_stratum

__all__ = [
    "CompiledSegment",
    "CompiledProtocol",
    "BatchResult",
    "BatchedSampler",
    "ReferenceSampler",
    "make_sampler",
]

_WORD = np.uint64
_ONE = np.uint64(1)
#: Words of pair masks one fault-image gather may hold (1 MiB).
_GATHER_WORDS = 1 << 17


# -- bit packing --------------------------------------------------------------


def _num_words(num_shots: int) -> int:
    return (num_shots + 63) // 64


def _pack_flags(flags: np.ndarray, words: int) -> np.ndarray:
    """(S,) 0/1 array -> (words,) uint64, bit s of word s//64 = shot s."""
    packed = np.packbits(np.asarray(flags, dtype=np.uint8), bitorder="little")
    out = np.zeros(words * 8, dtype=np.uint8)
    out[: packed.size] = packed
    return out.view(_WORD)


def _unpack_words(packed: np.ndarray, num_shots: int) -> np.ndarray:
    """(words,) uint64 -> (S,) uint8 of the low ``num_shots`` bits."""
    return np.unpackbits(
        np.ascontiguousarray(packed).view(np.uint8),
        bitorder="little",
        count=num_shots,
    )


# -- compilation --------------------------------------------------------------


class CompiledSegment:
    """F2-linear form of one protocol segment.

    The linear map is one CSR over ``2 * num_wires + len(bit_names)``
    outgoing components (x wires, then z wires, then the measured bits
    in ``bit_names`` order — the columns of the segment's
    ``propagate_all_faults`` table): row ``c``
    (``indices[indptr[c]:indptr[c+1]]``) lists the incoming components (x
    wires first, then z wires) whose XOR yields component ``c``;
    ``row_starts`` / ``nonempty`` are the ``reduceat`` offsets and ids of
    the rows with at least one entry. ``signatures`` holds the table's
    fault rows. ``offset`` places the segment's components in the
    protocol-wide numbering of :class:`CompiledProtocol`.
    """

    def __init__(self, key: tuple, circuit: Circuit, num_wires: int, offset: int):
        self.key = key
        self.offset = offset
        self.circuit = circuit
        self.num_wires = num_wires
        table = propagate_all_faults(circuit)
        self.bit_names = list(table.bits)
        self.signatures = table.matrix
        # Row c lists the incoming components whose image flips c.
        outgoing, self.indices = np.nonzero(table.inputs.T)
        counts = np.bincount(outgoing, minlength=table.inputs.shape[1])
        self.num_components = counts.size
        self.indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        self.nonempty = np.flatnonzero(counts)
        self.row_starts = self.indptr[self.nonempty]


class CompiledProtocol:
    """All segments of a protocol in compiled F2-linear form.

    Also holds the static location universe the indexed batches address.
    The segments' components are numbered protocol-wide, each segment's
    from its ``offset``, ``num_components`` in all.

    A bit name measured in two segments is a ``ValueError``: the per-shot
    runner XORs every outcome recorded under one name, while the packed
    state overwrites a name's row in each segment that measures it (within
    one segment the sweep XORs them too). Synthesis never repeats a name.
    """

    def __init__(self, protocol: DeterministicProtocol):
        self.protocol = protocol
        self.num_wires = protocol.num_wires
        self.segments: dict[tuple, CompiledSegment] = {}
        self.num_components = 0
        self._add(("prep",), protocol.prep_segment)
        for li, layer in enumerate(protocol.layers):
            self._add(("verif", li), layer.circuit)
            for signature, branch in layer.branches.items():
                self._add(("branch", li, signature), branch.circuit)
        seen: dict[str, tuple] = {}
        for key, segment in self.segments.items():
            for bit in segment.bit_names:
                if bit in seen:
                    raise ValueError(
                        f"measurement bit {bit!r} is recorded in segment {seen[bit]} "
                        f"and again in {key}; every measurement needs its own name"
                    )
                seen[bit] = key
        self.locations = protocol_locations(protocol)

    def _add(self, key: tuple, circuit: Circuit) -> None:
        segment = CompiledSegment(key, circuit, self.num_wires, self.num_components)
        self.segments[key] = segment
        self.num_components += segment.num_components


# -- batched execution --------------------------------------------------------


@dataclass
class BatchResult:
    """Unpacked outcomes of a batch of protocol executions.

    Mirrors :class:`~repro.sim.frame.RunResult` field-for-field across the
    shot axis; :meth:`result` rebuilds the per-shot view for
    cross-validation against the reference runner.

    The batched engine additionally attaches the *packed* residual planes
    (``x_words`` / ``z_words``: data wire-major ``(n, words)`` uint64, bit
    ``s`` = shot ``s``), which ``LogicalJudge.failure_mask`` reads without
    a per-shot round trip.
    """

    num_shots: int
    n: int
    data_x: np.ndarray  # (shots, n) uint8
    data_z: np.ndarray  # (shots, n) uint8
    terminated: np.ndarray  # (shots,) bool
    flips: dict[str, np.ndarray] = field(default_factory=dict)  # bit -> (shots,) uint8
    branches_taken: list[list[tuple[int, tuple, tuple]]] = field(default_factory=list)
    x_words: np.ndarray | None = None  # (n, words) uint64 packed plane
    z_words: np.ndarray | None = None

    def result(self, shot: int) -> RunResult:
        """Per-shot view, shaped like ``ProtocolRunner.run`` output."""
        return RunResult(
            data_x=self.data_x[shot].copy(),
            data_z=self.data_z[shot].copy(),
            flips={
                bit: int(values[shot])
                for bit, values in self.flips.items()
                if values[shot]
            },
            branches_taken=list(self.branches_taken[shot]),
            terminated_early=bool(self.terminated[shot]),
        )


class _PackedState:
    """Mutable packed execution state of one batch; ``frame`` holds the x
    wires, then the z wires (the segment CSR's incoming components)."""

    def __init__(self, num_wires: int, num_shots: int):
        self.num_shots = num_shots
        self.num_wires = num_wires
        self.words = _num_words(num_shots)
        self.frame = np.zeros((2 * num_wires, self.words), dtype=_WORD)
        self.bits: dict[str, np.ndarray] = {}
        self.alive = _pack_flags(np.ones(num_shots, dtype=np.uint8), self.words)
        self.terminated = np.zeros(self.words, dtype=_WORD)
        self.branch_records: list[tuple[int, tuple, tuple, np.ndarray]] = []

    @property
    def x(self) -> np.ndarray:
        return self.frame[: self.num_wires]

    @property
    def z(self) -> np.ndarray:
        return self.frame[self.num_wires :]

    def bit(self, name: str) -> np.ndarray:
        values = self.bits.get(name)
        if values is None:
            values = np.zeros(self.words, dtype=_WORD)
        return values


class BatchedSampler:
    """Executes whole strata of fault configurations as packed word ops.

    Parameters
    ----------
    protocol:
        The synthesized protocol; compiled once at construction.
    judge:
        Failure judge (defaults to :class:`LogicalJudge` of the code).
    """

    name = "batched"

    def __init__(self, protocol: DeterministicProtocol, judge: LogicalJudge | None = None):
        self.protocol = protocol
        self.judge = judge if judge is not None else LogicalJudge(protocol.code)
        self.compiled = CompiledProtocol(protocol)
        self.n = protocol.code.n
        self.locations = self.compiled.locations
        # Pair ids number the (location, draw) pairs location-major.
        counts = draw_counts(self.locations)
        self._pair_starts = np.cumsum(counts) - counts
        self._num_pairs = int(counts.sum())
        self._signature_table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- public API ----------------------------------------------------------

    def run_indexed(self, loc_idx: np.ndarray, draw_idx: np.ndarray) -> BatchResult:
        """Execute one indexed batch; returns full per-shot observables."""
        state = self._execute_indexed(loc_idx, draw_idx)
        num_shots = state.num_shots
        data_x = self._unpack_data(state.x, num_shots)
        data_z = self._unpack_data(state.z, num_shots)
        flips = {
            bit: _unpack_words(values, num_shots)
            for bit, values in state.bits.items()
        }
        branches: list[list[tuple[int, tuple, tuple]]] = [[] for _ in range(num_shots)]
        for li, b, f, mask in state.branch_records:
            for shot in np.nonzero(_unpack_words(mask, num_shots))[0]:
                branches[shot].append((li, b, f))
        return BatchResult(
            num_shots=num_shots,
            n=self.n,
            data_x=data_x,
            data_z=data_z,
            terminated=_unpack_words(state.terminated, num_shots).astype(bool),
            flips=flips,
            branches_taken=branches,
            x_words=state.x[: self.n].copy(),
            z_words=state.z[: self.n].copy(),
        )

    def failures_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray
    ) -> np.ndarray:
        """Logical-failure verdict per shot (the Monte-Carlo fast path).

        ``loc_idx`` / ``draw_idx`` are ``(shots, k)`` arrays from
        :func:`repro.sim.noise.sample_injections_stratum` (or the masked
        variable-weight arrays of ``sample_injections_model_batch``, where
        ``loc_idx == -1`` slots carry no fault); every fault's signature
        lands in one packed fault image with a few array ops.
        """
        num_shots = loc_idx.shape[0]
        if num_shots == 0:
            return np.zeros(0, dtype=bool)
        state = self._execute_image(self._image_indexed(loc_idx, draw_idx), num_shots)
        return self.judge.failure_mask(state.x[: self.n], num_shots)

    def residual_weights_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray, x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot stabilizer-reduced residual weights (both planes).

        The certificate fast path (Definition 1): execute the whole batch
        packed, then reduce each *distinct* residual pattern once per plane.
        Returns ``(x_weights, z_weights)``, both ``(shots,)`` int64.
        """
        state = self._execute_indexed(loc_idx, draw_idx)
        return (
            x_reducer.coset_weights_dedup(self._unpack_data(state.x, state.num_shots)),
            z_reducer.coset_weights_dedup(self._unpack_data(state.z, state.num_shots)),
        )

    # -- execution -----------------------------------------------------------

    def _signatures(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(nonempty, row_starts, pairs)``: the component-major signature
        table. ``pairs`` lists, component by component, the ids of the
        (location, draw) pairs whose signature flips it; ``row_starts``
        are the ``reduceat`` offsets of the components ``nonempty`` that
        any pair flips. A segment's ``signatures`` rows are its
        locations' draws in order, so one ``np.nonzero`` of
        ``signatures.T`` per segment fills it. Built on the first batch,
        so an engine that never runs one (a cluster coordinator's payload
        engine) never pays for it."""
        if self._signature_table is None:
            # A segment's fault rows are the pairs from its first location on.
            first_pair = {}
            for location, ((key, _), _, _) in enumerate(self.locations):
                first_pair.setdefault(key, self._pair_starts[location])
            components, pairs = [], []
            for key, segment in self.compiled.segments.items():
                if key in first_pair:
                    column, fault = np.nonzero(segment.signatures.T)
                    components.append(segment.offset + column)
                    pairs.append(first_pair[key] + fault)
            rows = np.bincount(
                np.concatenate(components), minlength=self.compiled.num_components
            )
            nonempty = np.flatnonzero(rows)
            row_starts = (np.cumsum(rows) - rows)[nonempty]
            self._signature_table = (nonempty, row_starts, np.concatenate(pairs))
        return self._signature_table

    def _image_pairs(
        self, shots: np.ndarray, pairs: np.ndarray, num_shots: int
    ) -> np.ndarray:
        """``(num_components, words)`` packed faults of the ``(shots[e],
        pairs[e])`` entries (pair ids): bit ``s`` of row ``c`` is set iff
        an odd number of shot ``s``'s faults have component ``c`` in their
        signature, so two identical draws in one shot cancel, as under the
        per-shot XOR semantics.

        A GF(2) product: one packed shot mask per pair, XOR-scattered from
        the entries, then each component's row is the XOR of the masks of
        the pairs that flip it."""
        nonempty, row_starts, table = self._signatures()
        words = _num_words(num_shots)
        masks = np.zeros(self._num_pairs * words, dtype=_WORD)
        bits = _ONE << (shots & 63).astype(np.uint64)
        np.bitwise_xor.at(masks, pairs * words + (shots >> 6), bits)
        masks = masks.reshape(-1, words)
        image = np.zeros((self.compiled.num_components, words), dtype=_WORD)
        # Blocks of words keep the gathered scratch under _GATHER_WORDS.
        block = max(1, _GATHER_WORDS // max(1, table.size))
        for lo in range(0, words, block):
            image[nonempty, lo : lo + block] = np.bitwise_xor.reduceat(
                masks[table, lo : lo + block], row_starts, axis=0
            )
        return image

    def _image_indexed(self, loc_idx: np.ndarray, draw_idx: np.ndarray) -> np.ndarray:
        """Fault image of an indexed batch (``loc_idx == -1`` slots skipped)."""
        num_shots, k = loc_idx.shape
        flat_loc = loc_idx.ravel()
        valid = flat_loc >= 0
        pairs = (self._pair_starts[flat_loc] + draw_idx.ravel())[valid]
        shots = np.repeat(np.arange(num_shots, dtype=np.intp), k)[valid]
        return self._image_pairs(shots, pairs, num_shots)

    def _unpack_data(self, packed: np.ndarray, num_shots: int) -> np.ndarray:
        bits = np.unpackbits(
            np.ascontiguousarray(packed[: self.n]).view(np.uint8),
            axis=1,
            bitorder="little",
            count=num_shots,
        )
        return np.ascontiguousarray(bits.T)

    def _execute_indexed(self, loc_idx: np.ndarray, draw_idx: np.ndarray) -> _PackedState:
        num_shots = loc_idx.shape[0]
        if num_shots == 0:
            return _PackedState(self.compiled.num_wires, num_shots)
        return self._execute_image(self._image_indexed(loc_idx, draw_idx), num_shots)

    def _execute_image(self, faults: np.ndarray, num_shots: int) -> _PackedState:
        state = _PackedState(self.compiled.num_wires, num_shots)
        protocol = self.protocol
        self._apply_segment(state, ("prep",), state.alive, faults)
        for li, layer in enumerate(protocol.layers):
            self._apply_segment(state, ("verif", li), state.alive, faults)
            b_values = [state.bit(bit) for bit in layer.bits]
            f_values = [state.bit(bit) for bit in layer.flag_bits]
            for signature, branch in sorted(layer.branches.items()):
                mask = self._signature_mask(
                    state.alive, b_values, f_values, signature
                )
                if not mask.any():
                    continue
                b, f = signature
                state.branch_records.append((li, b, f, mask))
                self._apply_segment(state, ("branch", li, signature), mask, faults)
                self._apply_recoveries(state, branch, mask)
                if branch.terminate:
                    state.terminated |= mask
                    state.alive &= ~mask
        return state

    @staticmethod
    def _signature_mask(alive, b_values, f_values, signature) -> np.ndarray:
        b, f = signature
        mask = alive.copy()
        for values, want in zip(b_values, b):
            mask &= values if want else ~values
        for values, want in zip(f_values, f):
            mask &= values if want else ~values
        return mask

    def _apply_recoveries(self, state: _PackedState, branch, mask: np.ndarray) -> None:
        syndrome_values = [state.bit(m.bit) for m in branch.measurements]
        target = state.x if branch.recovery_kind == "X" else state.z
        for syndrome, recovery in branch.recoveries.items():
            recovery_mask = mask.copy()
            for values, want in zip(syndrome_values, syndrome):
                recovery_mask &= values if want else ~values
            if not recovery_mask.any():
                continue
            for wire in np.nonzero(recovery)[0]:
                target[wire] ^= recovery_mask

    def _apply_segment(
        self,
        state: _PackedState,
        segment_key: tuple,
        mask: np.ndarray,
        faults: np.ndarray,
    ) -> None:
        segment = self.compiled.segments[segment_key]
        incoming = state.frame
        out = faults[segment.offset : segment.offset + segment.num_components].copy()
        if segment.row_starts.size:
            out[segment.nonempty] ^= np.bitwise_xor.reduceat(
                incoming[segment.indices], segment.row_starts, axis=0
            )
        out &= mask
        frame_rows = incoming.shape[0]
        state.frame = out[:frame_rows] | (incoming & ~mask)
        state.bits.update(zip(segment.bit_names, out[frame_rows:]))


# -- reference wrapper --------------------------------------------------------


class ReferenceSampler:
    """The per-shot oracle behind the same indexed interface as the
    batched engine.

    Expands each indexed batch into per-shot injection dicts
    (``noise.materialize_stratum``) and runs every shot through
    :class:`~repro.sim.frame.ProtocolRunner` + :class:`LogicalJudge` — the
    independent reference the batched engine is cross-validated against.
    """

    name = "reference"

    def __init__(self, protocol: DeterministicProtocol, judge: LogicalJudge | None = None):
        self.protocol = protocol
        self.judge = judge if judge is not None else LogicalJudge(protocol.code)
        self.runner = ProtocolRunner(protocol)
        self.n = protocol.code.n
        self.locations = protocol_locations(protocol)

    def _runs(self, loc_idx: np.ndarray, draw_idx: np.ndarray) -> Iterator[RunResult]:
        for injections in materialize_stratum(self.locations, loc_idx, draw_idx):
            yield self.runner.run(injections)

    def run_indexed(self, loc_idx: np.ndarray, draw_idx: np.ndarray) -> BatchResult:
        results = list(self._runs(loc_idx, draw_idx))
        num_shots = len(results)
        data_x = np.zeros((num_shots, self.n), dtype=np.uint8)
        data_z = np.zeros((num_shots, self.n), dtype=np.uint8)
        terminated = np.zeros(num_shots, dtype=bool)
        flips: dict[str, np.ndarray] = {}
        branches: list[list[tuple[int, tuple, tuple]]] = []
        for shot, result in enumerate(results):
            data_x[shot] = result.data_x
            data_z[shot] = result.data_z
            terminated[shot] = result.terminated_early
            branches.append(list(result.branches_taken))
            for bit, value in result.flips.items():
                if value:
                    flips.setdefault(
                        bit, np.zeros(num_shots, dtype=np.uint8)
                    )[shot] = 1
        return BatchResult(
            num_shots=num_shots,
            n=self.n,
            data_x=data_x,
            data_z=data_z,
            terminated=terminated,
            flips=flips,
            branches_taken=branches,
        )

    def failures_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray
    ) -> np.ndarray:
        return np.fromiter(
            (
                self.judge.is_logical_failure(result)
                for result in self._runs(loc_idx, draw_idx)
            ),
            dtype=bool,
            count=loc_idx.shape[0],
        )

    def residual_weights_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray, x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot residual weights — the certificate oracle path."""
        x_weights = np.zeros(loc_idx.shape[0], dtype=np.int64)
        z_weights = np.zeros(loc_idx.shape[0], dtype=np.int64)
        for shot, result in enumerate(self._runs(loc_idx, draw_idx)):
            x_weights[shot] = x_reducer.coset_weight(result.data_x)
            z_weights[shot] = z_reducer.coset_weight(result.data_z)
        return x_weights, z_weights


_ENGINES = {
    "batched": BatchedSampler,
    "reference": ReferenceSampler,
}


def make_sampler(
    protocol: DeterministicProtocol,
    *,
    engine: str = "batched",
    judge: LogicalJudge | None = None,
):
    """Engine factory: ``engine`` is ``"batched"`` or ``"reference"``.
    Every call compiles afresh; the compilation is deterministic, so two
    calls return functionally identical engines.
    """
    try:
        cls = _ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r} (expected one of "
            f"{sorted(_ENGINES)})"
        ) from None
    return cls(protocol, judge=judge)
