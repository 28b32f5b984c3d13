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

* ``out_rows`` — for each outgoing frame component, the list of incoming
  components whose XOR produces it (computed by symbolic propagation with
  integer bitmasks), and
* a cache of per-(location, draw) fault signatures (residual wires +
  flipped bits, computed by scalar propagation of the draw to segment end).

:class:`BatchedSampler` then executes *all shots at once*: the frame of
shot ``s`` lives in bit ``s`` of packed ``uint64`` words, so one segment
application is a handful of word-wide XOR reductions instead of
``shots × instructions`` dict updates. Branch divergence is handled with
per-shot masks — each branch segment is applied only to the shots whose
verification signature selects it, which is exactly the reference runner's
control flow evaluated in parallel.

Given the same per-shot injection dicts, the batched engine reproduces the
reference runner **bit-for-bit**: same data frame, same recorded flips,
same branches, same termination — the cross-validation suite asserts this
on enumerated and random fault sets. :class:`ReferenceSampler` wraps the
per-shot runner behind the same interface so every consumer can switch
engines with one argument (``engine="batched" | "kernel" | "reference" |
"auto"``). :class:`KernelSampler` is the raw-speed tier: the same
compiled form executed through the fused bit-plane kernels of
:mod:`repro.sim.kernels` (numba when importable, NumPy twins otherwise),
bit-identical to the batched engine on every consumer.

Packing convention: bit ``s`` of word ``s // 64`` (little bit order), so
byte-level views match ``np.packbits(..., bitorder="little")`` on
little-endian hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import (
    CX,
    ConditionalPauli,
    H,
    MeasureX,
    MeasureZ,
    ResetX,
    ResetZ,
)
from ..core.faults import PauliFrame, apply_instruction
from ..core.protocol import DeterministicProtocol
from .frame import Injection, ProtocolRunner, RunResult, protocol_locations
from .logical import LogicalJudge
from .noise import draw_tables, materialize_stratum

__all__ = [
    "FaultSignature",
    "CompiledSegment",
    "CompiledProtocol",
    "BatchResult",
    "BatchedSampler",
    "KernelSampler",
    "ReferenceSampler",
    "make_sampler",
    "resolve_engine_name",
]

_WORD = np.uint64
_ONE = np.uint64(1)


# -- bit packing --------------------------------------------------------------


def _num_words(num_shots: int) -> int:
    return (num_shots + 63) // 64


def _pack_flags(flags: np.ndarray, words: int) -> np.ndarray:
    """(S,) 0/1 array -> (words,) uint64, bit s of word s//64 = shot s."""
    packed = np.packbits(np.asarray(flags, dtype=np.uint8), bitorder="little")
    out = np.zeros(words * 8, dtype=np.uint8)
    out[: packed.size] = packed
    return out.view(_WORD)


def _pack_shot_indices(shots: Sequence[int], words: int) -> np.ndarray:
    """Shot index list -> (words,) uint64 mask with those bits set."""
    idx = np.asarray(shots, dtype=np.uint64)
    mask = np.zeros(words, dtype=_WORD)
    np.bitwise_or.at(mask, (idx >> np.uint64(6)).astype(np.intp), _ONE << (idx & np.uint64(63)))
    return mask


def _unpack_words(packed: np.ndarray, num_shots: int) -> np.ndarray:
    """(words,) uint64 -> (S,) uint8 of the low ``num_shots`` bits."""
    return np.unpackbits(
        np.ascontiguousarray(packed).view(np.uint8),
        bitorder="little",
        count=num_shots,
    )


def _mask_to_rows(mask: int) -> np.ndarray:
    """Integer bitmask -> sorted array of set-bit indices."""
    rows = []
    index = 0
    while mask:
        if mask & 1:
            rows.append(index)
        mask >>= 1
        index += 1
    return np.asarray(rows, dtype=np.intp)


# -- compilation --------------------------------------------------------------


@dataclass(frozen=True)
class FaultSignature:
    """End-of-segment image of one injected fault draw."""

    x_wires: tuple[int, ...]
    z_wires: tuple[int, ...]
    flips: tuple[str, ...]


class CompiledSegment:
    """F2-linear form of one protocol segment.

    ``out_rows[i]`` lists the incoming state components (x wires first,
    then z wires, ``2 * num_wires`` total) whose XOR yields outgoing
    component ``i``; ``bit_rows`` does the same for each measured bit.
    Fault signatures are propagated lazily per (instruction index, draw)
    and cached — strata hit the same few hundred draws over and over.
    """

    def __init__(self, key: tuple, circuit: Circuit, num_wires: int):
        self.key = key
        self.circuit = circuit
        self.num_wires = num_wires
        sym_x = [1 << w for w in range(num_wires)]
        sym_z = [1 << (num_wires + w) for w in range(num_wires)]
        bit_masks: list[tuple[str, int]] = []
        for ins in circuit.instructions:
            if isinstance(ins, CX):
                sym_x[ins.target] ^= sym_x[ins.control]
                sym_z[ins.control] ^= sym_z[ins.target]
            elif isinstance(ins, H):
                q = ins.qubit
                sym_x[q], sym_z[q] = sym_z[q], sym_x[q]
            elif isinstance(ins, (ResetZ, ResetX)):
                sym_x[ins.qubit] = 0
                sym_z[ins.qubit] = 0
            elif isinstance(ins, MeasureZ):
                bit_masks.append((ins.bit, sym_x[ins.qubit]))
            elif isinstance(ins, MeasureX):
                bit_masks.append((ins.bit, sym_z[ins.qubit]))
            elif isinstance(ins, ConditionalPauli):
                pass
            else:
                raise TypeError(f"unknown instruction {ins!r}")
        self.out_rows = [_mask_to_rows(m) for m in sym_x + sym_z]
        self.bit_rows = [(bit, _mask_to_rows(m)) for bit, m in bit_masks]
        self.bit_names = [bit for bit, _ in bit_masks]
        self._bit_slot = {bit: i for i, bit in enumerate(self.bit_names)}
        self._signatures: dict[tuple[int, Injection], FaultSignature] = {}
        self._sig_columns: dict[tuple[int, Injection], np.ndarray] = {}
        self._sig_columns_by_id: dict[
            tuple[int, int], tuple[Injection, np.ndarray]
        ] = {}

    def fault_signature(self, index: int, injection: Injection) -> FaultSignature:
        """Propagated image of ``injection`` after instruction ``index``."""
        cache_key = (index, injection)
        signature = self._signatures.get(cache_key)
        if signature is None:
            frame = PauliFrame.zero(self.num_wires)
            if injection.flip:
                frame.flip(self.circuit.instructions[index].bit)
            else:
                for wire, letter in injection.paulis:
                    frame.insert(wire, letter)
            for ins in self.circuit.instructions[index + 1 :]:
                apply_instruction(frame, ins)
            signature = FaultSignature(
                x_wires=tuple(int(w) for w in np.nonzero(frame.x)[0]),
                z_wires=tuple(int(w) for w in np.nonzero(frame.z)[0]),
                flips=tuple(sorted(frame.flipped_bits())),
            )
            self._signatures[cache_key] = signature
        return signature

    def signature_columns(self, index: int, injection: Injection) -> np.ndarray:
        """Signature as component ids: x wire ``w`` -> ``w``, z wire ``w`` ->
        ``num_wires + w``, flipped bit -> ``2 * num_wires + bit slot``.

        The id-keyed fast path exploits that draw-table injections are
        shared canonical instances (``repro.sim.noise.draw_tables``), so the
        hot loop skips hashing the injection's nested tuples; the pinned
        reference keeps the id stable.
        """
        id_key = (index, id(injection))
        hit = self._sig_columns_by_id.get(id_key)
        if hit is not None and hit[0] is injection:
            return hit[1]
        cache_key = (index, injection)
        columns = self._sig_columns.get(cache_key)
        if columns is None:
            signature = self.fault_signature(index, injection)
            offset = 2 * self.num_wires
            columns = np.asarray(
                [
                    *signature.x_wires,
                    *(self.num_wires + w for w in signature.z_wires),
                    *(offset + self._bit_slot[b] for b in signature.flips),
                ],
                dtype=np.intp,
            )
            self._sig_columns[cache_key] = columns
        self._sig_columns_by_id[id_key] = (injection, columns)
        return columns


class CompiledProtocol:
    """All segments of a protocol in compiled F2-linear form.

    Also caches the static location universe and the per-location fault
    draw tables, so every fault-set consumer (stratum sampling, exact
    enumeration, certificates, Bernoulli batches) shares one table build.
    """

    def __init__(self, protocol: DeterministicProtocol):
        self.protocol = protocol
        self.num_wires = protocol.num_wires
        self.segments: dict[tuple, CompiledSegment] = {}
        self._add(("prep",), protocol.prep_segment)
        for li, layer in enumerate(protocol.layers):
            self._add(("verif", li), layer.circuit)
            for signature, branch in layer.branches.items():
                self._add(("branch", li, signature), branch.circuit)
        self.locations = protocol_locations(protocol)
        self.draw_tables = draw_tables(self.locations)

    def _add(self, key: tuple, circuit: Circuit) -> None:
        self.segments[key] = CompiledSegment(key, circuit, self.num_wires)


# -- batched execution --------------------------------------------------------


@dataclass(frozen=True)
class _SegmentFaults:
    """One segment's fault batch in applied form.

    ``masks[f]`` selects the shots carrying fault ``f``; ``columns`` is the
    concatenation of every fault's signature component ids (see
    :meth:`CompiledSegment.signature_columns`) with ``counts[f]`` entries
    per fault — exactly the arrays the XOR-reduceat application consumes.
    """

    masks: np.ndarray  # (faults, words) uint64
    columns: np.ndarray  # (nnz,) intp — concatenated signature components
    counts: np.ndarray  # (faults,) intp


@dataclass
class BatchResult:
    """Unpacked outcomes of a batch of protocol executions.

    Mirrors :class:`~repro.sim.frame.RunResult` field-for-field across the
    shot axis; :meth:`result` rebuilds the per-shot view for
    cross-validation against the reference runner.

    The batched engine additionally attaches the *packed* residual planes
    (``x_words`` / ``z_words``: data wire-major ``(n, words)`` uint64, bit
    ``s`` = shot ``s``), which feed the vectorized residual-weight API
    without a per-shot round trip.
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

    def flip_of(self, shot: int, bit: str) -> int:
        values = self.flips.get(bit)
        return int(values[shot]) if values is not None else 0

    def residual_weights(self, reducer, plane: str = "x") -> np.ndarray:
        """Stabilizer-reduced residual weight per shot (vectorized).

        ``reducer`` is a :class:`~repro.pauli.group.CosetReducer` (from
        ``core.errors.error_reducer``); the batch reduction runs once per
        *distinct* residual pattern, not per shot.
        """
        if plane == "x":
            data = self.data_x
        elif plane == "z":
            data = self.data_z
        else:
            raise ValueError(f"plane must be 'x' or 'z', got {plane!r}")
        return reducer.coset_weights_dedup(np.asarray(data, dtype=np.uint8))

    def heavy_mask(self, x_reducer, z_reducer, t: int) -> np.ndarray:
        """Shots whose residual exceeds weight ``t`` in either plane."""
        return (self.residual_weights(x_reducer, "x") > t) | (
            self.residual_weights(z_reducer, "z") > t
        )

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
    """Mutable packed execution state of one batch."""

    def __init__(self, num_wires: int, num_shots: int):
        self.num_shots = num_shots
        self.words = _num_words(num_shots)
        self.x = np.zeros((num_wires, self.words), dtype=_WORD)
        self.z = np.zeros((num_wires, self.words), dtype=_WORD)
        self.bits: dict[str, np.ndarray] = {}
        self.alive = _pack_flags(np.ones(num_shots, dtype=np.uint8), self.words)
        self.terminated = np.zeros(self.words, dtype=_WORD)
        self.branch_records: list[tuple[int, tuple, tuple, np.ndarray]] = []

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
        self._draw_tables = self.compiled.draw_tables
        self._max_draws = max(len(table) for table in self._draw_tables)
        # protocol_locations lists each segment's locations contiguously;
        # precompute the location -> segment map so indexed batches group
        # by segment with one diff instead of per-location lookups.
        self._segment_keys: list[tuple] = []
        self._loc_segment = np.empty(len(self.locations), dtype=np.intp)
        for loc, ((segment_key, _), _, _) in enumerate(self.locations):
            if not self._segment_keys or self._segment_keys[-1] != segment_key:
                self._segment_keys.append(segment_key)
            self._loc_segment[loc] = len(self._segment_keys) - 1
        self._loc_instruction = np.asarray(
            [index for (_, index), _, _ in self.locations], dtype=np.intp
        )
        self._pair_columns: dict[int, np.ndarray] = {}

    # -- public API ----------------------------------------------------------

    def run(self, injections_per_shot: Sequence[dict]) -> BatchResult:
        """Execute one batch; returns full per-shot observables."""
        state = self._execute(injections_per_shot)
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

    def failures(self, injections_per_shot: Sequence[dict]) -> np.ndarray:
        """Logical-failure verdict per shot (the Monte-Carlo fast path)."""
        if len(injections_per_shot) == 0:
            return np.zeros(0, dtype=bool)
        state = self._execute(injections_per_shot)
        data_x = self._unpack_data(state.x, state.num_shots)
        return self.judge.failure_mask(data_x)

    def failures_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray
    ) -> np.ndarray:
        """Verdicts for an indexed stratum batch, skipping dicts entirely.

        ``loc_idx`` / ``draw_idx`` are ``(shots, k)`` arrays from
        :func:`repro.sim.noise.sample_injections_stratum` (or the masked
        variable-weight arrays of ``sample_injections_model_batch``, where
        ``loc_idx == -1`` slots carry no fault); the grouping into
        per-(location, draw) shot masks happens with one stable sort instead
        of ``shots`` dict traversals.
        """
        num_shots = loc_idx.shape[0]
        if num_shots == 0:
            return np.zeros(0, dtype=bool)
        words = _num_words(num_shots)
        grouped = self._group_indexed(loc_idx, draw_idx, words)
        state = self._execute_grouped(grouped, num_shots)
        data_x = self._unpack_data(state.x, state.num_shots)
        return self.judge.failure_mask(data_x)

    def residual_weights(
        self, injections_per_shot: Sequence[dict], x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot stabilizer-reduced residual weights (both planes).

        The certificate fast path (Definition 1): execute the whole batch
        packed, then reduce each *distinct* residual pattern once per plane.
        Returns ``(x_weights, z_weights)``, both ``(shots,)`` int64.
        """
        state = self._execute(injections_per_shot)
        return self._state_residual_weights(state, x_reducer, z_reducer)

    def residual_weights_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray, x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        """Indexed-batch variant of :meth:`residual_weights`."""
        num_shots = loc_idx.shape[0]
        if num_shots == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        grouped = self._group_indexed(loc_idx, draw_idx, _num_words(num_shots))
        state = self._execute_grouped(grouped, num_shots)
        return self._state_residual_weights(state, x_reducer, z_reducer)

    # -- execution -----------------------------------------------------------

    def _state_residual_weights(
        self, state: "_PackedState", x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        if state.num_shots == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        data_x = self._unpack_data(state.x, state.num_shots)
        data_z = self._unpack_data(state.z, state.num_shots)
        return (
            x_reducer.coset_weights_dedup(data_x),
            z_reducer.coset_weights_dedup(data_z),
        )

    def _columns_of_pair(self, pair: int) -> np.ndarray:
        """Signature component ids of one (location, draw) pair, cached."""
        columns = self._pair_columns.get(pair)
        if columns is None:
            location = pair // self._max_draws
            (segment_key, index), _, _ = self.locations[location]
            injection = self._draw_tables[location][pair % self._max_draws]
            segment = self.compiled.segments[segment_key]
            columns = segment.signature_columns(index, injection)
            self._pair_columns[pair] = columns
        return columns

    @staticmethod
    def _build_group_masks(
        num_groups: int,
        words: int,
        group_of: np.ndarray,
        sorted_shots: np.ndarray,
    ) -> np.ndarray:
        """All per-group shot masks in one scatter (kernel-overridable)."""
        masks = np.zeros((num_groups, words), dtype=_WORD)
        shot_words = (sorted_shots >> 6).astype(np.intp)
        shot_bits = _ONE << (sorted_shots.astype(np.uint64) & np.uint64(63))
        np.bitwise_or.at(masks, (group_of, shot_words), shot_bits)
        return masks

    def _group_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray, words: int
    ) -> dict[tuple, _SegmentFaults]:
        """Indexed stratum batch -> per-segment packed fault batches."""
        num_shots, k = loc_idx.shape
        grouped: dict[tuple, _SegmentFaults] = {}
        if k == 0:
            return grouped
        flat_loc = loc_idx.ravel()
        flat_draw = draw_idx.ravel()
        shot_ids = np.repeat(np.arange(num_shots, dtype=np.intp), k)
        valid = flat_loc >= 0  # masked slots from variable-weight batches
        if not valid.all():
            flat_loc = flat_loc[valid]
            flat_draw = flat_draw[valid]
            shot_ids = shot_ids[valid]
        if flat_loc.size == 0:
            return grouped
        pair_ids = flat_loc * self._max_draws + flat_draw
        # Sort by (pair, shot) and cancel even multiplicities: a shot
        # carrying the identical (location, draw) twice composes to the
        # identity under the XOR semantics (correlated pair sites can
        # overlap a base fault like that; uniform strata never repeat a
        # location within a shot, so this is a no-op for them).
        combo = pair_ids.astype(np.int64) * num_shots + shot_ids
        unique, multiplicity = np.unique(combo, return_counts=True)
        odd = unique[multiplicity % 2 == 1]
        if odd.size == 0:
            return grouped
        sorted_pairs = (odd // num_shots).astype(pair_ids.dtype)
        sorted_shots = (odd % num_shots).astype(np.intp)
        boundaries = np.flatnonzero(np.diff(sorted_pairs)) + 1
        starts = np.concatenate([[0], boundaries])
        # All per-group shot masks in one scatter instead of a packing
        # call per group (the certificate path has one group per shot).
        num_groups = starts.size
        group_of = np.zeros(sorted_pairs.size, dtype=np.intp)
        group_of[boundaries] = 1
        np.cumsum(group_of, out=group_of)
        masks = self._build_group_masks(num_groups, words, group_of, sorted_shots)
        # Locations (and hence sorted pair ids) are contiguous per segment,
        # so the per-segment runs fall out of one more diff.
        pairs_at = sorted_pairs[starts]
        segment_of = self._loc_segment[pairs_at // self._max_draws]
        seg_bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(segment_of)) + 1, [num_groups])
        )
        for lo, hi in zip(seg_bounds[:-1], seg_bounds[1:]):
            segment_key = self._segment_keys[int(segment_of[lo])]
            column_arrays = [
                self._columns_of_pair(int(pair)) for pair in pairs_at[lo:hi]
            ]
            grouped[segment_key] = _SegmentFaults(
                masks=masks[lo:hi],
                columns=np.concatenate(column_arrays)
                if column_arrays
                else np.zeros(0, dtype=np.intp),
                counts=np.asarray(
                    [columns.size for columns in column_arrays],
                    dtype=np.intp,
                ),
            )
        return grouped

    def _unpack_data(self, packed: np.ndarray, num_shots: int) -> np.ndarray:
        bits = np.unpackbits(
            np.ascontiguousarray(packed[: self.n]).view(np.uint8),
            axis=1,
            bitorder="little",
            count=num_shots,
        )
        return np.ascontiguousarray(bits.T)

    def _group_injections(
        self, injections_per_shot: Sequence[dict], words: int
    ) -> dict[tuple, _SegmentFaults]:
        """Bucket per-shot injections into per-segment packed batches."""
        by_draw: dict[tuple, dict[tuple[int, Injection], list[int]]] = {}
        for shot, injections in enumerate(injections_per_shot):
            for (segment_key, index), injection in injections.items():
                by_draw.setdefault(segment_key, {}).setdefault(
                    (index, injection), []
                ).append(shot)
        grouped: dict[tuple, _SegmentFaults] = {}
        for segment_key, draws in by_draw.items():
            segment = self.compiled.segments[segment_key]
            column_arrays = [
                segment.signature_columns(index, injection)
                for (index, injection) in draws
            ]
            grouped[segment_key] = _SegmentFaults(
                masks=np.stack(
                    [
                        _pack_shot_indices(shots, words)
                        for shots in draws.values()
                    ]
                ),
                columns=np.concatenate(column_arrays)
                if column_arrays
                else np.zeros(0, dtype=np.intp),
                counts=np.asarray(
                    [columns.size for columns in column_arrays],
                    dtype=np.intp,
                ),
            )
        return grouped

    def _execute(self, injections_per_shot: Sequence[dict]) -> _PackedState:
        num_shots = len(injections_per_shot)
        if num_shots == 0:
            return _PackedState(self.compiled.num_wires, num_shots)
        faults = self._group_injections(
            injections_per_shot, _num_words(num_shots)
        )
        return self._execute_grouped(faults, num_shots)

    def _execute_grouped(self, faults: dict, num_shots: int) -> _PackedState:
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
        faults: dict,
    ) -> None:
        segment = self.compiled.segments[segment_key]
        num_wires = self.compiled.num_wires
        incoming = np.concatenate([state.x, state.z], axis=0)
        outgoing = np.zeros_like(incoming)
        for component, rows in enumerate(segment.out_rows):
            if rows.size == 1:
                outgoing[component] = incoming[rows[0]]
            elif rows.size:
                outgoing[component] = np.bitwise_xor.reduce(incoming[rows], axis=0)
        new_bits: dict[str, np.ndarray] = {}
        for bit, rows in segment.bit_rows:
            if rows.size:
                new_bits[bit] = np.bitwise_xor.reduce(incoming[rows], axis=0)
            else:
                new_bits[bit] = np.zeros(state.words, dtype=_WORD)
        entry = faults.get(segment_key)
        if entry is not None and entry.columns.size:
            # Apply all fault signatures with one XOR reduction per touched
            # component instead of a word-op per (fault, wire): sort the
            # (fault row, component) incidence by component, then reduceat
            # the masked shot rows at the component boundaries.
            fault_masks = entry.masks & mask
            rows = np.repeat(
                np.arange(entry.counts.size, dtype=np.intp), entry.counts
            )
            order = np.argsort(entry.columns, kind="stable")
            sorted_columns = entry.columns[order]
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(sorted_columns)) + 1)
            )
            reduced = np.bitwise_xor.reduceat(
                fault_masks[rows[order]], starts, axis=0
            )
            components = sorted_columns[starts]
            wire_limit = 2 * num_wires
            wire_sel = components < wire_limit
            outgoing[components[wire_sel]] ^= reduced[wire_sel]
            for component, flip_words in zip(
                components[~wire_sel], reduced[~wire_sel]
            ):
                # Signature flips only name bits measured later in this
                # same segment, so they are always present in new_bits;
                # a KeyError here would mean the compilation model was
                # violated.
                bit = segment.bit_names[int(component) - wire_limit]
                new_bits[bit] ^= flip_words
        keep = ~mask
        state.x = (outgoing[:num_wires] & mask) | (state.x & keep)
        state.z = (outgoing[num_wires:] & mask) | (state.z & keep)
        for bit, values in new_bits.items():
            state.bits[bit] = values & mask


# -- compiled kernel tier -----------------------------------------------------


class KernelSampler(BatchedSampler):
    """The batched engine with its hot loops routed through
    :mod:`repro.sim.kernels` (``engine="kernel"``).

    Semantically this *is* :class:`BatchedSampler` — same compilation,
    same grouping, same judge — but the three dispatch-bound inner loops
    (segment application, residual coset popcounts, grouped-mask
    scatter) run as fused kernels: numba-compiled when numba is
    importable (:func:`repro.sim.kernels.available`), else their
    pure-NumPy twins. Either way the results are **bit-identical** to
    the NumPy batched engine — pinned across every catalog code and
    every routed consumer in ``tests/sim/test_kernels.py``, exactly as
    ``BatchedSampler`` is pinned against ``ReferenceSampler``.

    Use ``engine="auto"`` to get this tier opportunistically: it
    resolves to ``"kernel"`` when numba is importable and to
    ``"batched"`` otherwise, and never errors on a numba-free
    interpreter.
    """

    name = "kernel"

    def __init__(self, protocol: DeterministicProtocol, judge: LogicalJudge | None = None):
        super().__init__(protocol, judge=judge)
        self._segment_csr: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def backend(self) -> str:
        """``"numba"`` or ``"numpy"`` — resolved per process, never
        pickled, so a cached engine moving between environments always
        uses whatever tier its interpreter actually has."""
        from . import kernels

        return kernels.backend_name()

    def _csr_of(self, segment: CompiledSegment) -> tuple[np.ndarray, np.ndarray]:
        """Segment linear map as one CSR over frame + bit components.

        Row ``c`` lists the incoming components whose XOR produces
        outgoing component ``c``; rows ``2 * num_wires + slot`` are the
        measured bits in ``bit_rows`` order — the same component ids
        :meth:`CompiledSegment.signature_columns` emits, so the fault
        scatter lands in the same rows.
        """
        cached = self._segment_csr.get(segment.key)
        if cached is None:
            row_lists = list(segment.out_rows) + [
                rows for _, rows in segment.bit_rows
            ]
            counts = np.asarray([rows.size for rows in row_lists], dtype=np.int64)
            indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            indices = (
                np.concatenate(row_lists).astype(np.int64)
                if len(row_lists)
                else np.zeros(0, dtype=np.int64)
            )
            cached = (indptr, indices)
            self._segment_csr[segment.key] = cached
        return cached

    def _build_group_masks(
        self,
        num_groups: int,
        words: int,
        group_of: np.ndarray,
        sorted_shots: np.ndarray,
    ) -> np.ndarray:
        from . import kernels

        masks = np.zeros((num_groups, words), dtype=_WORD)
        shot_words = (sorted_shots >> 6).astype(np.intp)
        shot_bits = _ONE << (sorted_shots.astype(np.uint64) & np.uint64(63))
        kernels.scatter_masks(masks, group_of, shot_words, shot_bits)
        return masks

    def _state_residual_weights(
        self, state: "_PackedState", x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        from . import kernels

        if state.num_shots == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        data_x = self._unpack_data(state.x, state.num_shots)
        data_z = self._unpack_data(state.z, state.num_shots)
        return (
            kernels.coset_weights(data_x, x_reducer._span),
            kernels.coset_weights(data_z, z_reducer._span),
        )

    def _apply_segment(
        self,
        state: _PackedState,
        segment_key: tuple,
        mask: np.ndarray,
        faults: dict,
    ) -> None:
        from . import kernels

        segment = self.compiled.segments[segment_key]
        num_wires = self.compiled.num_wires
        indptr, indices = self._csr_of(segment)
        incoming = np.concatenate([state.x, state.z], axis=0)
        out = np.zeros((indptr.size - 1, state.words), dtype=_WORD)
        entry = faults.get(segment_key)
        if entry is not None and entry.columns.size:
            fault_rows = np.repeat(
                np.arange(entry.counts.size, dtype=np.int64), entry.counts
            )
            fault_cols = entry.columns.astype(np.int64)
            fault_masks = entry.masks
        else:
            fault_rows = np.zeros(0, dtype=np.int64)
            fault_cols = np.zeros(0, dtype=np.int64)
            fault_masks = np.zeros((0, state.words), dtype=_WORD)
        kernels.apply_segment(
            incoming,
            indptr,
            indices,
            2 * num_wires,
            fault_rows,
            fault_cols,
            fault_masks,
            mask,
            out,
        )
        state.x = out[:num_wires]
        state.z = out[num_wires : 2 * num_wires]
        for slot, bit in enumerate(segment.bit_names):
            state.bits[bit] = out[2 * num_wires + slot]


# -- reference wrapper --------------------------------------------------------


class ReferenceSampler:
    """The per-shot oracle behind the same interface as the batched engine.

    Wraps :class:`~repro.sim.frame.ProtocolRunner` + :class:`LogicalJudge`;
    used for cross-validation and as a fallback for exotic protocols.
    """

    name = "reference"

    def __init__(self, protocol: DeterministicProtocol, judge: LogicalJudge | None = None):
        self.protocol = protocol
        self.judge = judge if judge is not None else LogicalJudge(protocol.code)
        self.runner = ProtocolRunner(protocol)
        self.n = protocol.code.n
        self.locations = protocol_locations(protocol)

    def run(self, injections_per_shot: Sequence[dict]) -> BatchResult:
        results = [self.runner.run(injections) for injections in injections_per_shot]
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

    def failures(self, injections_per_shot: Sequence[dict]) -> np.ndarray:
        return np.fromiter(
            (
                self.judge.is_logical_failure(self.runner.run(injections))
                for injections in injections_per_shot
            ),
            dtype=bool,
            count=len(injections_per_shot),
        )

    def failures_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray
    ) -> np.ndarray:
        """Same indexed-batch contract as the batched engine (for swapping)."""
        return self.failures(
            materialize_stratum(self.locations, loc_idx, draw_idx)
        )

    def residual_weights(
        self, injections_per_shot: Sequence[dict], x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot residual weights — the certificate oracle path."""
        num_shots = len(injections_per_shot)
        x_weights = np.zeros(num_shots, dtype=np.int64)
        z_weights = np.zeros(num_shots, dtype=np.int64)
        for shot, injections in enumerate(injections_per_shot):
            result = self.runner.run(injections)
            x_weights[shot] = x_reducer.coset_weight(result.data_x)
            z_weights[shot] = z_reducer.coset_weight(result.data_z)
        return x_weights, z_weights

    def residual_weights_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray, x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.residual_weights(
            materialize_stratum(self.locations, loc_idx, draw_idx),
            x_reducer,
            z_reducer,
        )


_ENGINES = {
    "batched": BatchedSampler,
    "kernel": KernelSampler,
    "reference": ReferenceSampler,
}


def resolve_engine_name(engine: str) -> str:
    """Resolve the ``"auto"`` tier: ``"kernel"`` when numba is
    importable, ``"batched"`` otherwise — never an error on a numba-free
    interpreter. Concrete names pass through unchanged."""
    if engine == "auto":
        from . import kernels

        return "kernel" if kernels.available() else "batched"
    return engine


def make_sampler(
    protocol: DeterministicProtocol,
    *,
    engine: str = "batched",
    judge: LogicalJudge | None = None,
):
    """Engine factory: ``engine`` is ``"batched"``, ``"kernel"``,
    ``"reference"``, or ``"auto"`` (kernel tier when numba is
    importable, else batched — see :func:`resolve_engine_name`). Every
    call compiles afresh; the compilation is deterministic, so two calls
    return functionally identical engines.
    """
    engine = resolve_engine_name(engine)
    try:
        cls = _ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r} (expected one of "
            f"{sorted(_ENGINES)} or 'auto')"
        ) from None
    return cls(protocol, judge=judge)
