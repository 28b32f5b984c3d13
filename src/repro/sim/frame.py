"""Exact Pauli-frame execution of deterministic protocols.

All protocol circuits are Clifford with deterministic noiseless measurement
outcomes (every measured operator stabilizes the ideal state), so under
Pauli noise the full state never needs simulating: a Pauli frame plus the
induced outcome flips is *exact*. The runner executes the Fig. 3 decision
tree — verification, signature lookup, conditional correction segments,
recovery application, early termination on hooks — reading fault injections
from a static location map so that conditionally-executed branches have
stable location identities (the subset sampler relies on this; see
``sim.subset``).

This per-shot runner is the *oracle*: the batched bit-packed engine in
``sim.sampler`` compiles the same semantics into F2-linear segment maps
and is cross-validated against it bit-for-bit. Prefer the batched engine
for Monte-Carlo volume; prefer this runner for debugging single shots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import CX, H, MeasureX, MeasureZ, ResetX, ResetZ
from ..core.faults import PauliFrame, apply_instruction
from ..core.protocol import DeterministicProtocol

__all__ = [
    "Injection",
    "RunResult",
    "ProtocolRunner",
    "protocol_locations",
    "always_executed",
]


@dataclass(frozen=True)
class Injection:
    """A fault to inject at one static location.

    ``paulis`` are (wire, letter) pairs inserted after the instruction;
    ``flip`` set instead marks a classical measurement-outcome flip.
    """

    paulis: tuple[tuple[int, str], ...] = ()
    flip: bool = False


@dataclass
class RunResult:
    """Observable outcome of one protocol execution."""

    data_x: np.ndarray
    data_z: np.ndarray
    flips: dict[str, int]
    branches_taken: list[tuple[int, tuple, tuple]] = field(default_factory=list)
    terminated_early: bool = False

    def signature_of(self, bits: list[str]) -> tuple[int, ...]:
        return tuple(self.flips.get(bit, 0) for bit in bits)


LocationKey = tuple  # (segment key, instruction index)


def always_executed(key: LocationKey) -> bool:
    """True iff the location runs on every shot (prep / verification).

    Branch segments only execute after a verification trigger, so a lone
    branch fault cannot occur — the FT certificate's "checkable" fault
    set is exactly the always-executed locations. This predicate is the
    single definition shared by ``core.ftcheck`` and the sharding
    planner's row universes (``sim.shard``).
    """
    return key[0][0] != "branch"


def _segment_locations(key, circuit: Circuit) -> list[tuple[LocationKey, str, tuple[int, ...]]]:
    """Static fault locations of one segment: (key, kind, wires)."""
    out = []
    for index, ins in enumerate(circuit.instructions):
        if isinstance(ins, H):
            out.append(((key, index), "1q", (ins.qubit,)))
        elif isinstance(ins, CX):
            out.append(((key, index), "2q", (ins.control, ins.target)))
        elif isinstance(ins, ResetZ):
            out.append(((key, index), "reset_z", (ins.qubit,)))
        elif isinstance(ins, ResetX):
            out.append(((key, index), "reset_x", (ins.qubit,)))
        elif isinstance(ins, (MeasureZ, MeasureX)):
            out.append(((key, index), "meas", (ins.qubit,)))
    return out


def protocol_locations(protocol: DeterministicProtocol):
    """Every static fault location of the protocol, branches included.

    Unexecuted-branch locations are inert in any given run; counting them in
    the location universe keeps per-location failures i.i.d., which makes
    the subset-sampling estimator exact (docs/architecture.md, "Substitutions
    and modelling choices").
    """
    locations = _segment_locations(("prep",), protocol.prep_segment)
    for li, layer in enumerate(protocol.layers):
        locations += _segment_locations(("verif", li), layer.circuit)
        for signature, branch in sorted(layer.branches.items()):
            locations += _segment_locations(
                ("branch", li, signature), branch.circuit
            )
    return locations


class ProtocolRunner:
    """Executes a protocol under a static fault-injection map."""

    def __init__(self, protocol: DeterministicProtocol):
        self.protocol = protocol
        self.n = protocol.code.n

    def run(self, injections: dict[LocationKey, Injection] | None = None) -> RunResult:
        injections = injections or {}
        frame = PauliFrame.zero(self.protocol.num_wires)
        self._run_segment(("prep",), self.protocol.prep_segment, frame, injections)
        result = RunResult(
            data_x=np.zeros(self.n, dtype=np.uint8),
            data_z=np.zeros(self.n, dtype=np.uint8),
            flips={},
        )
        for li, layer in enumerate(self.protocol.layers):
            self._run_segment(("verif", li), layer.circuit, frame, injections)
            b = tuple(frame.flips.get(bit, 0) for bit in layer.bits)
            f = tuple(frame.flips.get(bit, 0) for bit in layer.flag_bits)
            if not any(b) and not any(f):
                continue
            branch = layer.branches.get((b, f))
            if branch is None:
                continue  # signature unreachable by one fault; no action
            result.branches_taken.append((li, b, f))
            self._run_segment(
                ("branch", li, branch.signature), branch.circuit, frame, injections
            )
            syndrome = tuple(
                frame.flips.get(m.bit, 0) for m in branch.measurements
            )
            recovery = branch.recoveries.get(syndrome)
            if recovery is not None:
                if branch.recovery_kind == "X":
                    frame.x[: self.n] ^= recovery
                else:
                    frame.z[: self.n] ^= recovery
            if branch.terminate:
                result.terminated_early = True
                break
        result.data_x = frame.x[: self.n].copy()
        result.data_z = frame.z[: self.n].copy()
        result.flips = dict(frame.flips)
        return result

    def _run_segment(self, key, circuit: Circuit, frame: PauliFrame, injections) -> None:
        for index, ins in enumerate(circuit.instructions):
            injection = injections.get((key, index))
            if injection is not None and injection.flip:
                # Classical readout flip: applied to the recorded bit.
                apply_instruction(frame, ins)
                frame.flip(ins.bit)
                continue
            apply_instruction(frame, ins)
            if injection is not None:
                for wire, letter in injection.paulis:
                    frame.insert(wire, letter)
