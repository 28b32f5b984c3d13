"""Exact single-fault enumeration and signatures from one backward sweep.

Every routine here works on the circuit IR. A *fault* is a Pauli inserted
after one instruction (gate faults, preparation faults) or a classical flip
of one measurement result. Its *observable signature* is where it ends up
at the end of the circuit: the residual X and Z errors plus the measurement
bits it flips on the way.

These signatures are the ground truth for the whole pipeline:

* dangerous-error sets for verification synthesis (paper Sec. III),
* the error classes ``E_b`` fed to the SAT correction synthesis, including
  the identity error (pure measurement faults) and single-qubit errors with
  non-trivial syndrome that the paper's Sec. IV highlights,
* the batched engine's per-(location, draw) signature table.

Every instruction acts F2-linearly on the phase-free frame, so
:func:`propagate_all_faults` walks the circuit once, backwards, keeping for
each wire the *image* of an X and of a Z placed there: its end-of-circuit
signature as one Python int over the columns (x residual per wire, z
residual per wire, one bit per measurement name). Before instruction ``i``
is swept the images are those of a Pauli inserted after it, so ``i``'s
faults are read off first; then the images step back across ``i``:

* ``CX(c, t)``: ``img_x[c] ^= img_x[t]``, ``img_z[t] ^= img_z[c]``;
* ``H``: swap ``img_x`` and ``img_z`` on the wire;
* ``ResetZ`` / ``ResetX``: both images become zero;
* ``MeasureZ`` (``MeasureX``): XOR the bit's unit column into ``img_x``
  (``img_z``) of the wire;
* ``ConditionalPauli``: identity (the protocol executor applies it).

A Pauli fault's signature is the XOR of at most four images (a Y is X
times Z); a measurement flip is the bit's unit column. The per-shot frame
rules (:class:`PauliFrame`, :func:`apply_instruction`) are the forward
form of the same semantics and drive ``repro.sim.frame.ProtocolRunner``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

__all__ = [
    "PauliFrame",
    "Fault",
    "SignatureTable",
    "apply_instruction",
    "enumerate_faults",
    "propagate_all_faults",
    "TWO_QUBIT_PAULIS",
    "ONE_QUBIT_PAULIS",
]

ONE_QUBIT_PAULIS = ("X", "Y", "Z")
TWO_QUBIT_PAULIS = tuple(
    a + b
    for a in ("I", "X", "Y", "Z")
    for b in ("I", "X", "Y", "Z")
    if not (a == "I" and b == "I")
)

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


@dataclass
class PauliFrame:
    """A Pauli error frame over the circuit's wires plus classical flips."""

    x: np.ndarray
    z: np.ndarray
    flips: dict[str, int] = field(default_factory=dict)

    @classmethod
    def zero(cls, num_qubits: int) -> "PauliFrame":
        return cls(
            np.zeros(num_qubits, dtype=np.uint8),
            np.zeros(num_qubits, dtype=np.uint8),
        )

    def insert(self, qubit: int, letter: str) -> None:
        xb, zb = _LETTER_BITS[letter]
        self.x[qubit] ^= xb
        self.z[qubit] ^= zb

    def flip(self, bit: str) -> None:
        self.flips[bit] = self.flips.get(bit, 0) ^ 1

    def flipped_bits(self) -> frozenset[str]:
        return frozenset(bit for bit, v in self.flips.items() if v)

    def copy(self) -> "PauliFrame":
        return PauliFrame(self.x.copy(), self.z.copy(), dict(self.flips))


def apply_instruction(frame: PauliFrame, instruction) -> None:
    """Advance ``frame`` through one instruction (in place).

    ``ConditionalPauli`` instructions are ignored here: the protocol
    executor evaluates recoveries against the accumulated flips.
    """
    if isinstance(instruction, CX):
        c, t = instruction.control, instruction.target
        frame.x[t] ^= frame.x[c]
        frame.z[c] ^= frame.z[t]
    elif isinstance(instruction, H):
        q = instruction.qubit
        frame.x[q], frame.z[q] = frame.z[q], frame.x[q]
    elif isinstance(instruction, (ResetZ, ResetX)):
        q = instruction.qubit
        frame.x[q] = 0
        frame.z[q] = 0
    elif isinstance(instruction, MeasureZ):
        if frame.x[instruction.qubit]:
            frame.flip(instruction.bit)
    elif isinstance(instruction, MeasureX):
        if frame.z[instruction.qubit]:
            frame.flip(instruction.bit)
    elif isinstance(instruction, ConditionalPauli):
        pass
    else:
        raise TypeError(f"unknown instruction {instruction!r}")


@dataclass(frozen=True)
class Fault:
    """A single fault location: Pauli insertion or measurement flip.

    ``index`` is the instruction after which the Pauli is inserted;
    measurement-flip faults carry ``flip_bit`` instead of Pauli letters.
    """

    index: int
    paulis: tuple[tuple[int, str], ...] = ()  # ((qubit, letter), ...)
    flip_bit: str | None = None

    def describe(self) -> str:
        if self.flip_bit is not None:
            return f"flip({self.flip_bit})@{self.index}"
        ops = ",".join(f"{letter}{qubit}" for qubit, letter in self.paulis)
        return f"{ops}@{self.index}"


@dataclass(frozen=True)
class SignatureTable:
    """Every single fault's signature, one row per fault in
    :func:`enumerate_faults` order.

    ``matrix`` is ``(faults, 2 * num_qubits + len(bits))`` 0/1: the x
    residual per wire, the z residual per wire, then one flip column per
    measurement name in ``bits`` (first-measurement order; a name measured
    twice shares one column, so its flips XOR). ``inputs`` has the same
    columns for an X (rows ``0..num_qubits``), then a Z, on each wire
    before the first instruction: the circuit's linear map, transposed.
    """

    matrix: np.ndarray
    inputs: np.ndarray
    num_qubits: int
    bits: tuple[str, ...]

    @property
    def x(self) -> np.ndarray:
        return self.matrix[:, : self.num_qubits]

    @property
    def z(self) -> np.ndarray:
        return self.matrix[:, self.num_qubits : 2 * self.num_qubits]

    @property
    def flips(self) -> np.ndarray:
        return self.matrix[:, 2 * self.num_qubits :]

    def flipped(self, bits) -> np.ndarray:
        """``(faults, len(bits))`` flip columns of the named bits."""
        return self.flips[:, [self.bits.index(bit) for bit in bits]]


def enumerate_faults(circuit: Circuit) -> list[Fault]:
    """All single-fault locations of ``circuit`` under the E1_1 model.

    * after ``H``: X, Y, Z on the qubit;
    * after ``CX``: the 15 non-identity two-qubit Paulis;
    * after ``ResetZ``: X (preparation error; a Z would act trivially);
    * after ``ResetX``: Z (symmetrically);
    * at each measurement: one classical outcome flip.
    """
    faults: list[Fault] = []
    for index, instruction in enumerate(circuit.instructions):
        if isinstance(instruction, H):
            q = instruction.qubit
            faults.extend(
                Fault(index, ((q, letter),)) for letter in ONE_QUBIT_PAULIS
            )
        elif isinstance(instruction, CX):
            c, t = instruction.control, instruction.target
            for pair in TWO_QUBIT_PAULIS:
                paulis = tuple(
                    (q, letter)
                    for q, letter in ((c, pair[0]), (t, pair[1]))
                    if letter != "I"
                )
                faults.append(Fault(index, paulis))
        elif isinstance(instruction, ResetZ):
            faults.append(Fault(index, ((instruction.qubit, "X"),)))
        elif isinstance(instruction, ResetX):
            faults.append(Fault(index, ((instruction.qubit, "Z"),)))
        elif isinstance(instruction, (MeasureZ, MeasureX)):
            faults.append(Fault(index, (), instruction.bit))
        elif isinstance(instruction, ConditionalPauli):
            continue
        else:
            raise TypeError(f"unknown instruction {instruction!r}")
    return faults


def propagate_all_faults(circuit: Circuit) -> SignatureTable:
    """Signatures of every single fault of ``circuit`` from one backward
    sweep (module docstring); rows in :func:`enumerate_faults` order."""
    w = circuit.num_qubits
    bits = tuple(
        dict.fromkeys(
            ins.bit
            for ins in circuit.instructions
            if isinstance(ins, (MeasureZ, MeasureX))
        )
    )
    unit = {bit: 1 << (2 * w + i) for i, bit in enumerate(bits)}
    img_x = [1 << q for q in range(w)]
    img_z = [1 << (w + q) for q in range(w)]
    groups: list = []  # per-instruction signatures, last instruction first
    for ins in reversed(circuit.instructions):
        if isinstance(ins, CX):
            c, t = ins.control, ins.target
            xc, zc, xt, zt = img_x[c], img_z[c], img_x[t], img_z[t]
            # I, X, Y, Z on each wire; TWO_QUBIT_PAULIS order, II skipped.
            on_c = (0, xc, xc ^ zc, zc)
            on_t = (0, xt, xt ^ zt, zt)
            groups.append([a ^ b for a in on_c for b in on_t][1:])
            img_x[c] = xc ^ xt
            img_z[t] = zt ^ zc
        elif isinstance(ins, H):
            q = ins.qubit
            x, z = img_x[q], img_z[q]
            groups.append((x, x ^ z, z))
            img_x[q], img_z[q] = z, x
        elif isinstance(ins, (ResetZ, ResetX)):
            q = ins.qubit
            groups.append((img_x[q] if isinstance(ins, ResetZ) else img_z[q],))
            img_x[q] = img_z[q] = 0
        elif isinstance(ins, MeasureZ):
            groups.append((unit[ins.bit],))
            img_x[ins.qubit] ^= unit[ins.bit]
        elif isinstance(ins, MeasureX):
            groups.append((unit[ins.bit],))
            img_z[ins.qubit] ^= unit[ins.bit]
        elif not isinstance(ins, ConditionalPauli):
            raise TypeError(f"unknown instruction {ins!r}")
    signatures = [s for group in reversed(groups) for s in group]
    faults = len(signatures)
    signatures += img_x + img_z  # the images before the first instruction
    width = 2 * w + len(bits)
    size = width // 8 + 1
    packed = np.frombuffer(
        b"".join(s.to_bytes(size, "little") for s in signatures), dtype=np.uint8
    )
    matrix = np.unpackbits(
        packed.reshape(len(signatures), size), axis=1, count=width, bitorder="little"
    )
    return SignatureTable(matrix[:faults], matrix[faults:], w, bits)
