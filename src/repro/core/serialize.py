"""JSON serialization of synthesized protocols.

Synthesis costs SAT time (minutes for the largest codes), so downstream
users want to synthesize once and reload. The format captures everything
needed to re-execute and re-verify: the code's check matrices, the prep
circuit, each layer's measurement specs (support, order, flags), and each
branch's measurements and recovery table. Loading reconstructs a
:class:`~repro.core.protocol.DeterministicProtocol` that is
instruction-for-instruction identical to the original (asserted in
tests, together with a fresh FT check on the loaded object).
"""

from __future__ import annotations

import json

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
from ..codes.css import CSSCode
from ..synth.prep import PrepCircuit
from .protocol import (
    CorrectionBranch,
    DeterministicProtocol,
    MeasurementSpec,
    VerificationLayer,
)

__all__ = ["protocol_to_json", "protocol_from_json", "dump_protocol", "load_protocol"]

_FORMAT_VERSION = 1


def _circuit_to_obj(circuit: Circuit) -> dict:
    instructions = []
    for ins in circuit.instructions:
        if isinstance(ins, H):
            instructions.append(["h", ins.qubit])
        elif isinstance(ins, CX):
            instructions.append(["cx", ins.control, ins.target])
        elif isinstance(ins, ResetZ):
            instructions.append(["rz", ins.qubit])
        elif isinstance(ins, ResetX):
            instructions.append(["rx", ins.qubit])
        elif isinstance(ins, MeasureZ):
            instructions.append(["mz", ins.qubit, ins.bit])
        elif isinstance(ins, MeasureX):
            instructions.append(["mx", ins.qubit, ins.bit])
        elif isinstance(ins, ConditionalPauli):
            instructions.append(
                [
                    "cp",
                    list(ins.x_support),
                    list(ins.z_support),
                    [list(pair) for pair in ins.condition],
                ]
            )
        else:
            raise TypeError(f"unknown instruction {ins!r}")
    return {"num_qubits": circuit.num_qubits, "instructions": instructions}


def _circuit_from_obj(obj: dict) -> Circuit:
    circuit = Circuit(obj["num_qubits"])
    for item in obj["instructions"]:
        op = item[0]
        if op == "h":
            circuit.h(item[1])
        elif op == "cx":
            circuit.cx(item[1], item[2])
        elif op == "rz":
            circuit.reset_z(item[1])
        elif op == "rx":
            circuit.reset_x(item[1])
        elif op == "mz":
            circuit.measure_z(item[1], item[2])
        elif op == "mx":
            circuit.measure_x(item[1], item[2])
        elif op == "cp":
            circuit.conditional_pauli(
                x_support=item[1],
                z_support=item[2],
                condition=[tuple(pair) for pair in item[3]],
            )
        else:
            raise ValueError(f"unknown op {op!r}")
    return circuit


def _spec_to_obj(spec: MeasurementSpec) -> dict:
    return {
        "support": spec.support.tolist(),
        "basis": spec.basis,
        "order": list(spec.order),
        "bit": spec.bit,
        "ancilla": spec.ancilla,
        "flagged": spec.flagged,
        "flag_bit": spec.flag_bit,
        "flag_ancilla": spec.flag_ancilla,
    }


def _spec_from_obj(obj: dict) -> MeasurementSpec:
    return MeasurementSpec(
        support=np.array(obj["support"], dtype=np.uint8),
        basis=obj["basis"],
        order=list(obj["order"]),
        bit=obj["bit"],
        ancilla=obj["ancilla"],
        flagged=obj["flagged"],
        flag_bit=obj["flag_bit"],
        flag_ancilla=obj["flag_ancilla"],
    )


def protocol_to_json(protocol: DeterministicProtocol) -> str:
    """Serialize a protocol to a JSON string."""
    code = protocol.code
    obj = {
        "format_version": _FORMAT_VERSION,
        "code": {
            "name": code.name,
            "hx": code.hx.tolist(),
            "hz": code.hz.tolist(),
        },
        "prep": {
            "circuit": _circuit_to_obj(protocol.prep.circuit),
            "generator": protocol.prep.generator.tolist(),
            "pivots": list(protocol.prep.pivots),
            "method": protocol.prep.method,
        },
        "num_wires": protocol.num_wires,
        "prep_segment": _circuit_to_obj(protocol.prep_segment),
        "layers": [],
    }
    for layer in protocol.layers:
        branches = []
        for signature, branch in sorted(layer.branches.items()):
            branches.append(
                {
                    "signature": [list(signature[0]), list(signature[1])],
                    "recovery_kind": branch.recovery_kind,
                    "measurements": [
                        _spec_to_obj(s) for s in branch.measurements
                    ],
                    "recoveries": [
                        {
                            "syndrome": list(syndrome),
                            "pauli": recovery.tolist(),
                        }
                        for syndrome, recovery in sorted(
                            branch.recoveries.items()
                        )
                    ],
                    "terminate": branch.terminate,
                    "circuit": _circuit_to_obj(branch.circuit),
                }
            )
        obj["layers"].append(
            {
                "kind": layer.kind,
                "measurements": [
                    _spec_to_obj(s) for s in layer.measurements
                ],
                "circuit": _circuit_to_obj(layer.circuit),
                "branches": branches,
            }
        )
    return json.dumps(obj, indent=2)


def protocol_from_json(text: str) -> DeterministicProtocol:
    """Reconstruct a protocol from :func:`protocol_to_json` output."""
    obj = json.loads(text)
    if obj.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported protocol format {obj.get('format_version')!r}"
        )
    code = CSSCode(
        obj["code"]["name"],
        np.array(obj["code"]["hx"], dtype=np.uint8),
        np.array(obj["code"]["hz"], dtype=np.uint8),
    )
    prep = PrepCircuit(
        code=code,
        circuit=_circuit_from_obj(obj["prep"]["circuit"]),
        generator=np.array(obj["prep"]["generator"], dtype=np.uint8),
        pivots=list(obj["prep"]["pivots"]),
        method=obj["prep"]["method"],
    )
    layers = []
    for layer_obj in obj["layers"]:
        branches = {}
        for branch_obj in layer_obj["branches"]:
            signature = (
                tuple(branch_obj["signature"][0]),
                tuple(branch_obj["signature"][1]),
            )
            branches[signature] = CorrectionBranch(
                signature=signature,
                recovery_kind=branch_obj["recovery_kind"],
                measurements=[
                    _spec_from_obj(s) for s in branch_obj["measurements"]
                ],
                recoveries={
                    tuple(entry["syndrome"]): np.array(
                        entry["pauli"], dtype=np.uint8
                    )
                    for entry in branch_obj["recoveries"]
                },
                terminate=branch_obj["terminate"],
                circuit=_circuit_from_obj(branch_obj["circuit"]),
            )
        layers.append(
            VerificationLayer(
                kind=layer_obj["kind"],
                measurements=[
                    _spec_from_obj(s) for s in layer_obj["measurements"]
                ],
                circuit=_circuit_from_obj(layer_obj["circuit"]),
                branches=branches,
            )
        )
    protocol = DeterministicProtocol(
        code=code,
        prep=prep,
        layers=layers,
        num_wires=obj["num_wires"],
        prep_segment=_circuit_from_obj(obj["prep_segment"]),
    )
    _check_widths(protocol)
    return protocol


def _check_widths(protocol: DeterministicProtocol) -> None:
    """Refuse a circuit wider than ``num_wires``: the engines size their
    frames by ``num_wires``, so it would load and compile, then index
    out of bounds on the first shot."""
    circuits = [("prep_segment", protocol.prep_segment)]
    for i, layer in enumerate(protocol.layers):
        circuits.append((f"layer {i}", layer.circuit))
        for signature, branch in layer.branches.items():
            circuits.append((f"branch {signature} of layer {i}", branch.circuit))
    for name, circuit in circuits:
        if circuit.num_qubits > protocol.num_wires:
            raise ValueError(
                f"{name} acts on {circuit.num_qubits} qubits but the protocol "
                f"has num_wires = {protocol.num_wires}"
            )


def dump_protocol(protocol: DeterministicProtocol, path) -> None:
    """Write a protocol to ``path`` as JSON."""
    with open(path, "w") as stream:
        stream.write(protocol_to_json(protocol))


def load_protocol(path) -> DeterministicProtocol:
    """Read a protocol previously written by :func:`dump_protocol`."""
    with open(path) as stream:
        return protocol_from_json(stream.read())
