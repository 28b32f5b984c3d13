"""Assembly of the deterministic FT state-preparation protocol (paper Fig. 3).

The protocol is a shallow decision tree:

1. non-FT prep circuit (a);
2. X layer: Z-type verification measurements, optionally flagged (b, c);
   on syndrome ``b != 0`` run the SAT-synthesized X-correction branch (d);
   on flag ``f != 0`` run the Z-hook-correction branch and *terminate* (e);
3. Z layer, symmetrically, with X-hook corrections (f).

Branches are keyed by the *joint* signature ``(b, f)`` of the layer — the
exact fault enumeration of ``core.faults`` decides which signatures are
reachable by a single fault, and ``core.correction`` synthesizes one optimal
correction circuit per reachable non-trivial signature. The identity error
and single-qubit errors with non-trivial syndrome land in the classes
automatically, which realizes the paper's Sec. IV requirements.

Flagging policy (paper Sec. V observations):

* If a Z layer exists, the X layer is left unflagged and its hook residuals
  are folded into the Z layer's verification error set ("capture the
  problematic hook errors entirely in the second layer").
* The last layer cannot defer its hooks; each of its measurements first
  tries a CNOT order with only harmless suffixes (``core.hooks``) and is
  flagged otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits.builder import append_measurement
from ..circuits.circuit import Circuit
from ..codes.css import CSSCode
from ..store import keys as store_keys
from ..store import resolve_store
from ..synth.prep import PrepCircuit, prepare_zero
from ..synth.verification import (
    VerificationResult,
    synthesize_verification_greedy,
    synthesize_verification_optimal,
)
from .correction import CorrectionCircuit, synthesize_correction
from .errors import dangerous_errors, detection_basis, error_reducer
from .faults import propagate_all_faults
from .hooks import optimize_order

__all__ = [
    "MeasurementSpec",
    "CorrectionBranch",
    "VerificationLayer",
    "DeterministicProtocol",
    "synthesize_protocol",
    "synthesize_protocol_from_parts",
]

_OPPOSITE = {"X": "Z", "Z": "X"}
# Basis of the measurement operators that detect errors of a given kind.
_DETECTION_GADGET_BASIS = {"X": "Z", "Z": "X"}


@dataclass
class MeasurementSpec:
    """One stabilizer measurement gadget within the protocol."""

    support: np.ndarray
    basis: str  # operator type measured: "Z" or "X"
    order: list[int]
    bit: str
    ancilla: int
    flagged: bool = False
    flag_bit: str | None = None
    flag_ancilla: int | None = None

    @property
    def weight(self) -> int:
        return int(self.support.sum())

    def append_to(self, circuit: Circuit) -> None:
        kwargs = {"order": self.order}
        if self.flagged:
            kwargs["flag_ancilla"] = self.flag_ancilla
            kwargs["flag_bit"] = self.flag_bit
        append_measurement(
            circuit, self.support, self.basis, self.ancilla, self.bit, **kwargs
        )


@dataclass
class CorrectionBranch:
    """Conditional correction for one verification signature ``(b, f)``."""

    signature: tuple[tuple[int, ...], tuple[int, ...]]
    recovery_kind: str  # Pauli type of the recovery ("X" or "Z")
    measurements: list[MeasurementSpec]
    recoveries: dict[tuple[int, ...], np.ndarray]
    terminate: bool
    circuit: Circuit | None = None  # measurement segment, built by assembler

    @property
    def num_ancillas(self) -> int:
        return len(self.measurements)

    @property
    def cnot_count(self) -> int:
        return int(sum(m.weight for m in self.measurements))

    @property
    def is_hook(self) -> bool:
        return any(self.signature[1])


@dataclass
class VerificationLayer:
    """One verification layer plus all its conditional branches."""

    kind: str  # error type this layer detects ("X" or "Z")
    measurements: list[MeasurementSpec]
    circuit: Circuit
    branches: dict[tuple[tuple[int, ...], tuple[int, ...]], CorrectionBranch]

    @property
    def bits(self) -> list[str]:
        return [m.bit for m in self.measurements]

    @property
    def flag_bits(self) -> list[str]:
        return [m.flag_bit for m in self.measurements if m.flagged]

    @property
    def num_ancillas(self) -> int:
        return len(self.measurements)

    @property
    def num_flags(self) -> int:
        return sum(1 for m in self.measurements if m.flagged)

    @property
    def cnot_count(self) -> int:
        return int(sum(m.weight for m in self.measurements))

    @property
    def flag_cnot_count(self) -> int:
        return 2 * self.num_flags


@dataclass
class DeterministicProtocol:
    """The complete deterministic FT state-preparation protocol."""

    code: CSSCode
    prep: PrepCircuit
    layers: list[VerificationLayer]
    num_wires: int
    prep_segment: Circuit = field(default=None)  # resets + prep, full register

    @property
    def verification_ancillas(self) -> int:
        return sum(l.num_ancillas + l.num_flags for l in self.layers)

    @property
    def verification_cnots(self) -> int:
        return sum(l.cnot_count + l.flag_cnot_count for l in self.layers)

    def all_branches(self) -> list[CorrectionBranch]:
        return [b for layer in self.layers for b in layer.branches.values()]

    def __repr__(self) -> str:
        return (
            f"DeterministicProtocol({self.code.name}, layers="
            f"{[l.kind for l in self.layers]}, "
            f"verif_anc={self.verification_ancillas}, "
            f"verif_cx={self.verification_cnots})"
        )


# -- synthesis driver --------------------------------------------------------


def synthesize_protocol(
    code: CSSCode,
    *,
    prep_method: str = "heuristic",
    verification_method: str = "optimal",
    max_correction_measurements: int = 4,
    store=None,
) -> DeterministicProtocol:
    """End-to-end synthesis: prep, verification, flags, SAT corrections.

    With the artifact store enabled (the default — see ``repro.store``),
    the synthesized protocol is cached as JSON under a key derived from
    the code's check matrices and every synthesis parameter, so only the
    first call per configuration pays SAT time. Store-served protocols
    are the pinned-identical JSON round-trip of the synthesis output;
    for key stability the *miss* path returns that same normalized form,
    so cold and warm runs hand downstream layers (engine compilation,
    the cluster handshake) byte-identical content keys. ``store=False``
    (or ``REPRO_STORE=off``) disables caching entirely.
    """
    store = resolve_store(store)
    key = None
    if store is not None:
        from .serialize import protocol_from_json

        key = store_keys.protocol_key(
            code,
            prep_method=prep_method,
            verification_method=verification_method,
            max_correction_measurements=max_correction_measurements,
        )
        # Verified bytes that do not load (e.g. written by an
        # incompatible revision) are quarantined as a miss: recompute.
        cached = store.get_text("protocol", key, parse=protocol_from_json)
        if cached is not None:
            return cached
    prep = prepare_zero(code, prep_method)
    protocol = synthesize_protocol_from_parts(
        prep,
        verification_method=verification_method,
        max_correction_measurements=max_correction_measurements,
    )
    if store is not None and key is not None:
        from .serialize import protocol_from_json, protocol_to_json

        text = protocol_to_json(protocol)
        store.put_text("protocol", key, text)
        protocol = protocol_from_json(text)
    return protocol


def synthesize_protocol_from_parts(
    prep: PrepCircuit,
    *,
    verification_method: str = "optimal",
    verification_x: list[np.ndarray] | None = None,
    verification_z: list[np.ndarray] | None = None,
    max_correction_measurements: int = 4,
) -> DeterministicProtocol:
    """Synthesis with optionally pinned verification measurement sets.

    ``verification_x`` / ``verification_z`` override the synthesized
    verification supports — the global optimization procedure uses this to
    explore every minimal verification circuit.
    """
    code = prep.code
    n = code.n
    builder = _ProtocolBuilder(prep, max_correction_measurements)

    dangerous_x = dangerous_errors(prep, "X")
    dangerous_z_prep = dangerous_errors(prep, "Z")

    x_layer_supports = None
    if dangerous_x:
        x_layer_supports = verification_x if verification_x is not None else (
            _synth_verification(code, "X", dangerous_x, verification_method)
        )

    # Decide whether a Z layer is needed: dangerous Z errors from prep, or
    # dangerous hooks of an (unflagged) X verification layer.
    needs_z_layer = bool(dangerous_z_prep)
    if x_layer_supports is not None:
        builder.plan_layer("X", x_layer_supports, flag_by_default=False)
        hook_residuals = builder.dangerous_layer_residuals("Z")
        if hook_residuals:
            needs_z_layer = True
    else:
        hook_residuals = []

    if needs_z_layer:
        dangerous_z = error_reducer(code, "Z").dedupe(
            dangerous_z_prep + hook_residuals
        )
        z_supports = verification_z if verification_z is not None else (
            _synth_verification(code, "Z", dangerous_z, verification_method)
        )
        builder.plan_layer("Z", z_supports, flag_by_default=True)
    elif x_layer_supports is not None:
        # Single-layer protocol: the X layer must handle its own hooks.
        builder.replan_last_layer_with_flags()

    return builder.finish()


def _synth_verification(code, kind, errors, method) -> list[np.ndarray]:
    basis = detection_basis(code, kind)
    if method == "optimal":
        result = synthesize_verification_optimal(basis, errors)
    elif method == "greedy":
        result = synthesize_verification_greedy(basis, errors)
    else:
        raise ValueError(f"unknown verification method {method!r}")
    return result.measurements


class _ProtocolBuilder:
    """Incremental protocol construction with exact fault re-enumeration."""

    def __init__(self, prep: PrepCircuit, max_correction_measurements: int):
        self.prep = prep
        self.code = prep.code
        self.max_corr = max_correction_measurements
        self.layer_plans: list[dict] = []  # kind, supports, flag choices
        self.layers: list[VerificationLayer] = []

    # -- planning ----------------------------------------------------------

    def plan_layer(self, kind, supports, *, flag_by_default: bool) -> None:
        reducer = error_reducer(self.code, _OPPOSITE[kind])
        plan = {"kind": kind, "measurements": []}
        for support in supports:
            order, safe = optimize_order(support, reducer)
            flagged = flag_by_default and not safe
            plan["measurements"].append(
                {"support": support, "order": order, "flagged": flagged}
            )
        self.layer_plans.append(plan)

    def replan_last_layer_with_flags(self) -> None:
        """Enable flagging on the last planned layer's unsafe measurements."""
        plan = self.layer_plans[-1]
        reducer = error_reducer(self.code, _OPPOSITE[plan["kind"]])
        for m in plan["measurements"]:
            _, safe = optimize_order(m["support"], reducer)
            m["flagged"] = not safe

    def dangerous_layer_residuals(self, kind: str) -> list[np.ndarray]:
        """Dangerous ``kind`` residuals of faults up to the last layer.

        Used to fold unflagged X-layer hook errors into the Z layer's
        verification error set.
        """
        circuit, _ = self._assemble_verifications()
        reducer = error_reducer(self.code, kind)
        table = propagate_all_faults(circuit)
        rows = (table.x if kind == "X" else table.z)[:, : self.code.n]
        return reducer.dedupe(rows[reducer.coset_weights_dedup(rows) >= 2])

    # -- assembly ----------------------------------------------------------

    def _allocate_wires(self) -> tuple[int, list[list[MeasurementSpec]]]:
        n = self.code.n
        next_wire = n
        all_specs: list[list[MeasurementSpec]] = []
        for li, plan in enumerate(self.layer_plans):
            specs = []
            gadget_basis = _DETECTION_GADGET_BASIS[plan["kind"]]
            for mi, m in enumerate(plan["measurements"]):
                spec = MeasurementSpec(
                    support=np.asarray(m["support"], dtype=np.uint8),
                    basis=gadget_basis,
                    order=list(m["order"]),
                    bit=f"b{li}.{mi}",
                    ancilla=next_wire,
                    flagged=m["flagged"],
                )
                next_wire += 1
                if m["flagged"]:
                    spec.flag_bit = f"f{li}.{mi}"
                    spec.flag_ancilla = next_wire
                    next_wire += 1
                specs.append(spec)
            all_specs.append(specs)
        # Shared pool for branch measurement ancillae.
        self._branch_pool_start = next_wire
        num_wires = next_wire + self.max_corr
        return num_wires, all_specs

    def _assemble_verifications(self):
        """Full register circuit: resets + prep + all planned verifications."""
        num_wires, all_specs = self._allocate_wires()
        circuit = Circuit(num_wires)
        for q in range(self.code.n):
            circuit.reset_z(q)
        for ins in self.prep.circuit:
            circuit.append(ins)
        layers_meta = []
        boundary = len(circuit.instructions)
        for specs in all_specs:
            segment = Circuit(num_wires)
            for spec in specs:
                spec.append_to(segment)
            circuit.extend(segment)
            layers_meta.append(
                {"specs": specs, "segment": segment, "end": len(circuit.instructions)}
            )
        self._num_wires = num_wires
        return circuit, layers_meta

    def finish(self) -> DeterministicProtocol:
        circuit, layers_meta = self._assemble_verifications()
        faults = propagate_all_faults(circuit)
        n = self.code.n
        layers: list[VerificationLayer] = []
        live = np.ones(len(faults.matrix), dtype=bool)  # not terminated earlier
        for li, (plan, meta) in enumerate(zip(self.layer_plans, layers_meta)):
            kind = plan["kind"]
            specs = meta["specs"]
            b_flips = faults.flipped([s.bit for s in specs])
            f_flips = faults.flipped([s.flag_bit for s in specs if s.flagged])
            signatures = np.concatenate([b_flips, f_flips], axis=1)
            rows = np.flatnonzero(live & signatures.any(axis=1))
            # np.unique sorts the rows as the (b, f) tuples sort.
            keys, inverse = np.unique(
                signatures[rows], axis=0, return_inverse=True
            )
            branches = {}
            for k, key in enumerate(keys.tolist()):
                signature = (tuple(key[: len(specs)]), tuple(key[len(specs) :]))
                branches[signature] = self._synthesize_branch(
                    kind, signature, faults, rows[inverse.ravel() == k], li
                )
            layers.append(
                VerificationLayer(kind, specs, meta["segment"], branches)
            )
            live &= ~f_flips.any(axis=1)

        prep_segment = Circuit(self._num_wires)
        for q in range(n):
            prep_segment.reset_z(q)
        for ins in self.prep.circuit:
            prep_segment.append(ins)
        protocol = DeterministicProtocol(
            self.code, self.prep, layers, self._num_wires, prep_segment
        )
        _build_branch_circuits(protocol, self._branch_pool_start)
        return protocol

    def _synthesize_branch(self, kind, signature, faults, members, layer_index):
        """Correction branch for the fault-table rows ``members``."""
        b, f = signature
        is_hook = any(f)
        error_kind = _OPPOSITE[kind] if is_hook else kind
        reducer = error_reducer(self.code, error_kind)
        errors = (faults.x if error_kind == "X" else faults.z)[members, : self.code.n]
        correction = synthesize_correction(
            errors,
            detection_basis(self.code, error_kind),
            reducer,
            max_measurements=self.max_corr,
        )
        specs = []
        for mi, support in enumerate(correction.measurements):
            specs.append(
                MeasurementSpec(
                    support=support,
                    basis=_DETECTION_GADGET_BASIS[error_kind],
                    order=[int(q) for q in np.nonzero(support)[0]],
                    bit=_branch_bit(layer_index, signature, mi),
                    ancilla=-1,  # assigned by _build_branch_circuits
                )
            )
        return CorrectionBranch(
            signature=signature,
            recovery_kind=error_kind,
            measurements=specs,
            recoveries=correction.recoveries,
            terminate=is_hook,
        )


def _branch_bit(layer_index, signature, mi) -> str:
    b, f = signature
    tag = "".join(map(str, b)) + "_" + "".join(map(str, f))
    return f"c{layer_index}.{tag}.{mi}"


def _build_branch_circuits(protocol: DeterministicProtocol, pool_start: int) -> None:
    """Assign pool ancillae to branch measurements and build their circuits."""
    for layer in protocol.layers:
        for branch in layer.branches.values():
            segment = Circuit(protocol.num_wires)
            for mi, spec in enumerate(branch.measurements):
                spec.ancilla = pool_start + mi
                spec.append_to(segment)
            branch.circuit = segment
