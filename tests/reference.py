"""Test-side references: the forward fault propagation behind
``core.faults``'s backward sweep, and for ``SubsetSampler`` an engine
double and the per-shot oracle for the stratum planner's exact masses.

:func:`propagate_fault` pushes one fault's Pauli frame forward through the
rest of the circuit, one instruction at a time — O(faults × instructions)
over a circuit, where ``propagate_all_faults`` makes one linear pass.
:func:`sweep_mismatches` compares the two on a circuit.

The planner (``repro.sim.shard``) enumerates the k = 1 rows and k = 2
pair runs of a location universe as index arrays and sums the probability
of the failing ones. :func:`reference_mass` recomputes the same mass the
slow, independent way: it walks ``SiteUniverse.iter_rows()`` /
``iter_pair_runs()`` as injection dicts and judges each run on its own
with ``ProtocolRunner`` + ``LogicalJudge``, never through index arrays.

The engines take indexed batches only; :func:`dicts_to_indexed` turns
hand-built per-shot injection dicts into such a batch, so dict-shaped
cases can still be compared against ``ProtocolRunner`` directly.

For the batched engine's packed fault image, :func:`scatter_fault_image`
is the direct construction the engine's GF(2) product replaces: every
(component, shot) entry of a batch XOR-scattered into the image, from a
pair-major signature table of forward-propagated draws.
:func:`packed_planes` packs ``(shots, n)`` residual rows the way the
engine does, for feeding ``LogicalJudge.failure_mask`` directly.

:func:`rank_independent_rows` and :func:`rank_augment_to_basis` are the
GF(2) basis helpers that ``repro.pauli.symplectic`` replaced with one
incremental echelon: they decide each candidate row by a full rank.

:func:`loop_reduce_columns` is the optimal-prep column reduction as a scan
over every (target, source) pair, which ``repro.synth.prep`` replaced with
one array op per step; :func:`reduction_mismatches` compares the two over
a code's information sets. :func:`per_row_dedupe` and
:func:`per_error_candidate_pool` are ``CosetReducer.dedupe`` with one
``reduce`` per first-seen row and the correction candidate pool with one
bit-matrix coset-weight broadcast per error, which the reducer's integer
row keys (one chunked pass in ``dedupe``, one ``isin`` in ``within_one``)
replaced.

:func:`reference_load` builds a ``Solver``'s clause database by passing
every clause through ``Solver._simplify_clause``, as ``_add_clause`` did
before it learnt to skip clauses with nothing to simplify.

:func:`sat_correction` is correction synthesis with SAT at every ``u >= 1``
(a first model, then weight probes from the span-weight floor down), as
``repro.core.correction`` ran before it enumerated the ``u = 1`` scan and
the floor sets itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.faults import (
    Fault,
    PauliFrame,
    apply_instruction,
    enumerate_faults,
    propagate_all_faults,
)
from repro.core.correction import (
    CorrectionCircuit,
    CorrectionInfeasible,
    _candidate_pool,
    _common_recovery,
    _CorrectionEncoder,
    _maximal_columns,
)
from repro.pauli.symplectic import (
    as_bit_matrix,
    rank,
    row_space_contains,
    span_weight_floors,
)
from repro.sat.cnf import CNF, lit_to_internal
from repro.sat.solver import Solver
from repro.sim.frame import ProtocolRunner, protocol_locations
from repro.sim.logical import LogicalJudge
from repro.sim.noise import draw_tables, materialize_stratum
from repro.sim.noisemodels import site_universe


def propagate(circuit: Circuit, frame: PauliFrame, start: int = 0) -> PauliFrame:
    """Propagate ``frame`` through ``circuit.instructions[start:]`` in place."""
    for instruction in circuit.instructions[start:]:
        apply_instruction(frame, instruction)
    return frame


@dataclass
class PropagatedFault:
    """A fault together with its end-of-circuit observable signature."""

    fault: Fault
    x_error: np.ndarray  # residual X support, full wire register
    z_error: np.ndarray  # residual Z support, full wire register
    flipped: frozenset[str]

    def data_x(self, n: int) -> np.ndarray:
        return self.x_error[:n].copy()

    def data_z(self, n: int) -> np.ndarray:
        return self.z_error[:n].copy()


def propagate_fault(circuit: Circuit, fault: Fault) -> PropagatedFault:
    """Signature of a single fault at the end of ``circuit``, by forward
    propagation of its frame from the instruction after ``fault.index``."""
    frame = PauliFrame.zero(circuit.num_qubits)
    if fault.flip_bit is not None:
        frame.flip(fault.flip_bit)
    for qubit, letter in fault.paulis:
        frame.insert(qubit, letter)
    propagate(circuit, frame, fault.index + 1)
    return PropagatedFault(fault, frame.x, frame.z, frame.flipped_bits())


def sweep_mismatches(circuit: Circuit) -> list[str]:
    """Where ``propagate_all_faults(circuit)`` differs from the forward
    oracle: row count, then per row (in ``enumerate_faults`` order) the x
    and z arrays and the flipped set. Empty when the two agree."""
    table = propagate_all_faults(circuit)
    faults = enumerate_faults(circuit)
    if len(table.matrix) != len(faults):
        return [f"{len(table.matrix)} rows for {len(faults)} faults"]
    problems = []
    for row, fault in enumerate(faults):
        pf = propagate_fault(circuit, fault)
        flipped = {table.bits[i] for i in np.flatnonzero(table.flips[row])}
        if not (
            np.array_equal(table.x[row], pf.x_error)
            and np.array_equal(table.z[row], pf.z_error)
            and flipped == pf.flipped
        ):
            problems.append(f"row {row} ({fault.describe()})")
    return problems


def synthesis_circuits(monkeypatch, synthesize) -> list[Circuit]:
    """Every circuit ``synthesize()`` hands to ``propagate_all_faults``."""
    import repro.core.errors
    import repro.core.protocol

    seen = []

    def recording(circuit):
        seen.append(Circuit(circuit.num_qubits, list(circuit.instructions)))
        return propagate_all_faults(circuit)

    for module in (repro.core.errors, repro.core.protocol):
        monkeypatch.setattr(module, "propagate_all_faults", recording)
    synthesize()
    assert seen
    return seen


def draw_components(compiled, key, injection) -> np.ndarray:
    """Protocol-wide component ids that ``injection`` at location ``key``
    (``(segment key, instruction index)``) flips at its segment's end, by
    :func:`propagate_fault`: the engine-independent reference for a row of
    ``BatchedSampler._signatures()``."""
    segment_key, index = key
    segment = compiled.segments[segment_key]
    circuit, wires = segment.circuit, segment.num_wires
    flip_bit = circuit.instructions[index].bit if injection.flip else None
    pf = propagate_fault(circuit, Fault(index, injection.paulis, flip_bit))
    local = [
        *np.flatnonzero(pf.x_error),
        *(wires + np.flatnonzero(pf.z_error)),
        *(2 * wires + segment.bit_names.index(bit) for bit in pf.flipped),
    ]
    return segment.offset + np.asarray(local, dtype=np.intp)


def scatter_fault_image(engine, shots, pairs, num_shots: int) -> np.ndarray:
    """The ``(num_components, words)`` packed fault image of the ``(shots[e],
    pairs[e])`` entries (pair ids number the (location, draw) pairs
    location-major): every pair's components (by :func:`draw_components`)
    repeated per entry and XOR-scattered, so a pair drawn twice in one shot
    cancels."""
    rows = [
        draw_components(engine.compiled, key, injection)
        for location, (key, _, _) in enumerate(engine.locations)
        for injection in draw_tables(engine.locations)[location]
    ]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    table = np.concatenate(rows)
    first = indptr[pairs]
    counts = indptr[pairs + 1] - first
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    components = table[np.repeat(first - ends + counts, counts) + np.arange(total)]
    shots = np.repeat(shots, counts)
    words = (num_shots + 63) // 64
    image = np.zeros(engine.compiled.num_components * words, dtype=np.uint64)
    bits = np.uint64(1) << (shots & 63).astype(np.uint64)
    np.bitwise_xor.at(image, components * words + (shots >> 6), bits)
    return image.reshape(-1, words)


def packed_planes(rows: np.ndarray) -> np.ndarray:
    """``(shots, n)`` 0/1 rows -> ``(n, words)`` uint64 planes, bit ``s``
    of word ``s // 64`` = shot ``s`` (the batched engine's packing)."""
    rows = np.asarray(rows, dtype=np.uint8)
    shots, n = rows.shape
    packed = np.zeros((n, 8 * ((shots + 63) // 64)), dtype=np.uint8)
    packed[:, : (shots + 7) // 8] = np.packbits(rows.T, axis=1, bitorder="little")
    return packed.view(np.uint64)


def dicts_to_indexed(locations, dicts) -> tuple[np.ndarray, np.ndarray]:
    """Per-shot ``{location key: Injection}`` dicts as one masked indexed
    batch: each injection becomes its (location, draw) slot, padded with
    ``-1`` to the widest shot. An injection composed of draws
    (``noise.compose_injections``) maps to the draw it equals; the
    identity is skipped. An injection outside its location's draw table
    is a ``ValueError``."""
    tables = draw_tables(locations)
    slots = {
        (key, frozenset(draw.paulis), bool(draw.flip)): (location, d)
        for location, (key, _, _) in enumerate(locations)
        for d, draw in enumerate(tables[location])
    }
    rows = []
    for injections in dicts:
        row = []
        for key, injection in injections.items():
            if injection.paulis or injection.flip:
                slot = (key, frozenset(injection.paulis), bool(injection.flip))
                if slot not in slots:
                    raise ValueError(f"{injection} is not a fault draw at {key}")
                row.append(slots[slot])
        rows.append(row)
    width = max((len(row) for row in rows), default=0)
    loc_idx = np.full((len(rows), width), -1, dtype=np.intp)
    draw_idx = np.zeros((len(rows), width), dtype=np.intp)
    for shot, row in enumerate(rows):
        for slot, (location, draw) in enumerate(row):
            loc_idx[shot, slot] = location
            draw_idx[shot, slot] = draw
    return loc_idx, draw_idx


class FakeEngine:
    """Engine double: a shot fails iff ``predicate(injection_dict)``."""

    def __init__(self, predicate, locations):
        self.predicate = predicate
        self.locations = list(locations)

    def failures_indexed(self, loc_idx, draw_idx):
        return np.array(
            [
                bool(self.predicate(injections))
                for injections in materialize_stratum(
                    self.locations, loc_idx, draw_idx
                )
            ],
            dtype=bool,
        )


def reference_mass(protocol, k: int, *, model=None) -> float:
    """Exact ``f_k`` (k = 1 or 2) by a per-shot sum over every run.

    ``model=None`` is E1_1, whose conditional strata do not depend on
    ``p``: the universe's uniform ``1 / (N d)`` and
    ``1 / (C(N, 2) d_a d_b)`` weights.
    """
    universe = site_universe(protocol_locations(protocol), model)
    runs = universe.iter_rows() if k == 1 else universe.iter_pair_runs()
    runner = ProtocolRunner(protocol)
    judge = LogicalJudge(protocol.code)
    total = 0.0
    for injections, weight, *_ in runs:
        if judge.is_logical_failure(runner.run(injections)):
            total += weight
    return total


def rank_independent_rows(mat: np.ndarray) -> np.ndarray:
    """``independent_rows`` by one rank per candidate row."""
    mat = as_bit_matrix(mat)
    kept: list[int] = []
    current = np.zeros((0, mat.shape[1]), dtype=np.uint8)
    for i in range(mat.shape[0]):
        candidate = np.concatenate([current, mat[i : i + 1]], axis=0)
        if rank(candidate) > current.shape[0]:
            current = candidate
            kept.append(i)
    return mat[kept].copy()


def rank_augment_to_basis(subspace: np.ndarray, space: np.ndarray) -> np.ndarray:
    """``augment_to_basis`` by one rank per candidate row."""
    subspace = as_bit_matrix(subspace, space.shape[1])
    for row in subspace:
        if not row_space_contains(space, row):
            raise ValueError("subspace is not contained in space")
    added: list[np.ndarray] = []
    current = rank_independent_rows(subspace)
    target_rank = rank(space)
    for row in space:
        if current.shape[0] == target_rank:
            break
        candidate = np.concatenate([current, row.reshape(1, -1)], axis=0)
        if rank(candidate) > current.shape[0]:
            current = candidate
            added.append(row.copy())
    return (
        np.array(added, dtype=np.uint8)
        if added
        else np.zeros((0, space.shape[1]), dtype=np.uint8)
    )


def loop_reduce_columns(generator: np.ndarray, pivots: list[int]) -> list[tuple[int, int]]:
    """``synth.prep._reduce_columns`` by a strict ``>`` scan over targets,
    then sources, with two array calls per pair."""
    work = generator.copy()
    r, n = work.shape
    pivot_set = set(pivots)
    non_pivots = [q for q in range(n) if q not in pivot_set]
    ops: list[tuple[int, int]] = []
    while True:
        weights = work.sum(axis=0)
        remaining = int(weights[non_pivots].sum())
        if remaining == 0:
            break
        best_gain = 0
        best_op: tuple[int, int] | None = None
        for t in non_pivots:
            if weights[t] == 0:
                continue
            col_t = work[:, t]
            for c in range(n):
                if c == t:
                    continue
                col_c = work[:, c]
                if not col_c.any():
                    continue
                gain = int(weights[t]) - int((col_t ^ col_c).sum())
                if gain > best_gain:
                    best_gain = gain
                    best_op = (c, t)
        if best_op is None:
            t = next(q for q in non_pivots if weights[q])
            i = int(np.nonzero(work[:, t])[0][0])
            best_op = (pivots[i], t)
        c, t = best_op
        work[:, t] ^= work[:, c]
        ops.append((c, t))
    return ops


def reduction_mismatches(code, sample: int | None = None, seed: int = 0) -> tuple[int, list]:
    """Compare ``_reduce_columns`` with :func:`loop_reduce_columns` on every
    information set of ``code``, or on ``sample`` seeded ones. Returns the
    number of sets compared and the pivot lists whose op lists differ."""
    from repro.synth.prep import _reduce_columns, _rref_with_pivots

    hx = as_bit_matrix(code.hx)
    r = rank(hx)
    if sample is None:
        candidates = itertools.combinations(range(code.n), r)
    else:
        rng = np.random.default_rng(seed)
        candidates = (sorted(rng.choice(code.n, size=r, replace=False).tolist())
                      for _ in itertools.count())
    compared, mismatches = 0, []
    for columns in candidates:
        generator = _rref_with_pivots(hx, list(columns))
        if generator is None:
            continue
        compared += 1
        if _reduce_columns(generator, list(columns)) != loop_reduce_columns(generator, list(columns)):
            mismatches.append(list(columns))
        if compared == sample:
            break
    return compared, mismatches


def per_row_dedupe(reducer, errors) -> list[np.ndarray]:
    """``CosetReducer.dedupe`` with one ``reduce`` call per first-seen row."""
    mat = np.asarray(errors, dtype=np.uint8).reshape(-1, reducer.n)
    keys = reducer._row_keys(mat)
    labels = np.array([(key ^ reducer._keys).min() for key in keys], dtype=keys.dtype)
    _, first = np.unique(labels, return_index=True)
    return [reducer.reduce(mat[i]) for i in np.sort(first)]


def per_error_candidate_pool(errors, reducer) -> tuple[list[np.ndarray], np.ndarray]:
    """``core.correction._candidate_pool`` with ``ok`` built one error at a
    time from a (candidates, span, n) bit broadcast."""
    n = reducer.n
    singles = np.vstack([np.zeros(n, dtype=np.uint8), np.eye(n, dtype=np.uint8)])
    pool = per_row_dedupe(reducer, [error ^ r for error in errors for r in singles])
    pool_matrix = np.array(pool, dtype=np.uint8)
    ok = np.array([
        ((pool_matrix ^ error)[:, None, :] ^ reducer._span).sum(axis=2).min(axis=1) <= 1
        for error in errors
    ])
    return pool, ok


def reference_load(cnf: CNF) -> Solver:
    """A ``Solver`` for ``cnf`` whose clauses all went through
    ``_simplify_clause``."""
    blank = CNF()
    blank.new_vars(cnf.num_vars)
    solver = Solver(blank)
    for clause in cnf.clauses:
        lits = solver._simplify_clause([lit_to_internal(lit) for lit in clause])
        if lits is None:  # tautology or satisfied at level 0
            continue
        if len(lits) >= 2:
            solver._attach(lits)
            solver._clauses.append(lits)
        elif not lits or not (
            solver._enqueue(lits[0], None) and solver._propagate() is None
        ):
            solver._ok = False
            break
    return solver


def sat_correction(errors, detection_basis, reducer, *, max_measurements: int = 4):
    """``synthesize_correction`` deciding every ``u >= 1`` and every weight
    bound with the SAT encoder."""
    errors = reducer.dedupe(errors)
    n = reducer.n
    if not errors:
        return CorrectionCircuit([], {})
    candidates, ok = _candidate_pool(errors, reducer)
    # u = 0: one shared recovery, checked directly.
    direct = _common_recovery(range(len(errors)), candidates, ok)
    if direct is not None:
        return CorrectionCircuit(
            [], {(): candidates[direct].copy()}, num_errors=len(errors)
        )
    basis = as_bit_matrix(detection_basis, n)
    cover = _maximal_columns(ok)
    for u in range(1, max_measurements + 1):
        encoder = _CorrectionEncoder(basis, errors, cover, u)
        solver = Solver(encoder.cnf)
        result = solver.solve()
        if not result.sat:
            continue
        best = encoder.extract(result.model, errors, candidates, ok)
        # Probe the floor first; only if it is UNSAT step the bound down
        # by one from the model in hand. ``lowest`` is the least weight
        # not yet refuted.
        lowest = bound = int(span_weight_floors(basis)[u - 1])
        while best.cnot_count > lowest:
            probe = solver.solve(assumptions=encoder.totalizer.at_most(bound))
            if probe.sat:
                best = encoder.extract(probe.model, errors, candidates, ok)
            else:
                lowest = bound + 1
            bound = best.cnot_count - 1
        best.num_errors = len(errors)
        return best
    raise CorrectionInfeasible(
        f"no correction with <= {max_measurements} measurements for "
        f"{len(errors)} errors"
    )
