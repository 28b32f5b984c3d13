"""Property-based tests for circuits, frames, and the tableau simulator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.core.faults import PauliFrame
from repro.sim.tableau import Tableau, run_circuit

from ..reference import propagate


@st.composite
def clifford_circuit(draw, max_qubits=5, max_gates=20):
    n = draw(st.integers(2, max_qubits))
    circuit = Circuit(n)
    num_gates = draw(st.integers(0, max_gates))
    for _ in range(num_gates):
        kind = draw(st.sampled_from(["h", "cx"]))
        if kind == "h":
            circuit.h(draw(st.integers(0, n - 1)))
        else:
            control = draw(st.integers(0, n - 1))
            target = draw(st.integers(0, n - 2))
            if target >= control:
                target += 1
            circuit.cx(control, target)
    return circuit


@st.composite
def pauli_insertion(draw, n):
    qubit = draw(st.integers(0, n - 1))
    letter = draw(st.sampled_from(["X", "Y", "Z"]))
    return qubit, letter


class TestFrameVsTableau:
    @settings(max_examples=80, deadline=None)
    @given(clifford_circuit(), st.data())
    def test_frame_propagation_matches_tableau_conjugation(self, circuit, data):
        """Propagating a Pauli through a unitary circuit with the frame must
        match applying it on the tableau: final Z/X parities agree."""
        n = circuit.num_qubits
        qubit, letter = data.draw(pauli_insertion(n))

        # Frame: insert at the start, propagate through.
        frame = PauliFrame.zero(n)
        frame.insert(qubit, letter)
        propagate(circuit, frame)

        # Tableau A: plain circuit. Tableau B: Pauli first, then circuit.
        rng = np.random.default_rng(0)
        tab_a = Tableau(n, rng)
        run_circuit(circuit, tab_a)
        tab_b = Tableau(n, np.random.default_rng(0))
        if letter in ("X", "Y"):
            tab_b.pauli_x(qubit)
        if letter in ("Z", "Y"):
            tab_b.pauli_z(qubit)
        run_circuit(circuit, tab_b)

        # Compare deterministic Z-product expectations: for each qubit q,
        # if Z_q is deterministic in A it must be deterministic in B and
        # differ exactly by the frame's X parity on q.
        for q in range(n):
            support = np.zeros(n, dtype=np.uint8)
            support[q] = 1
            sign_a = tab_a.expectation_sign(support)
            sign_b = tab_b.expectation_sign(support)
            if sign_a is None:
                assert sign_b is None
            else:
                assert sign_b == sign_a ^ int(frame.x[q])

    @settings(max_examples=50, deadline=None)
    @given(clifford_circuit(max_qubits=4, max_gates=12))
    def test_unitary_circuit_preserves_frame_weight_parity(self, circuit):
        """H and CX map Paulis to Paulis — the frame never becomes trivial
        unless it started trivial (Clifford conjugation is invertible)."""
        n = circuit.num_qubits
        frame = PauliFrame.zero(n)
        frame.insert(0, "X")
        propagate(circuit, frame)
        assert frame.x.any() or frame.z.any()

    @settings(max_examples=40, deadline=None)
    @given(clifford_circuit(max_qubits=4, max_gates=10))
    def test_frame_linearity(self, circuit):
        """Propagation is linear: frame(P1*P2) = frame(P1) ^ frame(P2)."""
        n = circuit.num_qubits
        f1 = PauliFrame.zero(n)
        f1.insert(0, "X")
        propagate(circuit, f1)
        f2 = PauliFrame.zero(n)
        f2.insert(n - 1, "Z")
        propagate(circuit, f2)
        f12 = PauliFrame.zero(n)
        f12.insert(0, "X")
        f12.insert(n - 1, "Z")
        propagate(circuit, f12)
        assert (f12.x == (f1.x ^ f2.x)).all()
        assert (f12.z == (f1.z ^ f2.z)).all()


class TestTableauProperties:
    @settings(max_examples=50, deadline=None)
    @given(clifford_circuit(max_qubits=4, max_gates=15), st.integers(0, 100))
    def test_measurement_repeatable(self, circuit, seed):
        tab, _ = run_circuit(circuit, Tableau(circuit.num_qubits,
                                              np.random.default_rng(seed)))
        q = 0
        first = tab.measure_z(q)
        assert tab.measure_z(q) == first

    @settings(max_examples=50, deadline=None)
    @given(clifford_circuit(max_qubits=4, max_gates=15), st.integers(0, 100))
    def test_double_h_identity(self, circuit, seed):
        """Appending H H to any wire leaves all outcomes unchanged."""
        n = circuit.num_qubits
        extended = circuit.copy()
        extended.h(0)
        extended.h(0)
        tab_a, _ = run_circuit(circuit, Tableau(n, np.random.default_rng(seed)))
        tab_b, _ = run_circuit(extended, Tableau(n, np.random.default_rng(seed)))
        for q in range(n):
            support = np.zeros(n, dtype=np.uint8)
            support[q] = 1
            assert tab_a.expectation_sign(support) == tab_b.expectation_sign(
                support
            )

    @settings(max_examples=30, deadline=None)
    @given(clifford_circuit(max_qubits=4, max_gates=12), st.integers(0, 50))
    def test_cx_self_inverse(self, circuit, seed):
        n = circuit.num_qubits
        extended = circuit.copy()
        extended.cx(0, 1)
        extended.cx(0, 1)
        tab_a, _ = run_circuit(circuit, Tableau(n, np.random.default_rng(seed)))
        tab_b, _ = run_circuit(extended, Tableau(n, np.random.default_rng(seed)))
        for q in range(n):
            support = np.zeros(n, dtype=np.uint8)
            support[q] = 1
            assert tab_a.expectation_sign(support) == tab_b.expectation_sign(
                support
            )
