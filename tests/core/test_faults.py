"""Unit tests for single-fault enumeration, the frame rules and the
backward signature sweep."""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.core.faults import (
    ONE_QUBIT_PAULIS,
    TWO_QUBIT_PAULIS,
    Fault,
    PauliFrame,
    apply_instruction,
    enumerate_faults,
    propagate_all_faults,
)
from repro.experiments.table1 import TABLE1_FAST_ROWS, run_row

from ..reference import propagate, sweep_mismatches, synthesis_circuits


def signature_row(circuit, fault):
    """The sweep table of ``circuit`` and the row of ``fault`` in it."""
    return propagate_all_faults(circuit), enumerate_faults(circuit).index(fault)


class TestPauliConstants:
    def test_one_qubit_paulis(self):
        assert ONE_QUBIT_PAULIS == ("X", "Y", "Z")

    def test_fifteen_two_qubit_paulis(self):
        assert len(TWO_QUBIT_PAULIS) == 15
        assert "II" not in TWO_QUBIT_PAULIS
        assert len(set(TWO_QUBIT_PAULIS)) == 15


class TestFrameRules:
    def test_cx_propagates_x_from_control(self):
        c = Circuit(2).cx(0, 1)
        frame = PauliFrame.zero(2)
        frame.insert(0, "X")
        propagate(c, frame)
        assert frame.x.tolist() == [1, 1]

    def test_cx_propagates_z_from_target(self):
        c = Circuit(2).cx(0, 1)
        frame = PauliFrame.zero(2)
        frame.insert(1, "Z")
        propagate(c, frame)
        assert frame.z.tolist() == [1, 1]

    def test_cx_x_on_target_stays(self):
        c = Circuit(2).cx(0, 1)
        frame = PauliFrame.zero(2)
        frame.insert(1, "X")
        propagate(c, frame)
        assert frame.x.tolist() == [0, 1]

    def test_cx_z_on_control_stays(self):
        c = Circuit(2).cx(0, 1)
        frame = PauliFrame.zero(2)
        frame.insert(0, "Z")
        propagate(c, frame)
        assert frame.z.tolist() == [1, 0]

    def test_h_swaps_x_and_z(self):
        c = Circuit(1).h(0)
        frame = PauliFrame.zero(1)
        frame.insert(0, "X")
        propagate(c, frame)
        assert frame.x[0] == 0 and frame.z[0] == 1

    def test_h_fixes_y(self):
        c = Circuit(1).h(0)
        frame = PauliFrame.zero(1)
        frame.insert(0, "Y")
        propagate(c, frame)
        assert frame.x[0] == 1 and frame.z[0] == 1

    def test_reset_clears_frame(self):
        c = Circuit(1).reset_z(0)
        frame = PauliFrame.zero(1)
        frame.insert(0, "Y")
        propagate(c, frame)
        assert frame.x[0] == 0 and frame.z[0] == 0

    def test_measure_z_flips_on_x(self):
        c = Circuit(1).measure_z(0, "m")
        frame = PauliFrame.zero(1)
        frame.insert(0, "X")
        propagate(c, frame)
        assert frame.flips["m"] == 1

    def test_measure_z_ignores_z(self):
        c = Circuit(1).measure_z(0, "m")
        frame = PauliFrame.zero(1)
        frame.insert(0, "Z")
        propagate(c, frame)
        assert frame.flips.get("m", 0) == 0

    def test_measure_x_flips_on_z(self):
        c = Circuit(1).measure_x(0, "m")
        frame = PauliFrame.zero(1)
        frame.insert(0, "Z")
        propagate(c, frame)
        assert frame.flips["m"] == 1

    def test_double_flip_cancels(self):
        frame = PauliFrame.zero(1)
        frame.flip("m")
        frame.flip("m")
        assert frame.flipped_bits() == frozenset()

    def test_conditional_pauli_ignored(self):
        c = Circuit(2).conditional_pauli(x_support=[0], condition=[("m", 1)])
        frame = PauliFrame.zero(2)
        propagate(c, frame)
        assert not frame.x.any()

    def test_unknown_instruction_rejected(self):
        class Bogus:
            pass

        with pytest.raises(TypeError):
            apply_instruction(PauliFrame.zero(1), Bogus())

    def test_copy_independent(self):
        frame = PauliFrame.zero(2)
        frame.insert(0, "X")
        frame.flip("m")
        clone = frame.copy()
        clone.insert(1, "Z")
        clone.flip("m")
        assert frame.z[1] == 0
        assert frame.flips["m"] == 1


class TestEnumeration:
    def test_h_produces_three_faults(self):
        faults = enumerate_faults(Circuit(1).h(0))
        assert len(faults) == 3
        letters = {f.paulis[0][1] for f in faults}
        assert letters == {"X", "Y", "Z"}

    def test_cx_produces_fifteen_faults(self):
        faults = enumerate_faults(Circuit(2).cx(0, 1))
        assert len(faults) == 15

    def test_reset_z_produces_x_fault(self):
        faults = enumerate_faults(Circuit(1).reset_z(0))
        assert len(faults) == 1
        assert faults[0].paulis == ((0, "X"),)

    def test_reset_x_produces_z_fault(self):
        faults = enumerate_faults(Circuit(1).reset_x(0))
        assert faults[0].paulis == ((0, "Z"),)

    def test_measurement_produces_flip_fault(self):
        faults = enumerate_faults(Circuit(1).measure_z(0, "m"))
        assert len(faults) == 1
        assert faults[0].flip_bit == "m"

    def test_conditional_pauli_no_faults(self):
        c = Circuit(1).conditional_pauli(x_support=[0])
        assert enumerate_faults(c) == []

    def test_location_count_formula(self):
        c = Circuit(3)
        c.reset_z(0).h(0).cx(0, 1).cx(1, 2).measure_z(2, "m")
        faults = enumerate_faults(c)
        assert len(faults) == 1 + 3 + 15 + 15 + 1

    def test_describe(self):
        assert "flip(m)" in Fault(3, (), "m").describe()
        assert "X0" in Fault(0, ((0, "X"),)).describe()


class TestPropagation:
    def test_fault_after_gate_not_propagated_through_it(self):
        # X inserted after the CX must not copy to the target.
        c = Circuit(2).cx(0, 1)
        table, row = signature_row(c, Fault(0, ((0, "X"),)))
        assert table.x[row].tolist() == [1, 0]

    def test_fault_before_later_gate_propagates(self):
        c = Circuit(2).cx(0, 1).cx(0, 1)
        # After first CX: X on control spreads through the second CX.
        table, row = signature_row(c, Fault(0, ((0, "X"),)))
        assert table.x[row].tolist() == [1, 1]

    def test_measurement_flip_fault(self):
        c = Circuit(1).measure_z(0, "m")
        table, row = signature_row(c, Fault(0, (), "m"))
        assert table.bits == ("m",)
        assert table.flips[row].tolist() == [1]
        assert not table.x[row].any()

    def test_flip_fault_does_not_touch_later_measurements(self):
        c = Circuit(1).measure_z(0, "a").measure_z(0, "b")
        table, row = signature_row(c, Fault(0, (), "a"))
        assert table.flipped(["a", "b"])[row].tolist() == [1, 0]

    def test_data_projections(self):
        c = Circuit(3).h(2)
        table, row = signature_row(c, Fault(0, ((2, "Y"),)))
        assert table.x[row, :2].tolist() == [0, 0]
        assert table.x[row, :3].tolist() == [0, 0, 1]
        assert table.z[row, :3].tolist() == [0, 0, 1]

    def test_propagate_all_count_matches_enumerate(self):
        c = Circuit(2).h(0).cx(0, 1).measure_z(1, "m")
        assert len(propagate_all_faults(c).matrix) == len(enumerate_faults(c))

    def test_example_3_steane_prep_not_ft(self):
        """Paper Example 3: some single X fault in the Steane prep circuit
        propagates to a dangerous (wt_S >= 2) error."""
        from repro.codes.catalog import steane_code
        from repro.core.errors import error_reducer
        from repro.synth.prep import prepare_zero_heuristic

        prep = prepare_zero_heuristic(steane_code())
        reducer = error_reducer(prep.code, "X")
        table = propagate_all_faults(prep.circuit)
        assert reducer.coset_weights_batch(table.x[:, :7]).max() >= 2


class TestSweepEdgeCases:
    """The backward sweep against the forward oracle on small circuits."""

    def test_empty_circuit(self):
        table = propagate_all_faults(Circuit(3))
        assert table.matrix.shape == (0, 6)
        assert table.bits == ()

    def test_conditional_pauli_is_identity(self):
        c = Circuit(2).h(0).cx(0, 1)
        c.conditional_pauli(x_support=[1], condition=[("m", 1)])
        c.cx(1, 0).measure_z(0, "m")
        assert sweep_mismatches(c) == []
        plain = Circuit(2).h(0).cx(0, 1).cx(1, 0).measure_z(0, "m")
        assert np.array_equal(
            propagate_all_faults(c).matrix, propagate_all_faults(plain).matrix
        )

    def test_qubit_measured_twice_under_two_names(self):
        c = Circuit(2).reset_z(0).cx(1, 0).measure_z(0, "a").h(0)
        c.measure_x(0, "b").cx(0, 1).measure_z(1, "c")
        table = propagate_all_faults(c)
        assert table.bits == ("a", "b", "c")
        assert sweep_mismatches(c) == []
        # X on wire 0 flips "a"; the H turns it into the Z that "b"
        # reads, so "b" flips too.
        _, row = signature_row(c, Fault(1, ((0, "X"),)))
        assert table.flipped(["a", "b"])[row].tolist() == [1, 1]

    def test_every_instruction_kind(self):
        c = Circuit(3)
        c.reset_z(0).reset_x(1).h(2).cx(0, 1).cx(2, 0).measure_z(1, "m")
        c.measure_x(2, "n").h(0).cx(1, 2).reset_z(1).measure_z(0, "o")
        assert sweep_mismatches(c) == []


class TestSweepOnSynthesis:
    """The sweep equals the forward oracle, row for row, on every circuit
    synthesis propagates: dangerous errors, layer hooks, protocol assembly
    (the random-code instances: ``tests/integration/test_random_codes.py``)."""

    @pytest.mark.parametrize(
        "row",
        [*TABLE1_FAST_ROWS, ("tesseract", "heuristic", "optimal")],
        ids="/".join,
    )
    def test_table1_rows(self, monkeypatch, row):
        for circuit in synthesis_circuits(monkeypatch, lambda: run_row(*row)):
            assert sweep_mismatches(circuit) == []
