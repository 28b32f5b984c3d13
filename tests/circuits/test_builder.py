"""Unit tests for stabilizer-measurement gadget builders.

The gadgets must (a) measure the intended operator, and (b) in the flagged
variant, raise the flag exactly for the ancilla faults that produce
dangerous hook errors. Both are checked against the fault propagation and
tableau substrates rather than against hand-written expectations.
"""

import numpy as np
import pytest

from repro.circuits.builder import (
    append_measurement,
    append_x_measurement,
    append_z_measurement,
    support_order,
)
from repro.circuits.circuit import Circuit
from repro.codes.catalog import steane_code
from repro.core.faults import PauliFrame
from repro.sim.tableau import Tableau, run_circuit

from ..reference import propagate


class TestSupportOrder:
    def test_default_ascending(self):
        assert support_order([0, 1, 0, 1, 1]) == [1, 3, 4]

    def test_explicit_order(self):
        assert support_order([0, 1, 0, 1, 1], [4, 1, 3]) == [4, 1, 3]

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            support_order([0, 1, 0, 1, 0], [1, 2])


class TestGadgetStructure:
    def test_z_measurement_layout(self):
        c = Circuit(5)
        append_z_measurement(c, [1, 1, 1, 0, 0], ancilla=4, bit="b")
        assert c.count("ResetZ") == 1
        assert c.count("CX") == 3
        assert c.count("MeasureZ") == 1
        # All CNOTs target the ancilla.
        for ins in c:
            if ins.kind == "CX":
                assert ins.target == 4

    def test_x_measurement_layout(self):
        c = Circuit(5)
        append_x_measurement(c, [1, 1, 1, 0, 0], ancilla=4, bit="b")
        assert c.count("ResetX") == 1
        assert c.count("MeasureX") == 1
        for ins in c:
            if ins.kind == "CX":
                assert ins.control == 4

    def test_flagged_adds_two_cnots_and_flag_readout(self):
        bare = Circuit(6)
        append_z_measurement(bare, [1, 1, 1, 1, 0, 0], ancilla=4, bit="b")
        flagged = Circuit(6)
        append_z_measurement(
            flagged, [1, 1, 1, 1, 0, 0], ancilla=4, bit="b",
            flag_ancilla=5, flag_bit="f",
        )
        assert flagged.cnot_count == bare.cnot_count + 2
        assert flagged.count("MeasureX") == 1  # flag readout
        assert flagged.count("ResetX") == 1

    def test_flagging_weight_2_rejected(self):
        c = Circuit(4)
        with pytest.raises(ValueError):
            append_z_measurement(
                c, [1, 1, 0, 0], ancilla=2, bit="b",
                flag_ancilla=3, flag_bit="f",
            )

    def test_flag_bit_required(self):
        c = Circuit(5)
        with pytest.raises(ValueError):
            append_z_measurement(
                c, [1, 1, 1, 0, 0], ancilla=3, bit="b", flag_ancilla=4
            )

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            append_z_measurement(Circuit(3), [0, 0, 0], ancilla=2, bit="b")

    def test_dispatch(self):
        c = Circuit(4)
        append_measurement(c, [1, 1, 0, 0], "Z", ancilla=3, bit="b")
        assert c.count("MeasureZ") == 1
        c2 = Circuit(4)
        append_measurement(c2, [1, 1, 0, 0], "X", ancilla=3, bit="b")
        assert c2.count("MeasureX") == 1
        with pytest.raises(ValueError):
            append_measurement(Circuit(4), [1, 1, 0, 0], "Y", 3, "b")


class TestMeasurementSemantics:
    """Gadgets measure the right operator — checked on the tableau."""

    def test_z_gadget_reads_plus_one_on_stabilizer_state(self):
        # Prepare |0000>: any Z product measures 0.
        c = Circuit(5)
        append_z_measurement(c, [1, 1, 1, 1, 0], ancilla=4, bit="b")
        _, outcomes = run_circuit(c, Tableau(5, np.random.default_rng(0)))
        assert outcomes["b"] == 0

    def test_z_gadget_detects_x_error(self):
        gadget = Circuit(5)
        append_z_measurement(gadget, [1, 1, 1, 1, 0], ancilla=4, bit="b")
        frame = PauliFrame.zero(5)
        frame.insert(1, "X")
        propagate(gadget, frame)
        assert frame.flips.get("b", 0) == 1

    def test_z_gadget_ignores_even_errors(self):
        gadget = Circuit(5)
        append_z_measurement(gadget, [1, 1, 1, 1, 0], ancilla=4, bit="b")
        frame = PauliFrame.zero(5)
        frame.insert(0, "X")
        frame.insert(3, "X")
        propagate(gadget, frame)
        assert frame.flips.get("b", 0) == 0

    def test_x_gadget_detects_z_error(self):
        gadget = Circuit(5)
        append_x_measurement(gadget, [1, 1, 1, 1, 0], ancilla=4, bit="b")
        frame = PauliFrame.zero(5)
        frame.insert(2, "Z")
        propagate(gadget, frame)
        assert frame.flips.get("b", 0) == 1

    def test_steane_stabilizer_deterministic_on_encoded_state(self):
        """Measuring any stabilizer of |0>_L must give +1 deterministically."""
        from repro.synth.prep import prepare_zero_heuristic

        code = steane_code()
        prep = prepare_zero_heuristic(code)
        circuit = Circuit(8)
        for q in range(7):
            circuit.reset_z(q)
        circuit.extend(prep.circuit)
        append_z_measurement(circuit, code.hz[0], ancilla=7, bit="s")
        rng = np.random.default_rng(11)
        for _ in range(5):  # prep has random H outcomes internally? no — determinisic
            _, outcomes = run_circuit(circuit, Tableau(8, rng))
            assert outcomes["s"] == 0


class TestFlagSemantics:
    def test_flag_silent_without_faults(self):
        c = Circuit(6)
        append_z_measurement(
            c, [1, 1, 1, 1, 0, 0], ancilla=4, bit="b",
            flag_ancilla=5, flag_bit="f",
        )
        _, outcomes = run_circuit(c, Tableau(6, np.random.default_rng(0)))
        assert outcomes["f"] == 0
        assert outcomes["b"] == 0

    def test_x_ancilla_fault_flips_syndrome_not_flag(self):
        """An X on the syndrome ancilla mid-gadget flips ``b`` (a fake
        syndrome), but cannot raise the flag — the flag watches Z hooks."""
        from repro.core.faults import apply_instruction

        c = Circuit(6)
        append_z_measurement(
            c, [1, 1, 1, 1, 0, 0], ancilla=4, bit="b",
            flag_ancilla=5, flag_bit="f",
        )
        cx_indices = [
            i for i, ins in enumerate(c)
            if ins.kind == "CX" and ins.target == 4 and ins.control != 5
        ]
        frame = PauliFrame.zero(6)
        cut = cx_indices[1] + 1
        for ins in c.instructions[:cut]:
            apply_instruction(frame, ins)
        frame.insert(4, "X")
        for ins in c.instructions[cut:]:
            apply_instruction(frame, ins)
        assert frame.flips.get("b", 0) == 1
        assert frame.flips.get("f", 0) == 0
        # And no data error at all: X on the ancilla never hooks back.
        assert frame.x[:4].sum() == 0 and frame.z[:4].sum() == 0

    def test_hook_z_fault_flips_flag(self):
        """A Z on the syndrome ancilla mid-gadget propagates Z onto the data
        suffix (hook); in the flagged gadget it must also flip the flag."""
        from repro.core.faults import apply_instruction

        c = Circuit(6)
        append_z_measurement(
            c, [1, 1, 1, 1, 0, 0], ancilla=4, bit="b",
            flag_ancilla=5, flag_bit="f",
        )
        data_cx = [
            i for i, ins in enumerate(c)
            if ins.kind == "CX" and ins.target == 4 and ins.control != 5
        ]
        frame = PauliFrame.zero(6)
        cut = data_cx[1] + 1  # after second data CNOT, inside flag window
        for ins in c.instructions[:cut]:
            apply_instruction(frame, ins)
        frame.insert(4, "Z")
        for ins in c.instructions[cut:]:
            apply_instruction(frame, ins)
        # Hook error: Z on the remaining data support {2, 3}.
        assert frame.z[:4].sum() == 2
        assert frame.flips.get("f", 0) == 1
