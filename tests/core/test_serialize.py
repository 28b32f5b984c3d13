"""Round-trip tests for protocol JSON serialization."""

import json

import numpy as np
import pytest

from repro.core.ftcheck import check_fault_tolerance
from repro.core.metrics import protocol_metrics
from repro.core.serialize import (
    dump_protocol,
    load_protocol,
    protocol_from_json,
    protocol_to_json,
)

from ..conftest import cached_protocol


def assert_protocols_identical(a, b):
    assert a.code.name == b.code.name
    assert (a.code.hx == b.code.hx).all()
    assert (a.code.hz == b.code.hz).all()
    assert a.num_wires == b.num_wires
    assert [str(i) for i in a.prep_segment] == [str(i) for i in b.prep_segment]
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        assert la.kind == lb.kind
        assert [str(i) for i in la.circuit] == [str(i) for i in lb.circuit]
        assert la.branches.keys() == lb.branches.keys()
        for signature in la.branches:
            ba, bb = la.branches[signature], lb.branches[signature]
            assert ba.recovery_kind == bb.recovery_kind
            assert ba.terminate == bb.terminate
            assert ba.recoveries.keys() == bb.recoveries.keys()
            for syndrome in ba.recoveries:
                assert (
                    ba.recoveries[syndrome] == bb.recoveries[syndrome]
                ).all()
            assert [str(i) for i in ba.circuit] == [str(i) for i in bb.circuit]


class TestRoundTrip:
    @pytest.mark.parametrize("key", ["steane", "shor", "carbon"])
    def test_json_roundtrip_identical(self, key):
        original = cached_protocol(key)
        restored = protocol_from_json(protocol_to_json(original))
        assert_protocols_identical(original, restored)

    def test_loaded_protocol_still_fault_tolerant(self):
        original = cached_protocol("steane")
        restored = protocol_from_json(protocol_to_json(original))
        assert check_fault_tolerance(restored) == []

    def test_loaded_protocol_same_metrics(self):
        original = cached_protocol("carbon")
        restored = protocol_from_json(protocol_to_json(original))
        assert (
            protocol_metrics(original).as_row()
            == protocol_metrics(restored).as_row()
        )

    def test_file_roundtrip(self, tmp_path):
        original = cached_protocol("steane")
        path = tmp_path / "steane.json"
        dump_protocol(original, path)
        restored = load_protocol(path)
        assert_protocols_identical(original, restored)

    def test_double_roundtrip_stable(self):
        original = cached_protocol("steane")
        once = protocol_to_json(original)
        twice = protocol_to_json(protocol_from_json(once))
        assert once == twice


class TestFormat:
    def test_valid_json(self):
        text = protocol_to_json(cached_protocol("steane"))
        obj = json.loads(text)
        assert obj["format_version"] == 1
        assert obj["code"]["name"] == "Steane"

    def test_unknown_version_rejected(self):
        text = protocol_to_json(cached_protocol("steane"))
        obj = json.loads(text)
        obj["format_version"] = 999
        with pytest.raises(ValueError):
            protocol_from_json(json.dumps(obj))

    def test_recoveries_are_plain_lists(self):
        obj = json.loads(protocol_to_json(cached_protocol("steane")))
        branch = obj["layers"][0]["branches"][0]
        for entry in branch["recoveries"]:
            assert isinstance(entry["pauli"], list)


class TestWidthsCheckedOnLoad:
    """A circuit wider than ``num_wires`` would load and compile, then
    index out of bounds on the first shot; loading refuses it instead,
    naming the circuit."""

    @staticmethod
    def _obj():
        return json.loads(protocol_to_json(cached_protocol("steane")))

    def _mutations(self):
        short = self._obj()
        short["num_wires"] -= 1
        wide_prep = self._obj()
        wide_prep["prep_segment"]["num_qubits"] = 24
        wide_layer = self._obj()
        wide_layer["layers"][0]["circuit"]["num_qubits"] += 1
        wide_branch = self._obj()
        wide_branch["layers"][0]["branches"][0]["circuit"]["num_qubits"] += 1
        return [
            (short, "prep_segment acts on 12 qubits .* num_wires = 11"),
            (wide_prep, "prep_segment acts on 24 qubits"),
            (wide_layer, "layer 0 acts on 13 qubits"),
            (wide_branch, r"branch \(.*\) of layer 0 acts on 13 qubits"),
        ]

    def test_protocol_from_json_refuses(self):
        for obj, match in self._mutations():
            with pytest.raises(ValueError, match=match):
                protocol_from_json(json.dumps(obj))

    def test_load_protocol_refuses(self, tmp_path):
        path = tmp_path / "p.json"
        for obj, match in self._mutations():
            path.write_text(json.dumps(obj))
            with pytest.raises(ValueError, match=match):
                load_protocol(path)

    def test_exact_width_still_loads(self):
        protocol = protocol_from_json(json.dumps(self._obj()))
        assert protocol.num_wires == 12
