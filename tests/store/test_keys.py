"""Tests for the shared content-key derivations (``repro.store.keys``).

The keys are the store's correctness seam: a key that drifts between
processes costs recomputes, and a key that collides across different
inputs would serve wrong results. Both directions are pinned here,
including the cross-process stability the fork/spawn pools and cluster
workers rely on.
"""

from __future__ import annotations

import multiprocessing
import subprocess
import sys

import pytest

from repro.codes.catalog import get_code
from repro.core.serialize import protocol_from_json, protocol_to_json
from repro.store import keys

from ..conftest import cached_protocol


class TestProtocolKeys:
    def test_protocol_key_covers_every_parameter(self):
        base = dict(
            prep_method="heuristic",
            verification_method="optimal",
            max_correction_measurements=4,
        )
        steane = get_code("steane")
        reference = keys.protocol_key(steane, **base)
        assert keys.protocol_key(steane, **base) == reference
        assert keys.protocol_key(get_code("shor"), **base) != reference
        for field, other in [
            ("prep_method", "optimal"),
            ("verification_method", "greedy"),
            ("max_correction_measurements", 3),
        ]:
            assert (
                keys.protocol_key(steane, **{**base, field: other})
                != reference
            )

    def test_protocol_key_changes_with_synthesis_revision(self, monkeypatch):
        params = dict(
            prep_method="heuristic",
            verification_method="optimal",
            max_correction_measurements=4,
        )
        steane = get_code("steane")
        reference = keys.protocol_key(steane, **params)
        monkeypatch.setattr(keys, "SYNTHESIS_REVISION", keys.SYNTHESIS_REVISION + 1)
        assert keys.protocol_key(steane, **params) != reference

    def test_protocol_digest_stable_across_json_roundtrip(self):
        protocol = cached_protocol("steane")
        clone = protocol_from_json(protocol_to_json(protocol))
        assert keys.protocol_digest(clone) == keys.protocol_digest(protocol)

    def test_result_keys_distinct_per_artifact_class(self):
        """The ledger's certificate and budget keys, the one cache of
        both results, never collide for the same protocol and plan."""
        digest = keys.protocol_digest(cached_protocol("steane"))
        assert keys.result_key("ftcheck", digest, None, {}) != keys.result_key(
            "budget", digest, None, {}
        )

    def test_model_token(self):
        assert keys.model_token(None) == "none"
        from repro.sim.noisemodels import BiasedPauliModel

        model = BiasedPauliModel(p=1e-3, eta=100.0)
        assert keys.model_token(model) == keys.model_token(model)
        assert keys.model_token(model) not in ("", "none")
        assert keys.model_token(lambda: None) == ""  # unpicklable


def _child_protocol_digest(json_text, queue):
    queue.put(keys.protocol_digest(protocol_from_json(json_text)))


class TestCrossProcessStability:
    """The digest pool workers and cluster peers agree on: every result
    key is built on it."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_protocol_digest_identical_in_pool_children(self, method):
        protocol = cached_protocol("steane")
        json_text = protocol_to_json(protocol)
        ctx = multiprocessing.get_context(method)
        queue = ctx.Queue()
        child = ctx.Process(
            target=_child_protocol_digest, args=(json_text, queue)
        )
        child.start()
        result = queue.get(timeout=120)
        child.join()
        assert result == keys.protocol_digest(protocol)

    def test_protocol_digest_identical_in_fresh_interpreter(self, tmp_path):
        """A brand-new python process (a restarted CLI, a cold cluster
        worker) derives the same digest from the same protocol JSON."""
        protocol = cached_protocol("steane")
        json_path = tmp_path / "protocol.json"
        json_path.write_text(protocol_to_json(protocol))
        script = (
            "import sys\n"
            "from repro.core.serialize import load_protocol\n"
            "from repro.store import keys\n"
            "print(keys.protocol_digest(load_protocol(sys.argv[1])))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(json_path)],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == keys.protocol_digest(protocol)
