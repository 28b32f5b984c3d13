"""Stability of the result-key scheme (``repro.store.keys``).

Ledger keys must name *what* is computed, never *how* or *where*:

* the same (protocol, model, plan) produces the same key in this
  process, in a forked/spawned child, and in a fresh interpreter —
  otherwise a daemon restart or a pool worker would silently miss
  every cached record;
* execution knobs (engine name, worker count) and derived-per-request
  data (the sweep grid) are excluded, so one record serves every
  engine and grid;
* anything that changes the drawn sample stream (seed, shots, slab
  bound, chunk identity) is included.
"""

import multiprocessing
import subprocess
import sys

import pytest

from repro.sim.noise import E1_1
from repro.sim.shard import BernoulliChunk, RowChunk, StratumChunk
from repro.store import keys as store_keys

from ..conftest import cached_protocol


@pytest.fixture(scope="module")
def digest():
    return store_keys.protocol_digest(cached_protocol("steane"))


def _series_kwargs():
    return dict(shots=4000, k_max=3, seed=2025, exact_k1=True)


class TestKeyScheme:
    def test_series_key_excludes_engine_and_grid(self, digest):
        """One tally record serves every engine and every sweep grid: the
        key has no engine or grid component at all."""
        key = store_keys.series_key(digest, None, **_series_kwargs())
        assert key is not None
        # Same inputs -> same key, trivially.
        assert key == store_keys.series_key(digest, None, **_series_kwargs())

    def test_series_key_includes_the_sample_plan(self, digest):
        base = store_keys.series_key(digest, None, **_series_kwargs())
        variants = [
            dict(_series_kwargs(), shots=4001),
            dict(_series_kwargs(), k_max=2),
            dict(_series_kwargs(), seed=2026),
            dict(_series_kwargs(), exact_k1=False),
            dict(_series_kwargs(), max_slab=4096),
            dict(_series_kwargs(), direct_check_at=1e-3),
        ]
        keys = [store_keys.series_key(digest, None, **kw) for kw in variants]
        assert len({base, *keys}) == len(variants) + 1

    def test_series_key_bytes_are_pinned(self):
        """Series keys change only with a deliberate draw revision
        (``DRAW_REVISION``); any other change would turn warm ledgers
        cold by accident."""
        assert store_keys.DRAW_REVISION == 3
        key = store_keys.series_key("ab" * 32, None, **_series_kwargs())
        assert key == (
            "855a9d317440fb71f2413955cc83fc640ddd8b7cc0f022e31a0292cfb24fc799"
        )

    def test_direct_shots_only_matter_with_direct_check(self, digest):
        """``direct_shots`` is inert without ``direct_check_at`` (no
        direct run happens), so it must not split the key."""
        a = store_keys.series_key(
            digest, None, **_series_kwargs(), direct_shots=4000
        )
        b = store_keys.series_key(
            digest, None, **_series_kwargs(), direct_shots=9999
        )
        assert a == b
        c = store_keys.series_key(
            digest, None, **_series_kwargs(), direct_check_at=1e-3,
            direct_shots=4000,
        )
        d = store_keys.series_key(
            digest, None, **_series_kwargs(), direct_check_at=1e-3,
            direct_shots=9999,
        )
        assert c != d

    def test_model_splits_the_key(self, digest):
        a = store_keys.series_key(digest, None, **_series_kwargs())
        b = store_keys.series_key(digest, E1_1(p=0.01), **_series_kwargs())
        assert a != b

    def test_chunk_key_excludes_index(self, digest):
        """Chunk position in the plan is scheduling, not content: the
        same (k, shots, entropy) slice reuses the record wherever the
        planner put it."""
        a = StratumChunk(index=0, k=2, shots=512, entropy=(77, 0))
        b = StratumChunk(index=9, k=2, shots=512, entropy=(77, 0))
        assert store_keys.chunk_key(digest, None, a) == store_keys.chunk_key(
            digest, None, b
        )
        c = StratumChunk(index=0, k=2, shots=512, entropy=(78, 0))
        assert store_keys.chunk_key(digest, None, a) != store_keys.chunk_key(
            digest, None, c
        )

    def test_chunk_key_distinguishes_types(self, digest):
        row = RowChunk(index=0, lo=0, hi=64)
        bern = BernoulliChunk(
            index=0, shots=64, entropy=(5, 1), model=E1_1(p=0.01)
        )
        keys = {
            store_keys.chunk_key(digest, None, row),
            store_keys.chunk_key(digest, None, bern),
            store_keys.chunk_key(
                digest, None, RowChunk(index=0, lo=0, hi=64, checkable_only=True)
            ),
        }
        assert None not in keys and len(keys) == 3

    def test_direct_key_plan(self, digest):
        model = E1_1(p=1e-3)
        a = store_keys.direct_key(digest, model, shots=4000, seed=2025)
        assert a == store_keys.direct_key(digest, model, shots=4000, seed=2025)
        assert a != store_keys.direct_key(digest, model, shots=4001, seed=2025)
        assert a != store_keys.direct_key(digest, model, shots=4000, seed=2026)
        assert a != store_keys.direct_key(
            digest, E1_1(p=2e-3), shots=4000, seed=2025
        )

    def test_direct_key_bytes_are_pinned(self):
        """Direct keys keep their bytes, so warm ledgers keep hitting."""
        model = E1_1(p=1e-3)
        assert store_keys.direct_key(
            "ab" * 32, model, shots=4000, seed=2025
        ) == "2c4328eaf7d56dba574a2f7f20cee5ae60a7265afd23d897c8a67cff49ecd9fb"
        assert store_keys.direct_key(
            "ab" * 32, model, shots=4000, seed=2025, max_slab=512
        ) == "5e82ca3df91323472412ee76b7d4f045ac89de437cbdcc22118c3f01fe983f53"

    def test_unpicklable_model_disables_caching(self, digest):
        key = store_keys.series_key(
            digest, lambda: None, **_series_kwargs()  # unpicklable
        )
        assert key is None


_CHILD_SCRIPT = """
import json, sys
from repro.codes.catalog import get_code
from repro.core.protocol import synthesize_protocol
from repro.sim.noise import E1_1
from repro.sim.shard import StratumChunk
from repro.store import keys as store_keys

protocol = synthesize_protocol(get_code("steane"))
digest = store_keys.protocol_digest(protocol)
print(json.dumps({
    "digest": digest,
    "series": store_keys.series_key(
        digest, E1_1(p=0.01), shots=4000, k_max=3, seed=2025),
    "chunk": store_keys.chunk_key(
        digest, None, StratumChunk(index=3, k=2, shots=512, entropy=(77, 0))),
}))
"""


def _expected_keys():
    protocol = cached_protocol("steane")
    digest = store_keys.protocol_digest(protocol)
    return {
        "digest": digest,
        "series": store_keys.series_key(
            digest, E1_1(p=0.01), shots=4000, k_max=3, seed=2025
        ),
        "chunk": store_keys.chunk_key(
            digest,
            None,
            StratumChunk(index=3, k=2, shots=512, entropy=(77, 0)),
        ),
    }


class TestCrossInterpreterStability:
    """A daemon restart, a pool worker, or a cold CLI run must derive the
    byte-identical key for the same query, or every cache lookup silently
    misses."""

    def test_fresh_interpreter_rederives_identical_keys(self):
        import json

        result = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT],
            capture_output=True,
            text=True,
            check=True,
            env={
                **__import__("os").environ,
                "REPRO_STORE": "off",
                "REPRO_LEDGER": "off",
            },
        )
        assert json.loads(result.stdout) == _expected_keys()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_child_rederives_identical_keys(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} unavailable")
        ctx = multiprocessing.get_context(method)
        queue = ctx.Queue()
        proc = ctx.Process(target=_mp_child, args=(queue,))
        proc.start()
        try:
            child = queue.get(timeout=120)
        finally:
            proc.join(timeout=120)
        assert child == _expected_keys()


def _mp_child(queue):
    """Re-derive the keys from scratch in the child (no inherited cache)."""
    from repro.codes.catalog import get_code
    from repro.core.protocol import synthesize_protocol

    protocol = synthesize_protocol(get_code("steane"))
    digest = store_keys.protocol_digest(protocol)
    queue.put(
        {
            "digest": digest,
            "series": store_keys.series_key(
                digest, E1_1(p=0.01), shots=4000, k_max=3, seed=2025
            ),
            "chunk": store_keys.chunk_key(
                digest,
                None,
                StratumChunk(index=3, k=2, shots=512, entropy=(77, 0)),
            ),
        }
    )
