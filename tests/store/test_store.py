"""Tests for the content-addressed artifact store (``repro.store``).

Pins the store's three design rules: atomic writes (a reader never sees
a torn entry, concurrent writers both land valid entries), distrust of
the disk (truncated or bit-flipped entries are quarantined and reported
as misses — never returned, never a crash), and dependency-free codecs
(an entry recorded with an unavailable codec is a miss, not corruption).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle

import pytest

from repro.store import ArtifactStore, resolve_store
from repro.store.store import _MAGIC, active_store


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestRoundTrip:
    def test_bytes(self, store):
        assert store.get_bytes("protocol", "ab" * 32) is None
        assert store.stats.misses == 1
        store.put_bytes("protocol", "ab" * 32, b"payload")
        assert store.get_bytes("protocol", "ab" * 32) == b"payload"
        assert store.stats.hits == 1
        assert store.stats.puts == 1

    def test_text(self, store):
        store.put_text("protocol", "cd" * 32, "{\"a\": 1}\n")
        assert store.get_text("protocol", "cd" * 32) == "{\"a\": 1}\n"

    def test_text_parsed(self, store):
        store.put_text("protocol", "ef" * 32, "{\"a\": 1}")
        assert store.get_text("protocol", "ef" * 32, parse=json.loads) == {
            "a": 1
        }
        assert store.stats.hits == 1

    def test_incompressible_payload_stored_verbatim(self, store):
        raw = os.urandom(4096)  # random bytes do not compress
        store.put_bytes("engine", "11" * 32, raw)
        assert store.get_bytes("engine", "11" * 32) == raw

    def test_compressible_payload_smaller_on_disk(self, store):
        raw = b"x" * 100_000
        path = store.put_bytes("engine", "22" * 32, raw)
        assert path.stat().st_size < len(raw)
        assert store.get_bytes("engine", "22" * 32) == raw

    def test_kinds_do_not_collide(self, store):
        key = "33" * 32
        store.put_bytes("protocol", key, b"protocol value")
        store.put_bytes("engine", key, b"engine value")
        assert store.get_bytes("protocol", key) == b"protocol value"
        assert store.get_bytes("engine", key) == b"engine value"

    def test_overwrite_is_last_writer_wins(self, store):
        key = "44" * 32
        store.put_bytes("sat", key, b"first")
        store.put_bytes("sat", key, b"second")
        assert store.get_bytes("sat", key) == b"second"

    def test_malformed_key_rejected(self, store):
        with pytest.raises(ValueError):
            store.put_bytes("protocol", "../escape", b"x")
        with pytest.raises(ValueError):
            store.get_bytes("protocol", "")

    def test_construction_never_touches_the_filesystem(self, tmp_path):
        root = tmp_path / "never-created"
        store = ArtifactStore(root)
        assert store.get_bytes("protocol", "aa" * 32) is None
        assert not root.exists()

    def test_instances_are_picklable(self, store):
        store.put_bytes("sat", "55" * 32, b"value")
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get_bytes("sat", "55" * 32) == b"value"


class TestCorruption:
    """Never trust the disk: defects are quarantined, misses recompute."""

    def _entry_path(self, store, kind, key):
        return store._object_path(kind, key)

    def test_truncated_entry_quarantined_not_returned(self, store):
        key = "66" * 32
        path = store.put_bytes("ftcert", key, b"certificate body")
        path.write_bytes(path.read_bytes()[:-3])
        assert store.get_bytes("ftcert", key) is None
        assert store.stats.quarantined == 1
        assert not path.exists()
        assert (store._quarantine_dir / path.name).exists()
        # The slot is free again: a recompute repopulates it cleanly.
        store.put_bytes("ftcert", key, b"certificate body")
        assert store.get_bytes("ftcert", key) == b"certificate body"

    def test_bit_flipped_payload_quarantined_not_returned(self, store):
        key = "77" * 32
        path = store.put_bytes("ftcert", key, b"certificate body")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x40  # flip one payload bit
        path.write_bytes(bytes(blob))
        assert store.get_bytes("ftcert", key) is None
        assert store.stats.quarantined == 1
        assert store.stats.misses == 1
        assert not path.exists()

    def test_bad_magic_quarantined(self, store):
        key = "88" * 32
        path = store.put_bytes("sat", key, b"transcript")
        path.write_bytes(b"not a store entry at all")
        assert store.get_bytes("sat", key) is None
        assert store.stats.quarantined == 1

    def test_kind_mismatch_quarantined(self, store):
        """An entry renamed across kind directories fails verification."""
        key = "99" * 32
        path = store.put_bytes("protocol", key, b"value")
        other = store._object_path("engine", key)
        other.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, other)
        assert store.get_bytes("engine", key) is None
        assert store.stats.quarantined == 1

    def test_unpicklable_object_entry_quarantined(self, store):
        """A verified entry its parser rejects (e.g. a protocol written
        by an incompatible revision) is quarantined and is one miss."""
        key = "aa" * 32
        path = store.put_text("protocol", key, "{not json")
        assert store.get_text("protocol", key, parse=json.loads) is None
        assert store.stats.quarantined == 1
        assert store.stats.hits == 0
        assert store.stats.misses == 1
        assert not path.exists()

    def test_unpicklable_entry_counted_once_in_the_registry(self, store):
        """A well-formed blob whose payload does not parse is one miss
        in the process-global registry too, never a hit."""
        from repro.obs.metrics import get_registry

        registry = get_registry()
        names = ("store.hits", "store.misses", "store.quarantined")
        before = [registry.counter(name).value for name in names]
        key = "ab" * 32
        store.put_bytes("protocol", key, b"\x80\x05 not UTF-8, not JSON")
        assert store.get_text("protocol", key) is None
        after = [registry.counter(name).value for name in names]
        assert [b - a for a, b in zip(before, after)] == [0, 1, 1]

    def test_unknown_codec_is_miss_not_corruption(self, store):
        key = "bb" * 32
        path = store.put_bytes("engine", key, b"payload")
        blob = path.read_bytes()
        # Rewrite the header naming a codec nobody has.
        import json as json_module
        import struct

        header_len = struct.unpack_from(">I", blob, len(_MAGIC))[0]
        offset = len(_MAGIC) + 4
        header = json_module.loads(blob[offset : offset + header_len])
        header["codec"] = "lz-imaginary"
        new_header = json_module.dumps(header).encode()
        path.write_bytes(
            _MAGIC
            + struct.pack(">I", len(new_header))
            + new_header
            + blob[offset + header_len :]
        )
        assert store.get_bytes("engine", key) is None
        assert store.stats.quarantined == 0  # left in place for richer envs
        assert path.exists()

    def test_verify_quarantines_every_defect(self, store):
        good = store.put_bytes("protocol", "cc" * 32, b"good")
        bad = store.put_bytes("protocol", "dd" * 32, b"bad")
        bad.write_bytes(bad.read_bytes()[:-1])
        report = store.verify()
        assert report["ok"] == 1
        assert [(k, key) for k, key, _ in report["quarantined"]] == [
            ("protocol", "dd" * 32)
        ]
        assert good.exists() and not bad.exists()


class TestMaintenance:
    def test_entries_lists_everything(self, store):
        store.put_bytes("protocol", "ee" * 32, b"p")
        store.put_bytes("engine", "ff" * 32, b"e")
        listed = [(e.kind, e.key) for e in store.entries()]
        assert listed == [("engine", "ff" * 32), ("protocol", "ee" * 32)]
        assert store.total_bytes() == sum(e.size for e in store.entries())

    def test_gc_evicts_least_recently_read_first(self, store):
        old, fresh = "ab" * 32, "cd" * 32
        path_old = store.put_bytes("engine", old, b"o" * 100)
        store.put_bytes("engine", fresh, b"f" * 100)
        # Age the untouched entry, then refresh the other via a read.
        stat = path_old.stat()
        os.utime(path_old, ns=(stat.st_atime_ns - 10**10, stat.st_mtime_ns))
        assert store.get_bytes("engine", fresh) is not None
        fresh_size = next(
            e.size for e in store.entries() if e.key == fresh
        )
        report = store.gc(max_bytes=fresh_size)
        assert report["evicted"] == 1
        assert store.get_bytes("engine", old) is None
        assert store.get_bytes("engine", fresh) is not None

    def test_gc_noop_under_budget(self, store):
        store.put_bytes("engine", "11" * 32, b"x" * 10)
        report = store.gc(max_bytes=10**9)
        assert report == {
            "evicted": 0,
            "evicted_bytes": 0,
            "remaining_bytes": store.total_bytes(),
        }

    def test_gc_removes_stray_staging_files(self, store):
        store.put_bytes("engine", "22" * 32, b"x")
        stray = store._tmp_dir / "crashed-writer.tmp"
        stray.write_bytes(b"partial")
        store.gc(max_bytes=10**9)
        assert not stray.exists()


def _racing_writer(root, key, value, barrier):
    store = ArtifactStore(root)
    barrier.wait()
    for _ in range(50):
        store.put_bytes("sat", key, value)


class TestConcurrency:
    def test_concurrent_writers_one_key_never_torn(self, tmp_path):
        """Two processes hammering one key: every read returns one of the
        two complete values (atomic rename), never a hybrid or a crash."""
        root = tmp_path / "store"
        key = "ab" * 32
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(3)
        writers = [
            ctx.Process(
                target=_racing_writer, args=(root, key, value, barrier)
            )
            for value in (b"A" * 3000, b"B" * 3000)
        ]
        for writer in writers:
            writer.start()
        store = ArtifactStore(root)
        barrier.wait()
        seen = set()
        for _ in range(200):
            raw = store.get_bytes("sat", key)
            if raw is not None:
                seen.add(raw)
        for writer in writers:
            writer.join()
            assert writer.exitcode == 0
        assert seen <= {b"A" * 3000, b"B" * 3000}
        assert store.stats.quarantined == 0
        assert store.get_bytes("sat", key) in (b"A" * 3000, b"B" * 3000)


class TestResolution:
    def test_env_unset_resolves_default_root(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/nonexistent/cache")
        store = active_store()
        assert store is not None
        assert str(store.root).endswith("repro-store")

    @pytest.mark.parametrize("value", ["off", "0", "none", "false", "", " OFF "])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_STORE", value)
        assert active_store() is None
        assert resolve_store(None) is None

    def test_env_path_resolves_that_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        assert active_store().root == tmp_path

    def test_resolve_store_contract(self, monkeypatch, tmp_path, store):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        assert resolve_store(False) is None
        assert resolve_store(store) is store
        assert resolve_store(None).root == tmp_path
        with pytest.raises(TypeError):
            resolve_store("/a/path")


class TestPublicCodecLayer:
    """The store's codec stack as a public API (the cluster wire
    protocol compresses its frames through exactly these calls)."""

    def test_available_codecs_ordered_best_first(self):
        from repro.store import available_codecs, preferred_codec

        codecs = available_codecs()
        assert codecs[0] == preferred_codec()
        assert codecs[-1] == "none"
        assert "zlib" in codecs  # stdlib: always speakable

    def test_compress_round_trip(self):
        from repro.store import compress_blob, decompress_blob

        raw = b"repetition " * 4096
        codec, payload = compress_blob(raw)
        assert codec != "none"
        assert len(payload) < len(raw)
        assert decompress_blob(codec, payload) == raw

    def test_incompressible_falls_back_to_none(self):
        import os as _os

        from repro.store import compress_blob, decompress_blob

        raw = _os.urandom(4096)
        codec, payload = compress_blob(raw)
        assert codec == "none"
        assert payload == raw
        assert decompress_blob(codec, payload) == raw

    def test_explicit_none_is_identity(self):
        from repro.store import compress_blob

        raw = b"y" * 1000
        assert compress_blob(raw, "none") == ("none", raw)

    def test_unknown_codec_raises(self):
        from repro.store import CodecUnavailable, decompress_blob

        with pytest.raises(CodecUnavailable):
            decompress_blob("lz-imaginary", b"payload")
