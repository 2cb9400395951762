"""SolveCache: keying, LRU bounds, snapshots, persistence, safety."""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.perf.cache import SolveCache


def rows(rng, n):
    return np.ascontiguousarray(rng.normal(scale=0.05, size=(n, 6)))


class TestLookupStore:
    def test_miss_then_hit_roundtrips_exact_floats(self, rng):
        cache = SolveCache("fp")
        dvth = rows(rng, 5)
        r0, r1 = rng.normal(size=5), rng.normal(size=5)
        hit, _, _ = cache.lookup("exact", dvth)
        assert not hit.any()
        cache.store("exact", dvth, r0, r1)
        hit, c0, c1 = cache.lookup("exact", dvth)
        assert hit.all()
        assert np.array_equal(c0, r0) and np.array_equal(c1, r1)

    def test_levels_do_not_mix(self, rng):
        cache = SolveCache("fp")
        dvth = rows(rng, 3)
        cache.store("coarse", dvth, np.ones(3), np.ones(3))
        hit, _, _ = cache.lookup("exact", dvth)
        assert not hit.any()

    def test_unknown_level_rejected(self, rng):
        cache = SolveCache("fp")
        with pytest.raises(ValueError, match="unknown cache level"):
            cache.lookup("fine", rows(rng, 1))
        with pytest.raises(ValueError, match="unknown cache level"):
            cache.store("fine", rows(rng, 1), np.zeros(1), np.zeros(1))

    def test_key_is_exact_bytes_not_value_proximity(self, rng):
        cache = SolveCache("fp")
        dvth = rows(rng, 1)
        cache.store("exact", dvth, np.ones(1), np.ones(1))
        nudged = dvth + np.finfo(float).eps
        hit, _, _ = cache.lookup("exact", nudged)
        assert not hit.any()

    def test_hit_rate_and_stats(self, rng):
        cache = SolveCache("fp")
        dvth = rows(rng, 4)
        cache.lookup("exact", dvth)          # 4 misses
        cache.store("exact", dvth, np.zeros(4), np.zeros(4))
        cache.lookup("exact", dvth)          # 4 hits
        assert cache.hit_rate == 0.5
        assert cache.stats() == {"cache_entries": 4, "cache_hits": 4,
                                 "cache_misses": 4, "cache_evictions": 0}


class TestLru:
    def test_eviction_beyond_capacity(self, rng):
        cache = SolveCache("fp", max_entries=3)
        dvth = rows(rng, 5)
        cache.store("exact", dvth, np.arange(5.0), np.arange(5.0))
        assert len(cache) == 3
        assert cache.evictions == 2
        hit, _, _ = cache.lookup("exact", dvth)
        # oldest two evicted, newest three retained
        assert hit.tolist() == [False, False, True, True, True]

    def test_lookup_refreshes_recency(self, rng):
        cache = SolveCache("fp", max_entries=2)
        dvth = rows(rng, 3)
        cache.store("exact", dvth[:2], np.zeros(2), np.zeros(2))
        cache.lookup("exact", dvth[:1])      # row 0 becomes MRU
        cache.store("exact", dvth[2:], np.zeros(1), np.zeros(1))
        hit, _, _ = cache.lookup("exact", dvth)
        assert hit.tolist() == [True, False, True]


class TestStateSnapshot:
    def test_roundtrip_preserves_entries_counters_and_order(self, rng):
        cache = SolveCache("fp", max_entries=10)
        dvth = rows(rng, 6)
        cache.store("exact", dvth[:3], np.arange(3.0), -np.arange(3.0))
        cache.store("coarse", dvth[3:], np.ones(3), np.zeros(3))
        cache.lookup("exact", dvth[:3])
        state = cache.state()

        restored = SolveCache("fp", max_entries=10)
        assert restored.restore_state(state)
        assert restored.stats() == cache.stats()
        hit, c0, c1 = restored.lookup("exact", dvth[:3])
        assert hit.all()
        assert np.array_equal(c0, np.arange(3.0))
        assert np.array_equal(c1, -np.arange(3.0))
        hit, _, _ = restored.lookup("coarse", dvth[3:])
        assert hit.all()

    def test_fingerprint_mismatch_refused(self, rng):
        cache = SolveCache("fp-a")
        cache.store("exact", rows(rng, 2), np.zeros(2), np.zeros(2))
        other = SolveCache("fp-b")
        assert not other.restore_state(cache.state())
        assert len(other) == 0

    def test_inconsistent_shapes_raise(self):
        cache = SolveCache("fp")
        state = cache.state()
        state["keys"] = np.zeros((2, 6))     # levels/values say 0 rows
        with pytest.raises(ValueError, match="inconsistent"):
            cache.restore_state(state)

    def test_restore_trims_to_capacity(self, rng):
        big = SolveCache("fp", max_entries=10)
        big.store("exact", rows(rng, 6), np.zeros(6), np.zeros(6))
        state = big.state()
        state["max_entries"] = 2
        small = SolveCache("fp", max_entries=2)
        assert small.restore_state(state)
        assert len(small) == 2

    def test_codec_safe_types(self, rng):
        from repro.checkpoint.codec import decode_state, encode_state

        cache = SolveCache("fp")
        cache.store("exact", rows(rng, 3), np.zeros(3), np.ones(3))
        payload, arrays = encode_state(cache.state())
        decoded = decode_state(payload, arrays)
        restored = SolveCache("fp")
        assert restored.restore_state(decoded)
        assert restored.stats() == cache.stats()


class TestPickling:
    def test_pickled_cache_is_empty_but_configured(self, rng):
        cache = SolveCache("fp", max_entries=42)
        cache.store("exact", rows(rng, 5), np.zeros(5), np.zeros(5))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.fingerprint == "fp"
        assert clone.max_entries == 42
        assert len(clone) == 0 and clone.hits == 0


class TestPersistence:
    def test_save_load_roundtrip(self, rng, tmp_path):
        cache = SolveCache("fp", max_entries=10)
        dvth = rows(rng, 4)
        cache.store("exact", dvth, np.arange(4.0), np.arange(4.0))
        path = cache.save(tmp_path)
        assert path.exists() and "fp" in path.name

        loaded = SolveCache.load(tmp_path, "fp", max_entries=10)
        hit, c0, _ = loaded.lookup("exact", dvth)
        assert hit.all()
        assert np.array_equal(c0, np.arange(4.0))

    def test_load_missing_file_degrades_to_empty(self, tmp_path):
        cache = SolveCache.load(tmp_path, "nothing-here")
        assert len(cache) == 0

    def test_load_corrupt_file_degrades_to_empty(self, tmp_path):
        bad = SolveCache._file(tmp_path, "fp")
        bad.write_bytes(b"not an npz archive")
        cache = SolveCache.load(tmp_path, "fp")
        assert len(cache) == 0

    def test_load_unknown_level_file_degrades_to_empty(self, rng,
                                                       tmp_path):
        # a file from a version with more levels than this one knows
        cache = SolveCache("fp")
        cache.store("depth20", rows(rng, 2), np.zeros(2), np.zeros(2))
        state = cache.state()
        state["levels"][:] = 9
        with pytest.raises(ValueError, match="unknown cache level"):
            SolveCache("fp").restore_state(state)
        np.savez(SolveCache._file(tmp_path, "fp"),
                 meta=np.zeros(4, dtype=np.int64),
                 fingerprint=np.frombuffer(b"fp", dtype=np.uint8),
                 levels=state["levels"], keys=state["keys"],
                 values=state["values"])
        assert len(SolveCache.load(tmp_path, "fp")) == 0

    def test_load_other_fingerprint_file_refused(self, rng, tmp_path):
        cache = SolveCache("fp-a")
        cache.store("exact", rows(rng, 2), np.zeros(2), np.zeros(2))
        saved = cache.save(tmp_path)
        # simulate a mislabeled file: rename it under another fingerprint
        saved.rename(SolveCache._file(tmp_path, "fp-b"))
        loaded = SolveCache.load(tmp_path, "fp-b")
        assert len(loaded) == 0


class TestThreadSafety:
    def test_concurrent_store_lookup(self, rng):
        cache = SolveCache("fp", max_entries=500)
        blocks = [rows(rng, 20) for _ in range(8)]

        def worker(block):
            for _ in range(20):
                cache.store("exact", block, np.zeros(20), np.zeros(20))
                hit, _, _ = cache.lookup("exact", block)
                assert hit.all()

        threads = [threading.Thread(target=worker, args=(b,))
                   for b in blocks]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 160
