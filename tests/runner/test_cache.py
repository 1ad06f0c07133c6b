"""Unit tests for the content-addressed result cache."""

from repro.runner import ResultCache, source_fingerprint


class TestSourceFingerprint:
    def test_stable_for_same_tree(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        first = source_fingerprint(tmp_path, refresh=True)
        assert source_fingerprint(tmp_path, refresh=True) == first

    def test_changes_on_edit(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("x = 1\n")
        before = source_fingerprint(tmp_path, refresh=True)
        f.write_text("x = 2\n")
        assert source_fingerprint(tmp_path, refresh=True) != before

    def test_changes_on_rename(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("x = 1\n")
        before = source_fingerprint(tmp_path, refresh=True)
        f.rename(tmp_path / "b.py")
        assert source_fingerprint(tmp_path, refresh=True) != before

    def test_memoized_without_refresh(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("x = 1\n")
        before = source_fingerprint(tmp_path, refresh=True)
        f.write_text("x = 2\n")
        assert source_fingerprint(tmp_path) == before


class TestResultCache:
    def _cache(self, tmp_path, fingerprint="fp"):
        return ResultCache(root=tmp_path, fingerprint=fingerprint)

    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = self._cache(tmp_path)
        key = cache.key("exp", "cell", "mod.fn", {"args": [1]})
        assert cache.get(key) == (False, None)
        cache.put(key, {"rows": [1, 2.5, "x"]})
        assert cache.get(key) == (True, {"rows": [1, 2.5, "x"]})
        assert (cache.hits, cache.misses) == (1, 1)

    def test_key_sensitive_to_every_component(self, tmp_path):
        cache = self._cache(tmp_path)
        base = cache.key("exp", "cell", "mod.fn", {"args": [1]})
        assert cache.key("exp2", "cell", "mod.fn", {"args": [1]}) != base
        assert cache.key("exp", "cell2", "mod.fn", {"args": [1]}) != base
        assert cache.key("exp", "cell", "mod.fn2", {"args": [1]}) != base
        assert cache.key("exp", "cell", "mod.fn", {"args": [2]}) != base

    def test_fingerprint_invalidates(self, tmp_path):
        old = self._cache(tmp_path, fingerprint="v1")
        key = old.key("exp", "cell", "mod.fn", {})
        old.put(key, 42)
        new = self._cache(tmp_path, fingerprint="v2")
        hit, _ = new.get(new.key("exp", "cell", "mod.fn", {}))
        assert not hit

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = self._cache(tmp_path)
        key = cache.key("exp", "cell", "mod.fn", {})
        cache.put(key, 42)
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        hit, value = cache.get(key)
        assert (hit, value) == (False, None)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = self._cache(tmp_path)
        for i in range(5):
            cache.put(cache.key("e", f"c{i}", "f", {}), i)
        assert list(tmp_path.rglob("*.tmp")) == []
        assert len(list(tmp_path.rglob("*.pkl"))) == 5


class TestPrune:
    def _filled(self, tmp_path, n=5):
        import os
        import time

        cache = ResultCache(root=tmp_path, fingerprint="fp")
        keys = []
        for i in range(n):
            key = cache.key("e", f"c{i}", "f", {})
            cache.put(key, list(range(100)))
            # force distinct, ordered mtimes without sleeping
            mtime = time.time() - (n - i) * 10
            os.utime(cache._path(key), (mtime, mtime))
            keys.append(key)
        return cache, keys

    def test_prune_to_zero_clears_everything(self, tmp_path):
        cache, _ = self._filled(tmp_path)
        report = cache.prune(0)
        assert report["removed"] == 5
        assert report["kept_bytes"] == 0
        assert cache.size_bytes() == 0

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache, keys = self._filled(tmp_path)
        entry_size = cache.size_bytes() // 5
        report = cache.prune(entry_size * 2)
        assert report["removed"] == 3
        # the two newest entries survive
        assert cache.get(keys[4])[0]
        assert cache.get(keys[3])[0]
        assert not cache.get(keys[0])[0]

    def test_prune_noop_when_under_cap(self, tmp_path):
        cache, _ = self._filled(tmp_path)
        before = cache.size_bytes()
        report = cache.prune(before + 1)
        assert report == {"removed": 0, "removed_bytes": 0,
                          "kept_bytes": before}

    def test_prune_sweeps_stale_tmp_files(self, tmp_path):
        cache, _ = self._filled(tmp_path)
        stale = tmp_path / "ab" / "deadbeef.pkl.1234.tmp"
        stale.parent.mkdir(exist_ok=True)
        stale.write_bytes(b"partial write")
        cache.prune(0)
        assert not stale.exists()

    def test_prune_validates(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="fp")
        import pytest

        with pytest.raises(ValueError):
            cache.prune(-1)

    def test_prune_empty_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path / "missing",
                            fingerprint="fp")
        assert cache.prune(0) == {"removed": 0, "removed_bytes": 0,
                                  "kept_bytes": 0}


class TestRuntimeTokenInKey:
    """Results computed under one runtime mode must not serve another.

    Regression: keys used to ignore the sanitizer switch, so a cell
    cached with sanitizers on would be returned verbatim with them off
    -- hiding exactly the divergence that mode exists to detect.
    """

    def _key(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="fp")
        return cache.key("exp", "cell", "mod.fn", {"seed": 1})

    def test_sanitizer_toggle_changes_key(self, tmp_path):
        from repro.check import sanitizers

        before = self._key(tmp_path)
        sanitizers.enable()
        try:
            assert self._key(tmp_path) != before
        finally:
            sanitizers.disable()
        assert self._key(tmp_path) == before

    def test_token_reflects_current_switches(self):
        from repro.check import sanitizers
        from repro.runner.cache import runtime_token

        assert runtime_token() == {"sanitizers": sanitizers.ACTIVE}
