"""The content-fingerprint memo caches never change numerics."""

import numpy as np
import pytest

from repro.core import cache
from repro.core.switching import switching_map
from repro.core.thresholds import tune_threshold_for_fraction
from repro.nn.functional import im2col


@pytest.fixture(autouse=True)
def _fresh_caches():
    cache.clear_caches()
    cache.set_cache_enabled(True)
    yield
    cache.clear_caches()
    cache.set_cache_enabled(True)


class TestFingerprint:
    def test_content_sensitivity(self):
        x = np.arange(12, dtype=np.float64)
        assert cache.array_fingerprint(x) == cache.array_fingerprint(x.copy())
        y = x.copy()
        y[3] += 1e-12
        assert cache.array_fingerprint(x) != cache.array_fingerprint(y)

    def test_shape_and_dtype_sensitivity(self):
        x = np.zeros(12)
        assert cache.array_fingerprint(x) != cache.array_fingerprint(
            x.reshape(3, 4)
        )
        assert cache.array_fingerprint(x) != cache.array_fingerprint(
            x.astype(np.float32)
        )


class TestIm2colCache:
    def test_hit_returns_identical_buffer(self, disk):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8))
        expected = im2col(x, (3, 3), 1, 1)
        first = cache.im2col_cached(x, (3, 3), 1, 1)
        second = cache.im2col_cached(x.copy(), (3, 3), 1, 1)  # admitted
        third = cache.im2col_cached(x.copy(), (3, 3), 1, 1)
        np.testing.assert_array_equal(first, expected)
        np.testing.assert_array_equal(second, expected)
        assert third is second  # shared read-only buffer
        assert cache.IM2COL_CACHE.hits == 1
        with pytest.raises(ValueError):
            third[0, 0] = 1.0  # cached buffers are immutable

    def test_geometry_is_part_of_the_key(self):
        x = np.random.default_rng(1).normal(size=(1, 2, 6, 6))
        a = cache.im2col_cached(x, (3, 3), 1, 1)
        b = cache.im2col_cached(x, (3, 3), 2, 1)
        assert a.shape != b.shape

    def test_disabled_bypasses(self):
        cache.set_cache_enabled(False)
        x = np.zeros((1, 1, 4, 4))
        cache.im2col_cached(x, (3, 3), 1, 0)
        cache.im2col_cached(x, (3, 3), 1, 0)
        assert len(cache.IM2COL_CACHE) == 0


class TestSwitchingAndThresholdCaches:
    def test_switching_map_matches_uncached(self):
        y = np.random.default_rng(2).normal(size=(4, 8))
        for activation, theta in (("relu", 0.1), ("tanh", 0.5)):
            first = cache.switching_map_cached(y, activation, theta, layer="L")
            cached = cache.switching_map_cached(y, activation, theta, layer="L")
            for omap in (first, cached):
                np.testing.assert_array_equal(
                    omap, switching_map(y, activation, theta)
                )
            again = cache.switching_map_cached(y, activation, theta, layer="L")
            assert again is cached

    def test_threshold_matches_uncached(self):
        y = np.random.default_rng(3).normal(size=1000)
        for activation in ("relu", "sigmoid"):
            theta = cache.tune_threshold_cached(y, activation, 0.6, layer=0)
            assert theta == tune_threshold_for_fraction(y, activation, 0.6)
        assert cache.THRESHOLD_CACHE.misses == 2

    def test_lru_eviction_is_bounded(self):
        small = cache.MemoCache("t", capacity=2)
        small.put("a", 1)
        small.put("b", 2)
        small.put("c", 3)
        assert len(small) == 2
        assert small.get("a") is None  # evicted
        assert small.get("c") == 3

    def test_stats_snapshot(self):
        y = np.zeros(10)
        cache.tune_threshold_cached(y, "relu", 0.5)
        cache.tune_threshold_cached(y, "relu", 0.5)
        stats = cache.cache_stats()["threshold"]
        assert stats["hits"] == 1 and stats["misses"] == 1


@pytest.fixture()
def disk(tmp_path, monkeypatch):
    """A fresh disk tier rooted in tmp, wired in as the global store."""
    store = cache.PersistentCache(root=tmp_path / "store")
    monkeypatch.setattr(cache, "DISK_CACHE", store)
    cache.set_disk_cache_enabled(True)
    yield store
    cache.set_disk_cache_enabled(None)


class TestPersistentCache:
    def test_roundtrip_and_counters(self, disk):
        value = np.arange(32, dtype=np.float64).reshape(4, 8)
        key = cache.PersistentCache.key_digest("t", "fp", (1, 2))
        assert disk.get_array(key) is None  # cold
        disk.put_array(key, value)
        np.testing.assert_array_equal(disk.get_array(key), value)
        assert disk.hits == 1 and disk.misses == 1
        # atomic writes leave no temp droppings behind
        assert not list(disk.directory.glob("*tmp*"))
        stats = disk.stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0

    def test_corrupt_entry_is_a_miss(self, disk):
        key = cache.PersistentCache.key_digest("t", "fp")
        disk.put_array(key, np.ones(4))
        (disk.directory / f"{key}.npy").write_bytes(b"not an npy file")
        assert disk.get_array(key) is None
        assert disk.misses == 1

    def test_version_bump_orphans_entries(self, tmp_path):
        root = tmp_path / "store"
        v1 = cache.PersistentCache(root=root, version="v1")
        v2 = cache.PersistentCache(root=root, version="v2")
        key = cache.PersistentCache.key_digest("t", "fp")
        v1.put_array(key, np.ones(4))
        assert v2.get_array(key) is None  # different schema dir
        assert v1.directory != v2.directory
        assert v1.directory.parent == v2.directory.parent

    def test_env_var_overrides_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        store = cache.PersistentCache()
        store.put_array("abc", np.ones(2))
        assert (
            tmp_path / "elsewhere" / cache.DISK_SCHEMA_VERSION / "abc.npy"
        ).exists()

    def test_size_bound_evicts_oldest(self, disk):
        import os

        value = np.zeros(128, dtype=np.float64)  # ~1.2 KB per .npy
        keys = [cache.PersistentCache.key_digest("t", i) for i in range(3)]
        disk.put_array(keys[0], value)
        disk.put_array(keys[1], value)
        entry_bytes = (disk.directory / f"{keys[0]}.npy").stat().st_size
        disk.max_bytes = int(entry_bytes * 2.5)
        # age the first entry so mtime ordering is unambiguous
        os.utime(disk.directory / f"{keys[0]}.npy", (1.0, 1.0))
        disk.put_array(keys[2], value)
        assert disk.evictions == 1
        assert disk.get_array(keys[0]) is None  # oldest gone
        assert disk.get_array(keys[2]) is not None


class TestDiskTierIntegration:
    def test_survives_memory_cache_clear(self, disk):
        """A value computed once is a disk read after the in-process
        caches are wiped -- the cross-process sharing contract, observed
        within one process via ``clear_caches``."""
        x = np.random.default_rng(5).normal(size=(1, 2, 6, 6))
        cache.im2col_cached(x, (3, 3), 1, 1)
        first = cache.im2col_cached(x, (3, 3), 1, 1)  # stored on both tiers
        cache.clear_caches()
        assert disk.hits == 0
        second = cache.im2col_cached(x, (3, 3), 1, 1)
        np.testing.assert_array_equal(first, second)
        assert disk.hits == 1

    def test_disk_key_ignores_layer_token(self, disk):
        """The in-process ``layer`` partition token is process-local, so
        the disk key drops it: one layer's map is a hit for another."""
        y = np.random.default_rng(6).normal(size=(4, 8))
        cache.switching_map_cached(y, "relu", 0.2, layer="conv1")
        cache.switching_map_cached(y, "relu", 0.2, layer="conv1")
        cache.clear_caches()
        cache.switching_map_cached(y, "relu", 0.2, layer="conv9")
        assert disk.hits == 1

    def test_threshold_roundtrips_as_float(self, disk):
        y = np.random.default_rng(7).normal(size=512)
        theta = cache.tune_threshold_cached(y, "relu", 0.6)
        cache.clear_caches()
        again = cache.tune_threshold_cached(y, "relu", 0.6)
        assert isinstance(again, float)
        assert again == theta
        assert disk.hits == 1

    def test_set_disk_cache_enabled_false_bypasses(self, disk):
        cache.set_disk_cache_enabled(False)
        assert not cache.disk_cache_enabled()
        x = np.zeros((1, 1, 4, 4))
        cache.im2col_cached(x, (3, 3), 1, 0)
        cache.im2col_cached(x, (3, 3), 1, 0)
        assert disk.stats()["entries"] == 0

    def test_env_toggle_disables_disk(self, disk, monkeypatch):
        cache.set_disk_cache_enabled(None)  # defer to the environment
        monkeypatch.setenv(cache.CACHE_DISK_ENV, "0")
        assert not cache.disk_cache_enabled()
        monkeypatch.setenv(cache.CACHE_DISK_ENV, "1")
        assert cache.disk_cache_enabled()

    def test_disk_disabled_when_caches_disabled(self, disk):
        cache.set_cache_enabled(False)
        assert not cache.disk_cache_enabled()

    def test_stats_exposes_disk_tier(self, disk):
        assert set(cache.cache_stats()["disk"]) == {
            "entries", "bytes", "hits", "misses", "evictions",
        }


def _x(seed: int = 8) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(2, 3, 6, 6))


def _array_memo(name: str):
    """``(memo, call, uncached)`` for the array memo function ``name``."""
    x, y = _x(), np.random.default_rng(9).normal(size=(4, 8))
    return {
        "im2col": (cache.IM2COL_CACHE,
                   lambda: cache.im2col_cached(x, (3, 3), 1, 1),
                   lambda: im2col(x, (3, 3), 1, 1)),
        "switching_map": (cache.SWITCHING_CACHE,
                          lambda: cache.switching_map_cached(y, "relu", 0.2, layer="L"),
                          lambda: switching_map(y, "relu", 0.2)),
    }[name]


class TestSecondRequestAdmission:
    """The array memos store a value only when its key is requested a
    second time; a batch seen once costs no LRU slot and no disk write."""

    @pytest.mark.parametrize("name", ["im2col", "switching_map"])
    def test_key_seen_once_leaves_both_tiers_empty(self, disk, name):
        memo, call, uncached = _array_memo(name)
        value = call()
        np.testing.assert_array_equal(value, uncached())
        assert not value.flags.writeable
        assert len(memo) == 0
        assert disk.stats()["entries"] == 0

    @pytest.mark.parametrize("name", ["im2col", "switching_map"])
    def test_second_request_admits_and_third_shares(self, disk, name):
        memo, call, uncached = _array_memo(name)
        call()
        second = call()
        np.testing.assert_array_equal(second, uncached())
        assert len(memo) == 1
        assert disk.stats()["entries"] == 1
        assert call() is second
        assert memo.hits == 1

    def test_disk_hit_is_admitted_at_once(self, disk):
        x = _x()
        cache.im2col_cached(x, (3, 3), 1, 1)
        cache.im2col_cached(x, (3, 3), 1, 1)
        cache.clear_caches()
        from_disk = cache.im2col_cached(x, (3, 3), 1, 1)
        assert disk.hits == 1
        assert cache.im2col_cached(x, (3, 3), 1, 1) is from_disk

    def test_clear_caches_forgets_recorded_keys(self, disk):
        x = _x()
        cache.im2col_cached(x, (3, 3), 1, 1)
        cache.clear_caches()
        cache.im2col_cached(x, (3, 3), 1, 1)  # a first request again
        assert len(cache.IM2COL_CACHE) == 0
        assert disk.stats()["entries"] == 0

    def test_recorded_keys_are_bounded(self, disk):
        """Only recently missed keys are remembered: a key pushed out by
        a long run of one-shot keys is a first request again."""
        y = np.zeros((2, 2))
        bound = cache._RECENT_MISSES_PER_ENTRY * cache.SWITCHING_CACHE.capacity
        for theta in range(bound + 1):
            cache.switching_map_cached(y, "relu", float(theta))
        cache.switching_map_cached(y, "relu", 0.0)  # the oldest key
        assert len(cache.SWITCHING_CACHE) == 0
        cache.switching_map_cached(y, "relu", float(bound))  # the newest
        assert len(cache.SWITCHING_CACHE) == 1


class TestWrongShapeDiskEntries:
    """A well-formed disk entry of the wrong shape or dtype under the
    right key is a miss, never a value the call returns."""

    def _plant(self, disk, tag, fingerprint, params, value):
        key = cache.PersistentCache.key_digest(tag, fingerprint, params)
        disk.put_array(key, value)

    @pytest.mark.parametrize(
        "planted", [np.zeros((3, 5)), np.zeros((72, 27), dtype=np.float32)]
    )
    def test_im2col(self, disk, planted):
        x = _x()
        self._plant(disk, "im2col", cache.array_fingerprint(x),
                    ((3, 3), 1, 1), planted)
        np.testing.assert_array_equal(
            cache.im2col_cached(x, (3, 3), 1, 1), im2col(x, (3, 3), 1, 1)
        )
        assert disk.hits == 0 and disk.misses == 1

    @pytest.mark.parametrize(
        "planted", [np.ones((8, 4), dtype=np.uint8), np.ones((4, 8))]
    )
    def test_switching_map(self, disk, planted):
        y = np.random.default_rng(11).normal(size=(4, 8))
        self._plant(disk, "switching_map", cache.array_fingerprint(y),
                    ("relu", 0.2, 0.0), planted)
        np.testing.assert_array_equal(
            cache.switching_map_cached(y, "relu", 0.2),
            switching_map(y, "relu", 0.2),
        )
        assert disk.hits == 0 and disk.misses == 1


def _approx(seed: int = 14, padding: int = 1):
    from repro.core.approx import ApproximateConv2d

    return ApproximateConv2d(
        3, 4, 3, reduced_features=6, padding=padding,
        rng=np.random.default_rng(seed),
    )


def _uncached_speculation(approx, x) -> np.ndarray:
    cache.set_cache_enabled(False)
    try:
        return approx.forward(x)
    finally:
        cache.set_cache_enabled(True)


def _flip_sign(approx):
    signs = approx.inner.projection.signs
    signs[0, 0] = -1 if signs[0, 0] == 1 else 1


class TestSpeculateKey:
    """The Speculator's output is memoized under a key derived from its
    input's fingerprint, the conv geometry and the module's parameters,
    never from a hash of the output itself."""

    def test_hit_returns_the_stored_output(self, disk):
        approx, x = _approx(), _x()
        cache.speculate_cached(approx, x)
        cols, stored, key = cache.speculate_cached(approx, x)
        again = cache.speculate_cached(approx, x)
        assert again[1] is stored and again[2] == key
        assert stored.tobytes() == _uncached_speculation(approx, x).tobytes()
        np.testing.assert_array_equal(cols, im2col(x, (3, 3), 1, 1))
        assert cache.SPECULATE_CACHE.hits == 1

    @pytest.mark.parametrize("edit", [
        lambda a: a.inner.weight.__setitem__((0, 0), a.inner.weight[0, 0] + 0.5),
        lambda a: a.inner.bias.__setitem__(0, 0.25),
        _flip_sign,
        lambda a: setattr(a.inner, "input_bits", 3),
        lambda a: setattr(a.inner, "weight_bits", 3),
        lambda a: setattr(a.inner.projection, "scale", 0.5),
    ], ids=["weight", "bias", "signs", "input_bits", "weight_bits", "scale"])
    def test_in_place_parameter_edit_recomputes(self, disk, edit):
        approx, x = _approx(), _x()
        cache.speculate_cached(approx, x)
        _, before, key = cache.speculate_cached(approx, x)
        edit(approx)
        misses = cache.SPECULATE_CACHE.misses
        _, after, edited_key = cache.speculate_cached(approx, x)
        assert edited_key != key
        assert cache.SPECULATE_CACHE.misses == misses + 1
        expected = _uncached_speculation(approx, x)
        assert after.tobytes() == expected.tobytes()
        assert not np.array_equal(after, before)

    @pytest.mark.parametrize("other", [
        lambda: _approx(seed=15),
        lambda: _approx(padding=0),
    ], ids=["parameters", "geometry"])
    def test_modules_never_share_an_entry(self, disk, other):
        x = _x()
        for approx in (_approx(), other()):
            for _ in range(3):
                _, y_approx, _ = cache.speculate_cached(approx, x)
            assert y_approx.tobytes() == _uncached_speculation(approx, x).tobytes()
        assert len(cache.SPECULATE_CACHE) == 2
        assert cache.SPECULATE_CACHE.hits == 2

    def test_disk_hits_across_processes(self, tmp_path):
        """A process with another hash seed reads the entries another
        process stored under the same ``DUET_CACHE_DIR``."""
        import hashlib
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import hashlib, json, sys\n"
            "import numpy as np\n"
            "from repro.core import cache\n"
            "from repro.core.approx import ApproximateConv2d\n"
            "approx = ApproximateConv2d(3, 4, 3, reduced_features=6, padding=1,\n"
            "                           rng=np.random.default_rng(14))\n"
            "x = np.random.default_rng(8).normal(size=(2, 3, 6, 6))\n"
            "for _ in range(int(sys.argv[1])):\n"
            "    cols, y_approx, key = cache.speculate_cached(approx, x)\n"
            "print(json.dumps({\n"
            "    'key': key, 'disk_hits': cache.DISK_CACHE.hits,\n"
            "    'speculate_misses': cache.SPECULATE_CACHE.misses,\n"
            "    'cols': hashlib.sha256(cols.tobytes()).hexdigest(),\n"
            "    'y_approx': hashlib.sha256(y_approx.tobytes()).hexdigest()}))\n"
        )
        src = str(Path(cache.__file__).resolve().parents[2])

        def run(requests: int, hash_seed: str) -> dict:
            env = dict(
                os.environ,
                PYTHONPATH=src,
                PYTHONHASHSEED=hash_seed,
                **{cache.CACHE_DIR_ENV: str(tmp_path / "shared"),
                   cache.CACHE_DISK_ENV: "1"},
            )
            out = subprocess.run(
                [sys.executable, "-c", script, str(requests)],
                env=env, capture_output=True, text=True, check=True,
            )
            return json.loads(out.stdout)

        writer = run(2, "1")  # the second request stores both arrays
        reader = run(1, "2")
        assert writer["disk_hits"] == 0
        assert reader["disk_hits"] == 2  # the columns and the Speculator output
        assert reader["speculate_misses"] == 1  # in-process only
        for field in ("key", "cols", "y_approx"):
            assert reader[field] == writer[field]
        approx, x = _approx(), _x()
        expected = _uncached_speculation(approx, x)
        assert reader["y_approx"] == hashlib.sha256(expected.tobytes()).hexdigest()
