"""Process-wide memo caches: the offline dual-module tooling and the
simulator's layer costs.

The threshold-tuning flows (:mod:`repro.core.thresholds`,
:meth:`repro.models.dualize.DualizedCNN.set_thresholds_by_fraction`) sweep
many candidate operating points over the *same* calibration and evaluation
batches.  Each sweep step re-runs the im2col lowering, the Speculator, the
switching-map comparison and the threshold quantile on byte-identical
inputs.  All four are pure functions of their inputs, so this module
memoizes them behind content keys:

- :func:`im2col_cached` -- the im2col buffer of a conv input, keyed on the
  input fingerprint and the conv geometry.
- :func:`speculate_cached` -- the lowering and the Speculator output of an
  :class:`~repro.core.approx.ApproximateConv2d`.  It fingerprints the
  input once, for the im2col key and for the output's *derived* key:
  BLAKE2b over that fingerprint, the conv geometry and fingerprints of
  every parameter the Speculator reads (projection signs and scale, QDR
  weight and bias, both bit widths).  The parameters are a few KB and
  are hashed on every call, so an in-place edit never leaves a key stale.
- :func:`switching_map_cached` -- the OMap of a layer, keyed on
  ``(layer, key, threshold)`` (plus activation and guard band).
- :func:`tune_threshold_cached` -- the tuned quantile threshold, keyed on
  ``(layer, key, fraction)``.

The ``key`` of the last two stands for the pre-activations' content: the
CNN path passes the derived key :func:`speculate_cached` returned, so a
Speculator output is never hashed; other callers (the RNN gates) leave it
out and the array is fingerprinted.

Because keys are content fingerprints (BLAKE2b over dtype, shape and raw
bytes) or derived from them, a hit returns exactly what the underlying
function would have computed -- caching never changes numerics, it only
skips recomputation.  Cached arrays are stored read-only and shared
between hits; callers must treat them as immutable (mutation raises
``ValueError``).

Two tiers back the memo:

- an in-process bounded LRU (:class:`MemoCache`), always consulted first;
- an on-disk content-fingerprint store (:class:`PersistentCache`) shared
  by every process on the machine -- campaign workers forked by
  :mod:`repro.parallel` and repeated CLI runs alike.  Disk keys contain
  *only* content fingerprints and value parameters (never the in-process
  ``layer`` partition tokens, which are not stable across processes), so
  a disk hit is exactly the value any process would have computed.
  Entries live under ``.duet-cache/v1`` (override the root with the
  ``DUET_CACHE_DIR`` environment variable); the ``v1`` segment is the
  fingerprint-schema version -- bumping it orphans old entries instead of
  misreading them.  Writes are atomic (temp file + ``os.replace``) and
  the store is size-bounded with oldest-first eviction.  An entry of
  another shape or dtype than the call computes reads as a miss.

The three array memos (im2col buffers, Speculator outputs and switching
maps) store a value only on its key's second request.  A first miss
computes the value and returns it read-only, recording just the key in
a bounded set of recently missed keys (four per entry of the memo's
capacity); the value enters the LRU and the disk tier when the key is
requested again while still recorded.  A disk hit enters the LRU at
once.  Threshold sweeps re-run one calibration batch, whose values are
stored on the second sweep; the fresh evaluation batches between sweeps
are seen once and are never stored.  On perfbench's ``calibrate``
workload (12 seeds, one BLAS thread, a 2-vCPU Xeon Linux host) this
took peak RSS from 516 MB to 226 MB, and in a traced run the disk
tier's end size from 258 MB to 80 MB, while the im2col hit ratio fell
only from 0.47 to 0.44 (a stored key's second request is a miss).
Tuned thresholds (one float each) and :data:`LAYER_COST_CACHE` store
every miss at once.

Deriving the Speculator output's key instead of hashing it took the
bytes hashed per ``calibrate`` op from 25.2 MB to 4.8 MB, and a
calibration hit skips the quantize, project and QDR GEMM chain.  Over
10 alternating pairs (seeds 11-20, same host) the op median fell from
207 ms to 119 ms; peak RSS rose from 225.7 MB to 231.2 MB, the stored
outputs.

One more memo, in-process only, serves the simulator:
:data:`LAYER_COST_CACHE` holds the Executor cost of each *sampled* CONV
layer, keyed on the workload's recipe (the sparsity-model fields, the
layer spec and its index, which fully determine the maps) plus the
hardware knobs the cost reads.  Early-exit campaigns price the same
backbone prefix once per exit; with this memo each layer is priced once
per process and a hit never draws the maps.  Workloads built from
explicit arrays carry no recipe and always bypass it.

Caches are bounded LRU and enabled by default; ``set_cache_enabled(False)``
restores the uncached behaviour, e.g. for microbenchmarking the raw
kernels.  The disk tier alone can be disabled with
``set_disk_cache_enabled(False)`` or ``DUET_CACHE_DISK=0``.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Hashable

import numpy as np

__all__ = [
    "array_fingerprint",
    "MemoCache",
    "PersistentCache",
    "im2col_cached",
    "speculate_cached",
    "switching_map_cached",
    "tune_threshold_cached",
    "set_cache_enabled",
    "caches_enabled",
    "set_disk_cache_enabled",
    "disk_cache_enabled",
    "clear_caches",
    "cache_stats",
    "IM2COL_CACHE",
    "SPECULATE_CACHE",
    "SWITCHING_CACHE",
    "THRESHOLD_CACHE",
    "LAYER_COST_CACHE",
    "DISK_CACHE",
]

#: version segment of the on-disk store; bump when the fingerprint or
#: file format changes so stale entries are orphaned, never misread.
DISK_SCHEMA_VERSION = "v1"

#: environment variable overriding the on-disk store's root directory.
CACHE_DIR_ENV = "DUET_CACHE_DIR"

#: environment variable disabling the disk tier ("0", "off", "false").
CACHE_DISK_ENV = "DUET_CACHE_DISK"


def array_fingerprint(x: np.ndarray) -> str:
    """Content fingerprint of an array: BLAKE2b over dtype, shape, bytes.

    Hashing runs at memory bandwidth -- orders of magnitude cheaper than
    the im2col / quantile / comparison work it stands in for -- and two
    arrays share a fingerprint iff they are byte-identical with the same
    dtype and shape.
    """
    x = np.ascontiguousarray(x)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(x.dtype).encode())
    digest.update(repr(x.shape).encode())
    digest.update(x.view(np.uint8).data if x.size else b"")
    return digest.hexdigest()


class MemoCache:
    """A bounded LRU memo with hit/miss/evict counters.

    Attributes:
        name: label used in :func:`cache_stats`.
        capacity: maximum number of entries; least-recently-used entries
            are evicted first.
        hits / misses / evictions: counters since the last :meth:`clear`.
    """

    def __init__(self, name: str, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        """Return the cached value or ``None``; refreshes LRU order."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert a value, evicting the least-recently-used on overflow."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict[str, int]:
        """Counter snapshot: ``{entries, capacity, hits, misses, evictions}``."""
        return {
            "entries": len(self),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        """Drop all entries and zero the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class PersistentCache:
    """On-disk content-fingerprint store shared across processes.

    Values are numpy arrays saved with :func:`numpy.save` (pickling
    disabled) under ``root/<version>/<key digest>.npy``.  Keys must be
    built from content fingerprints and value parameters only -- never
    from process-local tokens -- so any process reading a hit gets
    exactly what it would have computed.  Writes go to a pid-unique
    temporary file first and land via ``os.replace``, so concurrent
    workers can race on the same key without ever exposing a torn file
    (last writer wins with an identical payload).

    Attributes:
        max_bytes: store size bound; oldest entries (by mtime) are
            evicted after a put pushes the total over it.
        hits / misses / evictions: process-local counters.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        max_bytes: int = 256 * 1024 * 1024,
        version: str = DISK_SCHEMA_VERSION,
    ):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self._root = Path(root) if root is not None else None
        self.max_bytes = max_bytes
        self.version = version
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def directory(self) -> Path:
        """The versioned store directory (honours ``DUET_CACHE_DIR``)."""
        root = self._root
        if root is None:
            root = Path(os.environ.get(CACHE_DIR_ENV) or ".duet-cache")
        return root / self.version

    @staticmethod
    def key_digest(*parts) -> str:
        """Stable digest of a key tuple (reprs hashed with BLAKE2b)."""
        digest = hashlib.blake2b(digest_size=16)
        for part in parts:
            digest.update(repr(part).encode())
            digest.update(b"\x00")
        return digest.hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npy"

    def get_array(
        self, key: str, shape: tuple[int, ...] | None = None, dtype=None
    ) -> np.ndarray | None:
        """Load the array stored under ``key``, or ``None`` on a miss.

        Given ``shape`` and/or ``dtype``, an entry of any other shape or
        dtype is a miss too: it cannot be the value the caller computes.
        """
        path = self._path(key)
        try:
            value = np.load(path, allow_pickle=False)
        except (FileNotFoundError, OSError, ValueError):
            # missing, torn by an unclean shutdown, or unreadable: treat
            # every failure as a miss and let the caller recompute
            self.misses += 1
            return None
        if (shape is not None and value.shape != tuple(shape)) or (
            dtype is not None and value.dtype != np.dtype(dtype)
        ):
            self.misses += 1
            return None
        self.hits += 1
        try:  # freshen mtime so the LRU-ish eviction keeps hot entries
            os.utime(path)
        except OSError:
            pass
        return value

    def put_array(self, key: str, value: np.ndarray) -> None:
        """Atomically store ``value`` under ``key``; best-effort on I/O."""
        directory = self.directory
        try:
            directory.mkdir(parents=True, exist_ok=True)
            tmp = directory / f"{key}.{os.getpid()}.tmp.npy"
            with open(tmp, "wb") as handle:
                np.save(handle, np.ascontiguousarray(value), allow_pickle=False)
            os.replace(tmp, self._path(key))
        except OSError:
            return  # a read-only or full disk must never fail the caller
        self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        """Drop oldest entries until the store fits ``max_bytes``."""
        try:
            entries = [
                (path.stat().st_mtime, path.stat().st_size, path)
                for path in self.directory.glob("*.npy")
                if ".tmp." not in path.name
            ]
        except OSError:
            return
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        for _, size, path in sorted(entries):
            try:
                path.unlink()
            except OSError:
                continue
            self.evictions += 1
            total -= size
            if total <= self.max_bytes:
                return

    def stats(self) -> dict[str, int]:
        """``{entries, bytes, hits, misses, evictions}`` snapshot."""
        entries = 0
        size = 0
        try:
            for path in self.directory.glob("*.npy"):
                if ".tmp." in path.name:
                    continue
                entries += 1
                size += path.stat().st_size
        except OSError:
            pass
        return {
            "entries": entries,
            "bytes": size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        """Remove every stored entry and zero the counters."""
        try:
            for path in self.directory.glob("*.npy"):
                try:
                    path.unlink()
                except OSError:
                    continue
        except OSError:
            pass
        self.hits = 0
        self.misses = 0
        self.evictions = 0


#: Global caches.  im2col buffers and Speculator outputs are large (a
#: few MB per calibration batch), so those caches are kept small; maps
#: and thresholds are tiny.
IM2COL_CACHE = MemoCache("im2col", capacity=32)
SPECULATE_CACHE = MemoCache("speculate", capacity=32)
SWITCHING_CACHE = MemoCache("switching_map", capacity=256)
THRESHOLD_CACHE = MemoCache("threshold", capacity=4096)

#: Executor costs of sampled CONV layers, keyed on ``(workload recipe,
#: cost-knob key)`` by :meth:`repro.sim.executor.ExecutorModel.cnn_layer`.
#: A campaign re-prices a layer within a few hundred entries (every exit
#: of a backbone shares its prefix), so 1,024 covers the reuse distance
#: while bounding memory on sweeps that never repeat a layer.
LAYER_COST_CACHE = MemoCache("layer_cost", capacity=1024)

#: The shared disk tier behind the four offline-phase memo functions.
DISK_CACHE = PersistentCache()

_ALL_CACHES = (
    IM2COL_CACHE, SPECULATE_CACHE, SWITCHING_CACHE, THRESHOLD_CACHE, LAYER_COST_CACHE
)

#: The memos that store a value only on its key's second request, each
#: with the keys it was asked for once and has not stored (yet), oldest
#: first, up to ``_RECENT_MISSES_PER_ENTRY`` times its capacity.
_RECENT_MISSES: dict[MemoCache, OrderedDict[Hashable, bool]] = {
    IM2COL_CACHE: OrderedDict(),
    SPECULATE_CACHE: OrderedDict(),
    SWITCHING_CACHE: OrderedDict(),
}
_RECENT_MISSES_PER_ENTRY = 4

_enabled = True
_disk_enabled: bool | None = None  # None = consult the environment


# Test hook: tests compare memoized results against a cache-off run.
def set_cache_enabled(enabled: bool) -> None:  # duetlint: disable=DEAD001
    """Globally enable or disable the memo caches (default: enabled)."""
    global _enabled
    _enabled = bool(enabled)


def caches_enabled() -> bool:
    """Whether the memo caches are currently active."""
    return _enabled


# Test hook: tests switch the disk tier on and off without the environment.
def set_disk_cache_enabled(enabled: bool | None) -> None:  # duetlint: disable=DEAD001
    """Enable/disable the disk tier (``None`` defers to the environment)."""
    global _disk_enabled
    _disk_enabled = enabled if enabled is None else bool(enabled)


def disk_cache_enabled() -> bool:
    """Whether the disk tier is active (memo caches must be on too)."""
    if not _enabled:
        return False
    if _disk_enabled is not None:
        return _disk_enabled
    flag = os.environ.get(CACHE_DISK_ENV, "1").strip().lower()
    return flag not in ("0", "off", "false", "no")


# Test hook: tests start from empty memos to observe hits, misses, disk reads.
def clear_caches() -> None:  # duetlint: disable=DEAD001
    """Empty every in-process cache and reset its counters.

    Also forgets the keys the array memos recorded as requested once.
    The disk tier is deliberately left alone -- it is shared machine
    state; call ``DISK_CACHE.clear()`` to wipe it explicitly.
    """
    for cache in _ALL_CACHES:
        cache.clear()
    for recent in _RECENT_MISSES.values():
        recent.clear()


def cache_stats() -> dict[str, dict[str, int]]:
    """Per-cache counter snapshot (for diagnostics and bench output).

    In-process caches report ``{entries, capacity, hits, misses,
    evictions}``; the ``disk`` entry reports ``{entries, bytes, hits,
    misses, evictions}`` for the persistent tier.
    """
    stats = {cache.name: cache.stats() for cache in _ALL_CACHES}
    stats["disk"] = DISK_CACHE.stats()
    return stats


def _freeze(x: np.ndarray) -> np.ndarray:
    """Mark an array read-only so shared cache hits cannot be mutated."""
    x.flags.writeable = False
    return x


def _memoize(
    memo: MemoCache,
    key: Hashable,
    disk_parts: tuple,
    compute: Callable[[], np.ndarray],
    shape: tuple[int, ...],
    dtype,
) -> np.ndarray:
    """The memo -> disk -> compute sequence behind every memo function.

    ``compute()`` returns the ``shape``/``dtype`` array the call stands
    for; a disk entry of any other shape or dtype is a miss.  A value is
    returned frozen.  A miss is stored in ``memo`` and on disk at once,
    unless ``memo`` is in :data:`_RECENT_MISSES`: then a key's first miss
    records only the key, and its value is stored when the key is
    requested a second time, so a batch seen once costs neither an LRU
    slot nor a disk write.  A disk hit is stored at once.
    """
    value = memo.get(key)
    if value is not None:
        return value
    disk_key = None
    if disk_cache_enabled():
        disk_key = PersistentCache.key_digest(*disk_parts)
        value = DISK_CACHE.get_array(disk_key, shape, dtype)
    if value is None:
        value = compute()
        recent = _RECENT_MISSES.get(memo)
        if recent is not None and not recent.pop(key, False):
            recent[key] = True
            if len(recent) > _RECENT_MISSES_PER_ENTRY * memo.capacity:
                recent.popitem(last=False)
            return _freeze(value)
        if disk_key is not None:
            DISK_CACHE.put_array(disk_key, value)
    memo.put(key, _freeze(value))
    return value


def im2col_cached(
    x: np.ndarray,
    kernel_size: tuple[int, int],
    stride: int,
    padding: int,
    fingerprint: str | None = None,
) -> np.ndarray:
    """Memoized :func:`repro.nn.functional.im2col`.

    Keyed on the input fingerprint plus the conv geometry; returns a
    read-only ``(N * H' * W', C * kh * kw)`` buffer, shared once its key
    has been requested twice.  Backed by the disk tier: a buffer lowered
    twice by any worker process is a read on every other.  A caller that
    has already fingerprinted ``x`` passes it as ``fingerprint``.
    """
    from repro.nn.functional import conv_output_size, im2col

    if not _enabled:
        return im2col(x, kernel_size, stride, padding)
    geometry = (tuple(kernel_size), int(stride), int(padding))
    if fingerprint is None:
        fingerprint = array_fingerprint(x)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_size[0], stride, padding)
    out_w = conv_output_size(w, kernel_size[1], stride, padding)
    return _memoize(
        IM2COL_CACHE,
        (fingerprint, *geometry),
        ("im2col", fingerprint, geometry),
        lambda: im2col(x, kernel_size, stride, padding),
        (n * out_h * out_w, c * kernel_size[0] * kernel_size[1]),
        x.dtype,
    )


def _speculator_parameters(approx) -> tuple:
    """Every parameter :meth:`~repro.core.approx.ApproximateConv2d.
    forward_columns` reads, arrays as content fingerprints: the ternary
    projection's signs and scale, the QDR weight and bias, and both bit
    widths.  They total a few KB, so they are hashed on every call and
    an in-place edit can never leave a key stale."""
    inner = approx.inner
    return (
        array_fingerprint(inner.projection.signs),
        float(inner.projection.scale),
        array_fingerprint(inner.weight),
        array_fingerprint(inner.bias),
        int(inner.weight_bits),
        int(inner.input_bits),
    )


def speculate_cached(approx, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, str | None]:
    """Memoized Speculator pass of an :class:`~repro.core.approx.ApproximateConv2d`.

    Fingerprints ``x`` once, lowers it with :func:`im2col_cached` under
    that fingerprint, and runs ``approx.forward_columns`` on the columns.
    The pre-activations are a pure function of ``x`` and the module's
    parameters, so their key is derived rather than hashed: BLAKE2b over
    ``x``'s fingerprint, the conv geometry and the parameters
    (:func:`_speculator_parameters`).  That derived key stands for the
    pre-activations' content wherever a memo would hash them
    (``key=`` of :func:`switching_map_cached` and
    :func:`tune_threshold_cached`).  Stored on its second request, like
    the other array memos.

    Returns:
        ``(cols, y_approx, key)``: the read-only columns, the read-only
        ``(N, C_out, H', W')`` pre-activations, and their derived key
        (``None`` when the caches are off).
    """
    x = np.asarray(x, dtype=np.float64)
    if not _enabled:
        cols, geometry = approx.lower(x)
        return cols, approx.forward_columns(cols, geometry), None
    fingerprint = array_fingerprint(x)
    cols, geometry = approx.lower(x, fingerprint=fingerprint)
    key = PersistentCache.key_digest(
        "speculate",
        fingerprint,
        (tuple(approx.kernel_size), int(approx.stride), int(approx.padding)),
        _speculator_parameters(approx),
    )
    n, out_h, out_w = geometry
    y_approx = _memoize(
        SPECULATE_CACHE,
        key,
        (key,),
        lambda: approx.forward_columns(cols, geometry),
        (n, approx.out_channels, out_h, out_w),
        np.float64,
    )
    return cols, y_approx, key


def switching_map_cached(
    y_approx: np.ndarray,
    activation: str,
    threshold: float,
    guard_band: float = 0.0,
    layer: Hashable = None,
    key: str | None = None,
) -> np.ndarray:
    """Memoized :func:`repro.core.switching.switching_map`.

    Keyed on ``(layer, key, activation, threshold, guard_band)``, where
    ``key`` stands for ``y_approx``'s content: the derived key
    :func:`speculate_cached` returned with it, or by default
    ``array_fingerprint(y_approx)``.  The ``layer`` token only
    partitions the in-process cache (useful so one layer's sweep cannot
    evict another's working set); correctness comes from the key, which
    fully determines the map -- so the disk tier drops the token and
    shares entries across layers and processes alike.  Returns a
    read-only map, shared once its key has been requested twice.
    """
    from repro.core.switching import switching_map

    if not _enabled:
        return switching_map(y_approx, activation, threshold, guard_band)
    if key is None:
        key = array_fingerprint(y_approx)
    params = (activation, float(threshold), float(guard_band))
    return _memoize(
        SWITCHING_CACHE,
        (layer, key, *params),
        ("switching_map", key, params),
        lambda: switching_map(y_approx, activation, threshold, guard_band),
        np.shape(y_approx),
        np.uint8,
    )


def tune_threshold_cached(
    approx_pre_activations: np.ndarray,
    activation: str,
    target_insensitive_fraction: float,
    layer: Hashable = None,
    key: str | None = None,
) -> float:
    """Memoized :func:`repro.core.thresholds.tune_threshold_for_fraction`.

    Keyed on ``(layer, key, activation, fraction)``, with ``key`` as in
    :func:`switching_map_cached` (default: the pre-activations'
    fingerprint); the greedy per-layer allocation in
    :func:`repro.core.thresholds.allocate_layer_fractions` re-tunes
    upstream layers with unchanged inputs on every trial, which this
    turns into dictionary lookups.  Tuned values are stored on their
    first miss, on disk as one-element float64 arrays shared across
    worker processes.
    """
    from repro.core.thresholds import tune_threshold_for_fraction

    if not _enabled:
        return tune_threshold_for_fraction(
            approx_pre_activations, activation, target_insensitive_fraction
        )
    if key is None:
        key = array_fingerprint(approx_pre_activations)
    params = (activation, float(target_insensitive_fraction))
    theta = _memoize(
        THRESHOLD_CACHE,
        (layer, key, *params),
        ("threshold", key, params),
        lambda: np.array([tune_threshold_for_fraction(
            approx_pre_activations, activation, target_insensitive_fraction
        )]),
        (1,),
        np.float64,
    )
    return float(theta[0])
