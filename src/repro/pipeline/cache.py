"""Content-addressed artifact cache for the analysis pipeline.

Every expensive pipeline artifact — compiled modules, Ball–Larus profiling
runs, qualification automata / hot-path graphs (inside
:class:`~repro.core.qualified.QualifiedAnalysis` bundles) — is memoized
under a key derived *only* from content: the module source text, the input
data, the coverage parameters, and (for derived artifacts) the canonical
profile fingerprint.  Identical inputs therefore share artifacts across
coverage sweeps, across processes of a parallel run, and across sessions.

Keys are SHA-256 over a canonical JSON rendering of the key parts plus a
schema version; bumping :data:`SCHEMA_VERSION` invalidates every persisted
artifact at once (the invalidation story is documented in
``docs/PIPELINE.md``).  Values are stored in a two-level hierarchy: a
bounded in-process LRU in front of an optional on-disk store
(``<root>/<kind>/<hash>.pkl``, written atomically via a temp file +
``os.replace`` so concurrent workers never observe partial artifacts).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import sys
import tempfile
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from ..obs import get_metrics, get_tracer

#: Bump to invalidate all persisted artifacts (e.g. on IR format changes).
#: v2: per-function qualified/lint artifacts, IR-fingerprint run keys, and
#: tagged canonicalization of bytes / non-finite floats in ``content_key``.
#: v3: engines left the qualified, lint and sweep-cell/summary keys.
#: v4: train/ref-run and sweep keys take each data set's
#: :func:`data_digest` instead of its canonicalized arrays.
#: v5: ref runs keep one taint count per routine (``RunResult.tainted``)
#: instead of per-site statistics.
#: Keys cover content, not code: a change to an opt pass's output or to the
#: interpreter's cost model changes cached Table-2 costs and needs a bump.
SCHEMA_VERSION = 5

#: Artifact kinds the pipeline stores; each gets its own subdirectory and
#: its own row in the hit/miss statistics.
KIND_MODULE = "module"
KIND_TRAIN_RUN = "train-run"
KIND_REF_RUN = "ref-run"
KIND_QUALIFIED = "qualified"
KIND_LINT = "lint"
KIND_TABLE2 = "table2"
KIND_SWEEP_CELL = "sweep-cell"
KIND_SWEEP_SUMMARY = "sweep-summary"

#: The kinds whose recomputation means "we compiled or profiled again".
COMPILE_PROFILE_KINDS = (KIND_MODULE, KIND_TRAIN_RUN, KIND_REF_RUN)

#: Default bound on in-memory entries per :class:`ArtifactCache`.  Long
#: sweeps touch thousands of per-function artifacts; without a cap the
#: memory layer would pin every one of them live for the process lifetime.
DEFAULT_MEMORY_ENTRIES = 512


def _canonical(part: Any) -> Any:
    """Reduce a key part to canonically-JSON-serializable data.

    Bytes and non-finite floats get *tagged* encodings (single-key mappings
    ``{"__bytes__": hex}`` / ``{"__float__": "nan"|"inf"|"-inf"}``) instead
    of falling through to ``repr`` or to JSON's non-standard ``NaN`` token —
    both of which would silently produce keys that other JSON parsers (or
    future selves) disagree about.  Finite numbers, strings, and containers
    keep their plain canonical form, so existing keys are unaffected.

    Exact built-in types are tested first: a part may hold thousands of
    integers, and ``isinstance(part, Mapping)`` runs the ABC machinery for
    each of them.
    """
    kind = type(part)
    if kind is int or kind is str or kind is bool or part is None:
        return part
    if kind is list or kind is tuple:
        return [_canonical(v) for v in part]
    if kind is dict or isinstance(part, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(part.items(), key=lambda kv: str(kv[0]))}
    if isinstance(part, (list, tuple)):
        return [_canonical(v) for v in part]
    if isinstance(part, float) and not isinstance(part, bool):
        if math.isfinite(part):
            return part
        return {"__float__": repr(part)}
    if isinstance(part, bytes):
        return {"__bytes__": part.hex()}
    if isinstance(part, (str, int, bool)) or part is None:
        return part
    return repr(part)


def content_key(*parts: Any, schema: Optional[int] = None) -> str:
    """SHA-256 content hash of the given key parts (order-sensitive),
    under ``schema`` (default :data:`SCHEMA_VERSION`)."""
    h = hashlib.sha256()
    h.update(f"repro-pipeline-v{schema or SCHEMA_VERSION}".encode())
    for part in parts:
        h.update(b"\x00")
        h.update(
            json.dumps(
                _canonical(part),
                sort_keys=True,
                separators=(",", ":"),
                allow_nan=False,
            ).encode()
        )
    return h.hexdigest()


def _digest_part(h, tag: bytes, body: bytes) -> None:
    h.update(tag)
    h.update(len(body).to_bytes(8, "little"))
    h.update(body)


def _int_part(values: Sequence[int]) -> tuple[bytes, bytes]:
    try:
        packed = array("q", values)
    except OverflowError:
        # A request may send any JSON integer: past int64, spell it out.
        return b"D", ",".join(map(str, values)).encode()
    if sys.byteorder == "big":
        packed.byteswap()
    return b"Q", packed.tobytes()


def data_digest(args: Sequence[int], inputs: Mapping[str, Sequence[int]]) -> str:
    """SHA-256 of one data set: the arguments, then each input array in
    sorted name order.

    Every part is tagged and length-prefixed, so changing, moving or
    splitting values and renaming an array all change the digest.  The
    integers are packed as little-endian int64 bytes, which hashes a large
    data set in microseconds where :func:`content_key` would walk every
    integer in Python."""
    h = hashlib.sha256()
    _digest_part(h, *_int_part(args))
    for name in sorted(inputs):
        _digest_part(h, b"N", name.encode())
        _digest_part(h, *_int_part(inputs[name]))
    return h.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counts per artifact kind.

    ``misses[kind]`` equals the number of times the underlying computation
    actually ran — the differential tests assert a warm cache performs zero
    compiles and zero profiling runs by checking exactly these counters.
    """

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    stores: dict[str, int] = field(default_factory=dict)
    #: Artifacts found on disk but unreadable (truncated/stale pickles);
    #: each one was silently treated as a miss and recomputed.
    corrupt: dict[str, int] = field(default_factory=dict)
    #: Entries dropped from the bounded in-memory layer (LRU).  A disk-backed
    #: cache reloads them on the next lookup; a purely in-memory cache
    #: recomputes.
    evictions: dict[str, int] = field(default_factory=dict)

    #: Counter dicts, for the bulk merge/copy/diff operations below.
    _COUNTERS = ("hits", "misses", "stores", "corrupt", "evictions")

    def record_hit(self, kind: str) -> None:
        self.hits[kind] = self.hits.get(kind, 0) + 1

    def record_miss(self, kind: str) -> None:
        self.misses[kind] = self.misses.get(kind, 0) + 1

    def record_store(self, kind: str) -> None:
        self.stores[kind] = self.stores.get(kind, 0) + 1

    def record_corrupt(self, kind: str) -> None:
        self.corrupt[kind] = self.corrupt.get(kind, 0) + 1

    def record_eviction(self, kind: str) -> None:
        self.evictions[kind] = self.evictions.get(kind, 0) + 1

    def computations(self, kinds: Iterable[str]) -> int:
        """How many times the computations behind ``kinds`` actually ran."""
        return sum(self.misses.get(kind, 0) for kind in kinds)

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def merge(self, other: "CacheStats") -> None:
        """Fold another stats object (e.g. from a worker process) into this."""
        for field_name in self._COUNTERS:
            mine = getattr(self, field_name)
            for kind, n in getattr(other, field_name).items():
                mine[kind] = mine.get(kind, 0) + n

    def copy(self) -> "CacheStats":
        return CacheStats(
            **{name: dict(getattr(self, name)) for name in self._COUNTERS}
        )

    def diff(self, earlier: "CacheStats") -> "CacheStats":
        """Counts accumulated since ``earlier`` (a previous :meth:`copy`)."""
        out = CacheStats()
        for field_name in self._COUNTERS:
            mine = getattr(self, field_name)
            theirs = getattr(earlier, field_name)
            target = getattr(out, field_name)
            for kind in set(mine) | set(theirs):
                n = mine.get(kind, 0) - theirs.get(kind, 0)
                if n:
                    target[kind] = n
        return out

    def summary(self) -> str:
        kinds = sorted(set(self.hits) | set(self.misses))
        parts = []
        for kind in kinds:
            part = (
                f"{kind}: {self.hits.get(kind, 0)} hit / "
                f"{self.misses.get(kind, 0)} computed"
            )
            if self.corrupt.get(kind):
                part += f" / {self.corrupt[kind]} corrupt"
            if self.evictions.get(kind):
                part += f" / {self.evictions[kind]} evicted"
            parts.append(part)
        return "; ".join(parts) if parts else "empty"


class ArtifactCache:
    """Two-level (memory, disk) content-addressed store.

    ``root=None`` gives a purely in-process cache — the deterministic
    fallback when no ``--cache-dir`` is configured.  All artifacts are plain
    Python object graphs (IR modules, run results, analysis bundles), so the
    on-disk format is pickle; the *keys* carry all the invalidation logic.

    Safe to share across threads (the analysis service hands one cache to
    every request worker): the memory layer and statistics are lock-guarded,
    disk writes go through a temp file + atomic ``os.replace``, torn or
    stale on-disk artifacts read back as misses, and concurrent ``memo``
    calls for the *same* key single-flight — the first caller computes, the
    rest block and reuse its artifact (counted as hits, so ``misses`` still
    equals the number of times the computation actually ran).
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        memory_entries: Optional[int] = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        if memory_entries is not None and memory_entries < 1:
            raise ValueError(
                f"memory_entries must be >= 1 or None, got {memory_entries}"
            )
        self.root: Optional[Path] = Path(root) if root is not None else None
        #: LRU bound on the memory layer (``None`` = unbounded).  Evicted
        #: entries reload from disk when a root is configured; a purely
        #: in-memory cache recomputes them, so keep the cap generous.
        self.memory_entries = memory_entries
        self.stats = CacheStats()
        self._memory: "OrderedDict[tuple[str, str], Any]" = OrderedDict()
        self._lock = threading.Lock()
        #: In-flight computations, keyed like ``_memory``; followers wait on
        #: the leader's event instead of recomputing.
        self._inflight: dict[tuple[str, str], threading.Event] = {}

    # -- core protocol -----------------------------------------------------

    def _memory_put(self, mem_key: tuple[str, str], value: Any) -> None:
        """Insert into the LRU memory layer; caller holds ``_lock``.

        Eviction never touches ``_inflight``: single-flight followers wait
        on the leader's event regardless of what the LRU drops.
        """
        self._memory[mem_key] = value
        self._memory.move_to_end(mem_key)
        if self.memory_entries is None:
            return
        while len(self._memory) > self.memory_entries:
            (evicted_kind, _), _ = self._memory.popitem(last=False)
            self.stats.record_eviction(evicted_kind)
            get_metrics().counter("cache_evictions", kind=evicted_kind).inc()

    def memo(self, kind: str, key: str, compute: Callable[[], Any]) -> Any:
        """Return the cached artifact for ``(kind, key)``, computing on miss."""
        mem_key = (kind, key)
        metrics = get_metrics()
        while True:
            with self._lock:
                if mem_key in self._memory:
                    self.stats.record_hit(kind)
                    value = self._memory[mem_key]
                    self._memory.move_to_end(mem_key)
                    hit_level = "memory"
                    break
                event = self._inflight.get(mem_key)
                if event is None:
                    self._inflight[mem_key] = threading.Event()
                    event = None  # we are the leader
            if event is not None:
                # Another thread is computing this artifact; wait for it and
                # re-check.  If the leader failed, its event fires with the
                # key still absent and the loop elects a new leader.
                event.wait()
                continue
            try:
                value = self._load(kind, key)
                if value is not None:
                    with self._lock:
                        self.stats.record_hit(kind)
                        self._memory_put(mem_key, value)
                    metrics.counter("cache_hits", kind=kind, level="disk").inc()
                    return value
                with self._lock:
                    self.stats.record_miss(kind)
                metrics.counter("cache_misses", kind=kind).inc()
                value = compute()
                with self._lock:
                    self._memory_put(mem_key, value)
                self._store(kind, key, value)
                return value
            finally:
                with self._lock:
                    event = self._inflight.pop(mem_key, None)
                if event is not None:
                    event.set()
        metrics.counter("cache_hits", kind=kind, level=hit_level).inc()
        return value

    def stats_snapshot(self) -> CacheStats:
        """A consistent copy of the statistics, safe to take while other
        threads are actively counting into this cache."""
        with self._lock:
            return self.stats.copy()

    # -- disk layer --------------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        assert self.root is not None
        return self.root / kind / f"{key}.pkl"

    #: Everything a torn, truncated, or stale pickle can raise while being
    #: deserialized.  ``ValueError`` covers ``struct.error`` and unicode
    #: decode failures; Index/Key/Type errors come from opcode streams cut
    #: mid-object.  Anything else (e.g. ``MemoryError``) still propagates.
    _TORN_READ_ERRORS = (
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        IndexError,
        KeyError,
        TypeError,
        ValueError,
    )

    def _load(self, kind: str, key: str) -> Optional[Any]:
        if self.root is None:
            return None
        path = self._path(kind, key)
        try:
            with open(path, "rb") as f:
                return pickle.load(f)
        except (FileNotFoundError, NotADirectoryError):
            return None
        except self._TORN_READ_ERRORS + (OSError,):
            # A truncated or stale artifact is a miss, never an error: the
            # recomputation overwrites it atomically below.  It is still an
            # *event* worth surfacing — a persistently corrupting store is a
            # deployment problem the counters make visible.
            with self._lock:
                self.stats.record_corrupt(kind)
            get_metrics().counter("cache_corrupt", kind=kind).inc()
            get_tracer().event("cache.corrupt", kind=kind, path=str(path))
            return None

    def _store(self, kind: str, key: str, value: Any) -> None:
        if self.root is None:
            return
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The temp file lives in the destination directory so the final
        # ``os.replace`` is a same-filesystem atomic rename: a concurrent
        # reader sees either the old complete artifact or the new one,
        # never a partial write.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
            # Size from the temp file, not the destination: another writer
            # may replace (or a cleaner unlink) the destination between our
            # rename and a stat of it.
            size = os.path.getsize(tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        with self._lock:
            self.stats.record_store(kind)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("cache_stores", kind=kind).inc()
            metrics.counter("cache_store_bytes", kind=kind).inc(size)
