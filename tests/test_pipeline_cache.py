"""Differential tests for the content-addressed artifact cache.

The contract: a cold run and a warm run of the same workload produce
*identical* analysis results — same solver values, same Table 2 row, same
figure data — while the warm run performs **zero** recompiles and **zero**
reprofiles (every compile/profile artifact is served from disk).  The
ISSUE's headline criterion — a warm Figure 11 sweep does at least 3x fewer
compile+profile invocations than a cold one — is asserted directly.
"""

from __future__ import annotations

import collections
import pickle
import threading

import pytest

from repro.dataflow import engine_scope, wz_engine_scope
from repro.evaluation import CA_SWEEP, DEFAULT_CA, DEFAULT_CR, WorkloadRun
from repro.obs import capture
from repro.pipeline import (
    COMPILE_PROFILE_KINDS,
    KIND_QUALIFIED,
    ArtifactCache,
    content_key,
    data_digest,
    make_run,
)
from repro.workloads import get_workload

WORKLOAD = "compress95"


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifact-cache")


@pytest.fixture(scope="module")
def cold_run(cache_dir):
    return WorkloadRun(get_workload(WORKLOAD), cache=ArtifactCache(cache_dir))


@pytest.fixture(scope="module")
def warm_run(cache_dir, cold_run):
    # Populate the qualified artifacts for the full Figure 11 sweep before
    # the warm run starts, so the warm sweep can be fully cache-served.
    for ca in CA_SWEEP:
        cold_run.qualified(ca, DEFAULT_CR)
    return WorkloadRun(get_workload(WORKLOAD), cache=ArtifactCache(cache_dir))


def _qualified_projection(run: WorkloadRun, ca: float, cr: float):
    """Hashable/comparable view of every per-routine analysis result.

    ``CondConstResult`` is a plain class without structural equality, so the
    differential compares its meaningful projections instead.
    """
    out = {}
    for name, qa in sorted(run.qualified(ca, cr).items()):
        final = qa.final_analysis()
        out[name] = (
            qa.traced,
            qa.hot_paths,
            {v: qa.baseline.env_in[v] for v in qa.baseline.view.cfg.vertices},
            sorted(qa.baseline.executable_edges),
            {v: final.env_in[v] for v in final.view.cfg.vertices},
        )
    return out


# -- cold/warm differential ---------------------------------------------------


def test_cold_run_computes_each_compile_profile_artifact_once(cold_run):
    stats = cold_run.cache.stats
    # one module compile + one train profile + one reference run
    assert stats.computations(COMPILE_PROFILE_KINDS) == 3
    for kind in COMPILE_PROFILE_KINDS:
        assert stats.misses.get(kind) == 1


def test_warm_run_recompiles_and_reprofiles_nothing(warm_run):
    stats = warm_run.cache.stats
    assert stats.computations(COMPILE_PROFILE_KINDS) == 0
    for kind in COMPILE_PROFILE_KINDS:
        assert stats.hits.get(kind) == 1


def test_warm_figure11_sweep_is_at_least_3x_cheaper(cold_run, warm_run):
    for ca in CA_SWEEP:
        warm_run.graph_sizes(ca, DEFAULT_CR)
    cold = cold_run.cache.stats.computations(COMPILE_PROFILE_KINDS)
    warm = warm_run.cache.stats.computations(COMPILE_PROFILE_KINDS)
    assert cold >= 3
    assert warm == 0
    assert 3 * max(warm, 1) <= cold or warm == 0  # >= 3x fewer invocations


def test_warm_sweep_serves_qualified_pipelines_from_disk(warm_run):
    for ca in CA_SWEEP:
        warm_run.qualified(ca, DEFAULT_CR)
    assert warm_run.cache.stats.misses.get("qualified", 0) == 0
    assert warm_run.cache.stats.hits.get("qualified", 0) >= len(CA_SWEEP)


def test_cold_and_warm_solutions_are_identical(cold_run, warm_run):
    for ca in (0.0, DEFAULT_CA, 1.0):
        assert _qualified_projection(
            cold_run, ca, DEFAULT_CR
        ) == _qualified_projection(warm_run, ca, DEFAULT_CR)


def test_cold_and_warm_table2_rows_are_identical(cold_run, warm_run):
    assert cold_run.table2(DEFAULT_CA, DEFAULT_CR) == warm_run.table2(
        DEFAULT_CA, DEFAULT_CR
    )
    assert cold_run.aggregate_classification(
        DEFAULT_CA, DEFAULT_CR
    ) == warm_run.aggregate_classification(DEFAULT_CA, DEFAULT_CR)


def test_cached_run_matches_uncached_run(cold_run):
    plain = WorkloadRun(get_workload(WORKLOAD))
    assert plain.table2(DEFAULT_CA, DEFAULT_CR) == cold_run.table2(
        DEFAULT_CA, DEFAULT_CR
    )
    for ca in (0.0, DEFAULT_CA):
        assert plain.graph_sizes(ca, DEFAULT_CR) == cold_run.graph_sizes(
            ca, DEFAULT_CR
        )


# -- ArtifactCache unit behaviour ---------------------------------------------


def test_memo_computes_once_and_persists(tmp_path):
    calls = []

    def compute():
        calls.append(1)
        return {"x": 42}

    cache = ArtifactCache(tmp_path)
    key = content_key("unit", "alpha")
    assert cache.memo("module", key, compute) == {"x": 42}
    assert cache.memo("module", key, compute) == {"x": 42}
    assert len(calls) == 1

    # A fresh instance over the same directory hits the disk layer.
    fresh = ArtifactCache(tmp_path)
    assert fresh.memo("module", key, compute) == {"x": 42}
    assert len(calls) == 1
    assert fresh.stats.hits.get("module") == 1


def test_distinct_inputs_get_distinct_keys():
    k1 = content_key("module", "int main() {}")
    k2 = content_key("module", "int main() { return 1; }")
    k3 = content_key("train-run", "int main() {}")
    assert len({k1, k2, k3}) == 3


def test_corrupted_artifact_is_treated_as_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = content_key("unit", "beta")
    cache.memo("module", key, lambda: [1, 2, 3])

    # Clobber the on-disk pickle; a fresh instance must recompute.
    (path,) = list(tmp_path.glob("module/*.pkl"))
    path.write_bytes(b"not a pickle")
    fresh = ArtifactCache(tmp_path)
    assert fresh.memo("module", key, lambda: [4, 5, 6]) == [4, 5, 6]
    # ... and repair the artifact on disk.
    assert pickle.loads(path.read_bytes()) == [4, 5, 6]


def test_in_memory_cache_needs_no_directory():
    cache = ArtifactCache(None)
    key = content_key("unit", "gamma")
    assert cache.memo("module", key, lambda: "v") == "v"
    assert cache.memo("module", key, lambda: "w") == "v"


def test_make_run_always_owns_a_cache(tmp_path):
    """Every run memoizes through an ArtifactCache: a private memory-only
    one by default, else the one it is given."""
    plain = make_run(get_workload(WORKLOAD))
    assert plain.cache.root is None
    assert plain.cache.stats.misses == {kind: 1 for kind in COMPILE_PROFILE_KINDS}
    cache = ArtifactCache(tmp_path)
    assert make_run(get_workload(WORKLOAD), cache).cache is cache


def test_memo_span_hit_flag_is_per_lookup():
    """A lookup that computes is a miss even when another thread takes a
    memory hit of the same kind meanwhile: the span's ``hit`` comes from
    whether this lookup's compute ran, not from the cache-wide counter."""
    run = make_run(get_workload(WORKLOAD), ArtifactCache())
    hot, cold = content_key("unit", "hot"), content_key("unit", "cold")
    run._memo(KIND_QUALIFIED, hot, lambda: "hot")
    entered, release = threading.Event(), threading.Event()

    def slow():
        entered.set()
        assert release.wait(30)
        return "cold"

    with capture() as (tracer, _):
        miss = threading.Thread(
            target=run._memo, args=(KIND_QUALIFIED, cold, slow)
        )
        miss.start()
        try:
            assert entered.wait(30)
            assert run._memo(KIND_QUALIFIED, hot, lambda: "recomputed") == "hot"
        finally:
            release.set()
            miss.join(30)
    flags = sorted(s.attrs["hit"] for s in tracer.spans() if s.name == "cache.memo")
    assert flags == [False, True]


def _solutions(qualified):
    """Each routine's hot paths and its three Wegman–Zadek solutions."""
    return {
        name: (qa.hot_paths,) + tuple(
            None if wz is None else (wz.env_in, wz.executable_edges)
            for wz in (qa.baseline, qa.hpg_analysis, qa.reduced_analysis)
        )
        for name, qa in qualified.items()
    }


def _wz_labels(qualified):
    """The engines that computed the routines' Wegman–Zadek solutions."""
    return {
        wz.engine
        for qa in qualified.values()
        for wz in (qa.baseline, qa.hpg_analysis, qa.reduced_analysis)
        if wz is not None
    }


def test_oracle_artifacts_serve_the_default_engines(tmp_path):
    """No engine enters a key: qualified and lint artifacts computed on the
    oracle engines are memory and disk hits for a run on the default
    engines, and equal a fresh compute."""
    workload = get_workload(WORKLOAD)
    cache = ArtifactCache(tmp_path)
    with engine_scope("generic"), wz_engine_scope("generic"):
        oracle = WorkloadRun(workload, cache=cache)
        oracle.lint(DEFAULT_CA, DEFAULT_CR)
    fn_count = len(oracle.module.functions)
    assert cache.stats.misses["qualified"] == fn_count
    assert cache.stats.misses["lint"] == fn_count
    assert _wz_labels(oracle.qualified(DEFAULT_CA, DEFAULT_CR)) == {"generic"}

    fresh = WorkloadRun(workload)
    # Computed afresh, the default scope picks the dense WZ engine here.
    assert "compiled" in _wz_labels(fresh.qualified(DEFAULT_CA, DEFAULT_CR))
    for store in (cache, ArtifactCache(tmp_path)):  # memory, then disk
        before = store.stats_snapshot()
        run = WorkloadRun(workload, cache=store)
        findings = run.lint(DEFAULT_CA, DEFAULT_CR)
        delta = store.stats_snapshot().diff(before)
        for kind in ("qualified", "lint"):
            assert delta.hits.get(kind, 0) == fn_count, kind
            assert delta.misses.get(kind, 0) == 0, kind
        qualified = run.qualified(DEFAULT_CA, DEFAULT_CR)
        # Served, not recomputed: the results keep the oracle's label.
        assert _wz_labels(qualified) == {"generic"}
        assert findings == fresh.lint(DEFAULT_CA, DEFAULT_CR)
        assert _solutions(qualified) == _solutions(
            fresh.qualified(DEFAULT_CA, DEFAULT_CR)
        )


# -- bounded memory layer --------------------------------------------------


def test_memory_layer_is_bounded_lru():
    """The in-process layer holds at most ``memory_entries`` artifacts, so
    long sweeps no longer keep every artifact they ever touched live."""
    cache = ArtifactCache(None, memory_entries=4)
    for i in range(10):
        cache.memo("module", content_key("lru", i), lambda i=i: i)
    assert len(cache._memory) == 4
    assert cache.stats.evictions.get("module", 0) == 6
    # The most recently used entries survive...
    hits_before = cache.stats.hits.get("module", 0)
    assert cache.memo("module", content_key("lru", 9), lambda: "X") == 9
    assert cache.stats.hits.get("module", 0) == hits_before + 1
    # ...and an evicted entry recomputes (no disk layer to fall back on).
    assert cache.memo("module", content_key("lru", 0), lambda: "recomputed") == "recomputed"


def test_lru_eviction_falls_back_to_disk(tmp_path):
    cache = ArtifactCache(tmp_path, memory_entries=2)
    keys = [content_key("lru-disk", i) for i in range(5)]
    for i, key in enumerate(keys):
        cache.memo("module", key, lambda i=i: [i])
    assert len(cache._memory) == 2
    # Evicted from memory, but the disk artifact still serves a hit — the
    # value round-trips, it is just no longer pinned in RAM.
    assert cache.memo("module", keys[0], lambda: "MISS") == [0]
    assert cache.stats.hits.get("module", 0) == 1


def test_lru_touch_refreshes_recency():
    cache = ArtifactCache(None, memory_entries=2)
    a, b, c = (content_key("touch", x) for x in "abc")
    cache.memo("module", a, lambda: "A")
    cache.memo("module", b, lambda: "B")
    cache.memo("module", a, lambda: "?")  # touch a: b is now the LRU entry
    cache.memo("module", c, lambda: "C")  # evicts b, not a
    assert cache.memo("module", a, lambda: "RECOMPUTED") == "A"
    assert cache.memo("module", b, lambda: "RECOMPUTED") == "RECOMPUTED"


def test_memory_entries_must_be_positive():
    with pytest.raises(ValueError):
        ArtifactCache(None, memory_entries=0)
    # None disables the bound entirely.
    unbounded = ArtifactCache(None, memory_entries=None)
    for i in range(600):
        unbounded.memo("module", content_key("unbounded", i), lambda i=i: i)
    assert len(unbounded._memory) == 600
    assert unbounded.stats.evictions == {}


# -- canonical key stability -----------------------------------------------


def test_content_key_is_stable_across_processes():
    """Cache keys are part of the on-disk contract: these digests are
    pinned so a canonicalization change (which would orphan every cached
    artifact) fails loudly instead of silently going cold.  A digest covers
    its schema version, so a deliberate ``SCHEMA_VERSION`` bump pins the
    new digest beside the old ones, which must not move."""
    parts = (
        "pin",
        float("nan"),
        float("inf"),
        float("-inf"),
        b"\x00\xff",
        {"b": 2, "a": [1, True, None, 0.5]},
    )
    assert (
        content_key(*parts, schema=3)
        == "9c22d0d96aec925c27b9f944da7a3eb2d9629b7faacf04091a3fb4ecccb3e28f"
    )
    assert (
        content_key(*parts)
        == "3f40276442ceb8c02dcf1cc6baa4b47ed1e4ec9260724a5b71f9f7cbaa464f74"
    )


def test_content_key_distinguishes_lookalike_values():
    # Non-finite floats are tagged, not collapsed to null.
    assert content_key("k", float("nan")) != content_key("k", None)
    assert content_key("k", float("inf")) != content_key("k", float("-inf"))
    assert content_key("k", float("nan")) == content_key("k", float("nan"))
    # Bytes are tagged by content, and differ from their hex spelling.
    assert content_key("k", b"\x01") == content_key("k", b"\x01")
    assert content_key("k", b"\x01") != content_key("k", "01")
    # bool is not collapsed into int.
    assert content_key("k", True) != content_key("k", 1)
    # Subclasses of the built-in containers encode like the containers.
    pair = collections.namedtuple("pair", "x y")
    assert content_key("k", pair(1, 2)) == content_key("k", [1, 2])
    assert content_key("k", collections.OrderedDict(b=1, a=2)) == content_key(
        "k", {"a": 2, "b": 1}
    )


# -- data digests -------------------------------------------------------------


def test_data_digest_hashes_values_not_containers():
    args, inputs = (3, 4), {"a": [1, 2, 3], "b": [5]}
    digest = data_digest(args, inputs)
    assert data_digest(list(args), {k: tuple(v) for k, v in inputs.items()}) == digest
    changed = [
        ((3, 4), {"a": [1, 2, 9], "b": [5]}),  # one element
        ((3, 4), {"c": [1, 2, 3], "b": [5]}),  # an array renamed
        ((3,), {"a": [4, 1, 2, 3], "b": [5]}),  # a value moved out of the args
        ((3, 4), {"a": [1], "a2": [2, 3], "b": [5]}),  # an array split in two
        ((3, 4), {"a": [1, 2, 3, 5]}),  # two arrays joined
    ]
    digests = {data_digest(a, i) for a, i in changed}
    assert len(digests) == len(changed) and digest not in digests


def test_data_digest_takes_any_integer():
    """Request bodies may hold integers past int64; they digest through a
    tagged decimal fallback instead of raising ``OverflowError``."""
    big = data_digest((), {"a": [2**70]})
    assert big != data_digest((), {"a": [2**70 + 1]})
    assert big != data_digest((2**70,), {"a": []})
    assert data_digest((), {"a": [-(2**63)]}) != data_digest((), {"a": [-(2**63) - 1]})


def test_workload_digests_are_computed_once():
    workload = get_workload(WORKLOAD)
    assert workload.train_digest == data_digest(
        workload.train_args, workload.train_inputs
    )
    assert workload.ref_digest == data_digest(workload.ref_args, workload.ref_inputs)
    assert workload.train_digest != workload.ref_digest
    assert {"train_digest", "ref_digest"} <= set(vars(workload))
