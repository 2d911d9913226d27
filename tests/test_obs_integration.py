"""Integration tests: the observability subsystem against the real pipeline.

Three contracts:

* a full disk-cached :class:`WorkloadRun` emits the expected stage-span tree
  (harness stages, nested qualification phases, cache lookups);
* the cache surfaces cold / warm / corrupt behavior through counters;
* metrics merged from parallel worker processes equal the serial totals —
  the fan-out/merge machinery loses and double-counts nothing.
"""

from __future__ import annotations

import collections
import concurrent.futures

from repro.evaluation.harness import WorkloadRun
from repro.obs import (
    MetricsRegistry,
    Tracer,
    capture,
    get_metrics,
    get_tracer,
    set_metrics,
    set_tracer,
)
from repro.pipeline import ArtifactCache, ParallelDriver
from repro.workloads import get_workload

CA, CR = 0.97, 0.95

#: Expected harness stage spans for a classified workload run.
STAGE_SPANS = {
    "workload.compile",
    "workload.train_run",
    "workload.ref_run",
    "workload.qualify",
    "workload.classify",
}

#: Expected qualification-phase spans nested under ``workload.qualify``.
QUALIFY_PHASES = {
    "qualified.baseline",
    "qualified.automaton",
    "qualified.tracing",
    "qualified.profile_translation",
    "qualified.hpg_analysis",
    "qualified.reduction",
    "qualified.reduced_analysis",
}


def _counter(snapshot, name, **labels):
    key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
    return snapshot["counters"].get(key, 0)


class TestStageSpanTree:
    def test_cached_run_emits_expected_tree(self, tmp_path):
        with capture() as (tracer, registry):
            run = WorkloadRun(
                get_workload("compress95"), cache=ArtifactCache(tmp_path)
            )
            run.aggregate_classification(CA, CR)

        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}
        names = {s.name for s in spans}
        assert STAGE_SPANS <= names
        assert QUALIFY_PHASES <= names

        # Qualification phases nest under the qualify stage (through the
        # cache.memo lookup span that computed the artifact).
        qualify = next(s for s in spans if s.name == "workload.qualify")

        def ancestors(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                yield span

        for span in spans:
            if span.name in QUALIFY_PHASES:
                assert qualify in ancestors(span), span.name

        # Cache lookups nest under the stage that asked for the artifact.
        memo_parents = {
            s.attrs["kind"]: by_id[s.parent_id].name
            for s in spans
            if s.name == "cache.memo"
        }
        assert memo_parents["module"] == "workload.compile"
        assert memo_parents["train-run"] == "workload.train_run"
        assert memo_parents["ref-run"] == "workload.ref_run"
        assert memo_parents["qualified"] == "workload.qualify"

        # timings stays a per-stage view derived from the same spans.
        assert set(run.timings) == {"compile", "train_run", "ref_run"}
        assert all(v > 0 for v in run.timings.values())

        # The run also recorded solver and interpreter activity.
        snap = registry.snapshot()
        assert _counter(snap, "interp_runs", engine="compiled") == 2
        assert _counter(snap, "wz_analyses") > 0

    def test_parallel_sweep_merges_worker_spans(self, tmp_path):
        with capture() as (tracer, _):
            ParallelDriver(jobs=2, cache_dir=tmp_path).sweep(
                ("compress95",), (0.0, CA)
            )
        spans = tracer.spans()
        sweep = next(s for s in spans if s.name == "driver.sweep")
        # One job per CA level of the workload, each a worker's root span,
        # re-parented under the submitting sweep span.
        jobs = [s for s in spans if s.name == "driver.workload"]
        assert len(jobs) == 2
        assert all(j.parent_id == sweep.span_id for j in jobs)
        # Worker-side stage spans came along too.
        assert {s.name for s in spans} >= {"workload.compile", "cache.memo"}


class TestCacheCounters:
    def test_cold_warm_and_corrupt(self, tmp_path):
        workload = get_workload("compress95")

        with capture() as (_, registry):
            WorkloadRun(workload, cache=ArtifactCache(tmp_path))
        cold = registry.snapshot()
        for kind in ("module", "train-run", "ref-run"):
            assert _counter(cold, "cache_misses", kind=kind) == 1
            assert _counter(cold, "cache_stores", kind=kind) == 1
            assert _counter(cold, "cache_store_bytes", kind=kind) > 0

        with capture() as (_, registry):
            WorkloadRun(workload, cache=ArtifactCache(tmp_path))
        warm = registry.snapshot()
        for kind in ("module", "train-run", "ref-run"):
            assert _counter(warm, "cache_hits", kind=kind, level="disk") == 1
            assert _counter(warm, "cache_misses", kind=kind) == 0

        for pkl in (tmp_path / "module").glob("*.pkl"):
            pkl.write_bytes(b"not a pickle")
        with capture() as (tracer, registry):
            WorkloadRun(workload, cache=ArtifactCache(tmp_path))
        snap = registry.snapshot()
        assert _counter(snap, "cache_corrupt", kind="module") == 1
        assert _counter(snap, "cache_misses", kind="module") == 1
        assert any(s.name == "cache.corrupt" for s in tracer.spans())


# -- parallel-vs-serial metric equality --------------------------------------
#
# Module level so the worker pickles into pool processes.

FAST_WORKLOADS = ("compress95", "li95")


def _exercise(name: str) -> None:
    run = WorkloadRun(get_workload(name))
    run.aggregate_classification(CA, CR)
    run.table2(CA, CR)


def _obs_worker(name: str):
    set_tracer(Tracer())
    set_metrics(MetricsRegistry())
    _exercise(name)
    return get_tracer().drain_records(), get_metrics().snapshot()


class TestParallelMergeEqualsSerial:
    def test_merged_worker_metrics_equal_serial_totals(self):
        with capture() as (serial_tracer, serial_registry):
            for name in FAST_WORKLOADS:
                _exercise(name)
        serial = serial_registry.snapshot()

        merged_tracer = Tracer()
        merged_registry = MetricsRegistry()
        # Disjoint workloads per worker: every unit of work happens exactly
        # once on each side, so the merged totals must match exactly.
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            for records, snapshot in pool.map(_obs_worker, FAST_WORKLOADS):
                merged_tracer.absorb_records(records)
                merged_registry.merge_snapshot(snapshot)
        parallel = merged_registry.snapshot()

        # Counters and histograms are deterministic functions of the work
        # performed; gauges are excluded (last-writer-wins is order-defined).
        assert parallel["counters"] == serial["counters"]
        assert parallel["histograms"] == serial["histograms"]

        serial_names = collections.Counter(
            s.name for s in serial_tracer.spans()
        )
        parallel_names = collections.Counter(
            s.name for s in merged_tracer.spans()
        )
        assert parallel_names == serial_names
