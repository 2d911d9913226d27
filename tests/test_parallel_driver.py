"""Parallel-vs-serial equivalence for the sweep driver.

``ParallelDriver`` must be a pure speed knob: running the coverage sweep with
a process pool (``jobs=4``) yields byte-identical figure and table artifacts
to the deterministic serial path (``jobs=1``).  The full-workload check is
marked ``slow``; a two-workload variant keeps the property in the fast tier.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.evaluation.harness import CA_SWEEP
from repro.pipeline import (
    COMPILE_PROFILE_KINDS,
    KIND_QUALIFIED,
    ArtifactCache,
    ParallelDriver,
)
from repro.workloads import WORKLOAD_NAMES

FAST_WORKLOADS = ("compress95", "li95")
FAST_CAS = (0.0, 0.97)


def _artifacts(jobs, workloads, cas, cache_dir=None):
    driver = ParallelDriver(jobs=jobs, cache_dir=cache_dir)
    return driver.sweep(workloads, cas).artifacts()


def test_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        ParallelDriver(jobs=0)


def test_sweep_emits_all_artifacts():
    artifacts = _artifacts(1, FAST_WORKLOADS, FAST_CAS)
    assert set(artifacts) == {"fig9", "fig11", "table1", "table2"}
    for name, text in artifacts.items():
        assert text.strip(), name
        for workload in FAST_WORKLOADS:
            assert workload in text, (name, workload)


def test_parallel_matches_serial_on_fast_subset(tmp_path):
    serial = _artifacts(1, FAST_WORKLOADS, FAST_CAS, tmp_path / "s")
    parallel = _artifacts(2, FAST_WORKLOADS, FAST_CAS, tmp_path / "p")
    assert parallel == serial


def test_parallel_reuses_a_shared_cache(tmp_path):
    cache_dir = tmp_path / "shared"
    first = _artifacts(2, FAST_WORKLOADS, FAST_CAS, cache_dir)
    # The second sweep over the same cache must be compute-free for the
    # compile/profile stages and still produce the same bytes.
    driver = ParallelDriver(jobs=2, cache_dir=cache_dir)
    result = driver.sweep(FAST_WORKLOADS, FAST_CAS)
    assert result.artifacts() == first
    assert result.cache_stats.misses.get("module", 0) == 0
    assert result.cache_stats.misses.get("train-run", 0) == 0
    assert result.cache_stats.misses.get("ref-run", 0) == 0


def test_uncached_parallel_matches_cached_serial(tmp_path):
    assert _artifacts(2, FAST_WORKLOADS, FAST_CAS) == _artifacts(
        1, FAST_WORKLOADS, FAST_CAS, tmp_path
    )


def test_dealt_jobs_build_each_run_once_per_job():
    """A job builds one run for its CA levels: no qualified artifact is
    computed twice, and each workload is compiled and profiled once per
    job it was dealt over."""
    serial = ParallelDriver(jobs=1).sweep(FAST_WORKLOADS, CA_SWEEP)
    qualified = serial.cache_stats.misses[KIND_QUALIFIED]
    for _ in range(2):
        stats = ParallelDriver(jobs=2).sweep(FAST_WORKLOADS, CA_SWEEP).cache_stats
        assert stats.misses[KIND_QUALIFIED] == qualified
        for kind in COMPILE_PROFILE_KINDS:
            assert stats.misses[kind] == len(FAST_WORKLOADS) * 2, kind


def test_parallel_trace_is_one_tree(tmp_path, capsys):
    """Worker spans reach ``--trace-out`` through the parent, once each,
    with every worker root re-parented under the sweep."""
    out = tmp_path / "trace.jsonl"
    argv = ["bench", "--workloads", *FAST_WORKLOADS, "--ca", "0", "0.97"]
    assert main(argv + ["--jobs", "2", "--trace-out", str(out)]) == 0
    capsys.readouterr()
    spans = [
        record
        for record in map(json.loads, out.read_text().splitlines())
        if record["type"] == "span"
    ]
    ids = [s["span_id"] for s in spans]
    assert len(ids) == len(set(ids))
    assert [s["name"] for s in spans if s["parent_id"] is None] == ["driver.sweep"]
    assert {s["parent_id"] for s in spans} - {None} <= set(ids)
    assert sum(s["name"] == "driver.workload" for s in spans) == 4


@pytest.mark.slow
def test_full_sweep_parallel_matches_serial(tmp_path):
    """The acceptance check: jobs=4 vs jobs=1 over every seed workload."""
    cas = (0.0, 0.97, 1.0)
    serial = _artifacts(1, WORKLOAD_NAMES, cas, tmp_path / "serial")
    parallel = _artifacts(4, WORKLOAD_NAMES, cas, tmp_path / "parallel")
    assert parallel == serial
