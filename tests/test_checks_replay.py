"""Checker verdict replay: a hook handed the very objects an earlier hook
call checked appends that call's records again instead of running its
passes.

The contract: a replayed request reports exactly what a fresh, cache-less
execution reports (errors included), no pass runs for it, and every object
that did not come from the cache's memory layer — a fresh compute, a disk
load, an artifact reloaded after eviction — is checked as before.  Replay is
only sound because cached artifacts are never mutated; the last test guards
that across every request kind that shares a cache.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.checks.profile_checks import PROF_FLOW_IMBALANCE
from repro.checks.runner import check_workload_run
from repro.evaluation import DEFAULT_CA, DEFAULT_CR
from repro.frontend.lower import compile_program
from repro.ir.cfg import Cfg
from repro.obs import capture
from repro.pipeline import ArtifactCache, KIND_TRAIN_RUN, make_run
from repro.service import (
    AnalysisRequest,
    AnalysisService,
    comparable_payload,
    execute_request,
)
from repro.service.api import (
    DiffRequest,
    LintRequest,
    SweepRequest,
    execute_diff,
    execute_lint,
    execute_sweep,
)
from repro.workloads import GeneratorSpec, spec_name, training_run_inputs
from repro.workloads.matrix import resolve_target

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "running_example.mc"

#: One hook call of each kind per checked analyze.
STAGES = {"compile": 1, "train": 1, "ref": 1, "qualify": 1}


def _inline_example() -> dict:
    activations, arrays = training_run_inputs()
    return {
        "source": EXAMPLE.read_text(),
        "name": "running-example",
        "args": [activations],
        "inputs": arrays,
    }


TARGETS = {
    "sieve": {"target": "sieve"},
    "compress95": {"target": "compress95"},
    "inline": _inline_example(),
    "gen": {
        "target": spec_name(
            GeneratorSpec(seed=11, funcs=2, blocks_per_func=16, loop_depth=1)
        )
    },
}


def _by_label(snapshot: dict, name: str, label: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for (metric, labels), value in snapshot["counters"].items():
        if metric == name:
            key = dict(labels)[label]
            out[key] = out.get(key, 0) + value
    return out


def _delta(after: dict, before: dict) -> dict:
    return {
        k: after.get(k, 0) - before.get(k, 0)
        for k in set(after) | set(before)
        if after.get(k, 0) != before.get(k, 0)
    }


@pytest.fixture(scope="module")
def service():
    service = AnalysisService(jobs=1)
    yield service
    service.shutdown()


def _submit(service, request) -> dict:
    job, _ = service.submit(request)
    service.wait(job, timeout=300)
    assert job.state == "done", job.error
    return job.result


@pytest.mark.parametrize("name", list(TARGETS))
def test_second_checked_analyze_replays_exactly(service, name):
    request = AnalysisRequest.from_dict(dict(TARGETS[name], check=True))
    first = _submit(service, request)
    before = service.registry.snapshot()
    second = _submit(service, request)
    after = service.registry.snapshot()

    direct = comparable_payload(execute_request(request))
    assert comparable_payload(first) == direct
    assert comparable_payload(second) == direct
    assert _delta(
        _by_label(after, "check_pass_runs", "check"),
        _by_label(before, "check_pass_runs", "check"),
    ) == {}
    assert _delta(
        _by_label(after, "check_replays", "stage"),
        _by_label(before, "check_replays", "stage"),
    ) == STAGES


# -- what is still checked ---------------------------------------------------


def _break_kirchhoff(result, routine: str) -> None:
    """Inflate a non-cyclic path that starts mid-routine, as the checker
    self-check's negative control does: flow is no longer conserved."""
    profile = result.profiles[routine]
    cfg = Cfg.from_function(_example_function(routine))
    entry_succs = set(cfg.succs(cfg.entry))
    extra = next(
        p for p in profile.paths() if p.start not in entry_succs and p.end != p.start
    )
    profile.add(extra, 7)


def _example_function(routine: str):
    return compile_program(EXAMPLE.read_text()).function(routine)


def test_disk_loads_are_checked_and_failures_replay(tmp_path):
    request = AnalysisRequest.from_dict(dict(TARGETS["inline"], check=True))
    clean = execute_request(request, ArtifactCache(tmp_path))
    assert not clean["diagnostics"]["has_errors"]

    (path,) = (tmp_path / KIND_TRAIN_RUN).glob("*.pkl")
    result = pickle.loads(path.read_bytes())
    _break_kirchhoff(result, "work")
    path.write_bytes(pickle.dumps(result))

    cache = ArtifactCache(tmp_path)
    with capture() as (_, registry):
        loaded = execute_request(request, cache)
        middle = registry.snapshot()
        replayed = execute_request(request, cache)
        after = registry.snapshot()

    codes = {d["code"] for d in loaded["diagnostics"]["records"]}
    assert PROF_FLOW_IMBALANCE in codes
    assert loaded["diagnostics"]["has_errors"]
    assert _by_label(middle, "check_replays", "stage") == {}

    assert replayed["diagnostics"] == loaded["diagnostics"]
    assert replayed["diagnostics"]["has_errors"]
    assert _delta(
        _by_label(after, "check_replays", "stage"),
        _by_label(middle, "check_replays", "stage"),
    ) == STAGES
    assert _delta(
        _by_label(after, "check_pass_runs", "check"),
        _by_label(middle, "check_pass_runs", "check"),
    ) == {}


def test_artifacts_reloaded_after_eviction_are_rechecked(tmp_path):
    request = AnalysisRequest(target="sieve", check=True)
    every_pass = {
        "ir": 1, "lint": 1, "profile": 2, "automaton": 1, "hpg": 1, "dataflow": 1,
    }
    for memory_entries, replays in ((1, {}), (None, STAGES)):
        cache = ArtifactCache(tmp_path, memory_entries=memory_entries)
        with capture() as (_, registry):
            first = execute_request(request, cache)
            middle = registry.snapshot()
            second = execute_request(request, cache)
            after = registry.snapshot()
        assert second["diagnostics"] == first["diagnostics"]
        # A one-entry memory layer evicts the module, both profiling runs
        # and all but one qualified bundle: each comes back from disk as a
        # new object and is checked again.  A roomy one keeps them.
        assert _by_label(middle, "check_pass_runs", "check") == every_pass
        assert _delta(
            _by_label(after, "check_pass_runs", "check"),
            _by_label(middle, "check_pass_runs", "check"),
        ) == (every_pass if memory_entries == 1 else {})
        assert _by_label(after, "check_replays", "stage") == replays


# -- immutability ----------------------------------------------------------------


def test_other_requests_leave_checked_artifacts_unchanged(tmp_path):
    """Replay trusts that nothing mutates a cached artifact.  After every
    other request kind has run over the same cache, a direct check of each
    object a checked run holds equals the verdict its hooks replay."""
    target = "compress95"
    cache = ArtifactCache(tmp_path)
    first = make_run(resolve_target(target), cache, check=True)
    first.qualified(DEFAULT_CA, DEFAULT_CR)
    printed = str(first.module)

    first.table2(DEFAULT_CA, DEFAULT_CR)
    execute_lint(LintRequest(target=target), cache)
    execute_diff(DiffRequest(target=target, seed_edit=True), cache)
    execute_sweep(
        SweepRequest(workloads=(target,), ca_values=(0.0, DEFAULT_CA)),
        str(tmp_path),
    )

    with capture() as (_, registry):
        again = make_run(resolve_target(target), cache, check=True)
        again.qualified(DEFAULT_CA, DEFAULT_CR)
    assert _by_label(registry.snapshot(), "check_replays", "stage") == STAGES
    assert again.module is first.module
    assert str(again.module) == printed

    with capture() as (_, registry):
        direct = check_workload_run(again, DEFAULT_CA, DEFAULT_CR)
    snapshot = registry.snapshot()
    # The direct entry points ran every pass; none replays.
    assert _by_label(snapshot, "check_pass_runs", "check") == {
        "ir": 1, "lint": 1, "profile": 2, "automaton": 1, "hpg": 1, "dataflow": 1,
    }
    assert _by_label(snapshot, "check_replays", "stage") == {}
    assert again.checker.diagnostics.to_dicts() == direct.to_dicts()
    assert first.checker.diagnostics.to_dicts() == direct.to_dicts()


# -- the verdict table ---------------------------------------------------------


class _Artifact:
    """A stand-in for a cached artifact: any weakly referenceable object."""


def test_table_keeps_no_artifact_alive():
    import gc
    import weakref

    from repro.checks.runner import _Verdicts

    table = _Verdicts()
    artifact = _Artifact()
    table.record(("compile",), (artifact,), ("verdict",))
    assert table.lookup(("compile",), (artifact,)) == ("verdict",)
    ref = weakref.ref(artifact)
    del artifact
    gc.collect()
    assert ref() is None


def test_a_reused_id_never_matches(monkeypatch):
    """CPython reuses the id of a dead object; the table must tell the
    newcomer from the object whose verdict it holds."""
    from repro.checks import runner

    table = runner._Verdicts()
    monkeypatch.setattr(runner, "id", lambda obj: 42, raising=False)
    checked, newcomer = _Artifact(), _Artifact()
    table.record(("compile",), (checked,), ("verdict",))
    assert table.lookup(("compile",), (checked,)) == ("verdict",)
    assert table.lookup(("compile",), (newcomer,)) is None


def test_table_under_concurrent_record_lookup_and_sweep():
    """Threads record and look up verdicts of short-lived objects, so the
    table sweeps dead entries while others write; every live object must
    keep exactly its own verdict."""
    import sys
    import threading

    from repro.checks.runner import _Verdicts

    table = _Verdicts()
    kept: list = []
    wrong: list = []

    def worker(k: int) -> None:
        for i in range(400):
            artifact, records = _Artifact(), (f"{k}-{i}",)
            table.record(("run",), (artifact, artifact), records)
            if table.lookup(("run",), (artifact, artifact)) != records:
                wrong.append(records)
            if i % 20 == 0:
                kept.append((artifact, records))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert len(kept) == 6 * 20
    for artifact, records in kept:
        assert table.lookup(("run",), (artifact, artifact)) == records
