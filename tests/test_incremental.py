"""Function-granular incremental re-analysis: invalidation matrix,
differential reports, daemon parity, incremental sweeps.

The contract under test is the acceptance criterion of the incremental
PR: after an edit to one function, re-analysis serves every *other*
function's qualified pipeline and lint artifacts warm — asserted
directly against :class:`~repro.pipeline.cache.CacheStats` — and the
differential report (new / fixed / unchanged findings, per-function
hit/recompute ledger) is deterministic outside ``timings``, so the
daemon's ``/v1/diff`` is bit-identical to a direct ``execute_diff``.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

from repro.evaluation import DEFAULT_CA, DEFAULT_CR
from repro.evaluation.harness import Workload
from repro.frontend import (
    changed_functions,
    compile_program,
    function_fingerprints,
    module_fingerprint,
)
from repro.pipeline import (
    DIFF_SCHEMA,
    KIND_LINT,
    KIND_MODULE,
    KIND_QUALIFIED,
    KIND_REF_RUN,
    KIND_SWEEP_CELL,
    KIND_SWEEP_SUMMARY,
    KIND_TRAIN_RUN,
    ArtifactCache,
    IncrementalSession,
    ParallelDriver,
    diff_workloads,
    edited_workload,
    make_run,
    render_diff_text,
    seeded_edit,
)
from repro.service import (
    AnalysisService,
    DiffRequest,
    ServiceClient,
    comparable_payload,
    execute_diff,
    make_server,
)
from repro.workloads import get_workload

WORKLOAD = "compress95"
FUNCTIONS = ("hash_probe", "compress", "main")
MIN_MASS = 0.5


def _analyze(workload: Workload, cache: ArtifactCache):
    """Drive the full per-function pipeline of one version."""
    run = make_run(workload, cache)
    run.qualified(DEFAULT_CA, DEFAULT_CR)
    run.lint(DEFAULT_CA, DEFAULT_CR, MIN_MASS)
    return run


def _delta(cache: ArtifactCache, fn):
    """(result, cache-stats delta) of running ``fn``."""
    before = cache.stats_snapshot()
    out = fn()
    return out, cache.stats_snapshot().diff(before)


# -- fingerprints ----------------------------------------------------------


def test_function_fingerprints_are_whitespace_insensitive():
    src = get_workload(WORKLOAD).source
    m1 = compile_program(src)
    m2 = compile_program(src.replace("\n", " \n"))
    assert function_fingerprints(m1) == function_fingerprints(m2)
    assert module_fingerprint(m1) == module_fingerprint(m2)


def test_changed_functions_localizes_a_seeded_edit():
    src = get_workload(WORKLOAD).source
    old = compile_program(src)
    new = compile_program(seeded_edit(src, "compress"))
    changed, added, removed, unchanged = changed_functions(old, new)
    assert changed == ("compress",)
    assert added == () and removed == ()
    assert set(unchanged) == {"hash_probe", "main"}


def test_seeded_edit_requires_a_matching_function():
    with pytest.raises(ValueError):
        seeded_edit("func f(n) { return n; }", "missing")


# -- invalidation matrix ---------------------------------------------------
#
# Each case runs the base version cold into a fresh in-memory cache, then
# a variant, and asserts *exactly* which cache kinds hit vs. recompute.


def test_matrix_edit_one_function_recomputes_only_that_function():
    cache = ArtifactCache(None)
    base = get_workload(WORKLOAD)
    _analyze(base, cache)
    _, d = _delta(cache, lambda: _analyze(edited_workload(base), cache))
    n = len(FUNCTIONS)
    # New source text -> recompile; new IR -> re-profile (the runs execute
    # the edited module)...
    assert d.misses.get(KIND_MODULE, 0) == 1
    assert d.misses.get(KIND_TRAIN_RUN, 0) == 1
    assert d.misses.get(KIND_REF_RUN, 0) == 1
    # ...but the edit is function-local and flow-preserving: exactly one
    # function's qualified pipeline and lint recompute, the rest are warm.
    assert d.misses.get(KIND_QUALIFIED, 0) == 1
    assert d.hits.get(KIND_QUALIFIED, 0) == n - 1
    assert d.misses.get(KIND_LINT, 0) == 1
    assert d.hits.get(KIND_LINT, 0) == n - 1


def test_matrix_edit_inputs_only_reprofiles_without_recompiling():
    cache = ArtifactCache(None)
    base = get_workload(WORKLOAD)
    run1 = _analyze(base, cache)
    inputs = dict(base.train_inputs)
    inputs["input"] = tuple((3 * i) % 251 for i in range(len(inputs["input"])))
    run2, d = _delta(
        cache,
        lambda: _analyze(dataclasses.replace(base, train_inputs=inputs), cache),
    )
    # Same program: the module is served warm...
    assert d.misses.get(KIND_MODULE, 0) == 0
    assert d.hits.get(KIND_MODULE, 0) == 1
    # ...new training data re-profiles train but not ref...
    assert d.misses.get(KIND_TRAIN_RUN, 0) == 1
    assert d.misses.get(KIND_REF_RUN, 0) == 0
    assert d.hits.get(KIND_REF_RUN, 0) == 1
    # ...and qualified/lint recompute exactly for the functions whose
    # training profile actually changed.
    moved = sum(
        run1.profile_fingerprint(name) != run2.profile_fingerprint(name)
        for name in FUNCTIONS
    )
    # The new byte stream changes hash_probe's and compress's path mix but
    # not main's — main stays warm even though the training data moved.
    assert moved == 2
    assert run1.profile_fingerprint("main") == run2.profile_fingerprint("main")
    assert d.misses.get(KIND_QUALIFIED, 0) == moved
    assert d.hits.get(KIND_QUALIFIED, 0) == len(FUNCTIONS) - moved
    assert d.misses.get(KIND_LINT, 0) == moved
    assert d.hits.get(KIND_LINT, 0) == len(FUNCTIONS) - moved


def test_matrix_edit_ca_only_requalifies_without_reprofiling():
    cache = ArtifactCache(None)
    base = get_workload(WORKLOAD)
    _analyze(base, cache)

    def requalify():
        run = make_run(base, cache)
        run.qualified(0.875, DEFAULT_CR)
        run.lint(0.875, DEFAULT_CR, MIN_MASS)
        return run

    _, d = _delta(cache, requalify)
    n = len(FUNCTIONS)
    # Same source, same data: compile and both profiling runs are warm.
    assert d.misses.get(KIND_MODULE, 0) == 0
    assert d.misses.get(KIND_TRAIN_RUN, 0) == 0
    assert d.misses.get(KIND_REF_RUN, 0) == 0
    # A new coverage level re-keys every function's qualified pipeline.
    assert d.misses.get(KIND_QUALIFIED, 0) == n
    assert d.misses.get(KIND_LINT, 0) == n


TINY_SOURCE = """
func helper(n) {
  var x = n + 1;
  return x;
}

func main(n) {
  var i = 0;
  var acc = 0;
  while (i < n) {
    if (i < 3) {
      acc = acc + i;
    } else {
      acc = acc + 1;
    }
    i = i + 1;
  }
  return acc;
}
"""


def _tiny(source: str) -> Workload:
    return Workload(
        name="tiny",
        source=source,
        train_args=(8,),
        train_inputs={},
        ref_args=(12,),
        ref_inputs={},
        description="two-function rename/whitespace fixture",
    )


def test_matrix_rename_function_recomputes_only_the_renamed_one():
    cache = ArtifactCache(None)
    _analyze(_tiny(TINY_SOURCE), cache)
    renamed = TINY_SOURCE.replace("helper", "helper2")
    run2, d = _delta(cache, lambda: _analyze(_tiny(renamed), cache))
    changed, added, removed, unchanged = changed_functions(
        compile_program(TINY_SOURCE), run2.module
    )
    assert added == ("helper2",) and removed == ("helper",)
    assert changed == () and unchanged == ("main",)
    # Renames are identity changes: the renamed function recomputes (its
    # fingerprint covers its name), the untouched one stays warm.
    assert d.misses.get(KIND_QUALIFIED, 0) == 1
    assert d.hits.get(KIND_QUALIFIED, 0) == 1
    assert d.misses.get(KIND_LINT, 0) == 1
    assert d.hits.get(KIND_LINT, 0) == 1


def test_matrix_whitespace_edit_recompiles_but_reuses_everything_else():
    cache = ArtifactCache(None)
    base = _tiny(TINY_SOURCE)
    _analyze(base, cache)
    _, d = _delta(
        cache, lambda: _analyze(_tiny(TINY_SOURCE.replace("\n", " \n")), cache)
    )
    n = 2
    # The module keys on raw source text, so a whitespace edit recompiles
    # (cheap)...
    assert d.misses.get(KIND_MODULE, 0) == 1
    # ...but the lowered IR is identical, so nothing downstream moves:
    # no re-profile, no re-qualify, no re-lint.
    assert d.misses.get(KIND_TRAIN_RUN, 0) == 0
    assert d.hits.get(KIND_TRAIN_RUN, 0) == 1
    assert d.misses.get(KIND_REF_RUN, 0) == 0
    assert d.hits.get(KIND_REF_RUN, 0) == 1
    assert d.misses.get(KIND_QUALIFIED, 0) == 0
    assert d.hits.get(KIND_QUALIFIED, 0) == n
    assert d.misses.get(KIND_LINT, 0) == 0
    assert d.hits.get(KIND_LINT, 0) == n


# -- the incremental session and its report --------------------------------


def test_session_recomputes_only_the_edited_function():
    cache = ArtifactCache(None)
    base = get_workload(WORKLOAD)
    session = IncrementalSession(base, edited_workload(base), cache)
    report = session.report()
    n = len(FUNCTIONS)
    # Acceptance criterion: old runs cold (n misses), the new version
    # misses only the edited function and hits the other n - 1.
    stats = cache.stats
    assert stats.misses.get(KIND_QUALIFIED, 0) == n + 1
    assert stats.hits.get(KIND_QUALIFIED, 0) == n - 1
    assert stats.misses.get(KIND_LINT, 0) == n + 1
    assert stats.hits.get(KIND_LINT, 0) == n - 1
    # The observed traffic is reported (non-deterministically) under
    # timings; the deterministic ledger must agree with it.
    assert report["timings"]["cache"]["misses"][KIND_QUALIFIED] == n + 1


def test_diff_report_for_a_seeded_edit():
    base = get_workload(WORKLOAD)
    report = diff_workloads(base, edited_workload(base), ArtifactCache(None))
    assert report["schema"] == DIFF_SCHEMA
    assert report["workload"] == WORKLOAD
    # The seeded edit touches the first function only.
    assert report["functions"]["changed"] == ["hash_probe"]
    assert report["functions"]["added"] == []
    assert report["functions"]["removed"] == []
    ledger = report["ledger"]
    assert ledger["stages"]["module"] == "recompute"
    assert ledger["stages"]["train"] == "recompute"
    assert ledger["functions"]["hash_probe"] == {
        "qualified": "recompute",
        "lint": "recompute",
    }
    for name in ("compress", "main"):
        assert ledger["functions"][name] == {"qualified": "hit", "lint": "hit"}
    # The injected declaration is a dead store: it surfaces as a *new*
    # finding, nothing is fixed, prior findings are unchanged.
    new_codes = [d["code"] for d in report["findings"]["new"]]
    assert "LINT002" in new_codes
    assert report["findings"]["fixed"] == []
    # The report is JSON end to end (CLI --json, daemon result payload).
    json.dumps(report)
    text = render_diff_text(report)
    assert "1 changed" in text and "hash_probe" in text


def test_diff_report_is_deterministic_across_fresh_caches():
    base = get_workload(WORKLOAD)
    new = edited_workload(base)
    r1 = diff_workloads(base, new, ArtifactCache(None))
    r2 = diff_workloads(base, new, ArtifactCache(None))
    assert comparable_payload(r1) == comparable_payload(r2)


def test_reverse_diff_reports_the_finding_as_fixed():
    base = get_workload(WORKLOAD)
    new = edited_workload(base)
    cache = ArtifactCache(None)
    forward = diff_workloads(base, new, cache)
    reverse = diff_workloads(new, base, cache)
    assert reverse["findings"]["fixed"] == forward["findings"]["new"]
    assert reverse["findings"]["new"] == forward["findings"]["fixed"]
    assert reverse["functions"]["changed"] == forward["functions"]["changed"]


def test_whitespace_diff_is_all_warm():
    base = _tiny(TINY_SOURCE)
    new = _tiny(TINY_SOURCE.replace("\n", " \n"))
    report = diff_workloads(base, new, ArtifactCache(None))
    assert report["functions"]["changed"] == []
    assert report["ledger"]["stages"] == {
        "module": "recompute",  # raw text changed
        "train": "hit",
        "ref": "hit",
    }
    assert all(
        states == {"qualified": "hit", "lint": "hit"}
        for states in report["ledger"]["functions"].values()
    )
    assert report["findings"]["new"] == []
    assert report["findings"]["fixed"] == []


# -- daemon parity ---------------------------------------------------------


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One daemon on an ephemeral port with a disk cache."""
    cache_dir = tmp_path_factory.mktemp("diff-cache")
    service = AnalysisService(jobs=2, cache_dir=str(cache_dir))
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield service, client
    server.shutdown()
    server.server_close()
    service.shutdown()
    thread.join(timeout=10)


def test_daemon_diff_is_bit_identical_to_direct(served):
    _, client = served
    client.wait_ready(timeout=10)
    request = DiffRequest(target="gen-small", seed_edit=True)
    direct = execute_diff(request)
    via_daemon = client.analyze(request)
    assert comparable_payload(via_daemon) == comparable_payload(direct)
    assert via_daemon["kind"] == "diff"
    assert via_daemon["report"]["schema"] == DIFF_SCHEMA
    # The nested report carries no wall-clock state at all: the cache-fed
    # daemon run and the cold direct run agree on every byte of it.
    assert "timings" not in via_daemon["report"]


def test_daemon_coalesces_identical_diff_submissions(served):
    _, client = served
    request = DiffRequest(target="gen-small", seed_edit=True, ca=0.875)
    first = client.submit(request)
    second = client.submit(request)
    results = [client.wait(sub["job"])["result"] for sub in (first, second)]
    assert comparable_payload(results[0]) == comparable_payload(results[1])


def test_diff_request_validation():
    with pytest.raises(ValueError):
        DiffRequest(target="gen-small")  # no new version at all
    with pytest.raises(ValueError):
        DiffRequest(
            target="gen-small", seed_edit=True, new_source="func main() {}"
        )  # both new versions
    with pytest.raises(ValueError):
        DiffRequest(source="func main(n) { return n; }")  # no new version
    round_tripped = DiffRequest.from_dict(
        DiffRequest(target="gen-small", seed_edit=True).to_dict()
    )
    assert round_tripped == DiffRequest(target="gen-small", seed_edit=True)


# -- incremental sweeps ----------------------------------------------------


def test_incremental_sweep_matches_plain_and_serves_warm(tmp_path):
    cache_dir = str(tmp_path / "sweep-cache")
    plain = ParallelDriver(jobs=1, cache_dir=cache_dir).sweep(
        [WORKLOAD], [DEFAULT_CA]
    )
    driver = ParallelDriver(jobs=1, cache_dir=cache_dir, incremental=True)
    cold = driver.sweep([WORKLOAD], [DEFAULT_CA])
    assert cold.artifacts() == plain.artifacts()
    warm = driver.sweep([WORKLOAD], [DEFAULT_CA])
    assert warm.artifacts() == plain.artifacts()
    # The second incremental sweep is served entirely from the memoized
    # sweep cells: one miss (cold) then one hit (warm) per kind, and the
    # warm sweep computes nothing at all.
    for kind in (KIND_SWEEP_CELL, KIND_SWEEP_SUMMARY):
        assert cold.cache_stats.misses.get(kind, 0) == 1
        assert warm.cache_stats.hits.get(kind, 0) == 1
    assert warm.cache_stats.total_misses == 0


def test_checked_incremental_sweep_checks_every_cell(tmp_path):
    """A checked sweep over a warm cell memo still runs the checkers: its
    findings equal a plain checked sweep's, while the module, profiling
    runs and qualified pipelines come from the disk cache."""
    workloads, cas = ["compress95"], [0.0, 0.97]
    plain = ParallelDriver(jobs=1, check=True).sweep(workloads, cas)
    assert plain.diagnostics.records

    cache_dir = str(tmp_path / "sweep-cache")
    ParallelDriver(jobs=1, cache_dir=cache_dir, incremental=True).sweep(
        workloads, cas
    )
    checked = ParallelDriver(
        jobs=1, cache_dir=cache_dir, incremental=True, check=True
    ).sweep(workloads, cas)
    assert checked.diagnostics.records == plain.diagnostics.records
    assert checked.artifacts() == plain.artifacts()
    stats = checked.cache_stats
    assert stats.total_misses == 0
    assert stats.hits.get(KIND_QUALIFIED, 0) > 0
