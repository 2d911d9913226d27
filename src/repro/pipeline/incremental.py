"""Function-granular incremental re-analysis with differential reports.

An :class:`IncrementalSession` takes two versions of one workload (old
source → new source), runs both through a shared :class:`ArtifactCache`,
and reports what the edit actually cost and actually changed:

* a **per-function ledger** — for each function in the new program,
  whether its qualified pipeline and lint artifacts were served warm
  (``"hit"``: same cache key as the old version) or recomputed
  (``"recompute"``: the edit changed the function's IR or its training
  profile);
* **finding deltas** — new / fixed / unchanged lint findings, partitioned
  through the analyzer's content-addressed baseline machinery so the
  identity notion matches ``--fail-on-new`` CI gating exactly;
* **diagnostic deltas** — the same partition over pipeline-checker
  diagnostics when ``check=True``;
* **sharpening deltas** — per-function qualified-vs-iterative non-local
  constant counts, old vs. new, for every function whose numbers moved.

Everything outside the ``timings`` key is a deterministic function of
(old workload, new workload, configuration): the ledger is computed from
cache-*key* equality, not from observed cache traffic, so the daemon's
``/v1/diff`` is bit-identical to a direct CLI ``repro diff`` regardless
of what either cache already holds (the same contract ``/v1/lint``
keeps).  Observed cache counters live under ``timings`` with the
wall-clock numbers.

The per-function granularity comes from
:class:`~repro.evaluation.harness.WorkloadRun`: qualified and lint
artifacts key on ``(function fingerprint, profile
fingerprint, CA, CR)``, so an edit to ``f`` leaves ``g``'s
automata, hot-path graphs, and qualified dataflow warm — unless the edit
changed ``g``'s *profile* (e.g. ``f`` now calls ``g`` differently), in
which case ``g`` correctly re-analyzes and the ledger says so.
"""

from __future__ import annotations

import re
import time
from typing import Mapping, Optional

from ..checks.diagnostics import Diagnostic
from ..evaluation.harness import (
    DEFAULT_CA,
    DEFAULT_CR,
    Workload,
    WorkloadRun,
    make_run,
)
from ..frontend.fingerprint import changed_functions
from ..obs import get_tracer
from .cache import ArtifactCache, CacheStats

#: Version of the differential report payload (2: the engines left
#: ``config``).
DIFF_SCHEMA = 2

HIT = "hit"
RECOMPUTE = "recompute"


def seeded_edit(source: str, function: Optional[str] = None) -> str:
    """A deterministic one-function edit: the benchmark / smoke workload.

    Injects a local variable declaration at the top of ``function``'s body
    (the first function in the program when unnamed).  The declaration
    changes that function's lowered IR — so its fingerprint, qualified
    pipeline, and lint re-key — without touching control flow, which keeps
    every routine's training profile (and therefore every *other*
    function's cache keys) unchanged.  This is the worst-case-cheapest
    edit: exactly one function should recompute.
    """
    if function is None:
        pattern = r"func\s+(\w+)\s*\([^)]*\)\s*\{"
    else:
        pattern = rf"func\s+({re.escape(function)})\s*\([^)]*\)\s*\{{"
    match = re.search(pattern, source)
    if match is None:
        target = function or "<first function>"
        raise ValueError(f"seeded_edit: no function header for {target!r}")
    at = match.end()
    return source[:at] + " var __incremental_edit = 1;" + source[at:]


def edited_workload(workload: Workload, function: Optional[str] = None) -> Workload:
    """The workload with :func:`seeded_edit` applied to its source."""
    return Workload(
        name=workload.name,
        source=seeded_edit(workload.source, function),
        train_args=workload.train_args,
        train_inputs=workload.train_inputs,
        ref_args=workload.ref_args,
        ref_inputs=workload.ref_inputs,
        description=workload.description,
    )


def _diag_identity(diag: Diagnostic) -> tuple:
    """The stable identity used to match diagnostics across versions —
    the same fields the lint baseline fingerprints hash."""
    return (diag.code, diag.function, diag.block, diag.instr, diag.message)


def _stats_dict(stats: CacheStats) -> dict:
    return {
        name: dict(sorted(getattr(stats, name).items()))
        for name in ("hits", "misses", "stores", "corrupt", "evictions")
    }


class IncrementalSession:
    """One old→new re-analysis over a shared artifact cache.

    The session runs the *old* version first (priming or reusing the
    cache), then the *new* version — whose unchanged functions are served
    warm — and assembles the differential report.  Build it, then call
    :meth:`report`.
    """

    def __init__(
        self,
        old: Workload,
        new: Workload,
        cache=None,
        *,
        ca: float = DEFAULT_CA,
        cr: float = DEFAULT_CR,
        min_mass: Optional[float] = None,
        check: bool = False,
    ) -> None:
        from ..analyze.passes import DEFAULT_MIN_MASS

        self.old_workload = old
        self.new_workload = new
        self.cache = (
            cache if isinstance(cache, ArtifactCache) else ArtifactCache(cache)
        )
        self.ca = ca
        self.cr = cr
        self.min_mass = DEFAULT_MIN_MASS if min_mass is None else min_mass
        self.check = check
        self.old_run: Optional[WorkloadRun] = None
        self.new_run: Optional[WorkloadRun] = None
        self._report: Optional[dict] = None

    # -- runs --------------------------------------------------------------

    def _build_run(self, workload: Workload) -> WorkloadRun:
        run = make_run(workload, self.cache, check=self.check)
        # Drive the full pipeline so checker hooks fire and artifacts land.
        run.qualified(self.ca, self.cr)
        run.lint(self.ca, self.cr, self.min_mass)
        run.classification(self.ca, self.cr)
        return run

    # -- report sections ---------------------------------------------------

    def _fn_keys(self, run: WorkloadRun, name: str) -> tuple[str, str]:
        """(qualified key, lint key) of one function in one run."""
        return (
            run.qualified_key(name, self.ca, self.cr),
            run.lint_key(name, self.ca, self.cr, self.min_mass),
        )

    def _ledger(self) -> dict:
        """Per-function and per-stage hit/recompute, by cache-*key* equality.

        A function "hits" when its new key equals its old key — i.e. the
        artifact the new run needs is the artifact the old run produced.
        This is a deterministic property of the two program versions, so
        the ledger is comparable across daemon and CLI executions.
        """
        old, new = self.old_run, self.new_run
        old_train, old_ref = old.run_keys()
        new_train, new_ref = new.run_keys()
        stages = {
            "module": HIT
            if self.old_workload.source == self.new_workload.source
            else RECOMPUTE,
            "train": HIT if old_train == new_train else RECOMPUTE,
            "ref": HIT if old_ref == new_ref else RECOMPUTE,
        }
        functions = {}
        old_names = set(old.module.functions)
        for name in new.module.functions:
            if name in old_names:
                old_q, old_l = self._fn_keys(old, name)
                new_q, new_l = self._fn_keys(new, name)
                functions[name] = {
                    "qualified": HIT if new_q == old_q else RECOMPUTE,
                    "lint": HIT if new_l == old_l else RECOMPUTE,
                }
            else:
                functions[name] = {"qualified": RECOMPUTE, "lint": RECOMPUTE}
        return {"stages": stages, "functions": functions}

    def _finding_deltas(self) -> dict:
        # Imported lazily: repro.analyze imports the pipeline package, so a
        # top-level import here would be circular.
        from ..analyze.baseline import baseline_of, partition

        target = self.new_workload.name
        old_pairs = [(target, d) for d in self.old_run.lint(self.ca, self.cr, self.min_mass)]
        new_pairs = [(target, d) for d in self.new_run.lint(self.ca, self.cr, self.min_mass)]
        fresh, unchanged = partition(new_pairs, baseline_of(old_pairs))
        fixed, _ = partition(old_pairs, baseline_of(new_pairs))
        return {
            "new": [d.to_dict() for _, d in fresh],
            "fixed": [d.to_dict() for _, d in fixed],
            "unchanged": [d.to_dict() for _, d in unchanged],
        }

    def _diagnostic_deltas(self) -> dict:
        old_records = tuple(self.old_run.checker.diagnostics.records)
        new_records = tuple(self.new_run.checker.diagnostics.records)
        old_ids = {_diag_identity(d) for d in old_records}
        new_ids = {_diag_identity(d) for d in new_records}
        return {
            "new": [
                d.to_dict() for d in new_records if _diag_identity(d) not in old_ids
            ],
            "fixed": [
                d.to_dict() for d in old_records if _diag_identity(d) not in new_ids
            ],
            "unchanged": [
                d.to_dict() for d in new_records if _diag_identity(d) in old_ids
            ],
        }

    def _sharpening_deltas(self) -> dict:
        """Per-function qualified-vs-iterative movement, only where it moved."""
        old_cls = self.old_run.classification(self.ca, self.cr)
        new_cls = self.new_run.classification(self.ca, self.cr)
        out = {}
        for name in sorted(set(old_cls) & set(new_cls)):
            o, n = old_cls[name], new_cls[name]
            if (o.iterative_nonlocal, o.qualified_nonlocal) == (
                n.iterative_nonlocal,
                n.qualified_nonlocal,
            ):
                continue
            out[name] = {
                "iterative_nonlocal": {
                    "old": o.iterative_nonlocal,
                    "new": n.iterative_nonlocal,
                },
                "qualified_nonlocal": {
                    "old": o.qualified_nonlocal,
                    "new": n.qualified_nonlocal,
                },
            }
        return out

    # -- entry point -------------------------------------------------------

    def report(self) -> dict:
        """Run both versions and assemble the differential report."""
        if self._report is not None:
            return self._report
        tracer = get_tracer()
        before = self.cache.stats_snapshot()
        with tracer.span("incremental.old", workload=self.old_workload.name):
            t0 = time.perf_counter()
            self.old_run = self._build_run(self.old_workload)
            old_s = time.perf_counter() - t0
        with tracer.span("incremental.new", workload=self.new_workload.name):
            t0 = time.perf_counter()
            self.new_run = self._build_run(self.new_workload)
            new_s = time.perf_counter() - t0
        changed, added, removed, unchanged = changed_functions(
            self.old_run.module, self.new_run.module
        )
        report = {
            "schema": DIFF_SCHEMA,
            "workload": self.new_workload.name,
            "config": {
                "ca": self.ca,
                "cr": self.cr,
                "min_mass": self.min_mass,
                "check": self.check,
            },
            "functions": {
                "changed": list(changed),
                "added": list(added),
                "removed": list(removed),
                "unchanged": list(unchanged),
            },
            "ledger": self._ledger(),
            "findings": self._finding_deltas(),
            "diagnostics": self._diagnostic_deltas(),
            "sharpening": self._sharpening_deltas(),
            # The only non-deterministic section (stripped by
            # ``comparable_payload``): wall clock plus the *observed* cache
            # traffic this session generated.
            "timings": {
                "old_s": old_s,
                "new_s": new_s,
                "cache": _stats_dict(
                    self.cache.stats_snapshot().diff(before)
                ),
            },
        }
        self._report = report
        return report


def diff_workloads(
    old: Workload,
    new: Workload,
    cache=None,
    **config,
) -> dict:
    """One-shot :class:`IncrementalSession` convenience wrapper."""
    return IncrementalSession(old, new, cache, **config).report()


def render_diff_text(report: Mapping) -> str:
    """A human-readable rendering of a differential report."""
    lines = [f"incremental diff: {report['workload']}"]
    fns = report["functions"]
    lines.append(
        "functions: "
        f"{len(fns['changed'])} changed, {len(fns['added'])} added, "
        f"{len(fns['removed'])} removed, {len(fns['unchanged'])} unchanged"
    )
    for label in ("changed", "added", "removed"):
        if fns[label]:
            lines.append(f"  {label}: {', '.join(fns[label])}")
    ledger = report["ledger"]
    stage_bits = ", ".join(
        f"{stage}={state}" for stage, state in ledger["stages"].items()
    )
    lines.append(f"stages: {stage_bits}")
    recomputed = sorted(
        name
        for name, states in ledger["functions"].items()
        if RECOMPUTE in states.values()
    )
    warm = len(ledger["functions"]) - len(recomputed)
    lines.append(
        f"ledger: {warm} function(s) warm, {len(recomputed)} recomputed"
        + (f" ({', '.join(recomputed)})" if recomputed else "")
    )
    findings = report["findings"]
    lines.append(
        "findings: "
        f"{len(findings['new'])} new, {len(findings['fixed'])} fixed, "
        f"{len(findings['unchanged'])} unchanged"
    )
    for kind, sign in (("new", "+"), ("fixed", "-")):
        for d in findings[kind]:
            where = d.get("function") or "?"
            block = d.get("block")
            loc = f"{where}:{block}" if block else where
            lines.append(f"  {sign} {d['code']} {loc}: {d['message']}")
    diags = report.get("diagnostics", {})
    if diags.get("new") or diags.get("fixed"):
        lines.append(
            "checker diagnostics: "
            f"{len(diags['new'])} new, {len(diags['fixed'])} fixed"
        )
    sharp = report.get("sharpening", {})
    for name, delta in sharp.items():
        q = delta["qualified_nonlocal"]
        i = delta["iterative_nonlocal"]
        lines.append(
            f"sharpening {name}: qualified {q['old']} -> {q['new']}, "
            f"iterative {i['old']} -> {i['new']}"
        )
    timings = report.get("timings")
    if timings:
        lines.append(
            f"time: old {timings['old_s']:.3f}s, new {timings['new_s']:.3f}s"
        )
    return "\n".join(lines)


__all__ = [
    "DIFF_SCHEMA",
    "HIT",
    "RECOMPUTE",
    "IncrementalSession",
    "diff_workloads",
    "edited_workload",
    "render_diff_text",
    "seeded_edit",
]
