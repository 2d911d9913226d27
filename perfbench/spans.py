"""Span recorder for the traced run, and the wrappers that feed it.

The benchmark never edits ``src/``.  Instead, :func:`install` wraps each
layer's public entry points from here: the wrapper opens a span, calls the
original, closes the span and records counts taken from the arguments or
the result.  A caller looks a name up either on a module (``from x import
f`` binds ``f`` in the importing module) or on a class, so a function is
rebound in *every* loaded ``repro`` module that holds it, and a method is
replaced on its class.  All ``repro`` modules are imported first, so no
binding is missed.

Spans live in memory until :meth:`Recorder.dump` writes them out.  Each
records its group, layer, start, end, parent span and op id.  Every thread
keeps its own stack, so the service's worker threads nest their spans
under their own job.  Spans are kept only inside an op: the batch loop
opens one root span per op, and a service worker opens one per job, with
the job id as the op id.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Optional

#: The layers, in the order reports list them.
LAYERS = (
    "frontend",
    "interp",
    "profiles",
    "automaton",
    "core",
    "dataflow",
    "analyze",
    "stats",
    "opt",
    "checks",
    "pipeline",
    "service",
)


class Recorder:
    """In-memory spans plus the counts recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: (cache id, kind, key) of every artifact asked of any cache.
        self.artifacts: set = set()
        #: Wrapped entry point -> number of calls made inside an op.
        self.calls: dict[str, int] = {}
        #: Pipeline checker -> error diagnostics it held after its last hook.
        self.checker_errors = weakref.WeakKeyDictionary()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    # -- span protocol -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, group: str, layer: Optional[str]) -> Optional[list]:
        """Start a span, or return None outside an op."""
        op = getattr(self._local, "op", None)
        if op is None:
            return None
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1][0] if stack else None
        span = [span_id, parent, group, layer, time.perf_counter(), None, op]
        stack.append(span)
        return span

    def close(self, span: Optional[list]) -> None:
        if span is None:
            return
        span[5] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def begin_op(self, op_id: str) -> list:
        """Open the root span of one op on the calling thread."""
        self._local.op = op_id
        return self.open("op", None)

    def end_op(self, span: list) -> None:
        self.close(span)
        self._local.op = None

    def count(self, name: str, value: float = 1) -> None:
        if getattr(self._local, "op", None) is None:
            return
        with self._lock:
            self.counts[name] += value

    def called(self, entry: str) -> None:
        if getattr(self._local, "op", None) is None:
            return
        with self._lock:
            self.calls[entry] = self.calls.get(entry, 0) + 1

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float], float]:
        """(self seconds per group, self seconds per layer, op seconds).

        A span's self time is its duration minus the time its child spans
        cover.  Root spans belong to no layer: their self time is the op
        time spent outside every layer span (``other``)."""
        child = defaultdict(float)
        for span_id, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        by_group: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        op_total = 0.0
        for span_id, parent, group, layer, start, end, _ in self.spans:
            own = (end - start) - child[span_id]
            by_group[group] += own
            by_layer[layer or "other"] += own
            if parent is None:
                op_total += end - start
        return dict(by_group), dict(by_layer), op_total

    def dump(self, path) -> None:
        """Write every span as one JSON line (written once, at run end)."""
        keys = ("id", "parent", "group", "layer", "start", "end", "op")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# counters taken at the wrapped boundaries
# ---------------------------------------------------------------------------


def _module_instrs(module) -> int:
    return sum(
        block.size for fn in module.functions.values() for block in fn.blocks.values()
    )


def _count_compile(rec, args, kwargs, result):
    rec.count("frontend.ir_instrs", _module_instrs(result))


def _count_run(rec, args, kwargs, result):
    rec.count("interp.instructions", result.instr_count)


def _count_hot_paths(rec, args, kwargs, result):
    profile = args[0] if args else kwargs["profile"]
    rec.count("profiles.hot_paths", len(result))
    rec.count("profiles.bl_paths", profile.num_distinct)


def _count_states(rec, args, kwargs, result):
    rec.count("automaton.states", args[0].num_states)


def _count_trace(rec, args, kwargs, result):
    rec.count("core.hpg_vertices", result.num_real_vertices)


def _count_reduce(rec, args, kwargs, result):
    rec.count("core.reduced_vertices", result.reduced.num_real_vertices)


def _count_wz(rec, args, kwargs, result):
    view = args[0] if args else kwargs["view"]
    rec.count("dataflow.wz_solves")
    rec.count("dataflow.wz_visits", result.visits)
    rec.count("dataflow.wz_vertices", view.cfg.num_vertices)


def _count_solve(rec, args, kwargs, result):
    rec.count("dataflow.bitset_solves")


def _count_findings(rec, args, kwargs, result):
    rec.count("analyze.findings", len(result))


def _count_layout(rec, args, kwargs, result):
    rec.count("opt.out_instrs", sum(b.size for b in result.blocks.values()))


def _count_passes(passes_attr: str):
    def counter(rec, args, kwargs, result):
        runner = sys.modules["repro.checks.runner"]
        rec.count("checks.passes", len(getattr(runner, passes_attr)))
        # A checker accumulates diagnostics over its hooks: count only the
        # errors this hook added.
        checker = args[0]
        errors = len(checker.diagnostics.errors)
        with rec._lock:
            before = rec.checker_errors.get(checker, 0)
            rec.checker_errors[checker] = errors
        rec.count("checks.errors", errors - before)

    return counter


#: (module, attribute path, layer, group, counter).  ``run.per_layer``
#: reports each group's summed self time as a per-layer metric.
ENTRY_POINTS: tuple[tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.frontend.lower", "compile_program", "frontend", "frontend.self", _count_compile),
    ("repro.interp.interpreter", "Interpreter.__init__", "interp", "interp.lower", None),
    ("repro.interp.interpreter", "Interpreter.run", "interp", "interp.run", _count_run),
    ("repro.profiles.recording", "recording_edges", "profiles", "profiles.self", None),
    ("repro.profiles.hot_paths", "select_hot_paths", "profiles", "profiles.self", _count_hot_paths),
    ("repro.automaton.qualification", "QualificationAutomaton.__init__", "automaton", "automaton.self", _count_states),
    ("repro.core.qualified", "run_qualified", "core", "core.qualify", None),
    ("repro.core.tracing", "trace", "core", "core.trace", _count_trace),
    ("repro.core.translate", "translate_profile", "core", "core.translate", None),
    ("repro.core.translate", "reduce_profile", "core", "core.translate", None),
    ("repro.core.reduction", "reduce_hpg", "core", "core.reduce", _count_reduce),
    ("repro.dataflow.wegman_zadek", "analyze", "dataflow", "dataflow.wz", _count_wz),
    ("repro.dataflow.framework", "solve", "dataflow", "dataflow.bitset", _count_solve),
    ("repro.analyze.runner", "compute_findings", "analyze", "analyze.self", _count_findings),
    ("repro.analyze.runner", "compute_function_findings", "analyze", "analyze.self", _count_findings),
    ("repro.stats.classify", "classify_constants", "stats", "stats.self", None),
    ("repro.opt.codegen", "fold_function", "opt", "opt.self", None),
    ("repro.opt.codegen", "materialize", "opt", "opt.self", None),
    ("repro.opt.dce", "eliminate_dead_code", "opt", "opt.self", None),
    ("repro.opt.straighten", "straighten", "opt", "opt.self", None),
    ("repro.opt.layout", "layout_function", "opt", "opt.self", _count_layout),
    ("repro.checks.runner", "PipelineChecker.after_compile", "checks", "checks.self", _count_passes("MODULE_PASSES")),
    ("repro.checks.runner", "PipelineChecker.after_run", "checks", "checks.self", _count_passes("RUN_PASSES")),
    ("repro.checks.runner", "PipelineChecker.after_qualified", "checks", "checks.self", _count_passes("QUALIFIED_PASSES")),
    ("repro.frontend.fingerprint", "function_fingerprints", "pipeline", "pipeline.fingerprint", None),
    ("repro.frontend.fingerprint", "module_fingerprint", "pipeline", "pipeline.fingerprint", None),
    ("repro.profiles.serialize", "fingerprint_profile", "pipeline", "pipeline.fingerprint", None),
    ("repro.pipeline.cache", "content_key", "pipeline", "pipeline.key", None),
    ("repro.service.api", "execute_request", "service", "service.self", None),
    ("repro.service.api", "execute_lint", "service", "service.self", None),
    ("repro.service.api", "execute_diff", "service", "service.self", None),
    ("repro.service.api", "execute_sweep", "service", "service.self", None),
)

#: Entry points that must record calls on each workload; a wrapper bound
#: to the wrong attribute records nothing, and this catches it.
EXPECTED_CALLS: dict[str, tuple[str, ...]] = {
    "organic-cold": (
        "compile_program", "Interpreter.__init__", "Interpreter.run",
        "recording_edges", "select_hot_paths", "QualificationAutomaton.__init__",
        "run_qualified", "trace", "translate_profile", "reduce_profile",
        "reduce_hpg", "analyze", "solve", "compute_findings",
        "classify_constants", "fold_function", "materialize",
        "eliminate_dead_code", "straighten", "layout_function",
    ),
    "profile-heavy": (
        "compile_program", "Interpreter.__init__", "Interpreter.run",
        "recording_edges", "select_hot_paths", "QualificationAutomaton.__init__",
        "run_qualified", "trace", "translate_profile", "reduce_profile",
        "reduce_hpg", "analyze", "classify_constants", "fold_function",
        "materialize", "eliminate_dead_code", "straighten", "layout_function",
    ),
    "serve-warm": (
        "compile_program", "Interpreter.__init__", "Interpreter.run",
        "run_qualified", "trace", "reduce_hpg", "analyze",
        "compute_function_findings", "classify_constants", "fold_function",
        "eliminate_dead_code", "layout_function",
        "PipelineChecker.after_compile", "PipelineChecker.after_run",
        "PipelineChecker.after_qualified", "ArtifactCache.memo",
        "function_fingerprints", "module_fingerprint", "fingerprint_profile",
        "execute_request", "execute_lint", "execute_diff", "execute_sweep",
    ),
}


def _import_all_repro() -> None:
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        importlib.import_module(info.name)


def _rebind(original: Any, wrapper: Any) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``wrapper``; returns how many bindings changed."""
    changed = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                changed += 1
    return changed


def _make_wrapper(rec: Recorder, original, entry, layer, group, counter):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        rec.called(entry)
        span = rec.open(group, layer)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.close(span)
        if counter is not None and span is not None:
            counter(rec, args, kwargs, result)
        return result

    return wrapper


def _wrap_memo(rec: Recorder, cache_cls) -> None:
    """``ArtifactCache.memo`` minus its compute: the compute callback runs
    in an unattributed child span, so memo self time is lookup, locking,
    single-flight waiting, pickling and disk I/O only."""
    original = cache_cls.memo

    @functools.wraps(original)
    def memo(self, kind, key, compute):
        rec.called("ArtifactCache.memo")

        def timed_compute():
            span = rec.open("pipeline.compute", None)
            try:
                return compute()
            finally:
                rec.close(span)

        span = rec.open("pipeline.memo", "pipeline")
        try:
            return original(self, kind, key, timed_compute)
        finally:
            rec.close(span)
            if span is not None:
                with rec._lock:
                    rec.artifacts.add((id(self), kind, key))

    cache_cls.memo = memo


def _wrap_jobs(rec: Recorder, service_cls) -> None:
    """Each service job is one op tree, rooted on its worker thread."""
    original = service_cls._run_job

    @functools.wraps(original)
    def run_job(self, job):
        root = rec.begin_op(job.id)
        try:
            return original(self, job)
        finally:
            rec.end_op(root)

    service_cls._run_job = run_job


def install(rec: Recorder) -> list[str]:
    """Wrap every entry point; returns the entries that could not be bound."""
    _import_all_repro()
    missing = []
    for module_name, path, layer, group, counter in ENTRY_POINTS:
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(path)
            continue
        wrapper = _make_wrapper(rec, original, path, layer, group, counter)
        if owner_name:
            setattr(owner, attr, wrapper)
        elif _rebind(original, wrapper) == 0:
            missing.append(path)
    _wrap_memo(rec, sys.modules["repro.pipeline.cache"].ArtifactCache)
    _wrap_jobs(rec, sys.modules["repro.service.daemon"].AnalysisService)
    return missing


def missing_calls(rec: Recorder, workload: str) -> list[str]:
    """Entry points expected to do work on ``workload`` that recorded none."""
    return [e for e in EXPECTED_CALLS[workload] if not rec.calls.get(e)]
