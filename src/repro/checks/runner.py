"""Pipeline wiring for the check passes.

This module owns everything that touches the rest of the pipeline (and is
therefore imported lazily, never from ``repro.checks.__init__``):

* the concrete :class:`~repro.checks.engine.CheckPass` subclasses, one per
  diagnostic family;
* :class:`PipelineChecker` — the hook object a
  :class:`~repro.evaluation.harness.WorkloadRun` calls after each stage,
  with :data:`NULL_CHECKER` as the zero-overhead disabled default
  (null-object pattern, same shape as the observability layer).  Its hooks
  replay the verdict of objects they were handed before (see
  :class:`_Verdicts`);
* convenience entry points used by the ``repro check`` CLI and the tests:
  :func:`check_module`, :func:`check_run_result`, :func:`check_qualified`,
  :func:`check_workload_run`, and :func:`check_program`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Mapping, Optional

from ..ir.cfg import Cfg
from ..obs import get_metrics, get_tracer
from ..profiles.recording import recording_edges
from .automaton_checks import check_automaton
from .dataflow_checks import check_dataflow
from .diagnostics import Diagnostic, Diagnostics
from .engine import CheckContext, CheckPass, run_passes
from .hpg_checks import check_hpg
from .ir_checks import check_module_ir
from .lint import lint_function
from .profile_checks import check_profile


class IrPass(CheckPass):
    """Structural IR/CFG well-formedness (collect-all ``IR*``)."""

    name = "ir"
    codes = tuple(f"IR{n:03d}" for n in range(1, 11))
    requires = ("module",)

    def run(self, ctx: CheckContext, out: Diagnostics) -> None:
        check_module_ir(ctx.module, out=out)


class LintPass(CheckPass):
    """Dataflow-powered IR lints (``LINT*``)."""

    name = "lint"
    codes = ("LINT001", "LINT002", "LINT003", "LINT004")
    requires = ("module",)

    def run(self, ctx: CheckContext, out: Diagnostics) -> None:
        qualified = ctx.qualified or {}
        for fn in ctx.module.functions.values():
            qa = qualified.get(fn.name)
            # Reuse the qualified bundle's baseline Wegman–Zadek run when
            # the analyzer provides one; plain check runs solve fresh.
            lint_function(
                fn,
                ctx.module,
                out=out,
                wz=None if qa is None else qa.baseline,
            )


class ProfilePass(CheckPass):
    """Ball–Larus conservation of the run's path profiles (``PROF*``)."""

    name = "profile"
    codes = tuple(f"PROF{n:03d}" for n in range(1, 7))
    requires = ("module", "result")

    def run(self, ctx: CheckContext, out: Diagnostics) -> None:
        for routine, profile in ctx.result.profiles.items():
            fn = ctx.module.functions.get(routine)
            if fn is None or not profile.total_count:
                continue
            cfg = Cfg.from_function(fn)
            block_counts = {
                label: count
                for (owner, label), count in ctx.result.block_counts.items()
                if owner == routine
            }
            check_profile(
                routine,
                cfg,
                recording_edges(cfg),
                profile,
                block_counts=block_counts,
                out=out,
            )


class AutomatonPass(CheckPass):
    """Theorem 2 / trie-shape checks on qualification automata (``AUT*``)."""

    name = "automaton"
    codes = ("AUT001", "AUT002", "AUT003", "AUT004")
    requires = ("qualified",)

    def run(self, ctx: CheckContext, out: Diagnostics) -> None:
        for routine, qa in ctx.qualified.items():
            if qa.automaton is not None:
                check_automaton(routine, qa.cfg, qa.recording, qa.automaton, out=out)


class HpgPass(CheckPass):
    """Hot-path-graph projection and profile carry-over (``HPG*``)."""

    name = "hpg"
    codes = tuple(f"HPG{n:03d}" for n in range(1, 8))
    requires = ("qualified",)

    def run(self, ctx: CheckContext, out: Diagnostics) -> None:
        for routine, qa in ctx.qualified.items():
            check_hpg(routine, qa, out=out)


class DataflowPass(CheckPass):
    """Post-fixpoint, projection-conservation, monotonicity (``DF*``)."""

    name = "dataflow"
    codes = ("DF001", "DF002", "DF003")
    requires = ("qualified",)

    def run(self, ctx: CheckContext, out: Diagnostics) -> None:
        for routine, qa in ctx.qualified.items():
            check_dataflow(routine, qa, out=out)


#: Passes by pipeline stage (the order diagnostics appear in reports).
MODULE_PASSES = (IrPass(), LintPass())
RUN_PASSES = (ProfilePass(),)
QUALIFIED_PASSES = (AutomatonPass(), HpgPass(), DataflowPass())
ALL_PASSES = MODULE_PASSES + RUN_PASSES + QUALIFIED_PASSES


class _Verdicts:
    """The records each hook's passes emitted, by the identity of the
    objects those passes read.

    Cached artifacts are never mutated, so a verdict holds for as long as
    the objects it was found on live.  An entry keeps only weak references
    to them: the table never keeps an artifact alive, and an entry matches
    only while each reference still points at the very object handed in,
    so a reused ``id`` never does.  Entries whose objects died are swept
    whenever the table has doubled.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple, tuple[tuple, tuple[Diagnostic, ...]]] = {}
        self._sweep_at = 64

    def lookup(self, key: tuple, objs: tuple) -> Optional[tuple[Diagnostic, ...]]:
        with self._lock:
            entry = self._entries.get((key, tuple(map(id, objs))))
        if entry is None:
            return None
        refs, records = entry
        if all(ref() is obj for ref, obj in zip(refs, objs)):
            return records
        return None

    def record(self, key: tuple, objs: tuple, records: tuple[Diagnostic, ...]) -> None:
        refs = tuple(weakref.ref(obj) for obj in objs)
        with self._lock:
            self._entries[(key, tuple(map(id, objs)))] = (refs, records)
            if len(self._entries) >= self._sweep_at:
                self._entries = {
                    k: entry
                    for k, entry in self._entries.items()
                    if all(ref() is not None for ref in entry[0])
                }
                self._sweep_at = 2 * max(len(self._entries), 32)


#: Process-wide: every request builds its own checker over the shared cache.
_VERDICTS = _Verdicts()


class PipelineChecker:
    """Runs the check passes after each pipeline stage of a workload run.

    Installed on a :class:`~repro.evaluation.harness.WorkloadRun` via its
    ``checker`` argument; findings from every stage accumulate in
    :attr:`diagnostics`.

    A hook handed the same objects as an earlier hook call (a memory hit of
    the artifact cache) appends that call's records again instead of
    running its passes; a recompute or a disk load yields new objects,
    which are checked.  The direct entry points below always run.
    """

    enabled = True

    def __init__(self) -> None:
        self.diagnostics = Diagnostics()

    def after_compile(self, workload: str, module) -> None:
        self._check(
            MODULE_PASSES,
            CheckContext(workload=workload, stage="compile", module=module),
            ("compile",),
            (module,),
        )

    def after_run(self, workload: str, stage: str, module, result) -> None:
        self._check(
            RUN_PASSES,
            CheckContext(
                workload=workload, stage=stage, module=module, result=result
            ),
            ("run",),
            (module, result),
        )

    def after_qualified(
        self, workload: str, qualified: Mapping[str, Any]
    ) -> None:
        self._check(
            QUALIFIED_PASSES,
            CheckContext(workload=workload, stage="qualify", qualified=qualified),
            ("qualify", *qualified),
            tuple(qualified.values()),
        )

    def _check(self, passes, ctx: CheckContext, key: tuple, objs: tuple) -> None:
        """Run ``passes`` over ``ctx`` and remember what they emitted for
        ``objs``, or replay what they emitted for these very objects."""
        records = _VERDICTS.lookup(key, objs)
        if records is None:
            before = len(self.diagnostics)
            run_passes(passes, ctx, self.diagnostics)
            _VERDICTS.record(key, objs, self.diagnostics.records[before:])
            return
        with get_tracer().span(
            "check.replay", workload=ctx.workload, stage=ctx.stage
        ) as span:
            self.diagnostics.extend(records)
        span.set(findings=len(records))
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("check_replays", stage=ctx.stage).inc()


class _NullChecker:
    """Disabled checker: every hook is a no-op (zero overhead off the hot
    path, like the disabled observability singletons)."""

    enabled = False

    def __init__(self) -> None:
        self.diagnostics = Diagnostics()

    def after_compile(self, workload: str, module) -> None:
        pass

    def after_run(self, workload: str, stage: str, module, result) -> None:
        pass

    def after_qualified(self, workload: str, qualified) -> None:
        pass


NULL_CHECKER = _NullChecker()


# -- direct entry points (CLI and tests) -----------------------------------


def check_module(module, workload: str = "", out: Optional[Diagnostics] = None) -> Diagnostics:
    """IR + lint checks over a compiled module."""
    return run_passes(
        MODULE_PASSES,
        CheckContext(workload=workload, stage="compile", module=module),
        out,
    )


def check_run_result(
    module, result, workload: str = "", stage: str = "run",
    out: Optional[Diagnostics] = None,
) -> Diagnostics:
    """Profile-conservation checks over one interpreter run."""
    return run_passes(
        RUN_PASSES,
        CheckContext(workload=workload, stage=stage, module=module, result=result),
        out,
    )


def check_qualified(
    qualified: Mapping[str, Any],
    workload: str = "",
    out: Optional[Diagnostics] = None,
) -> Diagnostics:
    """Automaton, HPG and dataflow checks over per-routine analyses."""
    return run_passes(
        QUALIFIED_PASSES,
        CheckContext(workload=workload, stage="qualify", qualified=qualified),
        out,
    )


def check_workload_run(run, ca: float, cr: float) -> Diagnostics:
    """Run every check family against an existing
    :class:`~repro.evaluation.harness.WorkloadRun` (used by ``repro check``
    when the run itself was created without a checker)."""
    out = Diagnostics()
    name = run.workload.name
    check_module(run.module, workload=name, out=out)
    check_run_result(run.module, run.train, workload=name, stage="train", out=out)
    check_run_result(run.module, run.ref, workload=name, stage="ref", out=out)
    check_qualified(run.qualified(ca, cr), workload=name, out=out)
    return out


def check_program(
    module,
    args,
    inputs,
    ca: float,
    cr: float,
    workload: str = "program",
) -> Diagnostics:
    """Check an ad-hoc module: compile-stage checks, one profiled run, and
    the qualified pipeline per routine (``repro check running_example``
    and ``repro check --self-check``)."""
    from ..core.qualified import run_qualified
    from ..interp.interpreter import Interpreter

    out = Diagnostics()
    check_module(module, workload=workload, out=out)
    result = Interpreter(
        module, profile_mode="bl", track_sites=False, engine="compiled"
    ).run(args, inputs)
    check_run_result(
        module, result, workload=workload, stage="profile", out=out
    )
    qualified = {
        name: run_qualified(
            fn,
            result.profiles.get(name, _empty_profile()),
            ca,
            cr,
        )
        for name, fn in module.functions.items()
    }
    check_qualified(qualified, workload=workload, out=out)
    return out


def _empty_profile():
    from ..profiles.path_profile import PathProfile

    return PathProfile()


__all__ = [
    "IrPass",
    "LintPass",
    "ProfilePass",
    "AutomatonPass",
    "HpgPass",
    "DataflowPass",
    "MODULE_PASSES",
    "RUN_PASSES",
    "QUALIFIED_PASSES",
    "ALL_PASSES",
    "PipelineChecker",
    "NULL_CHECKER",
    "check_module",
    "check_run_result",
    "check_qualified",
    "check_workload_run",
    "check_program",
]
