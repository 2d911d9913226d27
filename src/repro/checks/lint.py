"""IR lint passes powered by the data-flow problems (family ``LINT``).

Unlike the ``IR*`` structural checks these are *semantic* findings — the
function is well-formed but suspicious.  Each lint reuses an existing
analysis rather than re-deriving facts:

* ``LINT001`` — use before definition: a variable is read at a point no
  definition may reach (reaching definitions, parameters included);
* ``LINT002`` — dead store: a pure instruction writes a variable that is
  not live afterwards (live variables);
* ``LINT003`` — block unreachable under constant propagation: structurally
  reachable, but conditional constant propagation proves no executable
  path enters it (Wegman–Zadek);
* ``LINT004`` — constant branch condition: an executable branch whose
  condition the propagator resolves to a single constant, so one leg can
  never execute.

All lints are WARNING severity: they flag dubious code, not broken
invariants, and clean pipelines must stay error-free.
"""

from __future__ import annotations

from typing import Optional

from ..dataflow.framework import solve
from ..dataflow.graph_view import GraphView
from ..dataflow.lattice import UNREACHABLE
from ..dataflow.problems.liveness import LiveVariables
from ..dataflow.problems.reaching_defs import ReachingDefinitions
from ..dataflow.transfer import eval_operand
from ..dataflow.wegman_zadek import analyze
from ..ir.cfg import Cfg
from ..ir.function import Function, Module
from ..ir.instructions import Branch
from ..ir.operands import Var
from .diagnostics import Diagnostics, FixHint, Severity

LINT_USE_BEFORE_DEF = "LINT001"
LINT_DEAD_STORE = "LINT002"
LINT_UNREACHABLE_UNDER_CONSTANTS = "LINT003"
LINT_CONSTANT_BRANCH = "LINT004"

#: Machine-readable fix pointers: the optimizer pass that would resolve the
#: finding (the CLI and SARIF exports surface these verbatim).
DCE_FIX = FixHint(
    transform="dce",
    module="repro.opt.dce",
    detail="eliminate_dead_code removes stores whose value is never read",
)
STRAIGHTEN_FIX = FixHint(
    transform="straighten",
    module="repro.opt.straighten",
    detail="fold the branch into a jump and fuse the surviving leg",
)


def _warn(out: Diagnostics, code: str, message: str, *, function, block,
          instr=None, hint=None, fix_hint=None):
    out.emit(
        code,
        Severity.WARNING,
        message,
        function=function,
        block=block,
        instr=instr,
        hint=hint,
        fix_hint=fix_hint,
    )


def _check_use_before_def(fn: Function, view: GraphView, out: Diagnostics) -> None:
    sol = solve(ReachingDefinitions(fn.params, view.cfg.entry), view)
    for label, block in fn.blocks.items():
        reaching = {d[2] for d in sol.value_in.get(label, frozenset())}
        local: set = set()

        def flag(name: str, idx, what: str) -> None:
            _warn(
                out,
                LINT_USE_BEFORE_DEF,
                f"{what} reads {name!r} but no definition reaches it",
                function=fn.name,
                block=label,
                instr=idx,
                hint="the variable is uninitialized on every path here",
            )

        for idx, instr in enumerate(block.instrs):
            for name in instr.use_vars():
                if name not in local and name not in reaching:
                    flag(name, idx, str(instr))
            if instr.dest is not None:
                local.add(instr.dest)
        if block.terminator is not None:
            for op in block.terminator.uses():
                if (
                    isinstance(op, Var)
                    and op.name not in local
                    and op.name not in reaching
                ):
                    flag(op.name, None, str(block.terminator))


def _check_dead_stores(fn: Function, view: GraphView, out: Diagnostics) -> None:
    sol = solve(LiveVariables(), view)
    for label, block in fn.blocks.items():
        # Backward problem: value_in[v] flows in from the successors, i.e.
        # liveness at block *exit*.
        live = set(sol.value_in.get(label, frozenset()))
        if block.terminator is not None:
            for op in block.terminator.uses():
                if isinstance(op, Var):
                    live.add(op.name)
        for idx in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[idx]
            dest = instr.dest
            if dest is not None:
                if dest not in live and instr.is_pure:
                    _warn(
                        out,
                        LINT_DEAD_STORE,
                        f"{instr} writes {dest!r} but the value is never read",
                        function=fn.name,
                        block=label,
                        instr=idx,
                        fix_hint=DCE_FIX,
                    )
                live.discard(dest)
            for name in instr.use_vars():
                live.add(name)


def _check_constant_control(
    fn: Function, view: GraphView, out: Diagnostics, wz=None
) -> None:
    if wz is None:
        wz = analyze(view)
    reachable = view.cfg.reachable()
    for label, block in fn.blocks.items():
        if label in reachable and not wz.is_executable(label):
            _warn(
                out,
                LINT_UNREACHABLE_UNDER_CONSTANTS,
                "block is structurally reachable but constant propagation "
                "proves no executable path enters it",
                function=fn.name,
                block=label,
            )
            continue
        term = block.terminator
        if isinstance(term, Branch) and wz.is_executable(label):
            env = wz.output_env(label)
            if env is UNREACHABLE:
                continue
            cond = eval_operand(term.cond, env)
            if isinstance(cond, int):
                taken = term.if_true if cond != 0 else term.if_false
                _warn(
                    out,
                    LINT_CONSTANT_BRANCH,
                    f"branch condition {term.cond} is always {cond}; only "
                    f"{taken!r} can execute",
                    function=fn.name,
                    block=label,
                    hint="fold the branch into a jump",
                    fix_hint=STRAIGHTEN_FIX,
                )


def lint_function(
    fn: Function,
    module: Optional[Module] = None,
    out: Optional[Diagnostics] = None,
    wz=None,
) -> Diagnostics:
    """Run all lints over one function; collect-all, WARNING severity.

    ``wz`` optionally supplies a precomputed Wegman–Zadek result for the
    function's CFG (the analyzer reuses the qualified bundle's baseline
    run instead of solving conditional constants a second time)."""
    if out is None:
        out = Diagnostics()
    view = GraphView.from_function(fn, Cfg.from_function(fn))
    _check_use_before_def(fn, view, out)
    _check_dead_stores(fn, view, out)
    _check_constant_control(fn, view, out, wz=wz)
    return out


__all__ = [
    "lint_function",
    "LINT_USE_BEFORE_DEF",
    "LINT_DEAD_STORE",
    "LINT_UNREACHABLE_UNDER_CONSTANTS",
    "LINT_CONSTANT_BRANCH",
]
