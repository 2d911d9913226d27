"""Wegman–Zadek conditional constant propagation [WZ91] on a CFG.

This is the paper's baseline constant propagator (its PW pass "uses Wegman
and Zadek's Conditional Constant algorithm"): a worklist algorithm that
symbolically executes a routine from its entry, propagating values only
across branch legs that can execute under the current assignment of values.
Running it on a :class:`~repro.dataflow.graph_view.GraphView` of a hot-path
graph yields the paper's *path-qualified* constant propagation, with no
change to the algorithm (Theorem 1).

The implementation is conservative exactly as the paper's: parameters, loads
and call results are BOT; memory is untracked; there is no pointer aliasing
in the IR.
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..ir.basic_block import BasicBlock
from ..ir.cfg import Edge
from ..ir.instructions import Branch, Jump, Ret
from ..obs import get_metrics, get_tracer
from .framework import DATAFLOW_ENGINES, get_default_engine
from .graph_view import GraphView
from .lattice import (
    BOT,
    TOP,
    UNREACHABLE,
    ConstEnv,
    EnvValue,
    FlatValue,
    meet_env,
)
from .transfer import eval_operand, transfer_block
from .wz_dense import lower_transfer, run_program

Vertex = Hashable


class CondConstResult:
    """The solution of a conditional constant propagation run.

    ``visits``/``visit_counts`` record the solver's worklist work (total
    pops and pops per vertex) and are identical between engines — the
    differential suite pins them.  Class-level defaults keep results
    unpickled from pre-``visits`` artifact caches usable.
    """

    visits: int = 0
    visit_counts: Optional[dict[Vertex, int]] = None
    engine: str = "generic"

    def __init__(
        self,
        view: GraphView,
        env_in: dict[Vertex, EnvValue],
        executable_edges: frozenset[Edge],
        *,
        visits: int = 0,
        visit_counts: Optional[dict[Vertex, int]] = None,
        engine: str = "generic",
    ) -> None:
        self.view = view
        self.env_in = env_in
        self.executable_edges = executable_edges
        self.visits = visits
        self.visit_counts = visit_counts
        self.engine = engine

    def input_env(self, vertex: Vertex) -> EnvValue:
        """Environment at the entry of ``vertex`` (UNREACHABLE if no
        executable path reaches it)."""
        return self.env_in.get(vertex, UNREACHABLE)

    def is_executable(self, vertex: Vertex) -> bool:
        """True if some executable path reaches ``vertex``."""
        return self.input_env(vertex) is not UNREACHABLE

    def _block_values(self, vertex: Vertex):
        """Memoized (program, per-step values, output bindings) of ``vertex``,
        or None for virtual/unreachable vertices.

        Evaluates the block's *cached* micro-op lowering once per vertex;
        repeated ``site_values()``/``output_env()`` calls re-walk nothing —
        not the instruction list, not the micro-ops.
        """
        memo = self.__dict__.setdefault("_block_memo", {})
        if vertex in memo:
            return memo[vertex]
        env = self.input_env(vertex)
        block = self.view.block_of(vertex)
        if block is None or env is UNREACHABLE:
            memo[vertex] = None
            return None
        program = lower_transfer(block)
        values = env.to_dict()
        results = run_program(program, values)
        memo[vertex] = entry = (program, results, values)
        return entry

    def site_values(self, vertex: Vertex) -> dict[int, FlatValue]:
        """Abstract result of each value-producing instruction at ``vertex``,
        keyed by instruction index.  Empty for virtual/unreachable vertices.
        """
        entry = self._block_values(vertex)
        if entry is None:
            return {}
        program, results, _ = entry
        return dict(zip(program.sites, results))

    def __getstate__(self):
        # Lowered-program memos hold operator lambdas (unpicklable) and are
        # pure caches: rebuild them lazily after unpickling.
        state = self.__dict__.copy()
        state.pop("_block_memo", None)
        state.pop("_out_memo", None)
        return state

    def constant_sites(self, vertex: Vertex) -> dict[int, int]:
        """Value-producing instruction indices at ``vertex`` whose result is a
        known constant, with that constant."""
        return {
            idx: v
            for idx, v in self.site_values(vertex).items()
            if isinstance(v, int)
        }

    def pure_constant_sites(self, vertex: Vertex) -> dict[int, int]:
        """Like :meth:`constant_sites` but restricted to pure instructions —
        the only sites the optimizer may fold and the unit the paper's
        "instructions with constant results" metrics count."""
        block = self.view.block_of(vertex)
        if block is None:
            return {}
        return {
            idx: v
            for idx, v in self.constant_sites(vertex).items()
            if block.instrs[idx].is_pure
        }

    def output_env(self, vertex: Vertex) -> EnvValue:
        """Environment at the exit of ``vertex`` (memoized)."""
        memo = self.__dict__.setdefault("_out_memo", {})
        if vertex in memo:
            return memo[vertex]
        entry = self._block_values(vertex)
        if entry is None:
            out = self.input_env(vertex)  # identity transfer / UNREACHABLE
        else:
            _, _, values = entry
            out = ConstEnv._from_raw(values)
        memo[vertex] = out
        return out


def analyze(
    view: GraphView,
    entry_env: Optional[ConstEnv] = None,
    *,
    engine: Optional[str] = None,
) -> CondConstResult:
    """Run conditional constant propagation over ``view``.

    ``entry_env`` defaults to "all parameters BOT, everything else TOP".
    ``engine`` is ``"generic"`` (the persistent-dict oracle), ``"compiled"``
    (the dense env-array engine), or ``"auto"`` (compiled at/above
    :data:`~repro.dataflow.wz_compiled.WZ_AUTO_MIN_VERTICES` vertices);
    ``None`` uses the ambient default of both solvers
    (:func:`~repro.dataflow.framework.engine_scope`).  Both engines produce
    identical results, visit counts included.
    """
    if engine is None:
        engine = get_default_engine()
    if engine not in DATAFLOW_ENGINES:
        raise ValueError(
            f"bad dataflow engine {engine!r}; choose from {DATAFLOW_ENGINES}"
        )
    if engine != "generic":
        from .wz_compiled import WZ_AUTO_MIN_VERTICES, analyze_compiled

        if engine == "compiled" or view.cfg.num_vertices >= WZ_AUTO_MIN_VERTICES:
            result = analyze_compiled(view, entry_env)
            if result is not None:
                return result
            # The view declined to compile (unresolvable branch labels):
            # fall through to the oracle, which only faults on a bad leg
            # if the fixpoint actually takes it.

    if entry_env is None:
        entry_env = ConstEnv({p: BOT for p in view.params})

    cfg = view.cfg
    env_in: dict[Vertex, EnvValue] = {cfg.entry: entry_env}
    executable: set[Edge] = set()
    worklist: list[Vertex] = [cfg.entry]
    on_list: set[Vertex] = {cfg.entry}
    visits = 0
    visit_counts: dict[Vertex, int] = {}

    with get_tracer().span(
        "dataflow.wz.solve", engine="generic", vertices=cfg.num_vertices
    ) as span:
        while worklist:
            v = worklist.pop()
            on_list.discard(v)
            visits += 1
            visit_counts[v] = visit_counts.get(v, 0) + 1
            env = env_in.get(v, UNREACHABLE)
            if env is UNREACHABLE:
                continue

            block = view.block_of(v)
            if block is None:
                out_env: ConstEnv = env  # virtual vertex: identity transfer
                out_targets = list(cfg.succs(v))
            else:
                out_env = transfer_block(block, env)
                out_targets = _executable_targets(view, v, block, out_env)

            for w in out_targets:
                edge = (v, w)
                newly_exec = edge not in executable
                executable.add(edge)
                old = env_in.get(w, UNREACHABLE)
                new = meet_env(old, out_env)
                if newly_exec or new != old:
                    env_in[w] = new
                    if w not in on_list:
                        worklist.append(w)
                        on_list.add(w)
        span.set(visits=visits)

    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("wz_analyses").inc()
        metrics.counter("wz_visits").inc(visits)
        metrics.counter("wz_executable_edges").inc(len(executable))

    return CondConstResult(
        view,
        env_in,
        frozenset(executable),
        visits=visits,
        visit_counts=visit_counts,
        engine="generic",
    )


def _executable_targets(
    view: GraphView, v: Vertex, block: BasicBlock, out_env: ConstEnv
) -> list[Vertex]:
    """Successor vertices reachable from ``v`` under ``out_env``."""
    term = block.terminator
    if isinstance(term, Jump):
        return [view.succ_for_label(v, term.target)]
    if isinstance(term, Ret):
        return list(view.cfg.succs(v))  # the edge to the virtual exit
    if isinstance(term, Branch):
        cond = eval_operand(term.cond, out_env)
        if cond is TOP:
            # Optimistic: the condition may yet become a known constant;
            # propagate along no leg until it resolves (as in [WZ91]).
            return []
        if cond is BOT:
            return [
                view.succ_for_label(v, term.if_true),
                view.succ_for_label(v, term.if_false),
            ]
        target = term.if_true if cond != 0 else term.if_false
        return [view.succ_for_label(v, target)]
    raise TypeError(f"unknown terminator {term!r}")
