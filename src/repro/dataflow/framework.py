"""The generic monotone data-flow framework (Definitions 1–4 of the paper).

A :class:`DataflowProblem` supplies the lattice (top, meet) and monotone
transfer functions; :func:`solve` computes the good solution by iteration to
a fixpoint.  The solver makes no reducibility assumption — the paper notes
that tracing produces irreducible graphs, so "tracing should only be used
with data-flow solvers that can handle irreducible graphs", and iterative
solving is exactly such a solver.

Problems are written against a :class:`~repro.dataflow.graph_view.GraphView`,
so every instance runs unchanged on hot-path graphs: that is the qualified
analysis of Definition 6, where the traced problem keeps the lattice and
transfer functions of the original and only the graph changes.

Two worklist strategies are available behind the same :func:`solve`
signature:

* ``"rpo"`` (default) — a priority worklist ordered by reverse postorder in
  the direction of the analysis.  On the irreducible, retreating-edge-heavy
  hot-path graphs tracing produces, processing a vertex only after its
  forward predecessors cuts revisits dramatically relative to a LIFO stack.
  It is the only order the bitset kernel runs.
* ``"round_robin"`` — chaotic iteration: full sweeps over all vertices until
  a sweep changes nothing.  Deliberately simple; it runs only on the generic
  engine, as the reference the property-based tests compare ``rpo`` against.

Both strategies handle the start vertex uniformly inside the loop: its input
is always ``boundary() ⊓ (meet of predecessor outputs)``, so a start vertex
with predecessors — possible on hot-path graphs, e.g. a retreating edge back
to the entry copy — never consumes a stale input computed before iteration
began.
"""

from __future__ import annotations

import contextvars
import heapq
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Generic, Hashable, Optional, TypeVar

from ..ir.basic_block import BasicBlock
from ..obs import get_metrics, get_tracer
from .graph_view import GraphView

L = TypeVar("L")
Vertex = Hashable

SOLVER_STRATEGIES = ("rpo", "round_robin")

#: The engines of both solvers, :func:`solve` and
#: :func:`~repro.dataflow.wegman_zadek.analyze`.  ``generic`` is each
#: solver's oracle (transfer functions re-run on every relaxation, persistent
#: environment dicts); ``compiled`` is its fast kernel (gen/kill bitsets,
#: :mod:`repro.dataflow.compiled`; dense environment arrays,
#: :mod:`repro.dataflow.wz_compiled`); ``auto`` picks the kernel on graphs
#: at or above the solver's crossover size, and for :func:`solve` only for
#: problems that override :meth:`DataflowProblem.as_genkill`.
DATAFLOW_ENGINES = ("auto", "generic", "compiled")

#: The engine of the innermost :func:`engine_scope`.  A contextvar, so
#: concurrent threads scope their engines independently.
_SCOPED_ENGINE: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_dataflow_engine", default="auto"
)


def get_default_engine() -> str:
    """The engine :func:`solve` and
    :func:`~repro.dataflow.wegman_zadek.analyze` use when called without
    ``engine=``: the innermost :func:`engine_scope` of the current context,
    else ``auto``."""
    return _SCOPED_ENGINE.get()


@contextmanager
def engine_scope(engine: str):
    """Run a block under a different default engine for both solvers — the
    bitset problems of :func:`solve` and the conditional-constant runs of
    :func:`~repro.dataflow.wegman_zadek.analyze`.  It is the one way to run
    a whole pipeline on the oracles (``generic``) or the kernels
    (``compiled``), since no layer above the solvers takes an engine.
    Thread-safe: the override is visible only to the context that entered
    the scope."""
    if engine not in DATAFLOW_ENGINES:
        raise ValueError(
            f"bad dataflow engine {engine!r}; choose from {DATAFLOW_ENGINES}"
        )
    token = _SCOPED_ENGINE.set(engine)
    try:
        yield
    finally:
        _SCOPED_ENGINE.reset(token)


class DataflowProblem(ABC, Generic[L]):
    """A monotone data-flow problem over a graph view."""

    #: "forward" or "backward".
    direction: str = "forward"

    @abstractmethod
    def top(self) -> L:
        """The lattice top (the initial optimistic value)."""

    @abstractmethod
    def meet(self, a: L, b: L) -> L:
        """The lattice meet (greatest lower bound)."""

    @abstractmethod
    def boundary(self) -> L:
        """The value at the graph boundary: the entry for forward problems,
        the exit for backward problems (the paper's ``l_r``)."""

    @abstractmethod
    def transfer(self, vertex: Vertex, block: Optional[BasicBlock], value: L) -> L:
        """The transfer function of ``vertex`` (identity for virtual
        vertices, i.e. when ``block`` is None, unless overridden)."""

    def equal(self, a: L, b: L) -> bool:
        """Lattice-value equality (override for non-``==`` representations)."""
        return a == b

    def as_genkill(self, view: GraphView):
        """Lower this problem over ``view`` to a gen/kill bitset spec.

        The base implementation returns ``None``: the problem is not
        separable and always solves through the generic engine.  Separable
        problems override this (usually via
        :func:`repro.dataflow.compiled.build_genkill`) and thereby opt in
        to the compiled engine under ``engine="auto"``.  An override may
        still return ``None`` for a particular view to decline it.
        """
        return None


class SolverBudgetExceeded(RuntimeError):
    """A vertex exceeded the solver's per-vertex visit budget.

    Monotone problems over finite lattices always converge, so hitting the
    budget means either a non-monotone transfer function, an ``equal`` that
    never stabilizes, or an infinite-ascending-chain lattice — all contract
    violations worth failing loudly on rather than spinning forever.
    """


@dataclass
class SolverStats:
    """Work accounting for one :func:`solve` call."""

    strategy: str
    #: Which engine did the work ("generic" or "compiled").
    engine: str = "generic"
    #: Vertices popped (or swept) and relaxed, total.
    visits: int = 0
    #: Relaxations per vertex.
    visits_by_vertex: dict = field(default_factory=dict)
    #: Largest worklist observed (sweep width for round_robin).
    peak_worklist: int = 0
    #: Worklist insertions, including the initial seeding (0 for the
    #: sweep-based round_robin strategy, which has no worklist).
    pushes: int = 0

    def count(self, v: Vertex) -> int:
        self.visits += 1
        n = self.visits_by_vertex.get(v, 0) + 1
        self.visits_by_vertex[v] = n
        return n

    @property
    def max_visits_per_vertex(self) -> int:
        return max(self.visits_by_vertex.values(), default=0)


@dataclass
class Solution(Generic[L]):
    """Fixpoint solution: values at vertex entry and exit.

    For backward problems ``value_in`` is the value *flowing into* the vertex
    from its successors (i.e. at the vertex's exit in program order) and
    ``value_out`` the transferred value.
    """

    value_in: dict[Vertex, L]
    value_out: dict[Vertex, L]
    #: Present when :func:`solve` was asked to collect work accounting.
    stats: Optional[SolverStats] = None


def priority_order(cfg, forward: bool = True) -> dict[Vertex, int]:
    """Reverse-postorder priority of every vertex, in the analysis direction.

    Forward problems get RPO from the entry over successor edges; backward
    problems get RPO from the exit over predecessor edges.  Vertices
    unreachable in that direction (possible on hot-path graphs and on raw
    test graphs) are appended after the reachable ones in insertion order,
    so every vertex has a priority and none is starved.
    """
    start = cfg.entry if forward else cfg.exit
    next_of = cfg.succs if forward else cfg.preds
    post: list[Vertex] = []
    color: dict[Vertex, int] = {start: 1}
    stack: list[tuple[Vertex, int]] = [(start, 0)]
    while stack:
        v, i = stack[-1]
        succs = next_of(v)
        if i < len(succs):
            stack[-1] = (v, i + 1)
            w = succs[i]
            if color.get(w, 0) == 0:
                color[w] = 1
                stack.append((w, 0))
        else:
            color[v] = 2
            post.append(v)
            stack.pop()
    order = list(reversed(post))
    placed = set(order)
    for v in cfg.vertices:
        if v not in placed:
            order.append(v)
    return {v: i for i, v in enumerate(order)}


def solve(
    problem: DataflowProblem[L],
    view: GraphView,
    *,
    strategy: str = "rpo",
    max_visits: Optional[int] = None,
    collect_stats: bool = False,
    engine: Optional[str] = None,
) -> Solution[L]:
    """Iterate ``problem`` over ``view`` to its greatest fixpoint.

    ``strategy`` picks the worklist discipline (see the module docstring);
    ``max_visits`` caps relaxations per vertex (a divergence safety valve —
    :class:`SolverBudgetExceeded` is raised when exceeded); with
    ``collect_stats`` the returned :class:`Solution` carries a
    :class:`SolverStats` describing the work done.  ``engine`` overrides the
    scoped default (:func:`engine_scope`): ``"compiled"`` demands the
    bitset kernel (an error for non-separable problems and for
    ``round_robin``, which the kernel does not run), ``"generic"`` forces
    the oracle, ``"auto"`` — the default default — compiles ``rpo`` solves
    of the problems that declare a gen/kill lowering, but only on graphs
    with at least :data:`~repro.dataflow.compiled.AUTO_MIN_VERTICES`
    vertices; below that the kernel's fixed costs are not amortized and the
    generic solver is faster.
    """
    forward = problem.direction == "forward"
    if not forward and problem.direction != "backward":
        raise ValueError(f"bad direction {problem.direction!r}")
    if strategy not in SOLVER_STRATEGIES:
        raise ValueError(
            f"bad strategy {strategy!r}; choose from {SOLVER_STRATEGIES}"
        )
    if engine is None:
        engine = get_default_engine()
    if engine not in DATAFLOW_ENGINES:
        raise ValueError(
            f"bad dataflow engine {engine!r}; choose from {DATAFLOW_ENGINES}"
        )
    if engine == "compiled" and strategy != "rpo":
        raise ValueError(
            f"the compiled engine runs only the rpo order, not {strategy!r}"
        )
    if engine != "generic" and strategy == "rpo":
        separable = type(problem).as_genkill is not DataflowProblem.as_genkill
        if separable:
            from .compiled import AUTO_MIN_VERTICES, solve_compiled

            # Under "auto" the kernel must also *pay off*: on tiny graphs
            # its lowering/decode overhead loses to the generic solver, so
            # auto takes the generic path below the measured crossover.
            if (
                engine == "compiled"
                or view.cfg.num_vertices >= AUTO_MIN_VERTICES
            ):
                solution = solve_compiled(
                    problem,
                    view,
                    max_visits=max_visits,
                    collect_stats=collect_stats,
                )
                if solution is not None:
                    return solution
        elif engine == "compiled":
            raise ValueError(
                f"{type(problem).__name__} declares no gen/kill lowering; "
                f"it cannot run on the compiled engine"
            )

    cfg = view.cfg
    start = cfg.entry if forward else cfg.exit
    next_of = cfg.succs if forward else cfg.preds
    prev_of = cfg.preds if forward else cfg.succs

    value_in: dict[Vertex, L] = {}
    value_out: dict[Vertex, L] = {}
    for v in cfg.vertices:
        value_in[v] = problem.top()
        value_out[v] = problem.top()
    value_in[start] = problem.boundary()

    stats = SolverStats(strategy=strategy)

    def relax(v: Vertex) -> bool:
        """Recompute ``v``'s input and output; True if the output changed."""
        if max_visits is not None and stats.count(v) > max_visits:
            get_metrics().counter(
                "solver_budget_exceeded", strategy=strategy
            ).inc()
            raise SolverBudgetExceeded(
                f"vertex {v!r} relaxed more than {max_visits} times "
                f"(strategy={strategy})"
            )
        if max_visits is None:
            stats.count(v)
        preds = prev_of(v)
        if v == start:
            # The boundary always contributes, and so does every predecessor
            # — a start vertex with a self-loop or other incoming edge gets
            # both, on the first relaxation and on every later one.
            acc = problem.boundary()
            for p in preds:
                acc = problem.meet(acc, value_out[p])
            value_in[v] = acc
        elif preds:
            acc = value_out[preds[0]]
            for p in preds[1:]:
                acc = problem.meet(acc, value_out[p])
            value_in[v] = acc
        new_out = problem.transfer(v, view.block_of(v), value_in[v])
        if problem.equal(new_out, value_out[v]):
            return False
        value_out[v] = new_out
        return True

    with get_tracer().span(
        "dataflow.solve",
        strategy=strategy,
        direction=problem.direction,
        vertices=len(value_in),
        engine="generic",
    ) as span:
        if strategy == "round_robin":
            order = list(cfg.vertices)
            stats.peak_worklist = len(order)
            changed = True
            while changed:
                changed = False
                for v in order:
                    if relax(v):
                        changed = True
        else:  # rpo priority worklist
            prio = priority_order(cfg, forward)
            heap: list[tuple[int, Vertex]] = [(prio[v], v) for v in cfg.vertices]
            heapq.heapify(heap)
            on_list = set(cfg.vertices)
            stats.pushes = len(heap)
            while heap:
                stats.peak_worklist = max(stats.peak_worklist, len(heap))
                _, v = heapq.heappop(heap)
                on_list.discard(v)
                if relax(v):
                    for w in next_of(v):
                        if w not in on_list:
                            heapq.heappush(heap, (prio[w], w))
                            on_list.add(w)
                            stats.pushes += 1
        span.set(visits=stats.visits)

    _emit_solver_metrics(stats, max_visits)
    return Solution(value_in, value_out, stats if collect_stats else None)


#: Relaxations per vertex at the fixpoint; >8 on these small graphs means a
#: pathological iteration order worth investigating.
_VISIT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def _emit_solver_metrics(stats: SolverStats, max_visits: Optional[int]) -> None:
    """Publish one solve call's work accounting (no-op when metrics are
    disabled, so the solver costs nothing extra in normal runs)."""
    metrics = get_metrics()
    if not metrics.enabled:
        return
    labels = {"strategy": stats.strategy, "engine": stats.engine}
    metrics.counter("solver_solves", **labels).inc()
    metrics.counter("solver_visits", **labels).inc(stats.visits)
    metrics.counter("solver_pushes", **labels).inc(stats.pushes)
    metrics.histogram(
        "solver_max_visits_per_vertex", buckets=_VISIT_BUCKETS, **labels
    ).observe(stats.max_visits_per_vertex)
    if max_visits is not None:
        metrics.gauge("solver_visit_budget", **labels).set(max_visits)
