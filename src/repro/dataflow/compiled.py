"""Bitset-compiled kernel for separable (gen/kill) dataflow problems.

The generic solver of :mod:`repro.dataflow.framework` re-executes each
block's transfer function — a Python loop over instructions allocating
``frozenset``s — on every relaxation.  For the classic *separable* problems
(reaching definitions, liveness, available expressions, very busy
expressions, copy propagation) each fact evolves independently: a block
either sets it, clears it, or leaves it alone.  Any such transfer collapses
to two constants computable once per block::

    f(X) = gen | (X & ~kill)

where ``gen`` is the net effect on the empty set and ``kill`` covers every
fact the block may clear (a fact both cleared and later re-set lands in
``gen``, which wins the ``|``).  This kernel lowers a problem once to those
``(gen, kill)`` Python-int bitsets (arbitrary precision: one int *is* the
whole bit vector, and ``&``/``|``/``~`` run word-parallel in C), then
iterates the generic engine's ``rpo`` priority worklist over preallocated
``IN``/``OUT`` lists indexed by dense vertex id — no hashing, no set
allocation, no per-iteration transfer interpretation.

A problem opts in by overriding
:meth:`~repro.dataflow.framework.DataflowProblem.as_genkill` (usually via
:func:`build_genkill`); :func:`~repro.dataflow.framework.solve` dispatches
here automatically under ``engine="auto"``.  The generic path remains the
oracle — differential tests assert both engines produce identical
:class:`~repro.dataflow.framework.Solution`s, including identical
:class:`~repro.dataflow.framework.SolverStats` work accounting, on plain
CFGs and on hot-path graphs.

Must problems and the ``ALL`` sentinel
--------------------------------------
The intersection-meet problems use the universal-set token ``ALL`` as top,
and their transfers treat an ``ALL`` input to a *real* block as the empty
set (``ALL`` only legitimately flows through virtual vertices).  The kernel
mirrors this exactly with ``None`` as the in-band ``ALL``: ``None`` is the
meet identity, a real block transfers it as ``0``, a virtual vertex passes
it through, and the decode step maps it back to the problem's ``top()`` —
so even vertices unreachable in the analysis direction decode to the same
values the generic engine computes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional

from ..obs import get_metrics, get_tracer
from .dense import DenseGraph, FactIndex
from .framework import (
    Solution,
    SolverBudgetExceeded,
    SolverStats,
    _emit_solver_metrics,
)
from .graph_view import GraphView

Vertex = Hashable

#: Below this many CFG vertices ``engine="auto"`` prefers the generic
#: solver: the kernel's fixed costs (gen/kill lowering, dense-graph
#: freezing, mask decode) are not amortized on tiny graphs.  Measured on
#: organic generated programs and the SPEC95-alike workload CFGs
#: (``benchmarks/bench_suite.py``): the kernel loses 0.4–0.9x below ~10
#: vertices and wins from ~13 up (1.1–1.9x), so the boundary sits in the
#: break-even band.  ``engine="compiled"`` still forces the kernel at any
#: size; ``tests/test_compiled_dataflow.py`` pins both sides.
AUTO_MIN_VERTICES = 12

#: Bits per machine word of a CPython big int (the unit of meet parallelism).
_WORD_BITS = 64


@dataclass
class GenKillSpec:
    """A separable problem lowered over one graph view.

    ``gen``/``kill`` hold one bitset per *real* vertex (virtual vertices are
    identity and appear in neither); ``meet`` is ``"union"`` or
    ``"intersection"``; ``top`` is the decoded value of the never-visited
    state (only meaningful for intersection problems, where it is the
    ``ALL`` sentinel).
    """

    meet: str
    top: object
    facts: FactIndex
    boundary_mask: int
    universe_mask: int
    gen: dict
    kill: dict

    @property
    def words_per_meet(self) -> int:
        """Machine words one ``&``/``|`` touches — the parallelism won."""
        return max(1, -(-len(self.facts) // _WORD_BITS))


def build_genkill(
    problem,
    view: GraphView,
    *,
    meet: str,
    lower_block: Callable,
    fact_vars: Callable,
) -> GenKillSpec:
    """Lower ``problem`` over ``view`` to per-vertex gen/kill bitsets.

    ``lower_block(vertex, block) -> (gen_facts, killed_vars)`` must return
    the block's *net* gen facts (its transfer of the empty set, in emission
    order) and every variable it defines; ``fact_vars(fact)`` names the
    variables whose redefinition clears the fact.  The fact universe is the
    boundary value plus every block's gen facts — by induction every value
    the fixpoint iteration can produce is drawn from it, so the masks lose
    nothing.
    """
    if meet not in ("union", "intersection"):
        raise ValueError(f"bad meet kind {meet!r}")
    boundary = problem.boundary()
    facts = FactIndex()
    for fact in boundary:
        facts.add(fact)
    lowered: dict = {}
    for v in view.cfg.vertices:
        block = view.block_of(v)
        if block is None:
            continue
        gen_facts, killed_vars = lower_block(v, block)
        lowered[v] = (gen_facts, killed_vars)
        for fact in gen_facts:
            facts.add(fact)
    universe = (1 << len(facts)) - 1
    var_masks: dict = {}
    for fid, fact in enumerate(facts.facts):
        bit = 1 << fid
        for name in fact_vars(fact):
            var_masks[name] = var_masks.get(name, 0) | bit
    gen: dict = {}
    kill: dict = {}
    for v, (gen_facts, killed_vars) in lowered.items():
        gen[v] = facts.mask_of(gen_facts)
        k = 0
        for name in killed_vars:
            k |= var_masks.get(name, 0)
        kill[v] = k
    return GenKillSpec(
        meet=meet,
        top=problem.top(),
        facts=facts,
        boundary_mask=facts.mask_of(boundary),
        universe_mask=universe,
        gen=gen,
        kill=kill,
    )


def solve_compiled(
    problem,
    view: GraphView,
    *,
    max_visits: Optional[int] = None,
    collect_stats: bool = False,
) -> Optional[Solution]:
    """Solve a separable problem through its gen/kill lowering.

    Returns ``None`` when the problem's ``as_genkill`` declines this view
    (the caller falls back to the generic engine).  Otherwise the returned
    :class:`Solution` — values decoded back to ``frozenset``s (or the
    problem's top sentinel) keyed by the original vertices — is equal to the
    generic engine's ``rpo`` solve, stats included.
    """
    tracer = get_tracer()
    cfg = view.cfg
    forward = problem.direction == "forward"
    with tracer.span(
        "dataflow.compile", direction=problem.direction, engine="compiled"
    ) as cspan:
        spec = problem.as_genkill(view)
        if spec is None:
            return None
        dense = DenseGraph(cfg, forward)
        n = len(dense)
        universe = spec.universe_mask
        gen = [0] * n
        keep = [universe] * n
        real = bytearray(n)
        id_of = dense.id_of
        for v, mask in spec.gen.items():
            vid = id_of[v]
            gen[vid] = mask
            keep[vid] = universe & ~spec.kill[v]
            real[vid] = 1
        cspan.set(vertices=n, facts=len(spec.facts))

    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("dataflow_compiled_solves", direction=problem.direction).inc()
        metrics.gauge("dataflow_words_per_meet").set(spec.words_per_meet)

    is_union = spec.meet == "union"
    top0 = 0 if is_union else None
    IN: list = [top0] * n
    OUT: list = [top0] * n
    start_id = dense.start_id
    IN[start_id] = spec.boundary_mask
    prev_ids = dense.prev_ids
    next_ids = dense.next_ids
    counts = [0] * n
    visits = 0
    stats = SolverStats(strategy="rpo", engine="compiled")

    def relax(vid: int) -> bool:
        """Dense-id twin of the generic solver's ``relax``."""
        nonlocal visits
        visits += 1
        c = counts[vid] + 1
        counts[vid] = c
        if max_visits is not None and c > max_visits:
            get_metrics().counter("solver_budget_exceeded", strategy="rpo").inc()
            raise SolverBudgetExceeded(
                f"vertex {dense.verts[vid]!r} relaxed more than {max_visits} "
                f"times (strategy=rpo)"
            )
        preds = prev_ids[vid]
        if vid == start_id:
            acc = spec.boundary_mask
            if is_union:
                for p in preds:
                    acc |= OUT[p]
            else:
                for p in preds:
                    out = OUT[p]
                    if out is not None:
                        acc &= out
            IN[vid] = acc
        elif preds:
            if is_union:
                acc = 0
                for p in preds:
                    acc |= OUT[p]
            else:
                acc = None
                for p in preds:
                    out = OUT[p]
                    if out is not None:
                        acc = out if acc is None else acc & out
            IN[vid] = acc
        x = IN[vid]
        if real[vid]:
            if x is None:
                # ALL reaching a real block is treated as the empty set,
                # exactly like the generic must-problem transfers.
                x = 0
            new_out = (x & keep[vid]) | gen[vid]
        else:
            new_out = x
        if new_out == OUT[vid] or (new_out is None and OUT[vid] is None):
            return False
        OUT[vid] = new_out
        return True

    with tracer.span(
        "dataflow.solve",
        strategy="rpo",
        direction=problem.direction,
        vertices=n,
        engine="compiled",
    ) as span:
        # The rpo priority worklist: a vertex's dense id IS its priority, so
        # the ascending ids seed an already valid heap of every vertex.
        heap = list(range(n))
        on_list = bytearray(b"\x01") * n
        stats.pushes = n
        while heap:
            if len(heap) > stats.peak_worklist:
                stats.peak_worklist = len(heap)
            vid = heapq.heappop(heap)
            on_list[vid] = 0
            if relax(vid):
                for w in next_ids[vid]:
                    if not on_list[w]:
                        heapq.heappush(heap, w)
                        on_list[w] = 1
                        stats.pushes += 1
        span.set(visits=visits)

    stats.visits = visits
    verts = dense.verts
    stats.visits_by_vertex = {
        verts[vid]: c for vid, c in enumerate(counts) if c
    }
    _emit_solver_metrics(stats, max_visits)

    decode = spec.facts.decode
    top = spec.top
    # Equal masks decode to one shared frozenset — pass-through chains alias
    # their neighbour's value just like the generic solver (whose virtual
    # transfer returns its input object), keeping the decoded Solution's
    # footprint at parity with the oracle's.
    seen: dict = {}

    def decoded(x):
        if x is None:
            return top
        val = seen.get(x)
        if val is None:
            val = seen[x] = decode(x)
        return val

    value_in: dict = {}
    value_out: dict = {}
    for v in cfg.vertices:
        vid = id_of[v]
        value_in[v] = decoded(IN[vid])
        value_out[v] = decoded(OUT[vid])
    return Solution(value_in, value_out, stats if collect_stats else None)
