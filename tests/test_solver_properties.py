"""Property-based solver tests: every worklist strategy reaches the same
fixpoint.

A seeded random-function generator produces small IR routines whose CFGs
include retreating edges and irreducible regions (branch targets are drawn
freely, so loops entered mid-body arise regularly — the shape the paper says
tracing produces).  For reaching definitions and constant propagation the
RPO-priority solver, the legacy LIFO solver, and the reference round-robin
solver must agree vertex-for-vertex, the result must be a true fixpoint
(one more transfer+meet pass changes nothing), and every computed value must
sit at or below the lattice top.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dataflow import GraphView, solve
from repro.dataflow.framework import (
    SOLVER_STRATEGIES,
    DataflowProblem,
    SolverBudgetExceeded,
    priority_order,
)
from repro.dataflow.problems import (
    ConstantPropagation,
    LiveVariables,
    ReachingDefinitions,
)
from repro.ir import IRBuilder

VARS = ("a", "b", "c", "p", "q")
PARAMS = ("p", "q")


# -- generator ----------------------------------------------------------------


@st.composite
def random_functions(draw, max_blocks: int = 7):
    """A structurally valid random routine.

    Branch/jump targets are drawn from *all* blocks, so back edges and
    multi-entry (irreducible) loop shapes occur; the last block always
    returns so the CFG has an exit edge.
    """
    n = draw(st.integers(min_value=1, max_value=max_blocks))
    labels = [f"b{i}" for i in range(n)]
    b = IRBuilder("f", PARAMS)

    def operand():
        if draw(st.booleans()):
            return draw(st.sampled_from(VARS))
        return draw(st.integers(min_value=-4, max_value=4))

    for i, label in enumerate(labels):
        b.block(label)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            dest = draw(st.sampled_from(VARS))
            kind = draw(st.integers(min_value=0, max_value=2))
            if kind == 0:
                b.assign(dest, draw(st.integers(min_value=-4, max_value=4)))
            elif kind == 1:
                b.binop(
                    dest,
                    draw(st.sampled_from(("add", "mul"))),
                    operand(),
                    operand(),
                )
            else:
                b.assign(dest, draw(st.sampled_from(VARS)))
        if i == n - 1 or draw(st.integers(min_value=0, max_value=5)) == 0:
            b.ret(draw(st.sampled_from(VARS)))
        elif draw(st.booleans()):
            b.jump(labels[draw(st.integers(min_value=0, max_value=n - 1))])
        else:
            t = labels[draw(st.integers(min_value=0, max_value=n - 1))]
            f = labels[draw(st.integers(min_value=0, max_value=n - 1))]
            if t == f:
                b.jump(t)
            else:
                b.branch(draw(st.sampled_from(VARS)), t, f)
    return b.finish()


def _problems(fn, view):
    return [
        ReachingDefinitions(fn.params, view.cfg.entry),
        ConstantPropagation(fn.params),
    ]


def _manual_relax(problem, view, sol, vertex):
    """One more transfer+meet pass at ``vertex``; the resulting output."""
    cfg = view.cfg
    forward = problem.direction == "forward"
    start = cfg.entry if forward else cfg.exit
    prev_of = cfg.preds if forward else cfg.succs
    preds = prev_of(vertex)
    if vertex == start:
        acc = problem.boundary()
        for p in preds:
            acc = problem.meet(acc, sol.value_out[p])
    elif preds:
        acc = sol.value_out[preds[0]]
        for p in preds[1:]:
            acc = problem.meet(acc, sol.value_out[p])
    else:
        acc = sol.value_in[vertex]
    return acc, problem.transfer(vertex, view.block_of(vertex), acc)


# -- properties ---------------------------------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fn=random_functions())
def test_all_strategies_reach_the_same_fixpoint(fn):
    view = GraphView.from_function(fn)
    for problem in _problems(fn, view):
        solutions = {
            s: solve(problem, view, strategy=s) for s in SOLVER_STRATEGIES
        }
        reference = solutions["round_robin"]
        for name, sol in solutions.items():
            for v in view.cfg.vertices:
                assert problem.equal(sol.value_in[v], reference.value_in[v]), (
                    name,
                    v,
                )
                assert problem.equal(sol.value_out[v], reference.value_out[v]), (
                    name,
                    v,
                )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fn=random_functions())
def test_solution_is_an_idempotent_fixpoint_below_top(fn):
    view = GraphView.from_function(fn)
    for problem in _problems(fn, view):
        sol = solve(problem, view)
        top = problem.top()
        for v in view.cfg.vertices:
            new_in, new_out = _manual_relax(problem, view, sol, v)
            assert problem.equal(new_in, sol.value_in[v]), v
            assert problem.equal(new_out, sol.value_out[v]), v
            # The fixpoint sits at or below the lattice top.
            assert problem.equal(
                problem.meet(sol.value_out[v], top), sol.value_out[v]
            ), v


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fn=random_functions())
def test_priority_order_is_a_permutation(fn):
    cfg = GraphView.from_function(fn).cfg
    for forward in (True, False):
        prio = priority_order(cfg, forward)
        assert set(prio) == set(cfg.vertices)
        assert sorted(prio.values()) == list(range(cfg.num_vertices))
    assert priority_order(cfg, True)[cfg.entry] == 0


# -- deterministic cases ------------------------------------------------------


def _irreducible_fn():
    """The classic two-entry loop: b and c jump into each other's loop."""
    b = IRBuilder("f", ["p"])
    b.block("a")
    b.branch("p", "b", "c")
    b.block("b")
    b.assign("x", 1)
    b.branch("p", "c", "out")
    b.block("c")
    b.assign("y", 2)
    b.jump("b")
    b.block("out")
    b.ret("x")
    return b.finish()


def test_strategies_agree_on_irreducible_graph():
    fn = _irreducible_fn()
    view = GraphView.from_function(fn)
    assert not view.cfg.is_reducible()
    assert view.cfg.retreating_edges()
    for problem in _problems(fn, view) + [LiveVariables()]:
        sols = [solve(problem, view, strategy=s) for s in SOLVER_STRATEGIES]
        for sol in sols[1:]:
            for v in view.cfg.vertices:
                assert problem.equal(sol.value_out[v], sols[0].value_out[v])


def test_rpo_visits_each_chain_vertex_at_most_twice():
    b = IRBuilder("f", ["p"])
    n = 30
    for i in range(n):
        b.block(f"b{i}")
        b.assign("x", i)
        if i == n - 1:
            b.ret("x")
        else:
            b.jump(f"b{i + 1}")
    fn = b.finish()
    view = GraphView.from_function(fn)
    problem = ReachingDefinitions(fn.params, view.cfg.entry)
    for engine in ("generic", "compiled"):
        rpo = solve(problem, view, engine=engine, collect_stats=True)
        # RPO relaxes each chain vertex at most twice (once to leave top,
        # once to confirm) on either engine.
        assert rpo.stats.max_visits_per_vertex <= 2, engine


def test_budget_trips_on_non_monotone_transfer():
    class Diverging(DataflowProblem):
        direction = "forward"

        def top(self):
            return 0

        def meet(self, a, b):
            return max(a, b)

        def boundary(self):
            return 0

        def transfer(self, vertex, block, value):
            return value + 1  # infinite ascending chain: never stabilizes

    b = IRBuilder("f", [])
    b.block("entry")
    b.jump("entry")
    fn = b.finish()
    view = GraphView.from_function(fn)
    with pytest.raises(SolverBudgetExceeded):
        solve(Diverging(), view, max_visits=10)


def test_bad_strategy_rejected():
    fn = _irreducible_fn()
    view = GraphView.from_function(fn)
    with pytest.raises(ValueError):
        solve(LiveVariables(), view, strategy="fifo")
