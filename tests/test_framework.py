"""Generic monotone-framework tests: the classic problem instances and the
solver's behaviour on irreducible graphs."""

import pytest

from repro.dataflow import GraphView, solve
from repro.dataflow.problems import (
    ALL,
    AvailableExpressions,
    CopyPropagation,
    LiveVariables,
    ReachingDefinitions,
)
from repro.dataflow.problems.available_exprs import expression_of
from repro.ir import BinOp, Const, IRBuilder, Var


def build_loop_fn():
    b = IRBuilder("f", ["n"])
    b.block("entry")
    b.assign("i", 0)
    b.assign("dead", 99)
    b.jump("head")
    b.block("head")
    b.binop("c", "lt", "i", "n")
    b.branch("c", "body", "done")
    b.block("body")
    b.binop("i", "add", "i", 1)
    b.jump("head")
    b.block("done")
    b.ret("i")
    return b.finish()


class TestLiveness:
    def test_loop_variables_live_at_head(self):
        fn = build_loop_fn()
        sol = solve(LiveVariables(), GraphView.from_function(fn))
        live_at_head = sol.value_out["head"]
        assert {"i", "n"} <= live_at_head
        assert "dead" not in live_at_head

    def test_nothing_live_after_exit(self):
        fn = build_loop_fn()
        sol = solve(LiveVariables(), GraphView.from_function(fn))
        assert sol.value_in["__exit__"] == frozenset()


class TestReachingDefinitions:
    def test_param_definition_reaches_uses(self):
        fn = build_loop_fn()
        view = GraphView.from_function(fn)
        problem = ReachingDefinitions(fn.params, view.cfg.entry)
        sol = solve(problem, view)
        assert ("__entry__", -1, "n") in sol.value_in["head"]

    def test_redefinition_kills(self):
        fn = build_loop_fn()
        view = GraphView.from_function(fn)
        sol = solve(ReachingDefinitions(fn.params, view.cfg.entry), view)
        # At `done`, i's reaching defs are the entry def and the body def.
        i_defs = {d for d in sol.value_in["done"] if d[2] == "i"}
        assert i_defs == {("entry", 0, "i"), ("body", 0, "i")}


class TestAvailableExpressions:
    def test_expression_canonicalization_commutes(self):
        a = expression_of(BinOp("x", "add", Var("a"), Var("b")))
        b = expression_of(BinOp("y", "add", Var("b"), Var("a")))
        assert a == b
        lt1 = expression_of(BinOp("x", "lt", Var("a"), Var("b")))
        lt2 = expression_of(BinOp("x", "lt", Var("b"), Var("a")))
        assert lt1 != lt2  # non-commutative

    def test_available_after_both_branches(self):
        b = IRBuilder("f", ["p", "a", "b"])
        b.block("entry")
        b.branch("p", "l", "r")
        b.block("l")
        b.binop("x", "add", "a", "b")
        b.jump("join")
        b.block("r")
        b.binop("y", "add", "b", "a")
        b.jump("join")
        b.block("join")
        b.ret()
        fn = b.finish()
        sol = solve(AvailableExpressions(), GraphView.from_function(fn))
        expr = expression_of(BinOp("z", "add", Var("a"), Var("b")))
        assert expr in sol.value_in["join"]

    def test_killed_by_operand_redefinition(self):
        b = IRBuilder("f", ["a", "b"])
        b.block("entry")
        b.binop("x", "add", "a", "b")
        b.load("a", "m", 0)
        b.jump("next")
        b.block("next")
        b.ret()
        fn = b.finish()
        sol = solve(AvailableExpressions(), GraphView.from_function(fn))
        expr = expression_of(BinOp("z", "add", Var("a"), Var("b")))
        assert expr not in sol.value_in["next"]

    def test_top_is_all(self):
        assert AvailableExpressions().top() is ALL


class TestCopyPropagation:
    def test_copy_survives_straight_line(self):
        b = IRBuilder("f", ["a"])
        b.block("entry")
        b.assign("x", "a")
        b.jump("next")
        b.block("next")
        b.ret("x")
        fn = b.finish()
        sol = solve(CopyPropagation(), GraphView.from_function(fn))
        assert ("x", "a") in sol.value_in["next"]

    def test_copy_killed_on_either_side(self):
        b = IRBuilder("f", ["a"])
        b.block("entry")
        b.assign("x", "a")
        b.load("a", "m", 0)
        b.jump("next")
        b.block("next")
        b.ret("x")
        fn = b.finish()
        sol = solve(CopyPropagation(), GraphView.from_function(fn))
        assert ("x", "a") not in sol.value_in["next"]

    def test_must_semantics_at_merge(self):
        b = IRBuilder("f", ["p", "a", "b"])
        b.block("entry")
        b.branch("p", "l", "r")
        b.block("l")
        b.assign("x", "a")
        b.jump("join")
        b.block("r")
        b.assign("x", "b")
        b.jump("join")
        b.block("join")
        b.ret("x")
        fn = b.finish()
        sol = solve(CopyPropagation(), GraphView.from_function(fn))
        assert sol.value_in["join"] == frozenset()


class TestSolverGenerality:
    def test_bad_direction_rejected(self):
        class Broken(LiveVariables):
            direction = "sideways"

        fn = build_loop_fn()
        with pytest.raises(ValueError):
            solve(Broken(), GraphView.from_function(fn))

    def test_irreducible_graph_converges(self):
        """The solver must handle irreducible graphs — the paper notes traced
        graphs are generally irreducible."""
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
        fn = b.finish()
        view = GraphView.from_function(fn)
        assert not view.cfg.is_reducible()
        sol = solve(LiveVariables(), view)  # must terminate
        assert "p" in sol.value_out["a"]

    def test_solution_is_fixpoint(self):
        fn = build_loop_fn()
        view = GraphView.from_function(fn)
        problem = LiveVariables()
        sol = solve(problem, view)
        # Re-applying the transfer changes nothing.
        for v in view.cfg.vertices:
            assert problem.transfer(v, view.block_of(v), sol.value_in[v]) == (
                sol.value_out[v]
            )


class TestEntryVertexWithPredecessors:
    """Regression: a start vertex with incoming edges (possible on hot-path
    graphs, where the analysis runs from a real block) must fold the back
    edge's contribution into its own input.  The old solver precomputed the
    start vertex's input from the boundary alone and never revisited it, so
    definitions flowing around a self-loop were dropped."""

    @staticmethod
    def _self_loop_view():
        from repro.ir.cfg import EXIT, Cfg

        b = IRBuilder("f", ["p"])
        b.block("loop")
        b.assign("x", 1)
        b.jump("loop")
        fn = b.finish()

        cfg = Cfg(entry="loop")
        cfg.add_vertex("loop")
        cfg.add_vertex(EXIT)
        cfg.add_edge("loop", "loop")
        cfg.add_edge("loop", EXIT)
        return fn, GraphView(cfg, fn.params, {"loop": fn.blocks["loop"]})

    def test_back_edge_reaches_entry_input(self):
        fn, view = self._self_loop_view()
        problem = ReachingDefinitions(fn.params, "loop")
        sol = solve(problem, view)
        # The boundary (parameter) definition...
        assert ("loop", -1, "p") in sol.value_in["loop"]
        # ...and the definition of x flowing around the self-loop.
        assert any(d[2] == "x" for d in sol.value_in["loop"])

    def test_entry_input_is_a_fixpoint(self):
        fn, view = self._self_loop_view()
        problem = ReachingDefinitions(fn.params, "loop")
        for strategy in ("rpo", "round_robin"):
            sol = solve(problem, view, strategy=strategy)
            merged = problem.boundary()
            for p in view.cfg.preds("loop"):
                merged = problem.meet(merged, sol.value_out[p])
            assert problem.equal(merged, sol.value_in["loop"]), strategy
            assert problem.equal(
                problem.transfer("loop", view.block_of("loop"), merged),
                sol.value_out["loop"],
            ), strategy
