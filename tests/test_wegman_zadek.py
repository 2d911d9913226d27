"""Wegman–Zadek conditional constant propagation tests, including the
soundness property: any constant the analysis claims must match what the
interpreter actually computes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import BOT, TOP, UNREACHABLE, GraphView, analyze
from repro.dataflow.local import local_constant_sites
from repro.dataflow.transfer import eval_pure
from repro.interp import Interpreter
from repro.ir import (
    Assign,
    BinOp,
    Const,
    IRBuilder,
    UnOp,
    Var,
)

from test_transfer_consistency import witness_values, witnessed


def analyze_fn(fn):
    return analyze(GraphView.from_function(fn))


class TestStraightLine:
    def test_constants_propagate_across_blocks(self):
        b = IRBuilder("f")
        b.block("entry")
        b.assign("x", 2)
        b.jump("next")
        b.block("next")
        b.binop("y", "mul", "x", 3)
        b.ret("y")
        result = analyze_fn(b.finish())
        assert result.constant_sites("next") == {0: 6}

    def test_params_are_bottom(self):
        b = IRBuilder("f", ["p"])
        b.block("entry")
        b.binop("y", "add", "p", 1)
        b.ret("y")
        result = analyze_fn(b.finish())
        assert result.site_values("entry")[0] is BOT

    def test_loads_and_calls_are_bottom(self):
        b = IRBuilder("f")
        b.block("entry")
        b.load("x", "mem", 0)
        b.call("y", "abs", 1)
        b.binop("z", "add", "x", "y")
        b.ret("z")
        values = analyze_fn(b.finish()).site_values("entry")
        assert values[0] is BOT and values[1] is BOT and values[2] is BOT


class TestMerges:
    def _diamond(self, left, right):
        b = IRBuilder("f", ["p"])
        b.block("entry")
        b.branch("p", "l", "r")
        b.block("l")
        b.assign("x", left)
        b.jump("join")
        b.block("r")
        b.assign("x", right)
        b.jump("join")
        b.block("join")
        b.binop("y", "add", "x", 1)
        b.ret("y")
        return b.finish()

    def test_equal_values_survive_merge(self):
        result = analyze_fn(self._diamond(5, 5))
        assert result.constant_sites("join") == {0: 6}

    def test_different_values_merge_to_bottom(self):
        result = analyze_fn(self._diamond(5, 7))
        assert result.site_values("join")[0] is BOT


class TestConditionalPruning:
    def test_constant_branch_prunes_dead_leg(self):
        b = IRBuilder("f")
        b.block("entry")
        b.assign("c", 1)
        b.branch("c", "live", "dead")
        b.block("live")
        b.assign("x", 10)
        b.jump("join")
        b.block("dead")
        b.assign("x", 99)
        b.jump("join")
        b.block("join")
        b.binop("y", "add", "x", 0)
        b.ret("y")
        result = analyze_fn(b.finish())
        assert not result.is_executable("dead")
        # x = 10 survives because the dead leg contributes nothing.
        assert result.constant_sites("join")[0] == 10

    def test_wz_beats_nonconditional_on_guarded_constants(self):
        """The classic conditional-constant example: a flag tested and the
        guarded region consistent with the flag's value."""
        b = IRBuilder("f")
        b.block("entry")
        b.assign("flag", 0)
        b.jump("test")
        b.block("test")
        b.branch("flag", "on", "off")
        b.block("on")
        b.assign("x", 1)
        b.jump("test2")
        b.block("off")
        b.assign("x", 2)
        b.jump("test2")
        b.block("test2")
        b.ret("x")
        result = analyze_fn(b.finish())
        assert not result.is_executable("on")
        env = result.input_env("test2")
        assert env.get("x") == 2

    def test_executable_edges_reported(self):
        b = IRBuilder("f", ["p"])
        b.block("entry")
        b.branch("p", "a", "c")
        b.block("a")
        b.ret()
        b.block("c")
        b.ret()
        result = analyze_fn(b.finish())
        assert ("entry", "a") in result.executable_edges
        assert ("entry", "c") in result.executable_edges

    def test_unreachable_vertex_has_no_sites(self):
        b = IRBuilder("f")
        b.block("entry")
        b.assign("c", 0)
        b.branch("c", "dead", "live")
        b.block("dead")
        b.assign("x", 1)
        b.ret("x")
        b.block("live")
        b.ret()
        result = analyze_fn(b.finish())
        assert result.input_env("dead") is UNREACHABLE
        assert result.site_values("dead") == {}
        assert result.output_env("dead") is UNREACHABLE


class TestLoops:
    def test_loop_carried_variable_goes_bottom(self):
        b = IRBuilder("f", ["n"])
        b.block("entry")
        b.assign("i", 0)
        b.jump("head")
        b.block("head")
        b.binop("c", "lt", "i", "n")
        b.branch("c", "body", "done")
        b.block("body")
        b.binop("i", "add", "i", 1)
        b.jump("head")
        b.block("done")
        b.ret("i")
        result = analyze_fn(b.finish())
        assert result.input_env("head").get("i") is BOT

    def test_loop_invariant_constant_survives(self):
        b = IRBuilder("f", ["n"])
        b.block("entry")
        b.assign("k", 7)
        b.assign("i", 0)
        b.jump("head")
        b.block("head")
        b.binop("c", "lt", "i", "n")
        b.branch("c", "body", "done")
        b.block("body")
        b.binop("x", "mul", "k", 2)  # non-local iterative constant
        b.binop("i", "add", "i", 1)
        b.jump("head")
        b.block("done")
        b.ret()
        result = analyze_fn(b.finish())
        assert result.constant_sites("body")[0] == 14


class TestPureConstantSites:
    def test_loads_excluded(self):
        b = IRBuilder("f")
        b.block("entry")
        b.load("x", "m", 0)
        b.assign("y", 3)
        b.ret("y")
        result = analyze_fn(b.finish())
        assert result.pure_constant_sites("entry") == {1: 3}


class TestLocalAnalysis:
    def test_local_chain(self):
        b = IRBuilder("f")
        b.block("entry")
        b.assign("a", 2)
        b.binop("b", "mul", "a", 3)
        b.binop("c", "add", "b", "a")
        b.ret("c")
        sites = local_constant_sites(b.finish().blocks["entry"])
        assert sites == {0: 2, 1: 6, 2: 8}

    def test_incoming_values_unknown(self):
        b = IRBuilder("f", ["p"])
        b.block("entry")
        b.assign("a", "p")
        b.binop("b", "add", "a", 1)
        b.ret("b")
        assert local_constant_sites(b.finish().blocks["entry"]) == {}

    def test_kill_on_opaque_redefinition(self):
        b = IRBuilder("f")
        b.block("entry")
        b.assign("a", 2)
        b.load("a", "m", 0)
        b.binop("b", "add", "a", 1)
        b.ret("b")
        assert local_constant_sites(b.finish().blocks["entry"]) == {0: 2}


class TestSoundness:
    """Whatever the analysis calls constant must equal the dynamic value."""

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_constants_match_execution(self, data):
        # A random diamond/loop-free program over small constants.
        b = IRBuilder("main", ["p"])
        b.block("entry")
        n_vars = data.draw(st.integers(1, 4))
        for i in range(n_vars):
            b.assign(f"v{i}", data.draw(st.integers(-3, 3)))
        b.branch("p", "left", "right")
        for side in ("left", "right"):
            b.block(side)
            for i in range(n_vars):
                if data.draw(st.booleans()):
                    b.assign(f"v{i}", data.draw(st.integers(-3, 3)))
            b.jump("join")
        b.block("join")
        op = data.draw(st.sampled_from(["add", "mul", "sub", "xor"]))
        b.binop("out", op, "v0", f"v{n_vars - 1}")
        b.ret("out")
        fn = b.finish()
        result = analyze_fn(fn)

        module, sites = witnessed(fn)
        for engine in ("reference", "compiled"):
            interp = Interpreter(module, profile_mode=None, engine=engine)
            for arg in (0, 1):
                run = interp.run([arg])
                for (label, idx), values in witness_values(run, sites).items():
                    consts = result.constant_sites(label)
                    if idx in consts:
                        assert values == [consts[idx]], (
                            engine,
                            label,
                            idx,
                            consts[idx],
                            values,
                        )
