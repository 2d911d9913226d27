"""Interpreter tests: semantics, traps, costs, taint, and limits."""

import pytest

from repro.interp import (
    CostModel,
    ExecutionLimit,
    Interpreter,
    Trap,
    run_module,
)
from repro.ir import ArrayDecl, IRBuilder, Module


def make_module(build_main, arrays=()):
    m = Module()
    for decl in arrays:
        m.add_array(decl)
    b = IRBuilder("main", build_main.__defaults__[0] if False else [])
    return m, b


def module_of(fn, arrays=()):
    m = Module()
    for decl in arrays:
        m.add_array(decl)
    m.add_function(fn)
    return m


class TestBasics:
    def test_return_value(self):
        b = IRBuilder("main", ["a", "b"])
        b.block("entry")
        b.binop("s", "add", "a", "b")
        b.ret("s")
        result = run_module(module_of(b.finish()), args=[3, 4])
        assert result.return_value == 7

    def test_arg_count_checked(self):
        b = IRBuilder("main", ["a"])
        b.block("entry")
        b.ret("a")
        with pytest.raises(Trap, match="expects 1"):
            run_module(module_of(b.finish()), args=[])

    def test_missing_entry_function(self):
        b = IRBuilder("main")
        b.block("entry")
        b.ret()
        with pytest.raises(Trap, match="no function"):
            run_module(module_of(b.finish()), entry_function="ghost")

    def test_undefined_variable_traps(self):
        b = IRBuilder("main")
        b.block("entry")
        b.binop("x", "add", "ghost", 1)
        b.ret("x")
        with pytest.raises(Trap, match="undefined variable"):
            run_module(module_of(b.finish()))

    def test_instr_count_includes_terminators(self):
        b = IRBuilder("main")
        b.block("entry")
        b.assign("x", 1)
        b.ret("x")
        result = run_module(module_of(b.finish()))
        assert result.instr_count == 2

    def test_block_counts(self):
        b = IRBuilder("main", ["n"])
        b.block("entry")
        b.assign("i", 0)
        b.jump("loop")
        b.block("loop")
        b.binop("c", "lt", "i", "n")
        b.branch("c", "body", "done")
        b.block("body")
        b.binop("i", "add", "i", 1)
        b.jump("loop")
        b.block("done")
        b.ret()
        result = run_module(module_of(b.finish()), args=[3])
        assert result.block_counts[("main", "body")] == 3
        assert result.block_counts[("main", "loop")] == 4


class TestMemory:
    def _array_module(self):
        b = IRBuilder("main", ["i"])
        b.block("entry")
        b.load("x", "a", "i")
        b.store("a", 0, "x")
        b.ret("x")
        return module_of(b.finish(), [ArrayDecl("a", 4, (5, 6, 7, 8))])

    def test_load_store(self):
        result = run_module(self._array_module(), args=[2])
        assert result.return_value == 7
        assert result.memory["a"] == [7, 6, 7, 8]

    @pytest.mark.parametrize("index", [-1, 4, 100])
    def test_out_of_bounds_load_traps(self, index):
        with pytest.raises(Trap, match="out of range"):
            run_module(self._array_module(), args=[index])

    def test_inputs_override_arrays(self):
        result = run_module(self._array_module(), args=[1], inputs={"a": [9, 9]})
        assert result.return_value == 9

    def test_unknown_input_array_rejected(self):
        with pytest.raises(Trap, match="not declared"):
            run_module(self._array_module(), args=[0], inputs={"zzz": [1]})

    def test_oversized_input_rejected(self):
        with pytest.raises(Trap, match="holds"):
            run_module(self._array_module(), args=[0], inputs={"a": [0] * 10})

    def test_undeclared_array_traps(self):
        b = IRBuilder("main")
        b.block("entry")
        b.load("x", "ghost", 0)
        b.ret("x")
        with pytest.raises(Trap, match="undeclared array"):
            run_module(module_of(b.finish()))


class TestCalls:
    def test_user_function_call(self):
        m = Module()
        b = IRBuilder("double", ["x"])
        b.block("entry")
        b.binop("r", "mul", "x", 2)
        b.ret("r")
        m.add_function(b.finish())
        b = IRBuilder("main", ["n"])
        b.block("entry")
        b.call("r", "double", "n")
        b.ret("r")
        m.add_function(b.finish())
        assert run_module(m, args=[21]).return_value == 42

    def test_call_depth_limit(self):
        b = IRBuilder("main")
        b.block("entry")
        b.call("r", "main")
        b.ret("r")
        with pytest.raises(Trap, match="depth"):
            run_module(module_of(b.finish()))

    def test_void_result_used_traps(self):
        m = Module()
        b = IRBuilder("noret", [])
        b.block("entry")
        b.ret()
        m.add_function(b.finish())
        b = IRBuilder("main")
        b.block("entry")
        b.call("r", "noret")
        b.ret("r")
        m.add_function(b.finish())
        with pytest.raises(Trap, match="returned no value"):
            run_module(m)

    @pytest.mark.parametrize(
        "func,args,expected",
        [
            ("abs", [-3], 3),
            ("min2", [4, 9], 4),
            ("max2", [4, 9], 9),
            ("clamp", [99, 0, 10], 10),
            ("clamp", [-5, 0, 10], 0),
            ("clamp", [5, 0, 10], 5),
        ],
    )
    def test_builtins(self, func, args, expected):
        b = IRBuilder("main", [f"a{i}" for i in range(len(args))])
        b.block("entry")
        b.call("r", func, *[f"a{i}" for i in range(len(args))])
        b.ret("r")
        assert run_module(module_of(b.finish()), args=args).return_value == expected

    def test_builtin_arity_trap(self):
        b = IRBuilder("main")
        b.block("entry")
        b.call("r", "abs", 1, 2)
        b.ret("r")
        with pytest.raises(Trap, match="expects 1"):
            run_module(module_of(b.finish()))


class TestLimits:
    def test_execution_limit(self):
        b = IRBuilder("main")
        b.block("entry")
        b.jump("spin")
        b.block("spin")
        b.jump("spin")
        m = module_of(b.finish())
        with pytest.raises(ExecutionLimit):
            Interpreter(m, max_steps=1000).run()


class TestCostModel:
    def _straightline(self, *ops):
        b = IRBuilder("main")
        b.block("entry")
        for i, (op, a, c) in enumerate(ops):
            b.binop(f"x{i}", op, a, c)
        b.ret()
        return module_of(b.finish())

    def test_mul_costs_more_than_add(self):
        cm = CostModel()
        add = run_module(self._straightline(("add", 1, 2)), cost_model=cm).cost
        mul = run_module(self._straightline(("mul", 1, 2)), cost_model=cm).cost
        assert mul - add == cm.mul - cm.binop > 0

    def test_fallthrough_is_free_taken_jump_pays(self):
        cm = CostModel()
        # jump to the next block in layout order: no penalty.
        b = IRBuilder("main")
        b.block("entry")
        b.jump("next")
        b.block("next")
        b.ret()
        fall = run_module(module_of(b.finish()), cost_model=cm).cost
        # jump over a block: taken penalty.
        b = IRBuilder("main")
        b.block("entry")
        b.jump("far")
        b.block("middle")
        b.ret()
        b.block("far")
        b.jump("middle")
        m = module_of(b.finish())
        m.functions["main"].blocks["middle"]  # keep it reachable via far
        taken = run_module(m, cost_model=cm).cost
        assert taken > fall

    def test_costs_are_deterministic(self):
        m = self._straightline(("add", 1, 2), ("div", 4, 2))
        assert run_module(m).cost == run_module(m).cost


class TestTaint:
    def test_params_and_loads_are_tainted_constants_are_not(self):
        b = IRBuilder("main", ["p"])
        b.block("entry")
        b.assign("c", 41)                  # untainted
        b.binop("c2", "add", "c", 1)       # untainted
        b.binop("t", "add", "p", 1)        # tainted via param
        b.load("l", "a", 0)                # tainted via memory
        b.ret("c2")
        m = module_of(b.finish(), [ArrayDecl("a", 1)])
        result = run_module(m, args=[5])
        assert result.tainted == {"main": 2}

    def test_call_results_are_tainted(self):
        m = Module()
        b = IRBuilder("konst")
        b.block("entry")
        b.ret(7)
        m.add_function(b.finish())
        b = IRBuilder("main")
        b.block("entry")
        b.call("r", "konst")
        b.binop("r2", "add", "r", 0)
        b.ret("r2")
        m.add_function(b.finish())
        result = run_module(m)
        assert result.tainted == {"main": 2}

    def test_profile_modes(self):
        b = IRBuilder("main")
        b.block("entry")
        b.ret()
        m = module_of(b.finish())
        assert run_module(m, profile_mode=None).profiles == {}
        both = run_module(m, profile_mode="both")
        assert both.profiles["main"] == both.trace_profiles["main"]
        with pytest.raises(ValueError):
            run_module(m, profile_mode="wibble")


def loop_module():
    b = IRBuilder("main", ["n"])
    b.block("entry")
    b.assign("i", 0)
    b.jump("loop")
    b.block("loop")
    b.binop("c", "lt", "i", "n")
    b.branch("c", "body", "done")
    b.block("body")
    b.binop("i", "add", "i", 1)
    b.jump("loop")
    b.block("done")
    b.ret()
    return module_of(b.finish())


class TestRecursionLimit:
    def test_limit_restored_after_run(self):
        import sys

        b = IRBuilder("main")
        b.block("entry")
        b.ret()
        m = module_of(b.finish())
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1500)
            run_module(m)
            assert sys.getrecursionlimit() == 1500
        finally:
            sys.setrecursionlimit(saved)

    def test_limit_restored_after_trap(self):
        import sys

        b = IRBuilder("main")
        b.block("entry")
        b.binop("x", "add", "ghost", 1)
        b.ret("x")
        m = module_of(b.finish())
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1500)
            with pytest.raises(Trap):
                run_module(m)
            assert sys.getrecursionlimit() == 1500
        finally:
            sys.setrecursionlimit(saved)

    def test_higher_existing_limit_untouched(self):
        import sys

        b = IRBuilder("main")
        b.block("entry")
        b.ret()
        m = module_of(b.finish())
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(9000)
            run_module(m)
            assert sys.getrecursionlimit() == 9000
        finally:
            sys.setrecursionlimit(saved)


class TestProfileCrossValidation:
    def test_both_mode_agrees_on_retreating_edge(self):
        # The loop's back edge is a retreating (recording) edge, so each
        # iteration terminates one Ball-Larus path; the efficient profiler
        # must agree with the trace-splitting oracle path-for-path.
        from repro.ir.cfg import Cfg
        from repro.profiles import recording_edges

        m = loop_module()
        cfg = Cfg.from_function(m.functions["main"])
        assert ("body", "loop") in recording_edges(cfg)
        result = run_module(m, args=[3], profile_mode="both")
        assert result.profiles["main"] == result.trace_profiles["main"]
        assert result.profiles["main"].num_distinct >= 3
        assert result.profiles["main"].total_count >= 4
