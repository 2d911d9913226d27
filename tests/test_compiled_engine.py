"""Differential tests: the block-compiled engine vs. the tree-walking oracle.

Every assertion here compares complete :class:`RunResult` values — output,
cost, instruction counts, block counts, path profiles, trace profiles, taint
counts, and final memory — so the fast path can never silently diverge from
the reference semantics.  The running-example case runs in the fast tier on
every test invocation; the full-workload ref runs are ``slow``-marked.
"""

import pytest

from repro.frontend import compile_program
from repro.interp import ExecutionLimit, Interpreter, Trap, run_module
from repro.ir import ArrayDecl, IRBuilder, Module
from repro.workloads import WORKLOAD_NAMES, get_workload, training_run_inputs

RESULT_FIELDS = (
    "return_value",
    "output",
    "instr_count",
    "cost",
    "block_counts",
    "profiles",
    "trace_profiles",
    "tainted",
    "memory",
)


#: Reads of ``y`` that Python evaluates without touching an undefined
#: (``None``) operand: equality, logical not, and the early returns for a
#: zero divisor or a negative shift count.
UNDEFINED_OPERAND_EXPRS = (
    "y == 1",
    "3 == y",
    "y != 1",
    "!y",
    "y / n",
    "y % n",
    "y << (n - 1)",
    "y >> (n - 1)",
)


def module_of(fn, arrays=()):
    m = Module()
    for decl in arrays:
        m.add_array(decl)
    m.add_function(fn)
    return m


def assert_results_equal(ref, com):
    for field in RESULT_FIELDS:
        assert getattr(ref, field) == getattr(com, field), field
    assert ref == com


def run_both(module, args=(), inputs=None, **kwargs):
    ref = run_module(module, args, inputs, engine="reference", **kwargs)
    com = run_module(module, args, inputs, engine="compiled", **kwargs)
    assert_results_equal(ref, com)
    return ref, com


class TestRunningExample:
    def test_differential_full_result(self, example_module):
        """Tier-1 guard: byte-identical RunResult on the running example."""
        n, inputs = training_run_inputs()
        run_both(example_module, [n], inputs, profile_mode="both")

    @pytest.mark.parametrize("mode", [None, "bl", "trace", "both"])
    def test_differential_all_profile_modes(self, example_module, mode):
        n, inputs = training_run_inputs()
        run_both(example_module, [n], inputs, profile_mode=mode)

    def test_differential_without_site_tracking(self, example_module):
        n, inputs = training_run_inputs()
        run_both(example_module, [n], inputs, track_sites=False)


class TestWorkloads:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_train_run_differential(self, name):
        w = get_workload(name)
        module = compile_program(w.source)
        run_both(module, w.train_args, w.train_inputs, track_sites=False)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_ref_run_differential(self, name):
        w = get_workload(name)
        module = compile_program(w.source)
        run_both(module, w.ref_args, w.ref_inputs, profile_mode="both")


class TestTrapEquivalence:
    """Both engines raise the same Trap with the same message."""

    def _trap_both(self, module, args=(), match=""):
        with pytest.raises(Trap, match=match) as ref_exc:
            run_module(module, args, engine="reference")
        with pytest.raises(Trap, match=match) as com_exc:
            run_module(module, args, engine="compiled")
        assert str(ref_exc.value) == str(com_exc.value)

    def test_undefined_variable(self):
        b = IRBuilder("main")
        b.block("entry")
        b.binop("x", "add", "ghost", 1)
        b.ret("x")
        self._trap_both(module_of(b.finish()), match="undefined variable")

    @pytest.mark.parametrize("expr", UNDEFINED_OPERAND_EXPRS)
    def test_undefined_operand_skipped_by_python(self, expr):
        """A variable declared in one branch and read after it is undefined
        when the branch is skipped, whichever operator reads it."""
        source = f"func main(n) {{ if (n) {{ var y = 1; }} return {expr}; }}"
        self._trap_both(
            compile_program(source), [0], match="undefined variable 'y'"
        )

    def test_undefined_store_index_named_before_value(self):
        b = IRBuilder("main")
        b.block("entry")
        b.store("a", "ghost_index", "ghost_value")
        b.ret(0)
        m = module_of(b.finish(), [ArrayDecl("a", 4)])
        self._trap_both(m, match="'ghost_index'")

    def test_out_of_bounds_load(self):
        b = IRBuilder("main", ["i"])
        b.block("entry")
        b.load("x", "a", "i")
        b.ret("x")
        m = module_of(b.finish(), [ArrayDecl("a", 4)])
        self._trap_both(m, args=[9], match="out of range")

    def test_call_depth_limit(self):
        b = IRBuilder("main")
        b.block("entry")
        b.call("r", "main")
        b.ret("r")
        self._trap_both(module_of(b.finish()), match="depth")

    def test_void_result_used(self):
        m = Module()
        b = IRBuilder("noret")
        b.block("entry")
        b.ret()
        m.add_function(b.finish())
        b = IRBuilder("main")
        b.block("entry")
        b.call("r", "noret")
        b.ret("r")
        m.add_function(b.finish())
        self._trap_both(m, match="returned no value")

    def test_builtin_arity(self):
        b = IRBuilder("main")
        b.block("entry")
        b.call("r", "abs", 1, 2)
        b.ret("r")
        self._trap_both(module_of(b.finish()), match="expects 1")

    def test_dead_bad_code_does_not_trap(self):
        # A load from an undeclared array in a dead block must not trap at
        # compile time in either engine.
        b = IRBuilder("main")
        b.block("entry")
        b.jump("out")
        b.block("dead")
        b.load("x", "ghost", 0)
        b.jump("out")
        b.block("out")
        b.ret()
        run_both(module_of(b.finish()))

    def test_execution_limit(self):
        b = IRBuilder("main")
        b.block("entry")
        b.jump("spin")
        b.block("spin")
        b.jump("spin")
        m = module_of(b.finish())
        for engine in ("reference", "compiled"):
            with pytest.raises(ExecutionLimit):
                Interpreter(m, max_steps=1000, engine=engine).run()


class TestEngineSelection:
    def test_bad_engine_rejected(self, example_module):
        with pytest.raises(ValueError, match="bad engine"):
            Interpreter(example_module, engine="jit")

    def test_compile_time_surfaced(self, example_module):
        interp = Interpreter(example_module, engine="compiled")
        assert interp.engine_compile_time > 0
        assert Interpreter(example_module).engine_compile_time == 0.0

    def test_repeated_runs_share_numbering(self, example_module):
        interp = Interpreter(example_module, engine="reference")
        n, inputs = training_run_inputs()
        interp.run([n], inputs)
        first = dict(interp._numberings)
        interp.run([n], inputs)
        for name, numbering in interp._numberings.items():
            assert first[name] is numbering


class TestHarnessIntegration:
    def test_workload_run_engines_agree(self):
        from repro.evaluation.harness import WorkloadRun

        w = get_workload("compress95")
        ref = WorkloadRun(w, engine="reference")
        com = WorkloadRun(w, engine="compiled")
        assert ref.train == com.train
        assert ref.ref == com.ref
        assert com.table2() == ref.table2()
        assert set(com.timings) == {"compile", "train_run", "ref_run"}
        assert all(t >= 0 for t in com.timings.values())
        assert com.compile_time == com.timings["compile"]

    def test_workload_run_rejects_bad_engine(self):
        from repro.evaluation.harness import WorkloadRun

        with pytest.raises(ValueError, match="bad engine"):
            WorkloadRun(get_workload("compress95"), engine="jit")
