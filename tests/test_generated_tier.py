"""Differential tests for the compiled engine's generated tier.

``TIER_UP_FACTOR`` is patched to 0 here, so every activation leaves the
micro-op loop at its first recording edge that follows an executed
instruction, and later activations of the same function start in
generated code.  Every run is then compared in full with the reference
interpreter, or with the loop alone where the reference rejects the
program.  The last class checks the default factor: long runs tier up,
the running example does not, and results are equal either way.
"""

import io
import keyword
import tokenize

import pytest

from repro.frontend import compile_program
from repro.interp import ExecutionLimit, Interpreter, Trap, compiled, run_module
from repro.interp.codegen import _Writer
from repro.ir import ArrayDecl, IRBuilder, Module
from repro.obs import capture
from repro.workloads import (
    WORKLOAD_NAMES,
    GeneratorSpec,
    generated_workload,
    get_workload,
    running_example_module,
    training_run_inputs,
)

from test_compiled_engine import UNDEFINED_OPERAND_EXPRS, assert_results_equal


@pytest.fixture
def forced_tier_up(monkeypatch):
    monkeypatch.setattr(compiled, "TIER_UP_FACTOR", 0)


def tiered_run(module, args=(), inputs=None, entry="main", **kwargs):
    """A compiled-engine run that must reach the generated tier."""
    with capture() as (_, metrics):
        result = run_module(module, args, inputs, entry, engine="compiled", **kwargs)
    assert metrics.counter("interp_functions_tiered").value > 0
    return result


def tiered_matches_reference(module, args=(), inputs=None, entry="main", **kwargs):
    ref = run_module(module, args, inputs, entry, engine="reference", **kwargs)
    com = tiered_run(module, args, inputs, entry, **kwargs)
    assert_results_equal(ref, com)
    return com


def trap_in_generated_tier(module, args=(), match="", **kwargs):
    """Both engines raise the same error, the compiled one after tier-up."""
    with pytest.raises((Trap, ExecutionLimit), match=match) as ref_exc:
        run_module(module, args, engine="reference", **kwargs)
    with capture() as (_, metrics):
        with pytest.raises(ref_exc.type, match=match) as com_exc:
            run_module(module, args, engine="compiled", **kwargs)
    assert metrics.counter("interp_functions_tiered").value > 0
    assert str(com_exc.value) == str(ref_exc.value)


# -- differential runs ---------------------------------------------------


@pytest.mark.usefixtures("forced_tier_up")
class TestDifferential:
    @pytest.mark.parametrize("mode", [None, "bl"])
    @pytest.mark.parametrize("track_sites", [False, True])
    def test_running_example(self, example_module, mode, track_sites):
        n, inputs = training_run_inputs()
        tiered_matches_reference(
            example_module, [n], inputs, profile_mode=mode, track_sites=track_sites
        )

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_train_run(self, name):
        w = get_workload(name)
        tiered_matches_reference(
            compile_program(w.source), w.train_args, w.train_inputs,
            track_sites=False,
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_ref_run(self, name):
        w = get_workload(name)
        tiered_matches_reference(
            compile_program(w.source), w.ref_args, w.ref_inputs
        )

    def test_trace_modes_never_tier_up(self, example_module):
        n, inputs = training_run_inputs()
        for mode in ("trace", "both"):
            with capture() as (_, metrics):
                run_module(
                    example_module, [n], inputs, engine="compiled",
                    profile_mode=mode,
                )
            assert metrics.counter("interp_functions_tiered").value == 0

    def test_recursion_with_call_mid_path(self):
        """Per-activation path registers survive a recursive call made in
        the middle of a path; the reference profiler rejects this program,
        so the generated tier is compared with the loop alone."""
        source = """
        func f(k) {
          var i = 0;
          var s = 0;
          while (i < 3) {
            if (k > 0) { s = s + f(k - 1); }
            s = s + i;
            i = i + 1;
          }
          return s;
        }
        func main(n) { return f(n); }
        """
        module = compile_program(source)
        with pytest.raises(ValueError, match="non-recording edge"):
            run_module(module, [3], engine="reference")
        tiered = tiered_run(module, [3])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiled, "TIER_UP_FACTOR", 10**9)
            loop = run_module(module, [3], engine="compiled")
        assert_results_equal(loop, tiered)


# -- traps fired inside the generated tier -------------------------------


def _looped_main(body, params=("n",)) -> IRBuilder:
    """``main`` running ``body(b)`` on the third trip of a counted loop,
    after a forced tier-up at the first back edge."""
    b = IRBuilder("main", list(params))
    b.block("entry")
    b.assign("i", 0)
    b.jump("head")
    b.block("head")
    b.binop("more", "lt", "i", 3)
    b.branch("more", "body", "done")
    b.block("body")
    b.binop("i", "add", "i", 1)
    b.binop("last", "eq", "i", 3)
    b.branch("last", "hit", "head")
    b.block("hit")
    body(b)
    if b.is_open:
        b.jump("head")
    b.block("done")
    b.ret("i")
    return b


def _module(*builders, arrays=()) -> Module:
    m = Module()
    for decl in arrays:
        m.add_array(decl)
    for b in builders:
        m.add_function(b.finish())
    return m


@pytest.mark.usefixtures("forced_tier_up")
class TestTraps:
    @pytest.mark.parametrize("expr", UNDEFINED_OPERAND_EXPRS)
    def test_undefined_operand(self, expr):
        source = f"""
        func main(n) {{
          var i = 0;
          var acc = 0;
          while (i < 3) {{
            if (n) {{ var y = 1; }}
            if (i == 2) {{ acc = acc + ({expr}); }}
            i = i + 1;
          }}
          return acc;
        }}
        """
        trap_in_generated_tier(
            compile_program(source), [0], match="undefined variable 'y'"
        )

    @pytest.mark.parametrize(
        "body",
        [
            lambda b: b.binop("x", "add", "ghost", 1),
            lambda b: b.assign("x", "ghost"),
            lambda b: b.load("x", "a", "ghost"),
            lambda b: b.store("a", 0, "ghost"),
            lambda b: b.store("a", "ghost", "ghost2"),
            lambda b: b.call("x", "abs", "ghost"),
            lambda b: b.emit_print(1, "ghost"),
            lambda b: b.branch("ghost", "head", "head"),
        ],
        ids=["binop", "move", "load", "store", "store-both", "call", "print",
             "branch"],
    )
    def test_undefined_variable(self, body):
        m = _module(_looped_main(body), arrays=[ArrayDecl("a", 4)])
        trap_in_generated_tier(m, [0], match="undefined variable 'ghost'")

    def test_out_of_range_load(self):
        source = """
        global a[4];
        func main(n) {
          var i = 0;
          var s = 0;
          while (i < 10) { s = s + a[i]; i = i + 1; }
          return s;
        }
        """
        trap_in_generated_tier(compile_program(source), [0], match="load index 4")

    def test_out_of_range_store(self):
        source = """
        global a[4];
        func main(n) {
          var i = 0;
          while (i < 10) { a[i] = i; i = i + 1; }
          return i;
        }
        """
        trap_in_generated_tier(compile_program(source), [0], match="store index 4")

    def test_execution_limit(self):
        source = "func main(n) { var i = 0; while (1) { i = i + 1; } return i; }"
        trap_in_generated_tier(
            compile_program(source), [0], match="exceeded 1000", max_steps=1000
        )

    def test_call_depth(self):
        source = """
        func f(k) {
          var i = 0;
          while (i < 2) { i = i + 1; }
          return f(k + 1);
        }
        func main(n) { return f(n); }
        """
        trap_in_generated_tier(
            compile_program(source), [0], match="depth", profile_mode=None
        )

    def test_void_result_used(self):
        noret = IRBuilder("noret")
        noret.block("entry")
        noret.ret()
        m = _module(
            noret, _looped_main(lambda b: b.call("x", "noret"))
        )
        trap_in_generated_tier(m, [0], match="returned no value")

    def test_builtin_arity(self):
        m = _module(_looped_main(lambda b: b.call("x", "abs", 1, 2)))
        trap_in_generated_tier(m, [0], match="expects 1")


# -- program names never become Python syntax ----------------------------

#: Names a program may give its functions, blocks, variables and arrays.
HOSTILE = (
    "x'); import os; ('",
    'say "hi"',
    "back\\slash",
    "def",
    "None",
    "lambda",
    "\n",
)


def hostile_module() -> Module:
    """``main(n)`` calls a worker in a loop and stores and loads its
    results; every function, block, variable and array has a hostile name."""
    inject, quoted, backslash, kw_def, kw_none, kw_lambda, newline = HOSTILE
    m = Module()
    m.add_array(ArrayDecl(inject, 8))

    worker = IRBuilder(quoted, [kw_lambda])
    worker.block(backslash)
    worker.binop(kw_none, "add", kw_lambda, 1)
    worker.ret(kw_none)
    m.add_function(worker.finish())

    main = IRBuilder(newline, [kw_def])  # main(n)
    main.block(inject)
    main.assign(backslash, 0)  # i = 0
    main.assign(quoted, 0)  # acc = 0
    main.jump(quoted)
    main.block(quoted)
    main.binop(kw_none, "lt", backslash, kw_def)  # more = i < n
    main.branch(kw_none, kw_lambda, newline)
    main.block(kw_lambda)
    main.call(inject, quoted, backslash)  # r = worker(i)
    main.binop(quoted, "add", quoted, inject)  # acc = acc + r
    main.binop(newline, "and", backslash, 7)  # k = i & 7
    main.store(inject, newline, inject)  # a[k] = r
    main.load(kw_lambda, inject, newline)  # x = a[k]
    main.binop(backslash, "add", backslash, 1)  # i = i + 1
    main.jump(quoted)
    main.block(newline)
    main.emit_print(quoted, backslash)
    main.ret(quoted)
    m.add_function(main.finish())
    return m


class TestSourceSafety:
    @pytest.mark.usefixtures("forced_tier_up")
    @pytest.mark.parametrize("mode", [None, "bl"])
    @pytest.mark.parametrize("track_sites", [False, True])
    def test_hostile_names_run_like_reference(self, mode, track_sites):
        tiered_matches_reference(
            hostile_module(), [20], entry="\n", profile_mode=mode,
            track_sites=track_sites,
        )

    @pytest.mark.parametrize("bl", [False, True])
    @pytest.mark.parametrize("track_sites", [False, True])
    def test_source_holds_only_integers_and_fixed_names(self, bl, track_sites):
        interp = Interpreter(
            hostile_module(), track_sites=track_sites, engine="compiled"
        )
        cmod = interp._compiled
        for cf in cmod.functions.values():
            writer = _Writer(cmod, cf, bl)
            writer.function()
            tokens = tokenize.generate_tokens(io.StringIO(writer.source()).readline)
            for tok in tokens:
                assert tok.type != tokenize.STRING, tok
                if tok.type == tokenize.NAME:
                    assert tok.string in FIXED_NAMES or _generated_name(
                        tok.string
                    ), tok.string


#: Identifiers the writer itself uses, besides its numbered locals.
FIXED_NAMES = set(keyword.kwlist) | {
    "_run", "st", "F", "T", "b", "n", "ms", "c", "bc", "counts", "bs", "r",
    "rv", "call", "out", "nt", "mems", "name", "len",
    "append", "block_counts", "instr_count", "max_steps", "path_counts",
    "cost", "depth", "tainted",
    "output", "_Trap", "_limit", "_undef", "_undefined_trap",
    "_undefined_in_block", "_load_oob", "_store_oob", "TypeError",
}


def _generated_name(name: str) -> bool:
    head = name[:2] if name.startswith("_k") else name[:1]
    return head in ("s", "t", "m", "z", "_k") and name[len(head):].isdigit()


# -- the default factor --------------------------------------------------


class TestDefaultFactor:
    def test_long_train_run_tiers_up(self):
        spec = GeneratorSpec(
            seed=5, funcs=1, blocks_per_func=24, train_iters=2000, ref_iters=4
        )
        wl = generated_workload(spec)
        module = compile_program(wl.source)
        with capture() as (_, metrics):
            com = run_module(
                module, wl.train_args, wl.train_inputs, engine="compiled",
                track_sites=False,
            )
        assert metrics.counter("interp_functions_tiered").value > 0
        ref = run_module(
            module, wl.train_args, wl.train_inputs, engine="reference",
            track_sites=False,
        )
        assert_results_equal(ref, com)

    def test_running_example_ref_run_stays_in_loop(self):
        n, inputs = training_run_inputs()
        module = running_example_module()
        with capture() as (_, metrics):
            com = run_module(module, [n], inputs, engine="compiled")
        assert metrics.counter("interp_functions_tiered").value == 0
        ref = run_module(module, [n], inputs, engine="reference")
        assert_results_equal(ref, com)
