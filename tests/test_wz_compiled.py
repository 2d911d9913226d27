"""Unit tests for the dense env-array Wegman–Zadek engine.

The generic solver is the oracle: on every graph both engines must agree on
the decoded environments, the executable-edge set, and the worklist's exact
visit counts.  The corpus-scale sweep lives in ``test_wz_differential.py``;
here we pin the engine selection rules, the block-lowering cache, and the
memoized ``site_values()``/``output_env()`` accessors.
"""

import pytest

from repro.dataflow import (
    BOT,
    TOP,
    ConstEnv,
    GraphView,
    analyze,
    engine_scope,
    get_default_engine,
)
from repro.dataflow import wegman_zadek as wz
from repro.dataflow import wz_dense
from repro.dataflow.wz_compiled import WZ_AUTO_MIN_VERTICES, analyze_compiled
from repro.dataflow.wz_dense import (
    W_CONST,
    clear_lowering_cache,
    lower_transfer,
    run_program,
)
from repro.interp import Interpreter
from repro.ir import IRBuilder


def assert_wz_match(view, entry_env=None):
    """Both engines on one view: results must be bit-identical."""
    g = analyze(view, entry_env, engine="generic")
    c = analyze(view, entry_env, engine="compiled")
    assert g.engine == "generic" and c.engine == "compiled"
    assert g.env_in == c.env_in
    assert g.executable_edges == c.executable_edges
    assert g.visits == c.visits
    assert g.visit_counts == c.visit_counts
    for v in view.cfg.vertices:
        if view.block_of(v) is not None:
            assert g.site_values(v) == c.site_values(v)
            assert g.output_env(v) == c.output_env(v)
    return g, c


def straight_line():
    b = IRBuilder("f")
    b.block("entry")
    b.assign("x", 2)
    b.jump("next")
    b.block("next")
    b.binop("y", "mul", "x", 3)
    b.ret("y")
    return b.finish()


def diamond(left, right):
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


def const_branch():
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
    return b.finish()


def loop():
    b = IRBuilder("f", ["p"])
    b.block("entry")
    b.assign("i", 0)
    b.jump("head")
    b.block("head")
    b.branch("p", "body", "exit")
    b.block("body")
    b.binop("i", "add", "i", 1)
    b.jump("head")
    b.block("exit")
    b.ret("i")
    return b.finish()


def impure():
    b = IRBuilder("f")
    b.block("entry")
    b.load("x", "mem", 0)
    b.call("y", "abs", 1)
    b.binop("z", "add", "x", "y")
    b.ret("z")
    return b.finish()


class TestParity:
    @pytest.mark.parametrize(
        "fn",
        [
            straight_line(),
            diamond(5, 5),
            diamond(5, 7),
            const_branch(),
            loop(),
            impure(),
        ],
        ids=["straight", "diamond-eq", "diamond-ne", "const-branch", "loop",
             "impure"],
    )
    def test_hand_built_graphs(self, fn):
        assert_wz_match(GraphView.from_function(fn))

    def test_dead_leg_stays_unreachable(self):
        _, c = assert_wz_match(GraphView.from_function(const_branch()))
        assert not c.is_executable("dead")
        assert c.constant_sites("join") == {0: 10}

    def test_custom_entry_env(self):
        view = GraphView.from_function(diamond(5, 7))
        assert_wz_match(view, ConstEnv({"p": 1}))
        # With p pinned, the compiled engine must prune the same leg.
        c = analyze(view, ConstEnv({"p": 1}), engine="compiled")
        assert not c.is_executable("r")

    def test_constants_interned_during_solve(self):
        # Folding "i + 1" in the loop produces constants that were not in
        # any instruction; they are interned mid-solve and must decode back.
        _, c = assert_wz_match(GraphView.from_function(loop()))
        assert c.site_values("exit") == {}


class TestEngineSelection:
    def test_auto_keeps_generic_below_crossover(self):
        view = GraphView.from_function(straight_line())
        assert view.cfg.num_vertices < WZ_AUTO_MIN_VERTICES
        assert analyze(view).engine == "generic"

    def test_auto_uses_compiled_above_crossover(self):
        b = IRBuilder("f")
        labels = [f"b{i}" for i in range(WZ_AUTO_MIN_VERTICES + 1)]
        for label, nxt in zip(labels, labels[1:]):
            b.block(label)
            b.assign("x", 1)
            b.jump(nxt)
        b.block(labels[-1])
        b.ret("x")
        view = GraphView.from_function(b.finish())
        assert view.cfg.num_vertices >= WZ_AUTO_MIN_VERTICES
        assert analyze(view).engine == "compiled"

    def test_explicit_engine_overrides_auto(self):
        view = GraphView.from_function(straight_line())
        assert analyze(view, engine="compiled").engine == "compiled"
        assert analyze(view, engine="generic").engine == "generic"

    def test_bad_engine_rejected(self):
        view = GraphView.from_function(straight_line())
        with pytest.raises(ValueError):
            analyze(view, engine="turbo")
        with pytest.raises(ValueError):
            with engine_scope("turbo"):
                pass

    def test_scope_sets_and_restores_default(self):
        assert get_default_engine() == "auto"
        view = GraphView.from_function(straight_line())
        with engine_scope("compiled"):
            assert get_default_engine() == "compiled"
            assert analyze(view).engine == "compiled"
        assert get_default_engine() == "auto"

    @pytest.mark.parametrize("engine", ["compiled", "generic"])
    def test_scope_sets_all_three_qualified_runs(self, example_module, engine):
        """One scope picks the engine of every WZ run of the pipeline, on
        CFGs below the ``auto`` crossover too."""
        from repro.core import run_qualified
        from repro.workloads.running_example import training_run_inputs

        n, inputs = training_run_inputs()
        profiles = Interpreter(example_module, profile_mode="bl").run(
            [n], inputs
        ).profiles
        for fname, fn in example_module.functions.items():
            assert (
                GraphView.from_function(fn).cfg.num_vertices
                < WZ_AUTO_MIN_VERTICES
            )
            with engine_scope(engine):
                qa = run_qualified(fn, profiles[fname], ca=1.0)
            runs = (qa.baseline, qa.hpg_analysis, qa.reduced_analysis)
            assert [r.engine for r in runs] == [engine] * 3, fname


class TestLoweringCache:
    def test_lowering_is_cached_per_block(self, monkeypatch):
        clear_lowering_cache()
        calls = []
        orig = wz_dense.lower_block
        monkeypatch.setattr(
            wz_dense, "lower_block", lambda blk: (calls.append(1), orig(blk))[1]
        )
        block = straight_line().blocks["entry"]
        p1 = lower_transfer(block)
        p2 = lower_transfer(block)
        assert p1 is p2
        assert len(calls) == 1
        clear_lowering_cache()
        assert lower_transfer(block) is not p1
        assert len(calls) == 2

    def test_repeat_analyses_share_the_lowering(self, monkeypatch):
        clear_lowering_cache()
        fn = diamond(5, 7)
        view = GraphView.from_function(fn)
        analyze(view, engine="compiled")
        calls = []
        orig = wz_dense.lower_block
        monkeypatch.setattr(
            wz_dense, "lower_block", lambda blk: (calls.append(1), orig(blk))[1]
        )
        analyze(view, engine="compiled")
        analyze(view, engine="generic")
        assert calls == []

    def test_cache_evicts_least_recently_used(self, monkeypatch):
        clear_lowering_cache()
        monkeypatch.setattr(wz_dense, "_LOWER_CACHE_SIZE", 2)
        blocks = list(diamond(5, 7).blocks.values())[:3]
        for block in blocks:
            lower_transfer(block)
        assert len(wz_dense._lower_cache) == 2
        clear_lowering_cache()

    def test_const_operands_fold_at_lowering(self):
        b = IRBuilder("f")
        b.block("entry")
        b.binop("x", "add", 2, 3)
        b.ret("x")
        program = wz_dense.lower_block(b.finish().blocks["entry"])
        assert program.steps == ((W_CONST, "x", 5),)

    def test_run_program_matches_site_semantics(self):
        fn = impure()
        program = wz_dense.lower_block(fn.blocks["entry"])
        values = {}
        results = run_program(program, values)
        assert results == [BOT, BOT, BOT]
        assert values == {"x": BOT, "y": BOT, "z": BOT}


class TestMemoizedAccessors:
    def test_second_site_values_does_zero_transfer_work(self, monkeypatch):
        fn = straight_line()
        result = analyze(GraphView.from_function(fn), engine="generic")
        first = {v: result.site_values(v) for v in ("entry", "next")}
        out_first = result.output_env("next")

        def boom(*args, **kwargs):
            raise AssertionError("memoized accessor re-ran the transfer")

        monkeypatch.setattr(wz, "run_program", boom)
        monkeypatch.setattr(wz, "lower_transfer", boom)
        for v in ("entry", "next"):
            assert result.site_values(v) == first[v]
        assert result.output_env("next") == out_first

    def test_memo_survives_on_compiled_results_too(self, monkeypatch):
        result = analyze(
            GraphView.from_function(straight_line()), engine="compiled"
        )
        first = result.site_values("next")

        def boom(*args, **kwargs):
            raise AssertionError("memoized accessor re-ran the transfer")

        monkeypatch.setattr(wz, "run_program", boom)
        assert result.site_values("next") == first

    def test_results_pickle_without_the_memo(self):
        import pickle

        result = analyze(GraphView.from_function(straight_line()))
        result.site_values("next")  # populate the unpicklable memo
        clone = pickle.loads(pickle.dumps(result))
        assert clone.env_in == result.env_in
        assert clone.site_values("next") == result.site_values("next")


class TestCompiledFallback:
    def test_analyze_compiled_returns_result_directly(self):
        view = GraphView.from_function(straight_line())
        result = analyze_compiled(view)
        assert result is not None and result.engine == "compiled"
