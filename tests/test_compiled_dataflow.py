"""Differential tests: the bitset-compiled kernel against the generic oracle.

The compiled engine must be a drop-in replacement for the generic solver's
``rpo`` order, the only order the kernel runs: for every separable problem
and every graph (plain CFGs, hot-path graphs, tiled paper-scale graphs), it
must produce the same :class:`Solution` — values and work accounting alike
— as the generic solver under ``rpo``.

Same-order comparison is the meaningful contract.  The generic solver's
must-problem handling (``ALL`` collapsing to the empty set at a real block)
makes its fixpoint *relax-order dependent*, e.g. on graphs with mid-graph
virtual vertices — ``test_tiled_views_expose_order_dependence`` pins one
such graph where the generic round-robin and RPO orders legitimately
disagree with each other.  The kernel replicates the RPO order exactly, so
it lands on the generic RPO fixpoint in every case.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.dataflow import (
    DATAFLOW_ENGINES,
    GraphView,
    engine_scope,
    get_default_engine,
    solve,
)
from repro.dataflow.compiled import AUTO_MIN_VERTICES
from repro.dataflow.framework import SolverBudgetExceeded
from repro.dataflow.problems import (
    AvailableExpressions,
    ConstantPropagation,
    CopyPropagation,
    LiveVariables,
    ReachingDefinitions,
    VeryBusyExpressions,
)
from repro.dataflow.tiling import tile_view
from repro.evaluation.harness import WorkloadRun
from repro.ir import IRBuilder
from repro.workloads import WORKLOAD_NAMES, get_workload

from test_solver_properties import random_functions

#: Factories for the five separable problems the kernel compiles.
SEPARABLE = (
    lambda view: ReachingDefinitions(view.params, view.cfg.entry),
    lambda view: LiveVariables(),
    lambda view: AvailableExpressions(),
    lambda view: VeryBusyExpressions(),
    lambda view: CopyPropagation(),
)


def assert_engines_agree(view, *, stats=True):
    """Compiled must equal generic under ``rpo``: values, and optionally the
    full work accounting (everything but the engine tag)."""
    for make in SEPARABLE:
        g = solve(make(view), view, engine="generic", collect_stats=stats)
        c = solve(make(view), view, engine="compiled", collect_stats=stats)
        assert c.value_in == g.value_in, make(view)
        assert c.value_out == g.value_out, make(view)
        if stats:
            assert g.stats.engine == "generic"
            assert c.stats.engine == "compiled"
            for field in ("visits", "visits_by_vertex", "peak_worklist",
                          "pushes", "strategy"):
                assert getattr(c.stats, field) == getattr(g.stats, field), (
                    make(view), field,
                )


def _workload_views(name, ca=0.97, cr=0.95):
    """(cfg views, hpg views) of one workload at the given coverage."""
    run = WorkloadRun(get_workload(name))
    cfg_views = [
        GraphView.from_function(fn) for fn in run.module.functions.values()
    ]
    hpg_views = [
        qa.hpg.view()
        for qa in run.qualified(ca, cr).values()
        if qa.hpg is not None
    ]
    return cfg_views, hpg_views


# -- differential equivalence -------------------------------------------------


def test_engines_agree_on_running_example(example_module):
    for fn in example_module.functions.values():
        assert_engines_agree(GraphView.from_function(fn))


def test_engines_agree_on_compress95_cfg_and_hpg():
    cfg_views, hpg_views = _workload_views("compress95")
    assert hpg_views, "compress95 must trace at CA=0.97"
    for view in cfg_views + hpg_views:
        assert_engines_agree(view)


def test_engines_agree_on_qualified_example_hpg(example_qualified):
    assert_engines_agree(example_qualified.hpg.view())
    assert example_qualified.reduced is not None
    assert_engines_agree(example_qualified.reduced.view())


@pytest.mark.slow
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_engines_agree_on_every_workload(name):
    cfg_views, hpg_views = _workload_views(name)
    for view in cfg_views + hpg_views:
        assert_engines_agree(view, stats=False)


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fn=random_functions())
def test_engines_agree_on_random_functions(fn):
    assert_engines_agree(GraphView.from_function(fn))


# -- tiled paper-scale graphs -------------------------------------------------


def test_engines_agree_on_tiled_views(example_module):
    view = GraphView.from_function(example_module.function("work"))
    assert_engines_agree(tile_view(view, 5))


def test_tiled_views_expose_order_dependence():
    """On graphs with mid-graph virtual vertices the *generic* solver's
    must-problem fixpoint depends on the relax order (the documented ALL
    collapse); the kernel must match the generic solver's RPO side of the
    disagreement."""
    li95 = get_workload("li95")
    run = WorkloadRun(li95)
    fn = next(iter(run.module.functions.values()))
    view = tile_view(GraphView.from_function(fn), 3)

    rr = solve(AvailableExpressions(), view, engine="generic",
               strategy="round_robin")
    rpo = solve(AvailableExpressions(), view, engine="generic", strategy="rpo")
    assert rr.value_out != rpo.value_out  # the order dependence itself
    assert_engines_agree(view, stats=False)


# -- edge cases ---------------------------------------------------------------


def _self_loop_view():
    """A start vertex with a back edge (the hot-path-graph shape)."""
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


def test_entry_vertex_with_back_edge():
    fn, view = _self_loop_view()
    assert_engines_agree(view)
    sol = solve(
        ReachingDefinitions(fn.params, "loop"), view, engine="compiled"
    )
    assert ("loop", -1, "p") in sol.value_in["loop"]
    assert ("loop", 0, "x") in sol.value_in["loop"]


def test_unreachable_real_block_decodes_to_top():
    """A real block unreachable in the analysis direction stays at top
    (``ALL`` for must problems) in both engines."""
    b = IRBuilder("f", [])
    b.block("entry")
    b.binop("x", "add", "a", "b")
    b.ret("x")
    b.block("orphan")
    b.binop("y", "mul", "a", "b")
    b.ret("y")
    fn = b.finish()
    view = GraphView.from_function(fn)
    assert not view.cfg.preds("orphan")
    assert_engines_agree(view)
    from repro.dataflow.problems import ALL

    sol = solve(AvailableExpressions(), view, engine="compiled")
    assert sol.value_in["orphan"] is ALL


def test_empty_blocks_and_budget():
    b = IRBuilder("f", ["p"])
    b.block("entry")
    b.jump("entry")
    fn = b.finish()
    view = GraphView.from_function(fn)
    assert_engines_agree(view)
    with pytest.raises(SolverBudgetExceeded):
        solve(
            LiveVariables(), view, engine="compiled", max_visits=0
        )


# -- engine selection ---------------------------------------------------------


def test_auto_compiles_separable_problems_on_large_graphs(example_module):
    view = GraphView.from_function(example_module.function("work"))
    big = tile_view(view, 3)
    assert big.cfg.num_vertices >= AUTO_MIN_VERTICES
    sol = solve(LiveVariables(), big, collect_stats=True)
    assert sol.stats.engine == "compiled"


def test_auto_prefers_generic_on_small_graphs(example_module):
    """Below the crossover the kernel's fixed costs lose to the generic
    solver (BENCH_dataflow measured 0.83-0.89x), so auto must not compile."""
    view = GraphView.from_function(example_module.function("work"))
    assert view.cfg.num_vertices < AUTO_MIN_VERTICES
    sol = solve(LiveVariables(), view, collect_stats=True)
    assert sol.stats.engine == "generic"
    # An explicit engine request still forces the kernel at any size.
    sol = solve(LiveVariables(), view, engine="compiled", collect_stats=True)
    assert sol.stats.engine == "compiled"


def test_auto_crossover_boundary():
    """Pin the selection boundary itself: auto flips from generic to
    compiled exactly at AUTO_MIN_VERTICES real vertices."""
    assert AUTO_MIN_VERTICES == 12

    def chain_view(num_blocks):
        b = IRBuilder("f", ["p"])
        for i in range(num_blocks):
            b.block(f"b{i}")
            b.assign(f"x{i}", i)
            if i + 1 < num_blocks:
                b.jump(f"b{i + 1}")
            else:
                b.ret(f"x{i}")
        return GraphView.from_function(b.finish())

    # A chain of n blocks has n + 2 vertices (virtual entry and exit).
    below = chain_view(AUTO_MIN_VERTICES - 3)
    at = chain_view(AUTO_MIN_VERTICES - 2)
    assert below.cfg.num_vertices == AUTO_MIN_VERTICES - 1
    assert at.cfg.num_vertices == AUTO_MIN_VERTICES
    assert (
        solve(LiveVariables(), below, collect_stats=True).stats.engine
        == "generic"
    )
    assert (
        solve(LiveVariables(), at, collect_stats=True).stats.engine
        == "compiled"
    )


def test_auto_falls_back_for_non_separable(example_module):
    view = GraphView.from_function(example_module.function("work"))
    sol = solve(ConstantPropagation(view.params), view, collect_stats=True)
    assert sol.stats.engine == "generic"


def test_compiled_demands_a_lowering(example_module):
    view = GraphView.from_function(example_module.function("work"))
    with pytest.raises(ValueError, match="cannot run on the compiled engine"):
        solve(ConstantPropagation(view.params), view, engine="compiled")


def test_bad_engine_rejected(example_module):
    view = GraphView.from_function(example_module.function("work"))
    with pytest.raises(ValueError, match="bad dataflow engine"):
        solve(LiveVariables(), view, engine="simd")
    with pytest.raises(ValueError, match="bad dataflow engine"):
        with engine_scope("simd"):
            pass


def test_compiled_engine_runs_only_rpo(example_module):
    """``round_robin`` is the generic engine's reference order: ``auto``
    takes the generic loop for it, ``compiled`` refuses it, whether passed
    or scoped."""
    view = tile_view(
        GraphView.from_function(example_module.function("work")), 3
    )
    assert view.cfg.num_vertices >= AUTO_MIN_VERTICES
    sol = solve(LiveVariables(), view, strategy="round_robin",
                collect_stats=True)
    assert sol.stats.engine == "generic"
    with pytest.raises(ValueError, match="only the rpo order"):
        solve(LiveVariables(), view, strategy="round_robin", engine="compiled")
    with engine_scope("compiled"):
        with pytest.raises(ValueError, match="only the rpo order"):
            solve(LiveVariables(), view, strategy="round_robin")


def test_default_engine_scope(example_module):
    view = GraphView.from_function(example_module.function("work"))
    assert get_default_engine() == "auto"
    assert set(DATAFLOW_ENGINES) == {"auto", "generic", "compiled"}
    with engine_scope("generic"):
        assert get_default_engine() == "generic"
        sol = solve(LiveVariables(), view, collect_stats=True)
        assert sol.stats.engine == "generic"
        # An explicit argument still beats the scoped default.
        sol = solve(LiveVariables(), view, engine="compiled", collect_stats=True)
        assert sol.stats.engine == "compiled"
    assert get_default_engine() == "auto"

