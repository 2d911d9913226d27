"""Differential parity for the dense Wegman–Zadek engine over the corpus.

The generic persistent-dict solver is the oracle; the compiled env-array
engine must be **bit-identical** to it on every graph it meets — decoded
environments, executable-edge sets, and the worklist's exact visit counts —
and the qualified pipeline it feeds must land on the same analyses on the
baseline CFG, the hot-path graph, and the reduced graph.

Fast tier: a hypothesis sample of random generator specs (shrinking yields
a minimal diverging program shape) plus registered smoke anchors.  Slow
tier: the full preset sweep including the 1k-vertex acceptance target, and
the registered SPEC95-alike workloads.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.qualified import run_qualified
from repro.dataflow import GraphView, analyze, engine_scope
from repro.frontend import compile_program
from repro.interp import Interpreter
from repro.profiles.path_profile import PathProfile
from repro.workloads.generate import (
    GEN_PRESETS,
    GeneratorSpec,
    generated_workload,
)
from repro.workloads.matrix import resolve_target
from repro.workloads.spec import WORKLOAD_NAMES

CA, CR = 0.97, 0.95


def assert_engines_agree(view, context=""):
    """The compiled engine must reproduce the generic result exactly."""
    g = analyze(view, engine="generic")
    c = analyze(view, engine="compiled")
    assert c.env_in == g.env_in, context
    assert c.executable_edges == g.executable_edges, context
    assert c.visits == g.visits, context
    assert c.visit_counts == g.visit_counts, context


def assert_analyses_match(a, b, context=""):
    if a is None or b is None:
        assert a is None and b is None, context
        return
    assert a.env_in == b.env_in, context
    assert a.executable_edges == b.executable_edges, context
    assert a.visits == b.visits, context
    assert a.visit_counts == b.visit_counts, context


def assert_workload_wz_parity(wl):
    """Engine parity on every routine: CFG view, HPG view, and the whole
    qualified pipeline run end-to-end under each engine."""
    module = compile_program(wl.source)
    train = Interpreter(module, profile_mode="bl", engine="compiled").run(
        wl.train_args, wl.train_inputs
    )
    for fname, fn in module.functions.items():
        assert_engines_agree(GraphView.from_function(fn), f"{fname}@cfg")

        profile = train.profiles.get(fname, PathProfile())
        with engine_scope("generic"):
            qa_g = run_qualified(fn, profile, CA, CR)
        with engine_scope("compiled"):
            qa_c = run_qualified(fn, profile, CA, CR)
        assert_analyses_match(qa_g.baseline, qa_c.baseline, f"{fname}@baseline")
        assert qa_g.hot_paths == qa_c.hot_paths, fname
        assert_analyses_match(
            qa_g.hpg_analysis, qa_c.hpg_analysis, f"{fname}@hpg"
        )
        assert_analyses_match(
            qa_g.reduced_analysis, qa_c.reduced_analysis, f"{fname}@reduced"
        )
        if qa_g.hpg is not None:
            # Same HPG view solved directly by both engines, so a divergence
            # points at the solver rather than at pipeline plumbing.
            assert_engines_agree(qa_g.hpg.view(), f"{fname}@hpg-view")


#: Small random shapes: branches, loops, merges, calls — enough to exercise
#: every micro-op and the executable-edge discovery, fast enough to sample.
gen_specs = st.builds(
    GeneratorSpec,
    seed=st.integers(min_value=0, max_value=2**16),
    funcs=st.integers(min_value=1, max_value=2),
    blocks_per_func=st.integers(min_value=8, max_value=24),
    loop_depth=st.integers(min_value=1, max_value=2),
    branch_density=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    correlation=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    hot_skew=st.sampled_from([0.5, 0.85, 1.0]),
    data_size=st.just(64),
    train_iters=st.integers(min_value=2, max_value=6),
    ref_iters=st.just(8),
)


@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=gen_specs)
def test_random_generated_programs_hold_wz_parity(spec):
    assert_workload_wz_parity(generated_workload(spec))


def test_gen_small_preset_wz_parity():
    assert_workload_wz_parity(
        generated_workload(GEN_PRESETS["gen-small"], "gen-small")
    )


def test_sieve_wz_parity():
    """A registered hand-written target stays in the fast tier."""
    assert_workload_wz_parity(resolve_target("sieve"))


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(GEN_PRESETS))
def test_preset_wz_parity_sweep(name):
    """Every preset — including the 1k-vertex acceptance target — holds
    engine parity on both views and through the qualified pipeline."""
    assert_workload_wz_parity(generated_workload(GEN_PRESETS[name], name))


@pytest.mark.slow
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_registered_workload_wz_parity(name):
    assert_workload_wz_parity(resolve_target(name))
