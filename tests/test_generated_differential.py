"""Differential parity over the generated corpus.

The generator is the repo's supply of *organic* programs — shapes nobody
hand-tuned around the engines.  Two parities must hold on every one of
them:

* **interpreter** — ``Interpreter(engine="compiled")`` and
  ``engine="reference"`` produce identical :class:`RunResult`s, every
  field, profiles included;
* **dataflow** — ``solve(engine="compiled")`` and ``"generic"`` land on
  identical fixpoints for all five separable problems on every routine's
  CFG under ``rpo``, the kernel's one order; the slow tier also holds the
  generic ``round_robin`` reference order to that fixpoint wherever the
  fixpoint does not depend on the order.

The fast tier drives a small hypothesis sample of random specs (shrinking
gives a minimal failing program shape if an engine ever diverges); the slow
tier sweeps the registered presets including the 1k-vertex target.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dataflow import GraphView, solve
from repro.dataflow.problems import (
    AvailableExpressions,
    CopyPropagation,
    LiveVariables,
    ReachingDefinitions,
    VeryBusyExpressions,
)
from repro.frontend import compile_program
from repro.interp import Interpreter, compiled
from repro.workloads.generate import (
    GEN_PRESETS,
    GeneratorSpec,
    generated_workload,
)

from test_compiled_engine import assert_results_equal
from test_generated_tier import tiered_matches_reference

SEPARABLE = (
    lambda view: ReachingDefinitions(view.params, view.cfg.entry),
    lambda view: LiveVariables(),
    lambda view: AvailableExpressions(),
    lambda view: VeryBusyExpressions(),
    lambda view: CopyPropagation(),
)

#: The union-meet problems among them, whose fixpoint is the least one
#: whatever the relax order.  The intersection problems' ``ALL`` collapse
#: makes theirs order-dependent, on plain CFGs too.
UNION = SEPARABLE[:2]


def assert_workload_parity(wl, *, round_robin=False):
    """Both parities for one workload's train run and module; with
    ``round_robin`` the generic reference order must reach the ``rpo``
    fixpoint of the union problems too."""
    module = compile_program(wl.source)
    results = {
        engine: Interpreter(module, profile_mode="bl", engine=engine).run(
            wl.train_args, wl.train_inputs
        )
        for engine in ("reference", "compiled")
    }
    assert_results_equal(results["reference"], results["compiled"])

    for fn in module.functions.values():
        view = GraphView.from_function(fn)
        for make in SEPARABLE:
            g = solve(make(view), view, engine="generic")
            c = solve(make(view), view, engine="compiled")
            assert c.value_in == g.value_in, (fn.name, make(view))
            assert c.value_out == g.value_out, (fn.name, make(view))
            if round_robin and make in UNION:
                rr = solve(make(view), view, strategy="round_robin")
                assert rr.value_in == g.value_in, (fn.name, make(view))
                assert rr.value_out == g.value_out, (fn.name, make(view))


def assert_generated_tier_parity(wl):
    """Interpreter parity with every activation pushed into the compiled
    engine's generated tier at its first recording edge."""
    module = compile_program(wl.source)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiled, "TIER_UP_FACTOR", 0)
        for track_sites in (False, True):
            tiered_matches_reference(
                module, wl.train_args, wl.train_inputs,
                profile_mode="bl", track_sites=track_sites,
            )


#: Small random shapes: enough structure to exercise branches, loops, and
#: call sites, small enough for a fast-tier hypothesis run.
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
def test_random_generated_programs_hold_both_parities(spec):
    assert_workload_parity(generated_workload(spec))


@pytest.mark.slow
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=gen_specs)
def test_random_generated_programs_hold_parities_all_strategies(spec):
    assert_workload_parity(generated_workload(spec), round_robin=True)


@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=gen_specs)
def test_random_generated_programs_in_generated_tier(spec):
    assert_generated_tier_parity(generated_workload(spec))


def test_gen_small_preset_parity():
    """One registered preset stays in the fast tier as a smoke anchor."""
    assert_workload_parity(
        generated_workload(GEN_PRESETS["gen-small"], "gen-small")
    )


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(GEN_PRESETS))
def test_preset_parity_sweep(name):
    """Every preset — including the 1k-vertex acceptance target — holds
    both parities under both strategies."""
    assert_workload_parity(
        generated_workload(GEN_PRESETS[name], name), round_robin=True
    )


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(GEN_PRESETS))
def test_preset_generated_tier_parity(name):
    assert_generated_tier_parity(generated_workload(GEN_PRESETS[name], name))
