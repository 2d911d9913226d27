"""The seeded MiniC program generator: determinism, validity, scale.

Three contracts:

* **determinism** — the same :class:`GeneratorSpec` yields byte-identical
  source and an identical CFG fingerprint, in any process, forever (the
  generator seeds its own ``random.Random``; nothing ambient leaks in);
* **validity** — every generated program parses, passes ``ir/validate``,
  and comes back clean from the full checker pipeline (all IR/PROF/AUT/
  HPG/DF families), because the generator is only useful as a test oracle
  source if its output is unimpeachable;
* **scale and sharpening** — the ``gen-1k`` preset delivers what the
  ROADMAP's organic-workload item requires: >= 1000 CFG vertices,
  checks-clean, and strictly more qualified than iterative non-local
  constants (the paper's core claim, reproduced on generated code).
"""

from __future__ import annotations

import pytest

from repro.frontend import compile_program
from repro.interp import Interpreter
from repro.ir import validate_module
from repro.workloads.generate import (
    GEN_PRESETS,
    GeneratorSpec,
    cfg_fingerprint,
    generate_source,
    generated_workload,
    module_vertices,
    parse_genspec,
    spec_name,
)

FAST_PRESETS = ("gen-small", "gen-loops")


# -- determinism --------------------------------------------------------------


@pytest.mark.parametrize("name", FAST_PRESETS)
def test_same_seed_same_bytes(name):
    spec = GEN_PRESETS[name]
    assert generate_source(spec) == generate_source(spec)


def test_same_seed_same_cfg_hash():
    spec = GEN_PRESETS["gen-small"]
    fps = {
        cfg_fingerprint(compile_program(generate_source(spec)))
        for _ in range(3)
    }
    assert len(fps) == 1


def test_different_seeds_differ():
    from dataclasses import replace

    base = GEN_PRESETS["gen-small"]
    other = replace(base, seed=base.seed + 1)
    assert generate_source(base) != generate_source(other)
    assert cfg_fingerprint(
        compile_program(generate_source(base))
    ) != cfg_fingerprint(compile_program(generate_source(other)))


def test_workload_inputs_deterministic():
    spec = GEN_PRESETS["gen-small"]
    a = generated_workload(spec, "a")
    b = generated_workload(spec, "b")
    assert a.source == b.source
    assert a.train_inputs == b.train_inputs
    assert a.ref_inputs == b.ref_inputs
    assert a.train_args == b.train_args


def test_spec_name_round_trips():
    spec = GeneratorSpec(
        seed=9, funcs=4, blocks_per_func=33, loop_depth=2,
        branch_density=0.4, correlation=0.7,
    )
    assert parse_genspec(spec_name(spec)) == spec


def test_parse_genspec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_genspec("gen:seed=1,bogus=2")
    with pytest.raises(ValueError):
        parse_genspec("not-a-genspec")


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(funcs=0)
    with pytest.raises(ValueError):
        GeneratorSpec(branch_density=1.5)
    with pytest.raises(ValueError):
        GeneratorSpec(correlation=-0.1)


# -- validity -----------------------------------------------------------------


@pytest.mark.parametrize("name", FAST_PRESETS)
def test_presets_compile_validate_and_run(name):
    wl = generated_workload(GEN_PRESETS[name], name)
    module = compile_program(wl.source)
    validate_module(module)
    result = Interpreter(module, profile_mode="bl").run(
        wl.train_args, wl.train_inputs
    )
    assert result.instr_count > 0
    assert any(p.total_count for p in result.profiles.values())


def test_shape_knobs_move_the_shape():
    flat = GeneratorSpec(seed=3, funcs=1, blocks_per_func=30, loop_depth=1)
    deep = GeneratorSpec(seed=3, funcs=1, blocks_per_func=30, loop_depth=3)
    more_funcs = GeneratorSpec(seed=3, funcs=4, blocks_per_func=30)
    m_flat = compile_program(generate_source(flat))
    m_deep = compile_program(generate_source(deep))
    m_more = compile_program(generate_source(more_funcs))
    # loop_depth adds nested while blocks; funcs adds whole routines.
    assert generate_source(deep).count("while") > generate_source(flat).count(
        "while"
    )
    assert len(m_more.functions) == len(m_flat.functions) + 3
    assert module_vertices(m_deep) > module_vertices(m_flat)


@pytest.mark.parametrize("name", FAST_PRESETS)
def test_presets_are_checks_clean(name):
    """Every check family (IR/PROF/AUT/HPG/DF + lints) over the full
    pipeline, no errors and no warnings."""
    from repro.checks.runner import check_program

    wl = generated_workload(GEN_PRESETS[name], name)
    diags = check_program(
        compile_program(wl.source),
        list(wl.train_args),
        wl.train_inputs,
        ca=0.97,
        cr=0.95,
        workload=name,
    )
    assert not diags.has_errors, diags.render_text()
    assert not diags.warnings, diags.render_text()


# -- scale: the organic >=1k-vertex corpus entry ------------------------------


@pytest.mark.slow
def test_gen_1k_is_at_scale_and_sharpens():
    """The acceptance-criteria program: >= 1000 CFG vertices, checks-clean,
    and qualified constant propagation strictly beats Wegman-Zadek."""
    from repro.pipeline import make_run

    wl = generated_workload(GEN_PRESETS["gen-1k"], "gen-1k")
    module = compile_program(wl.source)
    assert module_vertices(module) >= 1000

    run = make_run(wl, None, check=True)
    agg = run.aggregate_classification(0.97, 0.95)
    assert agg.qualified_nonlocal > agg.iterative_nonlocal
    assert agg.constant_increase > 0
    diags = run.checker.diagnostics
    assert not diags.has_errors, diags.render_text()


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(GEN_PRESETS))
def test_every_preset_is_checks_clean(name):
    from repro.checks.runner import check_program

    wl = generated_workload(GEN_PRESETS[name], name)
    diags = check_program(
        compile_program(wl.source),
        list(wl.train_args),
        wl.train_inputs,
        ca=0.97,
        cr=0.95,
        workload=name,
    )
    assert not diags.has_errors, diags.render_text()
    assert not diags.warnings, diags.render_text()
