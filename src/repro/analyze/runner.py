"""Analyzer entry points: compute, rank, and fan out lint findings.

The analyzer composes the classic data-flow lints (``LINT001``–``004``)
with the path-qualified passes (``LINT005``–``010``) over one module's
qualified analyses, then ranks findings by profile mass so the hottest
evidence surfaces first.  Everything here is deterministic: identical
inputs produce byte-identical finding lists regardless of ``--jobs`` or
daemon vs. CLI execution, which the baseline fingerprints rely on.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ..checks.diagnostics import Diagnostic, Diagnostics
from ..checks.engine import CheckContext, run_passes
from ..checks.runner import LintPass
from .passes import DEFAULT_MIN_MASS, PathLintPass


def rank(findings: Iterable[Diagnostic]) -> tuple[Diagnostic, ...]:
    """Order findings by profile mass (descending), then stable identity.

    Unranked findings (no path evidence) sort after ranked ones; ties
    break on (code, function, block, instr, message) so the order is
    total and reproducible."""
    def key(d: Diagnostic):
        return (
            d.mass is None,
            -(d.mass or 0.0),
            d.code,
            d.function or "",
            d.block or "",
            -1 if d.instr is None else d.instr,
            d.message,
        )

    return tuple(sorted(findings, key=key))


def compute_findings(
    module,
    qualified: Mapping[str, object],
    min_mass: float = DEFAULT_MIN_MASS,
    workload: str = "program",
) -> tuple[Diagnostic, ...]:
    """All analyzer findings for one module + its qualified analyses."""
    out = Diagnostics()
    ctx = CheckContext(
        workload=workload,
        stage="lint",
        module=module,
        qualified=dict(qualified),
    )
    run_passes((LintPass(), PathLintPass(min_mass)), ctx, out)
    return rank(out.records)


def compute_function_findings(
    fn,
    qualified_analysis,
    min_mass: float = DEFAULT_MIN_MASS,
    workload: str = "program",
) -> tuple[Diagnostic, ...]:
    """Analyzer findings for a *single* function.

    Both lint passes are function-local (the classic lints inspect one
    function at a time; the path lints inspect one routine's qualified
    analysis at a time), so linting each function separately and
    re-ranking the concatenation reproduces :func:`compute_findings`
    exactly — :func:`rank` is a deterministic total order over the same
    finding multiset.  The incremental pipeline relies on this to cache
    lint results per function.
    """
    from ..ir.function import Module

    solo = Module()
    solo.add_function(fn)
    qualified = (
        {fn.name: qualified_analysis} if qualified_analysis is not None else {}
    )
    return compute_findings(solo, qualified, min_mass, workload)


def lint_program(
    module,
    args,
    inputs,
    ca: float,
    cr: float,
    workload: str = "program",
    min_mass: float = DEFAULT_MIN_MASS,
) -> tuple[Diagnostic, ...]:
    """Analyze an ad-hoc program: one profiled run, the qualified pipeline
    per routine, then the full lint battery (the ``repro lint <file>``
    path, mirroring :func:`repro.checks.runner.check_program`)."""
    from ..core.qualified import run_qualified
    from ..interp.interpreter import Interpreter
    from ..profiles.path_profile import PathProfile

    result = Interpreter(
        module, profile_mode="bl", track_sites=False, engine="compiled"
    ).run(args, inputs)
    qualified = {
        name: run_qualified(
            fn,
            result.profiles.get(name, PathProfile()),
            ca,
            cr,
        )
        for name, fn in module.functions.items()
    }
    return compute_findings(module, qualified, min_mass, workload)


def lint_target(
    name: str,
    cache_dir: Optional[str] = None,
    ca: Optional[float] = None,
    cr: Optional[float] = None,
    min_mass: float = DEFAULT_MIN_MASS,
) -> tuple[Diagnostic, ...]:
    """Analyze one registered/generated target by name (cacheable)."""
    from ..evaluation.harness import DEFAULT_CA, DEFAULT_CR, make_run
    from ..pipeline.cache import ArtifactCache
    from ..workloads.matrix import resolve_target

    run = make_run(resolve_target(name), ArtifactCache(cache_dir))
    return run.lint(
        ca if ca is not None else DEFAULT_CA,
        cr if cr is not None else DEFAULT_CR,
        min_mass,
    )


def _lint_target_job(
    name: str,
    cache_dir: Optional[str],
    ca: Optional[float],
    cr: Optional[float],
    min_mass: float,
) -> tuple[str, list[dict]]:
    """Process-pool job: findings for one target, shipped as dicts."""
    findings = lint_target(
        name,
        cache_dir=cache_dir,
        ca=ca,
        cr=cr,
        min_mass=min_mass,
    )
    return name, [d.to_dict() for d in findings]


def pair_with_target(
    target: str, findings: Sequence[Diagnostic]
) -> list[tuple[str, Diagnostic]]:
    """The ``(target, finding)`` pairs the reporters consume."""
    return [(target, d) for d in findings]


__all__ = [
    "compute_findings",
    "lint_program",
    "lint_target",
    "pair_with_target",
    "rank",
]
