"""A :class:`~repro.evaluation.harness.WorkloadRun` backed by the artifact
cache.

Key derivation (see ``docs/PIPELINE.md`` for the full rules):

* compiled module — hash of the MiniC source text alone;
* train / ref profiling runs — hash of (*module fingerprint*, args, input
  arrays): the module fingerprint digests the lowered IR, so a
  whitespace-only edit recompiles (cheap) but does not re-profile, while a
  new data set re-profiles and a new coverage level does not;
* qualified pipelines and lint — **per function**: each function's
  artifact is keyed by (function fingerprint, that routine's *profile
  fingerprint*, CA, CR).  Qualification and lint are function-local
  computations, so an edit to ``f`` leaves ``g``'s automata, hot-path
  graphs, qualified dataflow, and findings as warm hits — this is what
  makes :mod:`repro.pipeline.incremental` cheap.

No engine enters a key: the differential suites prove every engine equal
to its oracle, so an artifact computed under any engine scope serves all
of them.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..core.qualified import QualifiedAnalysis
from ..evaluation.harness import Workload, WorkloadRun
from ..frontend.fingerprint import function_fingerprints, module_fingerprint
from ..interp.interpreter import RunResult
from ..ir.function import Module
from ..obs import get_tracer
from ..profiles.serialize import fingerprint_profile
from .cache import (
    ArtifactCache,
    KIND_LINT,
    KIND_MODULE,
    KIND_QUALIFIED,
    KIND_REF_RUN,
    KIND_TRAIN_RUN,
    content_key,
)


def _inputs_part(inputs: Mapping[str, Sequence[int]]) -> dict[str, list[int]]:
    return {name: list(values) for name, values in inputs.items()}


def qualified_function_key(
    fn_fingerprint: str,
    profile_fingerprint: str,
    ca: float,
    cr: float,
) -> str:
    """Cache key of one function's qualified pipeline artifact.

    Exposed (rather than inlined in :class:`CachedWorkloadRun`) so the
    incremental session can probe hit/miss per function before running.
    """
    return content_key(
        "qualified-fn",
        fn_fingerprint,
        profile_fingerprint,
        ca,
        cr,
    )


def lint_function_key(
    fn_fingerprint: str,
    profile_fingerprint: str,
    ca: float,
    cr: float,
    min_mass: float,
) -> str:
    """Cache key of one function's ranked lint findings."""
    # Analyzer configuration is part of the key: findings (and their
    # ranking) depend on the mass threshold.
    return content_key(
        "lint-fn",
        fn_fingerprint,
        profile_fingerprint,
        ca,
        cr,
        min_mass,
    )


class CachedWorkloadRun(WorkloadRun):
    """Workload run whose expensive steps go through an :class:`ArtifactCache`.

    Cache keys hash the run's *inputs* (source, args, data sets), not the
    execution engine — both engines produce equal :class:`RunResult` values,
    so artifacts cached by one remain valid for the other.
    """

    def __init__(
        self,
        workload: Workload,
        cache: ArtifactCache,
        engine: str = "compiled",
        checker=None,
    ) -> None:
        self.cache = cache
        self._fn_fingerprints: Optional[dict[str, str]] = None
        self._module_fingerprint: Optional[str] = None
        self._profile_fingerprints: dict[str, str] = {}
        super().__init__(workload, engine=engine, checker=checker)

    # -- fingerprints ------------------------------------------------------

    def function_fingerprints(self) -> dict[str, str]:
        """Per-function IR fingerprints of the compiled module, memoized."""
        if self._fn_fingerprints is None:
            self._fn_fingerprints = function_fingerprints(self.module)
        return self._fn_fingerprints

    def module_fingerprint(self) -> str:
        """The whole-module IR fingerprint, memoized."""
        if self._module_fingerprint is None:
            self._module_fingerprint = module_fingerprint(self.module)
        return self._module_fingerprint

    def profile_fingerprint(self, fn_name: str) -> str:
        """Content digest of one routine's training profile, memoized."""
        if fn_name not in self._profile_fingerprints:
            self._profile_fingerprints[fn_name] = fingerprint_profile(
                self.train_profile(fn_name)
            )
        return self._profile_fingerprints[fn_name]

    # -- pipeline steps, memoized -----------------------------------------

    def _memo(self, kind: str, key: str, compute):
        """One cache lookup, spanned so traces show where a stage's time
        went (recompute vs. load) and whether it hit."""
        before = self.cache.stats.hits.get(kind, 0)
        with get_tracer().span("cache.memo", kind=kind) as span:
            value = self.cache.memo(kind, key, compute)
        span.set(hit=self.cache.stats.hits.get(kind, 0) > before)
        return value

    def _compile_module(self) -> Module:
        key = content_key("module", self.workload.source)
        return self._memo(KIND_MODULE, key, super()._compile_module)

    def _run_train(self) -> RunResult:
        w = self.workload
        key = content_key(
            "train",
            self.module_fingerprint(),
            list(w.train_args),
            _inputs_part(w.train_inputs),
        )
        return self._memo(KIND_TRAIN_RUN, key, super()._run_train)

    def _run_ref(self) -> RunResult:
        w = self.workload
        key = content_key(
            "ref",
            self.module_fingerprint(),
            list(w.ref_args),
            _inputs_part(w.ref_inputs),
        )
        return self._memo(KIND_REF_RUN, key, super()._run_ref)

    def _compute_qualified(
        self, ca: float, cr: float
    ) -> dict[str, QualifiedAnalysis]:
        # One cache entry *per function*: each routine's pipeline depends
        # only on its own IR and its own training profile, so edits to other
        # functions leave it warm.
        from ..core.qualified import run_qualified

        fps = self.function_fingerprints()
        out: dict[str, QualifiedAnalysis] = {}
        for name, fn in self.module.functions.items():
            key = qualified_function_key(
                fps[name],
                self.profile_fingerprint(name),
                ca,
                cr,
            )
            out[name] = self._memo(
                KIND_QUALIFIED,
                key,
                lambda fn=fn, name=name: run_qualified(
                    fn,
                    self.train_profile(name),
                    ca,
                    cr,
                ),
            )
        return out

    def _compute_lint(self, ca: float, cr: float, min_mass: float) -> tuple:
        # Lint is function-local too (both lint passes inspect one function
        # / one routine's qualified analysis at a time), so findings are
        # cached per function and the module result is the re-ranked
        # concatenation — identical to a whole-module lint because
        # ``rank`` is a deterministic total order over the same multiset.
        from ..analyze.runner import compute_function_findings, rank

        qualified = self.qualified(ca, cr)
        fps = self.function_fingerprints()
        findings = []
        for name, fn in self.module.functions.items():
            key = lint_function_key(
                fps[name],
                self.profile_fingerprint(name),
                ca,
                cr,
                min_mass,
            )
            findings.extend(
                self._memo(
                    KIND_LINT,
                    key,
                    lambda fn=fn, name=name: compute_function_findings(
                        fn,
                        qualified.get(name),
                        min_mass,
                        workload=self.workload.name,
                    ),
                )
            )
        return rank(findings)


def make_run(
    workload: Workload,
    cache_dir=None,
    engine: str = "compiled",
    check: bool = False,
) -> WorkloadRun:
    """Build a run, cached when a cache directory (or cache) is given.

    With ``check=True`` a fresh :class:`~repro.checks.runner.PipelineChecker`
    verifies every stage (including cached artifacts) as it completes.
    """
    checker = None
    if check:
        from ..checks.runner import PipelineChecker

        checker = PipelineChecker()
    if cache_dir is None:
        return WorkloadRun(workload, engine=engine, checker=checker)
    cache = cache_dir if isinstance(cache_dir, ArtifactCache) else ArtifactCache(cache_dir)
    return CachedWorkloadRun(workload, cache, engine=engine, checker=checker)
