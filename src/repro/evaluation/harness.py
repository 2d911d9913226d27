"""The experiment harness behind every table and figure.

A :class:`Workload` is a MiniC program plus train and ref inputs (standing in
for SPEC95's train/ref data sets).  A :class:`WorkloadRun` compiles it,
profiles the train input, and lazily runs the qualified-analysis pipeline at
requested coverages, memoizing every step in an
:class:`~repro.pipeline.cache.ArtifactCache` so the coverage sweeps of
Figures 9, 11 and 12 don't recompute shared work.

The harness also builds the two executables Table 2 compares:

* *Base* — Wegman–Zadek constant propagation on the original CFG, folding,
  DCE, profile-guided layout;
* *Optimized* — path-qualified constant propagation (trace, analyze, reduce),
  folding on the reduced graph, DCE, profile-guided layout;

and checks they produce identical output on the ref input before reporting
costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

from ..core.qualified import QualifiedAnalysis, run_qualified
from ..obs import Span, Tracer, get_tracer
from ..frontend.fingerprint import function_fingerprints, module_fingerprint
from ..frontend.lower import compile_program
from ..interp.interpreter import Interpreter, RunResult
from ..ir.function import Module
from ..ir.validate import validate_module
from ..opt.codegen import fold_function, materialize, vertex_labels
from ..opt.dce import eliminate_dead_code
from ..opt.layout import edge_frequencies_from_labels, layout_function
from ..opt.straighten import straighten
from ..pipeline.cache import (
    ArtifactCache,
    KIND_LINT,
    KIND_MODULE,
    KIND_QUALIFIED,
    KIND_REF_RUN,
    KIND_TABLE2,
    KIND_TRAIN_RUN,
    content_key,
    data_digest,
)
from ..profiles.path_profile import PathProfile
from ..profiles.serialize import fingerprint_profile
from ..stats.classify import ConstantClassification, classify_constants

#: The coverage levels swept by Figures 9, 11 and 12.
CA_SWEEP: tuple[float, ...] = (0.0, 0.75, 0.875, 0.9375, 0.97, 1.0)

#: The paper's defaults (§6: CA = 0.97, CR = 0.95).
DEFAULT_CA = 0.97
DEFAULT_CR = 0.95


@dataclass(frozen=True)
class Workload:
    """A benchmark program with train and ref data sets."""

    name: str
    source: str
    train_args: tuple[int, ...]
    train_inputs: Mapping[str, Sequence[int]]
    ref_args: tuple[int, ...]
    ref_inputs: Mapping[str, Sequence[int]]
    description: str = ""

    @cached_property
    def train_digest(self) -> str:
        """:func:`~repro.pipeline.cache.data_digest` of the train data set,
        computed once per object."""
        return data_digest(self.train_args, self.train_inputs)

    @cached_property
    def ref_digest(self) -> str:
        """:func:`~repro.pipeline.cache.data_digest` of the ref data set."""
        return data_digest(self.ref_args, self.ref_inputs)


@dataclass
class Table2Row:
    """Running-time comparison for one workload (Table 2)."""

    name: str
    base_cost: int
    optimized_cost: int

    @property
    def speedup(self) -> float:
        """Base / optimized cost; > 1 means qualification helped."""
        if self.optimized_cost == 0:
            return 1.0
        return self.base_cost / self.optimized_cost


class WorkloadRun:
    """Compiled, profiled workload with memoized per-coverage pipelines.

    Every expensive step goes through the run's
    :class:`~repro.pipeline.cache.ArtifactCache`: a private memory-only one
    by default, or a shared (and optionally disk-backed) one passed as
    ``cache``, which serves artifacts across runs, processes and sessions.
    Keys hash content only (see ``docs/PIPELINE.md``):

    * compiled module — the MiniC source text;
    * train / ref profiling runs — the module's IR fingerprint plus the data
      set's digest (:attr:`Workload.train_digest`), so a whitespace-only
      edit recompiles (cheap) but does not re-profile;
    * qualified pipelines and lint — **per function**: the function's IR
      fingerprint, that routine's profile fingerprint, CA and CR (and the
      lint's ``min_mass``), so an edit to ``f`` leaves ``g``'s artifacts
      warm — what makes :mod:`repro.pipeline.incremental` cheap;
    * Table-2 costs — both run keys, CA and CR.

    No engine enters a key: the differential suites prove every engine equal
    to its oracle, so an artifact computed under any engine serves all.
    """

    def __init__(
        self,
        workload: Workload,
        engine: str = "compiled",
        checker=None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        if engine not in ("reference", "compiled"):
            raise ValueError(f"bad engine {engine!r}")
        self.workload = workload
        self.engine = engine
        self.cache = cache if cache is not None else ArtifactCache()
        # Self-verification hooks (null object when disabled; see
        # repro.checks.runner).  Imported lazily: the checks package must
        # stay importable from repro.ir, which this module imports.
        if checker is None:
            from ..checks.runner import NULL_CHECKER

            checker = NULL_CHECKER
        self.checker = checker
        # Stage timings are measured through spans.  When observability is
        # on, the stages land in the global trace; when it is off, a private
        # always-enabled tracer keeps ``timings`` real without publishing
        # anything.
        tr = get_tracer()
        if not tr.enabled:
            tr = Tracer()
        self.tracer = tr
        self._stage_spans: dict[str, Span] = {}
        self._fn_fingerprints: Optional[dict[str, str]] = None
        self._module_fingerprint: Optional[str] = None
        self._profile_fingerprints: dict[str, str] = {}

        with tr.span("workload.compile", workload=workload.name) as span:
            self.module: Module = self._memo(
                KIND_MODULE,
                content_key("module", workload.source),
                lambda: compile_program(workload.source),
            )
            validate_module(self.module)
        self._stage_spans["compile"] = span
        if checker.enabled:
            checker.after_compile(workload.name, self.module)

        train_key, ref_key = self.run_keys()
        with tr.span(
            "workload.train_run", workload=workload.name, engine=engine
        ) as span:
            self.train: RunResult = self._memo(
                KIND_TRAIN_RUN,
                train_key,
                lambda: Interpreter(
                    self.module, profile_mode="bl", track_sites=False, engine=engine
                ).run(workload.train_args, workload.train_inputs),
            )
        span.set(instructions=self.train.instr_count)
        self._stage_spans["train_run"] = span
        if checker.enabled:
            checker.after_run(workload.name, "train", self.module, self.train)

        with tr.span(
            "workload.ref_run", workload=workload.name, engine=engine
        ) as span:
            self.ref: RunResult = self._memo(
                KIND_REF_RUN,
                ref_key,
                lambda: Interpreter(
                    self.module, profile_mode="bl", track_sites=True, engine=engine
                ).run(workload.ref_args, workload.ref_inputs),
            )
        span.set(instructions=self.ref.instr_count)
        self._stage_spans["ref_run"] = span
        if checker.enabled:
            checker.after_run(workload.name, "ref", self.module, self.ref)

        # The run's view of the cache: each (CA, CR) is looked up once, so
        # checker hooks fire once per run and metrics recompute no keys.
        self._qualified: dict[tuple[float, float], dict[str, QualifiedAnalysis]] = {}
        self._classified: dict[
            tuple[float, float], dict[str, ConstantClassification]
        ] = {}
        self._lint: dict[tuple[float, float, float], tuple] = {}

    @property
    def timings(self) -> dict[str, float]:
        """Wall-clock seconds per stage (keys: ``compile``, ``train_run``,
        ``ref_run``) — a view derived from the stage spans, kept for
        compatibility with pre-observability consumers."""
        return {name: span.duration for name, span in self._stage_spans.items()}

    @property
    def compile_time(self) -> float:
        """Seconds spent compiling the workload (alias of ``timings``)."""
        return self.timings["compile"]

    # -- memoization ------------------------------------------------------

    def _memo(self, kind: str, key: str, compute):
        """One cache lookup, spanned so traces show where a stage's time
        went (recompute vs. load) and whether it hit.  ``hit`` means this
        lookup did not compute: a concurrent lookup's hit cannot mark it."""
        computed = False

        def tracked():
            nonlocal computed
            computed = True
            return compute()

        with get_tracer().span("cache.memo", kind=kind) as span:
            value = self.cache.memo(kind, key, tracked)
        span.set(hit=not computed)
        return value

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

    def run_keys(self) -> tuple[str, str]:
        """Cache keys of the (train, ref) profiling runs."""
        fp = self.module_fingerprint()
        return (
            content_key("train", fp, self.workload.train_digest),
            content_key("ref", fp, self.workload.ref_digest),
        )

    def qualified_key(self, fn_name: str, ca: float, cr: float) -> str:
        """Cache key of one function's qualified pipeline artifact."""
        return content_key(
            "qualified-fn",
            self.function_fingerprints()[fn_name],
            self.profile_fingerprint(fn_name),
            ca,
            cr,
        )

    def lint_key(self, fn_name: str, ca: float, cr: float, min_mass: float) -> str:
        """Cache key of one function's ranked lint findings; the analyzer's
        mass threshold is part of it, since findings depend on it."""
        return content_key(
            "lint-fn",
            self.function_fingerprints()[fn_name],
            self.profile_fingerprint(fn_name),
            ca,
            cr,
            min_mass,
        )

    # -- analysis ---------------------------------------------------------

    def function_names(self) -> tuple[str, ...]:
        return tuple(self.module.functions)

    def train_profile(self, fn_name: str) -> PathProfile:
        """The training profile of one routine (empty if never called)."""
        return self.train.profiles.get(fn_name, PathProfile())

    def ref_profile(self, fn_name: str) -> PathProfile:
        return self.ref.profiles.get(fn_name, PathProfile())

    def qualified(
        self, ca: float = DEFAULT_CA, cr: float = DEFAULT_CR
    ) -> dict[str, QualifiedAnalysis]:
        """Per-routine pipeline results at the given coverage, cached.

        One artifact per function: each routine's pipeline depends only on
        its own IR and its own training profile."""
        key = (ca, cr)
        if key not in self._qualified:
            with self.tracer.span(
                "workload.qualify", workload=self.workload.name, ca=ca, cr=cr
            ):
                self._qualified[key] = {
                    name: self._memo(
                        KIND_QUALIFIED,
                        self.qualified_key(name, ca, cr),
                        lambda fn=fn, name=name: run_qualified(
                            fn, self.train_profile(name), ca, cr
                        ),
                    )
                    for name, fn in self.module.functions.items()
                }
            # Also covers cache hits: an artifact loaded from disk is
            # checked like a fresh one, and a memory hit replays the verdict
            # of the very object it returns.
            if self.checker.enabled:
                self.checker.after_qualified(
                    self.workload.name, self._qualified[key]
                )
        return self._qualified[key]

    def lint(
        self,
        ca: float = DEFAULT_CA,
        cr: float = DEFAULT_CR,
        min_mass: Optional[float] = None,
    ) -> tuple:
        """Ranked analyzer findings (classic + path lints), cached.

        Both lint passes are function-local, so findings are cached per
        function and the module result is the re-ranked concatenation —
        identical to a whole-module lint because ``rank`` is a
        deterministic total order over the same multiset."""
        from ..analyze.passes import DEFAULT_MIN_MASS
        from ..analyze.runner import compute_function_findings, rank

        if min_mass is None:
            min_mass = DEFAULT_MIN_MASS
        key = (ca, cr, min_mass)
        if key not in self._lint:
            with self.tracer.span(
                "workload.lint",
                workload=self.workload.name,
                ca=ca,
                cr=cr,
                min_mass=min_mass,
            ) as span:
                qualified = self.qualified(ca, cr)
                self._lint[key] = rank(
                    finding
                    for name, fn in self.module.functions.items()
                    for finding in self._memo(
                        KIND_LINT,
                        self.lint_key(name, ca, cr, min_mass),
                        lambda fn=fn, name=name: compute_function_findings(
                            fn, qualified.get(name), min_mass, self.workload.name
                        ),
                    )
                )
            span.set(findings=len(self._lint[key]))
        return self._lint[key]

    def classification(
        self, ca: float = DEFAULT_CA, cr: float = DEFAULT_CR
    ) -> dict[str, ConstantClassification]:
        """Per-routine constant classification against the ref profile."""
        key = (ca, cr)
        if key not in self._classified:
            qualified = self.qualified(ca, cr)
            with self.tracer.span(
                "workload.classify", workload=self.workload.name, ca=ca, cr=cr
            ):
                self._classified[key] = {
                    name: classify_constants(
                        qa,
                        self.ref_profile(name),
                        self.ref.tainted.get(name, 0),
                    )
                    for name, qa in qualified.items()
                }
        return self._classified[key]

    # -- aggregate metrics ----------------------------------------------------

    @property
    def cfg_nodes(self) -> int:
        """Total CFG nodes (basic blocks) in the program — Table 1."""
        return sum(len(fn.blocks) for fn in self.module.functions.values())

    @property
    def executed_paths(self) -> int:
        """Distinct Ball–Larus paths executed in the training run — Table 1."""
        return sum(p.num_distinct for p in self.train.profiles.values())

    def hot_path_count(self, ca: float = DEFAULT_CA) -> int:
        """Paths needed to cover ``ca`` of training instructions — Table 1."""
        return sum(len(qa.hot_paths) for qa in self.qualified(ca).values())

    def analysis_time(self, ca: float, cr: float = DEFAULT_CR) -> float:
        """Total qualified-analysis seconds at coverage ``ca`` (Figure 12)."""
        return sum(qa.analysis_time for qa in self.qualified(ca, cr).values())

    def graph_sizes(
        self, ca: float, cr: float = DEFAULT_CR
    ) -> tuple[int, int, int]:
        """(original, traced, reduced) total real vertices (Figure 11)."""
        orig = hpg = red = 0
        for qa in self.qualified(ca, cr).values():
            orig += qa.original_size
            hpg += qa.hpg_size
            red += qa.reduced_size
        return orig, hpg, red

    def aggregate_classification(
        self, ca: float = DEFAULT_CA, cr: float = DEFAULT_CR
    ) -> ConstantClassification:
        """Whole-program classification: per-routine counts summed."""
        rows = list(self.classification(ca, cr).values())
        return ConstantClassification(
            total_dynamic=sum(r.total_dynamic for r in rows),
            local=sum(r.local for r in rows),
            unknowable=sum(r.unknowable for r in rows),
            iterative_nonlocal=sum(r.iterative_nonlocal for r in rows),
            qualified_nonlocal=sum(r.qualified_nonlocal for r in rows),
            baseline_constants=sum(r.baseline_constants for r in rows),
            qualified_constants=sum(r.qualified_constants for r in rows),
            identical_extra=sum(r.identical_extra for r in rows),
            variable=sum(r.variable for r in rows),
            mixed=sum(r.mixed for r in rows),
        )

    # -- executables (Table 2) ---------------------------------------------------

    def build_base_module(
        self, ca: float = DEFAULT_CA, cr: float = DEFAULT_CR
    ) -> Module:
        """Original CFG + Wegman–Zadek folding + DCE + layout.

        The baseline solve runs on the original CFG before hot paths are
        selected, so every (CA, CR) bundle carries the same one; reading it
        from the bundle the optimized build uses costs no extra level."""
        qualified = self.qualified(ca, cr)
        return self._finish_module(
            (
                fold_function(fn, qualified[name].baseline),
                self.train_profile(name).edge_frequencies(),
            )
            for name, fn in self.module.functions.items()
        )

    def build_optimized_module(
        self, ca: float = DEFAULT_CA, cr: float = DEFAULT_CR
    ) -> Module:
        """Reduced hot-path graph + qualified folding + DCE + layout."""

        def built(name: str, fn):
            qa = self.qualified(ca, cr)[name]
            if not qa.traced:
                return (
                    fold_function(fn, qa.baseline),
                    self.train_profile(name).edge_frequencies(),
                )
            reduced = qa.reduced
            return (
                materialize(reduced, qa.reduced_analysis, fold=True),
                edge_frequencies_from_labels(
                    qa.reduced_profile.edge_frequencies(), vertex_labels(reduced)
                ),
            )

        return self._finish_module(
            built(name, fn) for name, fn in self.module.functions.items()
        )

    def _finish_module(self, builds) -> Module:
        """The tail both Table-2 builds share: DCE, straighten and lay out
        each ``(function, edge frequencies)`` build, keeping only the edges
        between blocks that survived (both passes only delete blocks), into
        a validated module with the original's arrays."""
        out = self._fresh_module()
        for fn, freqs in builds:
            eliminate_dead_code(fn)
            straighten(fn)
            layout_function(
                fn,
                {
                    (u, v): c
                    for (u, v), c in freqs.items()
                    if u in fn.blocks and v in fn.blocks
                },
            )
            out.add_function(fn)
        validate_module(out)
        return out

    def _fresh_module(self) -> Module:
        out = Module()
        for decl in self.module.arrays.values():
            out.add_array(decl)
        return out

    def table2(self, ca: float = DEFAULT_CA, cr: float = DEFAULT_CR) -> Table2Row:
        """Run base and optimized builds on the ref input and compare costs.

        The two costs are cached under the run keys, CA and CR, so the row
        carries this run's name while programs of equal content share the
        costs.  The bundles are looked up first either way, so a checked
        run verifies what the builds read whether or not the costs hit.
        Raises if either build changes observable behaviour; nothing is
        cached then.
        """
        self.qualified(ca, cr)
        base_cost, optimized_cost = self._memo(
            KIND_TABLE2,
            content_key("table2", *self.run_keys(), ca, cr),
            lambda: self._table2_costs(ca, cr),
        )
        return Table2Row(
            name=self.workload.name,
            base_cost=base_cost,
            optimized_cost=optimized_cost,
        )

    def _table2_costs(self, ca: float, cr: float) -> tuple[int, int]:
        """(base, optimized) cost of the two builds on the ref input."""
        with self.tracer.span(
            "workload.build_base", workload=self.workload.name
        ):
            base = self.build_base_module(ca, cr)
        with self.tracer.span(
            "workload.build_optimized", workload=self.workload.name, ca=ca, cr=cr
        ):
            optimized = self.build_optimized_module(ca, cr)
        base_run = Interpreter(
            base, profile_mode=None, track_sites=False, engine=self.engine
        ).run(self.workload.ref_args, self.workload.ref_inputs)
        opt_run = Interpreter(
            optimized, profile_mode=None, track_sites=False, engine=self.engine
        ).run(self.workload.ref_args, self.workload.ref_inputs)
        if (
            base_run.output != self.ref.output
            or opt_run.output != self.ref.output
            or base_run.return_value != self.ref.return_value
            or opt_run.return_value != self.ref.return_value
        ):
            raise AssertionError(
                f"{self.workload.name}: optimized build changed behaviour"
            )
        return base_run.cost, opt_run.cost


def make_run(
    workload: Workload,
    cache: Optional[ArtifactCache] = None,
    engine: str = "compiled",
    check: bool = False,
) -> WorkloadRun:
    """A run over ``cache`` (a private memory-only one when ``None``).

    With ``check=True`` a fresh :class:`~repro.checks.runner.PipelineChecker`
    verifies every stage (including cached artifacts) as it completes; an
    artifact the cache returns from memory replays its recorded verdict.
    """
    from ..checks.runner import PipelineChecker

    checker = PipelineChecker() if check else None
    return WorkloadRun(workload, engine=engine, checker=checker, cache=cache)
