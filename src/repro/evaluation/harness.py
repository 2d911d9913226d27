"""The experiment harness behind every table and figure.

A :class:`Workload` is a MiniC program plus train and ref inputs (standing in
for SPEC95's train/ref data sets).  A :class:`WorkloadRun` compiles it,
profiles the train input, and lazily runs the qualified-analysis pipeline at
requested coverages, caching everything so the coverage sweeps of Figures 9,
11 and 12 don't recompute shared work.

The harness also builds the two executables Table 2 compares:

* *Base* — Wegman–Zadek constant propagation on the original CFG, folding,
  DCE, profile-guided layout;
* *Optimized* — path-qualified constant propagation (trace, analyze, reduce),
  folding on the reduced graph, DCE, profile-guided layout;

and checks they produce identical output on the ref input before reporting
costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..core.qualified import QualifiedAnalysis, run_qualified
from ..obs import Span, Tracer, get_tracer
from ..frontend.lower import compile_program
from ..interp.interpreter import Interpreter, RunResult
from ..ir.function import Module
from ..ir.validate import validate_module
from ..opt.codegen import fold_function, materialize, vertex_labels
from ..opt.dce import eliminate_dead_code
from ..opt.layout import edge_frequencies_from_labels, layout_function
from ..opt.straighten import straighten
from ..profiles.path_profile import PathProfile
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
    """Compiled, profiled workload with cached per-coverage pipelines.

    The expensive steps — compilation, the train and ref profiling runs, and
    the per-coverage qualified pipelines — are factored into overridable
    methods so subclasses (notably
    :class:`repro.pipeline.CachedWorkloadRun`) can memoize them across
    processes and sessions without re-implementing any of the metrics below.
    """

    def __init__(
        self,
        workload: Workload,
        engine: str = "compiled",
        tracer: Optional[Tracer] = None,
        checker=None,
    ) -> None:
        if engine not in ("reference", "compiled"):
            raise ValueError(f"bad engine {engine!r}")
        self.workload = workload
        self.engine = engine
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
        tr = tracer if tracer is not None else get_tracer()
        if not tr.enabled:
            tr = Tracer()
        self.tracer = tr
        self._stage_spans: dict[str, Span] = {}

        with tr.span("workload.compile", workload=workload.name) as span:
            self.module: Module = self._compile_module()
            validate_module(self.module)
        self._stage_spans["compile"] = span
        if checker.enabled:
            checker.after_compile(workload.name, self.module)

        with tr.span(
            "workload.train_run", workload=workload.name, engine=engine
        ) as span:
            self.train: RunResult = self._run_train()
        span.set(instructions=self.train.instr_count)
        self._stage_spans["train_run"] = span
        if checker.enabled:
            checker.after_run(workload.name, "train", self.module, self.train)

        with tr.span(
            "workload.ref_run", workload=workload.name, engine=engine
        ) as span:
            self.ref: RunResult = self._run_ref()
        span.set(instructions=self.ref.instr_count)
        self._stage_spans["ref_run"] = span
        if checker.enabled:
            checker.after_run(workload.name, "ref", self.module, self.ref)

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

    # -- overridable pipeline steps ---------------------------------------

    def _compile_module(self) -> Module:
        return compile_program(self.workload.source)

    def _run_train(self) -> RunResult:
        return Interpreter(
            self.module, profile_mode="bl", track_sites=False, engine=self.engine
        ).run(self.workload.train_args, self.workload.train_inputs)

    def _run_ref(self) -> RunResult:
        return Interpreter(
            self.module, profile_mode="bl", track_sites=True, engine=self.engine
        ).run(self.workload.ref_args, self.workload.ref_inputs)

    def _compute_qualified(
        self, ca: float, cr: float
    ) -> dict[str, QualifiedAnalysis]:
        return {
            name: run_qualified(fn, self.train_profile(name), ca, cr)
            for name, fn in self.module.functions.items()
        }

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
        """Per-routine pipeline results at the given coverage, cached."""
        key = (ca, cr)
        if key not in self._qualified:
            with self.tracer.span(
                "workload.qualify", workload=self.workload.name, ca=ca, cr=cr
            ):
                self._qualified[key] = self._compute_qualified(ca, cr)
            # Deliberately also covers subclass cache hits: a corrupted
            # cached artifact fails its invariants just like a fresh one.
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

        Subclasses memoize through :meth:`_compute_lint`, whose cache key
        must include the analyzer configuration (``min_mass`` alongside the
        coverage parameters)."""
        from ..analyze.passes import DEFAULT_MIN_MASS

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
                self._lint[key] = self._compute_lint(ca, cr, min_mass)
            span.set(findings=len(self._lint[key]))
        return self._lint[key]

    def _compute_lint(self, ca: float, cr: float, min_mass: float) -> tuple:
        from ..analyze.runner import compute_findings

        return compute_findings(
            self.module,
            self.qualified(ca, cr),
            min_mass,
            workload=self.workload.name,
        )

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
                        qa, self.ref_profile(name), self.ref.site_stats
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

    def build_base_module(self) -> Module:
        """Original CFG + Wegman–Zadek folding + DCE + layout."""
        out = self._fresh_module()
        for name, fn in self.module.functions.items():
            qa = self.qualified(0.0)[name]
            folded = fold_function(fn, qa.baseline)
            eliminate_dead_code(folded)
            straighten(folded)
            freqs = {
                (u, v): c
                for (u, v), c in self.train_profile(name).edge_frequencies().items()
                if u in folded.blocks and v in folded.blocks
            }
            layout_function(folded, freqs)
            out.add_function(folded)
        validate_module(out)
        return out

    def build_optimized_module(
        self, ca: float = DEFAULT_CA, cr: float = DEFAULT_CR
    ) -> Module:
        """Reduced hot-path graph + qualified folding + DCE + layout."""
        out = self._fresh_module()
        for name, fn in self.module.functions.items():
            qa = self.qualified(ca, cr)[name]
            if qa.traced:
                reduced = qa.reduced
                optimized = materialize(reduced, qa.reduced_analysis, fold=True)
                labels = vertex_labels(reduced)
                freqs = edge_frequencies_from_labels(
                    qa.reduced_profile.edge_frequencies(), labels
                )
                freqs = {
                    (u, v): c
                    for (u, v), c in freqs.items()
                    if u in optimized.blocks and v in optimized.blocks
                }
            else:
                optimized = fold_function(fn, qa.baseline)
                freqs = {
                    (u, v): c
                    for (u, v), c in self.train_profile(name)
                    .edge_frequencies()
                    .items()
                    if u in optimized.blocks and v in optimized.blocks
                }
            eliminate_dead_code(optimized)
            straighten(optimized)
            freqs = {
                (u, v): c
                for (u, v), c in freqs.items()
                if u in optimized.blocks and v in optimized.blocks
            }
            layout_function(optimized, freqs)
            out.add_function(optimized)
        validate_module(out)
        return out

    def _fresh_module(self) -> Module:
        out = Module()
        for decl in self.module.arrays.values():
            out.add_array(decl)
        return out

    def table2(self, ca: float = DEFAULT_CA, cr: float = DEFAULT_CR) -> Table2Row:
        """Run base and optimized builds on the ref input and compare costs.

        Raises if either build changes observable behaviour.
        """
        with self.tracer.span(
            "workload.build_base", workload=self.workload.name
        ):
            base = self.build_base_module()
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
        return Table2Row(
            name=self.workload.name,
            base_cost=base_run.cost,
            optimized_cost=opt_run.cost,
        )
