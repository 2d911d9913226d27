"""The end-to-end path-qualified analysis pipeline (§1's five steps).

:func:`run_qualified` performs, for one routine:

1. hot-path selection from a (training) path profile at coverage ``CA``;
2. qualification-automaton construction (Aho–Corasick over trimmed paths);
3. data-flow tracing into a hot-path graph, with recording edges;
4. conditional constant propagation on the hot-path graph;
5. reduction at benefit cutoff ``CR`` and re-analysis of the reduced graph;

plus translation of the path profile onto each produced graph, and a
baseline Wegman–Zadek run on the original CFG for comparison.  With
``CA = 0`` (or an empty profile) no tracing happens and the result degrades
to the baseline, exactly as in the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..automaton.qualification import QualificationAutomaton
from ..obs import Tracer, get_metrics, get_tracer
from ..dataflow.graph_view import GraphView
from ..dataflow.wegman_zadek import CondConstResult, analyze
from ..ir.cfg import Cfg, Edge
from ..ir.function import Function
from ..profiles.hot_paths import select_hot_paths
from ..profiles.path_profile import BLPath, PathProfile
from ..profiles.recording import recording_edges
from .hot_path_graph import HotPathGraph, ReducedGraph
from .reduction import ReductionResult, reduce_hpg
from .tracing import trace
from .translate import reduce_profile, translate_profile


@dataclass
class QualifiedAnalysis:
    """The complete result of path-qualified constant propagation on one
    routine."""

    function: Function
    cfg: Cfg
    recording: frozenset[Edge]
    block_sizes: dict
    ca: float
    cr: float
    train_profile: PathProfile
    #: Baseline: Wegman–Zadek on the original CFG (the paper's CA = 0).
    baseline: CondConstResult
    hot_paths: tuple[BLPath, ...] = ()
    automaton: Optional[QualificationAutomaton] = None
    hpg: Optional[HotPathGraph] = None
    hpg_analysis: Optional[CondConstResult] = None
    hpg_profile: Optional[PathProfile] = None
    reduction: Optional[ReductionResult] = None
    reduced_analysis: Optional[CondConstResult] = None
    reduced_profile: Optional[PathProfile] = None
    #: Wall-clock seconds per phase: automaton/tracing/analysis/reduction/...
    timings: dict[str, float] = field(default_factory=dict)

    # -- convenience accessors -------------------------------------------------

    @property
    def traced(self) -> bool:
        """True if any hot path was selected and tracing ran."""
        return self.hpg is not None

    @property
    def reduced(self) -> Optional[ReducedGraph]:
        return self.reduction.reduced if self.reduction is not None else None

    def final_analysis(self) -> CondConstResult:
        """The analysis whose results the optimizer consumes: the reduced
        graph's when tracing ran, otherwise the baseline."""
        return (
            self.reduced_analysis
            if self.reduced_analysis is not None
            else self.baseline
        )

    def final_profile(self) -> PathProfile:
        """The training profile expressed on the final graph."""
        return (
            self.reduced_profile
            if self.reduced_profile is not None
            else self.train_profile
        )

    @property
    def original_size(self) -> int:
        """Real vertices of the original CFG."""
        return len(self.function.blocks)

    @property
    def hpg_size(self) -> int:
        """Real vertices of the hot-path graph (original size if untraced)."""
        return self.hpg.num_real_vertices if self.hpg else self.original_size

    @property
    def reduced_size(self) -> int:
        """Real vertices of the reduced graph (original size if untraced)."""
        red = self.reduced
        return red.num_real_vertices if red else self.original_size

    @property
    def analysis_time(self) -> float:
        """Total seconds spent in qualified analysis (automaton + tracing +
        solving + reduction + re-analysis), the quantity of Figure 12."""
        return sum(self.timings.values())


#: Vertex-count blow-up relative to the original CFG (paper Figure 11).
_BLOWUP_BUCKETS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0)


def _emit_blowup_metrics(result: "QualifiedAnalysis", automaton, hpg, reduction) -> None:
    """Record hot-path-graph growth and automaton size for one traced
    routine (no-ops when the metrics registry is disabled)."""
    metrics = get_metrics()
    if not metrics.enabled:
        return
    metrics.counter("qualified_traced_routines").inc()
    metrics.counter("qualified_hot_paths").inc(len(result.hot_paths))
    metrics.counter("qualified_automaton_states").inc(automaton.num_states)
    orig = result.original_size
    if orig:
        metrics.histogram(
            "hpg_blowup_factor", buckets=_BLOWUP_BUCKETS
        ).observe(hpg.num_real_vertices / orig)
        metrics.histogram(
            "reduced_blowup_factor", buckets=_BLOWUP_BUCKETS
        ).observe(reduction.reduced.num_real_vertices / orig)


def block_sizes_of(fn: Function) -> dict:
    """Instruction count per CFG vertex (0 for the virtual vertices)."""
    return {label: block.size for label, block in fn.blocks.items()}


def run_qualified(
    fn: Function,
    train_profile: PathProfile,
    ca: float = 0.97,
    cr: float = 0.95,
    cfg: Optional[Cfg] = None,
    recording: Optional[frozenset[Edge]] = None,
) -> QualifiedAnalysis:
    """Run the full pipeline on one routine.

    ``train_profile`` must have been collected on ``fn``'s CFG with the same
    recording-edge set (the interpreter's profiler guarantees this).  The
    three Wegman–Zadek runs (baseline/hpg/reduced) use the engine of the
    ambient :func:`~repro.dataflow.engine_scope`.
    """
    if cfg is None:
        cfg = Cfg.from_function(fn)
    if recording is None:
        recording = recording_edges(cfg)
    block_sizes = block_sizes_of(fn)

    # Phases are timed through spans.  With observability on they land in
    # the global trace (nested under the caller's span); with it off a
    # throwaway local tracer keeps the ``timings`` dict populated.  Only
    # durations enter QualifiedAnalysis, which must stay picklable for the
    # artifact cache.
    tr = get_tracer()
    if not tr.enabled:
        tr = Tracer()
    timings: dict[str, float] = {}

    def phase(name: str):
        return tr.span(f"qualified.{name}", routine=fn.name)

    with phase("baseline") as span:
        baseline = analyze(GraphView.from_function(fn, cfg))
    timings["baseline"] = span.duration

    result = QualifiedAnalysis(
        function=fn,
        cfg=cfg,
        recording=recording,
        block_sizes=block_sizes,
        ca=ca,
        cr=cr,
        train_profile=train_profile,
        baseline=baseline,
        timings=timings,
    )

    hot_paths = select_hot_paths(train_profile, block_sizes, ca)
    result.hot_paths = hot_paths
    if not hot_paths:
        return result

    with phase("automaton") as span:
        automaton = QualificationAutomaton(recording, hot_paths)
    timings["automaton"] = span.duration

    with phase("tracing") as span:
        hpg = trace(fn, cfg, recording, automaton)
    timings["tracing"] = span.duration
    span.set(hpg_vertices=hpg.num_real_vertices)

    with phase("profile_translation") as span:
        hpg_profile = translate_profile(train_profile, hpg)
    timings["profile_translation"] = span.duration

    with phase("hpg_analysis") as span:
        hpg_analysis = analyze(hpg.view())
    timings["hpg_analysis"] = span.duration

    with phase("reduction") as span:
        reduction = reduce_hpg(hpg, hpg_analysis, hpg_profile, cr)
    timings["reduction"] = span.duration

    with phase("reduced_analysis") as span:
        reduced_profile = reduce_profile(hpg_profile, reduction.reduced)
        reduced_analysis = analyze(reduction.reduced.view())
    timings["reduced_analysis"] = span.duration

    _emit_blowup_metrics(result, automaton, hpg, reduction)

    result.automaton = automaton
    result.hpg = hpg
    result.hpg_profile = hpg_profile
    result.hpg_analysis = hpg_analysis
    result.reduction = reduction
    result.reduced_profile = reduced_profile
    result.reduced_analysis = reduced_analysis
    return result
