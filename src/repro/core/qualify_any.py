"""Qualify *any* monotone data-flow problem, not just constant propagation.

The paper: "The technique can be applied to any data-flow problem."  This
module packages that claim as API: give it a routine, a training profile,
and a :class:`~repro.dataflow.framework.DataflowProblem` factory, and it
returns the problem's solution on the hot-path graph next to the baseline
solution on the original CFG, plus helpers for comparing precision per
duplicate.

The factory receives the graph view it will run on, because some problems
need view-specific boundary information (e.g. reaching definitions names the
entry vertex).  Problems that don't can ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from ..automaton.qualification import QualificationAutomaton
from ..dataflow.framework import DataflowProblem, Solution, solve
from ..dataflow.graph_view import GraphView
from ..ir.cfg import Cfg, Edge
from ..ir.function import Function
from ..profiles.hot_paths import select_hot_paths
from ..profiles.path_profile import PathProfile
from ..profiles.recording import recording_edges
from .hot_path_graph import HotPathGraph
from .qualified import block_sizes_of
from .tracing import trace

Vertex = Hashable

#: Builds a problem instance for a given view.
ProblemFactory = Callable[[GraphView], DataflowProblem]


@dataclass
class QualifiedSolution:
    """A data-flow problem solved both ways: plain and path-qualified."""

    function: Function
    hpg: Optional[HotPathGraph]
    #: Solution over the original CFG.
    baseline: Solution
    baseline_view: GraphView
    #: Solution over the hot-path graph (None when no hot paths selected).
    qualified: Optional[Solution]
    qualified_view: Optional[GraphView]

    @property
    def traced(self) -> bool:
        return self.hpg is not None

    def duplicates(self, label: str) -> tuple:
        """Traced copies of the block ``label`` (just the label if untraced)."""
        if self.hpg is None:
            return (label,)
        return self.hpg.duplicates(label)

    def baseline_in(self, label: str):
        """Baseline solution value flowing into ``label``."""
        return self.baseline.value_in[label]

    def qualified_in(self, vertex: Vertex):
        """Qualified solution value flowing into a traced vertex."""
        if self.qualified is None:
            return self.baseline.value_in[vertex]
        return self.qualified.value_in[vertex]


def qualify_problem(
    factory: ProblemFactory,
    fn: Function,
    profile: PathProfile,
    ca: float = 0.97,
    cfg: Optional[Cfg] = None,
    recording: Optional[frozenset[Edge]] = None,
) -> QualifiedSolution:
    """Solve ``factory``'s problem plainly and on the hot-path graph."""
    if cfg is None:
        cfg = Cfg.from_function(fn)
    if recording is None:
        recording = recording_edges(cfg)

    baseline_view = GraphView.from_function(fn, cfg)
    baseline = solve(factory(baseline_view), baseline_view)

    hot = select_hot_paths(profile, block_sizes_of(fn), ca)
    if not hot:
        return QualifiedSolution(
            fn, None, baseline, baseline_view, None, None
        )

    automaton = QualificationAutomaton(recording, hot)
    hpg = trace(fn, cfg, recording, automaton)
    view = hpg.view()
    qualified = solve(factory(view), view)
    return QualifiedSolution(fn, hpg, baseline, baseline_view, qualified, view)
