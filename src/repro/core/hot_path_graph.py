"""Hot-path graphs: the traced CFG of Definition 6.

A :class:`HotPathGraph` is a CFG whose vertices are ``(original vertex,
automaton state)`` pairs, together with the recording edges carried over
from the original graph (§4.2), so the original path profile can be
reinterpreted on it.  A :class:`ReducedGraph` is the result of §5's
reduction: a quotient of a hot-path graph whose vertices are class
representatives.

Both expose ``view()`` so any analysis written against
:class:`~repro.dataflow.graph_view.GraphView` runs on them unchanged.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

from ..automaton.qualification import QualificationAutomaton
from ..dataflow.graph_view import GraphView
from ..ir.cfg import Cfg, Edge
from ..ir.function import Function

OrigVertex = Hashable
#: A traced vertex: (original vertex, automaton state).
HpgVertex = tuple[OrigVertex, int]


class TracedGraph:
    """Common structure of hot-path graphs and reduced hot-path graphs."""

    def __init__(
        self,
        function: Function,
        original_cfg: Cfg,
        original_recording: frozenset[Edge],
        automaton: QualificationAutomaton,
        cfg: Cfg,
        recording: frozenset,
    ) -> None:
        self.function = function
        self.original_cfg = original_cfg
        self.original_recording = original_recording
        self.automaton = automaton
        #: The traced graph itself; vertices are (original vertex, state).
        self.cfg = cfg
        #: Recording edges of the traced graph (pairs of traced vertices).
        self.recording = recording

    @staticmethod
    def state(vertex: HpgVertex) -> int:
        """The automaton state encoded in a traced vertex."""
        return vertex[1]

    def duplicates(self, original: OrigVertex) -> tuple[HpgVertex, ...]:
        """All traced copies of ``original``, in vertex order."""
        return tuple(v for v in self.cfg.vertices if v[0] == original)

    def view(self) -> GraphView:
        """A :class:`GraphView` for running analyses on this graph."""
        blocks = {}
        labels = {}
        for vertex in self.cfg.vertices:
            orig = vertex[0]
            block = self.function.blocks.get(orig)
            if block is not None:
                blocks[vertex] = block
                labels[vertex] = orig
        return GraphView(self.cfg, self.function.params, blocks, labels)

    @property
    def num_real_vertices(self) -> int:
        """Traced vertices excluding the virtual entry/exit copies."""
        return len(
            [v for v in self.cfg.vertices if v[0] in self.function.blocks]
        )

    def growth_over(self, baseline_vertices: int) -> float:
        """Fractional increase in real vertices over the original CFG
        (Figure 11's y-axis)."""
        if baseline_vertices == 0:
            return 0.0
        return (self.num_real_vertices - baseline_vertices) / baseline_vertices


class HotPathGraph(TracedGraph):
    """The product graph produced by data-flow tracing (Figure 4)."""


class ReducedGraph(TracedGraph):
    """The reduced hot-path graph (§5).

    ``classes`` is the final partition ``Π'``; each vertex of :attr:`cfg`
    is a class representative, and :attr:`representative_of` maps every
    original hot-path-graph vertex to its representative.
    """

    def __init__(
        self,
        hpg: HotPathGraph,
        cfg: Cfg,
        recording: frozenset,
        classes: Sequence[tuple[HpgVertex, ...]],
        representative_of: dict[HpgVertex, HpgVertex],
    ) -> None:
        super().__init__(
            hpg.function,
            hpg.original_cfg,
            hpg.original_recording,
            hpg.automaton,
            cfg,
            recording,
        )
        self.hpg = hpg
        self.classes = tuple(classes)
        self.representative_of = representative_of

    def class_of(self, vertex: HpgVertex) -> tuple[HpgVertex, ...]:
        """The class containing a hot-path-graph vertex."""
        rep = self.representative_of[vertex]
        for block in self.classes:
            if block[0] == rep:
                return block
        raise KeyError(vertex)  # pragma: no cover - representative_of is total
