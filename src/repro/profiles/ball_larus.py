"""Ball–Larus path numbering, instrumentation increments, and regeneration.

This implements the efficient-path-profiling machinery of [BL96] adapted to
the paper's Definition 7 formulation, in which a path runs from the target of
one recording edge up to and including the next recording edge.

For each vertex ``v``, ``num_paths(v)`` counts the Ball–Larus path *suffixes*
beginning at ``v``:

    num_paths(v) = (number of recording out-edges of v)
                 + sum(num_paths(w) for non-recording edges (v, w))

Each path starting at a start vertex ``s`` then has a unique id in
``[0, num_paths(s))``, obtained by summing per-edge increments along the way
(non-recording edges) plus a final offset contributed by the terminating
recording edge.  Regeneration inverts the numbering.

A profiler therefore needs one *path register* plus one table lookup per
branch — the low overhead that makes path profiling practical — and the
interpreter's :class:`~repro.interp.profiler.BallLarusProfiler` does exactly
this.  Property tests check that the increment-based profile always equals
the trace-splitting oracle of :func:`~repro.profiles.path_profile.split_trace`.
"""

from __future__ import annotations

from typing import Hashable

from ..ir.cfg import Cfg, Edge
from .path_profile import BLPath
from .recording import path_start_vertices

Vertex = Hashable


class BallLarusNumbering:
    """Path numbering for a CFG and recording-edge set."""

    def __init__(self, cfg: Cfg, recording: frozenset[Edge]) -> None:
        self.cfg = cfg
        self.recording = recording
        #: non-recording out-neighbours of each vertex, in edge order
        self._nonrec: dict[Vertex, tuple[Vertex, ...]] = {}
        #: recording out-neighbours of each vertex, in edge order
        self._rec: dict[Vertex, tuple[Vertex, ...]] = {}
        for v in cfg.vertices:
            succs = cfg.succs(v)
            self._nonrec[v] = tuple(w for w in succs if (v, w) not in recording)
            self._rec[v] = tuple(w for w in succs if (v, w) in recording)
        self._num_paths = self._compute_num_paths()
        self._edge_inc, self._final_offset = self._compute_increments()
        self.start_vertices = path_start_vertices(cfg, recording)

    @classmethod
    def for_cfg(cls, cfg: Cfg, recording: frozenset[Edge]) -> "BallLarusNumbering":
        """A numbering for ``(cfg, recording)``, cached on the cfg.

        The numbering is deterministic given its inputs, so every consumer
        of the same cfg (train run, ref run, both engines, cached sweeps)
        can share one instance instead of recomputing the DAG recursion.
        """
        cache = cfg.__dict__.setdefault("_numbering_cache", {})
        key = recording
        numbering = cache.get(key)
        if numbering is None:
            numbering = cls(cfg, recording)
            cache[key] = numbering
        return numbering

    # -- numbering ----------------------------------------------------------

    def _compute_num_paths(self) -> dict[Vertex, int]:
        order = self._topological_order()
        num: dict[Vertex, int] = {}
        for v in reversed(order):
            total = len(self._rec[v])
            for w in self._nonrec[v]:
                total += num[w]
            num[v] = total
        return num

    def _topological_order(self) -> list[Vertex]:
        """Topological order of the graph restricted to non-recording edges."""
        indeg: dict[Vertex, int] = {v: 0 for v in self.cfg.vertices}
        for v in self.cfg.vertices:
            for w in self._nonrec[v]:
                indeg[w] += 1
        worklist = [v for v in self.cfg.vertices if indeg[v] == 0]
        order: list[Vertex] = []
        while worklist:
            v = worklist.pop()
            order.append(v)
            for w in self._nonrec[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    worklist.append(w)
        if len(order) != self.cfg.num_vertices:
            raise ValueError("graph is cyclic without its recording edges")
        return order

    def num_paths_from(self, v: Vertex) -> int:
        """Number of Ball–Larus path suffixes beginning at ``v``."""
        return self._num_paths[v]

    def _compute_increments(self) -> tuple[dict[Edge, int], dict[Edge, int]]:
        edge_inc: dict[Edge, int] = {}
        final_offset: dict[Edge, int] = {}
        for v in self.cfg.vertices:
            offset = 0
            for w in self._nonrec[v]:
                edge_inc[(v, w)] = offset
                offset += self._num_paths[w]
            for w in self._rec[v]:
                final_offset[(v, w)] = offset
                offset += 1
        return edge_inc, final_offset

    def edge_increment(self, edge: Edge) -> int:
        """Path-register increment for a non-recording edge."""
        return self._edge_inc[edge]

    def final_offset(self, edge: Edge) -> int:
        """Offset added when a recording edge terminates a path."""
        return self._final_offset[edge]

    # -- path <-> id --------------------------------------------------------

    def path_id(self, path: BLPath) -> tuple[Vertex, int]:
        """The (start vertex, id) pair of a Ball–Larus path."""
        pid = 0
        edges = path.edges()
        for edge in edges[:-1]:
            if edge in self.recording:
                raise ValueError(f"interior edge {edge!r} is a recording edge")
            pid += self._edge_inc[edge]
        last = edges[-1]
        if last not in self.recording:
            raise ValueError(f"final edge {last!r} is not a recording edge")
        pid += self._final_offset[last]
        return path.start, pid

    def regenerate(self, start: Vertex, pid: int) -> BLPath:
        """The unique Ball–Larus path with the given start vertex and id."""
        if not 0 <= pid < self._num_paths.get(start, 0):
            raise ValueError(
                f"path id {pid} out of range for start {start!r} "
                f"(num_paths={self._num_paths.get(start, 0)})"
            )
        vertices: list[Vertex] = [start]
        v = start
        while True:
            advanced = False
            for w in self._nonrec[v]:
                n = self._num_paths[w]
                if pid < n:
                    vertices.append(w)
                    v = w
                    advanced = True
                    break
                pid -= n
            if advanced:
                continue
            # pid now indexes a recording out-edge of v.
            w = self._rec[v][pid]
            vertices.append(w)
            return BLPath(tuple(vertices))

    @property
    def total_potential_paths(self) -> int:
        """Total potential Ball–Larus paths in the routine — the paper's
        "universe of billions of acyclic paths" a profile samples from."""
        return sum(self._num_paths[s] for s in self.start_vertices)
