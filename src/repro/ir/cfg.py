"""Control-flow graphs.

A :class:`Cfg` is a directed graph over hashable, ordered vertices with a
distinguished entry and exit.  Function CFGs use block labels as vertices and
add two *virtual* vertices:

* ``ENTRY`` (``"__entry__"``) with a single edge to the entry block — the
  paper's entry vertex ``r`` whose outgoing edges are recording edges;
* ``EXIT`` (``"__exit__"``) with an edge from every returning block — edges
  into the exit are recording edges.

Hot-path graphs reuse the same class with ``(vertex, state)`` tuples as
vertices, so all graph algorithms (DFS, retreating edges, dominators) apply
unchanged.

All iteration orders are deterministic: vertices in insertion order,
successors in the order edges were added.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional

from .function import Function
from .instructions import Ret

ENTRY = "__entry__"
EXIT = "__exit__"

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


class Cfg:
    """A directed graph with entry and exit vertices.

    Parallel edges are not supported (an edge is identified by its endpoint
    pair, as in the paper, where automaton transitions are labelled by CFG
    edges).
    """

    def __init__(
        self,
        entry: Vertex = ENTRY,
        exit: Vertex = EXIT,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self.entry = entry
        self.exit = exit
        self._succs: dict[Vertex, list[Vertex]] = {}
        self._preds: dict[Vertex, list[Vertex]] = {}
        self.add_vertex(entry)
        self.add_vertex(exit)
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction -----------------------------------------------------

    def add_vertex(self, v: Vertex) -> None:
        """Add a vertex (no-op if already present)."""
        if v not in self._succs:
            self._succs[v] = []
            self._preds[v] = []

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add edge ``(u, v)``, creating missing vertices; no-op if present."""
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._succs[u]:
            self._succs[u].append(v)
            self._preds[v].append(u)

    @classmethod
    def from_function(cls, fn: Function) -> "Cfg":
        """The CFG of ``fn`` with virtual ``ENTRY`` and ``EXIT`` vertices."""
        cfg = cls()
        for label in fn.blocks:
            cfg.add_vertex(label)
        cfg.add_edge(ENTRY, fn.entry)
        for label, block in fn.blocks.items():
            for succ in block.successors():
                cfg.add_edge(label, succ)
            if isinstance(block.terminator, Ret):
                cfg.add_edge(label, EXIT)
        return cfg

    # -- queries -----------------------------------------------------------

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """All vertices, in insertion order."""
        return tuple(self._succs)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges, grouped by source in insertion order."""
        return tuple((u, v) for u in self._succs for v in self._succs[u])

    def succs(self, v: Vertex) -> tuple[Vertex, ...]:
        """Successors of ``v`` in edge-insertion order."""
        return tuple(self._succs[v])

    def preds(self, v: Vertex) -> tuple[Vertex, ...]:
        """Predecessors of ``v`` in edge-insertion order."""
        return tuple(self._preds[v])

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._succs and v in self._succs[u]

    def __contains__(self, v: Vertex) -> bool:
        return v in self._succs

    @property
    def num_vertices(self) -> int:
        return len(self._succs)

    def real_vertices(self) -> tuple[Vertex, ...]:
        """Vertices excluding the virtual entry and exit."""
        return tuple(v for v in self._succs if v not in (self.entry, self.exit))

    # -- traversals ---------------------------------------------------------

    def dfs_preorder(self) -> tuple[Vertex, ...]:
        """Depth-first preorder from the entry (deterministic)."""
        order: list[Vertex] = []
        seen: set[Vertex] = set()
        stack: list[Vertex] = [self.entry]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            order.append(v)
            for s in reversed(self._succs[v]):
                if s not in seen:
                    stack.append(s)
        return tuple(order)

    def reachable(self) -> set[Vertex]:
        """Vertices reachable from the entry."""
        return set(self.dfs_preorder())

    def retreating_edges(self) -> tuple[Edge, ...]:
        """Edges whose target is on the DFS stack when traversed (back edges).

        These are the paper's *retreating edges*: removing them (together with
        entry and exit edges) makes the graph acyclic, which is what the
        Ball–Larus recording-edge set requires.  The DFS is deterministic, so
        the same graph always yields the same set.
        """
        retreating: list[Edge] = []
        color: dict[Vertex, int] = {}  # 0/absent = white, 1 = gray, 2 = black

        # Iterative DFS with an explicit stack of (vertex, iterator index).
        stack: list[tuple[Vertex, int]] = []
        if self.entry in self._succs:
            color[self.entry] = 1
            stack.append((self.entry, 0))
        while stack:
            v, i = stack[-1]
            succs = self._succs[v]
            if i < len(succs):
                stack[-1] = (v, i + 1)
                w = succs[i]
                c = color.get(w, 0)
                if c == 1:
                    retreating.append((v, w))
                elif c == 0:
                    color[w] = 1
                    stack.append((w, 0))
            else:
                color[v] = 2
                stack.pop()
        return tuple(retreating)

    def is_acyclic_without(self, removed: Iterable[Edge]) -> bool:
        """True if the graph restricted to edges not in ``removed`` is acyclic."""
        removed_set = set(removed)
        indeg: dict[Vertex, int] = {v: 0 for v in self._succs}
        for u, v in self.edges:
            if (u, v) not in removed_set:
                indeg[v] += 1
        worklist = [v for v, d in indeg.items() if d == 0]
        count = 0
        while worklist:
            u = worklist.pop()
            count += 1
            for v in self._succs[u]:
                if (u, v) in removed_set:
                    continue
                indeg[v] -= 1
                if indeg[v] == 0:
                    worklist.append(v)
        return count == len(self._succs)

    # -- dominators and reducibility ----------------------------------------

    def immediate_dominators(self) -> dict[Vertex, Vertex]:
        """Immediate dominators of reachable vertices (Cooper–Harvey–Kennedy).

        The entry maps to itself.
        """
        order = self.dfs_preorder()
        # Reverse postorder via DFS finish times.
        rpo = self._reverse_postorder()
        index = {v: i for i, v in enumerate(rpo)}
        idom: dict[Vertex, Optional[Vertex]] = {v: None for v in order}
        idom[self.entry] = self.entry

        def intersect(a: Vertex, b: Vertex) -> Vertex:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]  # type: ignore[assignment]
                while index[b] > index[a]:
                    b = idom[b]  # type: ignore[assignment]
            return a

        changed = True
        reachable = set(rpo)
        while changed:
            changed = False
            for v in rpo:
                if v == self.entry:
                    continue
                preds = [p for p in self._preds[v] if p in reachable and idom[p] is not None]
                if not preds:
                    continue
                new = preds[0]
                for p in preds[1:]:
                    new = intersect(new, p)
                if idom[v] != new:
                    idom[v] = new
                    changed = True
        return {v: d for v, d in idom.items() if d is not None}

    def _reverse_postorder(self) -> tuple[Vertex, ...]:
        post: list[Vertex] = []
        color: dict[Vertex, int] = {self.entry: 1}
        stack: list[tuple[Vertex, int]] = [(self.entry, 0)]
        while stack:
            v, i = stack[-1]
            succs = self._succs[v]
            if i < len(succs):
                stack[-1] = (v, i + 1)
                w = succs[i]
                if color.get(w, 0) == 0:
                    color[w] = 1
                    stack.append((w, 0))
            else:
                color[v] = 2
                post.append(v)
                stack.pop()
        post.reverse()
        return tuple(post)

    def dominates(self, a: Vertex, b: Vertex) -> bool:
        """True if ``a`` dominates ``b`` (both must be reachable)."""
        idom = self.immediate_dominators()
        v = b
        while True:
            if v == a:
                return True
            if v == self.entry:
                return a == self.entry
            v = idom[v]

    def is_reducible(self) -> bool:
        """True if every retreating edge is a back edge of a natural loop.

        The paper observes that tracing generally produces *irreducible*
        graphs (e.g. its Figure 5), so solvers downstream must not assume
        reducibility; this predicate lets tests verify that observation.
        """
        idom = self.immediate_dominators()
        reachable = set(idom)

        def dominates(a: Vertex, b: Vertex) -> bool:
            v = b
            while True:
                if v == a:
                    return True
                if v == self.entry:
                    return a == self.entry
                v = idom[v]

        for u, v in self.retreating_edges():
            if u not in reachable or v not in reachable:
                continue
            if not dominates(v, u):
                return False
        return True

    def natural_loops(self) -> dict[Edge, frozenset]:
        """Natural loops of the graph: back edge -> loop body vertices.

        Only retreating edges whose target dominates their source define
        natural loops (on an irreducible graph the remaining retreating
        edges are simply absent from the result).  The body contains the
        header and every vertex that can reach the latch without passing
        through the header.
        """
        idom = self.immediate_dominators()
        reachable = set(idom)

        def dominates(a: Vertex, b: Vertex) -> bool:
            v = b
            while True:
                if v == a:
                    return True
                if v == self.entry:
                    return a == self.entry
                v = idom[v]

        loops: dict[Edge, frozenset] = {}
        for latch, header in self.retreating_edges():
            if latch not in reachable or header not in reachable:
                continue
            if not dominates(header, latch):
                continue
            body = {header, latch}
            stack = [latch]
            while stack:
                v = stack.pop()
                for p in self._preds[v]:
                    if p not in body and p != header:
                        body.add(p)
                        stack.append(p)
            loops[(latch, header)] = frozenset(body)
        return loops

    def __str__(self) -> str:
        lines = [f"cfg entry={self.entry} exit={self.exit}"]
        for u in self._succs:
            if self._succs[u]:
                lines.append(f"  {u} -> {', '.join(str(s) for s in self._succs[u])}")
        return "\n".join(lines)
