"""Dense integer indexing for the bitset-compiled dataflow kernel.

The generic solver keys everything by vertex object and lattice value; the
compiled kernel instead works over preallocated lists indexed by a dense
vertex id and over Python-int bitsets indexed by a dense fact id.  This
module owns both translations:

* :class:`FactIndex` — interns facts (definitions, variables, expressions,
  copies) to bit positions and decodes masks back to ``frozenset``s at the
  solve boundary;
* :class:`DenseGraph` — freezes a :class:`~repro.ir.cfg.Cfg` into integer
  adjacency arrays where a vertex's id *is* its reverse-postorder priority
  in the analysis direction, so the priority worklist pushes bare ints.

Ids are assigned deterministically (RPO for vertices, first-seen order for
facts), so repeated solves over the same view produce identical masks.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .framework import priority_order

Vertex = Hashable


#: ``_BYTE_BITS[b]`` = the set bit offsets of byte value ``b``.
_BYTE_BITS = tuple(
    tuple(i for i in range(8) if b >> i & 1) for b in range(256)
)


class FactIndex:
    """Bidirectional map between facts and bit positions."""

    __slots__ = ("facts", "id_of")

    def __init__(self) -> None:
        self.facts: list = []
        self.id_of: dict = {}

    def __len__(self) -> int:
        return len(self.facts)

    def add(self, fact) -> int:
        """Intern ``fact``; returns its (stable) bit position."""
        fid = self.id_of.get(fact)
        if fid is None:
            fid = len(self.facts)
            self.id_of[fact] = fid
            self.facts.append(fact)
        return fid

    def mask_of(self, facts: Iterable) -> int:
        """The bitset holding exactly the given (already interned) facts."""
        mask = 0
        id_of = self.id_of
        for fact in facts:
            mask |= 1 << id_of[fact]
        return mask

    def decode(self, mask: int) -> frozenset:
        """The ``frozenset`` of facts a bitset encodes."""
        if not mask:
            return frozenset()
        facts = self.facts
        out = []
        base = 0
        for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
            if byte:
                for off in _BYTE_BITS[byte]:
                    out.append(facts[base + off])
            base += 8
        return frozenset(out)


class DenseGraph:
    """A CFG frozen into integer-indexed adjacency arrays.

    ``verts[i]`` is the vertex with id ``i``; ids follow
    :func:`~repro.dataflow.framework.priority_order` in the analysis
    direction, so the id doubles as the ``rpo`` worklist's heap priority.
    ``next_ids``/``prev_ids`` are successors/predecessors *in the analysis
    direction* (swapped for backward problems), matching the generic
    solver's ``next_of``/``prev_of``.
    """

    __slots__ = ("verts", "id_of", "start_id", "next_ids", "prev_ids")

    def __init__(self, cfg, forward: bool = True) -> None:
        prio = priority_order(cfg, forward)
        verts: list = [None] * len(prio)
        for v, i in prio.items():
            verts[i] = v
        next_of = cfg.succs if forward else cfg.preds
        prev_of = cfg.preds if forward else cfg.succs
        self.verts = verts
        self.id_of = prio
        self.start_id = prio[cfg.entry if forward else cfg.exit]
        self.next_ids = [tuple(prio[w] for w in next_of(v)) for v in verts]
        self.prev_ids = [tuple(prio[w] for w in prev_of(v)) for v in verts]

    def __len__(self) -> int:
        return len(self.verts)
