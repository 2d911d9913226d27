"""Reaching definitions (forward, may, union meet).

A definition is identified by ``(vertex, instruction index, variable)``;
parameters are defined at the virtual entry with index ``-1 - position``.
On a hot-path graph the same original instruction yields distinct definitions
per duplicate, so qualified reaching-defs can distinguish which *path copy*
of a definition reaches a use — the example application in
``examples/qualified_reaching_defs.py``.
"""

from __future__ import annotations

from typing import Hashable, Optional

from ...ir.basic_block import BasicBlock
from ..compiled import build_genkill
from ..framework import DataflowProblem

Vertex = Hashable
#: (defining vertex, instruction index, variable name)
Definition = tuple[Vertex, int, str]


class ReachingDefinitions(DataflowProblem[frozenset]):
    """Which definitions may reach each vertex."""

    direction = "forward"

    def __init__(self, params: tuple[str, ...], entry_vertex: Vertex) -> None:
        self.params = params
        self.entry_vertex = entry_vertex

    def top(self) -> frozenset:
        return frozenset()

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def boundary(self) -> frozenset:
        return frozenset(
            (self.entry_vertex, -1 - i, p) for i, p in enumerate(self.params)
        )

    def transfer(
        self, vertex: Vertex, block: Optional[BasicBlock], value: frozenset
    ) -> frozenset:
        if block is None:
            return value
        defs = dict[str, Definition]()
        for idx, instr in enumerate(block.instrs):
            if instr.dest is not None:
                defs[instr.dest] = (vertex, idx, instr.dest)
        if not defs:
            return value
        killed_vars = set(defs)
        survivors = frozenset(d for d in value if d[2] not in killed_vars)
        return survivors | frozenset(defs.values())

    def as_genkill(self, view):
        def lower(vertex, block):
            # Net gen is the LAST definition per variable, mirroring the
            # dict overwrite in transfer(); the kill covers every defined
            # variable.
            defs = dict[str, Definition]()
            for idx, instr in enumerate(block.instrs):
                if instr.dest is not None:
                    defs[instr.dest] = (vertex, idx, instr.dest)
            return tuple(defs.values()), tuple(defs)

        return build_genkill(
            self, view, meet="union", lower_block=lower,
            fact_vars=lambda d: (d[2],),
        )
