"""Materializing traced graphs back into executable functions.

The paper's PW pass generates optimized code from the reduced hot-path
graph; :func:`materialize` is that step.  Each traced vertex becomes a basic
block labelled ``<orig>`` (if it is the only copy) or ``<orig>.q<state>``;
terminators are retargeted along the traced edges, which is always possible
because tracing gives every vertex exactly one successor per original CFG
edge.

With ``analysis`` and ``fold=True``, constant folding happens during
materialization: pure instructions with constant results become constant
assignments, and branches with constant conditions become jumps (the other
leg is dropped; unreachable blocks are cleaned afterwards).  Both folders
read the values the analysis result evaluates once per vertex
(``site_values`` and ``output_env``).
"""

from __future__ import annotations

from typing import Optional

from ..dataflow.lattice import TOP, UNREACHABLE, FlatValue
from ..dataflow.transfer import eval_operand
from ..dataflow.wegman_zadek import CondConstResult
from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Assign, Branch, Instr, Jump, Ret, copy_instr
from ..ir.operands import Const
from ..core.hot_path_graph import HpgVertex, TracedGraph


def vertex_labels(graph: TracedGraph) -> dict[HpgVertex, str]:
    """Unique block labels for the real vertices of a traced graph."""
    copies: dict = {}
    for vertex in graph.cfg.vertices:
        if vertex[0] in graph.function.blocks:
            copies.setdefault(vertex[0], []).append(vertex)
    labels: dict[HpgVertex, str] = {}
    for orig, vertices in copies.items():
        if len(vertices) == 1:
            labels[vertices[0]] = orig
        else:
            for vertex in vertices:
                labels[vertex] = f"{orig}.q{vertex[1]}"
    return labels


def _folded(instr: Instr, value: Optional[FlatValue]) -> Instr:
    """A copy of ``instr``, or ``dest := value`` if ``instr`` is pure, its
    abstract result ``value`` is a constant, and it is not one already."""
    if (
        instr.is_pure
        and isinstance(value, int)
        and not (isinstance(instr, Assign) and isinstance(instr.src, Const))
    ):
        return Assign(instr.dest, Const(value))
    return copy_instr(instr)


def _taken(analysis: CondConstResult, vertex, term) -> Optional[str]:
    """The only leg of branch ``term`` that can execute at ``vertex``, if the
    analysis proves its condition constant there; None otherwise."""
    if isinstance(term, Branch):
        env = analysis.output_env(vertex)
        cond = TOP if env is UNREACHABLE else eval_operand(term.cond, env)
        if isinstance(cond, int):
            return term.if_true if cond != 0 else term.if_false
    return None


def materialize(
    graph: TracedGraph,
    analysis: Optional[CondConstResult] = None,
    fold: bool = False,
    name: Optional[str] = None,
) -> Function:
    """Generate an executable function from a traced graph.

    Without folding, the produced function is observationally equivalent to
    the original (it executes the same instruction sequence, merely through
    duplicated blocks) — the property the semantics tests check.
    """
    if fold and analysis is None:
        raise ValueError("fold=True requires an analysis result")

    labels = vertex_labels(graph)
    fn = Function(
        name if name is not None else graph.function.name,
        graph.function.params,
    )

    entry_succs = graph.cfg.succs(graph.cfg.entry)
    if len(entry_succs) != 1:
        raise ValueError("traced graph entry must have exactly one successor")
    entry_vertex = entry_succs[0]

    # Emit blocks in traced-graph vertex order, entry first, so the layout is
    # deterministic (callers may re-lay-out for fall-through quality).
    ordered = [entry_vertex] + [
        v for v in graph.cfg.vertices if v in labels and v != entry_vertex
    ]
    for vertex in ordered:
        block = graph.function.blocks[vertex[0]]
        new_block = BasicBlock(labels[vertex])
        values = analysis.site_values(vertex) if fold else {}
        for idx, instr in enumerate(block.instrs):
            new_block.append(_folded(instr, values.get(idx)))

        term = block.terminator
        targets = {}
        for succ in graph.cfg.succs(vertex):
            if succ[0] in graph.function.blocks:
                targets[succ[0]] = labels[succ]
        if isinstance(term, Ret):
            new_block.terminator = Ret(term.value)
        elif isinstance(term, Jump):
            new_block.terminator = Jump(targets[term.target])
        elif isinstance(term, Branch):
            taken = _taken(analysis, vertex, term) if fold else None
            if taken is not None:
                new_block.terminator = Jump(targets[taken])
            else:
                new_block.terminator = Branch(
                    term.cond, targets[term.if_true], targets[term.if_false]
                )
        else:  # pragma: no cover - validated functions always terminate
            raise ValueError(f"block {vertex[0]} has no terminator")
        fn.add_block(new_block)

    fn.entry = labels[entry_vertex]
    return remove_unreachable(fn)


def remove_unreachable(fn: Function) -> Function:
    """Drop blocks not reachable from the entry (in place; returns ``fn``)."""
    reachable: set[str] = set()
    stack = [fn.entry]
    while stack:
        label = stack.pop()
        if label in reachable:
            continue
        reachable.add(label)
        stack.extend(fn.blocks[label].successors())
    for label in [l for l in fn.blocks if l not in reachable]:
        del fn.blocks[label]
    return fn


def fold_function(fn: Function, analysis: CondConstResult, name: Optional[str] = None) -> Function:
    """Constant-fold a plain (untraced) function using ``analysis``, which
    must be a result over ``GraphView.from_function(fn)``.

    This produces the paper's *Base* configuration for Table 2: original CFG,
    Wegman–Zadek folding only.
    """
    out = Function(name if name is not None else fn.name, fn.params)
    for label, block in fn.blocks.items():
        new_block = BasicBlock(label)
        values = analysis.site_values(label)
        for idx, instr in enumerate(block.instrs):
            new_block.append(_folded(instr, values.get(idx)))
        term = block.terminator
        taken = _taken(analysis, label, term)
        new_block.terminator = (
            Jump(taken) if taken is not None else term.retargeted({})
        )
        out.add_block(new_block)
    out.entry = fn.entry
    return remove_unreachable(out)
