"""Reduction of the hot-path graph (§5 of the paper).

Tracing duplicates every vertex the automaton distinguishes, but most
duplicates contribute nothing (Figure 7: a handful of blocks carry almost
all non-local constants).  Reduction eliminates worthless duplicates in four
steps:

1. **Hot vertices** — order traced vertices by the dynamic non-local
   constants they execute (constant sites × profiled frequency) and keep the
   top vertices covering a fraction ``CR`` of the total.
2. **Compatibility partition** ``Π`` — per original vertex, greedily group
   duplicates; a duplicate may join a group if meeting its solution into the
   group's does not destroy any constant of any *hot* member.  Vertices are
   considered in descending weight order to keep hot vertices together.
   (Compatibility is not transitive, hence the greedy construction — this is
   the paper's explicitly heuristic step.)
3. **DFA minimization** — refine ``Π`` with Hopcroft partition refinement so
   that each class maps each original CFG edge into a single class; the
   quotient graph is then deterministic and admits no new entry paths into
   any class, so no solution is lowered below the meet of its class.
4. **Collapse** — replace each class with a representative; an edge between
   representatives is recording iff the underlying original edge is, which
   is well-defined because all members of a class share their original
   vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automaton.minimize import hopcroft_refine, quotient_map
from ..dataflow.lattice import UNREACHABLE, EnvValue, meet_env
from ..dataflow.local import local_constant_sites
from ..dataflow.wegman_zadek import CondConstResult
from ..dataflow.wz_dense import lower_transfer, run_program
from ..ir.cfg import Cfg
from ..profiles.path_profile import PathProfile
from .hot_path_graph import HotPathGraph, HpgVertex, ReducedGraph


@dataclass
class ReductionResult:
    """Everything the reduction computed, for inspection and experiments."""

    reduced: ReducedGraph
    #: Traced vertices selected as hot, in descending weight order.
    hot_vertices: tuple[HpgVertex, ...]
    #: Dynamic non-local constants executed at each traced vertex.
    weights: dict[HpgVertex, int]
    #: The compatibility partition Π (before minimization).
    compatibility: tuple[tuple[HpgVertex, ...], ...]
    #: The final partition Π' (after minimization) = reduced.classes.
    refined: tuple[tuple[HpgVertex, ...], ...]


def nonlocal_constant_sites(
    analysis: CondConstResult, vertex: HpgVertex
) -> dict[int, int]:
    """Pure constant sites at ``vertex`` that local analysis cannot find.

    These are the constants the paper weighs: "Constants that can be found
    solely through analysis within a basic block are excluded."
    """
    block = analysis.view.block_of(vertex)
    if block is None:
        return {}
    local = local_constant_sites(block)
    return {
        idx: val
        for idx, val in analysis.pure_constant_sites(vertex).items()
        if idx not in local
    }


def vertex_weights(
    hpg: HotPathGraph,
    analysis: CondConstResult,
    hpg_profile: PathProfile,
) -> dict[HpgVertex, int]:
    """Dynamic non-local constant executions per traced vertex."""
    freq = hpg_profile.block_frequencies()
    weights: dict[HpgVertex, int] = {}
    for vertex in hpg.cfg.vertices:
        n_consts = len(nonlocal_constant_sites(analysis, vertex))
        weights[vertex] = n_consts * freq.get(vertex, 0)
    return weights


def select_hot_vertices(
    weights: dict[HpgVertex, int], cr: float
) -> tuple[HpgVertex, ...]:
    """The top-weight vertices covering a fraction ``cr`` of all dynamic
    non-local constants (§5 step 1)."""
    if not 0.0 <= cr <= 1.0:
        raise ValueError(f"cr must be in [0, 1], got {cr}")
    positive = [(w, v) for v, w in weights.items() if w > 0]
    total = sum(w for w, _ in positive)
    if total == 0 or cr == 0.0:
        return ()
    positive.sort(key=lambda item: (-item[0], _vertex_key(item[1])))
    goal = cr * total
    covered = 0
    hot: list[HpgVertex] = []
    for w, v in positive:
        if covered >= goal:
            break
        hot.append(v)
        covered += w
    return tuple(hot)


def _vertex_key(vertex: HpgVertex):
    return (repr(vertex[0]), vertex[1])


class _CompatibilityGroup:
    """A growing class of Π: members, their met solution, and hot members'
    constants that must be preserved."""

    __slots__ = ("members", "met_env", "hot_constants")

    def __init__(self) -> None:
        self.members: list[HpgVertex] = []
        self.met_env: EnvValue = UNREACHABLE
        #: (vertex, site index) -> required constant, for hot members.
        self.hot_constants: dict[tuple[HpgVertex, int], int] = {}


def compatibility_partition(
    hpg: HotPathGraph,
    analysis: CondConstResult,
    weights: dict[HpgVertex, int],
    hot: tuple[HpgVertex, ...],
) -> tuple[tuple[HpgVertex, ...], ...]:
    """§5 step 2: greedily partition each vertex's duplicates into
    compatibility classes."""
    hot_set = set(hot)
    by_original: dict = {}
    for vertex in hpg.cfg.vertices:
        by_original.setdefault(vertex[0], []).append(vertex)

    partition: list[tuple[HpgVertex, ...]] = []
    for original in hpg.original_cfg.vertices:
        duplicates = by_original.get(original, [])
        if not duplicates:
            continue
        # Descending weight keeps hot vertices together; ties break on the
        # automaton state for determinism.
        duplicates.sort(key=lambda v: (-weights.get(v, 0), v[1]))
        block = hpg.function.blocks.get(original)
        groups: list[_CompatibilityGroup] = []
        for vertex in duplicates:
            placed = False
            for group in groups:
                if _try_join(group, vertex, block, analysis, hot_set):
                    placed = True
                    break
            if not placed:
                group = _CompatibilityGroup()
                _force_join(group, vertex, block, analysis, hot_set)
                groups.append(group)
        partition.extend(tuple(g.members) for g in groups)
    return tuple(partition)


def _constants_under(block, env: EnvValue) -> dict[int, int]:
    """Constant pure sites of ``block`` when entered with ``env`` (loads and
    calls evaluate to BOT, so every int result is a pure site's)."""
    if block is None or env is UNREACHABLE:
        return {}
    program = lower_transfer(block)
    results = run_program(program, env.to_dict())
    return {
        idx: value
        for idx, value in zip(program.sites, results)
        if isinstance(value, int)
    }


def _try_join(
    group: _CompatibilityGroup,
    vertex: HpgVertex,
    block,
    analysis: CondConstResult,
    hot_set: set,
) -> bool:
    """Add ``vertex`` to ``group`` if no hot constant is destroyed."""
    candidate_env = meet_env(group.met_env, analysis.input_env(vertex))
    required = dict(group.hot_constants)
    if vertex in hot_set:
        for idx, val in analysis.pure_constant_sites(vertex).items():
            required[(vertex, idx)] = val
    if required:
        met_consts = _constants_under(block, candidate_env)
        for (_, idx), val in required.items():
            if met_consts.get(idx) != val:
                return False
    group.members.append(vertex)
    group.met_env = candidate_env
    group.hot_constants = required
    return True


def _force_join(
    group: _CompatibilityGroup,
    vertex: HpgVertex,
    block,
    analysis: CondConstResult,
    hot_set: set,
) -> None:
    group.members.append(vertex)
    group.met_env = meet_env(group.met_env, analysis.input_env(vertex))
    if vertex in hot_set:
        for idx, val in analysis.pure_constant_sites(vertex).items():
            group.hot_constants[(vertex, idx)] = val


def _transition_map(hpg: HotPathGraph):
    """Transitions of the HPG viewed as a DFA over original-CFG edges."""

    def transitions(vertex: HpgVertex):
        return {succ[0]: succ for succ in hpg.cfg.succs(vertex)}

    return transitions


def reduce_hpg(
    hpg: HotPathGraph,
    analysis: CondConstResult,
    hpg_profile: PathProfile,
    cr: float = 0.95,
) -> ReductionResult:
    """Run the full reduction (§5) and build the reduced graph."""
    weights = vertex_weights(hpg, analysis, hpg_profile)
    hot = select_hot_vertices(weights, cr)
    compatibility = compatibility_partition(hpg, analysis, weights, hot)

    states = list(hpg.cfg.vertices)
    refined = hopcroft_refine(states, compatibility, _transition_map(hpg))
    rep = quotient_map(refined)

    # Collapse: build the quotient graph over representatives.
    transitions = _transition_map(hpg)
    reduced_cfg = Cfg(entry=rep[hpg.cfg.entry], exit=rep[hpg.cfg.exit])
    for block in refined:
        reduced_cfg.add_vertex(block[0])
    reduced_recording: set = set()
    for u, v in hpg.cfg.edges:
        ru, rv = rep[u], rep[v]
        reduced_cfg.add_edge(ru, rv)
        if (u, v) in hpg.recording:
            reduced_recording.add((ru, rv))

    _assert_well_defined(refined, rep, transitions)

    reduced = ReducedGraph(
        hpg, reduced_cfg, frozenset(reduced_recording), refined, rep
    )
    return ReductionResult(
        reduced=reduced,
        hot_vertices=hot,
        weights=weights,
        compatibility=compatibility,
        refined=refined,
    )


def _assert_well_defined(refined, rep, transitions) -> None:
    """Refinement guarantees each class maps each label into one class."""
    for block in refined:
        seen: dict = {}
        for member in block:
            for label, target in transitions(member).items():
                r = rep[target]
                if seen.setdefault(label, r) != r:
                    raise AssertionError(
                        f"partition not closed under label {label!r} "
                        f"in class {block!r}"
                    )
