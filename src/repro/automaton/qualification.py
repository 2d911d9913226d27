"""The qualification automaton that recognizes hot paths (§3 of the paper).

The automaton is the Aho–Corasick keyword matcher for the *trimmed* hot
paths (each hot Ball–Larus path minus its final recording edge), with the
leading ``•`` of every path represented by a distinguished trie edge from the
root.  Theorem 2 shows the failure function is trivial for such keyword sets:

* on a letter matching a trie edge, follow it;
* on any recording edge, go to ``q•`` (the target of the ``•`` edge);
* on anything else, go to ``qε`` (the root).

so only the retrieval-tree edges are stored.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

from ..ir.cfg import Edge
from ..profiles.path_profile import BLPath
from .trie import Trie

Vertex = Hashable


class _Dot:
    """The • placeholder letter that begins every trimmed hot path."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "•"

    def __reduce__(self):
        # Preserve singleton identity across pickling (artifact cache,
        # process-pool workers).
        return "DOT"


DOT = _Dot()


class QualificationAutomaton:
    """A complete, deterministic qualification automaton (Definition 5)
    whose transitions are labelled by CFG edges.

    States are trie states.  ``q_epsilon`` (the root) is the start state for
    Definition 6's purposes, but data-flow tracing starts at ``q_dot``
    because the entry's incoming "edge" is a recording edge (Figure 4 begins
    with ``(r, q•)``).
    """

    def __init__(
        self,
        recording: frozenset[Edge],
        hot_paths: Iterable[BLPath] = (),
    ) -> None:
        self.recording = recording
        self.trie = Trie()
        self.q_epsilon = self.trie.root
        # The single • edge out of the root (Definition 9's q•) exists even
        # for an empty hot set, so tracing always has a start state.
        self.q_dot = self.trie.insert([DOT], mark_end=False)
        self.hot_paths: tuple[BLPath, ...] = tuple(hot_paths)
        self._hot_end_states: dict[int, BLPath] = {}
        for path in self.hot_paths:
            trimmed = self.trim(path)
            for edge in trimmed:
                if edge in recording:
                    raise ValueError(
                        f"hot path {path} has an interior recording edge {edge}"
                    )
            end = self.trie.insert([DOT, *trimmed])
            self._hot_end_states[end] = path

    @staticmethod
    def trim(path: BLPath) -> tuple[Edge, ...]:
        """The keyword for a hot path: its edges minus the final (recording)
        edge.  Trimming makes the automaton return to the same state (q•)
        after any recording edge."""
        return path.edges()[:-1]

    # -- the DFA -----------------------------------------------------------

    def transition(self, state: int, edge: Edge) -> int:
        """The (total) transition function."""
        child = self.trie.child(state, edge)
        if child is not None:
            return child
        if edge in self.recording:
            return self.q_dot
        return self.q_epsilon

    def run(self, start: int, edges: Sequence[Edge]) -> int:
        """Drive the automaton from ``start`` over ``edges``."""
        state = start
        for edge in edges:
            state = self.transition(state, edge)
        return state

    @property
    def num_states(self) -> int:
        return self.trie.num_states

    def states(self) -> Iterator[int]:
        return self.trie.states()

    def depth(self, state: int) -> int:
        """Length of the hot-path prefix recognized at ``state``."""
        return self.trie.depth(state)

    def hot_path_at(self, state: int) -> BLPath | None:
        """The hot path whose trimmed spine ends exactly at ``state``."""
        return self._hot_end_states.get(state)

    def state_name(self, state: int) -> str:
        """A compact display name: ``qε``, ``q•``, or ``q<n>``."""
        if state == self.q_epsilon:
            return "qe"
        if state == self.q_dot:
            return "q."
        return f"q{state}"
