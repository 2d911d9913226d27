"""Lattice values for constant propagation.

The scalar lattice is the standard flat (three-level) constant lattice::

            TOP                (no evidence yet / optimistic "any constant")
      ... -2 -1 0 1 2 ...      (known constant)
            BOT                (known non-constant)

Environments (:class:`ConstEnv`) map variables to flat values; variables not
present map to :data:`TOP`.  The environment lattice adds an
:data:`UNREACHABLE` top element used by the conditional algorithm for blocks
no executable path has reached.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Union


class _Top:
    """Singleton: optimistic "no evidence yet"."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"

    def __reduce__(self):
        # Pickle as a reference to the module-level singleton, so identity
        # checks (`v is TOP`) still hold on values loaded from the artifact
        # cache or shipped across process-pool boundaries.
        return "TOP"


class _Bot:
    """Singleton: known non-constant."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "BOT"

    def __reduce__(self):
        return "BOT"


TOP = _Top()
BOT = _Bot()

#: A point in the flat constant lattice.
FlatValue = Union[int, _Top, _Bot]


def meet_flat(a: FlatValue, b: FlatValue) -> FlatValue:
    """Meet (greatest lower bound) in the flat lattice."""
    if a is TOP:
        return b
    if b is TOP:
        return a
    if a is BOT or b is BOT:
        return BOT
    return a if a == b else BOT


def leq_flat(a: FlatValue, b: FlatValue) -> bool:
    """True if ``a`` is below-or-equal ``b`` in the flat lattice."""
    return meet_flat(a, b) == a if isinstance(a, int) else (a is BOT or b is TOP)


def is_const(v: FlatValue) -> bool:
    """True for a known-constant lattice value."""
    return isinstance(v, int)


class ConstEnv:
    """An immutable variable environment over the flat lattice.

    Only non-TOP entries are stored.  ``ConstEnv()`` is the environment
    mapping every variable to TOP (the lattice top among *reachable* states).
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, FlatValue] | None = None) -> None:
        self._values: dict[str, FlatValue] = {}
        if values:
            for name, v in values.items():
                if v is not TOP:
                    self._values[name] = v

    @classmethod
    def _from_raw(cls, values: dict[str, FlatValue]) -> "ConstEnv":
        """Adopt ``values`` (no TOP entries, caller-owned) without copying —
        the decode path of the dense engines and of memoized block
        evaluations."""
        env = cls()
        env._values = values
        return env

    def get(self, name: str) -> FlatValue:
        """The lattice value of ``name`` (TOP if absent)."""
        return self._values.get(name, TOP)

    def set(self, name: str, value: FlatValue) -> "ConstEnv":
        """A new environment with ``name`` bound to ``value``.

        Returns ``self`` when the binding is already in place (sentinels by
        identity, constants by value) — rebinding a variable to its current
        value is the common case at a fixpoint, and the environment is
        immutable, so aliasing is safe.
        """
        existing = self._values.get(name, TOP)
        if value is existing or value == existing:
            return self
        new = ConstEnv()
        new._values = dict(self._values)
        if value is TOP:
            new._values.pop(name, None)
        else:
            new._values[name] = value
        return new

    def meet(self, other: "ConstEnv") -> "ConstEnv":
        """Pointwise meet of two environments.

        ``meet`` is idempotent and TOP (the empty environment) is its
        identity, so the aliasing fast paths below return an existing
        object whenever the result would be pointwise equal to one.
        """
        if self is other or not other._values:
            return self
        if not self._values:
            return other
        if self._values == other._values:
            return self
        new = ConstEnv()
        values: dict[str, FlatValue] = {}
        for name in self._values.keys() | other._values.keys():
            v = meet_flat(self.get(name), other.get(name))
            if v is not TOP:
                values[name] = v
        new._values = values
        return new

    def leq(self, other: "ConstEnv") -> bool:
        """True if ``self`` is pointwise below-or-equal ``other``."""
        for name in self._values.keys() | other._values.keys():
            if not leq_flat(self.get(name), other.get(name)):
                return False
        return True

    def items(self) -> Iterator[tuple[str, FlatValue]]:
        """Non-TOP bindings, sorted by name for determinism."""
        return iter(sorted(self._values.items(), key=lambda kv: kv[0]))

    def to_dict(self) -> dict[str, FlatValue]:
        """A mutable copy of the non-TOP bindings (scratch space for the
        dense transfer lowering)."""
        return dict(self._values)

    def constants(self) -> dict[str, int]:
        """The known-constant bindings."""
        return {k: v for k, v in self._values.items() if isinstance(v, int)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstEnv):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(frozenset(self._values.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.items())
        return f"ConstEnv({inner})"


class _Unreachable:
    """Singleton environment-lattice top: no executable path reaches here."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNREACHABLE"

    def __reduce__(self):
        return "UNREACHABLE"


UNREACHABLE = _Unreachable()

#: An environment-lattice point: UNREACHABLE or a concrete environment.
EnvValue = Union[ConstEnv, _Unreachable]


def meet_env(a: EnvValue, b: EnvValue) -> EnvValue:
    """Meet in the environment lattice (UNREACHABLE is the top)."""
    if a is UNREACHABLE:
        return b
    if b is UNREACHABLE:
        return a
    return a.meet(b)


def leq_env(a: EnvValue, b: EnvValue) -> bool:
    """Ordering in the environment lattice (UNREACHABLE is the top, so
    everything is below it)."""
    if b is UNREACHABLE:
        return True
    if a is UNREACHABLE:
        return False
    return a.leq(b)
