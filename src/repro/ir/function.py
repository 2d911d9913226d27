"""Functions and modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .basic_block import BasicBlock
from .instructions import Instr, Ret
from .operands import Var


class Function:
    """A function: parameters plus an ordered map of basic blocks.

    Block order is insertion order; the first inserted block is the entry
    unless ``entry`` is given explicitly.  All algorithms in this package
    iterate blocks in insertion order, which keeps every pass deterministic.
    """

    def __init__(
        self,
        name: str,
        params: Iterable[str] = (),
        blocks: Optional[Iterable[BasicBlock]] = None,
        entry: Optional[str] = None,
    ) -> None:
        self.name = name
        self.params: tuple[str, ...] = tuple(params)
        self.blocks: dict[str, BasicBlock] = {}
        if blocks is not None:
            for block in blocks:
                self.add_block(block)
        self._entry = entry

    @property
    def entry(self) -> str:
        """Label of the entry block."""
        if self._entry is not None:
            return self._entry
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return next(iter(self.blocks))

    @entry.setter
    def entry(self, label: str) -> None:
        self._entry = label

    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Insert ``block``; labels must be unique within the function."""
        if block.label in self.blocks:
            raise ValueError(f"duplicate block label {block.label!r} in {self.name}")
        self.blocks[block.label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        """The block with the given label."""
        return self.blocks[label]

    def instructions(self) -> Iterator[tuple[str, int, Instr]]:
        """All straight-line instructions as (block label, index, instr)."""
        for label, block in self.blocks.items():
            for i, instr in enumerate(block.instrs):
                yield label, i, instr

    def variables(self) -> tuple[str, ...]:
        """All variable names mentioned in the function (params first)."""
        seen: dict[str, None] = {p: None for p in self.params}
        for block in self.blocks.values():
            for instr in block.instrs:
                if instr.dest is not None:
                    seen.setdefault(instr.dest, None)
                for op in instr.uses():
                    if isinstance(op, Var):
                        seen.setdefault(op.name, None)
            if block.terminator is not None:
                for op in block.terminator.uses():
                    if isinstance(op, Var):
                        seen.setdefault(op.name, None)
        return tuple(seen)

    @property
    def size(self) -> int:
        """Total instruction count (including terminators)."""
        return sum(block.size for block in self.blocks.values())

    def copy(self, new_name: Optional[str] = None) -> "Function":
        """A deep copy of the function."""
        fn = Function(new_name if new_name is not None else self.name, self.params)
        for block in self.blocks.values():
            fn.add_block(block.copy())
        fn._entry = self._entry
        return fn

    def return_blocks(self) -> tuple[str, ...]:
        """Labels of blocks that terminate with :class:`Ret`."""
        return tuple(
            label
            for label, block in self.blocks.items()
            if isinstance(block.terminator, Ret)
        )

    def __str__(self) -> str:
        header = f"func {self.name}({', '.join(self.params)}) {{"
        body = "\n".join(str(self.blocks[label]) for label in self.blocks)
        return f"{header}\n{body}\n}}"


@dataclass(slots=True)
class ArrayDecl:
    """A module-level integer array, zero-initialised unless ``init`` is given."""

    name: str
    size: int
    init: tuple[int, ...] = ()

    def initial_contents(self) -> list[int]:
        """The array contents at program start."""
        data = list(self.init[: self.size])
        data.extend(0 for _ in range(self.size - len(data)))
        return data


@dataclass(slots=True, weakref_slot=True)
class Module:
    """A compiled program: global arrays plus functions.

    ``main`` is the conventional entry point used by the interpreter.
    Weakly referenceable, so the checker can remember a verdict per module
    without keeping the module alive.
    """

    functions: dict[str, Function] = field(default_factory=dict)
    arrays: dict[str, ArrayDecl] = field(default_factory=dict)

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name!r}")
        self.functions[fn.name] = fn
        return fn

    def add_array(self, decl: ArrayDecl) -> ArrayDecl:
        if decl.name in self.arrays:
            raise ValueError(f"duplicate array {decl.name!r}")
        self.arrays[decl.name] = decl
        return decl

    def function(self, name: str) -> Function:
        return self.functions[name]

    def copy(self) -> "Module":
        mod = Module()
        for decl in self.arrays.values():
            mod.add_array(ArrayDecl(decl.name, decl.size, tuple(decl.init)))
        for fn in self.functions.values():
            mod.add_function(fn.copy())
        return mod

    def __str__(self) -> str:
        parts = [
            f"array {a.name}[{a.size}]"
            + (f" = {{{', '.join(map(str, a.init))}}}" if a.init else "")
            for a in self.arrays.values()
        ]
        parts.extend(str(fn) for fn in self.functions.values())
        return "\n\n".join(parts)
