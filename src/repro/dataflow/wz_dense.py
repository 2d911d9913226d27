"""Dense lowering of basic-block transfer functions for conditional constants.

:func:`repro.dataflow.transfer.transfer_block` re-dispatches on instruction
classes and re-inspects operands every time a block is evaluated — once per
worklist visit in the Wegman–Zadek solver and once per *call* in
:class:`~repro.dataflow.wegman_zadek.CondConstResult` consumers (lints,
reduction, codegen).  This module lowers a block **once** into a flat tuple
of micro-op tuples over variable *names* (mirroring the interpreter's
block-compiled lowering), so evaluating a block's abstract effect becomes a
tight loop over small tuples with an integer opcode switch.

Two consumers share the lowering:

* :func:`run_program` evaluates a lowered block over a plain name→value
  dict — the drop-in replacement for ``transfer_block`` /
  ``block_site_values`` used by :class:`CondConstResult`'s memoized
  ``site_values()`` / ``output_env()``;
* :mod:`repro.dataflow.wz_compiled` re-lowers the name-level steps to dense
  var-ids and small-int lattice cells for its env-array solver.

Micro-op semantics exactly mirror
:func:`~repro.dataflow.transfer.transfer_instr`: pure instructions evaluate
through :func:`~repro.ir.ops.eval_binop`/:func:`~repro.ir.ops.eval_unop`
with the optimistic rule (TOP dominates BOT), ``Load``/``Call`` destinations
go to BOT, ``Store``/``Print`` lower to nothing.  All-constant pure
instructions fold at lowering time — the operator semantics are total, so
the folded value equals what every visit would recompute.

Lowered programs are cached in a small LRU keyed by block *identity*
(:func:`lower_transfer`).  The cache holds a strong reference to each block,
so a cached ``id()`` can never be reused by a different live block.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Union

from ..ir.basic_block import BasicBlock
from ..ir.instructions import Assign, BinOp, Call, Load, Print, Store, UnOp
from ..ir.operands import Const, Var
from ..ir.ops import BINOPS, UNOPS, eval_binop, eval_unop
from .lattice import BOT, TOP, FlatValue

#: Micro-op opcodes (first element of every step tuple).
W_CONST = 0  #: ``(W_CONST, dest, value)`` — dest := known constant
W_COPY = 1  #: ``(W_COPY, dest, src)`` — dest := value of variable ``src``
W_BOT = 2  #: ``(W_BOT, dest)`` — dest := BOT (loads, call results)
W_UN = 3  #: ``(W_UN, dest, fn, src)`` — unary operator over one variable
W_BIN_VV = 4  #: ``(W_BIN_VV, dest, fn, lhs, rhs)`` — both operands variables
W_BIN_VC = 5  #: ``(W_BIN_VC, dest, fn, lhs, rhs_const)``
W_BIN_CV = 6  #: ``(W_BIN_CV, dest, fn, lhs_const, rhs)``

Step = tuple
Name = str


class BlockProgram:
    """A basic block's transfer function, lowered to micro-ops.

    ``steps`` holds one micro-op per value-producing instruction, in block
    order; ``sites`` holds the instruction index each step came from (the
    keys of :meth:`CondConstResult.site_values`).  Side-effect-only
    instructions (``Store``, ``Print``, ``Call`` without a destination)
    lower to no step at all.
    """

    __slots__ = ("steps", "sites")

    def __init__(self, steps: tuple[Step, ...], sites: tuple[int, ...]) -> None:
        self.steps = steps
        self.sites = sites


def _lower_operand(op) -> tuple[bool, Union[int, str]]:
    """(is_const, payload): the constant value or the variable name."""
    if isinstance(op, Const):
        return True, op.value
    return False, op.name


def lower_block(block: BasicBlock) -> BlockProgram:
    """Lower ``block``'s straight-line instructions to a :class:`BlockProgram`."""
    steps: list[Step] = []
    sites: list[int] = []
    for idx, instr in enumerate(block.instrs):
        if isinstance(instr, Assign):
            const, payload = _lower_operand(instr.src)
            step = (
                (W_CONST, instr.dest, payload)
                if const
                else (W_COPY, instr.dest, payload)
            )
        elif isinstance(instr, BinOp):
            lc, lhs = _lower_operand(instr.lhs)
            rc, rhs = _lower_operand(instr.rhs)
            if lc and rc:
                step = (W_CONST, instr.dest, eval_binop(instr.op, lhs, rhs))
            elif lc:
                step = (W_BIN_CV, instr.dest, BINOPS[instr.op], lhs, rhs)
            elif rc:
                step = (W_BIN_VC, instr.dest, BINOPS[instr.op], lhs, rhs)
            else:
                step = (W_BIN_VV, instr.dest, BINOPS[instr.op], lhs, rhs)
        elif isinstance(instr, UnOp):
            const, payload = _lower_operand(instr.src)
            if const:
                step = (W_CONST, instr.dest, eval_unop(instr.op, payload))
            else:
                step = (W_UN, instr.dest, UNOPS[instr.op], payload)
        elif isinstance(instr, (Load, Call)):
            if instr.dest is None:
                continue
            step = (W_BOT, instr.dest)
        elif isinstance(instr, (Store, Print)):
            continue
        else:
            raise TypeError(f"unknown instruction {instr!r}")
        steps.append(step)
        sites.append(idx)
    return BlockProgram(tuple(steps), tuple(sites))


#: Block-identity LRU of lowered programs.  Values keep a strong reference
#: to their block, so a live cache entry's ``id()`` key cannot be recycled.
_LOWER_CACHE_SIZE = 512
_lower_cache: "OrderedDict[int, tuple[BasicBlock, BlockProgram]]" = OrderedDict()


def lower_transfer(block: BasicBlock) -> BlockProgram:
    """The cached :class:`BlockProgram` of ``block`` (lowered on first use)."""
    key = id(block)
    hit = _lower_cache.get(key)
    if hit is not None and hit[0] is block:
        _lower_cache.move_to_end(key)
        return hit[1]
    program = lower_block(block)
    _lower_cache[key] = (block, program)
    if len(_lower_cache) > _LOWER_CACHE_SIZE:
        _lower_cache.popitem(last=False)
    return program


def clear_lowering_cache() -> None:
    """Drop all cached block programs (test isolation hook)."""
    _lower_cache.clear()


def run_program(
    program: BlockProgram, values: dict[Name, FlatValue]
) -> list[FlatValue]:
    """Evaluate a lowered block over ``values`` (mutated in place).

    ``values`` maps variable names to flat lattice values; absent names are
    TOP.  A TOP result is stored as an absence, so ``values`` ends in the
    form a :class:`~repro.dataflow.lattice.ConstEnv` holds (no TOP
    entries).  Returns the abstract result of each step, aligned with
    ``program.sites`` — exactly what
    :func:`~repro.dataflow.transfer.block_site_values` computes by
    re-walking the instruction list.
    """
    results: list[FlatValue] = []
    append = results.append
    get = values.get
    for step in program.steps:
        op = step[0]
        if op == W_BIN_VV:
            a = get(step[3], TOP)
            b = get(step[4], TOP)
            if a is TOP or b is TOP:
                v = TOP
            elif a is BOT or b is BOT:
                v = BOT
            else:
                v = step[2](a, b)
        elif op == W_COPY:
            v = get(step[2], TOP)
        elif op == W_CONST:
            v = step[2]
        elif op == W_BIN_VC:
            a = get(step[3], TOP)
            if a is TOP or a is BOT:
                v = a
            else:
                v = step[2](a, step[4])
        elif op == W_BIN_CV:
            b = get(step[4], TOP)
            if b is TOP or b is BOT:
                v = b
            else:
                v = step[2](step[3], b)
        elif op == W_UN:
            a = get(step[3], TOP)
            if a is TOP or a is BOT:
                v = a
            else:
                v = step[2](a)
        else:  # W_BOT
            v = BOT
        if v is TOP:
            values.pop(step[1], None)
        else:
            values[step[1]] = v
        append(v)
    return results
