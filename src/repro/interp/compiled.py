"""Block-compiling fast-path execution engine.

The tree-walking interpreter (:mod:`repro.interp.interpreter`) plays the
paper's instrumented native runs, but it pays Python-level overhead for every
executed IR instruction: ``isinstance`` dispatch over dataclass objects,
operand resolution through dict environments, a ``CostModel`` method call per
instruction, and a profiler *method call per traversed CFG edge*.  That is
the opposite of the point of Ball–Larus instrumentation, whose whole appeal
is that profiling costs a handful of register increments per branch.

This module precompiles each function once into a flat register-machine
form and replays runs over that form instead:

* **Slots, not dicts** — every variable is resolved at compile time to an
  integer slot in a list-based frame (parameters first, matching
  :meth:`repro.ir.function.Function.variables`).  A parallel list of taint
  bits replaces the taint dict.
* **Tuple-encoded micro-ops** — each basic block is lowered to a tuple of
  small tuples ``(opcode, ...)`` with operands pre-resolved: constants are
  inlined (constant-folded where the IR already determines the result, e.g.
  ``binop const, const``), variables become slot indices, arrays become
  indices into a per-run array table, and binary/unary operators become the
  raw callables from :mod:`repro.ir.ops`.
* **Block-level accounting** — a block's total straight-line cycle cost and
  its instruction count (including the terminator) are folded into one
  addition each per block execution instead of one per instruction.  The
  step budget is therefore checked per block: a run that exceeds
  ``max_steps`` still raises :class:`ExecutionLimit`, merely at a block
  boundary rather than mid-block (indistinguishable for any run that
  completes).
* **Baked successor tables** — for every block and every successor, the
  transfer cost (including the fall-through/taken distinction) *and* the
  Ball–Larus action are precomputed: the hot loop does
  ``register += increment`` or one dict bump with a precomputed final
  offset, never a ``profiler.edge(u, v)`` call.
* **Batched taint counts** — under ``track_sites``, each activation counts
  its tainted value-producing executions in a local and adds the total to
  its routine's entry of the run's count when it returns or tiers up.
* **Two tiers** — the micro-op loop below runs every activation first.  An
  activation that has executed more than :data:`TIER_UP_FACTOR` times its
  function's static instruction count switches, at its next recording
  edge, to Python source generated from the same lowering
  (:mod:`repro.interp.codegen`).  At a recording edge the Ball–Larus
  register has just been flushed, so only the frame, the taint bits and the
  target block move across.  The function is compiled once per
  :class:`CompiledModule` and profile mode, and its later activations start
  in generated code.  Short runs never pay the compile; long loops run
  several times faster.

Differential guarantees
-----------------------
For every run that completes, the compiled engine produces a
:class:`RunResult` equal to the reference engine's: output, return value,
instruction count, cycle cost, block counts, path profiles, trace profiles,
per-routine taint counts, and final memory
(``tests/test_compiled_engine.py`` proves this on the running example and
on every workload).  Trap behaviour matches
on the same error classes and messages, in both tiers
(``tests/test_generated_tier.py`` forces every activation into generated
code and repeats the comparisons).  The only deliberate divergences are
that traps interact with *partial* block state (costs are charged per block,
not per instruction) and that the path register is per-activation here, so
profiled recursion with calls mid-path works in this engine while the
shared-state reference profiler rejects it.

Modes ``"trace"`` and ``"both"`` keep using :class:`TraceProfiler` (the
oracle is supposed to be the slow, obviously-correct reading) and never
leave the micro-op loop; only the Ball–Larus side is baked into the tables.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Mapping, Optional, Sequence

from ..ir.cfg import Cfg, ENTRY, EXIT, Edge
from ..ir.function import Function, Module
from ..ir.instructions import (
    Assign,
    BinOp,
    Branch,
    Call,
    Jump,
    Load,
    Print,
    Ret,
    Store,
    UnOp,
)
from ..ir.operands import Const, Operand, Var
from ..ir.ops import BINOPS, UNOPS, eval_binop, eval_unop
from ..obs import get_metrics
from ..profiles.ball_larus import BallLarusNumbering
from ..profiles.path_profile import PathProfile
from .cost import CostModel
from .interpreter import ExecutionLimit, RunResult, Trap
from .profiler import TraceProfiler

# -- micro-op opcodes --------------------------------------------------------

(
    _BIN_VV,
    _BIN_VC,
    _BIN_CV,
    _MOV_C,
    _MOV_V,
    _UN_V,
    _LOAD_V,
    _LOAD_C,
    _STORE_VV,
    _STORE_VC,
    _STORE_CV,
    _STORE_CC,
    _CALL_USER,
    _CALL_BUILTIN,
    _PRINT,
    _TRAP,
) = range(16)

# -- terminator kinds --------------------------------------------------------

(_T_JUMP, _T_BR, _T_RET_V, _T_RET_C, _T_TRAP) = range(5)

#: Positions of frame-slot operands within each op tuple, for undefined-
#: variable diagnosis when a ``TypeError`` escapes an operator callable.
_VAR_SLOT_POSITIONS = {
    _BIN_VV: (3, 4),
    _BIN_VC: (3,),
    _BIN_CV: (4,),
    _MOV_V: (2,),
    _UN_V: (3,),
    _LOAD_V: (3,),
    _STORE_VV: (2, 3),
    _STORE_VC: (2,),
    _STORE_CV: (3,),
}


# -- strict run-time operators -------------------------------------------------
#
# Frames start as ``None``, and an undefined operand is diagnosed from the
# ``TypeError`` that ``None`` provokes.  Python's ``==``/``!=`` and the early
# returns for a zero divisor or a negative shift count never touch the
# operand, so these variants do (``a - b``, ``a * 0``) while agreeing with
# :mod:`repro.ir.ops` on every pair of ints.  ``ops.BINOPS`` itself stays as
# it is: the constant folders share it and only ever see ints.

_DIV = BINOPS["div"]
_MOD = BINOPS["mod"]

_STRICT_BINOPS = {
    "eq": lambda a, b: 0 if a - b else 1,
    "ne": lambda a, b: 1 if a - b else 0,
    "div": lambda a, b: _DIV(a, b) if b != 0 else a * 0,
    "mod": lambda a, b: _MOD(a, b) if b != 0 else a * 0,
    "shl": lambda a, b: a << (b & 63) if b >= 0 else a * 0,
    "shr": lambda a, b: a >> (b & 63) if b >= 0 else a * 0,
}
_STRICT_UNOPS = {"lnot": lambda a: 0 if a - 0 else 1}


#: An activation in the micro-op loop switches to its function's generated
#: tier (:mod:`repro.interp.codegen`) at a recording edge once it has
#: executed more than ``TIER_UP_FACTOR`` times the function's static
#: instruction count itself (callees excluded).
#:
#: This is ski rental: keep paying the loop's per-instruction cost until it
#: adds up to the one-off cost of compiling, which is never worse than a
#: small multiple of the better choice in hindsight.  The break-even factor
#: is compile µs per static instruction ÷ loop µs per executed instruction.
#: Measured over 20 perfbench programs per workload (seed 1, 2-core Linux
#: host, CPython 3.11), with every function compiled at entry:
#:
#: * no taint count (train and Table-2 runs): compile 28–57 µs per
#:   static instruction, loop 0.22–0.66 µs and generated code 0.05–0.47 µs
#:   per executed instruction; break-even ~145 on profile-heavy, ~100 on
#:   organic-cold;
#: * taint count (ref runs): compile 31–47 µs, loop 0.18–0.26 µs,
#:   generated code 0.06–0.15 µs; break-even 137–235.
#:
#: One factor serves both modes: 250, just above the largest break-even.
#: Overshooting only delays the switch of long runs: a profile-heavy train
#: function runs at most about a tenth of its instructions in the loop.
#: Undershooting compiles functions of short runs that never repay it: over
#: organic-cold's 108 seed-1 ops, 100 tiered up 132 functions (0.8 s of
#: compile), 150 tiered up 48 and 250 none.
TIER_UP_FACTOR = 250

#: Builtin name -> (arity, implementation over a value list).
_BUILTINS = {
    "abs": (1, lambda v: abs(v[0])),
    "min2": (2, lambda v: min(v)),
    "max2": (2, lambda v: max(v)),
    "clamp": (3, lambda v: max(v[1], min(v[0], v[2]))),
}


class _CompiledFunction:
    """One function lowered to register-machine form (parallel per-block
    tuples, indexed by block position in the function's layout order)."""

    __slots__ = (
        "name",
        "nparams",
        "nslots",
        "slot_names",
        "labels",
        "entry_idx",
        "entry_label",
        "ops",
        "n_instr",
        "base_cost",
        "terms",
        "tier_budget",
        "generated",
    )

    def __init__(self, name: str) -> None:
        self.name = name


def _operand(op: Operand, slot: Mapping[str, int]) -> tuple[bool, int]:
    """(is_var, slot-or-value) encoding of an operand."""
    if isinstance(op, Var):
        return True, slot[op.name]
    return False, op.value


def _compile_function(
    fn: Function,
    module: Module,
    cm: CostModel,
    recording: frozenset[Edge],
    numbering: BallLarusNumbering,
    array_index: Mapping[str, int],
) -> _CompiledFunction:
    cf = _CompiledFunction(fn.name)
    labels = tuple(fn.blocks)
    label_idx = {label: i for i, label in enumerate(labels)}
    slot_names = fn.variables()
    slot = {name: i for i, name in enumerate(slot_names)}
    fallthrough = {
        label: labels[i + 1] if i + 1 < len(labels) else None
        for i, label in enumerate(labels)
    }

    cf.nparams = len(fn.params)
    cf.nslots = len(slot_names)
    cf.slot_names = slot_names
    cf.labels = labels
    cf.entry_label = fn.entry
    cf.entry_idx = label_idx[fn.entry]

    def entry_for(u: str, v: str, term) -> tuple:
        """Precomputed successor record: (next block index, transfer cost,
        is-recording, BL increment-or-final-offset, target vertex)."""
        cost = cm.transfer_cost(term, v, fallthrough[u])
        if (u, v) in recording:
            return (label_idx[v], cost, True, numbering.final_offset((u, v)), v)
        return (label_idx[v], cost, False, numbering.edge_increment((u, v)), v)

    all_ops: list[tuple] = []
    all_n: list[int] = []
    all_cost: list[int] = []
    all_terms: list[tuple] = []

    for label, block in fn.blocks.items():
        bops: list[tuple] = []
        bcost = 0
        for instr in block.instrs:
            bcost += cm.instr_cost(instr)
            bops.append(_compile_instr(instr, module, slot, array_index))

        term = block.terminator
        if term is None:  # pragma: no cover - validated IR has a terminator
            tt: tuple = (_T_TRAP, f"{fn.name}:{label}: missing terminator")
        elif isinstance(term, Jump):
            tt = (_T_JUMP, entry_for(label, term.target, term))
        elif isinstance(term, Branch):
            is_var, v = _operand(term.cond, slot)
            if is_var:
                tt = (
                    _T_BR,
                    v,
                    entry_for(label, term.if_true, term),
                    entry_for(label, term.if_false, term),
                )
            else:
                # Static branch: the target is known, but it still pays
                # branch (not jump) transfer cost.
                target = term.if_true if v != 0 else term.if_false
                tt = (_T_JUMP, entry_for(label, target, term))
        elif isinstance(term, Ret):
            exit_entry = (
                -1,
                cm.transfer_cost(term, None, fallthrough[label]),
                True,
                numbering.final_offset((label, EXIT)),
                EXIT,
            )
            if term.value is None:
                tt = (_T_RET_C, None, exit_entry)
            else:
                is_var, v = _operand(term.value, slot)
                tt = (_T_RET_V, v, exit_entry) if is_var else (_T_RET_C, v, exit_entry)
        else:  # pragma: no cover - no other terminator kinds exist
            tt = (_T_TRAP, f"{fn.name}:{label}: unknown terminator {term!r}")

        all_ops.append(tuple(bops))
        all_n.append(len(block.instrs) + 1)
        all_cost.append(bcost)
        all_terms.append(tt)

    cf.ops = tuple(all_ops)
    cf.n_instr = tuple(all_n)
    cf.base_cost = tuple(all_cost)
    cf.terms = tuple(all_terms)
    cf.tier_budget = TIER_UP_FACTOR * sum(all_n)
    #: Generated second tier by profile mode, filled on first tier-up.
    cf.generated = {}
    return cf


def _compile_instr(
    instr,
    module: Module,
    slot: Mapping[str, int],
    array_index: Mapping[str, int],
) -> tuple:
    if isinstance(instr, Assign):
        is_var, v = _operand(instr.src, slot)
        d = slot[instr.dest]
        return (_MOV_V, d, v) if is_var else (_MOV_C, d, v)
    if isinstance(instr, BinOp):
        d = slot[instr.dest]
        f = _STRICT_BINOPS.get(instr.op) or BINOPS[instr.op]
        lv, l = _operand(instr.lhs, slot)
        rv, r = _operand(instr.rhs, slot)
        if lv and rv:
            return (_BIN_VV, d, f, l, r)
        if lv:
            return (_BIN_VC, d, f, l, r)
        if rv:
            return (_BIN_CV, d, f, l, r)
        # Both constant: the result is determined at compile time.
        return (_MOV_C, d, eval_binop(instr.op, l, r))
    if isinstance(instr, UnOp):
        d = slot[instr.dest]
        is_var, v = _operand(instr.src, slot)
        if is_var:
            f = _STRICT_UNOPS.get(instr.op) or UNOPS[instr.op]
            return (_UN_V, d, f, v)
        return (_MOV_C, d, eval_unop(instr.op, v))
    if isinstance(instr, Load):
        aidx = array_index.get(instr.array)
        if aidx is None:
            return (_TRAP, f"load from undeclared array {instr.array!r}")
        d = slot[instr.dest]
        is_var, v = _operand(instr.index, slot)
        return (_LOAD_V, d, aidx, v) if is_var else (_LOAD_C, d, aidx, v)
    if isinstance(instr, Store):
        aidx = array_index.get(instr.array)
        if aidx is None:
            return (_TRAP, f"store to undeclared array {instr.array!r}")
        iv, i = _operand(instr.index, slot)
        vv, v = _operand(instr.value, slot)
        if iv and vv:
            return (_STORE_VV, aidx, i, v)
        if iv:
            return (_STORE_VC, aidx, i, v)
        if vv:
            return (_STORE_CV, aidx, i, v)
        return (_STORE_CC, aidx, i, v)
    if isinstance(instr, Call):
        d = slot[instr.dest] if instr.dest is not None else -1
        argspec = tuple(_operand(a, slot) for a in instr.args)
        target = module.functions.get(instr.func)
        if target is not None:
            if len(argspec) != len(target.params):
                return (
                    _TRAP,
                    f"{instr.func} expects {len(target.params)} args, "
                    f"got {len(argspec)}",
                )
            return (_CALL_USER, d, instr.func, argspec)
        builtin = _BUILTINS.get(instr.func)
        if builtin is not None:
            arity, impl = builtin
            if len(argspec) != arity:
                return (
                    _TRAP,
                    f"builtin {instr.func} expects {arity} args, got {len(argspec)}",
                )
            return (_CALL_BUILTIN, d, impl, argspec)
        return (_TRAP, f"unknown function {instr.func!r}")
    if isinstance(instr, Print):
        return (_PRINT, tuple(_operand(a, slot) for a in instr.args))
    raise TypeError(f"cannot compile instruction {instr!r}")


class CompiledModule:
    """A module precompiled for the fast-path engine.

    Construct once (the :class:`~repro.interp.interpreter.Interpreter` does
    this when ``engine="compiled"``), then :meth:`run` any number of times.
    """

    def __init__(
        self,
        module: Module,
        cost_model: CostModel,
        track_sites: bool,
        cfgs: Mapping[str, Cfg],
        recordings: Mapping[str, frozenset[Edge]],
        numberings: Mapping[str, BallLarusNumbering],
    ) -> None:
        self.module = module
        self.cost_model = cost_model
        self.track_sites = track_sites
        self.cfgs = cfgs
        self.recordings = recordings
        self.numberings = numberings
        self.array_names: tuple[str, ...] = tuple(module.arrays)
        array_index = {name: i for i, name in enumerate(self.array_names)}
        self.functions: dict[str, _CompiledFunction] = {
            name: _compile_function(
                fn,
                module,
                cost_model,
                recordings[name],
                numberings[name],
                array_index,
            )
            for name, fn in module.functions.items()
        }

        # Lowering-volume metrics (once per CompiledModule, so the run
        # hot loop below stays untouched by observability).
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("interp_functions_lowered").inc(len(self.functions))
            metrics.counter("interp_blocks_lowered").inc(
                sum(len(cf.labels) for cf in self.functions.values())
            )
            metrics.counter("interp_microops_lowered").inc(
                sum(
                    len(block)
                    for cf in self.functions.values()
                    for block in cf.ops
                )
            )

    def tier_up(self, cf: _CompiledFunction, profile_mode: Optional[str]):
        """The generated tier of ``cf`` for ``profile_mode``, compiled on
        first use and kept on this module's lowering.

        Two threads racing here at worst compile the same function twice.
        """
        gen = cf.generated.get(profile_mode)
        if gen is None:
            from .codegen import generate

            gen = cf.generated[profile_mode] = generate(self, cf, profile_mode)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("interp_functions_tiered").inc()
        return gen

    def run(
        self,
        args: Sequence[int],
        inputs: Mapping[str, Sequence[int]],
        entry_function: str,
        profile_mode: Optional[str],
        max_steps: int,
    ) -> RunResult:
        cf = self.functions.get(entry_function)
        if cf is None:
            raise Trap(f"no function named {entry_function!r}")
        if len(args) != len(self.module.functions[entry_function].params):
            raise Trap(
                f"{entry_function} expects "
                f"{len(self.module.functions[entry_function].params)} args, "
                f"got {len(args)}"
            )
        state = _CompiledState(self, inputs, profile_mode, max_steps)
        ret = state.call(cf, [int(a) for a in args])
        return state.result(ret)


class _CompiledState:
    """Mutable state of one compiled-engine run."""

    def __init__(
        self,
        cmod: CompiledModule,
        inputs: Mapping[str, Sequence[int]],
        profile_mode: Optional[str],
        max_steps: int,
    ) -> None:
        self.cmod = cmod
        self.profile_mode = profile_mode
        self.max_steps = max_steps
        self.memory: dict[str, list[int]] = {}
        for decl in cmod.module.arrays.values():
            self.memory[decl.name] = decl.initial_contents()
        for name, data in inputs.items():
            if name not in self.memory:
                raise Trap(f"input array {name!r} is not declared by the module")
            dest = self.memory[name]
            if len(data) > len(dest):
                raise Trap(
                    f"input for {name!r} has {len(data)} elements; "
                    f"array holds {len(dest)}"
                )
            for i, x in enumerate(data):
                dest[i] = int(x)
        #: Arrays by compile-time index (aliases of ``memory``'s lists).
        self.mems: list[list[int]] = [
            self.memory[name] for name in cmod.array_names
        ]
        self.output: list[tuple[int, ...]] = []
        self.instr_count = 0
        self.cost = 0
        self.depth = 0
        #: Per-function block-execution counters, indexed by block position.
        self.block_counts: dict[str, list[int]] = {
            name: [0] * len(cf.labels) for name, cf in cmod.functions.items()
        }
        #: Functions that had at least one activation, in first-call order.
        self.activated: dict[str, None] = {}
        #: Tainted value-producing executions per routine (``track_sites``).
        self.tainted: defaultdict[str, int] = defaultdict(int)
        #: Ball–Larus (start block index, path id) -> count, per routine.
        self.bl_counts: dict[str, defaultdict[tuple, int]] = {}
        self.trace_profilers: dict[str, TraceProfiler] = {}
        #: Only runs without the trace oracle reach the generated tier.
        self.tiering = profile_mode is None or profile_mode == "bl"

    def path_counts(self, name: str) -> defaultdict:
        """The Ball–Larus path counters of routine ``name``."""
        counts = self.bl_counts.get(name)
        if counts is None:
            counts = self.bl_counts[name] = defaultdict(int)
        return counts

    # -- execution ---------------------------------------------------------

    def call(self, cf: _CompiledFunction, args: list[int]) -> Optional[int]:
        """Execute one activation over the compiled form of ``cf``."""
        self.depth += 1
        if self.depth > 200:
            raise Trap(f"call depth limit exceeded entering {cf.name}")
        self.activated.setdefault(cf.name, None)

        frame: list = [None] * cf.nslots
        tnt: list = [True] * cf.nslots
        frame[: len(args)] = args

        mode = self.profile_mode
        if self.tiering:
            gen = cf.generated.get(mode)
            if gen is not None:
                return gen(self, frame, tnt, cf.entry_idx)
            budget = cf.tier_budget
        else:
            budget = math.inf
        # ``base`` starts at the count on entry and absorbs the callees'
        # instructions, so ``instr_count - base`` is this activation's own.
        base = self.instr_count
        do_bl = mode == "bl" or mode == "both"
        if do_bl:
            counts = self.path_counts(cf.name)
            # The virtual entry edge is recording: it starts the first path.
            bl_start = cf.entry_idx
            bl_reg = 0
        tp = None
        if mode == "trace" or mode == "both":
            tp = self.trace_profilers.get(cf.name)
            if tp is None:
                tp = self.trace_profilers[cf.name] = TraceProfiler(
                    self.cmod.cfgs[cf.name], self.cmod.recordings[cf.name]
                )
            tp.enter()
            tp.edge(ENTRY, cf.entry_label)

        # Local aliases for the hot loop.
        mems = self.mems
        output = self.output
        track = self.cmod.track_sites
        nt = 0  # this activation's tainted executions, added on exit
        bcounts = self.block_counts[cf.name]
        blocks_ops = cf.ops
        blocks_n = cf.n_instr
        blocks_cost = cf.base_cost
        terms = cf.terms
        labels = cf.labels
        slot_names = cf.slot_names
        max_steps = self.max_steps
        cfuncs = self.cmod.functions
        array_names = self.cmod.array_names

        idx = cf.entry_idx
        while True:
            bcounts[idx] += 1
            n = self.instr_count + blocks_n[idx]
            self.instr_count = n
            if n > max_steps:
                raise ExecutionLimit(f"exceeded {max_steps} executed instructions")
            self.cost += blocks_cost[idx]
            op: tuple = ()
            try:
                for op in blocks_ops[idx]:
                    o = op[0]
                    if o == _BIN_VV:
                        _, d, f, a, b = op
                        frame[d] = f(frame[a], frame[b])
                        t = tnt[d] = tnt[a] or tnt[b]
                        if track and t:
                            nt += 1
                    elif o == _BIN_VC:
                        _, d, f, a, c = op
                        frame[d] = f(frame[a], c)
                        t = tnt[d] = tnt[a]
                        if track and t:
                            nt += 1
                    elif o == _MOV_C:
                        _, d, v = op
                        frame[d] = v
                        tnt[d] = False
                    elif o == _MOV_V:
                        _, d, a = op
                        v = frame[a]
                        if v is None:
                            raise Trap(
                                f"use of undefined variable {slot_names[a]!r}"
                            )
                        frame[d] = v
                        t = tnt[d] = tnt[a]
                        if track and t:
                            nt += 1
                    elif o == _LOAD_V or o == _LOAD_C:
                        _, d, aidx, i = op
                        if o == _LOAD_V:
                            i = frame[i]
                        mem = mems[aidx]
                        if not 0 <= i < len(mem):
                            raise Trap(
                                f"load index {i} out of range for "
                                f"{array_names[aidx]!r}[{len(mem)}]"
                            )
                        frame[d] = mem[i]
                        tnt[d] = True
                        if track:
                            nt += 1
                    elif o == _BIN_CV:
                        _, d, f, c, b = op
                        frame[d] = f(c, frame[b])
                        t = tnt[d] = tnt[b]
                        if track and t:
                            nt += 1
                    elif o == _UN_V:
                        _, d, f, a = op
                        frame[d] = f(frame[a])
                        t = tnt[d] = tnt[a]
                        if track and t:
                            nt += 1
                    elif o <= _STORE_CC:  # one of the four store variants
                        _, aidx, i, v = op
                        if o == _STORE_VV or o == _STORE_VC:
                            i = frame[i]
                        if o == _STORE_VV or o == _STORE_CV:
                            v = frame[v]
                            if v is None:
                                # Like the reference, name an undefined
                                # index before an undefined value.
                                undefined = op[2] if i is None else op[3]
                                raise Trap(
                                    f"use of undefined variable "
                                    f"{slot_names[undefined]!r}"
                                )
                        mem = mems[aidx]
                        if not 0 <= i < len(mem):
                            raise Trap(
                                f"store index {i} out of range for "
                                f"{array_names[aidx]!r}[{len(mem)}]"
                            )
                        mem[i] = v
                    elif o == _CALL_USER or o == _CALL_BUILTIN:
                        _, d, callee, argspec = op
                        vals = []
                        for is_var, x in argspec:
                            if is_var:
                                if frame[x] is None:
                                    raise Trap(
                                        f"use of undefined variable "
                                        f"{slot_names[x]!r}"
                                    )
                                x = frame[x]
                            vals.append(x)
                        if o == _CALL_USER:
                            before = self.instr_count
                            ret = self.call(cfuncs[callee], vals)
                            base += self.instr_count - before
                            if d >= 0 and ret is None:
                                raise Trap(
                                    f"{callee} returned no value but one is used"
                                )
                        else:
                            ret = callee(vals)
                        if d >= 0:
                            frame[d] = ret
                            tnt[d] = True
                            if track:
                                nt += 1
                    elif o == _PRINT:
                        vals = []
                        for is_var, x in op[1]:
                            if is_var:
                                if frame[x] is None:
                                    raise Trap(
                                        f"use of undefined variable "
                                        f"{slot_names[x]!r}"
                                    )
                                x = frame[x]
                            vals.append(x)
                        output.append(tuple(vals))
                    else:  # _TRAP
                        raise Trap(op[1])
            except TypeError:
                name = _undefined_operand(op, frame, slot_names)
                if name is None:
                    raise
                raise Trap(f"use of undefined variable {name!r}") from None

            term = terms[idx]
            tk = term[0]
            if tk == _T_BR:
                c = frame[term[1]]
                if c is None:
                    raise Trap(
                        f"use of undefined variable {slot_names[term[1]]!r}"
                    )
                entry = term[2] if c != 0 else term[3]
            elif tk == _T_JUMP:
                entry = term[1]
            elif tk == _T_RET_V or tk == _T_RET_C:
                if tk == _T_RET_V:
                    ret_value = frame[term[1]]
                    if ret_value is None:
                        raise Trap(
                            f"use of undefined variable {slot_names[term[1]]!r}"
                        )
                else:
                    ret_value = term[1]
                exit_entry = term[2]
                self.cost += exit_entry[1]
                if do_bl:
                    # The edge into the virtual exit is recording: it flushes
                    # the activation's final path.
                    counts[(bl_start, bl_reg + exit_entry[3])] += 1
                if tp is not None:
                    tp.edge(labels[idx], EXIT)
                    tp.leave()
                if nt:
                    self.tainted[cf.name] += nt
                self.depth -= 1
                return ret_value
            else:  # pragma: no cover - _T_TRAP, unvalidated IR only
                raise Trap(term[1])

            nidx, cost_d, rec, bl_val, v_label = entry
            self.cost += cost_d
            if tp is not None:
                tp.edge(labels[idx], v_label)
            if rec:
                if do_bl:
                    counts[(bl_start, bl_reg + bl_val)] += 1
                    bl_start = nidx
                    bl_reg = 0
                # A recording edge has just flushed the path register, so
                # only the frame, the taint bits and the target block carry
                # over into the generated tier.
                if self.instr_count - base > budget:
                    if nt:
                        self.tainted[cf.name] += nt
                    gen = self.cmod.tier_up(cf, mode)
                    return gen(self, frame, tnt, nidx)
            elif do_bl:
                bl_reg += bl_val
            idx = nidx

    # -- readout -----------------------------------------------------------

    def result(self, ret: Optional[int]) -> RunResult:
        cmod = self.cmod
        profiles: dict[str, PathProfile] = {}
        if self.profile_mode in ("bl", "both"):
            for name in self.activated:
                numbering = cmod.numberings[name]
                labels = cmod.functions[name].labels
                profile = PathProfile()
                for (start, pid), count in self.bl_counts.get(name, {}).items():
                    profile.add(numbering.regenerate(labels[start], pid), count)
                profiles[name] = profile
        trace_profiles = {
            name: tp.profile() for name, tp in self.trace_profilers.items()
        }
        block_counts: dict[tuple[str, str], int] = {}
        for name in self.activated:
            cf = cmod.functions[name]
            counts = self.block_counts[name]
            for i, label in enumerate(cf.labels):
                if counts[i]:
                    block_counts[(name, label)] = counts[i]
        return RunResult(
            return_value=ret,
            output=self.output,
            instr_count=self.instr_count,
            cost=self.cost,
            block_counts=block_counts,
            profiles=profiles,
            trace_profiles=trace_profiles,
            tainted=dict(self.tainted),
            memory=self.memory,
        )


def _undefined_operand(op: tuple, frame: list, slot_names: Sequence[str]):
    """The name of the first undefined variable read by ``op``, if any.

    A ``TypeError`` out of an operator callable or a bounds comparison means
    some slot still holds ``None``; this resolves it back to a source-level
    name so the compiled engine traps exactly like the reference engine.
    """
    for pos in _VAR_SLOT_POSITIONS.get(op[0], ()):
        if frame[op[pos]] is None:
            return slot_names[op[pos]]
    return None
