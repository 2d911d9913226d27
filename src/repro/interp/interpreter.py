"""A deterministic interpreter for IR modules.

The interpreter plays the role of the paper's instrumented native runs: it
executes a module, charges abstract cycle costs (:mod:`repro.interp.cost`),
collects Ball–Larus path profiles per routine, and counts each routine's
tainted value-producing executions for the constant-classification
experiment (Figures 10/13).

Dynamic taint
-------------
Each runtime value carries a taint bit meaning "no intraprocedural scalar
analysis could know this value": function parameters, memory loads, and call
results are tainted; constants are clean; operators propagate taint.  The
paper's *Unknowable* category — instructions that "will never be found
constant" because the analyses do not track pointers, memory, or calls — is
estimated as the dynamic executions whose result is tainted, counted per
routine under ``track_sites=True``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..ir.cfg import Cfg, ENTRY, EXIT
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
from ..ir.ops import eval_binop, eval_unop
from ..obs import get_metrics, get_tracer
from ..profiles.ball_larus import BallLarusNumbering
from ..profiles.path_profile import PathProfile
from ..profiles.recording import recording_edges
from .cost import DEFAULT_COST_MODEL, CostModel
from .profiler import BallLarusProfiler, NullProfiler, TraceProfiler


class ExecutionLimit(Exception):
    """Raised when a run exceeds the configured step budget."""


class Trap(Exception):
    """Raised on a runtime error (bad array index, missing function, ...)."""


@dataclass
class RunResult:
    """Everything observed during one program run."""

    return_value: Optional[int]
    #: Printed tuples, in order — the observable behaviour semantics tests compare.
    output: list[tuple[int, ...]]
    #: Total executed IR instructions (incl. terminators).
    instr_count: int
    #: Total abstract cycles.
    cost: int
    #: Executions of each (function, block).
    block_counts: dict[tuple[str, str], int]
    #: Per-routine Ball–Larus path profile (increment-based profiler).
    profiles: dict[str, PathProfile]
    #: Per-routine profile from the trace-splitting oracle (mode="both").
    trace_profiles: dict[str, PathProfile]
    #: Tainted value-producing executions per routine (``track_sites``
    #: runs only; routines with none are absent).
    tainted: dict[str, int]
    #: Final contents of the global arrays.
    memory: dict[str, list[int]]


class Interpreter:
    """Executes a module; construct once, :meth:`run` any number of times.

    Two execution engines share this front door:

    * ``engine="reference"`` — the tree-walking interpreter below, kept as
      the obviously-correct oracle;
    * ``engine="compiled"`` — the block-compiling fast path of
      :mod:`repro.interp.compiled`, which lowers each function once to a
      flat register-machine form and is several times faster on profiling
      runs (see ``docs/PERFORMANCE.md``).

    Both produce equal :class:`RunResult` values for every run that
    completes.
    """

    def __init__(
        self,
        module: Module,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        max_steps: int = 50_000_000,
        profile_mode: Optional[str] = "bl",
        track_sites: bool = True,
        engine: str = "reference",
    ) -> None:
        """``profile_mode`` is ``"bl"`` (efficient profiler), ``"trace"``
        (oracle), ``"both"`` (cross-validating), or ``None`` (no profiling).
        """
        if profile_mode not in (None, "bl", "trace", "both"):
            raise ValueError(f"bad profile_mode {profile_mode!r}")
        if engine not in ("reference", "compiled"):
            raise ValueError(f"bad engine {engine!r}")
        self.module = module
        self.cost_model = cost_model
        self.max_steps = max_steps
        self.profile_mode = profile_mode
        self.track_sites = track_sites
        self.engine = engine
        self._cfgs: dict[str, Cfg] = {}
        self._recording: dict[str, frozenset] = {}
        self._fallthrough: dict[str, dict[str, Optional[str]]] = {}
        for name, fn in module.functions.items():
            cfg = Cfg.from_function(fn)
            self._cfgs[name] = cfg
            self._recording[name] = recording_edges(cfg)
            labels = list(fn.blocks)
            self._fallthrough[name] = {
                label: labels[i + 1] if i + 1 < len(labels) else None
                for i, label in enumerate(labels)
            }
        #: One numbering per (cfg, recording), shared by every run and by
        #: both engines instead of being rebuilt per activation set.
        self._numberings: dict[str, BallLarusNumbering] = {}
        self._compiled = None
        #: Seconds spent lowering the module for the compiled engine.
        self.engine_compile_time = 0.0
        if engine == "compiled":
            from .compiled import CompiledModule

            with get_tracer().span(
                "interp.compile", functions=len(module.functions)
            ):
                t0 = time.perf_counter()
                self._compiled = CompiledModule(
                    module,
                    cost_model,
                    track_sites,
                    self._cfgs,
                    self._recording,
                    {name: self.numbering(name) for name in module.functions},
                )
                self.engine_compile_time = time.perf_counter() - t0

    def numbering(self, name: str) -> BallLarusNumbering:
        """The Ball–Larus numbering of one routine (constructed once)."""
        numbering = self._numberings.get(name)
        if numbering is None:
            numbering = BallLarusNumbering.for_cfg(
                self._cfgs[name], self._recording[name]
            )
            self._numberings[name] = numbering
        return numbering

    # -- public API -----------------------------------------------------------

    def run(
        self,
        args: Sequence[int] = (),
        inputs: Mapping[str, Sequence[int]] | None = None,
        entry_function: str = "main",
    ) -> RunResult:
        """Execute ``entry_function`` with integer ``args``.

        ``inputs`` overrides the initial contents of declared global arrays —
        this is how train vs. ref data sets are supplied.
        """
        # Each interpreted call nests a few Python frames; make sure the
        # interpreter's own depth limit (200) is reached before Python's.
        # The previous limit is restored on exit so embedding code never
        # observes a changed global.
        saved_limit = sys.getrecursionlimit()
        if saved_limit < 5000:
            sys.setrecursionlimit(5000)
        try:
            # One span and three counter bumps per *run* — never per
            # instruction — so the disabled-observability path stays on the
            # <5% overhead budget asserted by benchmarks/bench_interp.py.
            with get_tracer().span(
                "interp.run", engine=self.engine, entry=entry_function
            ) as span:
                result = self._run(args, inputs or {}, entry_function)
            span.set(instructions=result.instr_count, cost=result.cost)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("interp_runs", engine=self.engine).inc()
                metrics.counter(
                    "interp_instructions", engine=self.engine
                ).inc(result.instr_count)
                metrics.counter("interp_cost_cycles", engine=self.engine).inc(
                    result.cost
                )
            return result
        finally:
            if saved_limit < 5000:
                sys.setrecursionlimit(saved_limit)

    def _run(
        self,
        args: Sequence[int],
        inputs: Mapping[str, Sequence[int]],
        entry_function: str,
    ) -> RunResult:
        fn = self.module.functions.get(entry_function)
        if fn is None:
            raise Trap(f"no function named {entry_function!r}")
        if len(args) != len(fn.params):
            raise Trap(
                f"{entry_function} expects {len(fn.params)} args, got {len(args)}"
            )
        if self._compiled is not None:
            return self._compiled.run(
                args, inputs, entry_function, self.profile_mode, self.max_steps
            )
        state = _RunState(self, inputs)
        ret = state.call(fn, [(int(a), True) for a in args])
        profiles: dict[str, PathProfile] = {}
        trace_profiles: dict[str, PathProfile] = {}
        for name, prof in state.bl_profilers.items():
            profiles[name] = prof.profile()
        for name, prof in state.trace_profilers.items():
            trace_profiles[name] = prof.profile()
        return RunResult(
            return_value=ret,
            output=state.output,
            instr_count=state.instr_count,
            cost=state.cost,
            block_counts=state.block_counts,
            profiles=profiles,
            trace_profiles=trace_profiles,
            tainted=state.tainted,
            memory=state.memory,
        )


class _RunState:
    """Mutable state of one run."""

    def __init__(self, interp: Interpreter, inputs: Mapping[str, Sequence[int]]) -> None:
        self.interp = interp
        self.module = interp.module
        self.memory: dict[str, list[int]] = {}
        for decl in self.module.arrays.values():
            self.memory[decl.name] = decl.initial_contents()
        for name, data in inputs.items():
            if name not in self.memory:
                raise Trap(f"input array {name!r} is not declared by the module")
            dest = self.memory[name]
            if len(data) > len(dest):
                raise Trap(
                    f"input for {name!r} has {len(data)} elements; array holds {len(dest)}"
                )
            for i, x in enumerate(data):
                dest[i] = int(x)
        self.output: list[tuple[int, ...]] = []
        self.instr_count = 0
        self.cost = 0
        self.block_counts: dict[tuple[str, str], int] = {}
        self.tainted: dict[str, int] = {}
        self.bl_profilers: dict[str, BallLarusProfiler] = {}
        self.trace_profilers: dict[str, TraceProfiler] = {}
        self.depth = 0

    # -- profilers ---------------------------------------------------------

    def _profilers(self, name: str):
        mode = self.interp.profile_mode
        result = []
        if mode in ("bl", "both"):
            if name not in self.bl_profilers:
                self.bl_profilers[name] = BallLarusProfiler(
                    self.interp._cfgs[name],
                    self.interp._recording[name],
                    numbering=self.interp.numbering(name),
                )
            result.append(self.bl_profilers[name])
        if mode in ("trace", "both"):
            if name not in self.trace_profilers:
                self.trace_profilers[name] = TraceProfiler(
                    self.interp._cfgs[name], self.interp._recording[name]
                )
            result.append(self.trace_profilers[name])
        if not result:
            result.append(NullProfiler())
        return result

    # -- execution -----------------------------------------------------------

    def call(self, fn: Function, args: list[tuple[int, bool]]) -> Optional[int]:
        """Execute one activation; ``args`` are (value, taint) pairs.

        Parameters are always re-tainted at entry: no intraprocedural scalar
        analysis can know them (the paper's model).
        """
        self.depth += 1
        if self.depth > 200:
            raise Trap(f"call depth limit exceeded entering {fn.name}")
        env: dict[str, int] = {}
        taint: dict[str, bool] = {}
        for param, (value, _) in zip(fn.params, args):
            env[param] = value
            taint[param] = True

        cm = self.interp.cost_model
        fallthrough = self.interp._fallthrough[fn.name]
        profilers = self._profilers(fn.name)
        for p in profilers:
            p.enter()
            p.edge(ENTRY, fn.entry)

        label = fn.entry
        ret_value: Optional[int] = None
        while True:
            block = fn.blocks[label]
            self.block_counts[(fn.name, label)] = (
                self.block_counts.get((fn.name, label), 0) + 1
            )
            for instr in block.instrs:
                self._step()
                self._execute(fn.name, instr, env, taint, cm)
            term = block.terminator
            self._step()
            if isinstance(term, Jump):
                target = term.target
            elif isinstance(term, Branch):
                cond, _ = self._value(term.cond, env, taint)
                target = term.if_true if cond != 0 else term.if_false
            elif isinstance(term, Ret):
                if term.value is not None:
                    ret_value, _ = self._value(term.value, env, taint)
                self.cost += cm.transfer_cost(term, None, fallthrough[label])
                for p in profilers:
                    p.edge(label, EXIT)
                    p.leave()
                self.depth -= 1
                return ret_value
            else:  # pragma: no cover - validated IR has a terminator
                raise Trap(f"{fn.name}:{label}: missing terminator")
            self.cost += cm.transfer_cost(term, target, fallthrough[label])
            for p in profilers:
                p.edge(label, target)
            label = target

    def _step(self) -> None:
        self.instr_count += 1
        if self.instr_count > self.interp.max_steps:
            raise ExecutionLimit(
                f"exceeded {self.interp.max_steps} executed instructions"
            )

    def _value(
        self, op: Operand, env: dict[str, int], taint: dict[str, bool]
    ) -> tuple[int, bool]:
        if isinstance(op, Const):
            return op.value, False
        try:
            return env[op.name], taint.get(op.name, True)
        except KeyError:
            raise Trap(f"use of undefined variable {op.name!r}") from None

    def _execute(
        self,
        fn_name: str,
        instr,
        env: dict[str, int],
        taint: dict[str, bool],
        cm: CostModel,
    ) -> None:
        self.cost += cm.instr_cost(instr)
        result: Optional[tuple[int, bool]] = None

        if isinstance(instr, Assign):
            result = self._value(instr.src, env, taint)
        elif isinstance(instr, BinOp):
            (a, ta) = self._value(instr.lhs, env, taint)
            (b, tb) = self._value(instr.rhs, env, taint)
            result = (eval_binop(instr.op, a, b), ta or tb)
        elif isinstance(instr, UnOp):
            (a, ta) = self._value(instr.src, env, taint)
            result = (eval_unop(instr.op, a), ta)
        elif isinstance(instr, Load):
            (i, _) = self._value(instr.index, env, taint)
            result = (self._load(instr.array, i), True)
        elif isinstance(instr, Store):
            (i, _) = self._value(instr.index, env, taint)
            (v, _) = self._value(instr.value, env, taint)
            self._store(instr.array, i, v)
        elif isinstance(instr, Call):
            values = [self._value(a, env, taint) for a in instr.args]
            ret = self._dispatch_call(instr.func, values)
            if instr.dest is not None:
                if ret is None:
                    raise Trap(f"{instr.func} returned no value but one is used")
                result = (ret, True)
        elif isinstance(instr, Print):
            self.output.append(
                tuple(self._value(a, env, taint)[0] for a in instr.args)
            )
        else:  # pragma: no cover
            raise Trap(f"unknown instruction {instr!r}")

        if result is not None and instr.dest is not None:
            value, tainted = result
            env[instr.dest] = value
            taint[instr.dest] = tainted
            if tainted and self.interp.track_sites:
                self.tainted[fn_name] = self.tainted.get(fn_name, 0) + 1

    def _load(self, array: str, index: int) -> int:
        mem = self.memory.get(array)
        if mem is None:
            raise Trap(f"load from undeclared array {array!r}")
        if not 0 <= index < len(mem):
            raise Trap(f"load index {index} out of range for {array!r}[{len(mem)}]")
        return mem[index]

    def _store(self, array: str, index: int, value: int) -> None:
        mem = self.memory.get(array)
        if mem is None:
            raise Trap(f"store to undeclared array {array!r}")
        if not 0 <= index < len(mem):
            raise Trap(f"store index {index} out of range for {array!r}[{len(mem)}]")
        mem[index] = value

    def _dispatch_call(
        self, func: str, args: list[tuple[int, bool]]
    ) -> Optional[int]:
        target = self.module.functions.get(func)
        if target is not None:
            if len(args) != len(target.params):
                raise Trap(
                    f"{func} expects {len(target.params)} args, got {len(args)}"
                )
            return self.call(target, args)
        values = [v for v, _ in args]
        if func == "abs":
            _expect(func, values, 1)
            return abs(values[0])
        if func == "min2":
            _expect(func, values, 2)
            return min(values)
        if func == "max2":
            _expect(func, values, 2)
            return max(values)
        if func == "clamp":
            _expect(func, values, 3)
            lo, hi = values[1], values[2]
            return max(lo, min(values[0], hi))
        raise Trap(f"unknown function {func!r}")


def _expect(func: str, values: list[int], n: int) -> None:
    if len(values) != n:
        raise Trap(f"builtin {func} expects {n} args, got {len(values)}")


def run_module(
    module: Module,
    args: Sequence[int] = (),
    inputs: Mapping[str, Sequence[int]] | None = None,
    entry_function: str = "main",
    **kwargs,
) -> RunResult:
    """Convenience wrapper: build an :class:`Interpreter` and run
    ``entry_function`` (remaining keyword arguments configure the
    interpreter)."""
    return Interpreter(module, **kwargs).run(args, inputs, entry_function)
