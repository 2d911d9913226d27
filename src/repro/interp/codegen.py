"""Second tier of the compiled engine: generated Python source per function.

The micro-op loop of :mod:`repro.interp.compiled` pays for its generality
on every executed instruction: it unpacks an op tuple, branches on its
opcode, reads and writes a list frame, and updates taint bits that only
the taint count reads.  This module prints one function's lowering (its
:class:`~repro.interp.compiled._CompiledFunction` tuples, never the IR) as
straight-line Python over locals and compiles it:

* slots become locals ``s0 … sN``; taint locals ``t0 … tN`` and the taint
  count ``nt`` exist only when the module tracks sites, and ``nt`` is added
  to the routine's entry of the run's count on return;
* blocks dispatch inside one ``while True`` through a binary ``if b < k``
  tree; each block does the loop's bookkeeping with literal values (block
  count, instruction count with the step-budget check, and cost);
* each edge adds its transfer cost, then, under ``profile_mode="bl"``,
  either its Ball–Larus increment or its recording-edge bump;
* ``+ - * & | ^``, the orderings, ``==``/``!=`` and the unary operators are
  inlined in forms that give the same int results and raise ``TypeError``
  on ``None`` exactly like the loop's strict callables; the other
  operators call the same callables the micro-ops hold;
* user calls go through :meth:`_CompiledState.call`, so each callee runs in
  whichever tier it has reached; the instruction count is synced around
  each call and the cost is added on return.

Every check of the loop stays, with the same trap messages.  A
``TypeError`` from an undefined (``None``) operand is mapped back to the
variable's name by scanning the current block's micro-ops with
:func:`~repro.interp.compiled._undefined_operand`, so both tiers share one
diagnosis.

Program text never becomes Python syntax: daemon requests carry untrusted
source, so the generated code holds only integer literals and fixed
identifiers.  Names, labels, callees and trap messages reach it as objects
bound in the function's globals.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from ..ir.ops import BINOPS, UNOPS
from .compiled import (
    _BIN_CV,
    _BIN_VC,
    _BIN_VV,
    _CALL_BUILTIN,
    _CALL_USER,
    _LOAD_C,
    _LOAD_V,
    _MOV_C,
    _MOV_V,
    _PRINT,
    _STORE_CC,
    _STORE_CV,
    _STORE_VC,
    _STORE_VV,
    _STRICT_BINOPS,
    _STRICT_UNOPS,
    _T_BR,
    _T_JUMP,
    _T_RET_C,
    _T_RET_V,
    _UN_V,
    CompiledModule,
    _CompiledFunction,
    _undefined_operand,
)
from .interpreter import ExecutionLimit, Trap

#: Operator callable -> source template over its two operand expressions.
#: ``a - b`` stands in for ``a == b`` because it raises on ``None``.
_INLINE_BINOPS = {
    BINOPS["add"]: "{} + {}",
    BINOPS["sub"]: "{} - {}",
    BINOPS["mul"]: "{} * {}",
    BINOPS["and"]: "{} & {}",
    BINOPS["or"]: "{} | {}",
    BINOPS["xor"]: "{} ^ {}",
    BINOPS["lt"]: "1 if {} < {} else 0",
    BINOPS["le"]: "1 if {} <= {} else 0",
    BINOPS["gt"]: "1 if {} > {} else 0",
    BINOPS["ge"]: "1 if {} >= {} else 0",
    _STRICT_BINOPS["eq"]: "0 if {} - {} else 1",
    _STRICT_BINOPS["ne"]: "1 if {} - {} else 0",
}
_INLINE_UNOPS = {
    UNOPS["neg"]: "-{}",
    UNOPS["not"]: "~{}",
    _STRICT_UNOPS["lnot"]: "0 if {} - 0 else 1",
}


def _int(value) -> str:
    """Source text of an integer constant."""
    return repr(operator.index(value))


def _undefined_in_block(ops: tuple, frame: list, slot_names) -> Optional[str]:
    """The first undefined variable read by a block's micro-ops, if any.

    Slots only ever go from ``None`` to a value, and every op before the
    failing one has read only defined slots, so the first op that reads an
    undefined one is the op that raised.
    """
    for op in ops:
        name = _undefined_operand(op, frame, slot_names)
        if name is not None:
            return name
    return None


def _undefined_trap(name: str) -> Trap:
    return Trap(f"use of undefined variable {name!r}")


def generate(
    cmod: CompiledModule, cf: _CompiledFunction, profile_mode: Optional[str]
) -> Callable:
    """Compile ``cf``'s generated tier for ``profile_mode`` (``None`` or
    ``"bl"``).

    The result is called as ``run(state, frame, taint, block)`` with the
    activation's frame and taint lists; it starts at ``block``, which must
    be the function's entry or the target of a recording edge that has just
    been taken, and returns the activation's return value.
    """
    writer = _Writer(cmod, cf, profile_mode == "bl")
    writer.function()
    code = compile(writer.source(), "<generated tier>", "exec")
    exec(code, writer.namespace)
    return writer.namespace["_run"]


class _Writer:
    """Source lines of one generated function and the objects they name."""

    def __init__(self, cmod: CompiledModule, cf: _CompiledFunction, bl: bool):
        self.cmod = cmod
        self.cf = cf
        self.bl = bl
        self.sites = cmod.track_sites
        self.lines: list[str] = []
        slot_names = cf.slot_names
        array_names = cmod.array_names
        self.namespace: dict = {
            "_Trap": Trap,
            "_undefined_in_block": _undefined_in_block,
            "_limit": lambda ms: ExecutionLimit(
                f"exceeded {ms} executed instructions"
            ),
            "_undefined_trap": _undefined_trap,
            "_undef": lambda k: _undefined_trap(slot_names[k]),
            "_load_oob": lambda i, a, size: Trap(
                f"load index {i} out of range for {array_names[a]!r}[{size}]"
            ),
            "_store_oob": lambda i, a, size: Trap(
                f"store index {i} out of range for {array_names[a]!r}[{size}]"
            ),
        }
        self._refs: dict[int, str] = {}

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def ref(self, obj) -> str:
        """A global name of the generated function bound to ``obj``."""
        name = self._refs.get(id(obj))
        if name is None:
            name = self._refs[id(obj)] = f"_k{len(self._refs)}"
            self.namespace[name] = obj
        return name

    # -- function ------------------------------------------------------------

    def function(self) -> None:
        cf, emit = self.cf, self.emit
        slots = ", ".join(f"s{i}" for i in range(cf.nslots))
        all_ops = [op for block in cf.ops for op in block]
        emit(0, "def _run(st, F, T, b):")
        if cf.nslots:
            emit(1, f"{slots}, = F")
            if self.sites:
                emit(1, ", ".join(f"t{i}" for i in range(cf.nslots)) + ", = T")
        emit(1, f"bc = st.block_counts[{self.ref(cf.name)}]")
        emit(1, "n = st.instr_count")
        emit(1, "ms = st.max_steps")
        emit(1, "c = 0")
        if self.bl:
            emit(1, f"counts = st.path_counts({self.ref(cf.name)})")
            emit(1, "bs = b")
            emit(1, "r = 0")
        arrays = sorted(
            {op[2] if op[0] <= _LOAD_C else op[1] for op in all_ops
             if _LOAD_V <= op[0] <= _STORE_CC}
        )
        if arrays:
            emit(1, "mems = st.mems")
        for a in arrays:
            emit(1, f"m{a} = mems[{a}]")
            emit(1, f"z{a} = len(m{a})")
        if any(op[0] == _CALL_USER for op in all_ops):
            emit(1, "call = st.call")
        if any(op[0] == _PRINT for op in all_ops):
            emit(1, "out = st.output")
        if self.sites:
            emit(1, "nt = 0")
        emit(1, "try:")
        emit(2, "while True:")
        self.dispatch(0, len(cf.labels), 3)
        emit(1, "except TypeError:")
        emit(
            2,
            f"name = _undefined_in_block({self.ref(cf.ops)}[b], [{slots}], "
            f"{self.ref(cf.slot_names)})",
        )
        emit(2, "if name is None:")
        emit(3, "raise")
        emit(2, "raise _undefined_trap(name) from None")

    def dispatch(self, lo: int, hi: int, depth: int) -> None:
        if hi - lo == 1:
            self.block(lo, depth)
            return
        mid = (lo + hi) // 2
        self.emit(depth, f"if b < {mid}:")
        self.dispatch(lo, mid, depth + 1)
        self.emit(depth, "else:")
        self.dispatch(mid, hi, depth + 1)

    # -- blocks and edges --------------------------------------------------

    def block(self, k: int, depth: int) -> None:
        cf, emit = self.cf, self.emit
        emit(depth, f"bc[{k}] += 1")
        emit(depth, f"n += {cf.n_instr[k]}")
        emit(depth, "if n > ms:")
        emit(depth + 1, "raise _limit(ms)")
        for op in cf.ops[k]:
            self.op(op, depth)
        base = cf.base_cost[k]
        term = cf.terms[k]
        kind = term[0]
        if kind == _T_JUMP:
            self.edge(term[1], base, depth)
        elif kind == _T_BR:
            cond = term[1]
            emit(depth, f"if s{cond}:")
            self.edge(term[2], base, depth + 1)
            emit(depth, "else:")
            self.check_defined(cond, depth + 1)
            self.edge(term[3], base, depth + 1)
        elif kind == _T_RET_V or kind == _T_RET_C:
            exit_entry = term[2]
            if kind == _T_RET_V:
                self.check_defined(term[1], depth)
                value = f"s{term[1]}"
            else:
                value = "None" if term[1] is None else _int(term[1])
            if self.bl:
                # The edge into the virtual exit is recording.
                emit(depth, f"counts[bs, r + {exit_entry[3]}] += 1")
            if self.sites:
                emit(depth, "if nt:")
                emit(depth + 1, f"st.tainted[{self.ref(cf.name)}] += nt")
            emit(depth, "st.instr_count = n")
            emit(depth, f"st.cost += c + {base + exit_entry[1]}")
            emit(depth, "st.depth -= 1")
            emit(depth, f"return {value}")
        else:  # pragma: no cover - _T_TRAP, unvalidated IR only
            emit(depth, f"raise _Trap({self.ref(term[1])})")

    def edge(self, entry: tuple, base: int, depth: int) -> None:
        nidx, cost, rec, bl_val, _ = entry
        emit = self.emit
        if base + cost:
            emit(depth, f"c += {base + cost}")
        if self.bl:
            if rec:
                emit(depth, f"counts[bs, r + {bl_val}] += 1")
                emit(depth, f"bs = {nidx}")
                emit(depth, "r = 0")
            elif bl_val:
                emit(depth, f"r += {bl_val}")
        emit(depth, f"b = {nidx}")

    # -- micro-ops ---------------------------------------------------------

    def op(self, op: tuple, depth: int) -> None:
        emit = self.emit
        o = op[0]
        if o == _BIN_VV or o == _BIN_VC or o == _BIN_CV:
            _, d, f, a, b = op
            lhs = _int(a) if o == _BIN_CV else f"s{a}"
            rhs = _int(b) if o == _BIN_VC else f"s{b}"
            template = _INLINE_BINOPS.get(f)
            if template is None:
                expr = f"{self.ref(f)}({lhs}, {rhs})"
            else:
                expr = template.format(lhs, rhs)
            emit(depth, f"s{d} = {expr}")
            if o == _BIN_VV:
                taint = f"t{a} or t{b}"
            else:
                taint = f"t{a}" if o == _BIN_VC else f"t{b}"
            self.define(d, taint, depth)
        elif o == _MOV_C:
            _, d, v = op
            emit(depth, f"s{d} = {_int(v)}")
            self.define(d, "False", depth)
        elif o == _MOV_V:
            _, d, a = op
            self.check_defined(a, depth)
            emit(depth, f"s{d} = s{a}")
            self.define(d, f"t{a}", depth)
        elif o == _UN_V:
            _, d, f, a = op
            template = _INLINE_UNOPS.get(f)
            if template is None:
                expr = f"{self.ref(f)}(s{a})"
            else:
                expr = template.format(f"s{a}")
            emit(depth, f"s{d} = {expr}")
            self.define(d, f"t{a}", depth)
        elif o == _LOAD_V or o == _LOAD_C:
            _, d, a, i = op
            index = f"s{i}" if o == _LOAD_V else _int(i)
            emit(depth, f"if not 0 <= {index} < z{a}:")
            emit(depth + 1, f"raise _load_oob({index}, {a}, z{a})")
            emit(depth, f"s{d} = m{a}[{index}]")
            self.define(d, "True", depth)
        elif o <= _STORE_CC:
            _, a, i, v = op
            index = f"s{i}" if o == _STORE_VV or o == _STORE_VC else _int(i)
            value = f"s{v}" if o == _STORE_VV or o == _STORE_CV else _int(v)
            if o == _STORE_VV:
                # Like the reference, name an undefined index first.
                emit(depth, f"if s{v} is None:")
                emit(depth + 1, f"raise _undef({i} if s{i} is None else {v})")
            elif o == _STORE_CV:
                self.check_defined(v, depth)
            emit(depth, f"if not 0 <= {index} < z{a}:")
            emit(depth + 1, f"raise _store_oob({index}, {a}, z{a})")
            emit(depth, f"m{a}[{index}] = {value}")
        elif o == _CALL_USER or o == _CALL_BUILTIN:
            _, d, callee, argspec = op
            args = self.operands(argspec, depth)
            if o == _CALL_USER:
                target = self.ref(self.cmod.functions[callee])
                emit(depth, "st.instr_count = n")
                emit(depth, f"rv = call({target}, [{args}])")
                emit(depth, "n = st.instr_count")
                if d >= 0:
                    message = f"{callee} returned no value but one is used"
                    emit(depth, "if rv is None:")
                    emit(depth + 1, f"raise _Trap({self.ref(message)})")
            else:
                emit(depth, f"rv = {self.ref(callee)}([{args}])")
            if d >= 0:
                emit(depth, f"s{d} = rv")
                self.define(d, "True", depth)
        elif o == _PRINT:
            args = self.operands(op[1], depth)
            emit(depth, f"out.append(({args},))" if args else "out.append(())")
        else:  # _TRAP
            emit(depth, f"raise _Trap({self.ref(op[1])})")

    def operands(self, argspec: tuple, depth: int) -> str:
        """Comma-separated operand expressions, after checking in order
        that each variable among them is defined."""
        items = []
        for is_var, x in argspec:
            if is_var:
                self.check_defined(x, depth)
                items.append(f"s{x}")
            else:
                items.append(_int(x))
        return ", ".join(items)

    def check_defined(self, k: int, depth: int) -> None:
        self.emit(depth, f"if s{k} is None:")
        self.emit(depth + 1, f"raise _undef({k})")

    def define(self, d: int, taint: str, depth: int) -> None:
        """Taint bit and taint count for a value just written to slot ``d``."""
        if not self.sites:
            return
        emit = self.emit
        emit(depth, f"t{d} = {taint}")
        if taint == "True":
            emit(depth, "nt += 1")
        elif taint != "False":
            emit(depth, f"if t{d}:")
            emit(depth + 1, "nt += 1")
