"""Abstract transfer functions vs. concrete execution.

For any straight-line block and any concrete entry state, the abstract
transfer over an environment that maps each variable to its concrete value
must predict exactly the values the interpreter computes.  This pins the
folding machinery to every evaluator — the reference engine, the compiled
engine's micro-op loop and its generated tier — so they can never disagree
on arithmetic.

The concrete values come from a *witnessed* copy of the program
(:func:`witnessed`), which prints each value-producing instruction's result
right after it; :func:`witness_values` reads them back from the run's output.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataflow import ConstEnv
from repro.dataflow.transfer import transfer_instr
from repro.interp import compiled, run_module
from repro.interp.interpreter import RunResult
from repro.ir import BasicBlock, Const, Function, IRBuilder, Module, Print, Var
from repro.ir.ops import BINOPS, UNOPS

from test_generated_tier import tiered_run

_VARS = ["a", "b", "c"]

#: (block label, instruction index) of a value-producing instruction.
Site = tuple[str, int]


def witnessed(fn: Function) -> tuple[Module, dict[int, Site]]:
    """A module holding a copy of ``fn`` that runs ``print k, dest`` after
    each value-producing instruction, and the site of each ``k``."""
    copy = Function(fn.name, fn.params, entry=fn.entry)
    sites: dict[int, Site] = {}
    for label, block in fn.blocks.items():
        out = BasicBlock(label, terminator=block.terminator)
        for idx, instr in enumerate(block.instrs):
            out.append(instr)
            if instr.dest is not None:
                out.append(Print((Const(len(sites)), Var(instr.dest))))
                sites[len(sites)] = (label, idx)
        copy.add_block(out)
    module = Module()
    module.add_function(copy)
    return module, sites


def witness_values(
    result: RunResult, sites: dict[int, Site]
) -> dict[Site, list[int]]:
    """Each executed site's values, in execution order, read back from
    ``result.output``."""
    values: dict[Site, list[int]] = {}
    for k, value in result.output:
        values.setdefault(sites[k], []).append(value)
    return values


@st.composite
def straightline_blocks(draw):
    """(instructions-spec, initial values) for a random pure block."""
    init = {v: draw(st.integers(-20, 20)) for v in _VARS}
    n = draw(st.integers(1, 8))
    instrs = []
    for _ in range(n):
        dest = draw(st.sampled_from(_VARS))
        kind = draw(st.sampled_from(["assign", "binop", "unop"]))

        def operand():
            if draw(st.booleans()):
                return draw(st.integers(-20, 20))
            return draw(st.sampled_from(_VARS))

        if kind == "assign":
            instrs.append(("assign", dest, operand()))
        elif kind == "binop":
            op = draw(st.sampled_from(sorted(BINOPS)))
            instrs.append(("binop", dest, op, operand(), operand()))
        else:
            op = draw(st.sampled_from(sorted(UNOPS)))
            instrs.append(("unop", dest, op, operand()))
    return instrs, init


#: Zero divisors and negative shift counts, each from a variable and from a
#: constant: the operands on which the engines' strict operators return
#: early, pinned so that every run checks them.
_ZERO_DIVISORS = (
    [("binop", "a", op, "b", d) for op in ("div", "mod") for d in ("c", 0)],
    {"a": 0, "b": 7, "c": 0},
)
_NEGATIVE_SHIFTS = (
    [("binop", "a", op, "b", k) for op in ("shl", "shr") for k in ("c", -3)],
    {"a": 0, "b": 7, "c": -3},
)


@given(straightline_blocks())
@example(_ZERO_DIVISORS)
@example(_NEGATIVE_SHIFTS)
@settings(max_examples=200, deadline=None)
def test_abstract_transfer_predicts_execution(case):
    instr_specs, init = case

    # The block seeds the variables and runs the drawn instructions.  It
    # sits in a two-iteration loop: loop-free code never tiers up.
    b = IRBuilder("main")
    b.block("entry")
    b.assign("i", 0)
    b.jump("body")
    b.block("body")
    for var, value in init.items():
        b.assign(var, value)
    for spec in instr_specs:
        if spec[0] == "assign":
            b.assign(spec[1], spec[2])
        elif spec[0] == "binop":
            b.binop(spec[1], spec[2], spec[3], spec[4])
        else:
            b.unop(spec[1], spec[2], spec[3])
    b.jump("latch")
    b.block("latch")
    b.binop("i", "add", "i", 1)
    b.binop("more", "lt", "i", 2)
    b.branch("more", "body", "done")
    b.block("done")
    b.ret(0)
    fn = b.finish()

    # Abstract: walk the block with the transfer functions; both iterations
    # must produce these values.
    expected: dict[Site, list[int]] = {}
    env = ConstEnv()
    for idx, instr in enumerate(fn.blocks["body"].instrs):
        env, value = transfer_instr(instr, env)
        assert isinstance(value, int), (idx, instr)
        expected[("body", idx)] = [value, value]

    # Concrete: run the witnessed copy on every evaluator.
    module, sites = witnessed(fn)
    runs = {
        engine: run_module(module, profile_mode=None, engine=engine)
        for engine in ("reference", "compiled")
    }
    with mock.patch.object(compiled, "TIER_UP_FACTOR", 0):
        runs["generated"] = tiered_run(module, profile_mode=None)
    for evaluator, result in runs.items():
        observed = {
            site: values
            for site, values in witness_values(result, sites).items()
            if site[0] == "body"
        }
        assert observed == expected, evaluator
