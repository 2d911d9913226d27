"""MiniC semantic analysis.

Checks performed before lowering:

* unique global, function, and parameter names;
* variables declared (textually) before use, and not redeclared;
* array references name declared globals; scalar/array namespaces are
  disjoint;
* calls target a declared function or builtin with the right arity;
* ``break``/``continue`` appear inside loops;
* no statements follow a ``return``/``break``/``continue`` in a block;
* no expression tree is deeper than :data:`MAX_EXPR_DEPTH`;
* a ``main`` function exists.

MiniC has function-level scoping (a ``var`` is visible from its declaration
to the end of the function), which keeps the lowered IR's variable story
identical to the analyses' model.
"""

from __future__ import annotations

from ..ir.validate import BUILTIN_FUNCTIONS
from .ast_nodes import (
    AssignStmt,
    BinaryExpr,
    BreakStmt,
    CallExpr,
    ContinueStmt,
    Expr,
    ExprStmt,
    ForStmt,
    FuncDecl,
    IfStmt,
    IndexExpr,
    NumberExpr,
    PrintStmt,
    Program,
    ReturnStmt,
    Stmt,
    StoreStmt,
    UnaryExpr,
    VarDecl,
    VarExpr,
    WhileStmt,
)
from .lexer import MiniCError
from .parser import MAX_NESTING

#: Builtin name -> arity.
BUILTIN_ARITY = {"abs": 1, "min2": 2, "max2": 2, "clamp": 3}

#: Deepest expression tree accepted, in nodes from the root to a leaf
#: (``n + n + n`` is 3 deep, ``-(n)`` 2).  The parser's nesting bound
#: does not see a left-deep chain such as ``n + n + … + n``, which it builds
#: in a loop, but the lowering recurses two or three frames per level of
#: the tree; this bound keeps it well inside Python's recursion limit even
#: at the deepest block nesting.  The walk here is iterative.
MAX_EXPR_DEPTH = MAX_NESTING

assert set(BUILTIN_ARITY) == set(BUILTIN_FUNCTIONS)


def check_program(program: Program) -> None:
    """Validate ``program``; raises :class:`MiniCError` on the first fault."""
    arrays: dict[str, int] = {}
    for g in program.globals:
        if g.name in arrays:
            raise MiniCError(f"duplicate global {g.name!r}", g.line)
        if g.size <= 0:
            raise MiniCError(f"global {g.name!r} has non-positive size", g.line)
        if len(g.init) > g.size:
            raise MiniCError(
                f"global {g.name!r} initialized with {len(g.init)} values "
                f"but has size {g.size}",
                g.line,
            )
        arrays[g.name] = g.size

    functions: dict[str, FuncDecl] = {}
    for fn in program.functions:
        if fn.name in functions or fn.name in BUILTIN_ARITY:
            raise MiniCError(f"duplicate function {fn.name!r}", fn.line)
        if fn.name in arrays:
            raise MiniCError(
                f"function {fn.name!r} collides with a global array", fn.line
            )
        functions[fn.name] = fn

    if "main" not in functions:
        raise MiniCError("program has no 'main' function")

    for fn in program.functions:
        _check_function(fn, arrays, functions)


def _check_function(
    fn: FuncDecl, arrays: dict[str, int], functions: dict[str, FuncDecl]
) -> None:
    declared: set[str] = set()
    for p in fn.params:
        if p in declared:
            raise MiniCError(f"duplicate parameter {p!r} in {fn.name}", fn.line)
        if p in arrays:
            raise MiniCError(
                f"parameter {p!r} of {fn.name} collides with a global array",
                fn.line,
            )
        declared.add(p)

    ctx = _Context(fn.name, arrays, functions, declared)
    _check_block(fn.body, ctx, loop_depth=0)


class _Context:
    __slots__ = ("fn_name", "arrays", "functions", "declared")

    def __init__(self, fn_name, arrays, functions, declared) -> None:
        self.fn_name = fn_name
        self.arrays = arrays
        self.functions = functions
        self.declared = declared


def _check_block(body: tuple[Stmt, ...], ctx: _Context, loop_depth: int) -> bool:
    """Check statements; returns True if the block always transfers control
    away (so anything after it would be unreachable)."""
    terminated = False
    for stmt in body:
        if terminated:
            raise MiniCError(
                f"unreachable statement in {ctx.fn_name}", _line_of(stmt)
            )
        terminated = _check_stmt(stmt, ctx, loop_depth)
    return terminated


def _line_of(stmt: Stmt) -> int:
    return getattr(stmt, "line", 0)


def _check_stmt(stmt: Stmt, ctx: _Context, loop_depth: int) -> bool:
    if isinstance(stmt, VarDecl):
        if stmt.name in ctx.declared:
            raise MiniCError(f"redeclaration of {stmt.name!r}", stmt.line)
        if stmt.name in ctx.arrays:
            raise MiniCError(
                f"variable {stmt.name!r} collides with a global array", stmt.line
            )
        if stmt.init is not None:
            _check_expr(stmt.init, ctx)
        ctx.declared.add(stmt.name)
        return False
    if isinstance(stmt, AssignStmt):
        if stmt.name not in ctx.declared:
            raise MiniCError(f"assignment to undeclared {stmt.name!r}", stmt.line)
        _check_expr(stmt.value, ctx)
        return False
    if isinstance(stmt, StoreStmt):
        if stmt.array not in ctx.arrays:
            raise MiniCError(f"store to unknown array {stmt.array!r}", stmt.line)
        _check_expr(stmt.index, ctx)
        _check_expr(stmt.value, ctx)
        return False
    if isinstance(stmt, IfStmt):
        _check_expr(stmt.cond, ctx)
        t1 = _check_block(stmt.then_body, ctx, loop_depth)
        t2 = _check_block(stmt.else_body, ctx, loop_depth) if stmt.else_body else False
        return t1 and t2 and bool(stmt.else_body)
    if isinstance(stmt, WhileStmt):
        _check_expr(stmt.cond, ctx)
        _check_block(stmt.body, ctx, loop_depth + 1)
        return False
    if isinstance(stmt, ForStmt):
        if stmt.init is not None:
            _check_stmt(stmt.init, ctx, loop_depth)
        if stmt.cond is not None:
            _check_expr(stmt.cond, ctx)
        _check_block(stmt.body, ctx, loop_depth + 1)
        if stmt.step is not None:
            if isinstance(stmt.step, (BreakStmt, ContinueStmt, ReturnStmt)):
                raise MiniCError("bad for-step", stmt.line)
            _check_stmt(stmt.step, ctx, loop_depth)
        return False
    if isinstance(stmt, BreakStmt):
        if loop_depth == 0:
            raise MiniCError("break outside a loop", stmt.line)
        return True
    if isinstance(stmt, ContinueStmt):
        if loop_depth == 0:
            raise MiniCError("continue outside a loop", stmt.line)
        return True
    if isinstance(stmt, ReturnStmt):
        if stmt.value is not None:
            _check_expr(stmt.value, ctx)
        return True
    if isinstance(stmt, PrintStmt):
        for arg in stmt.args:
            _check_expr(arg, ctx)
        return False
    if isinstance(stmt, ExprStmt):
        if not isinstance(stmt.expr, CallExpr):
            raise MiniCError("expression statement must be a call", stmt.line)
        _check_expr(stmt.expr, ctx)
        return False
    raise MiniCError(f"unknown statement {stmt!r}")


def _check_expr(root: Expr, ctx: _Context) -> None:
    stack = [(root, 1)]
    while stack:
        expr, depth = stack.pop()
        if depth > MAX_EXPR_DEPTH:
            raise MiniCError(
                f"expression deeper than {MAX_EXPR_DEPTH} levels", expr.line
            )
        if isinstance(expr, NumberExpr):
            continue
        if isinstance(expr, VarExpr):
            if expr.name not in ctx.declared:
                raise MiniCError(
                    f"use of undeclared variable {expr.name!r}", expr.line
                )
            continue
        if isinstance(expr, IndexExpr):
            if expr.array not in ctx.arrays:
                raise MiniCError(f"unknown array {expr.array!r}", expr.line)
            children = (expr.index,)
        elif isinstance(expr, UnaryExpr):
            children = (expr.operand,)
        elif isinstance(expr, BinaryExpr):
            children = (expr.lhs, expr.rhs)
        elif isinstance(expr, CallExpr):
            if expr.func in ctx.functions:
                arity = len(ctx.functions[expr.func].params)
            elif expr.func in BUILTIN_ARITY:
                arity = BUILTIN_ARITY[expr.func]
            else:
                raise MiniCError(
                    f"call to unknown function {expr.func!r}", expr.line
                )
            if len(expr.args) != arity:
                raise MiniCError(
                    f"{expr.func} expects {arity} arguments, "
                    f"got {len(expr.args)}",
                    expr.line,
                )
            children = expr.args
        else:
            raise MiniCError(f"unknown expression {expr!r}")
        # Reversed, so children are checked left to right, as written.
        stack.extend((child, depth + 1) for child in reversed(children))
