"""MiniC recursive-descent parser with precedence climbing."""

from __future__ import annotations

from typing import Optional

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
    GlobalDecl,
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
from .lexer import MiniCError, Token, tokenize

#: Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

#: Deepest nesting the parser accepts.  Each block, expression (a
#: parenthesised one, a call argument, an index, a condition), unary
#: operator and ``else if`` arm opens one level inside its enclosing one.
#: The parser, the semantic checks and the lowering all recurse once or
#: more per level, and Python's recursion limit stopped them somewhere past
#: 240 nested parentheses; this bound turns such programs into a
#: :class:`MiniCError` well before that.
MAX_NESTING = 100


class Parser:
    """A single-use parser over a token stream."""

    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Optional[Token]:
        if self.check(kind):
            return self.advance()
        return None

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise MiniCError(
                f"expected {kind!r}, got {tok.text!r}", tok.line
            )
        return self.advance()

    def nest(self) -> None:
        """Open one nesting level at the next token (the caller closes it
        by decrementing ``depth``; an error ends the parse anyway)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MiniCError(
                f"nesting deeper than {MAX_NESTING} levels", self.peek().line
            )

    # -- top level ------------------------------------------------------------

    def parse_program(self) -> Program:
        globals_: list[GlobalDecl] = []
        functions: list[FuncDecl] = []
        while not self.check("eof"):
            if self.check("global"):
                globals_.append(self._global_decl())
            elif self.check("func"):
                functions.append(self._func_decl())
            else:
                tok = self.peek()
                raise MiniCError(
                    f"expected 'global' or 'func', got {tok.text!r}", tok.line
                )
        return Program(tuple(globals_), tuple(functions))

    def _global_decl(self) -> GlobalDecl:
        line = self.expect("global").line
        name = self.expect("ident").text
        self.expect("[")
        size = int(self.expect("number").text)
        self.expect("]")
        init: list[int] = []
        if self.accept("="):
            self.expect("{")
            if not self.check("}"):
                init.append(self._int_literal())
                while self.accept(","):
                    init.append(self._int_literal())
            self.expect("}")
        self.expect(";")
        return GlobalDecl(name, size, tuple(init), line)

    def _int_literal(self) -> int:
        neg = self.accept("-") is not None
        value = int(self.expect("number").text)
        return -value if neg else value

    def _func_decl(self) -> FuncDecl:
        line = self.expect("func").line
        name = self.expect("ident").text
        self.expect("(")
        params: list[str] = []
        if not self.check(")"):
            params.append(self.expect("ident").text)
            while self.accept(","):
                params.append(self.expect("ident").text)
        self.expect(")")
        body = self._block()
        return FuncDecl(name, tuple(params), body, line)

    # -- statements ---------------------------------------------------------------

    def _block(self) -> tuple[Stmt, ...]:
        self.nest()
        self.expect("{")
        stmts: list[Stmt] = []
        while not self.check("}"):
            stmts.append(self._statement())
        self.expect("}")
        self.depth -= 1
        return tuple(stmts)

    def _statement(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "var":
            return self._var_decl()
        if tok.kind == "if":
            return self._if_stmt()
        if tok.kind == "while":
            return self._while_stmt()
        if tok.kind == "for":
            return self._for_stmt()
        if tok.kind == "break":
            self.advance()
            self.expect(";")
            return BreakStmt(tok.line)
        if tok.kind == "continue":
            self.advance()
            self.expect(";")
            return ContinueStmt(tok.line)
        if tok.kind == "return":
            self.advance()
            value = None if self.check(";") else self._expression()
            self.expect(";")
            return ReturnStmt(value, tok.line)
        if tok.kind == "print":
            self.advance()
            self.expect("(")
            args = [self._expression()]
            while self.accept(","):
                args.append(self._expression())
            self.expect(")")
            self.expect(";")
            return PrintStmt(tuple(args), tok.line)
        return self._simple_statement()

    def _var_decl(self) -> VarDecl:
        line = self.expect("var").line
        name = self.expect("ident").text
        init = None
        if self.accept("="):
            init = self._expression()
        self.expect(";")
        return VarDecl(name, init, line)

    def _if_stmt(self) -> IfStmt:
        line = self.expect("if").line
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        then_body = self._block()
        else_body: tuple[Stmt, ...] = ()
        if self.accept("else"):
            if self.check("if"):
                self.nest()
                else_body = (self._if_stmt(),)
                self.depth -= 1
            else:
                else_body = self._block()
        return IfStmt(cond, then_body, else_body, line)

    def _while_stmt(self) -> WhileStmt:
        line = self.expect("while").line
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        return WhileStmt(cond, self._block(), line)

    def _for_stmt(self) -> ForStmt:
        line = self.expect("for").line
        self.expect("(")
        init = None if self.check(";") else self._simple_clause()
        self.expect(";")
        cond = None if self.check(";") else self._expression()
        self.expect(";")
        step = None if self.check(")") else self._simple_clause()
        self.expect(")")
        return ForStmt(init, cond, step, self._block(), line)

    def _simple_clause(self) -> Stmt:
        """An assignment/store/call/var-decl without the trailing ';'
        (for-loop init and step clauses)."""
        if self.check("var"):
            line = self.expect("var").line
            name = self.expect("ident").text
            init = None
            if self.accept("="):
                init = self._expression()
            return VarDecl(name, init, line)
        return self._assignment_or_call()

    def _simple_statement(self) -> Stmt:
        stmt = self._assignment_or_call()
        self.expect(";")
        return stmt

    def _assignment_or_call(self) -> Stmt:
        tok = self.expect("ident")
        if self.accept("["):
            index = self._expression()
            self.expect("]")
            self.expect("=")
            value = self._expression()
            return StoreStmt(tok.text, index, value, tok.line)
        if self.accept("="):
            value = self._expression()
            return AssignStmt(tok.text, value, tok.line)
        if self.check("("):
            call = self._call_tail(tok)
            return ExprStmt(call, tok.line)
        raise MiniCError(
            f"expected assignment or call after {tok.text!r}", tok.line
        )

    # -- expressions ----------------------------------------------------------------

    def _expression(self) -> Expr:
        self.nest()
        expr = self._binary(0)
        self.depth -= 1
        return expr

    def _binary(self, min_prec: int) -> Expr:
        lhs = self._unary()
        while True:
            op = self.peek().kind
            prec = _PRECEDENCE.get(op)
            if prec is None or prec < min_prec:
                return lhs
            line = self.advance().line
            rhs = self._binary(prec + 1)
            lhs = BinaryExpr(op, lhs, rhs, line)

    def _unary(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("-", "!", "~"):
            self.advance()
            self.nest()
            operand = self._unary()
            self.depth -= 1
            return UnaryExpr(tok.kind, operand, tok.line)
        return self._primary()

    def _primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return NumberExpr(int(tok.text), tok.line)
        if tok.kind == "(":
            self.advance()
            expr = self._expression()
            self.expect(")")
            return expr
        if tok.kind == "ident":
            self.advance()
            if self.check("("):
                return self._call_tail(tok)
            if self.accept("["):
                index = self._expression()
                self.expect("]")
                return IndexExpr(tok.text, index, tok.line)
            return VarExpr(tok.text, tok.line)
        raise MiniCError(f"unexpected token {tok.text!r}", tok.line)

    def _call_tail(self, name: Token) -> CallExpr:
        self.expect("(")
        args: list[Expr] = []
        if not self.check(")"):
            args.append(self._expression())
            while self.accept(","):
                args.append(self._expression())
        self.expect(")")
        return CallExpr(name.text, tuple(args), name.line)


def parse_program(source: str) -> Program:
    """Parse a MiniC program."""
    return Parser(source).parse_program()
