"""MiniC front-end tests: lexer, parser, semantic checks, and lowering
(lowering correctness is checked by executing the compiled program)."""

import pytest

from repro.frontend import MiniCError, compile_program, parse_program, tokenize
from repro.frontend.parser import MAX_NESTING
from repro.frontend.sema import MAX_EXPR_DEPTH
from repro.interp import run_module
from repro.ir import validate_module


def run_src(src, args=(), inputs=None):
    module = compile_program(src)
    validate_module(module)
    return run_module(module, args=args, inputs=inputs, profile_mode=None)


class TestLexer:
    def test_keywords_vs_identifiers(self):
        kinds = [t.kind for t in tokenize("if iffy var variable")]
        assert kinds == ["if", "ident", "var", "ident", "eof"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    def test_comments_skipped(self):
        kinds = [t.kind for t in tokenize("a // comment\nb /* multi\nline */ c")]
        assert kinds == ["ident", "ident", "ident", "eof"]

    def test_multichar_operators_maximal_munch(self):
        kinds = [t.kind for t in tokenize("a <= b << c == d")]
        assert "<=" in kinds and "<<" in kinds and "==" in kinds

    def test_bad_character(self):
        with pytest.raises(MiniCError):
            tokenize("a ? b")


class TestParser:
    def test_precedence_mul_over_add(self):
        result = run_src("func main() { return 2 + 3 * 4; }")
        assert result.return_value == 14

    def test_parentheses(self):
        assert run_src("func main() { return (2 + 3) * 4; }").return_value == 20

    def test_unary_binds_tighter(self):
        assert run_src("func main() { return -2 * 3; }").return_value == -6

    def test_comparison_chain_via_logic(self):
        src = "func main(x) { if (x >= 2 && x <= 5) { return 1; } return 0; }"
        assert run_src(src, args=[3]).return_value == 1
        assert run_src(src, args=[9]).return_value == 0

    def test_else_if_chain(self):
        src = """
        func main(x) {
          if (x == 0) { return 10; }
          else if (x == 1) { return 20; }
          else { return 30; }
        }
        """
        assert run_src(src, args=[0]).return_value == 10
        assert run_src(src, args=[1]).return_value == 20
        assert run_src(src, args=[7]).return_value == 30

    @pytest.mark.parametrize(
        "bad",
        [
            "func main() { return 1 + ; }",
            "func main() { if (1) return 2; }",  # missing braces
            "func main( { }",
            "global a[];",
            "func main() { x; }",  # bare identifier
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(MiniCError):
            parse_program(bad)


class TestSema:
    @pytest.mark.parametrize(
        "bad,msg",
        [
            ("func f() { return 0; }", "main"),
            ("func main() { x = 1; }", "undeclared"),
            ("func main() { return y; }", "undeclared"),
            ("func main() { var a = 1; var a = 2; }", "redeclaration"),
            ("func main(a, a) { }", "duplicate parameter"),
            ("func main() { break; }", "break outside"),
            ("func main() { continue; }", "continue outside"),
            ("func main() { return g(); }", "unknown function"),
            ("func main() { return abs(1, 2); }", "expects 1"),
            ("func main() { return q[0]; }", "unknown array"),
            ("func main() { q[0] = 1; }", "unknown array"),
            ("global a[4]; global a[4]; func main() { }", "duplicate global"),
            ("global a[0]; func main() { }", "non-positive"),
            ("global a[2] = {1,2,3}; func main() { }", "initialized with 3"),
            ("func main() { return 1; var x; }", "unreachable"),
            ("global a[4]; func main(a) { }", "collides"),
            ("func abs(x) { } func main() { }", "duplicate function"),
        ],
    )
    def test_semantic_errors(self, bad, msg):
        with pytest.raises(MiniCError, match=msg):
            compile_program(bad)

    def test_var_visible_after_declaration_only(self):
        with pytest.raises(MiniCError, match="undeclared"):
            compile_program("func main() { x = 1; var x; }")


class TestLoweringSemantics:
    def test_while_loop(self):
        src = """
        func main(n) {
          var i = 0;
          var s = 0;
          while (i < n) { s = s + i; i = i + 1; }
          return s;
        }
        """
        assert run_src(src, args=[5]).return_value == 10

    def test_for_loop_with_step(self):
        src = """
        func main(n) {
          var s = 0;
          for (var i = 0; i < n; i = i + 2) { s = s + 1; }
          return s;
        }
        """
        assert run_src(src, args=[10]).return_value == 5

    def test_break_and_continue(self):
        src = """
        func main(n) {
          var s = 0;
          for (var i = 0; i < n; i = i + 1) {
            if (i == 3) { continue; }
            if (i == 6) { break; }
            s = s + i;
          }
          return s;
        }
        """
        # 0+1+2+4+5 = 12
        assert run_src(src, args=[100]).return_value == 12

    def test_continue_in_while_reaches_condition(self):
        src = """
        func main(n) {
          var i = 0;
          var s = 0;
          while (i < n) {
            i = i + 1;
            if (i % 2 == 0) { continue; }
            s = s + i;
          }
          return s;
        }
        """
        assert run_src(src, args=[6]).return_value == 1 + 3 + 5

    def test_short_circuit_and_skips_rhs(self):
        src = """
        global touched[1];
        func side() { touched[0] = 1; return 1; }
        func main(x) {
          var r = x > 0 && side() == 1;
          return r * 10 + touched[0];
        }
        """
        assert run_src(src, args=[0]).return_value == 0  # side() not called
        assert run_src(src, args=[1]).return_value == 11

    def test_short_circuit_or_skips_rhs(self):
        src = """
        global touched[1];
        func side() { touched[0] = 1; return 0; }
        func main(x) {
          var r = x > 0 || side() == 1;
          return r * 10 + touched[0];
        }
        """
        assert run_src(src, args=[5]).return_value == 10  # side() not called
        # lhs false: side() runs (touched=1) and the || yields 0.
        assert run_src(src, args=[0]).return_value == 1

    def test_logic_result_normalized_to_0_1(self):
        src = "func main(x) { var r = x && 7; return r; }"
        assert run_src(src, args=[3]).return_value == 1

    def test_missing_return_yields_zero(self):
        assert run_src("func main() { var x = 5; }").return_value == 0

    def test_return_without_value_yields_zero(self):
        assert run_src("func main() { return; }").return_value == 0

    def test_recursion(self):
        src = """
        func fib(n) {
          if (n < 2) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        func main(n) { return fib(n); }
        """
        assert run_src(src, args=[10]).return_value == 55

    def test_builtins(self):
        src = """
        func main() {
          return abs(-4) + min2(2, 9) + max2(2, 9) + clamp(15, 0, 10);
        }
        """
        assert run_src(src).return_value == 4 + 2 + 9 + 10

    def test_globals_and_stores(self):
        src = """
        global a[4] = {10, 20, 30, 40};
        func main() {
          a[1] = a[0] + a[2];
          return a[1];
        }
        """
        assert run_src(src).return_value == 40

    def test_print_output_order(self):
        src = """
        func main() {
          print(1, 2);
          print(3);
          return 0;
        }
        """
        assert run_src(src).output == [(1, 2), (3,)]

    def test_nested_loops(self):
        src = """
        func main(n) {
          var s = 0;
          for (var i = 0; i < n; i = i + 1) {
            for (var j = 0; j < i; j = j + 1) {
              s = s + 1;
            }
          }
          return s;
        }
        """
        assert run_src(src, args=[5]).return_value == 10

    def test_if_with_both_branches_returning(self):
        src = """
        func main(x) {
          if (x > 0) { return 1; } else { return 2; }
        }
        """
        assert run_src(src, args=[1]).return_value == 1
        assert run_src(src, args=[-1]).return_value == 2

    def test_compiled_ir_validates(self):
        src = """
        global g[8];
        func helper(a) { return a * 2; }
        func main(n) {
          var t = 0;
          while (t < n && g[t] >= 0) { g[t] = helper(t); t = t + 1; }
          return t;
        }
        """
        validate_module(compile_program(src))


# -- the nesting bound --------------------------------------------------------


def nested(kind, levels):
    """A program whose deepest token sits ``levels`` nesting levels down:
    the function body is one level and its return expression another, each
    parenthesis or unary minus opens one more, and so does each ``if``
    body (the innermost condition sits as deep as the body it guards)."""
    if kind == "paren":
        k = levels - 2
        body = "return " + "(" * k + "n" + ")" * k + ";"
    elif kind == "neg":
        body = "return " + "-" * (levels - 2) + "n;"
    else:
        k = levels - 1
        body = "if (n) { " * k + "} " * k + "return n;"
    return f"func main(n) {{\n  var x = 0;\n  {body}\n}}\n"


class TestNestingBound:
    @pytest.mark.parametrize("kind", ["paren", "neg", "if"])
    def test_limit_compiles_and_one_more_level_fails(self, kind):
        module = compile_program(nested(kind, MAX_NESTING))
        validate_module(module)
        with pytest.raises(MiniCError, match="nesting deeper than") as exc:
            compile_program(nested(kind, MAX_NESTING + 1))
        assert exc.value.line == 3  # the line holding the deep construct

    @pytest.mark.parametrize(
        "kind, levels", [("paren", 3000), ("if", 600), ("neg", 600)]
    )
    def test_far_too_deep_is_a_minic_error(self, kind, levels):
        with pytest.raises(MiniCError, match="nesting deeper than"):
            compile_program(nested(kind, levels))

    def test_else_if_arms_nest(self):
        chain = " else ".join(f"if (n == {i}) {{ x = {i}; }}" for i in range(600))
        with pytest.raises(MiniCError, match="nesting deeper than"):
            compile_program(f"func main(n) {{ var x = 0; {chain} return x; }}")

    def test_every_target_and_preset_compiles(self):
        from repro.workloads.generate import GEN_PRESETS
        from repro.workloads.matrix import TARGET_NAMES, resolve_target

        assert set(GEN_PRESETS) <= set(TARGET_NAMES)
        for name in TARGET_NAMES:
            validate_module(compile_program(resolve_target(name).source))

    def test_cli_check_prints_one_line(self, tmp_path):
        from repro.cli import main

        deep = tmp_path / "deep.mc"
        deep.write_text(nested("paren", 3000))
        with pytest.raises(SystemExit) as exc:
            main(["check", str(deep)])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message, message
        assert message.startswith(f"repro check: {deep}: line 3: nesting")

    def test_daemon_job_error_is_a_minic_error(self):
        from repro.service import AnalysisRequest, AnalysisService

        service = AnalysisService(jobs=1)
        try:
            job, _ = service.submit(
                AnalysisRequest(source=nested("if", 600), name="deep.mc")
            )
            service.wait(job, timeout=60)
        finally:
            service.shutdown()
        assert job.error.startswith("MiniCError: "), job.error


# -- the expression-depth bound -----------------------------------------------


def chain(terms, op="+"):
    """A left-deep chain ``n op n op … op n``: ``terms`` nodes deep."""
    return f" {op} ".join(["n"] * terms)


def returning(expr, blocks=0):
    """A ``main`` returning ``expr`` (on line 3) from inside ``blocks``
    nested ``if`` bodies."""
    tail = "\n  return 0;" if blocks else ""
    return (
        "func main(n) {\n  var x = 0;\n  "
        + "if (n) { " * blocks + f"return {expr};" + " }" * blocks
        + tail + "\n}\n"
    )


def parenthesised_chains(levels, terms):
    """``levels`` nested parentheses, each holding a ``terms``-term chain:
    few nesting levels for the parser, ``levels * (terms - 1)`` deep."""
    expr = "n"
    for _ in range(levels):
        expr = "(" + expr + " + n" * (terms - 1) + ")"
    return expr


class TestExpressionDepthBound:
    @pytest.mark.parametrize("terms", [500, 1000, 3000])
    def test_long_chains_are_a_minic_error(self, terms):
        with pytest.raises(MiniCError, match="expression deeper than") as exc:
            compile_program(returning(chain(terms)))
        assert exc.value.line == 3

    def test_parenthesised_chains_are_a_minic_error(self):
        with pytest.raises(MiniCError, match="expression deeper than"):
            compile_program(returning(parenthesised_chains(60, 10)))

    def test_limit_compiles_at_the_deepest_block_nesting(self):
        """The heaviest lowering (a short-circuit chain, three frames per
        level) at the depth limit, inside the deepest block nesting the
        parser accepts around a statement."""
        blocks = MAX_NESTING - 2
        module = compile_program(
            returning(chain(MAX_EXPR_DEPTH, "&&"), blocks)
        )
        validate_module(module)
        assert run_src(returning(chain(MAX_EXPR_DEPTH, "&&"), blocks),
                       args=[1]).return_value == 1
        with pytest.raises(MiniCError, match="expression deeper than"):
            compile_program(
                returning(chain(MAX_EXPR_DEPTH + 1, "&&"), blocks)
            )

    def test_limit_compiles_in_a_daemon_worker(self):
        from repro.service import AnalysisRequest, AnalysisService

        source = returning(chain(MAX_EXPR_DEPTH, "&&"), MAX_NESTING - 2)
        service = AnalysisService(jobs=1)
        try:
            job, _ = service.submit(
                AnalysisRequest(source=source, name="limit.mc", args=(1,))
            )
            service.wait(job, timeout=120)
        finally:
            service.shutdown()
        assert job.error is None, job.error

    def test_cli_check_prints_one_line(self, tmp_path):
        from repro.cli import main

        deep = tmp_path / "chain.mc"
        deep.write_text(returning(chain(3000)))
        with pytest.raises(SystemExit) as exc:
            main(["check", str(deep)])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message, message
        assert message.startswith(
            f"repro check: {deep}: line 3: expression deeper than"
        )

    def test_daemon_job_error_is_a_minic_error(self):
        from repro.service import AnalysisRequest, AnalysisService

        service = AnalysisService(jobs=1)
        try:
            job, _ = service.submit(
                AnalysisRequest(source=returning(chain(1000)), name="c.mc")
            )
            service.wait(job, timeout=60)
        finally:
            service.shutdown()
        assert job.error.startswith("MiniCError: "), job.error
