"""Qualifying arbitrary data-flow problems (the paper's generality claim)."""

from repro.core import qualify_problem
from repro.dataflow.problems import (
    AvailableExpressions,
    CopyPropagation,
    LiveVariables,
    ReachingDefinitions,
)
from repro.stats import render_venn, venn_summary


def _reaching_defs(view):
    return ReachingDefinitions(view.params, view.cfg.entry)


class TestQualifiedReachingDefs:
    def test_hot_duplicates_resolve_definitions(
        self, example_module, example_profile
    ):
        """On the running example, the use of `a` at H sees two reaching
        definitions on the plain CFG but exactly one at hot duplicates."""
        fn = example_module.function("work")
        qs = qualify_problem(_reaching_defs, fn, example_profile, ca=1.0)
        assert qs.traced

        def a_defs(defs):
            return {d for d in defs if d[2] == "a"}

        assert len(a_defs(qs.baseline_in("H"))) == 2
        resolved = [
            dup
            for dup in qs.duplicates("H")
            if len(a_defs(qs.qualified_in(dup))) == 1
        ]
        assert len(resolved) >= 4

    def test_untraced_at_zero_coverage(self, example_module, example_profile):
        fn = example_module.function("work")
        qs = qualify_problem(_reaching_defs, fn, example_profile, ca=0.0)
        assert not qs.traced
        assert qs.duplicates("H") == ("H",)
        assert qs.qualified_in("H") == qs.baseline_in("H")


class TestQualifiedCopyProp:
    def test_copy_survives_on_some_duplicate(
        self, example_module, example_profile
    ):
        """`n = i` creates the copy (n, i) at I regardless of path, so both
        plain and qualified agree — sanity for must problems on HPGs."""
        fn = example_module.function("work")
        qs = qualify_problem(
            lambda view: CopyPropagation(), fn, example_profile, ca=1.0
        )
        for dup in qs.duplicates("I"):
            # At I's entry, no copy holds yet (it's created inside I).
            value = qs.qualified_in(dup)
            assert ("n", "i") not in value


class TestQualifiedBackward:
    def test_liveness_runs_on_hpg(self, example_module, example_profile):
        """Backward problems solve on the traced graph too (the framework is
        direction-agnostic)."""
        fn = example_module.function("work")
        qs = qualify_problem(
            lambda view: LiveVariables(), fn, example_profile, ca=1.0
        )
        for dup in qs.duplicates("H"):
            # a and b are read by H's first instruction on every duplicate.
            assert {"a", "b"} <= set(qs.qualified.value_out[dup])


class TestQualifiedAvailableExprs:
    def test_duplication_makes_expressions_available(
        self, example_module, example_profile
    ):
        """t1 = base + i at B and t2 = base + i at E: available-expressions
        already catches this on the plain CFG (no kill between), so plain
        and qualified agree at E — a no-regression check for must problems."""
        from repro.dataflow.problems.available_exprs import expression_of
        from repro.ir import BinOp, Var

        fn = example_module.function("work")
        qs = qualify_problem(
            lambda view: AvailableExpressions(), fn, example_profile, ca=1.0
        )
        expr = expression_of(BinOp("t", "add", Var("base"), Var("i")))
        assert expr in qs.baseline_in("E")
        for dup in qs.duplicates("E"):
            assert expr in qs.qualified_in(dup)


class TestVennSummary:
    def test_regions_sum_to_total(self, example_qualified, example_run):
        from repro.stats import classify_constants

        c = classify_constants(
            example_qualified,
            example_run.profiles["work"],
            example_run.tainted.get("work", 0),
        )
        v = venn_summary(c)
        assert v.total == c.total_dynamic
        assert v.other >= 0

    def test_render_contains_all_regions(self, example_qualified, example_run):
        from repro.stats import classify_constants

        c = classify_constants(example_qualified, example_run.profiles["work"])
        text = render_venn(venn_summary(c))
        for word in ("Local", "Iterative", "Variable", "Unknowable", "Other"):
            assert word in text
