"""Constant-classification tests (Figures 7, 10, 13)."""

import pytest

from repro.stats import (
    classify_constants,
    constant_distribution,
    cumulative_coverage,
)


class TestRunningExampleClassification:
    @pytest.fixture(scope="class")
    def classification(self, example_qualified, example_run):
        return classify_constants(
            example_qualified,
            example_run.profiles["work"],
            example_run.tainted.get("work", 0),
        )

    def test_totals_positive(self, classification):
        assert classification.total_dynamic > 0

    def test_locals_are_the_assignments(self, classification, example_run):
        """A, C, D, F, G each execute one local constant assignment; their
        dynamic weight equals those blocks' frequencies."""
        freq = example_run.profiles["work"].block_frequencies()
        expected = (
            freq["A"] + freq["C"] + freq["D"] + freq["F"] + freq["G"]
        )
        assert classification.local == expected

    def test_wz_finds_no_nonlocal_constants_here(self, classification):
        """'Without path qualification, only the assignments of constants
        are constant instructions' — so the non-local iterative count is 0."""
        assert classification.iterative_nonlocal == 0

    def test_qualified_nonlocal_matches_hand_count(self, classification):
        """x=a+b at four duplicates (frequencies 70/30/105/30 = 235), i++ at
        two (70+30 = 100), n=i at one (70): 405 dynamic qualified
        constants."""
        assert classification.qualified_nonlocal == 405

    def test_improvement_ratio_infinite_when_baseline_zero(self, classification):
        assert classification.improvement_ratio == float("inf")

    def test_variable_constants_detected(self, classification):
        """x = a+b has different constant values at different duplicates, so
        its qualified executions land in Variable."""
        assert classification.variable == 235  # x at weights 70+30+105+30

    def test_mixed_constants_detected(self, classification):
        """i++ (100) and n=i (70) are constant at some duplicates and
        unknown at others — the paper's "neither Identical nor Variable"
        majority."""
        assert classification.mixed == 170

    def test_unknowable_includes_loads(self, classification, example_run):
        """Every load result is tainted, so unknowable >= dynamic loads."""
        freq = example_run.profiles["work"].block_frequencies()
        loads = freq["B"] + freq["E"] + freq["H"]
        assert classification.unknowable >= loads

    def test_constant_increase_positive(self, classification):
        assert classification.constant_increase > 0

    def test_untraced_classification_collapses_to_baseline(
        self, example_module, example_run
    ):
        from repro.core import run_qualified

        qa = run_qualified(
            example_module.function("work"), example_run.profiles["work"], ca=0.0
        )
        c = classify_constants(qa, example_run.profiles["work"])
        assert c.qualified_nonlocal == c.iterative_nonlocal
        assert c.qualified_constants == c.baseline_constants
        assert c.variable == 0 and c.mixed == 0 and c.identical_extra == 0
        assert c.unknowable == 0  # no taint count supplied


class TestDistribution:
    def test_constant_distribution_sorted_desc(self):
        weights = {("a", 0): 5, ("b", 0): 50, ("c", 0): 0, ("d", 0): 10}
        assert constant_distribution(weights) == [50, 10, 5]

    def test_cumulative_coverage(self):
        dist = [50, 30, 20]
        cov = cumulative_coverage(dist)
        assert cov == [0.5, 0.8, 1.0]

    def test_cumulative_coverage_empty(self):
        assert cumulative_coverage([]) == []

    def test_example_distribution_is_concentrated(self, example_qualified):
        """Figure 7's point: few vertices carry nearly all non-local
        constants."""
        dist = constant_distribution(example_qualified.reduction.weights)
        cov = cumulative_coverage(dist)
        assert len(dist) == 5
        assert cov[1] > 0.5  # two vertices already cover most of it
