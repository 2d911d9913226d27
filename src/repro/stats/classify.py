"""Classification of dynamic instructions (Figures 10 and 13 of the paper).

Each *value-producing site* (an instruction with a destination) is classified
by what kind of analysis can prove its result constant:

* **Local** — constant by scanning the enclosing basic block alone.
* **Iterative** — constant per Wegman–Zadek on the original CFG (CA = 0).
* **Qualified** — constant per path-qualified analysis at some duplicate in
  the reduced hot-path graph.
* **Identical** — Iterative, plus sites the qualified analysis proves
  constant *with the same value at every duplicate* (these would also be
  found by a meet-over-all-paths solution).
* **Variable** — constant with *different values* at different duplicates
  (only duplication can reveal these).
* **Mixed** — constant at one or more duplicates and unknown at others
  (the paper found most qualified constants fall here).
* **Unknowable** — the dynamic executions whose result is tainted by memory,
  calls, or parameters: no intraprocedural scalar analysis "will ever find
  [them] constant".  Estimated from the interpreter's dynamic taint (the
  routine's count of tainted executions), our stand-in for the paper's
  per-block estimate.

All categories are *dynamically weighted*: a site contributes its profiled
execution frequency (on the graph where the fact holds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.qualified import QualifiedAnalysis
from ..core.translate import reduce_profile, translate_profile
from ..dataflow.local import local_constant_sites
from ..profiles.path_profile import PathProfile


@dataclass
class ConstantClassification:
    """Dynamically weighted instruction counts for one routine."""

    #: All executed instructions (including stores, prints, terminators).
    total_dynamic: int
    #: Executions of locally-constant sites.
    local: int
    #: Executions of tainted results (never knowable to these analyses).
    unknowable: int
    #: Executions of *non-local* Wegman–Zadek constants.
    iterative_nonlocal: int
    #: Executions of *non-local* qualified constants (on the reduced graph).
    qualified_nonlocal: int
    #: Executions of all constant-result sites, baseline (incl. local).
    baseline_constants: int
    #: Executions of all constant-result sites, qualified (incl. local).
    qualified_constants: int
    #: Qualified executions at Identical sites that Wegman–Zadek missed.
    identical_extra: int
    #: Qualified executions at Variable sites.
    variable: int
    #: Qualified executions at sites constant here, unknown elsewhere.
    mixed: int

    @property
    def improvement_ratio(self) -> float:
        """Qualified / iterative non-local constants (the paper's 2–112×)."""
        if self.iterative_nonlocal == 0:
            return float("inf") if self.qualified_nonlocal else 1.0
        return self.qualified_nonlocal / self.iterative_nonlocal

    @property
    def constant_increase(self) -> float:
        """Fractional increase in dynamic instructions with constant results
        over the CA = 0 baseline (Figure 9's y-axis)."""
        if self.baseline_constants == 0:
            return 0.0 if self.qualified_constants == 0 else float("inf")
        return self.qualified_constants / self.baseline_constants - 1.0


def classify_constants(
    qa: QualifiedAnalysis,
    eval_profile: PathProfile,
    tainted: int = 0,
) -> ConstantClassification:
    """Classify one routine's dynamic instructions.

    ``eval_profile`` is a profile of the *original* CFG from the evaluation
    (ref) run; it is translated onto the reduced graph internally.
    ``tainted`` is the routine's count of tainted executions in that run
    (:attr:`~repro.interp.interpreter.RunResult.tainted`), the Unknowable
    estimate; it defaults to 0.
    """
    fn = qa.function
    freq = eval_profile.block_frequencies()
    total_dynamic = eval_profile.total_instructions(qa.block_sizes)

    local_sites = {label: local_constant_sites(b) for label, b in fn.blocks.items()}
    local_dyn = sum(
        freq.get(label, 0) * len(sites) for label, sites in local_sites.items()
    )

    baseline_const = {
        label: qa.baseline.pure_constant_sites(label) for label in fn.blocks
    }
    baseline_constants = sum(
        freq.get(label, 0) * len(sites) for label, sites in baseline_const.items()
    )
    iterative_nonlocal = sum(
        freq.get(label, 0)
        * len([i for i in sites if i not in local_sites[label]])
        for label, sites in baseline_const.items()
    )

    if qa.traced:
        reduced = qa.reduced
        analysis = qa.reduced_analysis
        eval_reduced = reduce_profile(
            translate_profile(eval_profile, qa.hpg), reduced
        )
        dup_freq = eval_reduced.block_frequencies()
        duplicates: dict[str, list] = {}
        for vertex in reduced.cfg.vertices:
            if vertex[0] in fn.blocks:
                duplicates.setdefault(vertex[0], []).append(vertex)

        qualified_constants = 0
        qualified_nonlocal = 0
        identical_extra = 0
        variable = 0
        mixed = 0
        for label, dups in duplicates.items():
            block_local = local_sites[label]
            n_sites = [
                idx
                for idx, instr in enumerate(fn.blocks[label].instrs)
                if instr.dest is not None and instr.is_pure
            ]
            const_at: dict[int, dict] = {idx: {} for idx in n_sites}
            for dup in dups:
                consts = analysis.pure_constant_sites(dup)
                for idx in n_sites:
                    if idx in consts:
                        const_at[idx][dup] = consts[idx]
            for idx in n_sites:
                values = const_at[idx]
                if not values:
                    continue
                exec_weight = sum(dup_freq.get(d, 0) for d in values)
                qualified_constants += exec_weight
                if idx in block_local:
                    continue
                qualified_nonlocal += exec_weight
                distinct = set(values.values())
                everywhere = len(values) == len(dups)
                if idx in baseline_const[label]:
                    continue  # already iterative; counted within Identical
                if len(distinct) > 1:
                    variable += exec_weight
                elif everywhere:
                    identical_extra += exec_weight
                else:
                    mixed += exec_weight
    else:
        qualified_constants = baseline_constants
        qualified_nonlocal = iterative_nonlocal
        identical_extra = 0
        variable = 0
        mixed = 0

    return ConstantClassification(
        total_dynamic=total_dynamic,
        local=local_dyn,
        unknowable=tainted,
        iterative_nonlocal=iterative_nonlocal,
        qualified_nonlocal=qualified_nonlocal,
        baseline_constants=baseline_constants,
        qualified_constants=qualified_constants,
        identical_extra=identical_extra,
        variable=variable,
        mixed=mixed,
    )


def constant_distribution(weights: Mapping) -> list[int]:
    """Per-vertex dynamic non-local constant executions, descending — the
    raw series behind Figure 7's cumulative distribution.

    ``weights`` is :attr:`repro.core.reduction.ReductionResult.weights` (or
    any vertex -> executions map).
    """
    return sorted((w for w in weights.values() if w > 0), reverse=True)


def cumulative_coverage(distribution: list[int]) -> list[float]:
    """Cumulative fraction covered by the top-k vertices (Figure 7's
    y-axis), for k = 1..len(distribution)."""
    total = sum(distribution)
    if total == 0:
        return []
    out: list[float] = []
    acc = 0
    for w in distribution:
        acc += w
        out.append(acc / total)
    return out
