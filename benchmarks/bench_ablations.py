"""Ablations of the design choices DESIGN.md calls out.

Not a paper table — these quantify what each ingredient of the system buys:

* **reduction** — optimize straight from the hot-path graph instead of the
  reduced graph: same constants, bigger code (the paper's §5 motivation);
* **DCE / straightening / layout** — the cleanup passes that turn discovered
  constants into actual cycles;
* **trivial vs. general failure function** — Theorem 2's engineering payoff:
  the qualification automaton stores only trie edges, while the general
  Aho–Corasick automaton also builds failure links.
"""

import time

from repro.automaton import DOT, AhoCorasick, QualificationAutomaton
from repro.evaluation import format_table
from repro.interp import Interpreter
from repro.opt import (
    eliminate_dead_code,
    layout_function,
    materialize,
    straighten,
)

from conftest import once

ABLATION_WORKLOADS = ("m88ksim95", "vortex95", "li95")


def _build(run, *, reduce=True, dce=True, straight=True, lay=True):
    """The optimized module with selected passes disabled."""
    out = run._fresh_module()
    for name, fn in run.module.functions.items():
        qa = run.qualified(0.97)[name]
        if qa.traced:
            graph = qa.reduced if reduce else qa.hpg
            analysis = qa.reduced_analysis if reduce else qa.hpg_analysis
            optimized = materialize(graph, analysis, fold=True)
        else:
            from repro.opt import fold_function

            optimized = fold_function(fn, qa.baseline)
        if dce:
            eliminate_dead_code(optimized)
        if straight:
            straighten(optimized)
        if lay:
            freqs = {
                (u, v): c
                for (u, v), c in run.train_profile(name)
                .edge_frequencies()
                .items()
                if u in optimized.blocks and v in optimized.blocks
            }
            layout_function(optimized, freqs)
        out.add_function(optimized)
    return out


def _cost(run, module):
    result = Interpreter(module, profile_mode=None, track_sites=False).run(
        run.workload.ref_args, run.workload.ref_inputs
    )
    assert result.output == run.ref.output, "ablation changed behaviour"
    return result.cost, sum(len(f.blocks) for f in module.functions.values())


def compute_pass_ablation(runs):
    rows = []
    for name in ABLATION_WORKLOADS:
        run = runs[name]
        full_cost, full_blocks = _cost(run, _build(run))
        for label, kwargs in (
            ("no reduction", {"reduce": False}),
            ("no DCE", {"dce": False}),
            ("no straighten", {"straight": False}),
            ("no layout", {"lay": False}),
        ):
            cost, blocks = _cost(run, _build(run, **kwargs))
            rows.append(
                [
                    name,
                    label,
                    blocks,
                    full_blocks,
                    f"{cost / full_cost:+.1%}".replace("+100.0%", "+0.0%"),
                    f"{(cost - full_cost) / full_cost:+.1%}",
                ]
            )
    return rows


def test_pass_ablations(benchmark, runs, record):
    rows = once(benchmark, compute_pass_ablation, runs)
    record(
        "ablation_passes",
        format_table(
            [
                "Program",
                "ablation",
                "blocks",
                "blocks (full)",
                "cost delta",
            ],
            [r[:4] + [r[5]] for r in rows],
            title=(
                "Ablations at CA = 0.97: each row disables one pass of the "
                "full pipeline (cost delta > 0 means the pass was saving "
                "cycles)"
            ),
        ),
    )
    by_key = {(r[0], r[1]): r for r in rows}
    for name in ABLATION_WORKLOADS:
        # DCE is the pass that actually converts discovered constants into
        # cycles: disabling it always costs.
        assert float(by_key[(name, "no DCE")][5].rstrip("%")) > 0.0
        # Straightening is what keeps the duplicated code compact: without
        # it the block count is strictly larger.
        assert by_key[(name, "no straighten")][2] > by_key[(name, "no straighten")][3]
    # Note: "no reduction" can come out slightly *cheaper* — folding on the
    # unreduced hot-path graph retains maximal per-duplicate precision, and
    # our cost model charges almost nothing for code size.  Reduction's
    # payoff is graph size (Figure 11), not cycles; the table records both.


def compute_failure_function_ablation(runs):
    rows = []
    for name in ABLATION_WORKLOADS:
        run = runs[name]
        for fn_name in run.module.functions:
            qa = run.qualified(0.97)[fn_name]
            if not qa.traced:
                continue
            hot = qa.hot_paths
            recording = qa.recording

            t0 = time.perf_counter()
            trivial = QualificationAutomaton(recording, hot)
            trivial_time = time.perf_counter() - t0

            keywords = [[DOT]] + [
                [DOT, *QualificationAutomaton.trim(p)] for p in hot
            ]
            alphabet = [DOT] + list(qa.cfg.edges)
            t0 = time.perf_counter()
            general = AhoCorasick(keywords, alphabet)
            general_time = time.perf_counter() - t0

            stored_failure_links = sum(
                1 for s in range(general.num_states) if s != general.root
            )
            rows.append(
                [
                    f"{name}:{fn_name}",
                    trivial.num_states,
                    general.num_states,
                    stored_failure_links,
                    f"{trivial_time * 1e6:.0f}us",
                    f"{general_time * 1e6:.0f}us",
                ]
            )
    return rows


def test_failure_function_ablation(benchmark, runs, record):
    rows = once(benchmark, compute_failure_function_ablation, runs)
    record(
        "ablation_failure_function",
        format_table(
            [
                "routine",
                "states (trivial)",
                "states (general)",
                "failure links avoided",
                "build (trivial)",
                "build (general)",
            ],
            rows,
            title=(
                "Theorem 2 ablation: the trivial failure function stores no "
                "failure links; the general Aho-Corasick automaton has the "
                "same states but builds one link per non-root state"
            ),
        ),
    )
    for row in rows:
        assert row[1] == row[2], "Theorem 2: identical state sets"
        assert row[3] == row[1] - 1


def compute_tracing_vs_tupling(runs):
    """Wall-clock and problem-size comparison of the two qualification
    methods of §4.3 on every traced routine."""
    rows = []
    for name in ABLATION_WORKLOADS:
        run = runs[name]
        for fn_name in run.module.functions:
            qa = run.qualified(0.97)[fn_name]
            if not qa.traced:
                continue
            from repro.core.tupling import tupled_analyze
            from repro.core.tracing import trace
            from repro.dataflow.wegman_zadek import analyze

            t0 = time.perf_counter()
            hpg = trace(qa.function, qa.cfg, qa.recording, qa.automaton)
            traced_solution = analyze(hpg.view())
            tracing_time = time.perf_counter() - t0

            t0 = time.perf_counter()
            tupled = tupled_analyze(
                qa.function, qa.cfg, qa.recording, qa.automaton
            )
            tupling_time = time.perf_counter() - t0

            pairs = sum(len(envs) for envs in tupled.in_values.values())
            rows.append(
                [
                    f"{name}:{fn_name}",
                    hpg.cfg.num_vertices,
                    pairs,
                    f"{tracing_time * 1e3:.2f}ms",
                    f"{tupling_time * 1e3:.2f}ms",
                ]
            )
    return rows


def test_tracing_vs_tupling(benchmark, runs, record):
    rows = once(benchmark, compute_tracing_vs_tupling, runs)
    record(
        "ablation_tupling",
        format_table(
            [
                "routine",
                "traced vertices",
                "tupled (v,q) pairs",
                "trace+solve",
                "tupling",
            ],
            rows,
            title=(
                "Tracing vs context tupling (Holley-Rosen's two methods, "
                "paper section 4.3): same solutions, comparable cost - the "
                "paper: 'Holley and Rosen did not find context tupling to be "
                "any more efficient than data-flow tracing'"
            ),
        ),
    )
    for row in rows:
        # Tupling visits only executable pairs, tracing all reachable ones.
        assert row[2] <= row[1]


def compute_train_input_sensitivity(runs):
    """How much benefit survives training on a different input?

    The paper's methodology trains on `train` and evaluates on `ref`.  This
    ablation compares that against the oracle that trains on `ref` itself:
    the closer the ratio to 1, the more stable the hot paths are across
    inputs (the paper's premise that hot paths generalize).
    """
    from repro.core import run_qualified
    from repro.stats import classify_constants

    rows = []
    for name in ABLATION_WORKLOADS:
        run = runs[name]
        normal = run.aggregate_classification(0.97).qualified_nonlocal
        oracle_total = 0
        for fn_name, fn in run.module.functions.items():
            qa = run_qualified(fn, run.ref_profile(fn_name), ca=0.97)
            c = classify_constants(
                qa, run.ref_profile(fn_name), run.ref.tainted.get(fn_name, 0)
            )
            oracle_total += c.qualified_nonlocal
        retention = normal / oracle_total if oracle_total else 1.0
        rows.append([name, normal, oracle_total, f"{retention:.1%}"])
    return rows


def test_train_input_sensitivity(benchmark, runs, record):
    rows = once(benchmark, compute_train_input_sensitivity, runs)
    record(
        "ablation_train_input",
        format_table(
            [
                "Program",
                "qualified constants (train-profile)",
                "qualified constants (ref-profile oracle)",
                "retention",
            ],
            rows,
            title=(
                "Training-input sensitivity at CA = 0.97: benefit on the ref "
                "input when the analysis was driven by the train profile vs "
                "by the ref profile itself"
            ),
        ),
    )
    for row in rows:
        # Hot paths generalize across inputs: most of the oracle benefit
        # survives training on the other data set.
        retention = float(row[3].rstrip("%")) / 100
        assert retention >= 0.7, row
