"""Mechanical bench-regression triage: current results vs committed baselines.

The perf-trajectory benches (``bench_interp.py``, ``bench_dataflow.py``)
write machine-readable ratios under ``benchmarks/results/``.  Raw wall
times are machine-bound, but the *ratios* — engine speedups, memory
ratios, overhead factors — compare the same code on the same machine in
the same process, so they transfer: a real regression moves them on any
host.  This script diffs the current JSON against the copy committed at a
baseline ref (``git show <ref>:benchmarks/results/<name>.json``) and exits
non-zero when any tracked ratio regresses by more than the threshold.

Only statistically meaningful ratios are tracked: the tiled (paper-scale)
dataflow cases, the li95 interpreter speedup, and the overhead factors.
The small-graph dataflow cases are reported in the bench table for honesty
but swing too much run-to-run to gate on.

Usage::

    python benchmarks/bench_diff.py [--results-dir DIR] [--baseline-ref REF]
                                    [--threshold FRACTION]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Per-file extractors: JSON payload -> {metric name: (value, direction)}
#: where direction is "higher" (bigger is better) or "lower".


def _interp_metrics(data):
    out = {}
    for case, rows in data.items():
        for row in rows:
            if row.get("engine") == "compiled" and "speedup" in row:
                out[f"{case}.speedup"] = (row["speedup"], "higher")
    return out


def _dataflow_metrics(data):
    out = {}
    for case, d in data.items():
        if "_x" not in case:  # untiled cases are too small to gate on
            continue
        out[f"{case}.speedup"] = (d["speedup"], "higher")
        out[f"{case}.mem_ratio"] = (d["mem_ratio"], "lower")
    return out


def _suite_metrics(data):
    """Organic suite targets (bench_suite.py): gate the gen-1k cases; the
    sieve case is below the kernel crossover and reported only."""
    out = {}
    for case, d in data.items():
        if not case.startswith("gen_1k"):
            continue
        out[f"{case}.speedup"] = (d["speedup"], "higher")
        out[f"{case}.mem_ratio"] = (d["mem_ratio"], "lower")
    return out


def _wz_metrics(data):
    """WZ engine cases (bench_wz.py): gate the organic gen-1k and the tiled
    paper-scale li95 cases; sieve is below the crossover and reported only."""
    out = {}
    for case, d in data.items():
        if not (case.startswith("gen_1k") or "_x" in case):
            continue
        out[f"{case}.speedup"] = (d["speedup"], "higher")
        out[f"{case}.mem_ratio"] = (d["mem_ratio"], "lower")
    return out


def _obs_metrics(data):
    return {"disabled_over_enabled": (data["disabled_over_enabled"], "higher")}


def _check_metrics(data):
    return {"enabled_over_disabled": (data["enabled_over_disabled"], "lower")}


def _lint_metrics(data):
    """Analyzer overhead (bench_lint.py): checked+lint over checked-only
    wall-clock on gen-1k; raw seconds are reported in the table only."""
    return {"overhead": (data["overhead"], "lower")}


def _incremental_metrics(data):
    """Incremental re-analysis (bench_incremental.py): cold-over-warm
    wall-clock ratio for a one-function edit on gen-1k; raw seconds are
    reported in the table only."""
    return {"warm_speedup": (data["warm_speedup"], "higher")}


def _serve_metrics(data):
    """Service daemon (bench_serve.py): the warm-cache amortization factor,
    the concurrent-over-serial throughput ratio and the checked-over-
    unchecked warm cost are host-transferable; raw millisecond latencies
    are reported in the table only."""
    out = {
        "warm_speedup": (data["warm_speedup"], "higher"),
        "concurrency_ratio": (data["concurrency_ratio"], "higher"),
    }
    if "checked_over_unchecked" in data:
        out["checked_over_unchecked"] = (data["checked_over_unchecked"], "lower")
    return out


TRACKED = {
    "BENCH_interp": _interp_metrics,
    "BENCH_dataflow": _dataflow_metrics,
    "BENCH_suite": _suite_metrics,
    "BENCH_wz": _wz_metrics,
    "BENCH_obs_overhead": _obs_metrics,
    "BENCH_check_overhead": _check_metrics,
    "BENCH_serve": _serve_metrics,
    "BENCH_lint": _lint_metrics,
    "BENCH_incremental": _incremental_metrics,
}


def _baseline_json(ref: str, name: str):
    """The committed results file at ``ref``, or None if absent there."""
    rel = f"benchmarks/results/{name}.json"
    proc = subprocess.run(
        ["git", "show", f"{ref}:{rel}"],
        capture_output=True,
        text=True,
        cwd=pathlib.Path(__file__).parent.parent,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def diff_results(results_dir: pathlib.Path, ref: str, threshold: float):
    """(report rows, regression count) for every tracked results file."""
    rows = []
    regressions = 0
    for name, extract in TRACKED.items():
        current_path = results_dir / f"{name}.json"
        if not current_path.exists():
            rows.append((name, "-", "", "", "", "missing (bench not run)"))
            continue
        baseline_data = _baseline_json(ref, name)
        current = extract(json.loads(current_path.read_text()))
        baseline = extract(baseline_data) if baseline_data is not None else {}
        for metric, (value, direction) in sorted(current.items()):
            if metric not in baseline:
                rows.append((name, metric, "-", f"{value:.3f}", "", "new"))
                continue
            base = baseline[metric][0]
            delta = (value - base) / base if base else 0.0
            if direction == "higher":
                regressed = value < base * (1.0 - threshold)
            else:
                regressed = value > base * (1.0 + threshold)
            status = "REGRESSION" if regressed else "ok"
            regressions += regressed
            rows.append(
                (
                    name,
                    metric,
                    f"{base:.3f}",
                    f"{value:.3f}",
                    f"{delta:+.1%}",
                    status,
                )
            )
    return rows, regressions


def render(rows) -> str:
    headers = ("file", "metric", "baseline", "current", "delta", "status")
    table = [headers] + [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        type=pathlib.Path,
        default=RESULTS_DIR,
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline-ref",
        default="HEAD",
        help="git ref whose committed results are the baseline",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="allowed fractional regression before failing (default 0.10)",
    )
    args = parser.parse_args(argv)
    rows, regressions = diff_results(
        args.results_dir, args.baseline_ref, args.threshold
    )
    print(
        f"bench diff vs {args.baseline_ref} "
        f"(threshold {args.threshold:.0%}):\n"
    )
    print(render(rows))
    if regressions:
        print(f"\n{regressions} regression(s) beyond {args.threshold:.0%}")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
