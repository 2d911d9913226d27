"""End-to-end and per-layer benchmark of the ``repro`` pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload organic-cold --seed 1 --seconds 20 --trace 0

Workloads: ``organic-cold``, ``profile-heavy`` and ``serve-warm`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  Two extra modes check the
benchmark itself::

    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --determinism --workload serve-warm --seed 1

This process builds the seeded plan and its reference results; every
measurement happens in fresh worker processes (``perfbench/worker.py``),
so ``peak_rss_mb`` is the high-water mark of the process running the
workload and nothing else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import plan as plans
import spans

HERE = Path(__file__).resolve().parent
#: Seed the figures in README.md were taken at.
DEFAULT_SEED = 1
#: Set-ups timed per run, each in a fresh process; ``setup_s`` is their
#: median.
SETUP_SAMPLES = 3
#: A worker that runs longer than this has hung.
WORKER_TIMEOUT_S = 120
#: Per-layer counts that must repeat exactly at one seed; service counts
#: that depend on thread interleaving (coalescing, cache hits) are exempt.
DETERMINISTIC_COUNTS = (
    "interp.instructions",
    "dataflow.wz_visits",
    "core.hpg_vertices",
    "core.reduced_vertices",
    "analyze.findings",
    "pipeline.cache_misses",
)


class BenchError(RuntimeError):
    pass


def run_worker(plan_path: Path, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), mode],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_plan(workload: str, seed: int, seconds: int, faults: bool = False) -> Path:
    plan = plans.build_plan(workload, seed, seconds)
    plan["seed"] = seed
    if faults:
        inject_faults(plan)
    plans.add_expected(plan)
    if faults:
        plan["expected"][0] = "wrong expected output"
    out = Path.cwd() / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"plan-{workload}-seed{seed}-{os.getpid()}.json"
    path.write_text(json.dumps(plan))
    return path


def inject_faults(plan: dict) -> None:
    """The negative control: a malformed program or request, appended as
    the plan's last op (the wrong expected output, for op 0, is set once
    the expected results exist)."""
    broken = "func main( {"
    if plan["workload"] == "serve-warm":
        plan["requests"].append(
            {"label": "analyze", "body": {"source": broken, "name": "malformed"}, "client": 0}
        )
    else:
        plan["ops"].append(
            {
                "name": "malformed",
                "source": broken,
                "train_args": [],
                "train_inputs": {},
                "ref_args": [],
                "ref_inputs": {},
            }
        )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values) -> float:
    if not values:
        return 0.0
    _, rank = plans.tail_rank(len(values))
    return sorted(values)[rank - 1]


def end_to_end(res: dict, setup_s: float) -> dict:
    lat = res["latencies"]
    completed = res["attempted"] - len(res["failures"])
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(res["wall_s"], "s"),
        "ops_per_s": _metric(completed / res["wall_s"], "1/s"),
        "op_p50_ms": _metric(_median(lat) * 1000, "ms"),
        "op_tail_ms": _metric(_tail(lat) * 1000, "ms"),
        "peak_rss_mb": _metric(res["rss_mb"], "MB"),
        "qualified_nonlocal": _metric(res["qualified_nonlocal"], "count"),
        "opt_speedup": _metric(_geomean(res["speedups"]), "x"),
        "ok_frac": _metric(completed / res["attempted"], "fraction"),
    }


def per_layer(res: dict, untraced_wall_s: float) -> dict:
    tr = res["trace"]
    groups, layers, counts = tr["groups"], tr["layers"], tr["counts"]
    op_s = tr["op_s"] or 1.0

    def s(group: str) -> float:
        return groups.get(group, 0.0)

    def n(name: str) -> float:
        return counts.get(name, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "frontend.self_s": (s("frontend.self"), "s"),
        "frontend.ir_instrs": (n("frontend.ir_instrs"), "count"),
        "interp.run_s": (s("interp.run"), "s"),
        "interp.instructions": (n("interp.instructions"), "count"),
        "interp.minstr_per_s": (ratio(n("interp.instructions") / 1e6, s("interp.run")), "Minstr/s"),
        "interp.lower_s": (s("interp.lower"), "s"),
        "profiles.self_s": (s("profiles.self"), "s"),
        "profiles.hot_paths": (n("profiles.hot_paths"), "count"),
        "profiles.bl_paths": (n("profiles.bl_paths"), "count"),
        "automaton.self_s": (s("automaton.self"), "s"),
        "automaton.states": (n("automaton.states"), "count"),
        "core.self_s": (layers.get("core", 0.0), "s"),
        "core.trace_s": (s("core.trace"), "s"),
        "core.hpg_vertices": (n("core.hpg_vertices"), "count"),
        "core.translate_s": (s("core.translate"), "s"),
        "core.reduce_s": (s("core.reduce"), "s"),
        "core.reduced_vertices": (n("core.reduced_vertices"), "count"),
        "core.kept_ratio": (ratio(n("core.reduced_vertices"), n("core.hpg_vertices")), "ratio"),
        "dataflow.wz_s": (s("dataflow.wz"), "s"),
        "dataflow.wz_solves": (n("dataflow.wz_solves"), "count"),
        "dataflow.wz_visits": (n("dataflow.wz_visits"), "count"),
        "dataflow.wz_revisit_ratio": (ratio(n("dataflow.wz_visits"), n("dataflow.wz_vertices")), "ratio"),
        "dataflow.bitset_s": (s("dataflow.bitset"), "s"),
        "dataflow.bitset_solves": (n("dataflow.bitset_solves"), "count"),
        "analyze.self_s": (s("analyze.self"), "s"),
        "analyze.findings": (n("analyze.findings"), "count"),
        "stats.self_s": (s("stats.self"), "s"),
        "opt.self_s": (s("opt.self"), "s"),
        "opt.out_instrs": (n("opt.out_instrs"), "count"),
        "checks.self_s": (s("checks.self"), "s"),
        "checks.passes": (n("checks.passes"), "count"),
        "checks.errors": (n("checks.errors"), "count"),
        "pipeline.memo_self_s": (s("pipeline.memo"), "s"),
        "pipeline.fingerprint_s": (s("pipeline.fingerprint"), "s"),
        "pipeline.key_s": (s("pipeline.key"), "s"),
        "pipeline.working_set": (tr["working_set"], "count"),
        "service.self_s": (s("service.self"), "s"),
        "other.self_s": (layers.get("other", 0.0), "s"),
    }
    cache = res.get("cache", {})
    for key in ("hits", "misses", "stores", "evictions", "corrupt"):
        m[f"pipeline.cache_{key}"] = (cache.get(key, 0), "count")
    m["pipeline.hit_ratio"] = (
        ratio(cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)),
        "ratio",
    )
    diff = res.get("diff", {})
    m["pipeline.diff_fns_recomputed"] = (diff.get("recomputed", 0), "count")
    m["pipeline.diff_reuse_ratio"] = (
        ratio(diff.get("functions", 0) - diff.get("recomputed", 0), diff.get("functions", 0)),
        "ratio",
    )
    records = res.get("requests", [])
    run_ms = [r["run_s"] * 1000 for r in records if r.get("run_s") is not None]
    wait_ms = [
        max(0.0, r["latency"] - r["run_s"]) * 1000
        for r in records
        if r.get("run_s") is not None
    ]
    m["service.run_ms_p50"] = (_median(run_ms), "ms")
    m["service.wait_ms_p50"] = (_median(wait_ms), "ms")
    m["service.wait_ms_tail"] = (_tail(wait_ms), "ms")
    m["service.coalesced"] = (sum(1 for r in records if r["coalesced"]), "count")
    m["service.errors"] = (sum(1 for r in records if r.get("state") == "error"), "count")
    for label in ("analyze", "lint", "diff", "table2", "sweep"):
        lat = [r["latency"] * 1000 for r in records if r["label"] == label]
        m[f"service.{label}_ms_p50"] = (_median(lat), "ms")
    for layer in spans.LAYERS + ("other",):
        m[f"{layer}.share"] = (ratio(layers.get(layer, 0.0), op_s), "fraction")
    m["trace.op_s"] = (tr["op_s"], "s")
    m["trace.spans"] = (tr["spans"], "count")
    m["trace.wall_s"] = (res["wall_s"], "s")
    m["trace.overhead_s"] = (res["wall_s"] - untraced_wall_s, "s")
    return {name: _metric(v, unit) for name, (v, unit) in m.items()}


def _report(failures: list) -> None:
    for index, message in failures[:20]:
        print(f"perfbench: failed op {index}: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    t0 = time.perf_counter()
    plan_path = write_plan(workload, seed, seconds)
    print(
        f"perfbench: {workload} seed {seed}: plan and reference results "
        f"in {time.perf_counter() - t0:.1f}s",
        file=sys.stderr,
    )
    try:
        if not trace:
            # The host's speed holds for tens of seconds at a time, so the
            # set-ups are spread over the run: half before the measured
            # phase, half after it.
            extra = SETUP_SAMPLES - 1
            setups = [run_worker(plan_path, "setup")["setup_s"] for _ in range(extra // 2)]
            res = run_worker(plan_path, "measure")
            setups.append(res["setup_s"])
            setups += [
                run_worker(plan_path, "setup")["setup_s"] for _ in range(extra - extra // 2)
            ]
            metrics = end_to_end(res, statistics.median(setups))
            correct = not res["failures"]
            print(
                f"perfbench: set-ups {', '.join(f'{v:.3f}' for v in setups)}s; "
                f"{res['attempted']} ops in {res['wall_s']:.2f}s",
                file=sys.stderr,
            )
        else:
            untraced = run_worker(plan_path, "measure")
            res = run_worker(plan_path, "trace")
            metrics = per_layer(res, untraced["wall_s"])
            tr = res["trace"]
            for entry in tr["unbound"]:
                print(f"perfbench: cannot wrap {entry}", file=sys.stderr)
            for entry in tr["uncalled"]:
                print(f"perfbench: {entry} recorded no calls on {workload}", file=sys.stderr)
            correct = not (res["failures"] or tr["unbound"] or tr["uncalled"])
    finally:
        plan_path.unlink(missing_ok=True)
    _report(res["failures"])
    return {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": metrics,
    }


def selftest() -> dict:
    """Negative control: one wrong expected output and one malformed
    program or request per workload must both land in the failures."""
    rows = {}
    for workload in plans.WORKLOADS:
        plan_path = write_plan(workload, DEFAULT_SEED, 2, faults=True)
        try:
            res = run_worker(plan_path, "measure")
        finally:
            plan_path.unlink(missing_ok=True)
        failed = sorted(index for index, _ in res["failures"])
        _report(res["failures"])
        rows[workload] = {
            "attempted": res["attempted"],
            "failed": failed,
            "ok_frac": (res["attempted"] - len(failed)) / res["attempted"],
            # Op 0 has the wrong expected output; the malformed op is last.
            "passed": failed == [0, res["attempted"] - 1],
        }
    return {"selftest": rows, "passed": all(r["passed"] for r in rows.values())}


def determinism(workload: str, seed: int, seconds: int) -> dict:
    """Two traced runs at one seed must agree on the deterministic values."""
    plan_path = write_plan(workload, seed, seconds)
    try:
        runs = [run_worker(plan_path, "trace") for _ in range(2)]
    finally:
        plan_path.unlink(missing_ok=True)
    values = []
    for res in runs:
        metrics = per_layer(res, res["wall_s"])
        row = {name: metrics[name]["value"] for name in DETERMINISTIC_COUNTS}
        row["qualified_nonlocal"] = res["qualified_nonlocal"]
        row["opt_speedup"] = _geomean(res["speedups"])
        values.append(row)
    return {
        "determinism": workload,
        "seed": seed,
        "runs": values,
        "passed": values[0] == values[1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args(argv)
    if not (args.selftest or args.workload):
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro under the working directory; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    try:
        if args.selftest:
            result = selftest()
        elif args.determinism:
            result = determinism(args.workload, args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    if args.selftest or args.determinism:
        return 0 if result["passed"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
