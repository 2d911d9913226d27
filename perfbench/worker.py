"""One workload's set-up and measured phase, in a fresh process.

Usage::

    PYTHONPATH=src python3 perfbench/worker.py PLAN.json {setup|measure|trace}

``setup`` times the set-up only and exits; ``measure`` also runs the plan's
ops untraced; ``trace`` runs them with the layer wrappers of
:mod:`spans` installed.  The last line of standard output is one JSON
object with the raw measurements; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import plan as plans
import spans

#: A single op or request that takes longer than this is a hung run.
OP_TIMEOUT_S = 150


def batch_op(w, lint: bool):
    """Cold end to end: compile, train/ref profiling, qualify, classify,
    lint (organic-cold only), then the Table-2 base and optimized builds,
    each run on the ref input.  Returns (qualified non-local constants,
    base/optimized cost, digests of the two builds' results)."""
    from repro.evaluation.harness import WorkloadRun
    from repro.interp.interpreter import Interpreter

    run = WorkloadRun(w, engine="compiled")
    run.qualified(plans.CA, plans.CR)
    nonlocal_constants = run.aggregate_classification(plans.CA, plans.CR).qualified_nonlocal
    if lint:
        run.lint(plans.CA, plans.CR)
    builds = (run.build_base_module(), run.build_optimized_module(plans.CA, plans.CR))
    costs, digests = [], []
    for module in builds:
        result = Interpreter(
            module, profile_mode=None, track_sites=False, engine="compiled"
        ).run(w.ref_args, w.ref_inputs)
        costs.append(result.cost)
        digests.append(plans.run_digest(result))
    return nonlocal_constants, costs[0] / costs[1], digests


def batch_setup(plan: dict) -> None:
    """The warm-up op on a fixed program outside the measured set."""
    batch_op(plans.workload_of(plan["warmup"]), plan["lint"])


def run_batch(plan: dict, rec) -> dict:
    workloads = [plans.workload_of(op) for op in plan["ops"]]
    latencies, speedups, failures = [], [], []
    nonlocal_total = 0
    start = time.perf_counter()
    for i, (w, expected) in enumerate(zip(workloads, plan["expected"])):
        root = rec.begin_op(f"op-{i}") if rec else None
        t0 = time.perf_counter()
        try:
            found, speedup, digests = batch_op(w, plan["lint"])
        except Exception as exc:  # a failed op is counted, the run goes on
            failures.append((i, f"{w.name}: {type(exc).__name__}: {exc}"))
        else:
            if all(d == expected for d in digests):
                nonlocal_total += found
                speedups.append(speedup)
            else:
                failures.append((i, f"{w.name}: output differs from the reference interpreter"))
        finally:
            latencies.append(time.perf_counter() - t0)
            if rec:
                rec.end_op(root)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "latencies": latencies,
        "attempted": len(workloads),
        "failures": failures,
        "qualified_nonlocal": nonlocal_total,
        "speedups": speedups,
    }


# ---------------------------------------------------------------------------
# serve-warm
# ---------------------------------------------------------------------------


def serve_setup(plan: dict, cache_dir: str):
    """Start the service and prime it cold with an analyze and a lint of
    every pool target."""
    from repro.service.api import AnalysisRequest, LintRequest
    from repro.service.daemon import AnalysisService

    service = AnalysisService(jobs=plan["workers"], cache_dir=cache_dir)
    for fields in plan["pool"]:
        for request in (AnalysisRequest.from_dict(fields), LintRequest.from_dict(fields)):
            job, _ = service.submit(request)
            service.wait(job, timeout=OP_TIMEOUT_S)
            if job.state != "done":
                service.shutdown()
                raise RuntimeError(f"priming {request.label()} failed: {job.error}")
    return service


def _has_errors(label: str, payload: dict) -> bool:
    diags = payload.get("diagnostics")
    if label in ("analyze", "table2", "sweep") and diags:
        return bool(diags["has_errors"])
    return False


def run_serve(plan: dict, service) -> dict:
    """A closed loop of clients, each submitting its next request only after
    the previous one has its result."""
    requests = plan["requests"]
    clients = plan["clients"]
    done: list = [None] * len(requests)

    def client(k: int) -> None:
        for i in (i for i, req in enumerate(requests) if req["client"] == k):
            req = requests[i]
            t0 = time.perf_counter()
            try:
                request = plans.parse_request(req["label"], req["body"])
                job, coalesced = service.submit(request)
                service.wait(job, timeout=OP_TIMEOUT_S)
                done[i] = (time.perf_counter() - t0, job, coalesced, None)
            except Exception as exc:
                done[i] = (time.perf_counter() - t0, None, False, exc)

    before = service.cache.stats_snapshot()
    threads = [threading.Thread(target=client, args=(k,)) for k in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    stats = service.cache.stats_snapshot().diff(before)

    # Verification happens after the clock stops.
    latencies, speedups, failures, records = [], [], [], []
    nonlocal_total = 0
    diff_recomputed = diff_functions = 0
    for i, (req, expected, (latency, job, coalesced, exc)) in enumerate(
        zip(requests, plan["expected"], done)
    ):
        label = req["label"]
        latencies.append(latency)
        record = {"label": label, "latency": latency, "coalesced": coalesced}
        records.append(record)
        if job is None:
            failures.append((i, f"{label}: {type(exc).__name__}: {exc}"))
            record["state"] = "refused"
            continue
        record.update(state=job.state, run_s=job.duration)
        if job.state != "done":
            failures.append((i, f"{label} {job.request.label()}: {job.error}"))
            continue
        payload = job.result
        if plans.digest(plans.comparable(label, payload)) != expected:
            failures.append((i, f"{label} {job.request.label()}: payload differs from direct execution"))
            continue
        if _has_errors(label, payload):
            failures.append((i, f"{label} {job.request.label()}: check reported an error"))
            continue
        if label in ("analyze", "table2"):
            nonlocal_total += payload["summary"]["sharpening"]["qualified_nonlocal"]
        if label == "table2":
            speedups.append(payload["summary"]["table2"]["speedup"])
        if label == "diff":
            for stages in payload["report"]["ledger"]["functions"].values():
                diff_functions += 1
                diff_recomputed += stages["qualified"] == "recompute"
    return {
        "wall_s": wall,
        "latencies": latencies,
        "attempted": len(requests),
        "failures": failures,
        "qualified_nonlocal": nonlocal_total,
        "speedups": speedups,
        "requests": records,
        "cache": {
            "hits": stats.total_hits,
            "misses": stats.total_misses,
            "stores": sum(stats.stores.values()),
            "evictions": sum(stats.evictions.values()),
            "corrupt": sum(stats.corrupt.values()),
        },
        "diff": {"functions": diff_functions, "recomputed": diff_recomputed},
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main() -> int:
    plan_path, mode = Path(sys.argv[1]), sys.argv[2]
    plan = json.loads(plan_path.read_text())
    serve = plan["workload"] == "serve-warm"
    scratch = tempfile.mkdtemp(prefix="cache-", dir=plan_path.parent) if serve else None
    service = None
    try:
        start = time.perf_counter()
        import repro  # noqa: F401  (the import is part of set-up)

        if serve:
            service = serve_setup(plan, scratch)
        else:
            batch_setup(plan)
        out = {"setup_s": time.perf_counter() - start}
        if mode == "setup":
            print(json.dumps(out))
            return 0

        rec = None
        if mode == "trace":
            rec = spans.Recorder()
            missing = spans.install(rec)
        if serve:
            out.update(run_serve(plan, service))
        else:
            out.update(run_batch(plan, rec))
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if rec is not None:
            groups, layers, op_s = rec.self_times()
            out["trace"] = {
                "groups": groups,
                "layers": layers,
                "op_s": op_s,
                "counts": dict(rec.counts),
                "spans": len(rec.spans),
                # Distinct artifacts the service's own cache served, against
                # its memory LRU bound (sweeps use caches of their own).
                "working_set": sum(
                    1 for owner, _, _ in rec.artifacts
                    if service is not None and owner == id(service.cache)
                ),
                "unbound": missing,
                "uncalled": spans.missing_calls(rec, plan["workload"]),
            }
            name = f"spans-{plan['workload']}-seed{plan['seed']}.jsonl"
            rec.dump(plan_path.parent / name)
        print(json.dumps(out))
        return 0
    finally:
        if service is not None:
            service.shutdown()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
