"""Seeded op plans for the three workloads, and their reference outputs.

A plan is plain JSON: the generated programs and inputs (or the names of
the committed workloads) for each op, plus the expected result of each op.
Only the benchmark sees the seed; ``repro`` receives the generated inputs.

Expected results never come from the code under test:

* batch ops expect the output and return value of the *reference*
  interpreter (``engine="reference"``) running the original program;
* service requests expect the payload of a direct ``execute_*`` call
  without any cache.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re

#: The paper's coverage parameters (section 6).
CA = 0.97
CR = 0.95

WORKLOADS = ("organic-cold", "profile-heavy", "serve-warm")

#: Ops per second of ``--seconds``.  The work of a run is fixed by these
#: rates, so a run measures the op counts stated in ``BENCHMARK.json``
#: whatever the host's speed.  On a 2-core host the measured phase of a
#: 20 s run lasted 10–27 s as the host's speed changed.
ORGANIC_OPS_PER_S = 5.4
PROFILE_GENERATED_OPS_PER_S = 2.6
#: serve-warm requests per target, and sweeps in all, per 20 s of
#: ``--seconds``.
SERVE_MIX = (("analyze", 16), ("lint", 13), ("diff", 8), ("table2", 3))
SERVE_SWEEPS = 4
SERVE_WORKERS = 2

#: Instructions the profile-heavy generated programs execute on their train
#: (profiling) and ref inputs.  The train input is long next to the
#: committed workloads (at most 38k train instructions); the ref input is
#: about as long as theirs (up to 153k).  The ref input is run four times
#: per op (ref profiling, both Table-2 builds and, at plan time, the slower
#: reference interpreter): a 240k ref input made ops 38% slower and added
#: 8 s of plan time to every run.
PROFILE_TRAIN_INSTRS = 1_200_000
PROFILE_REF_INSTRS = 80_000


def digest(obj) -> str:
    """A stable digest of a JSON-able value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest(result) -> str:
    """What a batch op must reproduce: printed output and return value."""
    return digest([[list(row) for row in result.output], result.return_value])


def tail_rank(n: int) -> tuple[int, int]:
    """(percentile, 1-based rank) of the highest whole percentile with at
    least 10 ops beyond it; the median when there are too few ops."""
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, rank
    return 50, max(1, math.ceil(n / 2))


def workload_json(w) -> dict:
    return {
        "name": w.name,
        "source": w.source,
        "train_args": list(w.train_args),
        "train_inputs": {k: list(v) for k, v in w.train_inputs.items()},
        "ref_args": list(w.ref_args),
        "ref_inputs": {k: list(v) for k, v in w.ref_inputs.items()},
    }


def workload_of(d: dict):
    """A plan entry to a :class:`repro.Workload` (named ones resolve)."""
    from repro.evaluation.harness import Workload
    from repro.workloads.matrix import resolve_target

    if "target" in d:
        return resolve_target(d["target"])
    return Workload(
        name=d["name"],
        source=d["source"],
        train_args=tuple(d["train_args"]),
        train_inputs=d["train_inputs"],
        ref_args=tuple(d["ref_args"]),
        ref_inputs=d["ref_inputs"],
    )


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """``n`` values, one uniform draw in each of ``n`` equal strata of
    [lo, hi], in seeded order: every seed gets the same spread."""
    width = (hi - lo) / n
    values = [lo + width * (i + rng.random()) for i in range(n)]
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------------------
# organic-cold
# ---------------------------------------------------------------------------

#: (functions, loop depth) cells; every cell gets the same share of ops.
ORGANIC_CELLS = tuple((f, d) for d in (1, 2, 3) for f in (1, 2, 3))
#: Largest blocks per function at each loop depth.  Deeper loops multiply
#: the hot paths, and so the hot-path graph, so their programs are kept
#: smaller: no single op dominates a run or sets the peak RSS alone.
ORGANIC_MAX_BLOCKS = {1: 48, 2: 44, 3: 40}
ORGANIC_MIN_BLOCKS = 24


def organic_design(n: int) -> list[tuple]:
    """The shape of each of ``n`` programs: (funcs, blocks, depth,
    density, correlation, skew).

    The design is the same for every seed: shapes are spread evenly over
    the cells and the block range, and the other knobs are stratified over
    their ranges and paired by a fixed shuffle.  The seed then draws the
    programs themselves, so seeds differ in content, not in how much work
    the shapes ask for."""
    rng = random.Random("organic-cold/design")
    density = _stratified(rng, n, 0.3, 0.7)
    corr = _stratified(rng, n, 0.7, 0.95)
    skew = _stratified(rng, n, 0.75, 0.95)
    cells = [ORGANIC_CELLS[i % len(ORGANIC_CELLS)] for i in range(n)]
    per_cell = {c: cells.count(c) for c in set(cells)}
    seen: dict = {}
    design = []
    for i, (funcs, depth) in enumerate(cells):
        k = seen.get((funcs, depth), 0)
        seen[(funcs, depth)] = k + 1
        lo, hi = ORGANIC_MIN_BLOCKS, ORGANIC_MAX_BLOCKS[depth]
        blocks = round(lo + (hi - lo) * (k + 0.5) / per_cell[(funcs, depth)])
        design.append(
            (funcs, blocks, depth, round(density[i], 3), round(corr[i], 3), round(skew[i], 3))
        )
    return design


def organic_specs(seed: int, n: int):
    """``n`` seeded programs over :func:`organic_design`, in seeded order."""
    from repro.workloads import GeneratorSpec

    rng = random.Random(f"organic-cold/{seed}")
    specs = [
        GeneratorSpec(
            seed=rng.randrange(1 << 30),
            funcs=funcs,
            blocks_per_func=blocks,
            loop_depth=depth,
            branch_density=density,
            correlation=corr,
            hot_skew=skew,
            train_iters=24,
            ref_iters=48,
        )
        for funcs, blocks, depth, density, corr, skew in organic_design(n)
    ]
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# profile-heavy
# ---------------------------------------------------------------------------


#: Measured instructions per block per outer-loop iteration of a
#: generated program without inner loops.
INSTRS_PER_BLOCK_ITER = 3.4


def profile_specs(seed: int, n: int):
    """``n`` small-CFG generator specs with long train inputs.

    Like :func:`organic_design`, the shapes are the same for every seed and
    the seed draws the programs.  The programs have no inner loops: nested
    loops multiply hot paths, which would move the work from the
    interpreter to qualification."""
    from repro.workloads import GeneratorSpec

    design = random.Random("profile-heavy/design")
    blocks = _stratified(design, n, 16, 40)
    corr = _stratified(design, n, 0.85, 0.97)
    rng = random.Random(f"profile-heavy/{seed}")
    specs = []
    for i in range(n):
        funcs = 1 + i % 3
        b = int(blocks[i])
        per_iter = INSTRS_PER_BLOCK_ITER * funcs * b
        specs.append(
            GeneratorSpec(
                seed=rng.randrange(1 << 30),
                funcs=funcs,
                blocks_per_func=b,
                correlation=round(corr[i], 3),
                train_iters=max(1, round(PROFILE_TRAIN_INSTRS / per_iter)),
                ref_iters=max(1, round(PROFILE_REF_INSTRS / per_iter)),
            )
        )
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def _batch_plan(workload: str, seed: int, seconds: int) -> dict:
    from repro.workloads import (
        HANDWRITTEN_NAMES,
        WORKLOAD_NAMES,
        GeneratorSpec,
        generated_workload,
    )

    if workload == "organic-cold":
        n = max(4, round(ORGANIC_OPS_PER_S * seconds))
        ops = [workload_json(generated_workload(s)) for s in organic_specs(seed, n)]
        warmup = GeneratorSpec(seed=0, funcs=2, blocks_per_func=32, loop_depth=2)
    else:
        n = max(2, round(PROFILE_GENERATED_OPS_PER_S * seconds))
        ops = [{"target": t} for t in WORKLOAD_NAMES + HANDWRITTEN_NAMES]
        ops += [workload_json(generated_workload(s)) for s in profile_specs(seed, n)]
        random.Random(f"order/{seed}").shuffle(ops)
        warmup = GeneratorSpec(
            seed=0, funcs=2, blocks_per_func=24, train_iters=2000, ref_iters=200
        )
    return {
        "workload": workload,
        "warmup": workload_json(generated_workload(warmup)),
        "ops": ops,
        "lint": workload == "organic-cold",
    }


def _function_names(source: str) -> list[str]:
    return re.findall(r"func\s+(\w+)\s*\(", source)


def serve_pool(seed: int) -> list[dict]:
    """Pool targets as request fields: the SPEC-named workloads, ``sieve``,
    the running example as inline source, and three seeded generated
    programs named by ``gen:`` spec."""
    from pathlib import Path

    from repro.workloads import (
        HANDWRITTEN_NAMES,
        WORKLOAD_NAMES,
        GeneratorSpec,
        spec_name,
        training_run_inputs,
    )

    rng = random.Random(f"serve-warm/pool/{seed}")
    pool = [{"target": t} for t in WORKLOAD_NAMES + HANDWRITTEN_NAMES]
    source = (Path.cwd() / "examples" / "running_example.mc").read_text()
    activations, arrays = training_run_inputs()
    pool.append(
        {
            "source": source,
            "name": "running-example",
            "args": [activations],
            "inputs": arrays,
        }
    )
    # Fixed shapes, seeded content: the pool's work does not swing with
    # the seed.
    for blocks, depth in ((20, 2), (26, 1), (32, 1)):
        spec = GeneratorSpec(
            seed=rng.randrange(1 << 30),
            funcs=2,
            blocks_per_func=blocks,
            loop_depth=depth,
        )
        pool.append({"target": spec_name(spec)})
    return pool


#: Pool targets (by position in :func:`serve_pool`) and the sweep pair
#: each client owns, balanced by their measured warm cost.  A pair's
#: workloads are targets of the same client, since a sweep writes
#: artifacts the service cache may later read.
SERVE_AFFINITY = ((0, 1, 3, 5, 7, 10), (2, 4, 6, 8, 9, 11))
SERVE_SWEEP_PAIRS = (("compress95", "go95"), ("ijpeg95", "m88ksim95"))


#: Request kinds that take several times a warm analyze.
SERVE_HEAVY = ("sweep", "diff", "table2")


def _spread_heavy(rng: random.Random, stream: list[dict]) -> list[dict]:
    """Shuffle a client's light and heavy requests separately, then place
    the heavy ones at evenly spaced points among the light ones.

    Where heavy requests of the two clients happen to run at once, both
    take about twice as long; a random order makes how often that happens,
    and so the tail, swing from seed to seed."""
    heavy = [r for r in stream if r["label"] in SERVE_HEAVY]
    light = [r for r in stream if r["label"] not in SERVE_HEAVY]
    rng.shuffle(heavy)
    rng.shuffle(light)
    out = []
    step = len(stream) / len(heavy)
    for k, req in enumerate(heavy):
        while len(out) < int(step * (k + 0.5)) and light:
            out.append(light.pop())
        out.append(req)
    return out + light


def _serve_plan(seed: int, seconds: int) -> dict:
    """A fixed multiset of requests in seeded order.

    Every seed asks for the same mix per target, edits the same functions
    and sweeps the same pairs, so the seed changes the request order and
    the generated pool programs, not the amount of work.  Each target and
    each sweep pair belongs to one client, so identical or overlapping
    requests never run at once: which work is done, and so every count
    but the cache hits, does not depend on thread interleaving."""
    from repro.evaluation.harness import CA_SWEEP
    from repro.service.api import AnalysisRequest, resolve_workload

    scale = seconds / 20
    pool = serve_pool(seed)
    streams: list[list[dict]] = [[] for _ in SERVE_AFFINITY]
    for client, owned in enumerate(SERVE_AFFINITY):
        for fields in (pool[i] for i in owned):
            source = resolve_workload(AnalysisRequest.from_dict(fields)).source
            # Two distinct one-function edits per target: the first diff
            # of each is a write, later ones read it back warm.
            edits = _function_names(source)[:2]
            for kind, per_20s in SERVE_MIX:
                for i in range(max(1, round(per_20s * scale))):
                    if kind == "table2":
                        body = dict(fields, table2=True)
                    elif kind == "diff":
                        body = dict(fields, seed_edit=True, edit_function=edits[i % len(edits)])
                    else:
                        body = dict(fields)
                    streams[client].append({"label": kind, "body": body})
        per_pair = max(1, round(SERVE_SWEEPS * scale / len(SERVE_SWEEP_PAIRS)))
        for _ in range(per_pair):
            body = {
                "workloads": list(SERVE_SWEEP_PAIRS[client]),
                "ca_values": list(CA_SWEEP),
                "jobs": 1,
            }
            streams[client].append({"label": "sweep", "body": body})
    rng = random.Random(f"serve-warm/{seed}")
    requests = []
    for client, stream in enumerate(streams):
        requests += [dict(req, client=client) for req in _spread_heavy(rng, stream)]
    return {
        "workload": "serve-warm",
        "pool": pool,
        "requests": requests,
        "clients": len(streams),
        "workers": SERVE_WORKERS,
    }


def build_plan(workload: str, seed: int, seconds: int) -> dict:
    if workload == "serve-warm":
        return _serve_plan(seed, seconds)
    return _batch_plan(workload, seed, seconds)


# ---------------------------------------------------------------------------
# reference results
# ---------------------------------------------------------------------------


def reference_run_digest(w) -> str:
    """The reference interpreter's result for the original program."""
    from repro.frontend.lower import compile_program
    from repro.interp.interpreter import Interpreter

    try:
        module = compile_program(w.source)
        result = Interpreter(
            module, profile_mode=None, track_sites=False, engine="reference"
        ).run(w.ref_args, w.ref_inputs)
    except Exception as exc:  # an op whose reference fails can never pass
        return f"error: {type(exc).__name__}: {exc}"
    return run_digest(result)


def comparable(kind: str, payload: dict) -> dict:
    """The deterministic part of a service payload.

    ``comparable_payload`` drops ``timings``.  A sweep payload also carries
    a ``cache`` summary of hits and computations, which depends on what the
    cache already held; it is dropped too, as the service's own sweep
    parity test does."""
    from repro.service.api import comparable_payload

    out = comparable_payload(payload)
    if kind == "sweep":
        out.pop("cache", None)
    return out


#: Mix label -> (request class, direct executor) in ``repro.service.api``.
REQUEST_KINDS = {
    "analyze": ("AnalysisRequest", "execute_request"),
    "table2": ("AnalysisRequest", "execute_request"),
    "lint": ("LintRequest", "execute_lint"),
    "diff": ("DiffRequest", "execute_diff"),
    "sweep": ("SweepRequest", "execute_sweep"),
}


def parse_request(label: str, body: dict):
    from repro.service import api

    return getattr(api, REQUEST_KINDS[label][0]).from_dict(body)


def direct_payload(label: str, request):
    from repro.service import api

    return getattr(api, REQUEST_KINDS[label][1])(request)


def add_expected(plan: dict) -> None:
    """Attach the expected digest of every op to the plan."""
    if plan["workload"] != "serve-warm":
        plan["expected"] = [reference_run_digest(workload_of(op)) for op in plan["ops"]]
        return
    expected: dict[str, str] = {}
    for req in plan["requests"]:
        key = digest(req)
        if key in expected:
            continue
        try:
            payload = direct_payload(req["label"], parse_request(req["label"], req["body"]))
            expected[key] = digest(comparable(req["label"], payload))
        except Exception as exc:
            expected[key] = f"error: {type(exc).__name__}: {exc}"
    plan["expected"] = [expected[digest(req)] for req in plan["requests"]]
