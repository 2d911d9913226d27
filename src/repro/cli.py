"""Command-line interface.

Mirrors the paper's two-pass tooling (PP instruments and profiles; PW
analyzes and optimizes) as subcommands::

    python -m repro compile  prog.mc                 # MiniC -> textual IR
    python -m repro run      prog.mc --args 10 --input data=1,2,3 \\
                             --save-profile prog.prof
    python -m repro optimize prog.mc --profile prog.prof --ca 0.97 --cr 0.95
    python -m repro dot      prog.mc --function work --profile prog.prof
    python -m repro report   m88ksim95
    python -m repro bench    --jobs 4 --cache-dir .repro-cache --out results/
    python -m repro serve    --port 8321 --jobs 4 --cache-dir .repro-cache
    python -m repro submit   gen-small --url http://127.0.0.1:8321

All subcommands are pure functions of their inputs, so they are unit-tested
by invoking :func:`main` directly.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from .core import run_qualified
from .frontend import compile_program
from .interp import Interpreter
from .ir import validate_module
from .ir.dot import cfg_to_dot, traced_to_dot
from .opt.driver import optimize_module
from .profiles.serialize import dumps_profiles, loads_profiles


@contextmanager
def _trace_capture(args: argparse.Namespace):
    """Honor ``--trace-out`` and ``--mem-spans``: run the command body under
    enabled observability globals, streaming each span to the JSONL file as
    it closes (so a live sweep can be tailed) and, when asked, annotating
    spans with their tracemalloc peak."""
    trace_out = getattr(args, "trace_out", None)
    mem_spans = getattr(args, "mem_spans", False)
    if not trace_out and not mem_spans:
        yield
        return
    from contextlib import ExitStack

    from .obs import capture, memory_sampling, stream_trace_jsonl

    with ExitStack() as stack:
        tracer, registry = stack.enter_context(capture())
        if mem_spans:
            stack.enter_context(memory_sampling())
        if trace_out:
            stack.enter_context(stream_trace_jsonl(trace_out, tracer, registry))
        yield
    if trace_out:
        print(f"# trace written to {trace_out}", file=sys.stderr)


def _parse_inputs(pairs: Sequence[str]) -> dict[str, list[int]]:
    inputs: dict[str, list[int]] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--input expects name=v1,v2,...; got {pair!r}")
        name, _, values = pair.partition("=")
        inputs[name] = [int(v) for v in values.split(",") if v != ""]
    return inputs


def _load_module(path: str):
    with open(path) as f:
        module = compile_program(f.read())
    validate_module(module)
    return module


def _resolve_workload(target: str, args: argparse.Namespace):
    """A named target (registered, preset or ``gen:`` spec), else a MiniC
    file run on the verb's ``--args``/``--input`` where it has them."""
    from .evaluation import Workload
    from .workloads.matrix import resolve_target

    try:
        return resolve_target(target)
    except KeyError:
        pass
    except ValueError as exc:  # a malformed gen: spec
        raise SystemExit(f"{args.command}: {exc}")
    try:
        with open(target) as f:
            source = f.read()
    except OSError as exc:
        raise SystemExit(
            f"{args.command}: {target!r} is neither a target (see 'repro "
            f"suite --list') nor a readable file: {exc.strerror}"
        )
    prog_args = tuple(getattr(args, "args", ()))
    inputs = _parse_inputs(getattr(args, "input", ()))
    return Workload(
        name=target,
        source=source,
        train_args=prog_args,
        train_inputs=inputs,
        ref_args=prog_args,
        ref_inputs=inputs,
    )


def cmd_compile(args: argparse.Namespace) -> int:
    module = _load_module(args.file)
    text = str(module) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    with _trace_capture(args):
        module = _load_module(args.file)
        interp = Interpreter(module, profile_mode="bl", engine="compiled")
        result = interp.run(args.args, _parse_inputs(args.input))
    for values in result.output:
        print(" ".join(str(v) for v in values))
    print(f"# return value : {result.return_value}", file=sys.stderr)
    print(f"# instructions : {result.instr_count}", file=sys.stderr)
    print(f"# cost (cycles): {result.cost}", file=sys.stderr)
    if args.save_profile:
        with open(args.save_profile, "w") as f:
            f.write(dumps_profiles(result.profiles))
        print(f"# profile saved to {args.save_profile}", file=sys.stderr)
    if args.check:
        from .checks.runner import check_module, check_run_result

        diags = check_module(module, workload=args.file)
        check_run_result(module, result, workload=args.file, out=diags)
        print(f"# checks: {diags.summary()}", file=sys.stderr)
        for d in diags:
            print(f"#   {d.format()}", file=sys.stderr)
        if diags.has_errors:
            return 2
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    module = _load_module(args.file)
    with open(args.profile) as f:
        profiles = loads_profiles(f.read())

    optimized, reports = optimize_module(
        module, profiles, ca=args.ca, cr=args.cr
    )
    text = str(optimized) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    for report in reports:
        print(
            f"# {report.name}: {report.blocks_before} -> "
            f"{report.blocks_after} blocks, {report.hot_paths} hot paths",
            file=sys.stderr,
        )
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    from .ir import Cfg

    module = _load_module(args.file)
    fn = module.functions.get(args.function)
    if fn is None:
        raise SystemExit(f"no function {args.function!r} in {args.file}")
    if args.profile:
        with open(args.profile) as f:
            profiles = loads_profiles(f.read())
        profile = profiles.get(args.function)
        if profile is None:
            raise SystemExit(f"profile has no routine {args.function!r}")
        qa = run_qualified(fn, profile, ca=args.ca, cr=args.cr)
        if not qa.traced:
            sys.stdout.write(cfg_to_dot(qa.cfg, name=args.function) + "\n")
            return 0
        graph = qa.reduced if args.reduced else qa.hpg
        weights = qa.reduction.weights if args.reduced else None
        sys.stdout.write(
            traced_to_dot(graph, name=args.function, weights=weights) + "\n"
        )
    else:
        sys.stdout.write(
            cfg_to_dot(Cfg.from_function(fn), name=args.function) + "\n"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .evaluation import WorkloadRun, format_table
    from .obs import render_span_tree

    workload = _resolve_workload(args.workload, args)
    checker = None
    if args.check:
        from .checks.runner import PipelineChecker

        checker = PipelineChecker()
    with _trace_capture(args):
        run = WorkloadRun(workload, checker=checker)
        agg = run.aggregate_classification(args.ca, args.cr)
        orig, hpg, red = run.graph_sizes(args.ca, args.cr)
        row = run.table2(args.ca, args.cr)
    rows = [
        ["CFG nodes", run.cfg_nodes],
        ["executed paths (train)", run.executed_paths],
        [f"hot paths (CA={args.ca})", run.hot_path_count(args.ca)],
        ["traced vertices", hpg],
        ["reduced vertices", red],
        ["WZ non-local constants", agg.iterative_nonlocal],
        ["qualified non-local constants", agg.qualified_nonlocal],
        ["base cost", row.base_cost],
        ["optimized cost", row.optimized_cost],
        ["speedup", f"{row.speedup:.3f}x"],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"{args.workload} @ CA={args.ca}, CR={args.cr}",
        )
    )
    # Stage timings come from the run's spans now, rendered by the shared
    # exporter rather than ad-hoc rows.
    print()
    print("stage spans:")
    print(render_span_tree(run.tracer.spans(), top=3))
    if checker is not None:
        print(f"# checks: {checker.diagnostics.summary()}", file=sys.stderr)
        for d in checker.diagnostics:
            print(f"#   {d.format()}", file=sys.stderr)
        if checker.diagnostics.has_errors:
            return 2
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .pipeline import ParallelDriver
    from .workloads import WORKLOAD_NAMES

    workloads = tuple(args.workloads) if args.workloads else WORKLOAD_NAMES
    unknown = [w for w in workloads if w not in WORKLOAD_NAMES]
    if unknown:
        raise SystemExit(
            f"unknown workload(s) {unknown}; choose from {WORKLOAD_NAMES}"
        )
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.cache_dir:
        import os

        if os.path.exists(args.cache_dir) and not os.path.isdir(args.cache_dir):
            raise SystemExit(f"--cache-dir {args.cache_dir!r} is not a directory")
    ca_values = tuple(args.ca) if args.ca else None
    driver = ParallelDriver(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cr=args.cr,
        check=args.check,
        incremental=args.incremental,
    )
    with _trace_capture(args):
        if ca_values is None:
            result = driver.sweep(workloads)
        else:
            result = driver.sweep(workloads, ca_values)
    artifacts = result.artifacts()
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        for name, text in artifacts.items():
            path = os.path.join(args.out, f"{name}.txt")
            with open(path, "w") as f:
                f.write(text + "\n")
            print(f"# wrote {path}", file=sys.stderr)
    else:
        for name, text in artifacts.items():
            print(text)
            print()
    print(f"# jobs          : {args.jobs}", file=sys.stderr)
    print(f"# cache         : {args.cache_dir or '(in-memory)'}", file=sys.stderr)
    print(f"# cache activity: {result.cache_stats.summary()}", file=sys.stderr)
    if args.check:
        print(f"# checks        : {result.diagnostics.summary()}", file=sys.stderr)
        for d in result.diagnostics.errors:
            print(f"#   {d.format()}", file=sys.stderr)
        if result.diagnostics.has_errors:
            return 2
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from .pipeline import ParallelDriver
    from .workloads.matrix import (
        INSTANCES,
        TARGET_NAMES,
        build_targets,
        load_archived,
        resolve_instances,
        resolve_target,
    )

    if args.list:
        print("targets  :", " ".join(TARGET_NAMES))
        print("instances:", " ".join(INSTANCES))
        print("(targets also accept ad-hoc gen:key=value,... specs)")
        return 0
    targets = tuple(args.targets) if args.targets else ("sieve", "gen-small")
    instance_names = tuple(args.instances) if args.instances else ("base", "reference")
    for name in targets:
        try:
            resolve_target(name)
        except KeyError as exc:
            raise SystemExit(str(exc))
    try:
        instances = resolve_instances(instance_names)
    except KeyError as exc:
        raise SystemExit(str(exc))
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")

    with _trace_capture(args):
        if args.phase in ("build", "all"):
            print(build_targets(targets))
            print()
            if args.phase == "build":
                return 0
        if args.phase == "report":
            if not args.archive:
                raise SystemExit("suite: --phase report needs --archive DIR")
            try:
                result = load_archived(args.archive, targets, instances)
            except FileNotFoundError as exc:
                raise SystemExit(str(exc))
        else:
            driver = ParallelDriver(jobs=args.jobs, cache_dir=args.cache_dir)
            result = driver.suite(targets, instance_names, archive_dir=args.archive)
    report = result.report()
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "suite.txt")
        with open(path, "w") as f:
            f.write(report + "\n")
        print(f"# wrote {path}", file=sys.stderr)
    else:
        print(report)
    print(f"# {result.summary()}", file=sys.stderr)
    for cell in result.failures():
        detail = []
        if not cell.interp_parity:
            detail.append(f"interp mismatch on {cell.interp_mismatches}")
        if not cell.dataflow_parity:
            detail.append(f"dataflow mismatch on {cell.dataflow_mismatches}")
        if not cell.wz_parity:
            detail.append(f"wz mismatch on {cell.wz_mismatches}")
        if not cell.checks_clean:
            detail.append(f"{cell.checks_errors} check error(s)")
        print(
            f"#   {cell.target}/{cell.instance}: {'; '.join(detail)}",
            file=sys.stderr,
        )
    return 0 if result.ok else 2


def cmd_trace(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from .obs import (
        capture,
        memory_sampling,
        render_trace_report,
        stream_trace_jsonl,
    )
    from .pipeline.cached_run import make_run

    name = args.workload
    if name is None:
        if not args.self_check:
            raise SystemExit("trace: give a workload name (or --self-check)")
        name = "compress95"
    workload = _resolve_workload(name, args)
    with ExitStack() as stack:
        tracer, registry = stack.enter_context(capture())
        if args.mem_spans:
            stack.enter_context(memory_sampling())
        if args.trace_out:
            stack.enter_context(
                stream_trace_jsonl(args.trace_out, tracer, registry)
            )
        run = make_run(workload, args.cache_dir)
        run.aggregate_classification(args.ca, args.cr)
    print(render_trace_report(tracer, registry, top=args.top))
    if args.trace_out:
        print(f"# trace written to {args.trace_out}", file=sys.stderr)
    if args.self_check:
        required = {
            "workload.compile",
            "workload.train_run",
            "workload.ref_run",
            "workload.qualify",
        }
        names = {span.name for span in tracer.spans()}
        counter_total = sum(registry.snapshot()["counters"].values())
        problems = []
        if not required <= names:
            problems.append(f"missing spans: {sorted(required - names)}")
        if counter_total <= 0:
            problems.append("no counter increments recorded")
        for problem in problems:
            print(f"# self-check FAILED: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"# self-check OK: {len(tracer.spans())} spans, "
            f"{counter_total} counter increments",
            file=sys.stderr,
        )
    return 0


def _check_self_check() -> int:
    """Smoke-test the checker layer itself: a clean run must report zero
    errors with the expected spans, and a deliberately corrupted profile
    must be caught (CI's guarantee that the checkers can actually fail).

    The clean pipeline runs under the engine scopes of the ``base`` and
    the ``wz-compiled`` matrix instances, so the dense WZ lowering is
    smoked end to end too."""
    from .checks.profile_checks import PROF_FLOW_IMBALANCE, check_profile
    from .checks.runner import check_program
    from .ir.cfg import Cfg
    from .obs import capture
    from .profiles.path_profile import PathProfile
    from .profiles.recording import recording_edges
    from .workloads.matrix import INSTANCES
    from .workloads.running_example import (
        running_example_module,
        training_run_inputs,
    )

    module = running_example_module()
    n, inputs = training_run_inputs()
    required = {"check.ir", "check.lint", "check.profile", "check.automaton",
                "check.hpg", "check.dataflow"}
    problems = []
    for instance in ("base", "wz-compiled"):
        with INSTANCES[instance].scopes(), capture() as (tracer, registry):
            diags = check_program(
                module, [n], inputs, ca=1.0, cr=0.95, workload="running_example"
            )
        if diags.has_errors:
            problems.append(
                f"{instance}: clean run reported errors: {diags.summary()}"
            )
        span_names = {span.name for span in tracer.spans()}
        if not required <= span_names:
            problems.append(
                f"{instance}: missing check spans: "
                f"{sorted(required - span_names)}"
            )
        runs = sum(
            c for (name, _), c in registry.snapshot()["counters"].items()
            if name == "check_pass_runs"
        )
        if runs <= 0:
            problems.append(f"{instance}: no check_pass_runs counter increments")

    # Negative control: break flow conservation and require detection.
    fn = module.function("work")
    cfg = Cfg.from_function(fn)
    recording = recording_edges(cfg)
    interp = Interpreter(module, profile_mode="bl", track_sites=False)
    profile = interp.run([n], inputs).profiles["work"]
    corrupted = PathProfile(dict(profile.items()))
    # Inflate a non-cyclic path starting mid-routine: extra traversals of a
    # cycle (or of a whole entry-to-exit trip) would still conserve flow.
    entry_succs = set(cfg.succs(cfg.entry))
    extra = next(
        p
        for p in corrupted.paths()
        if p.start not in entry_succs and p.end != p.start
    )
    corrupted.add(extra, 7)
    bad = check_profile("work", cfg, recording, corrupted)
    if PROF_FLOW_IMBALANCE not in bad.codes():
        problems.append("corrupted profile not caught by PROF004")

    for problem in problems:
        print(f"# self-check FAILED: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(
        f"# self-check OK: {len(diags)} clean findings, "
        f"{len(bad.errors)} seeded defects caught",
        file=sys.stderr,
    )
    return 0


def _aggregate_span_timings(spans) -> dict[str, float]:
    """Total wall-clock seconds per span name, sorted by name."""
    timings: dict[str, float] = {}
    for span in spans:
        timings[span.name] = timings.get(span.name, 0.0) + span.duration
    return {name: timings[name] for name in sorted(timings)}


def cmd_check(args: argparse.Namespace) -> int:
    import json

    if args.self_check:
        return _check_self_check()
    if not args.target:
        raise SystemExit("check: give a target name, a .mc file, or --self-check")
    workload = None
    if args.target != "running_example":
        workload = _resolve_workload(args.target, args)

    def _run_checks():
        if workload is not None:
            from .pipeline.cached_run import make_run

            run = make_run(workload, args.cache_dir, check=True)
            run.qualified(args.ca, args.cr)
            return run.checker.diagnostics
        from .checks.runner import check_program
        from .workloads.running_example import (
            running_example_module,
            training_run_inputs,
        )

        n, inputs = training_run_inputs()
        return check_program(
            running_example_module(),
            [n],
            inputs,
            ca=args.ca,
            cr=args.cr,
            workload="running_example",
        )

    timings: Optional[dict[str, float]] = None
    with _trace_capture(args):
        if args.json:
            # Per-pass wall times ride along in the JSON payload; spans are
            # captured locally unless --trace-out already enabled them.
            from .obs import capture, get_tracer

            ambient = get_tracer()
            if ambient.enabled:
                before = len(ambient.spans())
                diags = _run_checks()
                timings = _aggregate_span_timings(ambient.spans()[before:])
            else:
                with capture() as (tracer, _registry):
                    diags = _run_checks()
                timings = _aggregate_span_timings(tracer.spans())
        else:
            diags = _run_checks()
    if args.json:
        payload = {
            "diagnostics": diags.to_dicts(),
            "counts": diags.counts(),
            "timings": timings,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(diags.render_text())
    return diags.exit_code(args.fail_on)


def _is_named_lint_target(name: str) -> bool:
    from .workloads import HANDWRITTEN_NAMES, WORKLOAD_NAMES
    from .workloads.generate import GEN_PRESETS

    return (
        name in WORKLOAD_NAMES
        or name in HANDWRITTEN_NAMES
        or name in GEN_PRESETS
        or name.startswith("gen:")
    )


def cmd_lint(args: argparse.Namespace) -> int:
    import json
    import os

    from .analyze import (
        Baseline,
        baseline_of,
        finding_fingerprint,
        lint_program,
        lint_target,
        partition,
        render_text,
        to_json_payload,
        write_sarif,
    )
    from .analyze.runner import _lint_target_job
    from .checks.diagnostics import Diagnostic, Diagnostics
    from .workloads import WORKLOAD_NAMES

    targets = list(args.targets) if args.targets else list(WORKLOAD_NAMES)
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.update_baseline and not args.baseline:
        raise SystemExit("lint: --update-baseline requires --baseline FILE")

    named = [t for t in targets if _is_named_lint_target(t)]
    results: dict[str, list] = {}
    with _trace_capture(args):
        if args.jobs > 1 and len(named) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                futures = [
                    pool.submit(
                        _lint_target_job,
                        t,
                        args.cache_dir,
                        args.ca,
                        args.cr,
                        args.min_mass,
                    )
                    for t in named
                ]
                for future in futures:
                    name, dicts = future.result()
                    results[name] = [Diagnostic.from_dict(d) for d in dicts]
        else:
            for t in named:
                results[t] = list(
                    lint_target(
                        t,
                        cache_dir=args.cache_dir,
                        ca=args.ca,
                        cr=args.cr,
                        min_mass=args.min_mass,
                    )
                )
        for t in targets:
            if t in results:
                continue
            if t == "running_example":
                from .workloads.running_example import (
                    running_example_module,
                    training_run_inputs,
                )

                n, inputs = training_run_inputs()
                module, prog_args, prog_inputs = (
                    running_example_module(),
                    [n],
                    inputs,
                )
            else:
                with open(t) as f:
                    module = compile_program(f.read())
                prog_args, prog_inputs = args.args, _parse_inputs(args.input)
            results[t] = list(
                lint_program(
                    module,
                    prog_args,
                    prog_inputs,
                    ca=args.ca,
                    cr=args.cr,
                    workload=t,
                    min_mass=args.min_mass,
                )
            )

    # Findings in target order (stable regardless of --jobs), each target's
    # list already ranked by mass.
    pairs = [(t, d) for t in targets for d in results[t]]

    if args.update_baseline:
        existing = (
            Baseline.load(args.baseline)
            if os.path.exists(args.baseline)
            else Baseline()
        )
        updated = Baseline()
        for t, d in pairs:
            fp = finding_fingerprint(t, d)
            justification = (
                existing.justification(fp) or args.justification
            )
            updated.record(t, d, justification)
        updated.save(args.baseline)
        print(
            f"# baseline updated: {len(updated)} finding(s) -> {args.baseline}",
            file=sys.stderr,
        )

    baseline = None
    if args.baseline and os.path.exists(args.baseline):
        baseline = Baseline.load(args.baseline)
    new, suppressed = partition(pairs, baseline)

    if args.sarif:
        write_sarif(args.sarif, pairs, baseline)
        print(f"# SARIF written to {args.sarif}", file=sys.stderr)
    if args.json:
        print(json.dumps(to_json_payload(pairs, baseline), indent=2))
    else:
        print(render_text(pairs, baseline, limit=args.limit))

    code = Diagnostics(d for _, d in new).exit_code(args.fail_on)
    if args.fail_on_new and new:
        code = code or 1
    return code


def cmd_diff(args: argparse.Namespace) -> int:
    import json as _json

    from .pipeline.cache import ArtifactCache
    from .pipeline.incremental import render_diff_text
    from .service.api import DiffRequest, execute_diff

    if _is_named_lint_target(args.old):
        version = {"target": args.old}
    else:
        with open(args.old) as f:
            version = {
                "source": f.read(),
                "name": args.old,
                "args": tuple(args.args),
                "inputs": _parse_inputs(args.input),
            }
    if args.new is not None:
        with open(args.new) as f:
            version["new_source"] = f.read()
    elif args.seed_edit:
        version["seed_edit"] = True
        version["edit_function"] = args.edit_function
    else:
        raise SystemExit("diff: give a NEW file or --seed-edit")
    try:
        request = DiffRequest(
            **version,
            ca=args.ca,
            cr=args.cr,
            min_mass=args.min_mass,
            check=args.check,
        )
    except ValueError as exc:
        raise SystemExit(f"diff: {exc}")
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    with _trace_capture(args):
        payload = execute_diff(request, cache)
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_diff_text(payload["report"] | {"timings": payload["timings"]}))
    if args.fail_on_new and payload["report"]["findings"]["new"]:
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .obs import Tracer, render_span_tree
    from .service import AnalysisService, make_server

    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.cache_dir:
        import os

        if os.path.exists(args.cache_dir) and not os.path.isdir(args.cache_dir):
            raise SystemExit(f"--cache-dir {args.cache_dir!r} is not a directory")

    tracer = Tracer(enabled=True) if args.trace else None
    service = AnalysisService(
        jobs=args.jobs, cache_dir=args.cache_dir, tracer=tracer
    )
    server = make_server(args.host, args.port, service, verbose=args.verbose)
    host, port = server.server_address[:2]

    def _interrupt(signum, frame):
        # Re-raise as KeyboardInterrupt so one shutdown path serves ^C,
        # SIGTERM, and test-driven server.shutdown() alike.
        raise KeyboardInterrupt

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, _interrupt)
        signal.signal(signal.SIGTERM, _interrupt)

    print(f"# repro serve listening on http://{host}:{port}", file=sys.stderr)
    print(
        f"# workers: {args.jobs}; cache: {args.cache_dir or '(in-memory)'}",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        abandoned = service.shutdown(drain=True)
        print(
            f"# repro serve stopped; pool drained"
            + (f" ({abandoned} queued job(s) abandoned)" if abandoned else ""),
            file=sys.stderr,
        )
        print(f"# cache activity: {service.status()['cache']}", file=sys.stderr)
        if tracer is not None and tracer.spans():
            print(render_span_tree(tracer.spans(), top=5), file=sys.stderr)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from .service import AnalysisRequest, ServiceClient, ServiceError

    if (args.target is None) == (args.file is None):
        raise SystemExit("submit: give a target name or --file, not both")
    source = None
    if args.file is not None:
        with open(args.file) as f:
            source = f.read()
    try:
        request = AnalysisRequest(
            target=args.target,
            source=source,
            name=args.file or "inline",
            args=tuple(args.args),
            inputs=_parse_inputs(args.input),
            ca=args.ca,
            cr=args.cr,
            check=not args.no_check,
        )
    except ValueError as exc:
        raise SystemExit(f"submit: {exc}")

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        if args.wait_ready:
            client.wait_ready(args.wait_ready)
        result = client.analyze(request, timeout=args.timeout)
    except ServiceError as exc:
        raise SystemExit(f"submit: {exc}")

    if args.json:
        import json

        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        summary = result["summary"]
        sharp = summary["sharpening"]
        ratio = sharp["improvement_ratio"]
        print(f"workload              : {result['workload']}")
        print(f"CFG nodes             : {summary['cfg_nodes']}")
        print(f"executed paths (train): {summary['executed_paths']}")
        print(f"hot paths (CA={args.ca}) : {summary['hot_paths']}")
        print(f"WZ non-local constants: {sharp['iterative_nonlocal']}")
        print(f"qualified non-local   : {sharp['qualified_nonlocal']}")
        print(
            "improvement ratio     : "
            + (f"{ratio:.3f}x" if ratio is not None else "inf")
        )
    diagnostics = result.get("diagnostics")
    if diagnostics is not None:
        print(f"# checks: {diagnostics['summary']}", file=sys.stderr)
        if diagnostics["has_errors"]:
            for record in diagnostics["records"]:
                print(f"#   {record}", file=sys.stderr)
            return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Path-qualified data-flow analysis (Ammons & Larus, PLDI 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile MiniC to textual IR")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="run a MiniC program and collect a profile")
    p.add_argument("file")
    p.add_argument("--args", type=int, nargs="*", default=[])
    p.add_argument("--input", action="append", default=[], metavar="NAME=V1,V2")
    p.add_argument("--save-profile", metavar="FILE")
    p.add_argument(
        "--check",
        action="store_true",
        help="run the invariant checkers on the module and profile "
        "(exit 2 on error findings)",
    )
    _add_trace_out(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("optimize", help="path-qualified optimization")
    p.add_argument("file")
    p.add_argument("--profile", required=True)
    p.add_argument("--ca", type=float, default=0.97)
    p.add_argument("--cr", type=float, default=0.95)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("dot", help="emit Graphviz for a routine's CFG or HPG")
    p.add_argument("file")
    p.add_argument("--function", required=True)
    p.add_argument("--profile")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--ca", type=float, default=0.97)
    p.add_argument("--cr", type=float, default=0.95)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("report", help="experiment summary for a workload")
    p.add_argument(
        "workload",
        help="target name (workload/handwritten/preset or gen:k=v,... "
        "spec) or a MiniC file",
    )
    p.add_argument("--ca", type=float, default=0.97)
    p.add_argument("--cr", type=float, default=0.95)
    p.add_argument(
        "--check",
        action="store_true",
        help="verify every pipeline stage with the invariant checkers "
        "(exit 2 on error findings)",
    )
    _add_trace_out(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench",
        help="coverage sweep over workloads (parallel, cached); "
        "emits the figure/table artifacts",
    )
    p.add_argument(
        "--workloads", nargs="*", metavar="NAME", help="subset (default: all)"
    )
    p.add_argument(
        "--ca",
        type=float,
        nargs="*",
        metavar="CA",
        help="coverage levels (default: the paper's Figure 9/11/12 sweep)",
    )
    p.add_argument("--cr", type=float, default=0.95)
    p.add_argument(
        "--jobs", type=int, default=1, help="process-pool width (1 = serial)"
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent artifact cache (omit for in-memory only)",
    )
    p.add_argument("--out", metavar="DIR", help="write artifacts here")
    p.add_argument(
        "--check",
        action="store_true",
        help="verify every pipeline stage in every job "
        "(exit 2 on error findings)",
    )
    p.add_argument(
        "--incremental",
        action="store_true",
        help="memoize whole sweep cells by module fingerprint: after an "
        "edit, only cells whose workload changed re-run (warm cells skip "
        "checker re-runs)",
    )
    _add_trace_out(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "suite",
        help="target x instance workload matrix: generated + hand-written "
        "targets, each cell a differential test (interp parity, dataflow "
        "parity, checks-clean)",
    )
    p.add_argument(
        "--targets",
        nargs="*",
        metavar="NAME",
        help="targets: workload/handwritten/preset names or gen:k=v,... "
        "specs (default: sieve gen-small)",
    )
    p.add_argument(
        "--instances",
        nargs="*",
        metavar="NAME",
        help="instance configurations (default: base reference)",
    )
    p.add_argument(
        "--phase",
        choices=("build", "run", "report", "all"),
        default="all",
        help="build = compile+validate only; run = execute cells; "
        "report = re-render from --archive without recomputation",
    )
    p.add_argument(
        "--jobs", type=int, default=1, help="process-pool width (1 = serial)"
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent artifact cache (omit for in-memory only)",
    )
    p.add_argument(
        "--archive",
        metavar="DIR",
        help="content-addressed cell archive (required for --phase report)",
    )
    p.add_argument("--out", metavar="DIR", help="write the suite table here")
    p.add_argument(
        "--list", action="store_true", help="list targets and instances"
    )
    _add_trace_out(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser(
        "trace",
        help="run one workload under observability; print the span-tree "
        "report and metric counters",
    )
    p.add_argument(
        "workload",
        nargs="?",
        help="target name or MiniC file (defaults to compress95 with "
        "--self-check)",
    )
    p.add_argument("--ca", type=float, default=0.97)
    p.add_argument("--cr", type=float, default=0.95)
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent artifact cache (omit for uncached)",
    )
    p.add_argument(
        "--top", type=int, default=5, help="length of the slowest-span list"
    )
    p.add_argument(
        "--self-check",
        action="store_true",
        help="verify the expected stage spans and counters were recorded "
        "(CI smoke test)",
    )
    _add_trace_out(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "serve",
        help="analysis-as-a-service daemon: HTTP/JSON job API over a shared "
        "artifact cache and worker pool (see docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port (0 = ephemeral; the chosen port is printed to stderr)",
    )
    p.add_argument(
        "--jobs", type=int, default=2, help="request worker threads"
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent artifact cache shared by every request "
        "(omit for in-memory only)",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="retain request spans and print the span tree on shutdown",
    )
    p.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit one analysis to a running 'repro serve' daemon and "
        "wait for the result",
    )
    p.add_argument(
        "target",
        nargs="?",
        help="target name (workload/handwritten/preset or gen:k=v,... spec); "
        "omit when submitting a file with --file",
    )
    p.add_argument(
        "--file", metavar="FILE.mc", help="submit inline MiniC source instead"
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8321",
        help="daemon base URL (default: %(default)s)",
    )
    p.add_argument("--args", type=int, nargs="*", default=[])
    p.add_argument("--input", action="append", default=[], metavar="NAME=V1,V2")
    p.add_argument("--ca", type=float, default=0.97)
    p.add_argument("--cr", type=float, default=0.95)
    p.add_argument(
        "--no-check",
        action="store_true",
        help="skip the invariant checkers (they run by default; "
        "error findings exit 2)",
    )
    p.add_argument("--json", action="store_true", help="print the full result payload")
    p.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="seconds to wait for the job (default: %(default)s)",
    )
    p.add_argument(
        "--wait-ready",
        type=float,
        metavar="SECONDS",
        help="first retry /healthz for up to SECONDS (for freshly "
        "backgrounded daemons)",
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "check",
        help="run the self-verifying analysis layer: IR/profile/automaton/"
        "HPG/dataflow invariant checks and lints",
    )
    p.add_argument(
        "target",
        nargs="?",
        help="target name (workload/handwritten/preset or gen:k=v,... "
        "spec), 'running_example', or a MiniC file",
    )
    p.add_argument("--args", type=int, nargs="*", default=[])
    p.add_argument("--input", action="append", default=[], metavar="NAME=V1,V2")
    p.add_argument("--ca", type=float, default=0.97)
    p.add_argument("--cr", type=float, default=0.95)
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent artifact cache (cached artifacts are checked too)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="lowest severity that makes the exit code non-zero",
    )
    p.add_argument(
        "--self-check",
        action="store_true",
        help="verify the checkers themselves: a clean run reports no "
        "errors and a seeded defect is caught (CI smoke test)",
    )
    _add_trace_out(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "lint",
        help="profile-qualified static analyzer: hot-path-ranked LINT "
        "findings with SARIF export and baseline suppression "
        "(see docs/ANALYZER.md)",
    )
    p.add_argument(
        "targets",
        nargs="*",
        metavar="TARGET",
        help="workload/handwritten/preset names, gen:k=v,... specs, "
        "'running_example', or MiniC files (default: all registered "
        "workloads)",
    )
    p.add_argument("--args", type=int, nargs="*", default=[],
                   help="program arguments for MiniC file targets")
    p.add_argument("--input", action="append", default=[],
                   metavar="NAME=V1,V2",
                   help="input arrays for MiniC file targets")
    p.add_argument("--ca", type=float, default=0.97)
    p.add_argument("--cr", type=float, default=0.95)
    p.add_argument(
        "--min-mass",
        type=float,
        default=0.5,
        help="drop path findings whose supporting profile-mass fraction "
        "is below this threshold (default: %(default)s)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent artifact cache (findings are cached under the "
        "analyzer configuration)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool width over named targets (1 = serial)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--sarif", metavar="FILE", help="also write a SARIF 2.1.0 log"
    )
    p.add_argument(
        "--baseline",
        metavar="FILE",
        help="content-addressed baseline of accepted findings "
        "(suppresses known findings; see --fail-on-new)",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline to accept every current finding "
        "(existing justifications are preserved)",
    )
    p.add_argument(
        "--justification",
        default="accepted at baseline update",
        help="justification recorded for newly baselined findings",
    )
    p.add_argument(
        "--fail-on-new",
        action="store_true",
        help="exit non-zero when any finding is not in the baseline",
    )
    p.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="never",
        help="lowest severity of *new* findings that makes the exit code "
        "non-zero (default: %(default)s)",
    )
    p.add_argument(
        "--limit", type=int, default=None,
        help="show at most this many findings in the text report",
    )
    _add_trace_out(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "diff",
        help="incremental re-analysis of an edit: per-function "
        "hit/recompute ledger plus new/fixed/unchanged findings "
        "(see docs/INCREMENTAL.md)",
    )
    p.add_argument(
        "old",
        metavar="OLD",
        help="old version: a named target (workload/preset/gen:spec) "
        "or a MiniC file",
    )
    p.add_argument(
        "new",
        nargs="?",
        metavar="NEW",
        help="new version: a MiniC file (omit with --seed-edit)",
    )
    p.add_argument(
        "--seed-edit",
        action="store_true",
        help="derive the new version by injecting a deterministic "
        "one-function edit into the old source (benchmark/smoke mode)",
    )
    p.add_argument(
        "--edit-function",
        metavar="NAME",
        help="function the seeded edit targets (default: the first)",
    )
    p.add_argument("--args", type=int, nargs="*", default=[],
                   help="program arguments for MiniC file targets")
    p.add_argument("--input", action="append", default=[],
                   metavar="NAME=V1,V2",
                   help="input arrays for MiniC file targets")
    p.add_argument("--ca", type=float, default=0.97)
    p.add_argument("--cr", type=float, default=0.95)
    p.add_argument(
        "--min-mass",
        type=float,
        default=0.5,
        help="analyzer mass threshold (default: %(default)s)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent artifact cache shared between the two versions "
        "(and with earlier runs)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="run the pipeline checkers on both versions and diff their "
        "diagnostics",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--fail-on-new",
        action="store_true",
        help="exit 1 when the edit introduces any new lint finding",
    )
    _add_trace_out(p)
    p.set_defaults(func=cmd_diff)

    return parser


def _add_trace_out(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        help="stream the command's spans (then metrics) as line-buffered "
        "JSONL — tailable while the command runs",
    )
    p.add_argument(
        "--mem-spans",
        action="store_true",
        help="annotate every span with its tracemalloc peak (mem_peak_kb); "
        "implies observability capture",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)
