"""Command-line interface.

Mirrors the paper's two-pass tooling (PP instruments and profiles; PW
analyzes and optimizes) as subcommands::

    python -m repro compile  prog.mc                 # MiniC -> textual IR
    python -m repro run      prog.mc --args 10 --input data=1,2,3 \\
                             --save-profile prog.prof
    python -m repro optimize prog.mc --profile prog.prof --ca 0.97 --cr 0.95
    python -m repro dot      prog.mc --function work --profile prog.prof
    python -m repro report   m88ksim95
    python -m repro lint     sieve prog.mc --args 10 --jobs 2
    python -m repro bench    --jobs 4 --cache-dir .repro-cache --out results/
    python -m repro serve    --port 8321 --jobs 4 --cache-dir .repro-cache
    python -m repro submit   gen-small --url http://127.0.0.1:8321

The analysis verbs (``report``, ``check``, ``trace``, ``lint``, ``diff``,
``submit``) resolve their target once into request fields
(:func:`_program`), build the request kind the daemon takes, and run it
through that kind's ``execute_*`` executor — or post it to a daemon — so
the CLI and ``repro serve`` agree by construction.

All subcommands are pure functions of their inputs, so they are unit-tested
by invoking :func:`main` directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack, closing, contextmanager
from typing import Optional, Sequence

from .core import run_qualified
from .frontend import MiniCError, compile_program
from .interp import Interpreter
from .ir import validate_module
from .ir.dot import cfg_to_dot, traced_to_dot
from .opt.driver import optimize_module
from .profiles.serialize import dumps_profiles, loads_profiles


@contextmanager
def _capture(args: argparse.Namespace, always: bool = False):
    """Run a verb's body under observability capture when ``always`` or when
    ``--trace-out``/``--mem-spans`` ask for it, yielding the capturing
    tracer and registry (``None, None`` without capture).  Spans stream to
    the ``--trace-out`` JSONL file as they close (so a live sweep can be
    tailed), and ``--mem-spans`` annotates each with its tracemalloc peak."""
    trace_out = getattr(args, "trace_out", None)
    mem_spans = getattr(args, "mem_spans", False)
    if not (always or trace_out or mem_spans):
        yield None, None
        return
    from .obs import capture, memory_sampling, stream_trace_jsonl

    with ExitStack() as stack:
        tracer, registry = stack.enter_context(capture())
        if mem_spans:
            stack.enter_context(memory_sampling())
        if trace_out:
            stack.enter_context(stream_trace_jsonl(trace_out, tracer, registry))
        yield tracer, registry
    if trace_out:
        print(f"# trace written to {trace_out}", file=sys.stderr)


def _parse_inputs(args: argparse.Namespace) -> dict[str, list[int]]:
    """The verb's ``--input NAME=V1,V2`` arrays (none without the option)."""
    inputs: dict[str, list[int]] = {}
    for pair in getattr(args, "input", ()):
        name, sep, values = pair.partition("=")
        try:
            inputs[name] = [int(v) for v in values.split(",") if v != ""]
        except ValueError:
            sep = ""
        if not sep:
            raise SystemExit(
                f"repro {args.command}: --input expects name=v1,v2,...; "
                f"got {pair!r}"
            )
    return inputs


def _read(args: argparse.Namespace, path: str) -> str:
    """The text of a file the verb was given; an unreadable one ends the
    verb with one line naming it."""
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise SystemExit(f"repro {args.command}: {path}: {exc.strerror}")


def _checked(args: argparse.Namespace, parse, /, *values, **fields):
    """``parse(*values, **fields)`` — a request class, a target check, or
    an analysis of the running example — with the ``ValueError`` it raises
    on malformed input ending the verb in one line."""
    try:
        return parse(*values, **fields)
    except ValueError as exc:
        raise SystemExit(f"repro {args.command}: {exc}")


def _program(args: argparse.Namespace, target: str) -> dict:
    """The request fields naming ``target``: a target name as itself,
    anything else a MiniC file run on the verb's ``--args``/``--input``."""
    from .workloads.matrix import is_target

    if is_target(target):
        return {"target": target}
    return {
        "source": _read(args, target),
        "name": target,
        "args": tuple(getattr(args, "args", ())),
        "inputs": _parse_inputs(args),
    }


def _on_running_example(args: argparse.Namespace, analyze, **fields):
    """``analyze`` (``check_program`` or ``lint_program``) over the paper's
    running example, which is built in IR — keeping Figure 1's block
    labels — and so cannot be a MiniC request."""
    from .workloads.running_example import (
        running_example_module,
        training_run_inputs,
    )

    n, inputs = training_run_inputs()
    return _checked(
        args,
        analyze,
        running_example_module(),
        [n],
        inputs,
        ca=args.ca,
        cr=args.cr,
        workload="running_example",
        **fields,
    )


def _load_module(args: argparse.Namespace, path: str):
    module = compile_program(_read(args, path))
    validate_module(module)
    return module


def _print_checks(payload: dict) -> int:
    """An analysis payload's checker findings, on stderr; returns the exit
    code (2 when they include errors)."""
    from .checks.diagnostics import Diagnostics

    diagnostics = payload["diagnostics"]
    if diagnostics is None:
        return 0
    print(f"# checks: {diagnostics['summary']}", file=sys.stderr)
    for d in Diagnostics.from_dicts(diagnostics["records"]):
        print(f"#   {d.format()}", file=sys.stderr)
    return 2 if diagnostics["has_errors"] else 0


def _print_analysis(target: str, payload: dict) -> int:
    """An analysis payload as ``report`` and ``submit`` print it (the
    Table-2 rows when it has them); returns :func:`_print_checks`' code."""
    from .evaluation import format_table

    summary, config = payload["summary"], payload["config"]
    sizes, sharp = summary["graph_sizes"], summary["sharpening"]
    rows = [
        ["CFG nodes", summary["cfg_nodes"]],
        ["executed paths (train)", summary["executed_paths"]],
        [f"hot paths (CA={config['ca']})", summary["hot_paths"]],
        ["traced vertices", sizes["traced"]],
        ["reduced vertices", sizes["reduced"]],
        ["WZ non-local constants", sharp["iterative_nonlocal"]],
        ["qualified non-local constants", sharp["qualified_nonlocal"]],
    ]
    table2 = summary.get("table2")
    if table2 is not None:
        rows += [
            ["base cost", table2["base_cost"]],
            ["optimized cost", table2["optimized_cost"]],
            ["speedup", f"{table2['speedup']:.3f}x"],
        ]
    title = f"{target} @ CA={config['ca']}, CR={config['cr']}"
    print(format_table(["metric", "value"], rows, title=title))
    return _print_checks(payload)


def cmd_compile(args: argparse.Namespace) -> int:
    module = _load_module(args, args.file)
    text = str(module) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    with _capture(args):
        module = _load_module(args, args.file)
        interp = Interpreter(
            module, profile_mode="bl", track_sites=False, engine="compiled"
        )
        result = interp.run(args.args, _parse_inputs(args))
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
    module = _load_module(args, args.file)
    profiles = loads_profiles(_read(args, args.profile))
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

    module = _load_module(args, args.file)
    fn = module.functions.get(args.function)
    if fn is None:
        raise SystemExit(f"no function {args.function!r} in {args.file}")
    if args.profile:
        profile = loads_profiles(_read(args, args.profile)).get(args.function)
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
    from .obs import render_span_tree
    from .service.api import AnalysisRequest, execute_request

    request = _checked(
        args,
        AnalysisRequest,
        **_program(args, args.target),
        ca=args.ca,
        cr=args.cr,
        check=args.check,
        table2=True,
    )
    with _capture(args, always=True) as (tracer, _):
        payload = execute_request(request)
    code = _print_analysis(args.target, payload)
    print()
    print("stage spans:")
    # The capture records every span; the summary shows the run's stages.
    stages = [s for s in tracer.spans() if s.name.startswith("workload.")]
    print(render_span_tree(stages, top=3))
    return code


def cmd_bench(args: argparse.Namespace) -> int:
    from .evaluation.harness import CA_SWEEP
    from .pipeline import ParallelDriver
    from .service.api import SweepRequest
    from .workloads import WORKLOAD_NAMES

    request = _checked(
        args,
        SweepRequest,
        workloads=tuple(args.workloads or ()),
        ca_values=tuple(args.ca or ()),
        cr=args.cr,
        jobs=args.jobs,
        check=args.check,
    )
    driver = ParallelDriver(
        jobs=request.jobs,
        cache_dir=args.cache_dir,
        cr=request.cr,
        check=request.check,
        incremental=args.incremental,
    )
    with _capture(args):
        result = driver.sweep(
            request.workloads or WORKLOAD_NAMES, request.ca_values or CA_SWEEP
        )
    artifacts = result.artifacts()
    if args.out:
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
        check_target,
        load_archived,
        resolve_instances,
    )

    if args.list:
        print("targets  :", " ".join(TARGET_NAMES))
        print("instances:", " ".join(INSTANCES))
        print("(targets also accept ad-hoc gen:key=value,... specs)")
        return 0
    targets = tuple(args.targets) if args.targets else ("sieve", "gen-small")
    instance_names = tuple(args.instances) if args.instances else ("base", "reference")
    for name in targets:
        _checked(args, check_target, name)
    try:
        instances = resolve_instances(instance_names)
    except KeyError as exc:
        raise SystemExit(str(exc))

    with _capture(args):
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
    from .obs import render_trace_report
    from .pipeline import ArtifactCache
    from .service.api import AnalysisRequest, execute_request

    target = args.target
    if target is None:
        if not args.self_check:
            raise SystemExit("trace: give a workload name (or --self-check)")
        target = "compress95"
    request = _checked(
        args,
        AnalysisRequest,
        **_program(args, target),
        ca=args.ca,
        cr=args.cr,
        check=False,
    )
    with _capture(args, always=True) as (tracer, registry):
        execute_request(request, ArtifactCache(args.cache_dir))
    print(render_trace_report(tracer, registry, top=args.top))
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

    The clean pipeline runs under the engine scope of the ``base`` and
    then of the ``compiled`` matrix instance, so both solver kernels are
    smoked end to end at every graph size too."""
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
    for instance in ("base", "compiled"):
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
    from .checks.diagnostics import Diagnostics
    from .pipeline import ArtifactCache
    from .service.api import AnalysisRequest, execute_request

    if args.self_check:
        return _check_self_check()
    if not args.target:
        raise SystemExit("check: give a target name, a .mc file, or --self-check")
    request = None
    if args.target != "running_example":
        request = _checked(
            args,
            AnalysisRequest,
            **_program(args, args.target),
            ca=args.ca,
            cr=args.cr,
        )
    # Per-pass wall times ride along in the JSON payload.
    with _capture(args, always=args.json) as (tracer, _):
        if request is not None:
            payload = execute_request(request, ArtifactCache(args.cache_dir))
            diags = Diagnostics.from_dicts(payload["diagnostics"]["records"])
        else:
            from .checks.runner import check_program

            diags = _on_running_example(args, check_program)
    if args.json:
        report = {
            "diagnostics": diags.to_dicts(),
            "counts": diags.counts(),
            "timings": _aggregate_span_timings(tracer.spans()),
        }
        print(json.dumps(report, indent=2))
    else:
        print(diags.render_text())
    return diags.exit_code(args.fail_on)


def _lint_job(request, cache_dir: Optional[str]) -> list[dict]:
    """One lint request's findings (module level, so ``--jobs`` can fan it
    out over a process pool)."""
    from .pipeline import ArtifactCache
    from .service.api import execute_lint

    return execute_lint(request, ArtifactCache(cache_dir))["findings"]


def cmd_lint(args: argparse.Namespace) -> int:
    from .analyze import (
        Baseline,
        finding_fingerprint,
        lint_program,
        partition,
        render_text,
        to_json_payload,
        write_sarif,
    )
    from .checks.diagnostics import Diagnostic, Diagnostics
    from .pipeline.driver import fan_out
    from .service.api import LintRequest
    from .workloads import WORKLOAD_NAMES

    targets = list(args.targets) if args.targets else list(WORKLOAD_NAMES)
    if args.update_baseline and not args.baseline:
        raise SystemExit("lint: --update-baseline requires --baseline FILE")
    requests = {
        t: _checked(
            args,
            LintRequest,
            **_program(args, t),
            ca=args.ca,
            cr=args.cr,
            min_mass=args.min_mass,
        )
        for t in targets
        if t != "running_example"
    }
    findings: dict[str, list] = {}
    jobs = [(request, args.cache_dir) for request in requests.values()]
    with _capture(args), closing(fan_out(args.jobs, _lint_job, jobs)) as results:
        for t in requests:
            try:
                findings[t] = [Diagnostic.from_dict(d) for d in next(results)]
            except MiniCError as exc:
                raise SystemExit(f"repro lint: {t}: {exc}")
        if "running_example" in targets:
            findings["running_example"] = _on_running_example(
                args, lint_program, min_mass=args.min_mass
            )

    # Findings in target order (stable regardless of --jobs), each target's
    # list already ranked by mass.
    pairs = [(t, d) for t in targets for d in findings[t]]

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
    from .pipeline.cache import ArtifactCache
    from .pipeline.incremental import render_diff_text
    from .service.api import DiffRequest, execute_diff

    if (args.new is None) != args.seed_edit:
        raise SystemExit("diff: give a NEW file or --seed-edit")
    request = _checked(
        args,
        DiffRequest,
        **_program(args, args.old),
        new_source=None if args.new is None else _read(args, args.new),
        seed_edit=args.seed_edit,
        edit_function=args.edit_function,
        ca=args.ca,
        cr=args.cr,
        min_mass=args.min_mass,
        check=args.check,
    )
    with _capture(args):
        payload = execute_diff(request, ArtifactCache(args.cache_dir))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
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

    request = _checked(
        args,
        AnalysisRequest,
        **_program(args, args.target),
        ca=args.ca,
        cr=args.cr,
        check=not args.no_check,
    )
    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        if args.wait_ready:
            client.wait_ready(args.wait_ready)
        payload = client.analyze(request, timeout=args.timeout)
    except ServiceError as exc:
        raise SystemExit(f"submit: {exc}")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return _print_checks(payload)
    return _print_analysis(args.target, payload)


def _jobs_arg(text: str) -> int:
    """``--jobs``: a pool width of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _cache_dir_arg(text: str) -> str:
    """``--cache-dir``: a directory, or a path where one can be made."""
    if os.path.exists(text) and not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a directory")
    return text


def _parent() -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Path-qualified data-flow analysis (Ammons & Larus, PLDI 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options several verbs share, each defined once.
    cr = _parent()
    cr.add_argument(
        "--cr", type=float, default=0.95,
        help="reduction coverage CR (default: %(default)s)",
    )
    coverage = argparse.ArgumentParser(add_help=False, parents=[cr])
    coverage.add_argument(
        "--ca", type=float, default=0.97,
        help="hot-path coverage CA (default: %(default)s)",
    )
    program = _parent()
    program.add_argument(
        "--args", type=int, nargs="*", default=[],
        help="program arguments for MiniC file targets",
    )
    program.add_argument(
        "--input", action="append", default=[], metavar="NAME=V1,V2",
        help="input arrays for MiniC file targets",
    )
    cache = _parent()
    cache.add_argument(
        "--cache-dir", metavar="DIR", type=_cache_dir_arg,
        help="persistent artifact cache (omit for in-memory only)",
    )
    min_mass = _parent()
    min_mass.add_argument(
        "--min-mass", type=float, default=0.5,
        help="drop path findings whose supporting profile-mass fraction "
        "is below this threshold (default: %(default)s)",
    )
    json_out = _parent()
    json_out.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    trace_out = _parent()
    trace_out.add_argument(
        "--trace-out",
        metavar="FILE",
        help="stream the command's spans (then metrics) as line-buffered "
        "JSONL — tailable while the command runs",
    )
    trace_out.add_argument(
        "--mem-spans",
        action="store_true",
        help="annotate every span with its tracemalloc peak (mem_peak_kb); "
        "implies observability capture",
    )

    def jobs(default: int) -> argparse.ArgumentParser:
        p = _parent()
        p.add_argument(
            "--jobs", type=_jobs_arg, default=default,
            help="worker pool width (default: %(default)s; 1 = serial)",
        )
        return p

    target_help = (
        "target name (workload/handwritten/preset or gen:k=v,... spec) "
        "or a MiniC file"
    )

    p = sub.add_parser("compile", help="compile MiniC to textual IR")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "run",
        help="run a MiniC program and collect a profile",
        parents=[program, trace_out],
    )
    p.add_argument("file")
    p.add_argument("--save-profile", metavar="FILE")
    p.add_argument(
        "--check",
        action="store_true",
        help="run the invariant checkers on the module and profile "
        "(exit 2 on error findings)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "optimize", help="path-qualified optimization", parents=[coverage]
    )
    p.add_argument("file")
    p.add_argument("--profile", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser(
        "dot",
        help="emit Graphviz for a routine's CFG or HPG",
        parents=[coverage],
    )
    p.add_argument("file")
    p.add_argument("--function", required=True)
    p.add_argument("--profile")
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser(
        "report",
        help="experiment summary for a workload",
        parents=[coverage, trace_out],
    )
    p.add_argument("target", help=target_help)
    p.add_argument(
        "--check",
        action="store_true",
        help="verify every pipeline stage with the invariant checkers "
        "(exit 2 on error findings)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench",
        help="coverage sweep over workloads (parallel, cached); "
        "emits the figure/table artifacts",
        parents=[cr, jobs(1), cache, trace_out],
    )
    p.add_argument(
        "--workloads",
        nargs="*",
        metavar="NAME",
        help="target names (default: the seven SPEC workloads)",
    )
    p.add_argument(
        "--ca",
        type=float,
        nargs="*",
        metavar="CA",
        help="coverage levels (default: the paper's Figure 9/11/12 sweep)",
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
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "suite",
        help="target x instance workload matrix: generated + hand-written "
        "targets, each cell a differential test (interp parity, dataflow "
        "parity, checks-clean)",
        parents=[jobs(1), cache, trace_out],
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
        "--archive",
        metavar="DIR",
        help="content-addressed cell archive (required for --phase report)",
    )
    p.add_argument("--out", metavar="DIR", help="write the suite table here")
    p.add_argument(
        "--list", action="store_true", help="list targets and instances"
    )
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser(
        "trace",
        help="run one workload under observability; print the span-tree "
        "report and metric counters",
        parents=[coverage, cache, trace_out],
    )
    p.add_argument(
        "target",
        nargs="?",
        help=target_help + " (defaults to compress95 with --self-check)",
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
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "serve",
        help="analysis-as-a-service daemon: HTTP/JSON job API over a shared "
        "artifact cache and worker pool (see docs/SERVICE.md)",
        parents=[jobs(2), cache],
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port (0 = ephemeral; the chosen port is printed to stderr)",
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
        parents=[program, coverage, json_out],
    )
    p.add_argument("target", help=target_help)
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8321",
        help="daemon base URL (default: %(default)s)",
    )
    p.add_argument(
        "--no-check",
        action="store_true",
        help="skip the invariant checkers (they run by default; "
        "error findings exit 2)",
    )
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
        parents=[program, coverage, cache, json_out, trace_out],
    )
    p.add_argument(
        "target", nargs="?", help=target_help + ", or 'running_example'"
    )
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
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "lint",
        help="profile-qualified static analyzer: hot-path-ranked LINT "
        "findings with SARIF export and baseline suppression "
        "(see docs/ANALYZER.md)",
        parents=[
            program, coverage, min_mass, cache, jobs(1), json_out, trace_out
        ],
    )
    p.add_argument(
        "targets",
        nargs="*",
        metavar="TARGET",
        help="workload/handwritten/preset names, gen:k=v,... specs, "
        "'running_example', or MiniC files (default: all registered "
        "workloads)",
    )
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
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "diff",
        help="incremental re-analysis of an edit: per-function "
        "hit/recompute ledger plus new/fixed/unchanged findings "
        "(see docs/INCREMENTAL.md)",
        parents=[program, coverage, min_mass, cache, json_out, trace_out],
    )
    p.add_argument("old", metavar="OLD", help="old version: " + target_help)
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
    p.add_argument(
        "--check",
        action="store_true",
        help="run the pipeline checkers on both versions and diff their "
        "diagnostics",
    )
    p.add_argument(
        "--fail-on-new",
        action="store_true",
        help="exit 1 when the edit introduces any new lint finding",
    )
    p.set_defaults(func=cmd_diff)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Malformed input ends a verb with one line: the request parsers and
    :func:`_read` raise ``SystemExit`` themselves, and a MiniC error is
    reported here against the program(s) the verb was given."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MiniCError as exc:
        keys = ("file", "target", "old", "new")
        programs = " / ".join(getattr(args, k) for k in keys if getattr(args, k, None))
        raise SystemExit(f"repro {args.command}: {programs}: {exc}")
