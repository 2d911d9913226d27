"""CLI tests: each subcommand invoked through main()."""

import json

import pytest

from repro.cli import main
from repro.frontend import compile_program
from repro.interp import run_module
from repro.ir import parse_module

SOURCE = """
global data[8];

func kernel(n) {
  var i = 0;
  var acc = 0;
  while (i < n) {
    var step; var bonus;
    if (data[i] > 0) { step = 1; bonus = 3; }
    else             { step = 2; bonus = 7; }
    acc = acc + bonus * 4 + step;
    i = i + step;
  }
  print(acc);
  return acc;
}

func main(n) { return kernel(n); }
"""


@pytest.fixture()
def prog(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(SOURCE)
    return path


class TestCompile:
    def test_compile_to_stdout(self, prog, capsys):
        assert main(["compile", str(prog)]) == 0
        out = capsys.readouterr().out
        module = parse_module(out)
        assert set(module.functions) == {"kernel", "main"}

    def test_compile_to_file(self, prog, tmp_path):
        out = tmp_path / "prog.ir"
        assert main(["compile", str(prog), "-o", str(out)]) == 0
        module = parse_module(out.read_text())
        assert "data" in module.arrays


class TestRun:
    def test_run_prints_output(self, prog, capsys):
        rc = main(
            ["run", str(prog), "--args", "6", "--input", "data=1,1,0,1,0,1"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.strip().isdigit()
        assert "# cost (cycles):" in captured.err

    def test_run_saves_profile(self, prog, tmp_path, capsys):
        profile_file = tmp_path / "prog.prof"
        main(
            [
                "run",
                str(prog),
                "--args",
                "6",
                "--input",
                "data=1,1,0,1,0,1",
                "--save-profile",
                str(profile_file),
            ]
        )
        text = profile_file.read_text()
        assert text.startswith("# repro path profile v1")
        assert "routine kernel" in text

    def test_bad_input_spec(self, prog):
        with pytest.raises(SystemExit):
            main(["run", str(prog), "--input", "data"])


class TestOptimize:
    def test_end_to_end(self, prog, tmp_path, capsys):
        profile_file = tmp_path / "prog.prof"
        main(
            [
                "run",
                str(prog),
                "--args",
                "8",
                "--input",
                "data=1,1,1,0,1,1,0,1",
                "--save-profile",
                str(profile_file),
            ]
        )
        baseline_out = capsys.readouterr().out
        out_file = tmp_path / "opt.ir"
        rc = main(
            [
                "optimize",
                str(prog),
                "--profile",
                str(profile_file),
                "-o",
                str(out_file),
            ]
        )
        assert rc == 0
        optimized = parse_module(out_file.read_text())
        # The optimized module still behaves identically.
        result = run_module(
            optimized,
            args=[8],
            inputs={"data": [1, 1, 1, 0, 1, 1, 0, 1]},
            profile_mode=None,
        )
        assert "\n".join(
            " ".join(map(str, t)) for t in result.output
        ) == baseline_out.strip()
        # Duplication happened: kernel gained blocks.
        original = compile_program(SOURCE)
        assert len(optimized.functions["kernel"].blocks) >= len(
            original.functions["kernel"].blocks
        )


class TestDot:
    def test_plain_cfg_dot(self, prog, capsys):
        assert main(["dot", str(prog), "--function", "kernel"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph kernel {")

    def test_traced_dot_with_profile(self, prog, tmp_path, capsys):
        profile_file = tmp_path / "prog.prof"
        main(
            [
                "run",
                str(prog),
                "--args",
                "8",
                "--input",
                "data=1,1,1,0,1,1,0,1",
                "--save-profile",
                str(profile_file),
            ]
        )
        capsys.readouterr()
        rc = main(
            [
                "dot",
                str(prog),
                "--function",
                "kernel",
                "--profile",
                str(profile_file),
                "--ca",
                "1.0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "@q" in out  # duplicated vertices present

    def test_unknown_function(self, prog):
        with pytest.raises(SystemExit):
            main(["dot", str(prog), "--function", "ghost"])


class TestReport:
    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["report", "gcc95"])

    def test_report_runs(self, capsys):
        assert main(["report", "compress95"]) == 0
        out = capsys.readouterr().out
        assert "qualified non-local constants" in out
        assert "speedup" in out


class TestBench:
    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["bench", "--workloads", "gcc95"])

    def test_any_named_target(self, capsys):
        assert main(["bench", "--workloads", "sieve", "--ca", "0.97"]) == 0
        assert "sieve" in capsys.readouterr().out

    def test_bench_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        rc = main(
            [
                "bench",
                "--workloads",
                "compress95",
                "--ca",
                "0.0",
                "0.97",
                "--jobs",
                "1",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        written = {p.name for p in out_dir.iterdir()}
        assert written == {"fig9.txt", "fig11.txt", "table1.txt", "table2.txt"}
        err = capsys.readouterr().err
        assert "# cache activity" in err

    def test_bench_prints_to_stdout(self, capsys):
        rc = main(
            ["bench", "--workloads", "compress95", "--ca", "0.97", "--jobs", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "compress95" in out

    def test_bench_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "bench.jsonl"
        rc = main(
            [
                "bench",
                "--workloads",
                "compress95",
                "--ca",
                "0.97",
                "--jobs",
                "1",
                "--trace-out",
                str(trace),
            ]
        )
        assert rc == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {r["name"] for r in records if r["type"] == "span"}
        assert "driver.sweep" in names and "workload.compile" in names


class TestTrace:
    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["trace", "gcc95"])

    def test_trace_resolves_generated_targets(self, capsys):
        assert main(["trace", "gen-small"]) == 0
        assert "- workload.qualify" in capsys.readouterr().out

    def test_requires_workload_or_self_check(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_trace_prints_tree_and_metrics(self, capsys):
        assert main(["trace", "compress95"]) == 0
        out = capsys.readouterr().out
        assert "== trace ==" in out
        assert "- workload.compile" in out
        assert "- workload.qualify" in out
        assert "slowest spans:" in out
        assert "== metrics ==" in out
        assert "interp_instructions" in out

    def test_trace_out_writes_valid_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        rc = main(["trace", "compress95", "--trace-out", str(trace)])
        assert rc == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records, "trace file is empty"
        types = {r["type"] for r in records}
        assert types >= {"span", "counter"}

    def test_self_check(self, capsys):
        assert main(["trace", "--self-check"]) == 0
        err = capsys.readouterr().err
        assert "self-check OK" in err

    def test_run_trace_out(self, prog, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        rc = main(
            ["run", str(prog), "--args", "6", "--trace-out", str(trace)]
        )
        assert rc == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {r["name"] for r in records if r["type"] == "span"}
        assert "interp.run" in names

    def test_report_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "report.jsonl"
        rc = main(["report", "compress95", "--trace-out", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage spans:" in out
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"workload.compile", "workload.qualify"} <= names


class TestCheck:
    def test_self_check(self, capsys):
        assert main(["check", "--self-check"]) == 0
        err = capsys.readouterr().err
        assert "# self-check OK" in err

    def test_self_check_also_runs_the_dense_wz_engine(self, monkeypatch):
        from repro.checks import runner
        from repro.dataflow import get_default_engine

        seen = []
        real = runner.check_program

        def spy(*args, **kwargs):
            seen.append(get_default_engine())
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "check_program", spy)
        assert main(["check", "--self-check"]) == 0
        assert seen == ["auto", "compiled"]

    def test_requires_target_or_self_check(self):
        with pytest.raises(SystemExit):
            main(["check"])

    def test_running_example_clean(self, capsys):
        assert main(["check", "running_example"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_workload_clean(self, capsys):
        assert main(["check", "compress95"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_handwritten_target_clean(self, capsys):
        assert main(["check", "sieve"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_missing_file_is_one_line(self, tmp_path):
        missing = str(tmp_path / "absent.mc")
        with pytest.raises(SystemExit) as exc:
            main(["check", missing])
        message = str(exc.value.code)
        assert missing in message and "\n" not in message

    def test_program_file(self, prog, capsys):
        rc = main(
            ["check", str(prog), "--args", "6", "--input", "data=1,1,0,1,0,1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_json_output(self, prog, capsys):
        rc = main(
            [
                "check",
                str(prog),
                "--args",
                "6",
                "--input",
                "data=1,1,0,1,0,1",
                "--json",
            ]
        )
        assert rc == 0
        parsed = json.loads(capsys.readouterr().out)
        assert set(parsed) == {"diagnostics", "counts", "timings"}
        # The timings map aggregates spans by name; the checker's own
        # passes appear as check.<name> entries among the pipeline spans.
        assert any(name.startswith("check.") for name in parsed["timings"])
        assert all(d >= 0.0 for d in parsed["timings"].values())

    def test_fail_on_warning(self, capsys):
        # compress95 carries known dead-store lint warnings, so promoting
        # warnings to failures must flip the exit code to 1.
        assert main(["check", "compress95"]) == 0
        capsys.readouterr()
        assert main(["check", "compress95", "--fail-on", "warning"]) == 1

    def test_run_with_check_flag(self, prog, capsys):
        rc = main(
            [
                "run",
                str(prog),
                "--args",
                "6",
                "--input",
                "data=1,1,0,1,0,1",
                "--check",
            ]
        )
        assert rc == 0
        assert "# checks:" in capsys.readouterr().err

    def test_report_with_check_flag(self, capsys):
        assert main(["report", "compress95", "--check"]) == 0
        assert "# checks:" in capsys.readouterr().err

    def test_bench_with_check_flag(self, capsys):
        rc = main(
            [
                "bench",
                "--workloads",
                "compress95",
                "--ca",
                "0.97",
                "--jobs",
                "1",
                "--check",
            ]
        )
        assert rc == 0
        assert "# checks" in capsys.readouterr().err


class TestDataflowEngineFlag:
    """No verb takes an engine flag: engines follow the context scope
    (``engine_scope``).  Also ``--mem-spans``."""

    def test_trace_engine_choices_rejected(self, capsys):
        verbs = ("run", "report", "bench", "suite", "trace", "submit",
                 "check", "lint", "diff")
        for verb in verbs:
            for flag in ("--engine", "--dataflow-engine", "--wz-engine"):
                with pytest.raises(SystemExit) as exc:
                    main([verb, "compress95", flag, "generic"])
                assert exc.value.code == 2, (verb, flag)
                assert "unrecognized arguments" in capsys.readouterr().err

    def test_check_runs_clean_on_both_engines(self, capsys):
        from repro.dataflow import engine_scope

        for engine in ("compiled", "generic"):
            with engine_scope(engine):
                assert main(["check", "compress95"]) == 0
            assert "0 error(s)" in capsys.readouterr().out

    def test_trace_mem_spans_annotates_every_span(self, tmp_path, capsys):
        trace = tmp_path / "mem.jsonl"
        rc = main(
            [
                "trace",
                "compress95",
                "--mem-spans",
                "--trace-out",
                str(trace),
            ]
        )
        assert rc == 0
        spans = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if json.loads(line)["type"] == "span"
        ]
        assert spans
        assert all("mem_peak_kb" in s["attrs"] for s in spans)

    def test_trace_without_mem_spans_has_no_annotation(self, tmp_path):
        trace = tmp_path / "plain.jsonl"
        assert main(
            ["trace", "compress95", "--trace-out", str(trace)]
        ) == 0
        spans = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if json.loads(line)["type"] == "span"
        ]
        assert spans
        assert all("mem_peak_kb" not in s["attrs"] for s in spans)


#: A MiniC program with a syntax error on line 2.
BAD_SOURCE = "func main() {\n  return 1 + ;\n}\n"

#: (argv, what the one-line message must name).  ``{missing}`` is a path
#: that does not exist, ``{bad}`` a file holding ``BAD_SOURCE``, and
#: ``{prog}`` a valid program.
MALFORMED_INPUTS = [
    pytest.param(argv, named, id=label)
    for label, argv, named in (
        ("lint-missing", ["lint", "{missing}"], "{missing}"),
        ("diff-old-missing", ["diff", "{missing}", "--seed-edit"], "{missing}"),
        ("diff-new-missing", ["diff", "{prog}", "{missing}"], "{missing}"),
        ("submit-missing",
         ["submit", "{missing}", "--url", "http://127.0.0.1:9"], "{missing}"),
        ("run-missing", ["run", "{missing}"], "{missing}"),
        ("compile-missing", ["compile", "{missing}"], "{missing}"),
        ("optimize-missing",
         ["optimize", "{missing}", "--profile", "{missing}"], "{missing}"),
        ("optimize-profile-missing",
         ["optimize", "{prog}", "--profile", "{missing}"], "{missing}"),
        ("dot-missing", ["dot", "{missing}", "--function", "main"], "{missing}"),
        ("lint-syntax", ["lint", "{bad}"], "{bad}: line 2"),
        ("report-syntax", ["report", "{bad}"], "{bad}: line 2"),
        ("check-syntax", ["check", "{bad}"], "{bad}: line 2"),
        ("trace-syntax", ["trace", "{bad}"], "{bad}: line 2"),
        ("run-syntax", ["run", "{bad}"], "{bad}: line 2"),
        ("compile-syntax", ["compile", "{bad}"], "{bad}: line 2"),
        ("optimize-syntax",
         ["optimize", "{bad}", "--profile", "{missing}"], "{bad}: line 2"),
        ("dot-syntax", ["dot", "{bad}", "--function", "main"], "{bad}: line 2"),
        ("lint-genspec", ["lint", "gen:nonsense"], "gen:nonsense"),
        ("suite-genspec", ["suite", "--targets", "gen:seed=x"], "gen:seed=x"),
        ("report-ca", ["report", "sieve", "--ca", "2.5"], "2.5"),
        ("check-cr", ["check", "sieve", "--cr", "-0.5"], "-0.5"),
        ("check-example-ca", ["check", "running_example", "--ca", "2"], "2.0"),
        ("lint-example-cr",
         ["lint", "running_example", "--cr", "1.25"], "1.25"),
        ("lint-ca", ["lint", "sieve", "--ca", "1.5"], "1.5"),
        ("lint-min-mass", ["lint", "sieve", "--min-mass", "3"], "3"),
        ("bench-ca", ["bench", "--workloads", "sieve", "--ca", "7"], "7"),
        ("run-input", ["run", "{prog}", "--input", "data=1,x"], "data=1,x"),
    )
]


class TestMalformedInput:
    """Every malformed input ends the verb in one line naming it, before
    any compile or profiling of a well-formed part runs."""

    @pytest.mark.parametrize("argv, named", MALFORMED_INPUTS)
    def test_one_line_error(self, argv, named, prog, tmp_path):
        bad = tmp_path / "bad.mc"
        bad.write_text(BAD_SOURCE)
        paths = {
            "missing": str(tmp_path / "absent.mc"),
            "bad": str(bad),
            "prog": str(prog),
        }
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in argv])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message, message
        assert named.format(**paths) in message
        assert message.startswith(f"repro {argv[0]}: ")

    def test_jobs_and_cache_dir_are_checked_by_the_parser(self, prog, capsys):
        for argv in (
            ["lint", "sieve", "--jobs", "0"],
            ["bench", "--jobs", "-1"],
            ["suite", "--jobs", "0"],
            ["serve", "--jobs", "0"],
            ["trace", "sieve", "--cache-dir", str(prog)],
            ["serve", "--cache-dir", str(prog)],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert "--jobs" in err or "is not a directory" in err, argv
