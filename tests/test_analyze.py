"""Tests for the profile-qualified analyzer (``repro lint``).

Covers the reporter stack (SARIF 2.1.0 shape, rule registry, JSON payload),
the content-addressed baseline (fingerprint stability, new-finding-only
failure), ranking and the mass threshold, the paper-acceptance sharpening
provenance on the running example, and daemon-vs-CLI parity for
``/v1/lint``.
"""

from __future__ import annotations

import json

import pytest

from repro.analyze import (
    Baseline,
    baseline_of,
    compute_findings,
    finding_fingerprint,
    lint_program,
    partition,
    rank,
    to_json_payload,
    to_sarif,
)
from repro.analyze.passes import (
    LINT_HOT_CONSTANT_SITE,
    PATH_LINT_CODES,
)
from repro.analyze.report import RULES, SARIF_VERSION, render_text
from repro.checks.diagnostics import Diagnostic, PathEvidence, Severity
from repro.cli import main
from repro.workloads.running_example import training_run_inputs

# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def example_findings(example_module):
    """Ranked findings over the running example (the Figure 5 program)."""
    n, inputs = training_run_inputs()
    return lint_program(example_module, [n], inputs, 0.97, 0.95)


@pytest.fixture(scope="module")
def example_pairs(example_findings):
    return [("running_example", d) for d in example_findings]


#: A MiniC program with one hot-path-constant branch (flag is ~90% zero,
#: so `c` is 1 on the dominant path but merges to non-constant on the CFG).
LINTY_SOURCE = """
global flag[32];

func main(n) {
  var i = 0;
  var s = 0;
  while (i < n) {
    var c = 1;
    if (flag[i]) { c = 0; }
    if (c) { s = s + 2; } else { s = s + 1; }
    i = i + 1;
  }
  return s;
}
"""

#: The same program with a second, identically shaped defect appended —
#: the "new finding" of the baseline-gate tests.
LINTY_SOURCE_V2 = LINTY_SOURCE.replace(
    "    i = i + 1;",
    """    var d = 1;
    if (flag[i]) { d = 0; }
    if (d) { s = s + 3; } else { s = s + 4; }
    i = i + 1;
""",
)

LINT_N = 20
LINT_FLAG = ",".join("1" if i % 10 == 9 else "0" for i in range(LINT_N))


def _write_prog(tmp_path, source):
    prog = tmp_path / "prog.mc"
    prog.write_text(source)
    return prog


def _lint_cli(prog, *extra):
    return main(
        [
            "lint",
            str(prog),
            "--args",
            str(LINT_N),
            "--input",
            f"flag={LINT_FLAG}",
            *extra,
        ]
    )


# ---------------------------------------------------------------------------
# ranking and the mass threshold
# ---------------------------------------------------------------------------


def _finding(code, mass, message="m", block="B"):
    evidence = None
    if mass is not None:
        evidence = PathEvidence(
            mass=mass,
            hot_paths=(0,),
            supporting=1,
            duplicates=2,
            iterative="i",
            qualified="q",
            sharper=True,
        )
    return Diagnostic(
        code=code,
        severity=Severity.WARNING,
        message=message,
        function="f",
        block=block,
        path_evidence=evidence,
    )


class TestRanking:
    def test_mass_descending_then_stable(self):
        low = _finding("LINT006", 0.2)
        high = _finding("LINT006", 0.9)
        unranked = _finding("LINT002", None)
        assert rank([unranked, low, high]) == (high, low, unranked)

    def test_ties_break_deterministically(self):
        a = _finding("LINT006", 0.5, block="A")
        b = _finding("LINT006", 0.5, block="B")
        assert rank([b, a]) == rank([a, b]) == (a, b)

    def test_min_mass_filters_path_findings(self, example_module):
        n, inputs = training_run_inputs()
        low = lint_program(
            example_module, [n], inputs, 0.97, 0.95, min_mass=0.0
        )
        high = lint_program(
            example_module, [n], inputs, 0.97, 0.95, min_mass=0.99
        )
        assert set(high) <= set(low)
        for d in high:
            if d.code in PATH_LINT_CODES:
                assert d.mass is not None and d.mass >= 0.99

    def test_findings_are_ranked(self, example_findings):
        masses = [d.mass for d in example_findings if d.mass is not None]
        assert masses == sorted(masses, reverse=True)


# ---------------------------------------------------------------------------
# the acceptance criterion: qualified-sharper-than-iterative provenance
# ---------------------------------------------------------------------------


class TestSharpeningProvenance:
    def test_running_example_lint010(self, example_findings):
        sites = [
            d for d in example_findings if d.code == LINT_HOT_CONSTANT_SITE
        ]
        assert sites, "the Figure 5 constants must surface as LINT010"
        for d in sites:
            ev = d.path_evidence
            assert ev is not None
            assert ev.sharper
            assert ev.mass > 0
            assert ev.hot_paths
            # The provenance names both solutions and they must disagree —
            # that is what "sharper than iterative" means.
            assert ev.iterative != ev.qualified

    def test_figure5_site_is_top_ranked(self, example_findings):
        # x = a + b in H carries 100% of H's mass: it must rank first.
        top = example_findings[0]
        assert top.code == LINT_HOT_CONSTANT_SITE
        assert top.function == "work"
        assert top.mass == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# SARIF 2.1.0
# ---------------------------------------------------------------------------


class TestSarif:
    def test_rule_registry_is_complete_and_stable(self):
        ids = [rule["id"] for rule in RULES]
        assert ids == [f"LINT{i:03d}" for i in range(1, 11)]
        for rule in RULES:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "warning",
                "note",
            )

    def test_schema_shape(self, example_pairs):
        log = to_sarif(example_pairs)
        assert log["$schema"].endswith("sarif-2.1.0.json")
        assert log["version"] == SARIF_VERSION
        assert len(log["runs"]) == 1
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert run["tool"]["driver"]["rules"] == list(RULES)
        assert len(run["results"]) == len(example_pairs)
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
            assert result["level"] in ("error", "warning", "note")
            assert result["message"]["text"]
            logical = result["locations"][0]["logicalLocations"][0]
            assert logical["fullyQualifiedName"].startswith(
                "running_example::"
            )
            assert result["partialFingerprints"]["reproLint/v1"]
            assert result["properties"]["target"] == "running_example"

    def test_json_round_trip(self, example_pairs):
        log = to_sarif(example_pairs)
        assert json.loads(json.dumps(log)) == log

    def test_baselined_findings_are_suppressed_not_dropped(
        self, example_pairs
    ):
        baseline = baseline_of(example_pairs, "accepted")
        log = to_sarif(example_pairs, baseline)
        results = log["runs"][0]["results"]
        assert len(results) == len(example_pairs)
        for result in results:
            (suppression,) = result["suppressions"]
            assert suppression["kind"] == "external"
            assert suppression["justification"] == "accepted"

    def test_evidence_rides_in_properties(self, example_pairs):
        log = to_sarif(example_pairs)
        evidenced = [
            r
            for r in log["runs"][0]["results"]
            if "pathEvidence" in r["properties"]
        ]
        assert evidenced
        ev = evidenced[0]["properties"]["pathEvidence"]
        assert set(ev) >= {"mass", "hot_paths", "iterative", "qualified"}


# ---------------------------------------------------------------------------
# baseline suppression
# ---------------------------------------------------------------------------


class TestBaseline:
    def test_fingerprints_stable_across_runs(self, example_module):
        n, inputs = training_run_inputs()
        first = lint_program(example_module, [n], inputs, 0.97, 0.95)
        second = lint_program(example_module, [n], inputs, 0.97, 0.95)
        assert [
            finding_fingerprint("t", d) for d in first
        ] == [finding_fingerprint("t", d) for d in second]

    def test_fingerprint_depends_on_target_and_location(
        self, example_findings
    ):
        d = example_findings[0]
        assert finding_fingerprint("a", d) != finding_fingerprint("b", d)

    def test_partition_semantics(self, example_pairs):
        # No baseline: everything is new.
        new, suppressed = partition(example_pairs, None)
        assert new == list(example_pairs) and not suppressed
        # Full baseline: everything suppressed.
        new, suppressed = partition(
            example_pairs, baseline_of(example_pairs, "ok")
        )
        assert not new and len(suppressed) == len(example_pairs)
        # Partial baseline: exactly the unbaselined rest is new.
        head = example_pairs[:1]
        new, suppressed = partition(example_pairs, baseline_of(head, "ok"))
        assert suppressed == head
        assert new == example_pairs[1:]

    def test_save_load_round_trip(self, tmp_path, example_pairs):
        baseline = baseline_of(example_pairs, "known-good")
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert len(loaded) == len(baseline)
        for target, d in example_pairs:
            fp = finding_fingerprint(target, d)
            assert fp in loaded
            assert loaded.justification(fp) == "known-good"

    def test_committed_baseline_accepts_current_findings(self):
        """Fingerprints must not move with the artifact-cache schema, or
        the CI gate over ``baselines/lint.json`` reports every finding as
        new."""
        import pathlib

        from repro.service import LintRequest, execute_lint

        path = pathlib.Path(__file__).parent.parent / "baselines" / "lint.json"
        findings = execute_lint(LintRequest(target="sieve"))["findings"]
        pairs = [("sieve", Diagnostic.from_dict(d)) for d in findings]
        assert pairs
        new, _ = partition(pairs, Baseline.load(path))
        assert not new

    def test_render_text_marks_baselined(self, example_pairs):
        text = render_text(example_pairs, baseline_of(example_pairs, "ok"))
        assert "[baselined]" in text
        assert f"{len(example_pairs)} finding(s): 0 new" in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestLintCli:
    def test_json_payload(self, tmp_path, capsys):
        prog = _write_prog(tmp_path, LINTY_SOURCE)
        assert _lint_cli(prog, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"findings", "counts", "new", "suppressed"}
        codes = {f["code"] for f in payload["findings"]}
        assert "LINT006" in codes
        assert payload["suppressed"] == 0
        assert payload["new"] == len(payload["findings"])

    def test_sarif_file(self, tmp_path, capsys):
        prog = _write_prog(tmp_path, LINTY_SOURCE)
        sarif = tmp_path / "out.sarif"
        assert _lint_cli(prog, "--sarif", str(sarif)) == 0
        capsys.readouterr()
        log = json.loads(sarif.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"]

    def test_fail_on_new_gates_only_new_findings(self, tmp_path, capsys):
        prog = _write_prog(tmp_path, LINTY_SOURCE)
        baseline = tmp_path / "baseline.json"
        # Before a baseline exists, every finding is new: the gate fails.
        assert (
            _lint_cli(prog, "--baseline", str(baseline), "--fail-on-new")
            == 1
        )
        # Record the baseline; the same findings now pass the gate.
        assert (
            _lint_cli(
                prog, "--baseline", str(baseline), "--update-baseline"
            )
            == 0
        )
        assert (
            _lint_cli(prog, "--baseline", str(baseline), "--fail-on-new")
            == 0
        )
        # Introduce one fresh defect: only it is new, and it fails the gate.
        prog.write_text(LINTY_SOURCE_V2)
        assert (
            _lint_cli(prog, "--baseline", str(baseline), "--fail-on-new")
            == 1
        )
        capsys.readouterr()
        assert _lint_cli(prog, "--baseline", str(baseline), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suppressed"] > 0, "old findings stay baselined"
        assert payload["new"] > 0, "the seeded defect is new"

    def test_update_preserves_justifications(self, tmp_path, capsys):
        prog = _write_prog(tmp_path, LINTY_SOURCE)
        baseline = tmp_path / "baseline.json"
        assert (
            _lint_cli(
                prog,
                "--baseline",
                str(baseline),
                "--update-baseline",
                "--justification",
                "first pass",
            )
            == 0
        )
        assert (
            _lint_cli(
                prog, "--baseline", str(baseline), "--update-baseline"
            )
            == 0
        )
        capsys.readouterr()
        loaded = Baseline.load(baseline)
        assert len(loaded) > 0
        data = json.loads(baseline.read_text())
        assert all(
            entry["justification"] == "first pass"
            for entry in data["findings"].values()
        )

    @pytest.mark.slow
    def test_jobs_do_not_change_output(self, capsys, tmp_path):
        prog = str(_write_prog(tmp_path, LINTY_SOURCE))
        cache = str(tmp_path / "cache")
        argv = [
            "lint",
            "sieve",
            prog,
            "gen-small",
            "--args",
            str(LINT_N),
            "--input",
            f"flag={LINT_FLAG}",
            "--cache-dir",
            cache,
            "--min-mass",
            "0",
            "--json",
        ]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial == parallel
        # Target order is canonical: sieve, then the file, then gen-small.
        order = ("sieve", prog, "gen-small")
        targets = [f["target"] for f in serial["findings"]]
        assert set(targets) == set(order)
        assert targets == sorted(targets, key=order.index)

    def test_jobs_do_not_change_the_trace(self, capsys, tmp_path):
        """Workers ship their spans and metrics back, so a ``--jobs 2``
        trace holds the same metrics and counter values as a serial one,
        and each span once (three targets: one worker runs two jobs)."""
        spans, metrics = {}, {}
        for jobs in ("1", "2"):
            out = tmp_path / f"trace-{jobs}.jsonl"
            argv = ["lint", "compress95", "go95", "li95", "--jobs", jobs]
            assert main(argv + ["--trace-out", str(out)]) == 0
            capsys.readouterr()
            records = [json.loads(line) for line in out.read_text().splitlines()]
            spans[jobs] = [r for r in records if r["type"] == "span"]
            # Metric names and labels, with the value of each counter.
            metrics[jobs] = {
                (r["type"], r["name"], json.dumps(r["labels"], sort_keys=True)):
                    r["value"] if r["type"] == "counter" else None
                for r in records
                if r["type"] != "span"
            }
        assert metrics["2"] == metrics["1"]
        assert any(key[0] == "counter" for key in metrics["1"])
        for trace in spans.values():
            ids = [s["span_id"] for s in trace]
            assert ids and len(ids) == len(set(ids))
        assert sorted(s["name"] for s in spans["2"]) == sorted(
            s["name"] for s in spans["1"]
        )


# ---------------------------------------------------------------------------
# service parity (/v1/lint)
# ---------------------------------------------------------------------------


class TestLintService:
    def _inline_request(self):
        from repro.service import LintRequest

        flag = [1 if i % 10 == 9 else 0 for i in range(LINT_N)]
        return LintRequest(
            source=LINTY_SOURCE,
            name="linty",
            args=(LINT_N,),
            inputs={"flag": flag},
        )

    def test_direct_equals_daemon(self):
        from repro.service import (
            AnalysisService,
            comparable_payload,
            execute_lint,
        )

        direct = execute_lint(self._inline_request())
        service = AnalysisService(jobs=1)
        try:
            job, _ = service.submit(self._inline_request())
            service.wait(job, timeout=120)
        finally:
            service.shutdown()
        assert job.state == "done", job.error
        assert comparable_payload(job.result) == comparable_payload(direct)
        assert direct["kind"] == "lint"
        assert direct["findings"]
        codes = {f["code"] for f in direct["findings"]}
        assert "LINT006" in codes

    def test_identical_submissions_coalesce(self):
        from repro.service import AnalysisService

        service = AnalysisService(jobs=1)
        try:
            first, coalesced_first = service.submit(self._inline_request())
            second, coalesced_second = service.submit(
                self._inline_request()
            )
            service.wait(first, timeout=120)
        finally:
            service.shutdown()
        assert not coalesced_first
        # The identical request either coalesced onto the live job or, if
        # the first had already finished, got a fresh one — both are
        # correct; same-job implies the coalesced flag.
        if second is first:
            assert coalesced_second

    @pytest.mark.slow
    def test_http_round_trip(self):
        import threading

        from repro.service import (
            AnalysisService,
            ServiceClient,
            comparable_payload,
            execute_lint,
            make_server,
        )

        service = AnalysisService(jobs=1)
        server = make_server("127.0.0.1", 0, service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            payload = client.analyze(self._inline_request())
            direct = execute_lint(self._inline_request())
            assert comparable_payload(payload) == comparable_payload(
                direct
            )
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()
            thread.join(timeout=5)

    def test_bad_request_is_rejected(self):
        from repro.service import LintRequest

        with pytest.raises(ValueError):
            LintRequest(target="sieve", min_mass=2.0)
        with pytest.raises(ValueError):
            LintRequest.from_dict({"target": "sieve", "mystery": 1})
        with pytest.raises(ValueError):
            LintRequest.from_dict({})  # neither target nor source


# ---------------------------------------------------------------------------
# determinism across the compute layers
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_compute_findings_is_pure(self, example_module):
        from repro.core import run_qualified
        from repro.interp import Interpreter

        n, inputs = training_run_inputs()
        result = Interpreter(
            example_module, profile_mode="bl", track_sites=False
        ).run([n], inputs)
        qualified = {
            name: run_qualified(fn, result.profiles[name], 0.97, 0.95)
            for name, fn in example_module.functions.items()
        }
        first = compute_findings(example_module, qualified)
        second = compute_findings(example_module, qualified)
        assert first == second

    def test_cli_matches_library(self, example_findings, capsys):
        assert main(["lint", "running_example", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = to_json_payload(
            [("running_example", d) for d in example_findings]
        )
        assert payload == expected
