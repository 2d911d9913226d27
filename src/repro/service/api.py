"""Request/response schema and execution core of the analysis service.

An :class:`AnalysisRequest` names a program — a registered workload, a
``gen:key=value,...`` generator spec, or inline MiniC source — plus the
pipeline knobs (CA/CR coverage, checks on/off).  :func:`execute_request`
runs the full Ammons–Larus pipeline for it (profile → qualify → dataflow →
diagnostics) and renders a plain-JSON payload.

The payload is **deterministic** apart from its ``timings`` key: the same
request against the same code produces bit-identical
:func:`comparable_payload` values whether it ran through the daemon, a
worker pool, or a direct in-process :class:`WorkloadRun` — that equation is
the service's differential test.  Requests hash to a content
:meth:`~AnalysisRequest.fingerprint`, which the daemon uses to coalesce
identical concurrent submissions onto one computation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from ..evaluation.harness import (
    DEFAULT_CA,
    DEFAULT_CR,
    Workload,
    WorkloadRun,
    make_run,
)
from ..pipeline.cache import ArtifactCache, content_key

#: Bump when the payload shape changes incompatibly (2: the engines left
#: ``config``).
PAYLOAD_SCHEMA = 2


# ---------------------------------------------------------------------------
# field parsers
# ---------------------------------------------------------------------------
#
# Each parser takes an untrusted value and the field's name, and returns the
# value in its stored form or raises ``ValueError`` — never ``TypeError``,
# so a malformed field is a 400, not a dropped connection.


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _text(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"'{name}' must be a string")
    return value


def _source(value: Any, name: str) -> str:
    if not _text(value, name).strip():
        raise ValueError(f"'{name}' is empty")
    return value


def _target(value: Any, name: str) -> str:
    """A target name or ``gen:`` spec, checked by name only (so an unknown
    target is a 400, not a failed job)."""
    from ..workloads.matrix import check_target

    return check_target(_text(value, name))


def _flag(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"'{name}' must be true or false")
    return value


def _fraction(value: Any, name: str) -> float:
    if not (_is_int(value) or isinstance(value, float)) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
    return float(value)


def _positive_int(value: Any, name: str) -> int:
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def _list(value: Any, name: str) -> Sequence:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"'{name}' must be a list")
    return value


def _ints(value: Any, name: str) -> tuple[int, ...]:
    if not all(_is_int(v) for v in _list(value, name)):
        raise ValueError(f"'{name}' must be a list of integers")
    return tuple(value)


def _fractions(value: Any, name: str) -> tuple[float, ...]:
    values = _list(value, name)
    return tuple(_fraction(v, f"{name}[{i}]") for i, v in enumerate(values))


def _arrays(value: Any, name: str) -> dict[str, tuple[int, ...]]:
    if not isinstance(value, Mapping) or not all(isinstance(k, str) for k in value):
        raise ValueError(f"'{name}' must map array names to integer lists")
    return {k: _ints(v, f"{name}[{k!r}]") for k, v in value.items()}


def _targets(value: Any, name: str) -> tuple[str, ...]:
    values = _list(value, name)
    return tuple(_target(v, f"{name}[{i}]") for i, v in enumerate(values))


def _optional(parse: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    return lambda value, name: None if value is None else parse(value, name)


#: The parser of every request field, by name; a field means the same in
#: every request kind that has it.
_FIELD_PARSERS: dict[str, Callable[[Any, str], Any]] = {
    "target": _optional(_target),
    "source": _optional(_source),
    "new_source": _optional(_source),
    "edit_function": _optional(_text),
    "seed_edit": _flag,
    "name": _text,
    "args": _ints,
    "inputs": _arrays,
    "ref_args": _optional(_ints),
    "ref_inputs": _optional(_arrays),
    "ca": _fraction,
    "cr": _fraction,
    "min_mass": _fraction,
    "check": _flag,
    "table2": _flag,
    "workloads": _targets,
    "ca_values": _fractions,
    "jobs": _positive_int,
}


def _plain(value: Any) -> Any:
    """A stored field value as JSON data."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Mapping):
        return {k: list(v) for k, v in sorted(value.items())}
    return value


def _request_kind(cls):
    """Make ``cls`` a frozen request dataclass and build its table of field
    parsers, once."""
    cls = dataclass(frozen=True)(cls)
    cls._parsers = {
        f.name: _FIELD_PARSERS[f.name] for f in dataclasses.fields(cls)
    }
    return cls


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


class _Request:
    """Parsing, serialization and fingerprinting shared by the request kinds.

    Every field passes through its parser when the request is built, so a
    request built in code and one parsed from a JSON body get the same
    checks and the same stored form."""

    kind: str
    _parsers: dict[str, Callable[[Any, str], Any]]

    def __post_init__(self) -> None:
        for name, parse in self._parsers.items():
            object.__setattr__(self, name, parse(getattr(self, name), name))

    @classmethod
    def from_dict(cls, d: Any):
        """Parse an untrusted JSON body; raises ``ValueError`` on bad input."""
        if not isinstance(d, Mapping):
            raise ValueError("request body must be a JSON object")
        unknown = set(d) - cls._parsers.keys()
        if unknown:
            raise ValueError(f"unknown request field(s): {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        """The JSON body :meth:`from_dict` parses back to an equal request."""
        return {name: _plain(getattr(self, name)) for name in self._parsers}

    def fingerprint(self) -> str:
        """Content hash identifying this request's full configuration —
        the coalescing key for identical concurrent submissions."""
        return content_key(f"service-{self.kind}", self.to_dict())


@dataclass(frozen=True)
class _ProgramRequest(_Request):
    """The program a request analyzes: a named target or inline source."""

    #: Registered target name (workload / handwritten / generator preset)
    #: or an ad-hoc ``gen:key=value,...`` spec.  Mutually exclusive with
    #: ``source``.
    target: Optional[str] = None
    #: Inline MiniC source (how the CLI sends a MiniC file target).
    source: Optional[str] = None
    #: Label for inline submissions (cosmetic; part of the fingerprint).
    name: str = "inline"
    #: Train-run arguments / input arrays for inline submissions.
    args: tuple[int, ...] = ()
    inputs: Mapping[str, Sequence[int]] = field(default_factory=dict)
    #: Ref-run arguments / inputs; default to the train ones.
    ref_args: Optional[tuple[int, ...]] = None
    ref_inputs: Optional[Mapping[str, Sequence[int]]] = None
    ca: float = DEFAULT_CA
    cr: float = DEFAULT_CR

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.target is None) == (self.source is None):
            raise ValueError("give exactly one of 'target' or 'source'")

    def _program(self) -> str:
        """The target name, or the label of the inline program."""
        return self.target if self.target is not None else self.name


@_request_kind
class AnalysisRequest(_ProgramRequest):
    """One analysis submission, normalized and content-addressable."""

    #: Run the invariant checkers over every pipeline stage.
    check: bool = True
    #: Also build and cost the base/optimized executables (Table 2) — two
    #: extra interpreter runs, so off by default.
    table2: bool = False

    kind = "analyze"

    def label(self) -> str:
        return self._program()


@_request_kind
class LintRequest(_ProgramRequest):
    """One analyzer submission: the ``/v1/lint`` body.

    Shares the target model of :class:`AnalysisRequest` (named targets or
    inline MiniC) plus the analyzer knob (``min_mass``).  Findings are
    deterministic, so the same request produces bit-identical
    :func:`comparable_payload` values through the daemon and the CLI."""

    #: Drop path findings below this profile-mass fraction.
    min_mass: float = 0.5

    kind = "lint"

    def label(self) -> str:
        return "lint:" + self._program()


@_request_kind
class DiffRequest(_ProgramRequest):
    """One incremental re-analysis: the ``/v1/diff`` body.

    ``target``/``source`` name the *old* version exactly like the other
    request kinds; the *new* version is either ``new_source`` (inline
    MiniC) or — with ``seed_edit`` — the old source with the deterministic
    one-function :func:`~repro.pipeline.incremental.seeded_edit` applied
    (the CI smoke / benchmark workload).  The differential report is
    deterministic outside ``timings``, so a daemon submission and a direct
    ``repro diff`` agree bit-for-bit; the daemon coalesces concurrent
    submissions by the fingerprint of the (old, new) pair."""

    #: The edited program version.  Mutually exclusive with ``seed_edit``.
    new_source: Optional[str] = None
    #: Apply the deterministic seeded one-function edit to the old source.
    seed_edit: bool = False
    #: Restrict the seeded edit to this function (default: the first).
    edit_function: Optional[str] = None
    min_mass: float = 0.5
    #: Run the pipeline checkers on both versions and diff their findings.
    check: bool = False

    kind = "diff"

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.new_source is None) == (not self.seed_edit):
            raise ValueError(
                "give exactly one of 'new_source' or 'seed_edit'"
            )

    def label(self) -> str:
        return "diff:" + self._program()


@_request_kind
class SweepRequest(_Request):
    """A figure/table coverage sweep, batched onto the
    :class:`~repro.pipeline.driver.ParallelDriver` pool."""

    #: Target names (default: the seven SPEC workloads).  Files cannot be
    #: swept: the driver ships names to its worker processes.
    workloads: tuple[str, ...] = ()
    ca_values: tuple[float, ...] = ()
    cr: float = DEFAULT_CR
    #: Process-pool width the driver fans out with (1 = serial in-worker).
    jobs: int = 1
    check: bool = False

    kind = "sweep"

    def label(self) -> str:
        return "sweep:" + ",".join(self.workloads or ("all",))


Request = Union[AnalysisRequest, LintRequest, DiffRequest, SweepRequest]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def resolve_workload(request: _ProgramRequest) -> Workload:
    """The request's program as a :class:`Workload` (named targets resolve
    through the matrix registry; inline source becomes an ad-hoc one)."""
    if request.target is not None:
        from ..workloads.matrix import resolve_target

        return resolve_target(request.target)
    return Workload(
        name=request.name,
        source=request.source,
        train_args=tuple(request.args),
        train_inputs={k: list(v) for k, v in request.inputs.items()},
        ref_args=tuple(request.ref_args if request.ref_args is not None else request.args),
        ref_inputs={
            k: list(v)
            for k, v in (
                request.ref_inputs
                if request.ref_inputs is not None
                else request.inputs
            ).items()
        },
        description="inline service submission",
    )


def _finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def analysis_payload(
    run: WorkloadRun, ca: float, cr: float, table2: bool = False
) -> dict:
    """The response body for one analyzed run.

    Everything outside the ``timings`` key is a deterministic function of
    the workload definition and the request configuration — the property
    the daemon-vs-direct differential tests assert bit-for-bit.
    """
    agg = run.aggregate_classification(ca, cr)
    orig, hpg, red = run.graph_sizes(ca, cr)
    summary = {
        "cfg_nodes": run.cfg_nodes,
        "executed_paths": run.executed_paths,
        "hot_paths": run.hot_path_count(ca),
        "graph_sizes": {"original": orig, "traced": hpg, "reduced": red},
        "classification": dataclasses.asdict(agg),
        # The paper's headline: qualified vs. iterative (WZ) non-local
        # constants — how much sharper path qualification made the analysis.
        "sharpening": {
            "iterative_nonlocal": agg.iterative_nonlocal,
            "qualified_nonlocal": agg.qualified_nonlocal,
            "improvement_ratio": _finite(agg.improvement_ratio),
        },
    }
    if table2:
        row = run.table2(ca, cr)
        summary["table2"] = {
            "base_cost": row.base_cost,
            "optimized_cost": row.optimized_cost,
            "speedup": row.speedup,
        }
    payload = {
        "schema": PAYLOAD_SCHEMA,
        "workload": run.workload.name,
        "config": {
            "ca": ca,
            "cr": cr,
            "check": run.checker.enabled,
        },
        "summary": summary,
        "diagnostics": None,
        "timings": {k: round(v, 6) for k, v in run.timings.items()},
    }
    if run.checker.enabled:
        diags = run.checker.diagnostics
        payload["diagnostics"] = {
            "summary": diags.summary(),
            "counts": diags.counts(),
            "has_errors": diags.has_errors,
            "records": diags.to_dicts(),
        }
    return payload


def execute_request(
    request: AnalysisRequest, cache: Optional[ArtifactCache] = None
) -> dict:
    """Run the full pipeline for one request; the daemon's worker body and
    the direct-path oracle of the differential tests."""
    workload = resolve_workload(request)
    run = make_run(workload, cache, check=request.check)
    return analysis_payload(run, request.ca, request.cr, table2=request.table2)


def execute_lint(
    request: LintRequest, cache: Optional[ArtifactCache] = None
) -> dict:
    """Run the profile-qualified analyzer for one request.

    Findings come back ranked exactly as ``repro lint`` prints them, so a
    daemon submission and the direct CLI agree bit-for-bit on everything
    outside ``timings``."""
    workload = resolve_workload(request)
    run = make_run(workload, cache)
    findings = run.lint(request.ca, request.cr, request.min_mass)
    from ..checks.diagnostics import Diagnostics

    counts = Diagnostics(list(findings)).counts()
    return {
        "schema": PAYLOAD_SCHEMA,
        "kind": "lint",
        "workload": run.workload.name,
        "config": {
            "ca": request.ca,
            "cr": request.cr,
            "min_mass": request.min_mass,
        },
        "findings": [d.to_dict() for d in findings],
        "counts": counts,
        "timings": {k: round(v, 6) for k, v in run.timings.items()},
    }


def execute_diff(
    request: DiffRequest, cache: Optional[ArtifactCache] = None
) -> dict:
    """Run one incremental old→new re-analysis for a request.

    The wrapped differential report is deterministic (its own ``timings``
    section is hoisted to the payload's top-level ``timings`` key), so the
    daemon and a direct ``repro diff`` agree bit-for-bit on
    :func:`comparable_payload`."""
    import dataclasses as _dc

    from ..pipeline.incremental import diff_workloads, seeded_edit

    old = resolve_workload(request)
    new_source = (
        request.new_source
        if request.new_source is not None
        else seeded_edit(old.source, request.edit_function)
    )
    new = _dc.replace(old, source=new_source)
    report = diff_workloads(
        old,
        new,
        cache,
        ca=request.ca,
        cr=request.cr,
        min_mass=request.min_mass,
        check=request.check,
    )
    return {
        "schema": PAYLOAD_SCHEMA,
        "kind": "diff",
        "workload": report["workload"],
        "report": {k: v for k, v in report.items() if k != "timings"},
        "timings": report["timings"],
    }


def execute_sweep(
    request: SweepRequest, cache_dir: Optional[str] = None
) -> dict:
    """Run a coverage sweep through :class:`ParallelDriver`; its rendered
    artifacts are byte-identical regardless of the pool width."""
    from ..evaluation.harness import CA_SWEEP
    from ..pipeline.driver import ParallelDriver
    from ..workloads import WORKLOAD_NAMES

    driver = ParallelDriver(
        jobs=request.jobs,
        cache_dir=cache_dir,
        cr=request.cr,
        check=request.check,
    )
    workloads = request.workloads or WORKLOAD_NAMES
    ca_values = request.ca_values or CA_SWEEP
    result = driver.sweep(workloads, ca_values)
    return {
        "schema": PAYLOAD_SCHEMA,
        "workloads": list(workloads),
        "ca_values": list(ca_values),
        "artifacts": result.artifacts(),
        "cache": result.cache_stats.summary(),
        "diagnostics": {
            "summary": result.diagnostics.summary(),
            "has_errors": result.diagnostics.has_errors,
            "records": result.diagnostics.to_dicts(),
        },
    }


def comparable_payload(payload: Mapping) -> dict:
    """The deterministic part of a payload — what daemon-vs-direct
    differential tests compare: everything except wall-clock ``timings``
    and a sweep's ``cache`` summary, which depends on what the cache
    already held."""
    return {k: v for k, v in payload.items() if k not in ("timings", "cache")}
