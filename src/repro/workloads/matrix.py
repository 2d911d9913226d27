"""The target × instance workload matrix (the SPEC-harness refactor).

Modelled on the vusec ``instrumentation-infra`` layout, the suite crosses

* **targets** — MiniC programs: the seven hand-rolled SPEC95-alikes, the
  hand-written algorithm ports (:mod:`repro.workloads.handwritten`), the
  generated presets (:data:`repro.workloads.generate.GEN_PRESETS`), and
  ad-hoc ``gen:key=value,...`` specs parsed on the fly; with
* **instances** — configurations: interpreter engine × dataflow engine ×
  Wegman–Zadek engine × solver strategy × (CA, CR) coverage.

Each cell of the cross product is simultaneously a measurement and a
**differential test**:

1. the training run is executed on *both* interpreter engines and the full
   :class:`RunResult`s must match (``interp_parity``);
2. every separable dataflow problem is solved on every routine's CFG by
   *both* solver engines under the instance's strategy and the fixpoints
   must match (``dataflow_parity``);
3. conditional constant propagation runs on every routine's CFG — and on
   its hot-path graph, when traced — under *both* Wegman–Zadek engines and
   the environments, executable edges, and worklist visit counts must all
   match (``wz_parity``);
4. the pipeline checkers run over every stage and must report no errors
   (``checks_clean``);
5. the profile-qualified analyzer (:mod:`repro.analyze`) runs over the
   cell's qualified results under *both* dataflow engines and must produce
   identical ranked findings (``lint_parity``).

So the matrix doubles as the largest test surface in the repo: a cell that
measures a speedup on a 1k-vertex organic graph has, in the same breath,
proven both fast paths equivalent to their oracles on that graph.

Phases follow the infra ``build/run/report`` split: :func:`build_targets`
compiles and validates, :func:`ParallelDriver.suite` (or :func:`run_suite`)
executes cells — serially or over the driver's process pool — and
:func:`load_archived` + :meth:`MatrixResult.report` re-render results from
the content-addressed archive without recomputation.  Every completed cell
is archived under ``<archive_dir>/<key[:2]>/<key>.json`` where ``key``
hashes the target source, both data sets, and the full instance
configuration — identical cells collide into one file, so archives are
incremental across sessions.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Sequence

from ..dataflow import engine_scope, solve, wz_engine_scope
from ..dataflow.framework import SOLVER_STRATEGIES
from ..dataflow.wegman_zadek import WZ_ENGINES
from ..dataflow.graph_view import GraphView
from ..evaluation.harness import DEFAULT_CA, DEFAULT_CR, Workload
from ..evaluation.tables import format_table
from ..obs import get_tracer
from .generate import GEN_PRESETS, generated_workload, parse_genspec
from .handwritten import HANDWRITTEN_NAMES, get_handwritten
from .spec import WORKLOAD_NAMES, get_workload

__all__ = [
    "Instance",
    "INSTANCES",
    "MatrixCell",
    "MatrixResult",
    "TARGET_NAMES",
    "build_targets",
    "cell_key",
    "load_archived",
    "resolve_target",
    "run_cell",
    "run_suite",
]


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One configuration column of the matrix."""

    name: str
    #: Interpreter engine driving the train/ref runs.
    engine: str = "compiled"
    #: Dataflow solver engine for the pipeline's separable analyses.
    dataflow_engine: str = "auto"
    #: Wegman–Zadek engine for the pipeline's conditional-constant runs.
    wz_engine: str = "auto"
    #: Worklist strategy for the cell's differential dataflow stage.
    strategy: str = "rpo"
    ca: float = DEFAULT_CA
    cr: float = DEFAULT_CR

    def __post_init__(self) -> None:
        if self.engine not in ("reference", "compiled"):
            raise ValueError(f"bad engine {self.engine!r}")
        if self.wz_engine not in WZ_ENGINES:
            raise ValueError(f"bad wz_engine {self.wz_engine!r}")
        if self.strategy not in SOLVER_STRATEGIES:
            raise ValueError(f"bad strategy {self.strategy!r}")

    def config(self) -> dict:
        return asdict(self)

    @contextmanager
    def scopes(self):
        """Run a block on this instance's dataflow and WZ engines."""
        with engine_scope(self.dataflow_engine), wz_engine_scope(self.wz_engine):
            yield


#: The registered instance columns.  ``base`` is the production
#: configuration; the others each flip one axis against it.
INSTANCES: dict[str, Instance] = {
    inst.name: inst
    for inst in (
        Instance("base"),
        Instance("reference", engine="reference", dataflow_engine="generic",
                 wz_engine="generic"),
        Instance("bitset", dataflow_engine="compiled"),
        Instance("wz-compiled", wz_engine="compiled"),
        Instance("lifo", strategy="lifo"),
        Instance("full-cover", ca=1.0),
    )
}


def resolve_instance(name: str) -> Instance:
    try:
        return INSTANCES[name]
    except KeyError:
        raise KeyError(
            f"unknown instance {name!r}; choose from {tuple(INSTANCES)}"
        ) from None


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

#: All statically registered target names (ad-hoc ``gen:...`` specs resolve
#: too, but are not enumerated here).
TARGET_NAMES: tuple[str, ...] = (
    WORKLOAD_NAMES + HANDWRITTEN_NAMES + tuple(GEN_PRESETS)
)


#: Bound on the workloads :func:`resolve_target` keeps.  Any client can
#: send a ``gen:`` spec, so the memo must not grow with the distinct specs.
RESOLVED_TARGETS = 64


@functools.lru_cache(maxsize=RESOLVED_TARGETS)
def resolve_target(name: str) -> Workload:
    """A target name — registered or ``gen:...`` — to its workload.

    Resolution happens by *name* so matrix jobs can ship a string into a
    worker process instead of pickling megabytes of program and input data.
    Names are memoized (failed resolutions are not), so repeated requests
    share one workload and hash its data once.  Every caller of a name gets
    the same object, so it is read-only: the dataclass is frozen and its
    input arrays are tuples.
    """
    if name in WORKLOAD_NAMES:
        workload = get_workload(name)
    elif name in HANDWRITTEN_NAMES:
        workload = get_handwritten(name)
    elif name in GEN_PRESETS:
        workload = generated_workload(GEN_PRESETS[name], name)
    elif name.startswith("gen:"):
        workload = generated_workload(parse_genspec(name))
    else:
        raise KeyError(
            f"unknown target {name!r}; choose from {TARGET_NAMES} "
            f"or a gen:key=value,... spec"
        )
    return dataclasses.replace(
        workload,
        train_inputs={k: tuple(v) for k, v in workload.train_inputs.items()},
        ref_inputs={k: tuple(v) for k, v in workload.ref_inputs.items()},
    )


def target_kind(name: str) -> str:
    if name in WORKLOAD_NAMES:
        return "spec95"
    if name in HANDWRITTEN_NAMES:
        return "handwritten"
    return "generated"


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

#: RunResult fields compared by the interpreter-parity stage (the same
#: contract the PR-2 differential tests assert).
_RESULT_FIELDS = (
    "return_value",
    "output",
    "instr_count",
    "cost",
    "block_counts",
    "profiles",
    "trace_profiles",
    "site_stats",
    "memory",
)

#: The five separable problems the dataflow-parity stage solves.
def _separable_problems(view: GraphView):
    from ..dataflow.problems import (
        AvailableExpressions,
        CopyPropagation,
        LiveVariables,
        ReachingDefinitions,
        VeryBusyExpressions,
    )

    return (
        ("reaching_defs", ReachingDefinitions(view.params, view.cfg.entry)),
        ("liveness", LiveVariables()),
        ("available_exprs", AvailableExpressions()),
        ("very_busy", VeryBusyExpressions()),
        ("copy_prop", CopyPropagation()),
    )


@dataclass
class MatrixCell:
    """One (target, instance) execution: metrics plus differential verdicts."""

    target: str
    instance: str
    key: str
    config: dict = field(default_factory=dict)
    # -- structure and profile metrics --
    cfg_nodes: int = 0
    executed_paths: int = 0
    hot_paths: int = 0
    hpg_nodes: int = 0
    reduced_nodes: int = 0
    # -- constants --
    iterative_nonlocal: int = 0
    qualified_nonlocal: int = 0
    constant_increase: float = 0.0
    # -- differential verdicts --
    interp_parity: bool = False
    interp_mismatches: list = field(default_factory=list)
    dataflow_parity: bool = False
    dataflow_mismatches: list = field(default_factory=list)
    wz_parity: bool = False
    wz_mismatches: list = field(default_factory=list)
    lint_parity: bool = False
    lint_mismatches: list = field(default_factory=list)
    lint_findings: int = 0
    checks_errors: int = 0
    checks_warnings: int = 0
    # -- timings (reported, never gated: machine-bound) --
    timings: dict = field(default_factory=dict)

    @property
    def checks_clean(self) -> bool:
        return self.checks_errors == 0

    @property
    def ok(self) -> bool:
        """The cell's differential-test verdict."""
        return (
            self.interp_parity
            and self.dataflow_parity
            and self.wz_parity
            and self.lint_parity
            and self.checks_clean
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ok"] = self.ok
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MatrixCell":
        d = dict(d)
        d.pop("ok", None)
        return cls(**d)


def cell_key(workload: Workload, instance: Instance) -> str:
    """Content address of one cell: target program + data + configuration."""
    from ..pipeline.cache import content_key

    # The tag versions the archived cell schema: bumping it retires every
    # previously archived cell (v2 added the lint-parity stage).  Cell keys
    # stay hashed under artifact-cache schema 2, so a cache schema bump
    # does not orphan the archive.
    return content_key(
        "matrix-cell-v2",
        workload.source,
        list(workload.train_args),
        {k: list(v) for k, v in workload.train_inputs.items()},
        list(workload.ref_args),
        {k: list(v) for k, v in workload.ref_inputs.items()},
        instance.config(),
        schema=2,
    )


def _interp_parity(run, workload: Workload, instance: Instance) -> tuple[bool, list]:
    """Re-run the training input on the engine the run did *not* use and
    compare complete results."""
    from ..interp.interpreter import Interpreter

    other_engine = "reference" if instance.engine == "compiled" else "compiled"
    other = Interpreter(
        run.module, profile_mode="bl", track_sites=False, engine=other_engine
    ).run(workload.train_args, workload.train_inputs)
    mismatches = [
        f for f in _RESULT_FIELDS
        if getattr(run.train, f) != getattr(other, f)
    ]
    return not mismatches, mismatches


def _dataflow_parity(run, instance: Instance) -> tuple[bool, list]:
    """Solve every separable problem on every routine with both engines
    under the instance's strategy; fixpoints must be identical."""
    mismatches = []
    for fname, fn in run.module.functions.items():
        view = GraphView.from_function(fn)
        for pname, problem in _separable_problems(view):
            generic = solve(problem, view, strategy=instance.strategy,
                            engine="generic")
            compiled = solve(problem, view, strategy=instance.strategy,
                             engine="compiled")
            if (
                generic.value_in != compiled.value_in
                or generic.value_out != compiled.value_out
            ):
                mismatches.append(f"{fname}:{pname}")
    return not mismatches, mismatches


def _wz_parity(run, instance: Instance) -> tuple[bool, list]:
    """Run Wegman–Zadek with both engines on every routine's CFG — and on
    its hot-path graph, when the cell's coverage traced one — and require
    bit-identical fixpoints, edge sets, and worklist visit counts."""
    from ..dataflow.wegman_zadek import analyze

    views = {
        fname: GraphView.from_function(fn)
        for fname, fn in run.module.functions.items()
    }
    for fname, qa in run.qualified(instance.ca, instance.cr).items():
        if qa.hpg is not None:
            views[f"{fname}@hpg"] = qa.hpg.view()
    mismatches = []
    for vname, view in views.items():
        generic = analyze(view, engine="generic")
        compiled = analyze(view, engine="compiled")
        if (
            generic.env_in != compiled.env_in
            or generic.executable_edges != compiled.executable_edges
            or generic.visits != compiled.visits
            or generic.visit_counts != compiled.visit_counts
        ):
            mismatches.append(vname)
    return not mismatches, mismatches


def _lint_parity(run, instance: Instance) -> tuple[bool, list, int]:
    """Run the profile-qualified analyzer over the cell's qualified results
    under both dataflow solver engines; the ranked findings (codes,
    locations, messages, masses — everything) must be identical.

    Returns ``(parity, mismatches, finding_count)``."""
    from ..analyze.runner import compute_findings

    qualified = run.qualified(instance.ca, instance.cr)
    findings = {}
    for engine in ("generic", "compiled"):
        # The qualified analyses are fixed inputs; only the analyzer's own
        # solves re-run on each engine.
        with engine_scope(engine):
            findings[engine] = compute_findings(
                run.module, qualified, workload=run.workload.name
            )
    generic, compiled = findings["generic"], findings["compiled"]
    if generic == compiled:
        return True, [], len(generic)
    mismatches = [
        d.location() + ":" + d.code
        for d in set(generic).symmetric_difference(compiled)
    ]
    return False, sorted(mismatches), len(generic)


def run_cell(
    target: str,
    instance: Instance,
    cache_dir: Optional[str] = None,
    archive_dir: Optional[str] = None,
) -> MatrixCell:
    """Execute one matrix cell: pipeline, differentials, checks, archive.

    The pipeline runs under the instance's engine scopes.  Qualified
    artifacts do not key on engines, so with a shared ``cache_dir`` a cell
    may load what another instance computed; its parity stages still solve
    on both engines."""
    from ..evaluation.harness import make_run
    from ..pipeline.cache import ArtifactCache

    workload = resolve_target(target)
    key = cell_key(workload, instance)
    with get_tracer().span(
        "suite.cell", target=target, instance=instance.name
    ), instance.scopes():
        run = make_run(
            workload, ArtifactCache(cache_dir), engine=instance.engine, check=True
        )
        agg = run.aggregate_classification(instance.ca, instance.cr)
        orig, hpg, red = run.graph_sizes(instance.ca, instance.cr)
        interp_ok, interp_bad = _interp_parity(run, workload, instance)
        df_ok, df_bad = _dataflow_parity(run, instance)
        wz_ok, wz_bad = _wz_parity(run, instance)
        lint_ok, lint_bad, lint_count = _lint_parity(run, instance)
        diags = run.checker.diagnostics
        cell = MatrixCell(
            target=target,
            instance=instance.name,
            key=key,
            config=instance.config(),
            cfg_nodes=run.cfg_nodes,
            executed_paths=run.executed_paths,
            hot_paths=run.hot_path_count(instance.ca),
            hpg_nodes=hpg,
            reduced_nodes=red,
            iterative_nonlocal=agg.iterative_nonlocal,
            qualified_nonlocal=agg.qualified_nonlocal,
            constant_increase=agg.constant_increase,
            interp_parity=interp_ok,
            interp_mismatches=interp_bad,
            dataflow_parity=df_ok,
            dataflow_mismatches=df_bad,
            wz_parity=wz_ok,
            wz_mismatches=wz_bad,
            lint_parity=lint_ok,
            lint_mismatches=lint_bad,
            lint_findings=lint_count,
            checks_errors=len(diags.errors),
            checks_warnings=len(diags.warnings),
            timings={
                **{k: round(v, 6) for k, v in run.timings.items()},
                "analysis": round(
                    run.analysis_time(instance.ca, instance.cr), 6
                ),
            },
        )
    if archive_dir:
        archive_cell(archive_dir, cell)
    return cell


# ---------------------------------------------------------------------------
# archiving (content-addressed, incremental across sessions)
# ---------------------------------------------------------------------------


def _archive_path(archive_dir: str, key: str) -> str:
    return os.path.join(archive_dir, key[:2], f"{key}.json")


def archive_cell(archive_dir: str, cell: MatrixCell) -> str:
    """Persist one cell under its content address; returns the path."""
    path = _archive_path(archive_dir, cell.key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(cell.to_dict(), f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)  # atomic: concurrent writers agree on content
    return path


def load_cell(archive_dir: str, key: str) -> Optional[MatrixCell]:
    path = _archive_path(archive_dir, key)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return MatrixCell.from_dict(json.load(f))


def load_archived(
    archive_dir: str,
    targets: Sequence[str],
    instances: Sequence[Instance],
) -> "MatrixResult":
    """The report phase: reassemble a result purely from the archive.

    Raises :class:`FileNotFoundError` naming every missing cell, so a
    ``report`` invocation tells the user exactly which cells still need a
    ``run``.
    """
    result = MatrixResult(
        targets=tuple(targets),
        instances=tuple(i.name for i in instances),
    )
    missing = []
    for target in targets:
        workload = resolve_target(target)
        for instance in instances:
            cell = load_cell(archive_dir, cell_key(workload, instance))
            if cell is None:
                missing.append(f"{target}/{instance.name}")
            else:
                result.cells[(target, instance.name)] = cell
    if missing:
        raise FileNotFoundError(
            f"archive {archive_dir!r} is missing cells {missing}; "
            f"run the suite first"
        )
    return result


# ---------------------------------------------------------------------------
# results and the report phase
# ---------------------------------------------------------------------------


@dataclass
class MatrixResult:
    """All cells of one suite run, in canonical target-major order."""

    targets: tuple[str, ...]
    instances: tuple[str, ...]
    cells: dict[tuple[str, str], MatrixCell] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.cells) and all(c.ok for c in self.cells.values())

    def failures(self) -> list[MatrixCell]:
        return [
            self.cells[(t, i)]
            for t in self.targets
            for i in self.instances
            if not self.cells[(t, i)].ok
        ]

    def report(self) -> str:
        """The rendered suite table (deterministic for identical inputs)."""
        rows = []
        for t in self.targets:
            for i in self.instances:
                c = self.cells[(t, i)]
                rows.append(
                    [
                        t,
                        i,
                        c.cfg_nodes,
                        c.executed_paths,
                        c.hot_paths,
                        c.iterative_nonlocal,
                        c.qualified_nonlocal,
                        f"{c.constant_increase:+.1%}",
                        "ok" if c.interp_parity else "FAIL",
                        "ok" if c.dataflow_parity else "FAIL",
                        "ok" if c.wz_parity else "FAIL",
                        (
                            f"{c.lint_findings} ok"
                            if c.lint_parity
                            else "FAIL"
                        ),
                        "clean" if c.checks_clean else f"{c.checks_errors} err",
                    ]
                )
        return format_table(
            [
                "target",
                "instance",
                "blocks",
                "paths",
                "hot",
                "WZ const",
                "qual const",
                "increase",
                "interp",
                "dataflow",
                "wz",
                "lint",
                "checks",
            ],
            rows,
            title="Workload matrix: target x instance differential cells",
        )

    def summary(self) -> str:
        bad = self.failures()
        total = len(self.targets) * len(self.instances)
        if not bad:
            return f"{total} cell(s), all parities hold, all checks clean"
        names = ", ".join(f"{c.target}/{c.instance}" for c in bad)
        return f"{len(bad)}/{total} cell(s) FAILED: {names}"


# ---------------------------------------------------------------------------
# build phase
# ---------------------------------------------------------------------------


def build_targets(targets: Sequence[str]) -> str:
    """Compile + validate each target; returns the build report table."""
    from ..frontend.lower import compile_program
    from ..ir.validate import validate_module

    rows = []
    for name in targets:
        workload = resolve_target(name)
        module = compile_program(workload.source)
        validate_module(module)
        rows.append(
            [
                name,
                target_kind(name),
                len(module.functions),
                sum(len(fn.blocks) for fn in module.functions.values()),
                len(workload.source.splitlines()),
            ]
        )
    return format_table(
        ["target", "kind", "functions", "blocks", "source lines"],
        rows,
        title="Suite build: compiled and validated targets",
    )


# ---------------------------------------------------------------------------
# run phase (serial; the ParallelDriver fans the same job out over a pool)
# ---------------------------------------------------------------------------


def run_suite(
    targets: Sequence[str],
    instances: Sequence[Instance],
    cache_dir: Optional[str] = None,
    archive_dir: Optional[str] = None,
) -> MatrixResult:
    """Run every cell serially (deterministic reference path).

    :meth:`repro.pipeline.ParallelDriver.suite` produces an identical
    :class:`MatrixResult` over a process pool.
    """
    result = MatrixResult(
        targets=tuple(targets),
        instances=tuple(i.name for i in instances),
    )
    with get_tracer().span(
        "suite.run", targets=len(result.targets), instances=len(result.instances)
    ):
        for target in result.targets:
            for instance in instances:
                result.cells[(target, instance.name)] = run_cell(
                    target, instance, cache_dir, archive_dir
                )
    return result


def resolve_instances(names: Iterable[str]) -> tuple[Instance, ...]:
    return tuple(resolve_instance(n) for n in names)
