"""Fan workload × coverage sweep jobs, and the workload matrix, out over
one process pool.

The serial evaluation harness recomputes each figure's sweep in one
process; :class:`ParallelDriver` instead splits it into jobs, each some
coverage (CA) levels of one workload computed from one run over one fresh
:class:`~repro.pipeline.cache.ArtifactCache`.  :func:`fan_out` runs jobs
inline (``jobs == 1``) or over :mod:`concurrent.futures` and hands their
results back in submission order, so the rendered figure and table
artifacts are byte-identical regardless of the job count.  Nothing outlives
a job: a worker process remembers no run, cache or report of an earlier
one.

All numbers flowing through a job are deterministic (counts, cycle costs,
ratios of counts), so a memoized sweep cell is a pure function of its key.

With a shared ``cache_dir`` the jobs cooperate through the content-addressed
artifact cache: the first job to need a compiled module or profiling run
persists it, and every later job (and every later session) reuses it.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

from ..checks.diagnostics import Diagnostics
from ..evaluation.harness import (
    CA_SWEEP,
    DEFAULT_CA,
    DEFAULT_CR,
    WorkloadRun,
    make_run,
)
from ..evaluation.figures import render_series
from ..evaluation.tables import format_table
from ..frontend.fingerprint import module_fingerprint
from ..frontend.lower import compile_program
from ..obs import get_metrics, get_tracer, request_scope
from ..workloads import WORKLOAD_NAMES
from ..workloads.matrix import resolve_target
from .cache import (
    ArtifactCache,
    CacheStats,
    KIND_MODULE,
    KIND_SWEEP_CELL,
    KIND_SWEEP_SUMMARY,
    content_key,
)


@dataclass(frozen=True)
class SweepCell:
    """Deterministic metrics for one (workload, coverage) point."""

    workload: str
    ca: float
    cr: float
    #: Figure 9: relative increase in dynamic constant instructions.
    constant_increase: float
    #: Figure 11: (original, traced, reduced) real-vertex totals.
    sizes: tuple[int, int, int]
    #: Table 1: hot paths needed to reach this coverage.
    hot_paths: int


@dataclass(frozen=True)
class WorkloadSummary:
    """Per-workload scalars (Table 1 structure, Table 2 costs)."""

    workload: str
    cfg_nodes: int
    executed_paths: int
    hot_paths_default: int
    base_cost: int
    optimized_cost: int

    @property
    def speedup(self) -> float:
        if self.optimized_cost == 0:
            return 1.0
        return self.base_cost / self.optimized_cost


@dataclass
class SweepResult:
    """Everything a figure/table renderer needs, in canonical order."""

    workloads: tuple[str, ...]
    ca_values: tuple[float, ...]
    cr: float
    cells: dict[tuple[str, float], SweepCell]
    summaries: dict[str, WorkloadSummary]
    #: Cache statistics summed over all jobs.
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: Checker findings merged across all jobs (empty unless ``check=True``).
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    # -- renderers ---------------------------------------------------------

    def artifacts(self) -> dict[str, str]:
        """Rendered figure/table texts, keyed by artifact name.

        Byte-identical for identical inputs regardless of ``jobs``: every
        value here is a deterministic function of the workload definitions.
        """
        return {
            "fig9": self._fig9(),
            "fig11": self._fig11(),
            "table1": self._table1(),
            "table2": self._table2(),
        }

    def _ca_headers(self) -> list[str]:
        return [f"CA={ca:g}" for ca in self.ca_values]

    def _fig9(self) -> str:
        series = {
            name: [self.cells[(name, ca)].constant_increase for ca in self.ca_values]
            for name in self.workloads
        }
        rows = [
            [name] + [f"{v:+.1%}" for v in values]
            for name, values in series.items()
        ]
        return (
            format_table(
                ["Program"] + self._ca_headers(),
                rows,
                title=(
                    "Figure 9: increase in dynamic constant instructions vs "
                    "coverage (baseline CA = 0)"
                ),
            )
            + "\n\n"
            + render_series(
                series, [f"{ca:g}" for ca in self.ca_values], title="shape:"
            )
        )

    def _fig11(self) -> str:
        before_rows = []
        after_rows = []
        for name in self.workloads:
            sizes = [self.cells[(name, ca)].sizes for ca in self.ca_values]
            orig = sizes[0][0]
            before_rows.append(
                [name] + [f"{(hpg - orig) / orig:+.0%}" for (_, hpg, _) in sizes]
            )
            after_rows.append(
                [name] + [f"{(red - orig) / orig:+.0%}" for (_, _, red) in sizes]
            )
        header = ["Program"] + self._ca_headers()
        return (
            format_table(
                header,
                before_rows,
                title="Figure 11 (a/c): CFG-node growth BEFORE reduction vs coverage",
            )
            + "\n\n"
            + format_table(
                header,
                after_rows,
                title="Figure 11 (b/d): CFG-node growth AFTER reduction vs coverage",
            )
        )

    def _table1(self) -> str:
        rows = [
            [
                s.workload,
                s.cfg_nodes,
                s.executed_paths,
                s.hot_paths_default,
            ]
            for s in (self.summaries[name] for name in self.workloads)
        ]
        return format_table(
            [
                "Program",
                "CFG nodes",
                "Executed paths",
                f"Hot paths (CA={DEFAULT_CA:g})",
            ],
            rows,
            title="Table 1: workload statistics",
        )

    def _table2(self) -> str:
        rows = [
            [s.workload, s.base_cost, s.optimized_cost, f"{s.speedup:.3f}x"]
            for s in (self.summaries[name] for name in self.workloads)
        ]
        return format_table(
            ["Program", "Base (cycles)", "Optimized (cycles)", "Speedup"],
            rows,
            title="Table 2: running cost after constant propagation (ref input)",
        )


# ---------------------------------------------------------------------------
# the fan-out — module level, like every job, so they pickle into workers
# ---------------------------------------------------------------------------

def _pool_job(obs: bool, job: Callable, args: tuple) -> tuple:
    """Run one job in a pool worker: ``(value, span records, metrics)``,
    the last two empty unless the submitter has observability on."""
    if not obs:
        return job(*args), [], {}
    # A fresh scope per job, not a process global: a worker forked from a
    # request thread inherits that request's scoped tracer, which a global
    # would not shadow.
    with request_scope(drain=False) as (tracer, registry):
        value = job(*args)
    return value, tracer.drain_records(), registry.snapshot()


def fan_out(jobs: int, job: Callable, arg_lists: Sequence[tuple]) -> Iterator:
    """Yield ``job(*args)`` for each tuple of ``arg_lists``, in order.

    With at most one worker to use, the jobs run inline under the ambient
    tracer and registry.  Otherwise they run on a
    :class:`concurrent.futures.ProcessPoolExecutor` of
    ``min(jobs, len(arg_lists))`` workers, so ``job`` and its arguments must
    pickle.  With observability on, each job's spans are absorbed under the
    caller's current span (streaming to its listeners) and its metrics are
    merged into the ambient registry, so a trace is the same at any width.
    """
    workers = min(jobs, len(arg_lists))
    if workers <= 1:
        for args in arg_lists:
            yield job(*args)
        return
    tracer, metrics = get_tracer(), get_metrics()
    current = tracer.current()
    parent_id = current.span_id if current is not None else None
    obs = tracer.enabled or metrics.enabled
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_pool_job, obs, job, args) for args in arg_lists]
        for future in futures:
            value, records, delta = future.result()
            if tracer.enabled:
                tracer.absorb_records(records, parent_id=parent_id)
            if metrics.enabled:
                metrics.merge_snapshot(delta)
            yield value


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def _cell_from_run(run: WorkloadRun, ca: float, cr: float) -> SweepCell:
    return SweepCell(
        workload=run.workload.name,
        ca=ca,
        cr=cr,
        constant_increase=run.aggregate_classification(ca, cr).constant_increase,
        sizes=run.graph_sizes(ca, cr),
        hot_paths=run.hot_path_count(ca),
    )


def _summary_from_run(run: WorkloadRun, ca: float, cr: float) -> WorkloadSummary:
    row = run.table2(ca, cr)
    return WorkloadSummary(
        workload=run.workload.name,
        cfg_nodes=run.cfg_nodes,
        executed_paths=run.executed_paths,
        hot_paths_default=run.hot_path_count(ca),
        base_cost=row.base_cost,
        optimized_cost=row.optimized_cost,
    )


def _sweep_job(
    name: str,
    ca_values: tuple[float, ...],
    summary: bool,
    cr: float,
    cache_dir: Optional[str],
    check: bool,
    incremental: bool,
) -> tuple:
    """Some CA levels of one workload, plus its summary when ``summary``,
    from at most one run over one fresh cache.

    Returns ``(name, cells, summary or None, cache stats, checker
    findings)``.  With ``incremental`` each cell and the summary are
    memoized in the cache, keyed by the module's IR fingerprint, the data
    digests, CA and CR: after an edit only workloads whose function set
    changed miss, and a warm cell never builds the run.  A checked job
    neither reads nor writes that memo: it builds the run, so the checkers
    see every artifact, even those served from the cache.
    """
    workload = resolve_target(name)
    cache = ArtifactCache(cache_dir)
    run: Optional[WorkloadRun] = None
    memoize = incremental and not check

    def value(kind: str, build: Callable, ca: float):
        def compute():
            nonlocal run
            if run is None:
                run = make_run(workload, cache, check=check)
            return build(run, ca, cr)

        if not memoize:
            return compute()
        # The kind doubles as the key's tag ("sweep-cell", "sweep-summary").
        return cache.memo(kind, content_key(kind, *part, ca, cr), compute)

    with get_tracer().span(
        "driver.workload", workload=name, ca_values=len(ca_values)
    ):
        if memoize:
            module = cache.memo(
                KIND_MODULE,
                content_key("module", workload.source),
                lambda: compile_program(workload.source),
            )
            part = (
                module_fingerprint(module),
                [workload.train_digest, workload.ref_digest],
            )
        cells = [value(KIND_SWEEP_CELL, _cell_from_run, ca) for ca in ca_values]
        row = (
            value(KIND_SWEEP_SUMMARY, _summary_from_run, DEFAULT_CA)
            if summary
            else None
        )
    findings = run.checker.diagnostics.records if run is not None else ()
    return name, cells, row, cache.stats, findings


def _suite_job(
    target: str,
    instance: str,
    cache_dir: Optional[str],
    archive_dir: Optional[str],
):
    """One workload-matrix cell.  Targets and instances travel by name and
    are resolved in the worker (a ``gen:`` target re-derives from its
    spec), so no program or input data is pickled."""
    from ..workloads.matrix import resolve_instance, run_cell

    return run_cell(target, resolve_instance(instance), cache_dir, archive_dir)


class ParallelDriver:
    """Runs coverage sweeps and the workload matrix through :func:`fan_out`.

    ``jobs == 1`` runs every job inline, in order; ``jobs > 1`` fans them
    over a process pool.  Both produce identical :class:`SweepResult` values
    (and therefore byte-identical :meth:`SweepResult.artifacts`).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Union[str, None] = None,
        cr: float = DEFAULT_CR,
        check: bool = False,
        incremental: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.cr = cr
        #: Verify every pipeline stage of every job (SweepResult.diagnostics).
        self.check = check
        #: Memoize whole sweep cells/summaries by module fingerprint: after
        #: an edit, only cells whose workload's function set changed re-run.
        #: A checked sweep bypasses that memo, so its checkers run on every
        #: cell — see ``docs/INCREMENTAL.md``.
        self.incremental = incremental

    def sweep(
        self,
        workloads: Sequence[str] = WORKLOAD_NAMES,
        ca_values: Sequence[float] = CA_SWEEP,
    ) -> SweepResult:
        """Each workload's CA levels are dealt over
        ``n = min(jobs, len(ca_values))`` jobs — job ``k`` takes
        ``ca_values[k::n]`` — and its summary rides with the job holding
        :data:`DEFAULT_CA`.  At ``jobs == 1`` that is one run per workload."""
        workloads = tuple(workloads)
        ca_values = tuple(ca_values)
        result = SweepResult(
            workloads=workloads,
            ca_values=ca_values,
            cr=self.cr,
            cells={},
            summaries={},
        )
        n = max(1, min(self.jobs, len(ca_values)))
        home = ca_values.index(DEFAULT_CA) % n if DEFAULT_CA in ca_values else 0
        arg_lists = [
            (name, ca_values[k::n], k == home, self.cr, self.cache_dir,
             self.check, self.incremental)
            for name in workloads
            for k in range(n)
        ]
        # Two jobs of one workload both check its module and runs: each
        # distinct finding of a workload is kept once, in submission order.
        seen: set = set()
        with get_tracer().span(
            "driver.sweep",
            workloads=len(workloads),
            ca_values=len(ca_values),
            jobs=self.jobs,
        ):
            for name, cells, row, stats, findings in fan_out(
                self.jobs, _sweep_job, arg_lists
            ):
                for cell in cells:
                    result.cells[(name, cell.ca)] = cell
                if row is not None:
                    result.summaries[name] = row
                result.cache_stats.merge(stats)
                for d in findings:
                    if (name, d) not in seen:
                        seen.add((name, d))
                        result.diagnostics.add(d)
        return result

    def suite(
        self,
        targets: Sequence[str],
        instances: Sequence[str],
        archive_dir: Optional[str] = None,
    ):
        """Run the workload matrix (:mod:`repro.workloads.matrix`), one job
        per (target, instance) cell.  Cells are deterministic and the archive
        is content-addressed, so concurrent writers agree and every width
        gives the same :class:`~repro.workloads.matrix.MatrixResult`."""
        from ..workloads.matrix import MatrixResult, resolve_instances

        result = MatrixResult(
            targets=tuple(targets),
            instances=tuple(i.name for i in resolve_instances(instances)),
        )
        arg_lists = [
            (t, i, self.cache_dir, archive_dir)
            for t in result.targets
            for i in result.instances
        ]
        with get_tracer().span(
            "suite.run",
            targets=len(result.targets),
            instances=len(result.instances),
            jobs=self.jobs,
        ):
            for cell in fan_out(self.jobs, _suite_job, arg_lists):
                result.cells[(cell.target, cell.instance)] = cell
        return result
