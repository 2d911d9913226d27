"""Fan workload × coverage sweep jobs out over a process pool.

The serial evaluation harness recomputes each figure's sweep in one
process; :class:`ParallelDriver` instead treats every ``(workload, CA)``
pair — plus one Table-2 summary per workload — as an independent job.  Jobs
run over :mod:`concurrent.futures` (``jobs > 1``) or inline in a
deterministic serial fallback (``jobs == 1``); either way the results are
assembled in canonical workload/coverage order, so the rendered figure and
table artifacts are byte-identical regardless of the job count or the
completion order.

All numbers flowing through a job are deterministic (counts, cycle costs,
ratios of counts).  Wall-clock analysis time is measured and carried on each
cell for reporting, but deliberately kept out of the rendered artifacts so
they stay comparable across machines and job counts.

With a shared ``cache_dir`` the jobs cooperate through the content-addressed
artifact cache: the first job to need a compiled module or profiling run
persists it, and every other job (and every later session) reuses it —
worker processes additionally keep a per-process run table so a worker that
already built a workload serves all its coverage levels from memory.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

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
from ..obs import (
    MetricsRegistry,
    Tracer,
    diff_snapshots,
    get_metrics,
    get_tracer,
    observability_enabled,
    set_metrics,
    set_tracer,
)
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
    #: Figure 12 raw material (wall-clock; excluded from rendered artifacts).
    analysis_time: float


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
    default_ca: float
    cells: dict[tuple[str, float], SweepCell]
    summaries: dict[str, WorkloadSummary]
    #: Cache statistics merged across all jobs (and worker processes).
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
                f"Hot paths (CA={self.default_ca:g})",
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
# job bodies — module level so they pickle into worker processes
# ---------------------------------------------------------------------------

#: Per-process memo of built runs, so a pool worker that already compiled
#: and profiled a workload serves its remaining coverage jobs from memory.
_RUN_TABLE: dict[tuple[str, Optional[str], bool], WorkloadRun] = {}

#: Per-process shared caches for incremental sweeps, one per
#: (workload, cache_dir), so cell/summary memos and any runs they build
#: count into a single stats stream.
_CACHE_TABLE: dict[tuple[str, Optional[str]], ArtifactCache] = {}


def _obtain_cache(name: str, cache_dir: Optional[str]) -> ArtifactCache:
    key = (name, cache_dir)
    cache = _CACHE_TABLE.get(key)
    if cache is None:
        cache = ArtifactCache(cache_dir)
        _CACHE_TABLE[key] = cache
    return cache


def _obtain_run(
    name: str,
    cache_dir: Optional[str],
    check: bool = False,
    incremental: bool = False,
) -> WorkloadRun:
    key = (name, cache_dir, check)
    run = _RUN_TABLE.get(key)
    if run is None:
        store = (
            _obtain_cache(name, cache_dir)
            if incremental
            else ArtifactCache(cache_dir)
        )
        run = make_run(resolve_target(name), store, check=check)
        _RUN_TABLE[key] = run
    return run


def _cell_from_run(run: WorkloadRun, ca: float, cr: float) -> SweepCell:
    return SweepCell(
        workload=run.workload.name,
        ca=ca,
        cr=cr,
        constant_increase=run.aggregate_classification(ca, cr).constant_increase,
        sizes=run.graph_sizes(ca, cr),
        hot_paths=run.hot_path_count(ca),
        analysis_time=run.analysis_time(ca, cr),
    )


def _summary_from_run(
    run: WorkloadRun, default_ca: float, cr: float
) -> WorkloadSummary:
    row = run.table2(default_ca, cr)
    return WorkloadSummary(
        workload=run.workload.name,
        cfg_nodes=run.cfg_nodes,
        executed_paths=run.executed_paths,
        hot_paths_default=run.hot_path_count(default_ca),
        base_cost=row.base_cost,
        optimized_cost=row.optimized_cost,
    )


# -- worker-side observability ----------------------------------------------
#
# When the submitting process has observability on, each job carries an
# ``obs`` flag; the first flagged job a worker sees installs enabled
# process-global tracer/registry instances.  Every job then ships back the
# spans finished and the metric *deltas* accumulated since the previous job
# in that worker, so the parent can fold them in without double counting.

#: Metric snapshot already reported back by this worker process.
_WORKER_OBS_BASE: Optional[dict] = None


def _ensure_worker_obs(enabled: bool) -> bool:
    """Install enabled obs globals in this worker, once.  Returns whether
    worker-side observability is active."""
    global _WORKER_OBS_BASE
    if not enabled:
        return observability_enabled()
    if not get_tracer().enabled:
        set_tracer(Tracer())
    if not get_metrics().enabled:
        set_metrics(MetricsRegistry())
    if _WORKER_OBS_BASE is None:
        _WORKER_OBS_BASE = get_metrics().snapshot()
    return True


def _obs_delta(active: bool) -> Optional[tuple[list[dict], dict]]:
    """This job's span records and metric-snapshot delta, or ``None`` when
    worker-side observability is off."""
    global _WORKER_OBS_BASE
    if not active:
        return None
    records = get_tracer().drain_records()
    current = get_metrics().snapshot()
    delta = diff_snapshots(current, _WORKER_OBS_BASE or {})
    _WORKER_OBS_BASE = current
    return records, delta


#: Per-process snapshot of stats already reported back by earlier jobs, so a
#: worker serving several jobs for one workload never double-reports counts.
_REPORTED: dict[tuple[str, Optional[str]], CacheStats] = {}


def _stats_delta(
    name: str, cache_dir: Optional[str], current: CacheStats
) -> CacheStats:
    key = (name, cache_dir)
    delta = current.diff(_REPORTED.get(key, CacheStats()))
    _REPORTED[key] = current.copy()
    return delta


#: Checker findings already shipped back by this worker, per run key, so a
#: worker serving several jobs for one workload reports each finding once.
_DIAG_REPORTED: dict[tuple[str, Optional[str]], int] = {}


def _diag_delta(
    name: str, cache_dir: Optional[str], run: Optional[WorkloadRun]
) -> list[dict]:
    if run is None:
        # Incremental sweeps serve warm cells without ever building the
        # run, so there is no checker to report from (see INCREMENTAL.md).
        return []
    key = (name, cache_dir)
    records = run.checker.diagnostics.records
    start = _DIAG_REPORTED.get(key, 0)
    _DIAG_REPORTED[key] = len(records)
    return [d.to_dict() for d in records[start:]]


# -- incremental sweep memos -------------------------------------------------
#
# With ``incremental=True`` the driver memoizes whole cells and summaries in
# the artifact cache, keyed by the workload's *module fingerprint* (lowered
# IR content) plus its data sets and the sweep configuration.  After an
# edit, only the cells of workloads whose function set changed miss; warm
# cells are served without compiling, profiling, or analyzing anything —
# the memoized values are deterministic functions of the key, except the
# carried wall-clock ``analysis_time``, which rendered artifacts already
# exclude.  Warm cells also skip checker re-runs (their artifacts were
# checked when first computed).


def _workload_module_fp(name: str, cache: ArtifactCache) -> str:
    from ..frontend.fingerprint import module_fingerprint
    from ..frontend.lower import compile_program

    w = resolve_target(name)
    module = cache.memo(
        KIND_MODULE,
        content_key("module", w.source),
        lambda: compile_program(w.source),
    )
    return module_fingerprint(module)


def _workload_data_part(name: str) -> list:
    w = resolve_target(name)
    return [w.train_digest, w.ref_digest]


def _incremental_cell(
    name: str,
    ca: float,
    cr: float,
    cache_dir: Optional[str],
    check: bool,
) -> tuple[SweepCell, Optional[WorkloadRun]]:
    cache = _obtain_cache(name, cache_dir)
    key = content_key(
        "sweep-cell",
        _workload_module_fp(name, cache),
        _workload_data_part(name),
        ca,
        cr,
    )
    cell = cache.memo(
        KIND_SWEEP_CELL,
        key,
        lambda: _cell_from_run(
            _obtain_run(name, cache_dir, check, incremental=True),
            ca,
            cr,
        ),
    )
    return cell, _RUN_TABLE.get((name, cache_dir, check))


def _incremental_summary(
    name: str,
    default_ca: float,
    cr: float,
    cache_dir: Optional[str],
    check: bool,
) -> tuple[WorkloadSummary, Optional[WorkloadRun]]:
    cache = _obtain_cache(name, cache_dir)
    key = content_key(
        "sweep-summary",
        _workload_module_fp(name, cache),
        _workload_data_part(name),
        default_ca,
        cr,
    )
    summary = cache.memo(
        KIND_SWEEP_SUMMARY,
        key,
        lambda: _summary_from_run(
            _obtain_run(name, cache_dir, check, incremental=True),
            default_ca,
            cr,
        ),
    )
    return summary, _RUN_TABLE.get((name, cache_dir, check))


def _cell_job(
    name: str,
    ca: float,
    cr: float,
    cache_dir: Optional[str],
    obs: bool = False,
    check: bool = False,
    incremental: bool = False,
) -> tuple:
    active = _ensure_worker_obs(obs)
    with get_tracer().span("driver.cell", workload=name, ca=ca):
        if incremental:
            cell, run = _incremental_cell(name, ca, cr, cache_dir, check)
            stats = _obtain_cache(name, cache_dir).stats
        else:
            run = _obtain_run(name, cache_dir, check)
            cell = _cell_from_run(run, ca, cr)
            stats = run.cache.stats
    return (
        "cell",
        name,
        ca,
        cell,
        _stats_delta(name, cache_dir, stats),
        _diag_delta(name, cache_dir, run),
        _obs_delta(active),
    )


def _summary_job(
    name: str,
    default_ca: float,
    cr: float,
    cache_dir: Optional[str],
    obs: bool = False,
    check: bool = False,
    incremental: bool = False,
) -> tuple:
    active = _ensure_worker_obs(obs)
    with get_tracer().span("driver.summary", workload=name):
        if incremental:
            summary, run = _incremental_summary(
                name, default_ca, cr, cache_dir, check
            )
            stats = _obtain_cache(name, cache_dir).stats
        else:
            run = _obtain_run(name, cache_dir, check)
            summary = _summary_from_run(run, default_ca, cr)
            stats = run.cache.stats
    return (
        "summary",
        name,
        summary,
        _stats_delta(name, cache_dir, stats),
        _diag_delta(name, cache_dir, run),
        _obs_delta(active),
    )


def _suite_cell_job(
    target: str,
    instance_name: str,
    cache_dir: Optional[str],
    archive_dir: Optional[str],
    obs: bool = False,
):
    """One workload-matrix cell, shipped to a pool worker by name.

    Targets and instances cross the process boundary as strings and are
    resolved worker-side (generated targets re-derive deterministically from
    their spec), mirroring the workload-name convention of :func:`_cell_job`.
    """
    from ..workloads.matrix import resolve_instance, run_cell

    active = _ensure_worker_obs(obs)
    instance = resolve_instance(instance_name)
    with get_tracer().span(
        "driver.suite_cell", target=target, instance=instance_name
    ):
        cell = run_cell(target, instance, cache_dir, archive_dir)
    return target, instance_name, cell, _obs_delta(active)


class ParallelDriver:
    """Runs coverage sweeps serially or over a process pool.

    ``jobs == 1`` is the deterministic in-process fallback; ``jobs > 1``
    fans out over :class:`concurrent.futures.ProcessPoolExecutor`.  Both
    paths produce identical :class:`SweepResult` values (and therefore
    byte-identical :meth:`SweepResult.artifacts`).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Union[str, None] = None,
        cr: float = DEFAULT_CR,
        default_ca: float = DEFAULT_CA,
        check: bool = False,
        incremental: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.cr = cr
        self.default_ca = default_ca
        #: Verify every pipeline stage of every job (SweepResult.diagnostics).
        self.check = check
        #: Memoize whole sweep cells/summaries by module fingerprint: after
        #: an edit, only cells whose workload's function set changed re-run.
        #: Warm cells skip checker re-runs (artifacts were checked when
        #: first computed) — see ``docs/INCREMENTAL.md``.
        self.incremental = incremental

    def sweep(
        self,
        workloads: Sequence[str] = WORKLOAD_NAMES,
        ca_values: Sequence[float] = CA_SWEEP,
    ) -> SweepResult:
        workloads = tuple(workloads)
        ca_values = tuple(ca_values)
        result = SweepResult(
            workloads=workloads,
            ca_values=ca_values,
            cr=self.cr,
            default_ca=self.default_ca,
            cells={},
            summaries={},
        )
        with get_tracer().span(
            "driver.sweep",
            workloads=len(workloads),
            ca_values=len(ca_values),
            jobs=self.jobs,
        ):
            if self.jobs == 1:
                self._sweep_serial(result)
            else:
                self._sweep_parallel(result)
        missing = [
            (name, ca)
            for name in workloads
            for ca in ca_values
            if (name, ca) not in result.cells
        ]
        if missing or set(result.summaries) != set(workloads):
            raise RuntimeError(f"sweep incomplete: missing {missing}")
        return result

    def suite(
        self,
        targets: Sequence[str],
        instances: Sequence[str],
        archive_dir: Optional[str] = None,
    ):
        """Run the workload matrix (:mod:`repro.workloads.matrix`) over the
        driver's pool.

        ``jobs == 1`` delegates to the serial :func:`run_suite` reference
        path; ``jobs > 1`` fans each (target, instance) cell out as its own
        process-pool job.  Both produce identical
        :class:`~repro.workloads.matrix.MatrixResult` values — cells are
        deterministic and the archive is content-addressed, so concurrent
        writers agree.
        """
        from ..workloads.matrix import (
            MatrixResult,
            resolve_instances,
            run_suite,
        )

        insts = resolve_instances(instances)
        if self.jobs == 1:
            return run_suite(targets, insts, self.cache_dir, archive_dir)
        result = MatrixResult(
            targets=tuple(targets),
            instances=tuple(i.name for i in insts),
        )
        tracer = get_tracer()
        obs = observability_enabled()
        with tracer.span(
            "suite.run",
            targets=len(result.targets),
            instances=len(result.instances),
            jobs=self.jobs,
        ) as span:
            parent_id = span.span_id if span is not None else None
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs
            ) as pool:
                futures = [
                    pool.submit(
                        _suite_cell_job, target, name, self.cache_dir,
                        archive_dir, obs,
                    )
                    for target in result.targets
                    for name in result.instances
                ]
                for future in concurrent.futures.as_completed(futures):
                    target, name, cell, obs_payload = future.result()
                    result.cells[(target, name)] = cell
                    if obs_payload is not None:
                        records, metric_delta = obs_payload
                        if tracer.enabled:
                            tracer.absorb_records(records, parent_id=parent_id)
                        metrics = get_metrics()
                        if metrics.enabled:
                            metrics.merge_snapshot(metric_delta)
        missing = [
            (t, i)
            for t in result.targets
            for i in result.instances
            if (t, i) not in result.cells
        ]
        if missing:
            raise RuntimeError(f"suite incomplete: missing {missing}")
        return result

    # -- serial fallback ---------------------------------------------------

    def _sweep_serial(self, result: SweepResult) -> None:
        if self.incremental:
            self._sweep_serial_incremental(result)
            return
        for name in result.workloads:
            with get_tracer().span("driver.workload", workload=name):
                run = make_run(
                    resolve_target(name),
                    ArtifactCache(self.cache_dir),
                    check=self.check,
                )
                for ca in result.ca_values:
                    result.cells[(name, ca)] = _cell_from_run(run, ca, self.cr)
                result.summaries[name] = _summary_from_run(
                    run, self.default_ca, self.cr
                )
            result.cache_stats.merge(run.cache.stats)
            result.diagnostics.extend(run.checker.diagnostics)

    def _sweep_serial_incremental(self, result: SweepResult) -> None:
        """Serial sweep over the per-workload cell/summary memos.

        Stats and diagnostics are reported as *deltas* (like pool workers)
        because the per-process cache and run tables persist across sweeps
        — a second sweep in the same process must not re-report them.
        """
        for name in result.workloads:
            with get_tracer().span("driver.workload", workload=name):
                run = None
                for ca in result.ca_values:
                    cell, run = _incremental_cell(
                        name, ca, self.cr, self.cache_dir, self.check,
                    )
                    result.cells[(name, ca)] = cell
                result.summaries[name], run = _incremental_summary(
                    name, self.default_ca, self.cr, self.cache_dir, self.check,
                )
            stats = _obtain_cache(name, self.cache_dir).stats
            result.cache_stats.merge(_stats_delta(name, self.cache_dir, stats))
            for d in Diagnostics.from_dicts(
                _diag_delta(name, self.cache_dir, run)
            ):
                result.diagnostics.add(d)

    # -- process-pool fan-out ----------------------------------------------

    def _sweep_parallel(self, result: SweepResult) -> None:
        tracer = get_tracer()
        obs = observability_enabled()
        sweep_span = tracer.current()
        parent_id = sweep_span.span_id if sweep_span is not None else None
        # Several workers may independently build (and check) the same
        # workload; identical findings are merged once.
        seen_diags: set = set(result.diagnostics.records)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs
        ) as pool:
            futures = [
                pool.submit(
                    _cell_job, name, ca, self.cr, self.cache_dir, obs,
                    self.check, self.incremental,
                )
                for name in result.workloads
                for ca in result.ca_values
            ]
            futures += [
                pool.submit(
                    _summary_job,
                    name,
                    self.default_ca,
                    self.cr,
                    self.cache_dir,
                    obs,
                    self.check,
                    self.incremental,
                )
                for name in result.workloads
            ]
            for future in concurrent.futures.as_completed(futures):
                payload = future.result()
                if payload[0] == "cell":
                    _, name, ca, cell, stats, diags, obs_payload = payload
                    result.cells[(name, ca)] = cell
                else:
                    _, name, summary, stats, diags, obs_payload = payload
                    result.summaries[name] = summary
                result.cache_stats.merge(stats)
                for d in Diagnostics.from_dicts(diags):
                    if d not in seen_diags:
                        seen_diags.add(d)
                        result.diagnostics.add(d)
                if obs_payload is not None:
                    records, metric_delta = obs_payload
                    if tracer.enabled:
                        tracer.absorb_records(records, parent_id=parent_id)
                    metrics = get_metrics()
                    if metrics.enabled:
                        metrics.merge_snapshot(metric_delta)
