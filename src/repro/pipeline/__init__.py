"""Parallel, cached analysis pipeline.

The production-facing layer over the evaluation harness: a content-addressed
:class:`ArtifactCache` that memoizes compiled modules, profiling runs, and
per-function qualified/lint artifacts across coverage sweeps / processes /
sessions, a :class:`ParallelDriver` that fans workload × coverage jobs over
a process pool with a deterministic serial fallback, and an
:class:`IncrementalSession` that re-analyzes only the functions a source
edit touched and reports the differences.  See ``docs/PIPELINE.md`` and
``docs/INCREMENTAL.md``.
"""

import importlib

from .cache import (
    ArtifactCache,
    CacheStats,
    COMPILE_PROFILE_KINDS,
    DEFAULT_MEMORY_ENTRIES,
    KIND_LINT,
    KIND_MODULE,
    KIND_QUALIFIED,
    KIND_REF_RUN,
    KIND_SWEEP_CELL,
    KIND_SWEEP_SUMMARY,
    KIND_TRAIN_RUN,
    SCHEMA_VERSION,
    content_key,
    data_digest,
)

#: Names whose modules import the evaluation harness.  The harness imports
#: :mod:`.cache`, which runs this file first, so these load on first access
#: instead: importing them here would re-enter a half-initialized harness.
_LAZY = {
    "make_run": "repro.evaluation.harness",
    "ParallelDriver": "repro.pipeline.driver",
    "SweepCell": "repro.pipeline.driver",
    "SweepResult": "repro.pipeline.driver",
    "WorkloadSummary": "repro.pipeline.driver",
    "DIFF_SCHEMA": "repro.pipeline.incremental",
    "IncrementalSession": "repro.pipeline.incremental",
    "diff_workloads": "repro.pipeline.incremental",
    "edited_workload": "repro.pipeline.incremental",
    "render_diff_text": "repro.pipeline.incremental",
    "seeded_edit": "repro.pipeline.incremental",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name]), name)


__all__ = [
    "ArtifactCache",
    "CacheStats",
    "COMPILE_PROFILE_KINDS",
    "content_key",
    "data_digest",
    "DEFAULT_MEMORY_ENTRIES",
    "DIFF_SCHEMA",
    "diff_workloads",
    "edited_workload",
    "IncrementalSession",
    "KIND_LINT",
    "KIND_MODULE",
    "KIND_QUALIFIED",
    "KIND_REF_RUN",
    "KIND_SWEEP_CELL",
    "KIND_SWEEP_SUMMARY",
    "KIND_TRAIN_RUN",
    "make_run",
    "ParallelDriver",
    "render_diff_text",
    "SCHEMA_VERSION",
    "seeded_edit",
    "SweepCell",
    "SweepResult",
    "WorkloadSummary",
]
