"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` regenerates one of the paper's tables or figures.  The
seven workload runs are built once per session and shared; per-coverage
pipeline results are cached inside each :class:`WorkloadRun`.

With ``--repro-cache-dir DIR`` (or the ``REPRO_CACHE_DIR`` environment
variable) the runs additionally go through the content-addressed artifact
cache of :mod:`repro.pipeline`, so the Figure 9/11/12 sweeps reuse compiled
modules, profiling runs, and per-coverage pipelines across *sessions* — a
warm second benchmark run performs zero recompiles and zero reprofiles (the
differential tests in ``tests/test_pipeline_cache.py`` assert exactly this).

Every bench both *prints* its table (run pytest with ``-s`` to see it
inline) and writes it under ``benchmarks/results/`` so the artifacts survive
the run.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.evaluation import WorkloadRun
from repro.pipeline import ArtifactCache
from repro.workloads import WORKLOAD_NAMES, get_workload

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--repro-cache-dir",
        default=os.environ.get("REPRO_CACHE_DIR") or None,
        help="persist pipeline artifacts here and reuse them across sessions",
    )


@pytest.fixture(scope="session")
def runs(request) -> dict[str, WorkloadRun]:
    """All seven profiled workloads (the expensive shared fixture)."""
    cache = ArtifactCache(request.config.getoption("--repro-cache-dir"))
    return {
        name: WorkloadRun(get_workload(name), cache=cache)
        for name in WORKLOAD_NAMES
    }


@pytest.fixture(scope="session")
def record():
    """Persist a rendered table under benchmarks/results/ and print it."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _record


@pytest.fixture(scope="session")
def record_json():
    """Persist machine-readable results under benchmarks/results/.

    Perf-trajectory benchmarks (``bench_interp.py``) emit JSON so future PRs
    can diff numbers mechanically rather than re-parsing rendered tables.
    """
    import json

    def _record_json(name: str, payload) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\n# wrote {path}\n")

    return _record_json


def once(benchmark, fn, *args):
    """Run ``fn`` exactly once under pytest-benchmark's timer.

    The experiment computations are deterministic and expensive, so a single
    measured round is both sufficient and honest.
    """
    return benchmark.pedantic(fn, args=args, rounds=1, iterations=1)
