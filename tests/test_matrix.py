"""The target x instance suite: resolution, cells, archive, driver, CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.pipeline import ParallelDriver
from repro.workloads.matrix import (
    INSTANCES,
    RESOLVED_TARGETS,
    TARGET_NAMES,
    Instance,
    MatrixCell,
    build_targets,
    cell_key,
    load_archived,
    load_cell,
    resolve_instance,
    resolve_instances,
    resolve_target,
    run_cell,
)

FAST_TARGETS = ("sieve", "gen-small")
FAST_INSTANCES = ("base", "compiled")


# -- resolution ---------------------------------------------------------------


def test_every_registered_target_resolves():
    for name in TARGET_NAMES:
        wl = resolve_target(name)
        assert wl.source.strip()
        assert wl.train_args or wl.train_inputs


def test_adhoc_genspec_target_resolves():
    wl = resolve_target("gen:seed=7,funcs=1,blocks=10,train=3,ref=4")
    assert wl.train_args == (3,)
    assert "func main" in wl.source


def test_resolved_targets_are_shared_and_immutable():
    """A name resolves to one workload, which every caller shares: its
    input arrays are tuples, so one request cannot change what another is
    analysing (``get_workload`` still builds fresh objects)."""
    wl = resolve_target("go95")
    assert resolve_target("go95") is wl
    arrays = [*wl.train_inputs.values(), *wl.ref_inputs.values()]
    assert arrays and all(type(a) is tuple for a in arrays)


def test_resolver_memo_is_bounded_and_skips_failures():
    resolve_target.cache_clear()
    with pytest.raises(KeyError):
        resolve_target("nonesuch")
    assert resolve_target.cache_info().currsize == 0
    for seed in range(RESOLVED_TARGETS + 5):
        resolve_target(f"gen:seed={seed},funcs=1,blocks=10,train=3,ref=4")
    assert resolve_target.cache_info().currsize == RESOLVED_TARGETS


def test_unknown_target_and_instance_rejected():
    with pytest.raises(KeyError, match="unknown target"):
        resolve_target("nonesuch")
    with pytest.raises(KeyError, match="unknown instance"):
        resolve_instance("nonesuch")


def test_instance_validation():
    with pytest.raises(ValueError, match="bad engine"):
        Instance("x", engine="jit")
    with pytest.raises(ValueError, match="bad solvers"):
        Instance("x", solvers="simd")


def test_registered_instances_cover_the_axes():
    assert list(INSTANCES) == ["base", "reference", "compiled", "full-cover"]
    engines = {i.engine for i in INSTANCES.values()}
    solvers = {i.solvers for i in INSTANCES.values()}
    cas = {i.ca for i in INSTANCES.values()}
    assert engines == {"compiled", "reference"}
    assert solvers == {"auto", "generic", "compiled"}
    assert 1.0 in cas


#: Each kernel the ``compiled`` column forces (it replaced one column per
#: kernel): its module, entry point, and the ``auto`` crossover below which
#: the ``base`` column keeps the generic engine.
_FORCED_KERNELS = {
    "bitset": ("repro.dataflow.compiled", "solve_compiled", "AUTO_MIN_VERTICES"),
    "wz-compiled": (
        "repro.dataflow.wz_compiled",
        "analyze_compiled",
        "WZ_AUTO_MIN_VERTICES",
    ),
}


@pytest.mark.parametrize("kernel", sorted(_FORCED_KERNELS))
def test_compiled_column_forces_kernel(kernel, monkeypatch):
    """Under the ``compiled`` column's scope the cell pipeline runs the
    kernel on routines below its ``auto`` crossover; under ``base`` it
    does not.  (The parity stages pin both engines per call, so a column
    that lost its scope would still pass its cells.)"""
    import importlib

    from repro.evaluation.harness import make_run

    module_name, entry, crossover = _FORCED_KERNELS[kernel]
    module = importlib.import_module(module_name)
    real = getattr(module, entry)
    sizes = []

    def spy(*args, **kwargs):
        view = args[1] if kernel == "bitset" else args[0]
        sizes.append(view.cfg.num_vertices)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, entry, spy)
    small = {}
    for name in ("base", "compiled"):
        instance = INSTANCES[name]
        sizes.clear()
        with instance.scopes():
            run = make_run(
                resolve_target("sieve"), engine=instance.engine, check=True
            )
            run.qualified(instance.ca, instance.cr)
        small[name] = [n for n in sizes if n < getattr(module, crossover)]
    assert small["base"] == []
    assert small["compiled"]


# -- cells --------------------------------------------------------------------


@pytest.fixture(scope="module")
def sieve_cell():
    return run_cell("sieve", INSTANCES["base"])


def test_cell_is_a_differential_verdict(sieve_cell):
    assert sieve_cell.interp_parity
    assert sieve_cell.dataflow_parity
    assert sieve_cell.checks_clean
    assert sieve_cell.ok
    assert sieve_cell.cfg_nodes > 0
    assert sieve_cell.qualified_nonlocal > 0


def test_cell_round_trips_through_json(sieve_cell):
    clone = MatrixCell.from_dict(json.loads(json.dumps(sieve_cell.to_dict())))
    assert clone == sieve_cell
    assert clone.ok


def test_cell_key_is_content_addressed():
    wl = resolve_target("sieve")
    base = cell_key(wl, INSTANCES["base"])
    assert base == cell_key(resolve_target("sieve"), INSTANCES["base"])
    assert base != cell_key(wl, INSTANCES["compiled"])
    assert base != cell_key(resolve_target("gen-small"), INSTANCES["base"])


def test_cell_key_outlives_cache_schema_bumps():
    """Archived cells are found by key; the key is pinned so an artifact
    cache schema bump cannot orphan an archive."""
    key = cell_key(resolve_target("sieve"), INSTANCES["base"])
    assert key == "20bb168ccf212911bdb2123d2e289a47fbc595c4d53f739831796a91348dbd68"


# -- phases -------------------------------------------------------------------


def test_build_phase_reports_all_targets():
    report = build_targets(FAST_TARGETS)
    for name in FAST_TARGETS:
        assert name in report
    assert "functions" in report


@pytest.fixture(scope="module")
def suite_result(tmp_path_factory):
    archive = str(tmp_path_factory.mktemp("archive"))
    result = ParallelDriver(jobs=1).suite(
        FAST_TARGETS, FAST_INSTANCES, archive_dir=archive
    )
    return result, archive


def test_suite_runs_end_to_end(suite_result):
    result, _ = suite_result
    assert result.ok, result.summary()
    assert len(result.cells) == len(FAST_TARGETS) * len(FAST_INSTANCES)
    report = result.report()
    for name in FAST_TARGETS:
        assert name in report


def test_archive_layout_and_report_phase(suite_result):
    result, archive = suite_result
    # Content-addressed layout: <archive>/<key[:2]>/<key>.json
    for (target, iname), cell in result.cells.items():
        path = os.path.join(archive, cell.key[:2], f"{cell.key}.json")
        assert os.path.exists(path), (target, iname)
        assert load_cell(archive, cell.key) == cell
    # Report phase re-renders from the archive alone, byte-identically.
    again = load_archived(
        archive, FAST_TARGETS, resolve_instances(FAST_INSTANCES)
    )
    assert again.report() == result.report()


def test_report_phase_names_missing_cells(tmp_path):
    with pytest.raises(FileNotFoundError, match="sieve/base"):
        load_archived(str(tmp_path), ["sieve"], resolve_instances(["base"]))


def test_parallel_driver_matches_serial(suite_result):
    serial, _ = suite_result
    parallel = ParallelDriver(jobs=2).suite(FAST_TARGETS, FAST_INSTANCES)
    assert parallel.ok
    assert parallel.report() == serial.report()


# -- CLI ----------------------------------------------------------------------


def test_cli_suite_list(capsys):
    assert main(["suite", "--list"]) == 0
    out = capsys.readouterr().out
    assert "sieve" in out and "gen-1k" in out and "full-cover" in out


def test_cli_suite_build_phase(capsys):
    assert main(
        ["suite", "--targets", "sieve", "--phase", "build"]
    ) == 0
    assert "compiled and validated" in capsys.readouterr().out


def test_cli_suite_run_and_report(tmp_path, capsys):
    archive = str(tmp_path / "archive")
    out_dir = str(tmp_path / "out")
    rc = main(
        [
            "suite",
            "--targets", "sieve",
            "--instances", "base",
            "--archive", archive,
            "--out", out_dir,
        ]
    )
    assert rc == 0
    capsys.readouterr()
    # The report phase needs only the archive.
    rc = main(
        [
            "suite",
            "--targets", "sieve",
            "--instances", "base",
            "--phase", "report",
            "--archive", archive,
        ]
    )
    assert rc == 0
    assert "sieve" in capsys.readouterr().out
    with open(os.path.join(out_dir, "suite.txt")) as f:
        assert "differential cells" in f.read()


def test_cli_suite_rejects_unknown_names(capsys):
    with pytest.raises(SystemExit, match="unknown target"):
        main(["suite", "--targets", "nonesuch"])
    with pytest.raises(SystemExit, match="unknown instance"):
        main(["suite", "--targets", "sieve", "--instances", "nonesuch"])


# -- the full registered matrix (slow tier) -----------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_full_instance_column_on_fast_targets(instance):
    result = ParallelDriver(jobs=1).suite(FAST_TARGETS, [instance])
    assert result.ok, result.summary()
