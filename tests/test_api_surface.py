"""Names the benchmark under bench/ reaches in the package.

The benchmark drives the public API, the CLI and, in a traced run, the
attributes listed in bench/tracing.py's TARGETS.  A simplification that
renames or deletes one of them would break the benchmark without failing
any other test, so each is checked here.
"""

import importlib
import importlib.util
import pathlib

import cimeval
from cimeval import cli

from conftest import read_fixture

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", BENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_exist():
    targets = _tracing().TARGETS
    assert targets
    for _, modname, attr in targets:
        obj = importlib.import_module(f"cimeval.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (modname, attr)


def test_public_names_the_benchmark_calls():
    for name in (
        "LayerEvaluator",
        "MapperConfig",
        "MappingSpace",
        "check_valid",
        "enumerate_mappings",
        "oracle_evaluate",
        "parse_arch",
        "parse_mapping",
        "parse_workload",
        "search",
    ):
        assert callable(getattr(cimeval, name)), name
    assert callable(cli.main)


def test_space_and_evaluator_members(crossbar_arch, tiny_layer):
    space = cimeval.MappingSpace(crossbar_arch, tiny_layer)
    idxs = space.draw_indices(10, 0)
    assert idxs
    assert isinstance(space.bounds_ok(space.bounds_at(idxs[0])), bool)
    ev = cimeval.LayerEvaluator(crossbar_arch, tiny_layer)
    assert isinstance(ev.table.fingerprint, str)


def test_jobs_flag(tmp_path):
    arch = tmp_path / "arch.yaml"
    work = tmp_path / "work.yaml"
    arch.write_text(read_fixture("arch_crossbar.yaml"))
    work.write_text(read_fixture("workload_tiny.yaml"))
    for command in ("search", "sweep"):
        argv = [command, "--arch", str(arch), "--workload", str(work), "--jobs", "1"]
        if command == "sweep":
            argv += ["--param", "cell.mesh_x=2"]
        assert cli.main(argv + ["--out", str(tmp_path / "report.txt")]) == 0
