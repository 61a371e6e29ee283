"""The package reads YAML with libyaml's parser when PyYAML has it, and
with PyYAML's Python parser otherwise: both must give the same documents."""

import importlib.util
import pathlib

import pytest
import yaml

from cimeval import archspec, mapping, workload
from cimeval.archspec import ArchError, _arch_loader, parse_arch
from cimeval.mapping import MappingError, parse_mapping
from cimeval.workload import YAML_LOADER, WorkloadError, parse_workload

from conftest import FIXTURES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _bench_inputs() -> dict[str, str]:
    """Every input file the benchmark's workloads write, by workload/name."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        f"{name}/{file}": text
        for name, cls in module.WORKLOADS.items()
        for file, text in cls(smoke=False).files().items()
    }


INPUTS = {p.name: p.read_text(encoding="utf-8") for p in FIXTURES.glob("*.yaml")}
INPUTS.update(_bench_inputs())


def test_the_package_loader_is_libyaml_when_pyyaml_has_it():
    assert YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    assert issubclass(archspec._ArchLoader, YAML_LOADER)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_both_parsers_load_equal_documents(name):
    text = INPUTS[name]
    # the architecture loader reads every document, tagged or not
    python, package = (
        list(yaml.load_all(text, Loader=_arch_loader(base)))
        for base in (yaml.SafeLoader, YAML_LOADER)
    )
    assert package == python and python != []


READERS = {
    "arch": (parse_arch, ArchError),
    "workload": (parse_workload, WorkloadError),
    "mapping": (parse_mapping, MappingError),
}
# an unclosed flow sequence, which the two parsers word differently
BROKEN = "nodes:\n  cell: [\n"


def _read_all() -> tuple[dict, dict]:
    """What each reader makes of each fixture of its kind, and the error
    message each gives for BROKEN."""
    docs = {
        p.name: READERS[p.name.split("_")[0]][0](p.read_text(encoding="utf-8"))
        for p in FIXTURES.glob("*.yaml")
    }
    errors = {}
    for what, (read, error) in READERS.items():
        with pytest.raises(error) as caught:
            read(BROKEN)
        errors[what] = str(caught.value)
    return docs, errors


def test_readers_run_on_the_python_parser(monkeypatch):
    docs, errors = _read_all()
    monkeypatch.setattr(workload, "YAML_LOADER", yaml.SafeLoader)
    monkeypatch.setattr(mapping, "YAML_LOADER", yaml.SafeLoader)
    monkeypatch.setattr(archspec, "_ArchLoader", _arch_loader(yaml.SafeLoader))
    python_docs, python_errors = _read_all()
    assert python_docs == docs and len(docs) == 4
    for what, message in errors.items():
        # the same place, whatever the wording
        where = message.split(": ")[0]
        assert where.endswith(" YAML error at line 3, column 1"), message
        assert python_errors[what].split(": ")[0] == where
        # the wording shows which parser ran
        assert (python_errors[what] != message) == yaml.__with_libyaml__
