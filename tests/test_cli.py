"""End-to-end exercises for the cimeval command line."""

import collections
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cimeval import MappingSpace, __version__, cli, parse_arch, parse_workload
from cimeval.cli import main

from conftest import fixture_path, read_fixture

ARCH = fixture_path("arch_crossbar.yaml")
WORKLOAD = fixture_path("workload_tiny.yaml")
MAPPING = fixture_path("mapping_tiny.yaml")
CONV_WORKLOAD = fixture_path("workload_conv.yaml")

# M=8/K=16 gives a mapping space well past the sampling budget, so a
# budget of 200 samples it.
FC_TEXT = """\
layers:
  - name: big
    dims: {M: 8, K: 16}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {two_point: [0, 1, 0.25]}, Weights: {delta: 1}}
"""

DELTA_TEXT = """\
layers:
  - name: sure
    dims: {M: 2, K: 2}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {delta: 1}, Weights: {delta: 1}}
"""

_BUFFER_REUSE = "temporal_reuse: [Inputs, Outputs]\n"
_CONSTRAINED = _BUFFER_REUSE + "constraints: "
_FIRST_NODE = "--- !Component\nname: buffer\n"
_TINY_BITS = "    bits: {Inputs: 1, Weights: 1, Outputs: 8}\n"
_TINY_PMF = (
    "    pmf:\n      Inputs: {two_point: [0, 1, 0.25]}\n      Weights: {delta: 1}\n"
)

PADDED_MAPPING = """\
nodes:
  buffer:
    - {dim: M, bound: 2}
  cell:
    - {dim: M, bound: 2, kind: spatialX}
    - {dim: K, bound: 2, kind: spatialY}
"""


def test_evaluate_report_contents(tmp_path):
    out = tmp_path / "report.json"
    rc = main(
        [
            "evaluate",
            "--arch", ARCH,
            "--workload", WORKLOAD,
            "--mapping", MAPPING,
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    report = json.loads(text)
    assert report["command"] == "evaluate"
    assert report["version"] == __version__
    assert report["layer"] == "tiny"
    assert report["metrics"]["energy_j"] == pytest.approx(5.82e-12, rel=1e-12, abs=0)
    assert report["metrics"]["macs"] == 4
    assert report["metrics"]["cycles"] == 1
    assert report["counts"]["cell"]["all"]["compute"] == 4
    assert report["counts"]["dac"]["Inputs"]["convert"] == 2
    assert report["counts"]["buffer"]["Outputs"]["write"] == 1
    assert report["breakdown"]["adc"]["convert"]["count"] == 2
    assert report["breakdown"]["adc"]["convert"]["energy_j"] == pytest.approx(5.12e-12, abs=0)
    assert report["mapping"] == {
        "cell": [
            {"dim": "M", "bound": 2, "kind": "spatialX"},
            {"dim": "K", "bound": 2, "kind": "spatialY"},
        ]
    }
    assert report["diagnostics"]["warnings"] == []
    assert report["energy_table_fingerprint"]
    for name, path in (("arch", ARCH), ("workload", WORKLOAD), ("mapping", MAPPING)):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert report["inputs"][name] == {"path": path, "sha256": digest}
    # the emitted form is already canonical
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_evaluate_reruns_are_byte_identical(tmp_path, capsys):
    argv = ["evaluate", "--arch", ARCH, "--workload", WORKLOAD, "--mapping", MAPPING]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out == a.read_text(encoding="utf-8")


def test_evaluate_layer_selection_errors(capsys):
    rc = main(
        ["evaluate", "--arch", ARCH, "--workload", CONV_WORKLOAD, "--mapping", MAPPING]
    )
    assert rc == 2
    assert "needs --layer" in capsys.readouterr().err

    rc = main(
        [
            "evaluate",
            "--arch", ARCH,
            "--workload", CONV_WORKLOAD,
            "--layer", "nope",
            "--mapping", MAPPING,
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "no layer 'nope'" in err
    assert "conv3x3" in err


def test_evaluate_rejects_invalid_mapping(tmp_path, capsys):
    short = tmp_path / "short.yaml"
    short.write_text("nodes:\n  cell:\n    - {dim: M, bound: 2, kind: spatialX}\n")
    rc = main(
        ["evaluate", "--arch", ARCH, "--workload", WORKLOAD, "--mapping", str(short)]
    )
    assert rc == 2
    assert "invalid mapping" in capsys.readouterr().err


def test_missing_input_file_exits_two(tmp_path, capsys):
    rc = main(
        [
            "evaluate",
            "--arch", str(tmp_path / "ghost.yaml"),
            "--workload", WORKLOAD,
            "--mapping", MAPPING,
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["--arch", "--workload", "--mapping"])
@pytest.mark.parametrize(
    "raw",
    [b"a: \x01\n", b"a: \xff\xfe\n", b"nodes:\n  cell: [\n"],
    ids=["control_character", "not_utf8", "unclosed_flow"],
)
def test_unreadable_yaml_exits_two_with_one_line(tmp_path, capsys, which, raw):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(raw)
    paths = {"--arch": ARCH, "--workload": WORKLOAD, "--mapping": MAPPING}
    paths[which] = str(bad)
    argv = ["evaluate"] + [a for flag, path in paths.items() for a in (flag, path)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    if raw == b"a: \xff\xfe\n":
        assert f"{which} {bad}" in err[0], err


def test_broken_architecture_exits_two(tmp_path, capsys):
    base = read_fixture("arch_crossbar.yaml")
    head = base[: base.index("--- !Component\nname: cell")]
    bad = tmp_path / "bad.yaml"
    bad.write_text(head + "--- !Container\nname: grid\nspatial: {meshX: 2}\n")
    rc = main(
        ["evaluate", "--arch", str(bad), "--workload", WORKLOAD, "--mapping", MAPPING]
    )
    assert rc == 2
    assert "architecture validation failed" in capsys.readouterr().err

    rc = main(["validate", "--arch", str(bad)])
    assert rc == 2
    out = capsys.readouterr().out
    assert "error:" in out
    assert "innermost" in out


def _evaluate(arch: str, workload: str, capsys) -> tuple[int, str, str]:
    """Run evaluate on the tiny mapping; return the code, stdout and stderr."""
    rc = main(["evaluate", "--arch", arch, "--workload", workload, "--mapping", MAPPING])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_action_the_model_cannot_price_exits_two(tmp_path, capsys):
    # an adder holding Outputs for temporal reuse is asked to write them
    text = read_fixture("arch_crossbar.yaml")
    assert "\ncoalesce: [Outputs]\n" in text
    bad = tmp_path / "arch.yaml"
    bad.write_text(text.replace("\ncoalesce: [Outputs]\n", "\ntemporal_reuse: [Outputs]\n"))
    rc, _, err = _evaluate(str(bad), WORKLOAD, capsys)
    assert rc == 2
    assert err == "error: node 'accum': model AdderModel cannot price 'write'\n"


def test_pmf_file_with_a_non_integer_line_exits_two(tmp_path, capsys):
    (tmp_path / "weights.txt").write_text("1\n0.5\n1\n")
    bad = tmp_path / "work.yaml"
    bad.write_text(read_fixture("workload_tiny.yaml").replace(
        "Weights: {delta: 1}", "Weights: {file: weights.txt}"
    ))
    rc, _, err = _evaluate(ARCH, str(bad), capsys)
    assert rc == 2
    want = f"error: PMF file {tmp_path / 'weights.txt'} has a non-integer entry"
    assert err == want + "\n"


def test_two_point_at_one_value_reads_as_delta(tmp_path, capsys):
    text = read_fixture("workload_tiny.yaml")
    reports = []
    for spec in ("{two_point: [1, 1, 0.25]}", "{delta: 1}"):
        work = tmp_path / "work.yaml"
        work.write_text(text.replace("{two_point: [0, 1, 0.25]}", spec))
        rc, out, _ = _evaluate(ARCH, str(work), capsys)
        assert rc == 0
        report = json.loads(out)
        del report["inputs"]  # the file digests differ
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "fixture, old, new",
    [
        ("arch_crossbar.yaml", "t_read: 10.0e-9", "t_read: fast"),
        ("arch_crossbar.yaml", "t_read: 10.0e-9", "t_read: .nan"),
        ("arch_crossbar.yaml", "meshX: 2", "meshX: 1.5"),
        ("arch_crossbar.yaml", "meshX: 2", "meshX: .inf"),
        ("workload_tiny.yaml", "dims: {M: 2, K: 2}", "dims: {M: two, K: 2}"),
        ("arch_crossbar.yaml", _BUFFER_REUSE, _CONSTRAINED + "{max_tile: {M: x}}\n"),
        ("arch_crossbar.yaml", _BUFFER_REUSE, _CONSTRAINED + "{max_tile: {M: 1.5}}\n"),
        ("arch_crossbar.yaml", _BUFFER_REUSE, _CONSTRAINED + "{max_tile: {M: 0}}\n"),
        ("arch_crossbar.yaml", _BUFFER_REUSE, _CONSTRAINED + "{keep_dims: 5}\n"),
        ("arch_crossbar.yaml", _BUFFER_REUSE, _CONSTRAINED + "{spatial_dims: 3}\n"),
        ("workload_tiny.yaml", _TINY_PMF, "    pmf: [1, 2]\n"),
        ("workload_tiny.yaml", _TINY_BITS, _TINY_BITS + "    signed: [1]\n"),
        ("workload_tiny.yaml", "Inputs: [K]", "Inputs: 5"),
        ("workload_tiny.yaml", "{two_point: [0, 1, 0.25]}", "{uniform: [0]}"),
        ("workload_tiny.yaml", "{two_point: [0, 1, 0.25]}", "{two_point: [0, 1, x]}"),
        ("workload_tiny.yaml", "{delta: 1}", "{delta: x}"),
        ("workload_tiny.yaml", "name: tiny", "name: [x]"),
        ("workload_tiny.yaml", "dims: {M: 2, K: 2}", "dims: {M: 2.5, K: 2}"),
        ("workload_tiny.yaml", "bits: {Inputs: 1,", "bits: {Inputs: 1.7,"),
        ("arch_crossbar.yaml", "  vdd: 1.0\n", "  vdd: 1.0\n  input_slice_width: x\n"),
        ("arch_crossbar.yaml", "  vdd: 1.0\n", "  vdd: 1.0\n  input_slice_width: 1.5\n"),
        ("workload_tiny.yaml", "{delta: 1}", "{file: [x]}"),
        ("workload_tiny.yaml", "{delta: 1}", "{support: [1.5], probs: [1.0]}"),
        ("arch_crossbar.yaml", "resolution: 8", "resolution: 4.5"),
        ("arch_crossbar.yaml", "resolution: 8", "resolution: true"),
        ("arch_crossbar.yaml", "resolution: 8", "resolution: .inf"),
        ("arch_crossbar.yaml", "resolution: 8", "resolution: 99999999999999999999"),
        ("arch_crossbar.yaml", "t_read: 10.0e-9", "t_read: true"),
        ("workload_tiny.yaml", _TINY_BITS, _TINY_BITS + '    signed: {Inputs: "false"}\n'),
        ("arch_crossbar.yaml", "class: adc", "class: [1]"),
        ("arch_crossbar.yaml", "class: adc", "class: {a: 1}"),
        ("workload_tiny.yaml", "bits: {Inputs: 1,", "bits: {Inputs: 99999999999999999999,"),
        ("arch_crossbar.yaml", _BUFFER_REUSE, _CONSTRAINED + "{pin: [M]}\n"),
        ("arch_crossbar.yaml", _BUFFER_REUSE, _CONSTRAINED + "{max_tile: [M]}\n"),
        ("arch_crossbar.yaml", "attributes:\n  resolution: 8\n", "attributes: [8]\n"),
        ("arch_crossbar.yaml", _FIRST_NODE, "---\ndefaults: [1]\n" + _FIRST_NODE),
        ("arch_crossbar.yaml", _FIRST_NODE, "---\nname: loose\n" + _FIRST_NODE),
        ("mapping_tiny.yaml", "nodes:\n", "nodes: [1]\nloops:\n"),
        ("mapping_tiny.yaml", "  cell:\n", "  buffer: 5\n  cell:\n"),
        ("mapping_tiny.yaml", "  cell:\n", "  buffer: [5]\n  cell:\n"),
        ("mapping_tiny.yaml", "bound: 2, kind: spatialX}", "bound: 2, kind: spatialX, tile: 1}"),
        ("mapping_tiny.yaml", "bound: 2, kind: spatialX}", "bound: 0, kind: spatialX}"),
        ("workload_tiny.yaml", "{delta: 1}", "{table: {support: [1]}}"),
        ("workload_tiny.yaml", "{delta: 1}", "{support: [0, 1], probs: [1.0]}"),
        (
            "workload_tiny.yaml",
            "{two_point: [0, 1, 0.25]}",
            "{support: [0, 1], probs: [0.75, 0.25, 0.5]}",
        ),
        ("workload_tiny.yaml", "layers:\n", "layers:\n  - 5\n"),
        ("workload_tiny.yaml", "dims: {M: 2, K: 2}", "dims: {}"),
        ("workload_tiny.yaml", "      Outputs: [M]\n", "      Outputs: [M]\n      Bias: [M]\n"),
        (
            "workload_tiny.yaml",
            "      Weights: {delta: 1}\n",
            "      Weights: {delta: 1}\n      Bias: {delta: 1}\n",
        ),
    ],
    ids=[
        "non_numeric_attribute",
        "nan_attribute",
        "fractional_mesh",
        "infinite_mesh",
        "non_integer_dim",
        "non_numeric_max_tile",
        "fractional_max_tile",
        "zero_max_tile",
        "scalar_keep_dims",
        "scalar_spatial_dims",
        "pmf_list",
        "signed_list",
        "scalar_projection",
        "short_uniform",
        "non_numeric_two_point",
        "non_numeric_delta",
        "list_layer_name",
        "fractional_dim",
        "fractional_bits",
        "non_numeric_slice_width",
        "fractional_slice_width",
        "list_pmf_file",
        "fractional_table_support",
        "fractional_resolution",
        "bool_resolution",
        "infinite_resolution",
        "huge_resolution",
        "bool_attribute",
        "quoted_signed",
        "list_class",
        "map_class",
        "huge_bits",
        "unknown_constraint",
        "list_max_tile",
        "list_attributes",
        "list_defaults",
        "untagged_document",
        "list_nodes",
        "scalar_loops",
        "scalar_loop_entry",
        "unknown_loop_key",
        "zero_bound",
        "table_without_probs",
        "table_short_probs",
        "table_long_probs",
        "scalar_layer",
        "empty_dims",
        "unknown_role_projection",
        "unknown_role_pmf",
    ],
)
def test_malformed_numbers_exit_two(tmp_path, capsys, fixture, old, new):
    text = read_fixture(fixture)
    assert old in text
    bad = tmp_path / fixture
    bad.write_text(text.replace(old, new))
    inputs = {
        "arch_crossbar.yaml": ARCH,
        "workload_tiny.yaml": WORKLOAD,
        "mapping_tiny.yaml": MAPPING,
    }
    inputs[fixture] = str(bad)
    rc = main(
        [
            "evaluate",
            "--arch", inputs["arch_crossbar.yaml"],
            "--workload", inputs["workload_tiny.yaml"],
            "--mapping", inputs["mapping_tiny.yaml"],
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_validate_happy_paths(capsys):
    assert main(["validate", "--arch", ARCH]) == 0
    assert capsys.readouterr().out == "ok\n"

    rc = main(
        [
            "validate",
            "--arch", ARCH,
            "--workload", WORKLOAD,
            "--mapping", MAPPING,
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == "ok\n"


@pytest.mark.parametrize(
    "old, new",
    [
        ("  vdd: 1.0\n", "  vdd: 1.0\n  input_slice_width: x\n"),
        ("  vdd: 1.0\n", "  vdd: 1.0\n  weight_encoding: foo\n"),
        ("model: value_proportional", "model: foo"),
        ("resolution: 8", "resolution: 8\n  sample_rate: -1"),
        ("resolution: 8", "resolution: 4.5"),
    ],
    ids=["slice_width", "encoding", "dac_model", "sample_rate", "resolution"],
)
def test_validate_reports_what_evaluate_rejects(tmp_path, capsys, old, new):
    text = read_fixture("arch_crossbar.yaml")
    assert old in text
    bad = tmp_path / "arch.yaml"
    bad.write_text(text.replace(old, new))
    rc = main(["validate", "--arch", str(bad), "--workload", WORKLOAD])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.startswith("error: [tiny] ") and out.count("\n") == 1
    argv = ["evaluate", "--arch", str(bad), "--workload", WORKLOAD]
    assert main(argv + ["--mapping", MAPPING]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_mapping_needs_workload(capsys):
    rc = main(["validate", "--arch", ARCH, "--mapping", MAPPING])
    assert rc == 2
    assert "needs --workload" in capsys.readouterr().err


def test_validate_layer_needs_workload(capsys):
    assert main(["validate", "--arch", ARCH, "--layer", "nope"]) == 2
    err = capsys.readouterr().err
    assert err == "error: validating with --layer needs --workload\n"


def test_validate_prints_an_arch_problem_once_and_checks_no_layer(tmp_path, capsys):
    base = read_fixture("arch_crossbar.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        base[: base.index("--- !Component\nname: cell")]
        + "--- !Container\nname: grid\nspatial: {meshX: 2}\n"
    )
    assert main(["validate", "--arch", str(bad), "--workload", CONV_WORKLOAD]) == 2
    out = capsys.readouterr().out
    assert out == (
        "error: compute leaf absent: the innermost node must be a Component\n"
    )


def test_validate_checks_no_mapping_on_a_layer_the_arch_fails(tmp_path, capsys):
    arch = tmp_path / "arch.yaml"
    cell = "name: cell\nclass: reram_cell\n"
    arch.write_text(
        read_fixture("arch_crossbar.yaml").replace(
            cell, cell + "constraints: {keep_dims: [Z]}\n"
        )
    )
    argv = ["validate", "--arch", str(arch), "--workload", WORKLOAD]
    assert main(argv + ["--mapping", MAPPING]) == 2
    out = capsys.readouterr().out
    assert out == "error: [tiny] node 'cell': constraints name unknown dims ['Z']\n"


def test_a_bad_adc_sample_rate_names_the_adc_node(tmp_path, capsys):
    arch = tmp_path / "arch.yaml"
    arch.write_text(
        read_fixture("arch_crossbar.yaml")
        .replace("name: adc\n", "name: col_adc\n")
        .replace("resolution: 8", "resolution: 8\n  sample_rate: -1")
    )
    argv = ["--arch", str(arch), "--workload", WORKLOAD]
    assert main(["evaluate", *argv, "--mapping", MAPPING]) == 2
    err = capsys.readouterr().err
    assert err == "error: node 'col_adc': sample_rate must be positive\n"


def test_validate_prints_padding_warning(tmp_path, capsys):
    padded = tmp_path / "padded.yaml"
    padded.write_text(PADDED_MAPPING)
    rc = main(
        [
            "validate",
            "--arch", ARCH,
            "--workload", WORKLOAD,
            "--mapping", str(padded),
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("warning: [tiny]")
    assert "padded" in lines[0]
    assert lines[-1] == "ok"


def test_search_exhausts_the_tiny_space(tmp_path):
    out = tmp_path / "search.json"
    rc = main(["search", "--arch", ARCH, "--workload", WORKLOAD, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["command"] == "search"
    assert report["objective"] == "energy"
    assert report["budget"] == 1000
    assert report["seed"] == 0
    entry = report["layers"]["tiny"]
    assert entry["space_total"] == 49
    assert entry["evaluated"] == 49
    assert entry["valid"] == 47
    assert entry["metrics"]["energy_j"] == pytest.approx(5.82e-12, rel=1e-12, abs=0)
    assert entry["energy_table_fingerprint"]
    assert report["totals"]["energy_j"] == pytest.approx(5.82e-12, rel=1e-12, abs=0)
    assert report["totals"]["macs"] == 4
    assert report["totals"]["edp_js"] == pytest.approx(
        report["totals"]["energy_j"] * report["totals"]["latency_s"], rel=1e-12, abs=0
    )


def test_search_dump_mapping_round_trips(tmp_path):
    dump = tmp_path / "best.yaml"
    out = tmp_path / "search.json"
    rc = main(
        [
            "search",
            "--arch", ARCH,
            "--workload", WORKLOAD,
            "--out", str(out),
            "--dump-mapping", str(dump),
        ]
    )
    assert rc == 0
    best = json.loads(out.read_text(encoding="utf-8"))["layers"]["tiny"]

    ev_out = tmp_path / "eval.json"
    rc = main(
        [
            "evaluate",
            "--arch", ARCH,
            "--workload", WORKLOAD,
            "--mapping", str(dump),
            "--out", str(ev_out),
        ]
    )
    assert rc == 0
    ev = json.loads(ev_out.read_text(encoding="utf-8"))
    assert ev["metrics"]["energy_j"] == pytest.approx(
        best["metrics"]["energy_j"], rel=1e-12, abs=0
    )
    assert ev["mapping"] == best["best_mapping"]


def test_search_dump_mapping_needs_single_layer(capsys):
    rc = main(
        [
            "search",
            "--arch", ARCH,
            "--workload", CONV_WORKLOAD,
            "--dump-mapping", "unused.yaml",
        ]
    )
    assert rc == 2
    assert "--dump-mapping needs --layer" in capsys.readouterr().err


def test_search_worker_count_leaves_no_trace(tmp_path):
    wl = tmp_path / "fc.yaml"
    wl.write_text(FC_TEXT)
    argv = [
        "search",
        "--arch", ARCH,
        "--workload", str(wl),
        "--budget", "200",
        "--seed", "5",
    ]
    a = tmp_path / "j1.json"
    b = tmp_path / "j2.json"
    assert main(argv + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(argv + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_empty_space_exits_three(tmp_path, capsys):
    base = read_fixture("arch_crossbar.yaml")
    pinned = base.replace(
        "temporal_reuse: [Inputs, Outputs]\n",
        "temporal_reuse: [Inputs, Outputs]\nconstraints:\n  max_tile: {M: 1}\n",
    )
    arch = tmp_path / "pinned.yaml"
    arch.write_text(pinned)
    rc = main(["search", "--arch", str(arch), "--workload", WORKLOAD])
    assert rc == 3
    assert "no valid mapping for layer 'tiny'" in capsys.readouterr().err


def test_sweep_point_without_a_valid_mapping_exits_three(tmp_path, capsys):
    pinned = read_fixture("arch_crossbar.yaml").replace(
        _BUFFER_REUSE, _CONSTRAINED + "{max_tile: {M: 1}}\n"
    )
    arch = tmp_path / "pinned.yaml"
    arch.write_text(pinned)
    argv = ["sweep", "--arch", str(arch), "--workload", WORKLOAD]
    assert main(argv + ["--param", "cell.t_read=1.0e-8"]) == 3
    err = capsys.readouterr().err
    assert err == "error: no valid mapping at sweep point 0 for layer 'tiny'\n"


@pytest.mark.parametrize("command", ["search", "sweep"])
def test_sweep_checks_the_arch_against_each_layer_as_search_does(
    tmp_path, capsys, command
):
    arch = tmp_path / "arch.yaml"
    arch.write_text(
        read_fixture("arch_crossbar.yaml") + "constraints: {keep_dims: [Z]}\n"
    )
    argv = [command, "--arch", str(arch), "--workload", WORKLOAD]
    assert main(argv + ["--param", "cell.mesh_x=2"] * (command == "sweep")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: architecture validation failed")
    assert "unknown dims ['Z']" in err


def test_sweep_checks_the_arch_once(monkeypatch, capsys):
    real, calls = cli.validate, []
    monkeypatch.setattr(cli, "validate", lambda *a: calls.append(a) or real(*a))
    argv = ["sweep", "--arch", ARCH, "--workload", WORKLOAD]
    assert main(argv + ["--param", "cell.t_read=10.0e-9,20.0e-9"]) == 0
    # the arch on its own, then against the one layer
    assert len(calls) == 2


def test_sweep_csv_schema_and_energies(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--arch", ARCH,
            "--workload", WORKLOAD,
            "--param", "cell.t_read=10.0e-9,20.0e-9",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.split("\n")
    columns = (
        "layer,cell.t_read,best_energy_j,energy_per_mac_j,cycles,utilization,area_m2"
    )
    assert lines[0] == "# cimeval-sweep-v1 " + columns
    assert lines[1] == columns
    assert lines[4] == ""
    slow = lines[2].split(",")
    fast = lines[3].split(",")
    assert slow[0] == fast[0] == "tiny"
    assert float(slow[1]) == pytest.approx(1e-8, abs=0)
    assert float(fast[1]) == pytest.approx(2e-8, abs=0)
    # doubling t_read doubles only the cell term: 4 * 0.125pJ -> 4 * 0.25pJ
    assert float(slow[2]) == pytest.approx(5.82e-12, rel=1e-12, abs=0)
    assert float(fast[2]) == pytest.approx(6.32e-12, rel=1e-12, abs=0)
    assert slow[4] == "1"


def test_sweeps_leave_no_cyclic_garbage(capsys):
    argv = ["sweep", "--arch", ARCH, "--workload", WORKLOAD]
    # building the parser leaves argparse cycles once per process
    cli._build_parser()
    gc.collect()
    flags, saved = gc.get_debug(), gc.garbage[:]
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):
            assert main(argv + ["--param", "cell.t_read=10.0e-9,20.0e-9"]) == 0
        gc.collect()
        left = collections.Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
    # one parser serves every call, so no argparse cycles wait on the collector
    assert not left, left.most_common(5)
    capsys.readouterr()
    # and it keeps no --param list from an earlier call
    assert main(argv) == 2
    assert "at least one --param" in capsys.readouterr().err


def test_sweep_zips_params_and_rejects_bad_specs(tmp_path, capsys):
    argv = ["sweep", "--arch", ARCH, "--workload", WORKLOAD]
    rc = main(
        argv
        + [
            "--param", "cell.t_read=10.0e-9,10.0e-9",
            "--param", "adc.resolution=8,8",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[1].split(",")[:3] == ["layer", "cell.t_read", "adc.resolution"]
    assert len(lines) == 4

    assert main(argv) == 2
    assert "at least one --param" in capsys.readouterr().err

    rc = main(argv + ["--param", "cell.t_read=1e-9,2e-9", "--param", "adc.resolution=8"])
    assert rc == 2
    assert "equal lengths" in capsys.readouterr().err

    assert main(argv + ["--param", "ghost.t_read=1e-9"]) == 2
    assert "unknown node 'ghost'" in capsys.readouterr().err

    assert main(argv + ["--param", "cell.t_read=soon"]) == 2
    assert "not a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("cell.t_read", "must look like node.attr=v1,v2"),
        ("t_read=1e-9", "path must be node.attr"),
        ("cell.t_read=1e-9,fast", "value 'fast' is not a number"),
        ("cell.t_read= , ", "has no values"),
        ("cell.weight_encoding=offset,bogus", "unknown encoding 'bogus'"),
        ("cell.input_encoding=2", "unknown encoding '2'"),
    ],
)
def test_sweep_rejects_a_malformed_param_in_one_line(capsys, spec, message):
    argv = ["sweep", "--arch", ARCH, "--workload", WORKLOAD, "--param", spec]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message in err[0]
    assert "Traceback" not in captured.err and not captured.out


def test_oracle_compare_counts_match(capsys):
    rc = main(
        ["oracle-compare", "--arch", ARCH, "--workload", WORKLOAD, "--mapping", MAPPING]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1] == "verdict: match"
    assert lines[-2].startswith("energy: model=")
    assert all(line.startswith("ok") for line in lines[:-2])


def test_oracle_compare_energy_tolerance(tmp_path, capsys):
    # two sampled 1-bit inputs can never average to the pmf mean of 0.25,
    # so the relative energy gap stays far above 1e-6 for every seed
    out = tmp_path / "cmp.json"
    rc = main(
        [
            "oracle-compare",
            "--arch", ARCH,
            "--workload", WORKLOAD,
            "--mapping", MAPPING,
            "--energy-tol", "1e-6",
            "--out", str(out),
        ]
    )
    assert rc == 4
    assert "verdict: mismatch" in capsys.readouterr().out
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["verdict"] == "mismatch"
    assert report["energy_relative_gap"] > 1e-6
    assert report["counts_model"] == report["counts_oracle"]

    sure = tmp_path / "sure.yaml"
    sure.write_text(DELTA_TEXT)
    rc = main(
        [
            "oracle-compare",
            "--arch", ARCH,
            "--workload", str(sure),
            "--mapping", MAPPING,
            "--energy-tol", "1e-9",
        ]
    )
    assert rc == 0
    assert "verdict: match" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-1"), ("--energy-tol", "nan"), ("--energy-tol", "-0.1"),
     ("--energy-tol", "inf")],
)
def test_oracle_compare_rejects_bad_seed_and_tolerance(capsys, flag, value):
    argv = ["oracle-compare", "--arch", ARCH, "--workload", WORKLOAD]
    assert main(argv + ["--mapping", MAPPING, flag, value]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert value in err[0] and captured.out == ""


def test_oracle_compare_reports_a_count_mismatch(monkeypatch, capsys):
    real = cli.oracle_evaluate

    def off_by_one(*args, **kwargs):
        res = real(*args, **kwargs)
        res.counts[("buffer", "Inputs", "read")] += 1
        return res

    monkeypatch.setattr(cli, "oracle_evaluate", off_by_one)
    argv = ["oracle-compare", "--arch", ARCH, "--workload", WORKLOAD]
    assert main(argv + ["--mapping", MAPPING]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert "MISMATCH buffer.Inputs.read: model=2 oracle=3" in lines
    assert sum(line.startswith("MISMATCH") for line in lines) == 1
    assert lines[-1] == "verdict: mismatch"


def test_oracle_compare_rejects_padded_mapping(tmp_path, capsys):
    padded = tmp_path / "padded.yaml"
    padded.write_text(PADDED_MAPPING)
    rc = main(
        [
            "oracle-compare",
            "--arch", ARCH,
            "--workload", WORKLOAD,
            "--mapping", str(padded),
        ]
    )
    assert rc == 2
    assert "exact tiling" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case, line",
    [
        ("unknown_node", "error: invalid mapping: mapping names unknown node 'nonesuch'"),
        (
            "accum_reuse_under_k",
            "error: invalid mapping: dim 'K': loop bounds cover 1 of 2 iterations",
        ),
    ],
)
def test_evaluate_and_oracle_compare_check_the_mapping_before_pricing(
    tmp_path, capsys, case, line
):
    arch, mapping = tmp_path / "arch.yaml", tmp_path / "mapping.yaml"
    text = read_fixture("arch_crossbar.yaml")
    if case == "unknown_node":
        arch.write_text(text)
        mapping.write_text("nodes:\n  nonesuch:\n    - {dim: M, bound: 2}\n")
    else:
        # the adder cannot price the write its temporal_reuse asks for, and
        # the mapping drops K: the mapping is reported, not the arch
        arch.write_text(
            text.replace("\ncoalesce: [Outputs]\n", "\ntemporal_reuse: [Outputs]\n")
        )
        kept = read_fixture("mapping_tiny.yaml").splitlines(keepends=True)
        mapping.write_text("".join(l for l in kept if "dim: K" not in l))
    args = ["--arch", str(arch), "--workload", WORKLOAD, "--mapping", str(mapping)]
    for command in ("evaluate", "oracle-compare"):
        assert main([command] + args) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line + "\n"), command


def test_sweep_param_names_must_be_read(capsys):
    argv = ["sweep", "--arch", ARCH, "--workload", CONV_WORKLOAD, "--layer", "fc"]
    argv += ["--budget", "20"]
    # meshX is the YAML spelling; nothing reads it as an attribute
    assert main(argv + ["--param", "cell.meshX=1,2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "'meshX'" in err[0] and "mesh_x" in err[0] and "mesh_y" in err[0]
    for param in (
        "cell.mesh_x=1,2",
        "cell.input_slice_width=1,2",
        "adc.resolution=4,8",
    ):
        assert main(argv + ["--param", param]) == 0, param
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 2
        # each point prices differently
        assert rows[0].split(",")[2] != rows[1].split(",")[2], param


def test_encoding_sweep_writes_the_rows_of_edited_yaml(tmp_path, capsys):
    encodings = ("twos_complement", "offset", "differential")
    argv = ["sweep", "--workload", CONV_WORKLOAD, "--layer", "fc", "--budget", "50"]
    param = "cell.weight_encoding=" + ",".join(encodings)
    assert main(argv + ["--arch", ARCH, "--param", param]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("layer,cell.weight_encoding,best_energy_j,")
    rows = lines[2:]
    assert [r.split(",")[:2] for r in rows] == [["fc", e] for e in encodings]
    base = read_fixture("arch_crossbar.yaml")
    for row, encoding in zip(rows, encodings):
        arch = tmp_path / f"{encoding}.yaml"
        arch.write_text(base + f"  weight_encoding: {encoding}\n")
        # a point that leaves the edited arch as it is
        assert main(argv + ["--arch", str(arch), "--param", "cell.mesh_x=2"]) == 0
        [edited] = capsys.readouterr().out.splitlines()[2:]
        layer, _, *metrics = edited.split(",")
        assert row == ",".join([layer, encoding, *metrics])
    # each encoding prices the weights differently
    assert len({r.split(",")[2] for r in rows}) == 3


def test_sweep_rejects_fractional_meshes_and_nan_attributes(capsys):
    argv = ["sweep", "--arch", ARCH, "--workload", CONV_WORKLOAD, "--layer", "fc"]
    argv += ["--budget", "20"]
    for param in (
        "cell.mesh_x=1.5",
        "cell.mesh_x=inf",
        "cell.mesh_x=nan",
        "cell.mesh_y=2,2.9",
        "cell.t_read=nan",
        "cell.input_slice_width=1.5",
    ):
        assert main(argv + ["--param", param]) == 2, param
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), param
    # an integral float is a mesh size; an infinite attribute is allowed
    # unless it makes a result infinite
    assert main(argv + ["--param", "cell.mesh_x=2.0"]) == 0
    assert main(argv + ["--param", "buffer.capacity=inf"]) == 0
    capsys.readouterr()
    assert main(argv + ["--param", "cell.t_read=inf"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "infinite or NaN" in err[0]


@pytest.mark.parametrize("command", ["search", "evaluate"])
def test_infinite_pricing_attribute_exits_two_without_a_report(
    tmp_path, capsys, command
):
    arch = tmp_path / "arch.yaml"
    out = tmp_path / "report.json"
    argv = [command, "--arch", str(arch), "--workload", WORKLOAD]
    argv += ["--mapping", MAPPING] if command == "evaluate" else ["--budget", "20"]
    base = read_fixture("arch_crossbar.yaml")
    arch.write_text(base.replace("t_read: 10.0e-9", "t_read: .inf"))
    for extra in ([], ["--out", str(out)]):
        assert main(argv + extra) == 2, extra
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), extra
        assert captured.out == "" and not out.exists(), extra
    # an infinite capacity prices nothing: the report stays strict JSON
    arch.write_text(base.replace("width: 8", "width: 8\n  capacity: .inf"))
    assert main(argv + ["--out", str(out)]) == 0
    json.loads(out.read_text(encoding="utf-8"), parse_constant=pytest.fail)


@pytest.mark.parametrize("command", ["sweep", "oracle-compare"])
def test_non_finite_results_exit_two_without_output(tmp_path, capsys, command):
    arch = tmp_path / "arch.yaml"
    base = read_fixture("arch_crossbar.yaml")
    arch.write_text(base.replace("t_read: 10.0e-9", "t_read: .inf"))
    argv = [command, "--arch", str(arch), "--workload", WORKLOAD]
    if command == "sweep":
        argv += ["--budget", "20", "--param", "cell.g_max=1e-6"]
    else:
        argv += ["--mapping", MAPPING]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and "infinite or NaN" in err[0], err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["search", "sweep"])
def test_non_positive_budget_exits_two(capsys, command):
    argv = [command, "--arch", ARCH, "--workload", CONV_WORKLOAD, "--layer", "fc"]
    if command == "sweep":
        argv += ["--param", "cell.mesh_x=2"]
    for budget in ("0", "-1"):
        assert main(argv + ["--budget", budget]) == 2, budget
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "budget" in err[0], budget


# conv3x3's projections at sizes whose mapping space passes 2**63
HUGE_TEXT = """\
layers:
  - name: huge
    dims: {N: 4096, C: 8192, M: 8192, P: 3600, Q: 3600, R: 7, S: 7}
    projections:
      Inputs: [N, C, P, Q, R, S]
      Weights: [C, M, R, S]
      Outputs: [N, M, P, Q]
    bits: {Inputs: 8, Weights: 8, Outputs: 24}
    pmf: {Inputs: {uniform: [0, 127]}, Weights: {two_point: [-64, 64, 0.5]}}
"""


def test_search_samples_a_space_past_int64(tmp_path):
    wl = tmp_path / "huge.yaml"
    wl.write_text(HUGE_TEXT)
    out = tmp_path / "huge.json"
    argv = ["search", "--arch", ARCH, "--workload", str(wl), "--budget", "100"]
    assert main(argv + ["--out", str(out)]) == 0
    space = MappingSpace(parse_arch(read_fixture("arch_crossbar.yaml")),
                         parse_workload(HUGE_TEXT)[0])
    assert space.total > 2**63
    drawn = space.draw_indices(100, 0)
    assert drawn == sorted(set(drawn)) and len(drawn) == 100
    assert drawn[-1] < space.total
    assert space.draw_indices(100, 0) == drawn
    best = json.loads(out.read_text())["layers"]["huge"]["best_index"]
    assert best in drawn



def test_search_refuses_a_dim_it_cannot_factor(tmp_path, capsys):
    wl = tmp_path / "prime.yaml"
    argv = ["search", "--arch", ARCH, "--workload", str(wl), "--budget", "20"]
    # 2**61 - 1 is prime and far above 2**32: trial division cannot split it
    wl.write_text(read_fixture("workload_tiny.yaml").replace(
        "{M: 2, K: 2}", "{M: 2305843009213693951, K: 2}"))
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "2305843009213693951" in err[0] and captured.out == ""
    # 2**31 - 1 is prime too, but below 2**32 trial division proves it
    wl.write_text(read_fixture("workload_tiny.yaml").replace(
        "{M: 2, K: 2}", "{M: 2147483647, K: 2}"))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["layers"]["tiny"]["best_index"] >= 0


def test_search_refuses_a_dim_past_max_per_dim(monkeypatch, capsys):
    monkeypatch.setattr(MappingSpace, "MAX_PER_DIM", 100)
    argv = ["search", "--arch", ARCH, "--workload", CONV_WORKLOAD, "--budget", "20"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "exceeds 100 factorizations" in err[0] and captured.out == ""


def test_search_refuses_a_dim_past_the_real_max_per_dim(tmp_path, capsys):
    # 2**120 is refused from its count of placements, before any is listed
    wl = tmp_path / "huge.yaml"
    wl.write_text(read_fixture("workload_tiny.yaml").replace(
        "{M: 2, K: 2}", f"{{M: {2**120}, K: 2}}"))
    argv = ["search", "--arch", ARCH, "--workload", str(wl), "--budget", "20"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"exceeds {MappingSpace.MAX_PER_DIM} factorizations" in err[0]
    assert captured.out == ""


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--arch", ARCH])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


@pytest.mark.parametrize(
    "mapping, code", [("mapping_tiny.yaml", 0), ("arch_crossbar.yaml", 2)]
)
def test_module_runs_as_a_script_and_exits_with_the_code(mapping, code):
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cimeval.cli", "validate", "--arch", ARCH,
         "--workload", WORKLOAD, "--mapping", fixture_path(mapping)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


FUZZ_FILES = ("arch_crossbar.yaml", "workload_tiny.yaml", "mapping_tiny.yaml")
FUZZ_TOKENS = (
    "foo", "true", ".nan", ".inf", "-1", "0", "1.5",
    "99999999999999999999", "[1]", "{a: 1}", "null",
)
# a scalar value: after "key: ", "[" or ", "
_SCALAR = re.compile(r"(?:(?<=: )|(?<=\[)|(?<=, ))[^\s,\[\]{}]+")


def _uncommented(name: str) -> str:
    return "".join(
        line for line in read_fixture(name).splitlines(True)
        if not line.startswith("#")
    )


FUZZ_TEXTS = {name: _uncommented(name) for name in FUZZ_FILES}
FUZZ_SITES = [
    (name, m.span()) for name in FUZZ_FILES for m in _SCALAR.finditer(FUZZ_TEXTS[name])
]


FUZZ_COMMANDS = ("evaluate", "search", "sweep", "oracle-compare", "validate")


def _run_fuzzed(texts: dict, command: str) -> None:
    """Run one subcommand on the fixtures, each file ``texts`` names
    replaced by its text: it exits with a known code, never a traceback,
    and outside validate (which lists every problem on stdout) a failure is
    one stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {f: Path(tmp) / f for f in FUZZ_FILES}
        for f, fixture in FUZZ_TEXTS.items():
            paths[f].write_text(texts.get(f, fixture), encoding="utf-8")
        argv = [command, "--arch", str(paths[FUZZ_FILES[0]])]
        argv += ["--workload", str(paths[FUZZ_FILES[1]])]
        if command in ("evaluate", "oracle-compare", "validate"):
            argv += ["--mapping", str(paths[FUZZ_FILES[2]])]
        if command in ("search", "sweep"):
            argv += ["--budget", "50"]
        if command == "sweep":
            argv += ["--param", "cell.t_read=1.0e-8"]
        if command != "validate":
            argv += ["--out", str(Path(tmp) / "report")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if rc != 0 and command != "validate":
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@given(
    st.sampled_from(FUZZ_SITES),
    st.sampled_from(FUZZ_TOKENS),
    st.sampled_from(FUZZ_COMMANDS),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_one_replaced_value_exits_with_a_known_code(site, token, command):
    name, (start, end) = site
    text = FUZZ_TEXTS[name]
    _run_fuzzed({name: text[:start] + token + text[end:]}, command)


# a block "key: value" line, or a "key: value" entry of a flow map with the
# ", " that joins it to the next entry (or, for the last one, the previous)
_KEY_LINE = re.compile(r"^[ \t]*(?:- )?\w+: *[^\s#][^\n]*\n", re.M)
_FLOW_ENTRY = re.compile(
    r"(?:(?<=\{)|(?<=, ))\w+: (?:\{[^{}]*\}|\[[^\[\]]*\]|[^,{}\[\]\n]+)(?=,|\})"
)


def _deletion_spans(text: str):
    for m in _KEY_LINE.finditer(text):
        yield m.span()
    for m in _FLOW_ENTRY.finditer(text):
        start, end = m.span()
        if text.startswith(", ", end):
            yield start, end + 2
        else:
            yield start - 2 if text[start - 2 : start] == ", " else start, end


FUZZ_DELETIONS = [
    (name, span) for name in FUZZ_FILES for span in _deletion_spans(FUZZ_TEXTS[name])
]


@given(st.sampled_from(FUZZ_DELETIONS), st.sampled_from(FUZZ_COMMANDS))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_one_deleted_entry_exits_with_a_known_code(site, command):
    name, (start, end) = site
    text = FUZZ_TEXTS[name]
    _run_fuzzed({name: text[:start] + text[end:]}, command)


def _edited(texts: dict, edits) -> dict:
    """``texts`` with each (file, (start, end), new) edit applied; spans
    index the unedited text, so the edits go in from the end backwards."""
    texts = dict(texts)
    for name, (start, end), new in sorted(edits, key=lambda e: e[1], reverse=True):
        texts[name] = texts[name][:start] + new + texts[name][end:]
    return texts


# one edit: a scalar replaced by a token, or an entry deleted
FUZZ_EDITS = st.one_of(
    st.tuples(st.sampled_from(FUZZ_SITES), st.sampled_from(FUZZ_TOKENS)),
    st.tuples(st.sampled_from(FUZZ_DELETIONS), st.just("")),
).map(lambda e: (e[0][0], e[0][1], e[1]))


@given(FUZZ_EDITS, FUZZ_EDITS, st.sampled_from(FUZZ_COMMANDS))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_two_edits_at_once_exit_with_a_known_code(first, second, command):
    (name_a, (start_a, end_a), _), (name_b, (start_b, end_b), _) = first, second
    # two edits of one span, or of overlapping spans, are not two edits
    assume(name_a != name_b or end_a <= start_b or end_b <= start_a)
    _run_fuzzed(_edited(FUZZ_TEXTS, [first, second]), command)


# The arch with constraints that name dims, and the mapping: every node and
# dim name in them is a site that a rename can make unknown or duplicate.
NAME_TEXTS = {
    FUZZ_FILES[0]: FUZZ_TEXTS[FUZZ_FILES[0]].replace(
        "spatial_reuse:",
        "constraints: {keep_dims: [M], max_tile: {K: 2}, spatial_dims: [M, K]}\n"
        "spatial_reuse:",
    ),
    FUZZ_FILES[2]: FUZZ_TEXTS[FUZZ_FILES[2]],
}
_NAME = re.compile(r"\b(?:buffer|accum|dac|adc|cell|M|K)\b")
NAME_SITES = [
    (name, m.span()) for name, text in NAME_TEXTS.items() for m in _NAME.finditer(text)
]


def test_the_named_fixtures_evaluate():
    assert len(NAME_SITES) == 15
    _run_fuzzed(NAME_TEXTS, "evaluate")
    with tempfile.TemporaryDirectory() as tmp:
        arch = Path(tmp) / "arch.yaml"
        arch.write_text(NAME_TEXTS[FUZZ_FILES[0]], encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["validate", "--arch", str(arch), "--workload", WORKLOAD,
                         "--mapping", MAPPING]) == 0
    assert out.getvalue() == "ok\n"


@given(
    st.lists(st.sampled_from(NAME_SITES), min_size=1, max_size=2, unique=True),
    st.sampled_from(("ghost", "Z", "cell", "K")),
    st.sampled_from(FUZZ_COMMANDS),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_unknown_node_and_dim_names_exit_with_a_known_code(sites, new, command):
    _run_fuzzed(
        _edited(NAME_TEXTS, [(name, span, new) for name, span in sites]), command
    )
