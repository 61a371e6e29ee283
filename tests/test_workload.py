"""Workload parsing, PMF construction and Einsum validation."""

import pytest

from cimeval.valuemodel import Encoding, encode_pmf
from cimeval.workload import (
    EinsumSpec,
    WorkloadError,
    WorkloadLayer,
    build_pmf,
    delta_pmf,
    mac_count,
    parse_workload,
    synth_pmf,
    two_point_pmf,
    uniform_pmf,
    ValuePMF,
)

from conftest import read_fixture


def test_parse_conv_fixture():
    layers = parse_workload(read_fixture("workload_conv.yaml"))
    assert [l.name for l in layers] == ["conv3x3", "fc"]
    conv, fc = layers
    assert mac_count(conv) == 64 * 64 * 56 * 56 * 3 * 3 == 115605504
    assert mac_count(fc) == 128 * 256
    assert set(conv.einsum.reduction_dims) == {"C", "R", "S"}
    assert fc.einsum.reduction_dims == ("K",)
    assert conv.einsum.projection("Outputs") == ("M", "P", "Q")


def test_parse_tiny_fixture_pmfs():
    layer = parse_workload(read_fixture("workload_tiny.yaml"))[0]
    inp = layer.pmf_for("Inputs")
    assert inp.support == (0, 1)
    assert inp.probs == (0.75, 0.25)
    assert layer.pmf_for("Weights").support == (1,)
    # Outputs carry no declared PMF; the default covers the signed bit range.
    out = layer.pmf_for("Outputs")
    assert out.support[0] == -128 and out.support[-1] == 127
    assert abs(sum(out.probs) - 1.0) < 1e-12


def test_pmf_validation():
    with pytest.raises(WorkloadError):
        ValuePMF((1, 0), (0.5, 0.5))  # support must increase
    with pytest.raises(WorkloadError):
        ValuePMF((0, 1), (0.5, 0.6))  # mass must sum to one
    with pytest.raises(WorkloadError):
        ValuePMF((0, 1), (-0.1, 1.1))
    with pytest.raises(WorkloadError):
        ValuePMF((0, 1), (float("nan"), 1.0))  # a NaN mass sums to NaN
    with pytest.raises(WorkloadError):
        ValuePMF((), ())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ValuePMF((0, 1), (1.0,)), "lengths differ"),
        (lambda: ValuePMF((0.0, 1), (0.5, 0.5)), "must be integers, got 0.0"),
        (lambda: build_pmf([]), "zero samples"),
        (lambda: build_pmf([1.0, 2.5]), "samples must be integers"),
        (
            lambda: EinsumSpec(
                (("K", 2), ("K", 3)), {"Inputs": ("K",), "Weights": ("K",), "Outputs": ()}
            ),
            "duplicate dim 'K'",
        ),
        (
            lambda: parse_workload(read_fixture("workload_tiny.yaml"))[0].pmf_for("Psums"),
            "layer 'tiny': no PMF for Psums",
        ),
    ],
)
def test_refusals(call, message):
    with pytest.raises(WorkloadError, match=message):
        call()


def test_build_pmf_accepts_integral_floats():
    pmf = build_pmf([2.0, 0.0, 2.0, 2.0])
    assert pmf.support == (0, 2)
    assert all(type(v) is int for v in pmf.support)
    assert pmf.probs == (0.25, 0.75)


def test_build_pmf_frequencies():
    pmf = build_pmf([3, 0, 0, 3, 3, 1, 0, 0])
    assert pmf.support == (0, 1, 3)
    assert pmf.probs == (0.5, 0.125, 0.375)
    assert pmf.mean() == pytest.approx(10 / 8, abs=0)


def test_synth_pmf_forms():
    assert uniform_pmf(0, 3).probs == (0.25,) * 4
    assert delta_pmf(-7).support == (-7,)
    tp = two_point_pmf(0, 1, 0.25)
    assert tp.mean() == pytest.approx(0.25, abs=0)
    assert synth_pmf("delta", 5).support == (5,)
    assert synth_pmf("uniform", [0, 1]).support == (0, 1)
    assert synth_pmf("two_point", [0, 2.0, 1]).support == (0, 2)
    with pytest.raises(WorkloadError):
        synth_pmf("gauss", [0, 1])
    for kind, params in (
        ("uniform", [0]),
        ("uniform", [0, 2.5]),
        ("delta", "x"),
        ("delta", [1, 2]),
        ("two_point", [0, 1, "0.5"]),
    ):
        with pytest.raises(WorkloadError, match="bad .* PMF parameters"):
            synth_pmf(kind, params)
    with pytest.raises(WorkloadError):
        two_point_pmf(0, 1, 1.5)
    with pytest.raises(WorkloadError):
        uniform_pmf(5, 4)


@pytest.mark.parametrize(
    "tensors",
    [
        # Outputs name a dim no operand carries
        {"Inputs": ("K",), "Weights": ("K",), "Outputs": ("M",)},
        # no reduction dim: Outputs cover everything
        {"Inputs": ("M",), "Weights": ("K",), "Outputs": ("M", "K")},
        # role missing entirely
        {"Inputs": ("K",), "Weights": ("K", "M")},
        # repeated dim inside one projection
        {"Inputs": ("K", "K"), "Weights": ("K", "M"), "Outputs": ("M",)},
    ],
)
def test_einsum_rejects_bad_projections(tensors):
    with pytest.raises(WorkloadError):
        EinsumSpec(dims=(("M", 2), ("K", 2)), tensors=tensors)


def test_einsum_rejects_unused_and_unknown_dims():
    with pytest.raises(WorkloadError, match="appear in no projection"):
        EinsumSpec(
            dims=(("M", 2), ("K", 2), ("Z", 4)),
            tensors={"Inputs": ("K",), "Weights": ("K", "M"), "Outputs": ("M",)},
        )
    with pytest.raises(WorkloadError, match="unknown dim"):
        EinsumSpec(
            dims=(("M", 2), ("K", 2)),
            tensors={"Inputs": ("K", "Z"), "Weights": ("K", "M"), "Outputs": ("M",)},
        )
    with pytest.raises(WorkloadError, match="non-positive"):
        EinsumSpec(
            dims=(("M", 0), ("K", 2)),
            tensors={"Inputs": ("K",), "Weights": ("K", "M"), "Outputs": ("M",)},
        )


def _layer(bits, pmfs, signed=None):
    einsum = EinsumSpec(
        dims=(("M", 2), ("K", 2)),
        tensors={"Inputs": ("K",), "Weights": ("K", "M"), "Outputs": ("M",)},
    )
    return WorkloadLayer(
        name="t", einsum=einsum, bits=bits, pmfs=pmfs, signed=signed or {}
    )


def test_bit_width_range_checks():
    bits = {"Inputs": 8, "Weights": 8, "Outputs": 8}
    ok = _layer(bits, {"Inputs": delta_pmf(127), "Weights": delta_pmf(-128)})
    assert ok.is_signed("Weights")
    with pytest.raises(WorkloadError, match="does not fit"):
        _layer(
            bits,
            {"Inputs": delta_pmf(5), "Weights": delta_pmf(128)},
            signed={"Weights": True},
        )
    with pytest.raises(WorkloadError, match="does not fit"):
        _layer(
            {"Inputs": 1, "Weights": 8, "Outputs": 8},
            {"Inputs": delta_pmf(2), "Weights": delta_pmf(0)},
            signed={"Inputs": False},
        )


def test_single_signed_bit_admits_the_antipodal_pair():
    bits = {"Inputs": 1, "Weights": 1, "Outputs": 8}
    layer = _layer(
        bits,
        {"Inputs": two_point_pmf(-1, 1, 0.5), "Weights": two_point_pmf(-1, 1, 0.5)},
        signed={"Inputs": True, "Weights": True},
    )
    assert layer.is_signed("Inputs")


def test_undeclared_single_signed_bit_outputs_default_to_the_antipodal_pair():
    # the default holds exactly the values the range check admits at its
    # ends, so XNOR, which has no level for 0, encodes it
    layer = _layer(
        {"Inputs": 4, "Weights": 4, "Outputs": 1},
        {"Inputs": uniform_pmf(0, 7), "Weights": delta_pmf(3)},
    )
    default = layer.pmf_for("Outputs")
    assert default == ValuePMF((-1, 1), (0.5, 0.5))
    (line,) = encode_pmf(default, Encoding("xnor", 1))
    assert (line.support, line.probs) == ((0, 1), (0.5, 0.5))
    unsigned = _layer(
        {"Inputs": 4, "Weights": 4, "Outputs": 1},
        {"Inputs": uniform_pmf(0, 7), "Weights": delta_pmf(3)},
        signed={"Outputs": False},
    )
    assert unsigned.pmf_for("Outputs") == uniform_pmf(0, 1)


def test_missing_operand_pmf_is_an_error():
    bits = {"Inputs": 4, "Weights": 4, "Outputs": 8}
    with pytest.raises(WorkloadError, match="missing PMF for Weights"):
        _layer(bits, {"Inputs": delta_pmf(1)})
    with pytest.raises(WorkloadError, match="missing bit width"):
        _layer({"Inputs": 4, "Weights": 4}, {"Inputs": delta_pmf(1), "Weights": delta_pmf(1)})


def test_signedness_inferred_from_support():
    bits = {"Inputs": 4, "Weights": 4, "Outputs": 8}
    layer = _layer(bits, {"Inputs": uniform_pmf(0, 7), "Weights": delta_pmf(-3)})
    assert not layer.is_signed("Inputs")
    assert layer.is_signed("Weights")
    # explicit declaration wins over inference
    layer2 = _layer(
        bits,
        {"Inputs": uniform_pmf(0, 7), "Weights": delta_pmf(3)},
        signed={"Inputs": True},
    )
    assert layer2.is_signed("Inputs")


def test_undeclared_outputs_signedness_matches_its_default_pmf():
    bits = {"Inputs": 4, "Weights": 4, "Outputs": 8}
    operands = {"Inputs": uniform_pmf(0, 7), "Weights": delta_pmf(3)}
    for signed, expect in (({}, True), ({"Outputs": False}, False)):
        layer = _layer(bits, dict(operands), signed=signed)
        assert layer.is_signed("Outputs") is expect
        assert (layer.pmf_for("Outputs").min_value < 0) is expect
    assert _layer(bits, dict(operands)).pmf_for("Outputs").min_value == -128


def test_pmf_file_and_table_specs(tmp_path):
    (tmp_path / "acts.txt").write_text("0 0 1 3\n3 3 0 0\n", encoding="utf-8")
    text = """
layers:
  - name: filed
    dims: {M: 2, K: 2}
    projections:
      Inputs: [K]
      Weights: [K, M]
      Outputs: [M]
    bits: {Inputs: 4, Weights: 4, Outputs: 8}
    pmf:
      Inputs: {file: acts.txt}
      Weights: {table: {support: [2, -1], probs: [0.25, 0.75]}}
"""
    layer = parse_workload(text, base_dir=tmp_path)[0]
    assert layer.pmf_for("Inputs").support == (0, 1, 3)
    assert layer.pmf_for("Inputs").probs == (0.5, 0.125, 0.375)
    # table entries arrive unsorted and are reordered by value
    assert layer.pmf_for("Weights").support == (-1, 2)
    assert layer.pmf_for("Weights").probs == (0.75, 0.25)


def test_parse_workload_rejects_malformed_documents(tmp_path):
    with pytest.raises(WorkloadError, match="'layers'"):
        parse_workload("layers: {}")
    with pytest.raises(WorkloadError, match="layers"):
        parse_workload("arch: []")
    dup = """
layers:
  - name: a
    dims: {M: 2, K: 2}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {delta: 0}, Weights: {delta: 0}}
  - name: a
    dims: {M: 2, K: 2}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {delta: 0}, Weights: {delta: 0}}
"""
    with pytest.raises(WorkloadError, match="duplicate layer name"):
        parse_workload(dup)
    with pytest.raises(WorkloadError, match="missing key"):
        parse_workload("layers:\n  - name: x\n    dims: {M: 2}\n")
    with pytest.raises(WorkloadError, match="unrecognized PMF spec"):
        parse_workload(
            """
layers:
  - name: x
    dims: {M: 2, K: 2}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {blob: 3}, Weights: {delta: 0}}
"""
        )
    with pytest.raises(WorkloadError, match="cannot read"):
        parse_workload(
            """
layers:
  - name: x
    dims: {M: 2, K: 2}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {file: missing.txt}, Weights: {delta: 0}}
""",
            base_dir=tmp_path,
        )


def test_non_utf8_pmf_file_names_the_file(tmp_path):
    (tmp_path / "acts.txt").write_bytes(b"1\n\xff\n")
    with pytest.raises(WorkloadError, match="cannot read PMF file .*acts.txt"):
        parse_workload(
            """
layers:
  - name: x
    dims: {M: 2, K: 2}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {file: acts.txt}, Weights: {delta: 0}}
""",
            base_dir=tmp_path,
        )
