"""Architecture parsing, resolution and structural validation."""

import dataclasses

import pytest

from cimeval.archspec import (
    ArchError,
    ArchNode,
    ArchTree,
    Constraints,
    SpatialSpec,
    instances,
    parse_arch,
    serialize_arch,
    validate,
)
from cimeval.workload import EinsumSpec, WorkloadLayer, delta_pmf

from conftest import read_fixture

HIER = """
--- !Component
name: dram
class: buffer
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {e_per_bit: 1.0e-12, width: 64}
--- !Container
name: tilegrid
spatial: {meshX: 4, meshY: 2}
spatial_reuse: [Weights]
--- !Component
name: adc
class: adc
no_coalesce: [Outputs]
spatial: {meshX: 2}
attributes: {resolution: 6}
--- !Component
name: pe
class: sram_cell
temporal_reuse: [Weights]
spatial: {meshX: 8, meshY: 8}
attributes: {e_mac: 1.0e-13}
"""


def test_parse_crossbar_fixture():
    tree = parse_arch(read_fixture("arch_crossbar.yaml"))
    assert [n.name for n in tree] == ["buffer", "accum", "dac", "adc", "cell"]
    assert len(tree) == 5
    assert tree.leaf.name == "cell"
    assert tree.leaf.klass == "reram_cell"
    assert tree.node("buffer").directive("Inputs") == "temporal_reuse"
    assert tree.node("accum").directive("Outputs") == "coalesce"
    assert tree.node("dac").directive("Inputs") == "no_coalesce"
    assert tree.node("dac").directive("Weights") == "bypass"
    assert tree.leaf.reuses_spatially("Inputs")
    assert not tree.leaf.reuses_spatially("Weights")
    assert tree.leaf.spatial.mesh == 4
    assert tree.node("adc").attributes["resolution"] == 8
    assert validate(tree) == []


def test_instance_counts_multiply_through_containers():
    tree = parse_arch(HIER)
    assert instances(tree, "dram") == 1
    assert instances(tree, "tilegrid") == 8
    # components inside a container replicate with it
    assert instances(tree, "adc") == 8 * 2
    assert instances(tree, "pe") == 8 * 64


CONSTRAINED = """
--- !Component
name: buf
class: buffer
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {e_per_bit: 0.0, width: 8}
--- !Container
name: grid
spatial: {meshX: 2}
constraints: {spatial_dims: []}
--- !Component
name: pe
class: sram_cell
spatial: {meshX: 4}
constraints:
  keep_dims: [M]
  max_tile: {K: 16, M: 2}
  spatial_dims: [M]
attributes: {e_mac: 0.0}
"""


def test_serialize_round_trip():
    assert "constraints" in serialize_arch(parse_arch(CONSTRAINED))
    for text in (read_fixture("arch_crossbar.yaml"), HIER, CONSTRAINED):
        tree = parse_arch(text)
        again = parse_arch(serialize_arch(tree))
        assert again == tree


def _as_list(stream: str) -> str:
    """The same tagged nodes as one YAML list instead of a document stream."""
    out = []
    for doc in stream.split("--- ")[1:]:
        tag, *body = doc.splitlines()
        out.append(f"- {tag}\n" + "".join(f"  {line}\n" for line in body))
    return "".join(out)


def test_list_form_and_empty_documents_parse_like_the_stream():
    stream = read_fixture("arch_crossbar.yaml")
    listed = _as_list(stream)
    assert listed.startswith("- !Component\n  name: buffer\n")
    assert parse_arch(listed) == parse_arch(stream)
    # an empty document is skipped wherever it stands
    assert parse_arch("---\n" + stream.replace("--- !", "---\n--- !")) == parse_arch(stream)


def test_defaults_document_merges_into_attributes():
    text = """
defaults: {vdd: 0.9, t_read: 2.0e-9}
--- !Component
name: buf
class: buffer
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {e_per_bit: 0.0, width: 8}
--- !Component
name: cell
class: reram_cell
spatial: {meshX: 2, meshY: 2}
attributes: {g_max: 1.0e-6, vdd: 1.2}
"""
    tree = parse_arch(text)
    # node value wins, defaults fill gaps, unrelated nodes pick up defaults too
    assert tree.node("cell").attributes["vdd"] == 1.2
    assert tree.node("cell").attributes["t_read"] == 2.0e-9
    assert tree.node("buf").attributes["vdd"] == 0.9


def test_parse_rejects_malformed_nodes():
    with pytest.raises(ArchError, match="unknown keys"):
        parse_arch("--- !Component\nname: a\nclass: buffer\ncolor: red\n")
    with pytest.raises(ArchError, match="meshX/meshY"):
        parse_arch("--- !Component\nname: a\nclass: buffer\nspatial: {mesh_x: 2}\n")
    with pytest.raises(ArchError, match="missing a name"):
        parse_arch("--- !Component\nclass: buffer\n")
    with pytest.raises(ArchError, match="missing a class"):
        parse_arch("--- !Component\nname: a\n")
    with pytest.raises(ArchError, match="must not declare a class"):
        parse_arch("--- !Container\nname: a\nclass: buffer\n")
    with pytest.raises(ArchError, match="duplicate node name"):
        parse_arch(
            "--- !Component\nname: a\nclass: buffer\n"
            "--- !Component\nname: a\nclass: buffer\n"
        )
    with pytest.raises(ArchError):
        parse_arch("")


def test_directive_precedence_is_exclusive():
    node = ArchNode(
        name="x",
        kind="component",
        klass="buffer",
        temporal_reuse=("Inputs",),
        no_coalesce=("Outputs",),
    )
    assert node.directive("Inputs") == "temporal_reuse"
    assert node.directive("Outputs") == "no_coalesce"
    assert node.directive("Weights") == "bypass"
    with pytest.raises(ArchError, match="unknown kind"):
        ArchNode(name="x", kind="blob", klass="buffer")


def _tiny_layer():
    einsum = EinsumSpec(
        dims=(("M", 2), ("K", 2)),
        tensors={"Inputs": ("K",), "Weights": ("K", "M"), "Outputs": ("M",)},
    )
    return WorkloadLayer(
        name="t",
        einsum=einsum,
        bits={"Inputs": 4, "Weights": 4, "Outputs": 8},
        pmfs={"Inputs": delta_pmf(1), "Weights": delta_pmf(1)},
    )


def test_validate_flags_directives_on_containers():
    text = """
--- !Component
name: buf
class: buffer
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {e_per_bit: 0.0, width: 8}
--- !Container
name: grid
spatial: {meshX: 2}
temporal_reuse: [Weights]
--- !Component
name: pe
class: sram_cell
attributes: {e_mac: 0.0}
"""
    diags = validate(parse_arch(text))
    assert any("containers only group" in d for d in diags)


def test_validate_flags_double_directive():
    node = ArchNode(
        name="x",
        kind="component",
        klass="buffer",
        temporal_reuse=("Inputs",),
        coalesce=("Inputs",),
    )
    pe = ArchNode(name="pe", kind="component", klass="sram_cell")
    diags = validate(ArchTree((node, pe)))
    assert any("exactly one directive" in d for d in diags)


def test_validate_requires_backing_store():
    # dac consumes Inputs but nothing above retains them
    text = """
--- !Component
name: dac
class: dac
no_coalesce: [Inputs]
attributes: {e_full_scale: 1.0e-12}
--- !Component
name: pe
class: sram_cell
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {e_mac: 0.0}
"""
    diags = validate(parse_arch(text))
    assert any("no backing store above 'dac' for Inputs" in d for d in diags)


def test_validate_leaf_rules(crossbar_arch):
    layer = _tiny_layer()
    assert validate(crossbar_arch, layer) == []
    grid = ArchNode(name="g", kind="container", spatial=SpatialSpec(2, 2))
    buf = ArchNode(
        name="b",
        kind="component",
        klass="buffer",
        temporal_reuse=("Inputs", "Weights", "Outputs"),
    )
    diags = validate(ArchTree((buf, grid)))
    assert any("innermost node must be a Component" in d for d in diags)


def test_validate_constraint_dims_against_layer(crossbar_arch):
    patched = dataclasses.replace(
        crossbar_arch.nodes[-1], constraints=Constraints(keep_dims=("Z",))
    )
    tree = ArchTree(crossbar_arch.nodes[:-1] + (patched,))
    diags = validate(tree, _tiny_layer())
    assert any("unknown dims" in d for d in diags)
    patched = dataclasses.replace(
        crossbar_arch.nodes[-1], constraints=Constraints(spatial_dims=("M", "Y"))
    )
    tree = ArchTree(crossbar_arch.nodes[:-1] + (patched,))
    assert validate(tree, _tiny_layer()) == [
        "node 'cell': constraints name unknown dims ['Y']"
    ]


def test_constraints_parse_and_mesh_guards():
    text = """
--- !Component
name: buf
class: buffer
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {e_per_bit: 0.0, width: 8}
--- !Component
name: pe
class: sram_cell
spatial: {meshX: 4}
constraints:
  keep_dims: [M]
  max_tile: {K: 16}
  spatial_dims: [M]
attributes: {e_mac: 0.0}
"""
    tree = parse_arch(text)
    cons = tree.node("pe").constraints
    assert cons.keep_dims == ("M",)
    assert cons.max_tile_map == {"K": 16}
    assert cons.spatial_dims == ("M",)
    assert tree.node("pe").spatial.mesh_y == 1
    with pytest.raises(ArchError, match=">= 1"):
        SpatialSpec(0, 2)
