"""Energy tables, full evaluation, search and the brute-force oracle."""

import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cimeval import cli, engine, valuemodel
from cimeval.archspec import parse_arch, validate
from cimeval.components import (
    AdcModel,
    ComponentError,
    ComponentModel,
    DEFAULT_REGISTRY,
    DacModel,
    MemoryCellModel,
    ModelRegistry,
)
from cimeval.engine import (
    EngineError,
    LayerEvaluator,
    build_action_context,
    draw_tensors,
    evaluate,
    oracle_evaluate,
    precompute_energy_table,
    search,
    total_area,
)
from cimeval.mapping import (
    Loop,
    Mapping,
    MapperConfig,
    MappingError,
    MappingSpace,
    SlotTable,
    enumerate_mappings,
    parse_mapping,
    serialize_mapping,
)
from cimeval.valuemodel import Encoding, SliceScheme, encode_pmf, slice_pmf
from cimeval.workload import parse_workload

from conftest import fixture_path, read_fixture
from test_mapping import ARCH_HIER, ARCH_NO_REDUCE, ARCH_RULES_A, LAYER_4X4, PRIMES

# hand-priced units for the crossbar fixture:
#   cell compute: G 50uS * E[V^2] 0.25 * t_read 10ns
#   dac convert : 0.4pJ * mean 0.25
#   adc convert : 10fJ/step * 2^8
CELL_COMPUTE_J = 50.0e-6 * 0.25 * 10.0e-9
DAC_CONVERT_J = 0.4e-12 * 0.25
ADC_CONVERT_J = 10e-15 * 256
CROSSBAR_TOTAL_J = 4 * CELL_COMPUTE_J + 2 * DAC_CONVERT_J + 2 * ADC_CONVERT_J

DELTA_TINY = """
layers:
  - name: sure
    dims: {M: 2, K: 2}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {delta: 1}, Weights: {delta: 1}}
"""

BIG_FC = """
layers:
  - name: big
    dims: {M: 8, K: 16}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {two_point: [0, 1, 0.25]}, Weights: {delta: 1}}
"""


def test_crossbar_energy_is_exact(crossbar_arch, tiny_layer, tiny_mapping):
    res = evaluate(crossbar_arch, tiny_layer, tiny_mapping)
    assert CELL_COMPUTE_J == 1.25e-13
    assert DAC_CONVERT_J == 1.0e-13
    assert ADC_CONVERT_J == 2.56e-12
    assert res.energy_j == pytest.approx(5.82e-12, rel=1e-12, abs=0)
    assert res.energy_j == pytest.approx(CROSSBAR_TOTAL_J, rel=1e-12, abs=0)
    assert res.breakdown[("cell", "compute")] == (4, pytest.approx(CELL_COMPUTE_J, abs=0), pytest.approx(5e-13, abs=0))
    assert res.breakdown[("adc", "convert")][2] == pytest.approx(5.12e-12, abs=0)
    assert res.breakdown[("dac", "convert")][2] == pytest.approx(2e-13, abs=0)
    assert res.breakdown[("buffer", "write")][2] == 0.0
    assert res.cycles == 1
    assert res.latency_s == pytest.approx(1e-9, abs=0)
    assert res.utilization == pytest.approx(1.0, abs=0)
    assert res.macs == 4
    assert res.energy_per_mac_j == pytest.approx(5.82e-12 / 4, rel=1e-12, abs=0)
    assert res.edp_js == pytest.approx(5.82e-12 * 1e-9, rel=1e-12, abs=0)


def test_energy_table_is_mapping_invariant(crossbar_arch, tiny_layer):
    table_a = precompute_energy_table(crossbar_arch, tiny_layer)
    table_b = precompute_energy_table(crossbar_arch, tiny_layer)
    assert table_a.fingerprint == table_b.fingerprint
    assert table_a.unit("cell", "compute") == pytest.approx(CELL_COMPUTE_J, rel=1e-14, abs=0)
    assert table_a.unit("dac", "convert") == pytest.approx(DAC_CONVERT_J, rel=1e-14, abs=0)
    assert table_a.unit("adc", "convert") == pytest.approx(ADC_CONVERT_J, rel=1e-14, abs=0)
    assert table_a.unit("cell", "fill") == 0.0
    with pytest.raises(EngineError, match="no entry"):
        table_a.unit("cell", "erase")

    # per-mapping evaluations must reuse the same units
    ev = LayerEvaluator(crossbar_arch, tiny_layer)
    for _, mapping in enumerate_mappings(crossbar_arch, tiny_layer, budget=64, seed=1):
        res = ev.evaluate(mapping)
        for (node, action), (_, unit, _) in res.breakdown.items():
            assert unit == table_a.entries[(node, action)]


def test_fast_path_equals_full_evaluation(crossbar_arch):
    layer = parse_workload(BIG_FC)[0]
    ev = LayerEvaluator(crossbar_arch, layer)
    for _, mapping in enumerate_mappings(crossbar_arch, layer, budget=80, seed=3):
        bounds = ev.bounds_of(mapping)
        assert ev.objective_value(bounds, "energy") == pytest.approx(
            ev.evaluate(mapping).energy_j, rel=1e-12, abs=0
        )
    with pytest.raises(EngineError, match="unknown objective"):
        ev.objective_value([1] * len(ev.slot_table), "steps")


def test_objective_values_are_consistent(crossbar_arch, tiny_layer, tiny_mapping):
    ev = LayerEvaluator(crossbar_arch, tiny_layer)
    bounds = ev.bounds_of(tiny_mapping)
    e = ev.objective_value(bounds, "energy")
    l = ev.objective_value(bounds, "latency")
    assert ev.objective_value(bounds, "edp") == pytest.approx(e * l, rel=1e-12, abs=0)
    assert l == pytest.approx(1e-9, abs=0)


def test_short_bounds_vector_is_rejected(crossbar_arch, tiny_layer):
    ev = LayerEvaluator(crossbar_arch, tiny_layer)
    short = [1] * (len(ev.slot_table) - 1)
    with pytest.raises(EngineError, match="shorter than the slot table"):
        ev.objective_value(short, "energy")
    with pytest.raises(EngineError, match="shorter than the slot table"):
        ev.objective_value(short, "latency")


def test_long_bounds_vector_is_rejected(crossbar_arch, tiny_layer):
    ev = LayerEvaluator(crossbar_arch, tiny_layer)
    with pytest.raises(EngineError, match="longer than the slot table"):
        ev.objective_value([1] * len(ev.slot_table) + [7, 7], "energy")


def test_area_and_clock_attributes(crossbar_arch, tiny_layer, tiny_mapping):
    assert total_area(crossbar_arch) == pytest.approx(2.56e-8, rel=1e-12, abs=0)
    slower = parse_arch(
        read_fixture("arch_crossbar.yaml").replace(
            "vdd: 1.0", "vdd: 1.0\n  clock_period: 2.0e-9"
        )
    )
    res = evaluate(slower, tiny_layer, tiny_mapping)
    assert res.latency_s == pytest.approx(2e-9, abs=0)
    assert res.area_m2 == pytest.approx(2.56e-8, rel=1e-12, abs=0)


def test_containers_cannot_price_actions():
    bad = parse_arch(
        """
--- !Component
name: dram
class: buffer
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {e_per_bit: 0.0, width: 8}
--- !Container
name: grid
spatial: {meshX: 2}
no_coalesce: [Inputs]
--- !Component
name: pe
class: sram_cell
attributes: {e_mac: 0.0}
"""
    )
    layer = parse_workload(DELTA_TINY)[0]
    with pytest.raises(EngineError, match="carries reuse actions"):
        precompute_energy_table(bad, layer)


def test_oracle_refuses_a_container_directive_as_the_table_does():
    arch = parse_arch(
        """
--- !Component
name: dram
class: buffer
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {e_per_bit: 0.0, width: 8}
--- !Container
name: tile
coalesce: [Weights]
--- !Component
name: pe
class: sram_cell
attributes: {e_mac: 0.0}
"""
    )
    layer = parse_workload(DELTA_TINY)[0]
    mapping = parse_mapping(
        "nodes:\n  pe:\n    - {dim: M, bound: 2}\n    - {dim: K, bound: 2}\n"
    )
    message = (
        "container 'tile' carries reuse actions; give it a Component with a "
        "model class"
    )
    with pytest.raises(EngineError) as table_error:
        LayerEvaluator(arch, layer)
    assert str(table_error.value) == message
    with pytest.raises(EngineError) as oracle_error:
        oracle_evaluate(arch, layer, mapping)
    assert str(oracle_error.value) == message


def test_slice_and_encoding_attributes_shape_the_context(tiny_layer):
    node = parse_arch(
        """
--- !Component
name: cell
class: reram_cell
attributes:
  t_read: 1.0e-9
  g_max: 1.0e-6
  weight_slice_width: 1
  weight_encoding: offset
  input_encoding: offset
"""
    ).leaf
    layer = parse_workload(
        """
layers:
  - name: sliced
    dims: {M: 2, K: 2}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 2, Weights: 2, Outputs: 8}
    pmf: {Inputs: {uniform: [-2, 1]}, Weights: {uniform: [-2, 1]}}
"""
    )[0]
    ctx = build_action_context(node, layer)
    assert ctx.encodings["Weights"].kind == "offset"
    assert ctx.schemes["Weights"].widths == (1, 1)
    # offset levels 0..3 uniform: each bit is an even coin
    ((lo, hi),) = ctx.lines["Weights"]
    assert lo.support == (0, 1) and hi.support == (0, 1)
    assert lo.probs == (0.5, 0.5) and hi.probs == (0.5, 0.5)
    assert ctx.lines["Inputs"][0][0].support == (0, 1, 2, 3)

    diff_node = parse_arch(
        """
--- !Component
name: cell
class: reram_cell
attributes:
  t_read: 1.0e-9
  g_max: 1.0e-6
  weight_encoding: differential
"""
    ).leaf
    dctx = build_action_context(diff_node, layer)
    # positive line keeps positives, negative line keeps magnitudes of negatives
    ((pos,), (neg,)) = dctx.lines["Weights"]
    assert pos.support == (0, 1)
    assert neg.support == (0, 1, 2)
    mag_node = parse_arch(
        "--- !Component\nname: c\nclass: reram_cell\nattributes: "
        "{t_read: 1.0e-9, g_max: 1.0e-6, weight_encoding: magnitude_only}"
    ).leaf
    mctx = build_action_context(mag_node, layer)
    # magnitudes on the one line
    ((mag,),) = mctx.lines["Weights"]
    assert mag.support == (0, 1, 2)
    with pytest.raises(EngineError, match="slice width"):
        build_action_context(
            parse_arch(
                "--- !Component\nname: c\nclass: reram_cell\n"
                "attributes: {t_read: 1.0e-9, g_max: 1.0e-6, weight_slice_width: 5}"
            ).leaf,
            layer,
        )


def _absent_role(roles):
    with pytest.raises(KeyError, match="Outputs"):
        roles["Outputs"]
    return "refused"


@pytest.mark.parametrize(
    "read, expected",
    [(list, ["Inputs", "Weights"]), (len, 2), (_absent_role, "refused")],
)
def test_lazy_role_map_reads_its_keys_without_building(read, expected):
    built = []
    roles = engine._LazyRoleMap(("Inputs", "Weights"), built.append)
    assert read(roles) == expected
    assert built == []


def test_negative_tensor_seed_is_an_engine_error(
    crossbar_arch, tiny_layer, tiny_mapping
):
    with pytest.raises(EngineError, match="seed must be >= 0, got -1"):
        draw_tensors(tiny_layer, -1)
    with pytest.raises(EngineError, match="seed must be >= 0, got -3"):
        oracle_evaluate(crossbar_arch, tiny_layer, tiny_mapping, seed=-3)


def test_oracle_counts_match_closed_form(crossbar_arch, tiny_layer, tiny_mapping):
    expected = evaluate(crossbar_arch, tiny_layer, tiny_mapping).counts
    got = oracle_evaluate(crossbar_arch, tiny_layer, tiny_mapping, seed=0)
    assert got.counts == expected
    assert got.macs == 4
    assert got.cycles == 1


def test_oracle_counts_match_on_update_heavy_chain():
    arch = parse_arch(ARCH_NO_REDUCE)
    layer = parse_workload(read_fixture("workload_tiny.yaml"))[0]
    mapping = Mapping.from_dict(
        {"cell": [Loop("M", 2, "spatialX"), Loop("K", 2, "spatialY")]}
    )
    expected = evaluate(arch, layer, mapping).counts
    got = oracle_evaluate(arch, layer, mapping, seed=3)
    assert got.counts == expected
    assert got.counts[("buffer", "Outputs", "update")] == 2


def test_oracle_counts_match_on_hierarchy():
    arch = parse_arch(ARCH_HIER)
    layer = parse_workload(read_fixture("workload_tiny.yaml"))[0]
    mapping = Mapping.from_dict(
        {"grid": [Loop("M", 2, "spatialX")], "pe": [Loop("K", 2, "temporal")]}
    )
    expected = evaluate(arch, layer, mapping).counts
    got = oracle_evaluate(arch, layer, mapping, seed=1)
    assert got.counts == expected
    assert got.cycles == 2


# the leaf keeps its own Outputs (temporal_reuse), below a buffer and a
# 2x2 container
ARCH_LEAF_KEEPS_OUTPUTS = """
--- !Component
name: buffer
class: buffer
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {e_per_bit: 1.0e-15, width: 8}
--- !Container
name: grid
spatial: {meshX: 2, meshY: 2}
--- !Component
name: pe
class: wire
temporal_reuse: [Outputs]
attributes: {e_per_bit: 2.0e-15, width: 8}
"""

LAYER_M4_K6_N2 = """
layers:
  - name: mkn
    dims: {M: 4, K: 6, N: 2}
    projections: {Inputs: [K, N], Weights: [K, M], Outputs: [M, N]}
    bits: {Inputs: 2, Weights: 2, Outputs: 8}
    pmf: {Inputs: {uniform: [0, 3]}, Weights: {uniform: [0, 3]}}
"""


def test_oracle_counts_match_when_the_leaf_keeps_outputs():
    arch = parse_arch(ARCH_LEAF_KEEPS_OUTPUTS)
    layer = parse_workload(LAYER_M4_K6_N2)[0]
    mappings = [m for _, m in enumerate_mappings(arch, layer, budget=150, seed=0)]
    assert len(mappings) >= 50
    updates = 0
    for mapping in mappings[:50]:
        expected = evaluate(arch, layer, mapping).counts
        assert oracle_evaluate(arch, layer, mapping, seed=0).counts == expected
        updates += expected[("pe", "Outputs", "update")]
    assert updates > 0


def test_slice_width_that_does_not_divide_the_bit_width():
    node = parse_arch(
        "--- !Component\nname: c\nclass: reram_cell\n"
        "attributes: {t_read: 1.0e-9, g_max: 1.0e-6, input_slice_width: 3}"
    ).leaf
    layer = parse_workload(
        DELTA_TINY.replace("Inputs: 1, Weights: 1", "Inputs: 8, Weights: 1")
    )[0]
    ctx = build_action_context(node, layer)
    assert ctx.schemes["Inputs"].widths == (3, 3, 2)
    # input 1 is level 1: only the lowest slice is set
    ((*slices,),) = ctx.lines["Inputs"]
    assert [s.support for s in slices] == [(1,), (0,), (0,)]


def test_oracle_energy_is_exact_for_deterministic_values(crossbar_arch, tiny_mapping):
    layer = parse_workload(DELTA_TINY)[0]
    model = evaluate(crossbar_arch, layer, tiny_mapping)
    oracle = oracle_evaluate(crossbar_arch, layer, tiny_mapping, seed=11)
    assert oracle.energy_j == pytest.approx(model.energy_j, rel=1e-12, abs=0)


def test_oracle_rejects_inexact_nests(crossbar_arch, tiny_layer):
    padded = Mapping.from_dict(
        {"buffer": [Loop("M", 4, "temporal")], "cell": [Loop("K", 2, "spatialY")]}
    )
    with pytest.raises(EngineError, match="exact tiling"):
        oracle_evaluate(crossbar_arch, tiny_layer, padded)
    short = Mapping.from_dict({"cell": [Loop("K", 2, "spatialY")]})
    with pytest.raises(EngineError, match="invalid mapping"):
        oracle_evaluate(crossbar_arch, tiny_layer, short)


def test_oracle_point_limit(crossbar_arch, tiny_layer, tiny_mapping):
    with pytest.raises(EngineError, match="oracle limit"):
        oracle_evaluate(crossbar_arch, tiny_layer, tiny_mapping, point_limit=2)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"seed": None}, "seed must be an integer, got None"),
        ({"seed": "3"}, "seed must be an integer, got '3'"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"point_limit": None}, "point limit must be an integer, got None"),
        ({"point_limit": 2.5}, "point limit must be an integer, got 2.5"),
        ({"point_limit": 0}, "point limit must be >= 1, got 0"),
        ({"point_limit": -1}, "point limit must be >= 1, got -1"),
    ],
)
def test_oracle_refuses_a_bad_seed_or_point_limit_up_front(
    monkeypatch, crossbar_arch, tiny_layer, tiny_mapping, kwargs, message
):
    def no_table(*args):
        raise AssertionError("the slot table was built")

    monkeypatch.setattr(engine, "SlotTable", no_table)
    with pytest.raises(EngineError, match=f"^[a-z ]*{message}$"):
        oracle_evaluate(crossbar_arch, tiny_layer, tiny_mapping, **kwargs)
    if "seed" in kwargs:
        with pytest.raises(EngineError, match=f"^[a-z ]*{message}$"):
            draw_tensors(tiny_layer, kwargs["seed"])


# differential 4-bit inputs in (3, 1) slices through a switching DAC, with
# temporal loops above the crossbar so reads, fills and updates repeat
ARCH_DIFF_SWITCHING = """
--- !Component
name: buffer
class: buffer
temporal_reuse: [Inputs, Outputs]
attributes: {e_per_bit: 1.0e-15, width: 8}
--- !Component
name: adc
class: adc
no_coalesce: [Outputs]
attributes: {resolution: 6}
--- !Component
name: dac
class: dac
no_coalesce: [Inputs]
attributes:
  e_full_scale: 1.0e-12
  model: switching
  input_encoding: differential
  input_slice_width: 3
--- !Component
name: cell
class: reram_cell
temporal_reuse: [Weights]
spatial: {meshX: 2, meshY: 2}
spatial_reuse: [Inputs, Outputs]
attributes:
  t_read: 1.0e-8
  g_min: 1.0e-6
  g_max: 4.0e-6
  input_encoding: differential
  input_slice_width: 3
"""
LAYER_DIFF = """
layers:
  - name: diff
    dims: {M: 4, K: 6}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 4, Weights: 2, Outputs: 8}
    pmf: {Inputs: {uniform: [-8, 7]}, Weights: {uniform: [0, 3]}}
"""

# 8-bit uniform operands on a 4x4 mesh: most of the 1,024 MACs carry a
# distinct (Inputs, Weights) pair, and a switching DAC prices 2-bit input
# slices per value
ARCH_B8_SWITCHING = """
--- !Component
name: buffer
class: buffer
temporal_reuse: [Inputs, Outputs]
attributes: {e_per_bit: 1.0e-15, width: 8}
--- !Component
name: adc
class: adc
no_coalesce: [Outputs]
attributes: {resolution: 8}
--- !Component
name: dac
class: dac
no_coalesce: [Inputs]
attributes: {e_full_scale: 1.0e-12, model: switching, input_slice_width: 2}
--- !Component
name: cell
class: reram_cell
temporal_reuse: [Weights]
spatial: {meshX: 4, meshY: 4}
spatial_reuse: [Inputs, Outputs]
attributes:
  t_read: 1.0e-8
  g_min: 1.0e-6
  g_max: 4.0e-6
  input_slice_width: 2
  weight_slice_width: 4
"""
LAYER_B8 = """
layers:
  - name: b8
    dims: {M: 8, K: 16, N: 8}
    projections: {Inputs: [K, N], Weights: [K, M], Outputs: [M, N]}
    bits: {Inputs: 8, Weights: 8, Outputs: 24}
    pmf: {Inputs: {uniform: [0, 255]}, Weights: {uniform: [-128, 127]}}
    signed: {Inputs: false}
"""


def _pinned_oracle_cases():
    crossbar = parse_arch(read_fixture("arch_crossbar.yaml"))
    tiny_text = read_fixture("workload_tiny.yaml")
    yield (
        "tiny",
        crossbar,
        parse_workload(tiny_text)[0],
        parse_mapping(read_fixture("mapping_tiny.yaml")),
        0,
    )
    yield (
        "leaf_keeps_outputs",
        parse_arch(ARCH_LEAF_KEEPS_OUTPUTS),
        parse_workload(LAYER_M4_K6_N2)[0],
        Mapping.from_dict(
            {
                "buffer": [Loop("N", 2, "temporal"), Loop("K", 3, "temporal")],
                "grid": [Loop("M", 2, "spatialX"), Loop("K", 2, "spatialY")],
                "pe": [Loop("M", 2, "temporal")],
            }
        ),
        0,
    )
    yield (
        "diff_switching",
        parse_arch(ARCH_DIFF_SWITCHING),
        parse_workload(LAYER_DIFF)[0],
        Mapping.from_dict(
            {
                "buffer": [Loop("K", 3, "temporal"), Loop("M", 2, "temporal")],
                "cell": [Loop("M", 2, "spatialX"), Loop("K", 2, "spatialY")],
            }
        ),
        5,
    )
    yield (
        "b8_switching",
        parse_arch(ARCH_B8_SWITCHING),
        parse_workload(LAYER_B8)[0],
        Mapping.from_dict(
            {
                "buffer": [
                    Loop("M", 2, "temporal"),
                    Loop("K", 4, "temporal"),
                    Loop("N", 8, "temporal"),
                ],
                "cell": [Loop("M", 4, "spatialX"), Loop("K", 4, "spatialY")],
            }
        ),
        11,
    )
    yield (
        "one_mac",
        crossbar,
        parse_workload(tiny_text.replace("{M: 2, K: 2}", "{M: 1, K: 1}"))[0],
        Mapping.from_dict({}),
        0,
    )


# (energy_j.hex(), cycles, counts) of each case: any change to how the oracle
# counts or sums shows here as a last-bit drift
PINNED_ORACLE = {
    "tiny": (
        "0x1.6849b86a12b9bp-38",
        1,
        {
            ("accum", "Outputs", "compute"): 2,
            ("adc", "Outputs", "convert"): 2,
            ("buffer", "Inputs", "fill"): 1,
            ("buffer", "Inputs", "read"): 2,
            ("buffer", "Outputs", "update"): 0,
            ("buffer", "Outputs", "write"): 1,
            ("cell", "Weights", "fill"): 4,
            ("cell", "all", "compute"): 4,
            ("dac", "Inputs", "convert"): 2,
        },
    ),
    "leaf_keeps_outputs": (
        "0x1.ae1800f1d3275p-39",
        12,
        {
            ("buffer", "Inputs", "fill"): 1,
            ("buffer", "Inputs", "read"): 48,
            ("buffer", "Outputs", "update"): 4,
            ("buffer", "Outputs", "write"): 4,
            ("buffer", "Weights", "fill"): 1,
            ("buffer", "Weights", "read"): 48,
            ("pe", "Outputs", "update"): 40,
            ("pe", "Outputs", "write"): 8,
            ("pe", "all", "compute"): 48,
        },
    ),
    "diff_switching": (
        "0x1.6cbf1f59a91fdp-37",
        6,
        {
            ("adc", "Outputs", "convert"): 12,
            ("buffer", "Inputs", "fill"): 1,
            ("buffer", "Inputs", "read"): 12,
            ("buffer", "Outputs", "update"): 8,
            ("buffer", "Outputs", "write"): 4,
            ("cell", "Weights", "fill"): 24,
            ("cell", "all", "compute"): 24,
            ("dac", "Inputs", "convert"): 12,
        },
    ),
    "b8_switching": (
        "0x1.b5d779cb030b8p-31",
        64,
        {
            ("adc", "Outputs", "convert"): 256,
            ("buffer", "Inputs", "fill"): 1,
            ("buffer", "Inputs", "read"): 256,
            ("buffer", "Outputs", "update"): 192,
            ("buffer", "Outputs", "write"): 64,
            ("cell", "Weights", "fill"): 128,
            ("cell", "all", "compute"): 1024,
            ("dac", "Inputs", "convert"): 256,
        },
    ),
    "one_mac": (
        "0x1.6849b86a12b9bp-39",
        1,
        {
            ("accum", "Outputs", "compute"): 1,
            ("adc", "Outputs", "convert"): 1,
            ("buffer", "Inputs", "fill"): 1,
            ("buffer", "Inputs", "read"): 1,
            ("buffer", "Outputs", "update"): 0,
            ("buffer", "Outputs", "write"): 1,
            ("cell", "Weights", "fill"): 1,
            ("cell", "all", "compute"): 1,
            ("dac", "Inputs", "convert"): 1,
        },
    ),
}


def test_oracle_outputs_are_pinned_bit_for_bit():
    for name, arch, layer, mapping, seed in _pinned_oracle_cases():
        got = oracle_evaluate(arch, layer, mapping, seed=seed)
        assert (got.energy_j.hex(), got.cycles, got.counts) == PINNED_ORACLE[name], name
        assert got.counts == evaluate(arch, layer, mapping).counts, name


# a 2x3-mesh leaf under a buffer and a 2x2 container; the leaf's directive
# and the role the container reuses spatially vary per case
LEAF_DIRECTIVE_ARCH = """
--- !Component
name: buffer
class: buffer
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {{e_per_bit: 1.0e-15, width: 8}}
--- !Container
name: grid
spatial: {{meshX: 2, meshY: 2}}
spatial_reuse: [{reused}]
--- !Component
name: leaf
{leaf}
spatial: {{meshX: 2, meshY: 3}}
"""
_CELL = "class: reram_cell\nattributes: {t_read: 1.0e-9, g_min: 1.0e-6, g_max: 4.0e-6}"
_WIRE = "class: wire\nattributes: {e_per_bit: 2.0e-15, width: 8}"
LEAF_DIRECTIVES = [
    f"{_CELL}\ncoalesce: [Inputs]",
    # the cell cannot price convert
    f"{_WIRE}\nno_coalesce: [Inputs]",
    f"{_CELL}\ncoalesce: [Outputs]",
    f"{_WIRE}\ntemporal_reuse: [Outputs, Inputs]",
]
# sha256 over every case's (energy_j.hex(), cycles, sorted counts)
PINNED_LEAF_DIRECTIVES = (
    "de295ed8a119b02e93d4fe5adb1bc6c427f9f9b1fa18b0400dba4e255fb260f5"
)


def test_oracle_pins_every_leaf_directive():
    layer = parse_workload(LAYER_M4_K6_N2)[0]
    h = hashlib.sha256()
    for leaf in LEAF_DIRECTIVES:
        for reused in ("Inputs", "Weights", "Outputs"):
            arch = parse_arch(LEAF_DIRECTIVE_ARCH.format(leaf=leaf, reused=reused))
            assert validate(arch, layer) == []
            mappings = list(enumerate_mappings(arch, layer, budget=40, seed=1))
            assert len(mappings) > 21
            for seed, (_, mapping) in enumerate(mappings[::7]):
                got = oracle_evaluate(arch, layer, mapping, seed=seed)
                assert got.counts == evaluate(arch, layer, mapping).counts
                pinned = (got.energy_j.hex(), got.cycles, sorted(got.counts.items()))
                h.update(repr(pinned).encode())
    assert h.hexdigest() == PINNED_LEAF_DIRECTIVES


# a 2x2 crossbar like arch_crossbar.yaml with every encoding and slice
# attribute exposed; the DAC drives the cell's inputs, so it encodes and
# slices them the same way
ENCODING_ARCH = """
--- !Component
name: buffer
class: buffer
temporal_reuse: [Inputs, Outputs]
attributes: {{e_per_bit: 1.0e-15, width: 8}}
--- !Component
name: dac
class: dac
no_coalesce: [Inputs]
attributes: {{e_full_scale: 0.4e-12, model: {dac}, input_encoding: {ienc}{iw}}}
--- !Component
name: adc
class: adc
no_coalesce: [Outputs]
attributes: {{resolution: 8}}
--- !Component
name: cell
class: reram_cell
temporal_reuse: [Weights]
spatial: {{meshX: 2, meshY: 2}}
spatial_reuse: [Inputs, Outputs]
attributes:
  {{t_read: 1.0e-8, g_min: 1.0e-6, g_max: 4.0e-6, vdd: 0.9,
   input_encoding: {ienc}, weight_encoding: {wenc}{iw}{ww}}}
"""
ENCODING_LAYER = """
layers:
  - name: enc
    dims: {{M: 2, K: 2}}
    projections: {{Inputs: [K], Weights: [K, M], Outputs: [M]}}
    bits: {{Inputs: {bits}, Weights: {bits}, Outputs: 8}}
    pmf: {{Inputs: {pmf}, Weights: {pmf}}}
"""
# sha256 over every config's energy-table fingerprint and, where the input
# and weight slice widths are equal, the oracle's (energy_j.hex(), sorted
# counts) on the first two enumerated mappings
PINNED_ENCODINGS = (
    "52bb7ac84486f045264e26132e6785ea9baec50def2689ea4dd73ed5024e9586"
)


def _encoding_configs():
    """(input encoding, weight encoding, bits, pmf): XNOR only pairs with
    itself at 1 bit; the other four pair freely at 4 bits."""
    yield "xnor", "xnor", 1, "{two_point: [-1, 1, 0.25]}"
    rest = [k for k in valuemodel.ENCODINGS if k != "xnor"]
    for ienc in rest:
        for wenc in rest:
            yield ienc, wenc, 4, "{uniform: [-7, 7]}"


def test_every_encoding_and_slice_width_is_pinned():
    h = hashlib.sha256()
    configs = 0
    for ienc, wenc, bits, pmf in _encoding_configs():
        layer = parse_workload(ENCODING_LAYER.format(bits=bits, pmf=pmf))[0]
        widths = [None] + [w for w in (1, 3) if w <= bits]
        for iw in widths:
            for ww in widths:
                for dac in ("value_proportional", "switching"):
                    arch = parse_arch(
                        ENCODING_ARCH.format(
                            dac=dac,
                            ienc=ienc,
                            wenc=wenc,
                            iw="" if iw is None else f", input_slice_width: {iw}",
                            ww="" if ww is None else f", weight_slice_width: {ww}",
                        )
                    )
                    configs += 1
                    h.update(LayerEvaluator(arch, layer).table.fingerprint.encode())
                    if iw != ww:
                        continue
                    found = enumerate_mappings(arch, layer, budget=16, seed=0)
                    for seed, (_, mapping) in zip(range(2), found):
                        got = oracle_evaluate(arch, layer, mapping, seed=seed)
                        pinned = (got.energy_j.hex(), sorted(got.counts.items()))
                        h.update(repr(pinned).encode())
    assert configs == 8 + 16 * 9 * 2
    assert h.hexdigest() == PINNED_ENCODINGS


def test_first_events_equal_the_first_indices_np_unique_returns():
    rng = np.random.default_rng(17)
    cases = [
        # every key occurs, walk order shuffled
        (rng.permutation(np.repeat(np.arange(12), 5)), 12),
        # most keys in the range never occur
        (rng.integers(0, 400, 50) * 3, 1200),
        (np.array([5, 5, 2, 9, 2, 5]), 10),
        # a single-point nest and a one-key range
        (np.array([0]), 1),
        (np.zeros(9, dtype=np.int64), 1),
    ]
    cases += [(rng.integers(0, k, n), k) for k, n in ((7, 100), (100, 100), (64, 20))]
    for keys, key_range in cases:
        got = engine._first_events(keys, key_range)
        want = np.unique(keys, return_index=True)[1]
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (keys, key_range)


# only the cell costs energy, so the oracle's total is its compute term
FREE_BUFFER_CELL = """
--- !Component
name: buffer
class: buffer
temporal_reuse: [Inputs, Outputs]
attributes: {e_per_bit: 0.0, width: 8}
--- !Component
name: cell
class: reram_cell
temporal_reuse: [Weights]
spatial: {meshX: 2, meshY: 2}
spatial_reuse: [Inputs, Outputs]
attributes: {t_read: 1.0e-9, g_max: 1.0e-6}
"""
SPREAD_LAYER = """
layers:
  - name: spread
    dims: {M: 4, K: 6, N: 3}
    projections: {Inputs: [K, N], Weights: [K, M], Outputs: [M, N]}
    bits: {Inputs: 8, Weights: 8, Outputs: 24}
    pmf: {Inputs: {uniform: [0, 255]}, Weights: {uniform: [-128, 127]}}
    signed: {Inputs: false}
"""


def test_oracle_prices_every_mac_on_its_own_operands():
    # K is split over a temporal and a spatial loop, so each operand's
    # flat index folds coordinates from two nest positions
    arch = parse_arch(FREE_BUFFER_CELL)
    layer = parse_workload(SPREAD_LAYER)[0]
    mapping = Mapping.from_dict(
        {
            "buffer": [
                Loop("M", 2, "temporal"),
                Loop("K", 3, "temporal"),
                Loop("N", 3, "temporal"),
            ],
            "cell": [Loop("M", 2, "spatialX"), Loop("K", 2, "spatialY")],
        }
    )
    seed = 5
    tensors = draw_tensors(layer, seed)
    ctx = build_action_context(arch.leaf, layer)
    cell = DEFAULT_REGISTRY.get("reram_cell")
    m, k, n = (g.ravel() for g in np.meshgrid(range(4), range(6), range(3), indexing="ij"))
    prices = cell.oracle_energy(
        "compute",
        ctx,
        {"Inputs": tensors["Inputs"][k, n], "Weights": tensors["Weights"][k, m]},
    )
    expected = math.fsum(prices.tolist())
    got = oracle_evaluate(arch, layer, mapping, seed=seed)
    assert got.counts == evaluate(arch, layer, mapping).counts
    assert got.energy_j == expected


def test_search_tiny_space_exhaustively(crossbar_arch, tiny_layer):
    cfg = MapperConfig(objective="energy", budget=1000, seed=0)
    res = search(crossbar_arch, tiny_layer, cfg)
    assert res is not None
    assert res.space_total == 49
    assert res.evaluated == 49
    assert res.valid == 47
    assert res.result.energy_j == pytest.approx(5.82e-12, rel=1e-12, abs=0)
    again = search(crossbar_arch, tiny_layer, cfg)
    assert again.index == res.index
    assert again.result.energy_j == res.result.energy_j
    assert again.fingerprint == res.fingerprint


def test_sampled_search_repeats_under_one_config(crossbar_arch):
    layer = parse_workload(BIG_FC)[0]
    config = MapperConfig(budget=200, seed=5)
    first = search(crossbar_arch, layer, config)
    again = search(crossbar_arch, layer, config)
    assert first is not None and again is not None
    assert first.index == again.index
    assert first.valid == again.valid
    assert first.result.energy_j == again.result.energy_j


def test_search_empty_space_returns_none(tiny_layer):
    text = read_fixture("arch_crossbar.yaml").replace(
        "temporal_reuse: [Inputs, Outputs]",
        "temporal_reuse: [Inputs, Outputs]\nconstraints: {max_tile: {M: 1}}",
    )
    arch = parse_arch(text)
    assert search(arch, tiny_layer, MapperConfig(budget=100, seed=0)) is None


def test_a_bogus_objective_fails_even_where_no_candidate_is_valid(tiny_layer):
    # a one-bit buffer holds no tile, so the scan never prices a candidate
    # and could not see the objective
    arch = parse_arch(
        read_fixture("arch_crossbar.yaml").replace("width: 8", "width: 8\n  capacity: 1")
    )
    assert search(arch, tiny_layer, MapperConfig(budget=100)) is None
    with pytest.raises(MappingError, match="objective must be one of"):
        MapperConfig(objective="bogus", budget=100)


def test_latency_objective_prefers_spatial(crossbar_arch):
    layer = parse_workload(BIG_FC)[0]
    res = search(crossbar_arch, layer, MapperConfig(objective="latency", budget=400, seed=2))
    assert res is not None
    # 8x16 work on a 2x2 mesh cannot finish in fewer cycles than MACs/4
    assert res.result.cycles >= 32
    best_e = search(crossbar_arch, layer, MapperConfig(objective="energy", budget=400, seed=2))
    assert best_e.result.energy_j <= res.result.energy_j


def test_draw_tensors_determinism(tiny_layer):
    a = draw_tensors(tiny_layer, seed=4)
    b = draw_tensors(tiny_layer, seed=4)
    c = draw_tensors(tiny_layer, seed=5)
    assert np.array_equal(a["Inputs"], b["Inputs"])
    assert np.array_equal(a["Weights"], b["Weights"])
    assert a["Inputs"].shape == (2,)
    assert a["Weights"].shape == (2, 2)
    assert set(np.unique(a["Inputs"])) <= {0, 1}
    assert (a["Weights"] == 1).all()
    diff = any(
        not np.array_equal(draw_tensors(tiny_layer, seed=s)["Inputs"], a["Inputs"])
        for s in range(5, 30)
    )
    assert diff


def test_plugin_model_changes_the_price(crossbar_arch, tiny_layer, tiny_mapping):
    class FlatDac(DacModel):
        def energy_per_action(self, action, ctx):
            return 1e-12

    reg = ModelRegistry()
    for name in ("buffer", "adder", "adc", "reram_cell"):
        reg.register(name, DEFAULT_REGISTRY.get(name))
    reg.register("dac", FlatDac())
    res = evaluate(crossbar_arch, tiny_layer, tiny_mapping, registry=reg)
    assert res.energy_j == pytest.approx(
        CROSSBAR_TOTAL_J - 2 * DAC_CONVERT_J + 2 * 1e-12, rel=1e-12, abs=0
    )


# fc: 16-bit Outputs with no declared PMF; conv3x3: 24-bit undeclared Outputs
_CONV_LAYERS = {l.name: l for l in parse_workload(read_fixture("workload_conv.yaml"))}


class _OutputsProbe(AdcModel):
    """ADC that reads the Outputs slices before pricing a conversion."""

    def __init__(self):
        self.seen = []

    def energy_per_action(self, action, ctx):
        self.seen.append(ctx.role_lines("Outputs"))
        return super().energy_per_action(action, ctx)


def _probe_registry(probe):
    reg = ModelRegistry()
    for name in ("buffer", "adder", "dac", "reram_cell"):
        reg.register(name, DEFAULT_REGISTRY.get(name))
    reg.register("adc", probe)
    return reg


def test_undeclared_outputs_are_never_encoded(crossbar_arch, monkeypatch):
    layer = _CONV_LAYERS["fc"]
    encoded_bits = []
    real_encode = valuemodel.encode_pmf

    def counting_encode(pmf, enc):
        encoded_bits.append(enc.bits)
        return real_encode(pmf, enc)

    monkeypatch.setattr(valuemodel, "encode_pmf", counting_encode)
    LayerEvaluator(crossbar_arch, layer)
    assert encoded_bits and layer.bits["Outputs"] not in encoded_bits
    ctx = build_action_context(crossbar_arch.node("adc"), layer)
    assert "Outputs" in ctx.lines
    # membership tests build nothing
    assert layer.bits["Outputs"] not in encoded_bits


def test_plugin_reading_outputs_gets_the_sliced_default():
    arch = parse_arch(
        read_fixture("arch_crossbar.yaml").replace(
            "resolution: 8",
            "resolution: 8\n  output_encoding: offset\n  output_slice_width: 4",
        )
    )
    layer = _CONV_LAYERS["fc"]
    probe = _OutputsProbe()
    LayerEvaluator(arch, layer, _probe_registry(probe))
    (line,) = encode_pmf(layer.pmf_for("Outputs"), Encoding("offset", 16))
    expected = (tuple(slice_pmf(line, SliceScheme((4, 4, 4, 4)))),)
    assert probe.seen == [expected]


def test_plugin_reading_wide_undeclared_outputs_fails(crossbar_arch):
    with pytest.raises(ComponentError, match="no Outputs distribution"):
        LayerEvaluator(
            crossbar_arch, _CONV_LAYERS["conv3x3"], _probe_registry(_OutputsProbe())
        )


def _count_builds(monkeypatch) -> dict:
    """Count SlotTable builds and encode_pmf calls while the test runs."""
    built = {"SlotTable": 0, "encode_pmf": 0}
    real_init = SlotTable.__init__
    real_encode = valuemodel.encode_pmf

    def counting_init(self, *args):
        built["SlotTable"] += 1
        real_init(self, *args)

    def counting_encode(pmf, enc):
        built["encode_pmf"] += 1
        return real_encode(pmf, enc)

    monkeypatch.setattr(SlotTable, "__init__", counting_init)
    monkeypatch.setattr(valuemodel, "encode_pmf", counting_encode)
    return built


_TINY_ARGS = [
    "--arch", fixture_path("arch_crossbar.yaml"),
    "--workload", fixture_path("workload_tiny.yaml"),
]
_TINY_MAPPING_ARGS = _TINY_ARGS + ["--mapping", fixture_path("mapping_tiny.yaml")]


@pytest.mark.parametrize(
    "argv, tables, encodes",
    [
        (["search", "--budget", "20"] + _TINY_ARGS, 1, 2),
        (["evaluate"] + _TINY_MAPPING_ARGS, 1, 2),
        (["validate"] + _TINY_MAPPING_ARGS, 1, 2),
        # the oracle keeps a slot table of its own
        (["oracle-compare"] + _TINY_MAPPING_ARGS, 2, 2),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_each_command_builds_one_slot_table_per_consumer(
    monkeypatch, capsys, argv, tables, encodes
):
    built = _count_builds(monkeypatch)
    assert cli.main(argv) == 0
    assert built == {"SlotTable": tables, "encode_pmf": encodes}


@pytest.mark.parametrize("name", sorted(_CONV_LAYERS))
def test_search_and_oracle_build_one_slot_table_per_layer(
    monkeypatch, crossbar_arch, tiny_layer, tiny_mapping, name
):
    built = _count_builds(monkeypatch)
    search(crossbar_arch, _CONV_LAYERS[name], MapperConfig(budget=20))
    # the DAC and the cell read the same Inputs encoding: one encode each
    # for Inputs and Weights
    assert built == {"SlotTable": 1, "encode_pmf": 2}
    oracle_evaluate(crossbar_arch, tiny_layer, tiny_mapping)
    assert built["SlotTable"] == 2


def test_library_loop_builds_one_slot_table(monkeypatch, crossbar_arch):
    built = _count_builds(monkeypatch)
    layer = _CONV_LAYERS["conv3x3"]
    ev = LayerEvaluator(crossbar_arch, layer)
    found = enumerate_mappings(crossbar_arch, layer, 200, 0, table=ev.slot_table)
    assert [ev.evaluate(m) for _, m in found]
    assert built["SlotTable"] == 1


@pytest.mark.parametrize("case", ["conv3x3", "primes"])
def test_search_decodes_only_its_winner(monkeypatch, crossbar_arch, case):
    # the primes layer scans in Python-int object products
    layer = _CONV_LAYERS.get(case) or parse_workload(PRIMES)[0]
    decoded = []
    for name in ("mapping_at", "bounds_at"):
        real = getattr(MappingSpace, name)

        def counting(self, index, name=name, real=real):
            decoded.append(name)
            return real(self, index)

        monkeypatch.setattr(MappingSpace, name, counting)
    found = search(crossbar_arch, layer, MapperConfig(budget=2000, seed=1))
    # the scan prices plan products; one index, the winner's, is decoded
    assert decoded == ["mapping_at", "bounds_at"]
    space = MappingSpace(crossbar_arch, layer)
    assert found.mapping == space.mapping_at(found.index)


def test_nodes_share_an_encode_but_slice_per_scheme(monkeypatch):
    arch = parse_arch(
        read_fixture("arch_crossbar.yaml").replace(
            "g_max: 50.0e-6", "g_max: 50.0e-6\n  input_slice_width: 2"
        )
    )
    built = _count_builds(monkeypatch)
    sliced = []
    real_slice = engine.slice_pmf
    monkeypatch.setattr(
        engine, "slice_pmf", lambda line, scheme: sliced.append(scheme.widths)
        or real_slice(line, scheme)
    )
    LayerEvaluator(arch, _CONV_LAYERS["fc"])
    assert built["encode_pmf"] == 2
    # Inputs whole at the DAC and in 2-bit slices at the cell, Weights whole
    assert sorted(sliced) == [(2, 2), (4,), (4,)]


def test_oracle_builds_each_key_set_once(monkeypatch, crossbar_arch, tiny_layer):
    keys = []
    real_first = engine._first_events

    def recording_first(k, key_range):
        keys.append(k.tobytes())
        return real_first(k, key_range)

    monkeypatch.setattr(engine, "_first_events", recording_first)
    for mapping in (m for _, m in enumerate_mappings(crossbar_arch, tiny_layer)):
        keys.clear()
        oracle_evaluate(crossbar_arch, tiny_layer, mapping)
        assert len(keys) == len(set(keys)), serialize_mapping(mapping)


# sha256 over, per enumerated mapping, evaluate's counts and breakdown
# items in insertion order, energy_j.hex(), cycles, latency_s.hex() and
# utilization.hex(): conv3x3, fc and tiny on the crossbar, and the 4x4
# layer on ARCH_RULES_A
PINNED_EVALUATE = (
    "9b9884ffccadc4f5a6e15813474732b70e1f3e27a813804ac30265d58339d7b6"
)


def test_evaluate_results_are_pinned_bit_for_bit(crossbar_arch, tiny_layer):
    cases = [
        (crossbar_arch, _CONV_LAYERS["conv3x3"], 400),
        (crossbar_arch, _CONV_LAYERS["fc"], 400),
        (crossbar_arch, tiny_layer, 1000),
        (parse_arch(ARCH_RULES_A), parse_workload(LAYER_4X4)[0], 1000),
    ]
    h = hashlib.sha256()
    priced = 0
    for arch, layer, budget in cases:
        ev = LayerEvaluator(arch, layer)
        for idx, mapping in enumerate_mappings(arch, layer, budget, seed=5):
            r = ev.evaluate(mapping)
            pinned = (
                idx,
                list(r.counts.items()),
                list(r.breakdown.items()),
                r.energy_j.hex(),
                r.cycles,
                r.latency_s.hex(),
                r.utilization.hex(),
            )
            h.update(repr(pinned).encode())
            priced += 1
    assert priced > 200
    assert h.hexdigest() == PINNED_EVALUATE


def _fsum_outcome(fn):
    """What fn returns, as a float's hex or 'nan', or the exception it raises."""
    try:
        got = fn()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "nan" if math.isnan(got) else got.hex()


_PRICES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-307, max_value=1e-307),
    st.floats(min_value=0.5e300, max_value=2e300),
    st.floats(min_value=-2e300, max_value=-0.5e300),
)
_COUNTS = st.one_of(
    st.sampled_from([1, 2, 3, 2**26 - 1, 2**26, 2**26 + 1, 2**40]),
    st.integers(1, 2**62),
)


@given(st.lists(st.tuples(_PRICES, _COUNTS), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_count_weighted_fsum_is_the_exact_sum_rounded_once(pairs):
    prices = np.array([p for p, _ in pairs])
    counts = np.array([c for _, c in pairs])
    expected = _fsum_outcome(lambda: float(sum(Fraction(p) * c for p, c in pairs)))
    got = _fsum_outcome(lambda: engine._count_weighted_fsum(prices, counts))
    if expected[0] == "OverflowError":
        assert got == ("OverflowError", "intermediate overflow in fsum")
    else:
        assert got == expected


def test_count_weighted_fsum_is_exact_across_blocks():
    rng = np.random.default_rng(7)
    n = 2 * engine._SUM_BLOCK + 3
    prices = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-320, 250, n)
    counts = rng.choice([1, 2, 3, 2**26 - 1, 2**26, 2**40], n)
    expected = float(sum(Fraction(p) * int(c) for p, c in zip(prices, counts)))
    assert engine._count_weighted_fsum(prices, counts) == expected


@pytest.mark.parametrize(
    "prices, counts",
    [
        ([math.nan, 1.0], [1, 3]),
        ([2.5, math.inf], [2, 2]),
        ([-math.inf, 1e-300], [3, 1]),
        ([math.inf, -math.inf], [1, 1]),
        ([math.nan, math.inf, -math.inf], [1, 2, 1]),
        ([1e308], [2]),
        ([-1e308, 1.0], [3, 1]),
        ([1.7e308, 1e308], [1, 1]),
        ([1e308, -1e308], [1, 1]),
    ],
)
def test_count_weighted_fsum_matches_fsum_where_it_is_not_finite(prices, counts):
    expanded = [p for p, c in zip(prices, counts) for _ in range(c)]
    got = _fsum_outcome(
        lambda: engine._count_weighted_fsum(np.array(prices), np.array(counts))
    )
    assert got == _fsum_outcome(lambda: math.fsum(expanded))


def _per_event_groups(ranks, levels):
    """Every event its own combination, as the oracle priced them one by one."""
    values = {role: levels[role][r] for role, r in ranks.items()}
    return values, np.ones(np.size(next(iter(ranks.values()))), dtype=np.int64)


def _record_calls(monkeypatch, cls, calls):
    price = cls.oracle_energy

    def recorded(self, action, ctx, values):
        calls.append((cls.__name__, action, {r: v.tolist() for r, v in values.items()}))
        return price(self, action, ctx, values)

    monkeypatch.setattr(cls, "oracle_energy", recorded)


# 48 MACs of 2-bit operands under the crossbar's 2x2 cell mesh: at most 16
# operand pairs, so every value stage repeats combinations
_REPEATS_MAPPING = Mapping.from_dict(
    {
        "buffer": [
            Loop("M", 2, "temporal"),
            Loop("K", 3, "temporal"),
            Loop("N", 2, "temporal"),
        ],
        "cell": [Loop("M", 2, "spatialX"), Loop("K", 2, "spatialY")],
    }
)


def test_oracle_prices_each_distinct_combination_once(monkeypatch, crossbar_arch):
    layer = parse_workload(LAYER_M4_K6_N2)[0]
    calls = []
    for cls in (MemoryCellModel, DacModel):
        _record_calls(monkeypatch, cls, calls)
    grouped = oracle_evaluate(crossbar_arch, layer, _REPEATS_MAPPING, seed=2)
    grouped_calls, calls[:] = list(calls), []
    monkeypatch.setattr(engine, "_group_events", _per_event_groups)
    per_event = oracle_evaluate(crossbar_arch, layer, _REPEATS_MAPPING, seed=2)

    # one call per value stage, in the same order, on the distinct combinations
    assert [c[:2] for c in grouped_calls] == [c[:2] for c in calls]
    assert [c[:2] for c in calls] == [
        ("MemoryCellModel", "compute"),
        ("DacModel", "convert"),
    ]
    for (_, _, entries), (_, _, events) in zip(grouped_calls, calls):
        assert list(entries) == list(events)
        rows = list(zip(*entries.values()))
        assert rows == sorted(set(zip(*events.values())))
        assert len(rows) < len(events["Inputs"])
    assert grouped.counts == per_event.counts == evaluate(
        crossbar_arch, layer, _REPEATS_MAPPING
    ).counts
    assert grouped.energy_j == per_event.energy_j


class _SquareLawDac(ComponentModel):
    """A plug-in DAC whose conversion costs grow with the square of its input."""

    value_dependent_on = frozenset({"Inputs"})

    def energy_per_action(self, action, ctx):
        return 3e-15

    def oracle_energy(self, action, ctx, values):
        x = values["Inputs"].astype(np.float64)
        return 1e-15 * (x * x + 1.0 / 3.0)


def test_a_plugin_price_is_summed_as_one_price_per_event(monkeypatch, crossbar_arch):
    reg = ModelRegistry()
    for name in ("buffer", "adder", "adc", "reram_cell"):
        reg.register(name, DEFAULT_REGISTRY.get(name))
    reg.register("dac", _SquareLawDac())
    layer = parse_workload(LAYER_M4_K6_N2)[0]
    calls = []
    _record_calls(monkeypatch, _SquareLawDac, calls)
    run = functools.partial(oracle_evaluate, crossbar_arch, layer, _REPEATS_MAPPING)
    grouped = run(seed=4, registry=reg)
    ((_, action, entries),) = calls
    assert action == "convert" and entries["Inputs"] == sorted(set(entries["Inputs"]))
    monkeypatch.setattr(engine, "_group_events", _per_event_groups)
    per_event = run(seed=4, registry=reg)
    assert len(calls) == 2 and len(calls[1][2]["Inputs"]) > len(entries["Inputs"])
    assert grouped.energy_j == per_event.energy_j
    default = run(seed=4)
    assert grouped.energy_j != default.energy_j
