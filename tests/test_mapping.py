"""Loop-nest mappings, validity checks and closed-form access counting.

Every frozen count in this file was derived by walking the reuse chain by
hand; the engine's brute-force oracle re-derives the same numbers in
test_engine and test_acceptance.
"""

import functools
import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cimeval
from cimeval.archspec import parse_arch
from cimeval.engine import LayerEvaluator, search
from cimeval.mapping import (
    OBJECTIVES,
    SCAN_BLOCK,
    Loop,
    MapperConfig,
    Mapping,
    MappingError,
    MappingSpace,
    Slot,
    SlotTable,
    _DimCounts,
    _decode_index,
    _divisor_pairs,
    _divisors,
    _factorizations,
    _sample_sorted,
    build_count_plan,
    check_valid,
    enumerate_mappings,
    parse_mapping,
    serialize_mapping,
)
from cimeval.workload import parse_workload

from conftest import read_fixture
from test_acceptance import _random_arch, _random_workload

# buffer > dac > adc > cell, no reduction stage between ADC and buffer, and
# the cell mesh multicasts inputs only; column outputs reach the buffer
# individually, so an outer reduction step updates in place.
ARCH_NO_REDUCE = """
--- !Component
name: buffer
class: buffer
temporal_reuse: [Inputs, Outputs]
attributes: {e_per_bit: 0.0, width: 8}
--- !Component
name: dac
class: dac
no_coalesce: [Inputs]
attributes: {e_full_scale: 0.4e-12}
--- !Component
name: adc
class: adc
no_coalesce: [Outputs]
attributes: {resolution: 8}
--- !Component
name: cell
class: reram_cell
temporal_reuse: [Weights]
spatial: {meshX: 2, meshY: 2}
spatial_reuse: [Inputs]
attributes: {t_read: 10.0e-9, g_max: 50.0e-6, vdd: 1.0}
"""

# dram > column grid (input multicast) > per-column output register > PE
ARCH_HIER = """
--- !Component
name: dram
class: buffer
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {e_per_bit: 1.0e-12, width: 16}
--- !Container
name: grid
spatial: {meshX: 2}
spatial_reuse: [Inputs]
--- !Component
name: abuf
class: buffer
temporal_reuse: [Outputs]
attributes: {e_per_bit: 0.1e-12, width: 16}
--- !Component
name: pe
class: sram_cell
temporal_reuse: [Weights]
attributes: {e_mac: 1.0e-13}
"""


def tiny():
    return parse_workload(read_fixture("workload_tiny.yaml"))[0]


def plan_evaluate(arch, layer, mapping):
    """Counts, cycles and utilization of one mapping from its count plan."""
    table, plan = build_count_plan(arch, layer)
    return plan.evaluate(table.bounds_from_mapping(mapping))


def counts_for(arch_text, mapping):
    arch = parse_arch(arch_text)
    layer = tiny()
    diag = check_valid(arch, layer, mapping)
    assert diag.ok, diag.errors
    return plan_evaluate(arch, layer, mapping)[0]


def test_crossbar_fully_spatial_counts(crossbar_arch, tiny_layer, tiny_mapping):
    got = plan_evaluate(crossbar_arch, tiny_layer, tiny_mapping)[0]
    assert got == {
        ("cell", "all", "compute"): 4,
        ("cell", "Weights", "fill"): 4,
        ("dac", "Inputs", "convert"): 2,
        ("buffer", "Inputs", "read"): 2,
        ("buffer", "Inputs", "fill"): 1,
        ("adc", "Outputs", "convert"): 2,
        ("accum", "Outputs", "compute"): 2,
        ("buffer", "Outputs", "write"): 1,
        ("buffer", "Outputs", "update"): 0,
    }


def test_unicast_inputs_convert_per_column(tiny_mapping):
    # dropping the input multicast doubles DAC work: one convert per column
    text = read_fixture("arch_crossbar.yaml").replace(
        "spatial_reuse: [Inputs, Outputs]", "spatial_reuse: [Outputs]"
    )
    got = counts_for(text, tiny_mapping)
    assert got[("dac", "Inputs", "convert")] == 4
    assert got[("buffer", "Inputs", "read")] == 4
    # output-side traffic is untouched
    assert got[("adc", "Outputs", "convert")] == 2
    assert got[("buffer", "Outputs", "write")] == 1


def test_outer_temporal_column_loop(crossbar_arch, tiny_layer):
    # columns iterated in time instead of space: the input vector is
    # re-delivered per step, the array shrinks to one column
    mapping = Mapping.from_dict(
        {"buffer": [Loop("M", 2, "temporal")], "cell": [Loop("K", 2, "spatialY")]}
    )
    got = plan_evaluate(crossbar_arch, tiny_layer, mapping)[0]
    assert got == {
        ("cell", "all", "compute"): 4,
        ("cell", "Weights", "fill"): 4,
        ("dac", "Inputs", "convert"): 4,
        ("buffer", "Inputs", "read"): 4,
        ("buffer", "Inputs", "fill"): 1,
        ("adc", "Outputs", "convert"): 2,
        ("accum", "Outputs", "compute"): 2,
        ("buffer", "Outputs", "write"): 2,
        ("buffer", "Outputs", "update"): 0,
    }


def test_unreduced_outputs_update_in_place():
    mapping = Mapping.from_dict(
        {"cell": [Loop("M", 2, "spatialX"), Loop("K", 2, "spatialY")]}
    )
    got = counts_for(ARCH_NO_REDUCE, mapping)
    # both cells of a column push partial sums; first touch writes, the
    # second arrival is a read-modify-write
    assert got[("adc", "Outputs", "convert")] == 4
    assert got[("buffer", "Outputs", "write")] == 2
    assert got[("buffer", "Outputs", "update")] == 2
    assert got[("dac", "Inputs", "convert")] == 2


def test_hierarchy_counts_and_cycles():
    arch = parse_arch(ARCH_HIER)
    layer = tiny()
    mapping = Mapping.from_dict(
        {"grid": [Loop("M", 2, "spatialX")], "pe": [Loop("K", 2, "temporal")]}
    )
    diag = check_valid(arch, layer, mapping)
    assert diag.ok and not diag.warnings
    got, cycles, util = plan_evaluate(arch, layer, mapping)
    assert got == {
        ("pe", "all", "compute"): 4,
        ("pe", "Weights", "fill"): 2,
        ("dram", "Weights", "read"): 2,
        ("dram", "Weights", "fill"): 1,
        ("dram", "Inputs", "read"): 2,
        ("dram", "Inputs", "fill"): 1,
        ("abuf", "Outputs", "write"): 2,
        ("abuf", "Outputs", "update"): 2,
        ("dram", "Outputs", "write"): 2,
        ("dram", "Outputs", "update"): 0,
    }
    assert cycles == 2
    assert util == pytest.approx(1.0, abs=0)


def test_repeated_loops_multiply_into_one_slot(crossbar_arch, tiny_layer):
    table = SlotTable(crossbar_arch, tiny_layer)
    mapping = Mapping.from_dict(
        {"buffer": [Loop("M", 2, "temporal"), Loop("M", 2, "temporal")]}
    )
    bounds = table.bounds_from_mapping(mapping)
    slot = table.slots.index(Slot(0, "temporal", "M"))
    assert bounds[slot] == 4


def test_bounds_round_trip(crossbar_arch, tiny_layer, tiny_mapping):
    table = SlotTable(crossbar_arch, tiny_layer)
    bounds = table.bounds_from_mapping(tiny_mapping)
    again = table.bounds_from_mapping(table.mapping_from_bounds(bounds))
    assert again == bounds
    # bound-1 loops are dropped on the way out
    for _, loops in table.mapping_from_bounds(bounds).loops:
        assert all(l.bound > 1 for l in loops)


def test_unknown_names_are_errors(crossbar_arch, tiny_layer):
    table = SlotTable(crossbar_arch, tiny_layer)
    with pytest.raises(MappingError, match="unknown node"):
        table.bounds_from_mapping(
            Mapping.from_dict({"nonesuch": [Loop("M", 2, "temporal")]})
        )
    with pytest.raises(MappingError, match="unknown dim"):
        table.bounds_from_mapping(
            Mapping.from_dict({"buffer": [Loop("Z", 2, "temporal")]})
        )
    with pytest.raises(MappingError):
        Loop("M", 0, "temporal")
    with pytest.raises(MappingError):
        Loop("M", 2, "diagonal")
    for bound in (2.0, "2", None, True):
        with pytest.raises(MappingError, match="loop bound must be an int"):
            Loop("M", bound)


def test_check_valid_diagnostic_classes(crossbar_arch, tiny_layer):
    # spatial loop at a plain component: no such slot exists
    diag = check_valid(
        crossbar_arch,
        tiny_layer,
        Mapping.from_dict(
            {"dac": [Loop("M", 2, "spatialX")], "cell": [Loop("K", 2, "spatialY")]}
        ),
    )
    assert not diag.ok
    assert any("no loop slot" in e for e in diag.errors)

    # under-tiling
    diag = check_valid(
        crossbar_arch, tiny_layer, Mapping.from_dict({"cell": [Loop("K", 2, "spatialY")]})
    )
    assert any("covers 1 of 2" in e.replace("cover", "covers") for e in diag.errors)

    # padding warns but stays usable
    diag = check_valid(
        crossbar_arch,
        tiny_layer,
        Mapping.from_dict(
            {"buffer": [Loop("M", 4, "temporal")], "cell": [Loop("K", 2, "spatialY")]}
        ),
    )
    assert diag.ok
    assert any("padded" in w for w in diag.warnings)

    # mesh axis overflow
    diag = check_valid(
        crossbar_arch,
        tiny_layer,
        Mapping.from_dict(
            {"cell": [Loop("M", 4, "spatialX"), Loop("K", 2, "spatialY")]}
        ),
    )
    assert any("mesh axis has 2" in e for e in diag.errors)


def test_check_valid_constraints(tiny_layer):
    base = read_fixture("arch_crossbar.yaml")
    spatial_map = parse_mapping(read_fixture("mapping_tiny.yaml"))
    temporal_m = Mapping.from_dict(
        {"buffer": [Loop("M", 2, "temporal")], "cell": [Loop("K", 2, "spatialY")]}
    )

    keep = base.replace(
        "attributes:\n  t_read:",
        "constraints: {keep_dims: [M]}\nattributes:\n  t_read:",
    )
    diag = check_valid(parse_arch(keep), tiny_layer, temporal_m)
    assert any("keep_dims" in e for e in diag.errors)
    assert check_valid(parse_arch(keep), tiny_layer, spatial_map).ok

    tile = base.replace(
        "attributes:\n  t_read:",
        "constraints: {max_tile: {K: 1}}\nattributes:\n  t_read:",
    )
    diag = check_valid(parse_arch(tile), tiny_layer, spatial_map)
    assert any("max_tile" in e for e in diag.errors)

    sdims = base.replace(
        "attributes:\n  t_read:",
        "constraints: {spatial_dims: [K]}\nattributes:\n  t_read:",
    )
    diag = check_valid(parse_arch(sdims), tiny_layer, spatial_map)
    assert any("spatial_dims" in e for e in diag.errors)
    assert check_valid(parse_arch(sdims), tiny_layer, temporal_m).ok


def test_check_valid_capacity(tiny_layer):
    base = read_fixture("arch_crossbar.yaml")
    # retained tiles: 2 input bits + 16 output bits exceed 4
    tight = base.replace("e_per_bit: 0.0", "e_per_bit: 0.0\n  capacity: 4")
    diag = check_valid(
        parse_arch(tight), tiny_layer, parse_mapping(read_fixture("mapping_tiny.yaml"))
    )
    assert any("capacity is 4" in e for e in diag.errors)
    roomy = base.replace("e_per_bit: 0.0", "e_per_bit: 0.0\n  capacity: 64")
    assert check_valid(
        parse_arch(roomy), tiny_layer, parse_mapping(read_fixture("mapping_tiny.yaml"))
    ).ok


# A constrained hierarchy for the validity rules: the grid Container and
# the pe leaf carry meshes, grid keeps K and parallelizes only M, and abuf
# bounds the M tile twice, by max_tile and by its capacity of one 8-bit
# output.
ARCH_RULES_A = """
--- !Component
name: dram
class: buffer
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {e_per_bit: 1.0e-12, width: 16}
--- !Container
name: grid
spatial: {meshX: 2, meshY: 2}
spatial_reuse: [Inputs]
constraints: {keep_dims: [K], spatial_dims: [M]}
--- !Component
name: abuf
class: buffer
temporal_reuse: [Outputs]
attributes: {e_per_bit: 0.1e-12, width: 16, capacity: 8}
constraints: {max_tile: {M: 2}}
--- !Component
name: pe
class: sram_cell
temporal_reuse: [Weights]
spatial: {meshX: 2}
attributes: {e_mac: 1.0e-13}
"""

# The same hierarchy with the constraints moved: a wide grid bounds the K
# tile, abuf holds inputs and outputs, and the pe mesh must loop over M and
# parallelizes only K.
ARCH_RULES_B = """
--- !Component
name: dram
class: buffer
temporal_reuse: [Inputs, Weights, Outputs]
attributes: {e_per_bit: 1.0e-12, width: 16}
--- !Container
name: grid
spatial: {meshX: 4}
spatial_reuse: [Inputs]
constraints: {max_tile: {K: 2}}
--- !Component
name: abuf
class: buffer
temporal_reuse: [Inputs, Outputs]
attributes: {e_per_bit: 0.1e-12, width: 16, capacity: 20}
--- !Component
name: pe
class: sram_cell
temporal_reuse: [Weights]
spatial: {meshX: 2, meshY: 2}
constraints: {keep_dims: [M], spatial_dims: [K]}
attributes: {e_mac: 1.0e-13}
"""

LAYER_4X4 = """
layers:
  - name: sq
    dims: {M: 4, K: 4}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 2, Weights: 1, Outputs: 8}
    pmf: {Inputs: {delta: 1}, Weights: {delta: 1}}
"""

# Errors of the rules MappingSpace cannot enforce per dim, and of the ones
# it can, by a fragment of their messages.
RESIDUAL_ERRORS = ("mesh axis has", "keep_dims requires", "retained tiles need")
PER_DIM_ERRORS = ("loop bounds cover", "max_tile allows", "spatial_dims constraint")


@pytest.mark.parametrize(
    "arch_text",
    [
        ARCH_RULES_A,
        ARCH_RULES_B,
        # a constraint on a dim the layer lacks rejects every mapping
        ARCH_RULES_A.replace("keep_dims: [K]", "keep_dims: [K, Z]"),
    ],
    ids=["A", "B", "unknown_dim"],
)
def test_bounds_ok_agrees_with_check_valid(arch_text):
    arch = parse_arch(arch_text)
    layer = parse_workload(LAYER_4X4)[0]
    space = MappingSpace(arch, layer)
    rejected_by = dict.fromkeys(RESIDUAL_ERRORS, 0)
    for i in range(space.total):
        diag = check_valid(arch, layer, space.mapping_at(i), space.table)
        assert space.bounds_ok(space.bounds_at(i)) == diag.ok, (i, diag.errors)
        assert not diag.warnings
        for e in diag.errors:
            assert not any(f in e for f in PER_DIM_ERRORS), (i, e)
            for f in RESIDUAL_ERRORS:
                rejected_by[f] += f in e
    assert all(rejected_by.values()), rejected_by


def test_check_valid_messages_in_order():
    text = ARCH_RULES_A.replace("keep_dims: [K]", "keep_dims: [Z]").replace(
        "max_tile: {M: 2}", "keep_dims: [K], max_tile: {M: 2, Z: 3}"
    )
    arch = parse_arch(text)
    layer = parse_workload(LAYER_4X4)[0]
    mapping = Mapping.from_dict(
        {
            "grid": [Loop("M", 2, "spatialX"), Loop("K", 2, "spatialX")],
            "pe": [Loop("M", 4, "temporal")],
        }
    )
    diag = check_valid(arch, layer, mapping)
    assert diag.errors == [
        "dim 'K': loop bounds cover 2 of 4 iterations",
        "node 'grid': spatialX loops need 4 instances but the mesh axis has 2",
        "node 'grid': keep_dims names unknown dim 'Z'",
        "node 'grid': spatial loops over 'K' are not permitted by the "
        "spatial_dims constraint",
        "node 'abuf': constraint keep_dims requires a loop over 'K' here",
        "node 'abuf': tile of dim 'M' is 4, max_tile allows 2",
        "node 'abuf': max_tile names unknown dim 'Z'",
        "node 'abuf': retained tiles need 32 bits but capacity is 8",
    ]
    assert diag.warnings == [
        "dim 'M': loop bounds cover 8 iterations, padded beyond size 4"
    ]


def _compiled_digest(pairs) -> str:
    """sha256 over everything build_count_plan and _validity_rules compile
    for each (arch text, layer) pair, in order."""
    h = hashlib.sha256()
    for arch_text, layer in pairs:
        table, plan = build_count_plan(parse_arch(arch_text), layer)
        rows = [(e.node, e.tensor, e.action, e.mode, e.idx_a, e.idx_b)
                for e in plan.entries]
        rows.append((plan.subsets, plan.terms, plan.cycles_sub, plan.all_sub,
                     plan.mesh_capacity))
        rows += [(r.kind, r.node, r.dim, r.terms, r.lo, r.hi) for r in table._rules]
        for row in rows:
            h.update(repr(row).encode())
    return h.hexdigest()


def test_compiled_plans_and_rules_are_pinned():
    # Entry order is part of the pin: the search objective sums in plan-entry
    # order.
    pairs = [
        (read_fixture("arch_crossbar.yaml"), layer)
        for name in ("workload_tiny.yaml", "workload_conv.yaml")
        for layer in parse_workload(read_fixture(name))
    ]
    pairs += [(text, tiny()) for text in (ARCH_NO_REDUCE, ARCH_HIER)]
    unknown = ARCH_RULES_A.replace("keep_dims: [K]", "keep_dims: [Z]").replace(
        "max_tile: {M: 2}", "keep_dims: [K], max_tile: {M: 2, Z: 3}"
    )
    square = parse_workload(LAYER_4X4)[0]
    pairs += [(text, square) for text in (ARCH_RULES_A, ARCH_RULES_B, unknown)]
    rng = random.Random(2024)
    seen: set = set()
    for trial in range(1, 401):
        layer = parse_workload(_random_workload(rng, f"t{trial}"))[0]
        pairs.append((_random_arch(rng, trial, seen), layer))
    assert _compiled_digest(pairs) == (
        "28cd47c8df0169fa700d1a8ae1845b1729b6323b08eb5614e359fa4031956ab0"
    )


def test_utilization_of_partial_occupancy():
    text = read_fixture("arch_crossbar.yaml").replace(
        "spatial: {meshX: 2, meshY: 2}", "spatial: {meshX: 256, meshY: 256}"
    )
    arch = parse_arch(text)
    layer = parse_workload(
        """
layers:
  - name: mid
    dims: {M: 64, K: 64}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {delta: 1}, Weights: {delta: 1}}
"""
    )[0]
    mapping = Mapping.from_dict(
        {"cell": [Loop("M", 64, "spatialX"), Loop("K", 64, "spatialY")]}
    )
    assert plan_evaluate(arch, layer, mapping)[2] == pytest.approx(1 / 16, abs=0)


def _rows(table):
    return [tuple(r) for r in table.tolist()]


def test_factorizations_exhaustive():
    fs = _rows(_factorizations(8, 3))
    assert len(fs) == 10
    assert all(a * b * c == 8 for a, b, c in fs)
    assert len(set(fs)) == len(fs)
    assert _rows(_factorizations(1, 4)) == [(1, 1, 1, 1)]


def test_divisors_come_from_prime_factors():
    for n in range(1, 1200):
        assert sorted(_divisors(n)) == [d for d in range(1, n + 1) if n % d == 0]
    # 3^2 * 11 * 41 * 101 * 271 * 3541 * 9091 * 27961: no trial division
    # up to the square root of the whole number
    big = _divisors(99999999999999999999)
    assert len(big) == 3 * 2**7 and len(set(big)) == len(big)
    assert all(99999999999999999999 % d == 0 for d in big)


@given(
    st.integers(1, 4096),
    st.lists(st.one_of(st.none(), st.integers(1, 128)), max_size=5),
    st.lists(st.one_of(st.none(), st.integers(1, 128)), max_size=5),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_capped_factorizations_filter_the_uncapped_list(n, caps, other_caps, data):
    # one memo serves every cap and tail vector, as it serves every dim of
    # a space; caps comes twice, with other tails the second time
    memo = {}
    for cs in (caps, other_caps, caps):
        tails = data.draw(
            st.lists(
                st.one_of(st.none(), st.integers(0, 256)),
                min_size=len(cs) + 1,
                max_size=len(cs) + 1,
            )
        )
        expected = [
            fac
            for fac in _rows(_factorizations(n, len(cs)))
            if all(c is None or b <= c for b, c in zip(fac, cs))
            and all(t is None or math.prod(fac[j:]) <= t for j, t in enumerate(tails))
        ]
        got = _rows(_factorizations(n, len(cs), tuple(cs), tuple(tails), memo))
        assert got == expected


def _ordered_factorizations(n: int, k: int):
    """Every ordered k-tuple of positive ints with product n, ascending."""
    if k == 0:
        if n == 1:
            yield ()
        return
    for d in range(1, n + 1):
        if n % d == 0:
            for rest in _ordered_factorizations(n // d, k - 1):
                yield (d, *rest)


@given(
    st.integers(1, 4096),
    st.lists(st.one_of(st.none(), st.integers(1, 128)), max_size=5),
    st.sampled_from([np.int64, object]),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_count_table_decodes_the_filtered_table(n, caps, dtype, data):
    k = len(caps)
    tails = data.draw(
        st.lists(
            st.one_of(st.none(), st.integers(0, 256)), min_size=k + 1, max_size=k + 1
        )
    )
    uncapped = list(_ordered_factorizations(n, k))
    assert _rows(_factorizations(n, k)) == uncapped
    expected = [
        fac
        for fac in uncapped
        if all(c is None or b <= c for b, c in zip(fac, caps))
        and all(t is None or math.prod(fac[j:]) <= t for j, t in enumerate(tails))
    ]
    pairs = _divisor_pairs(n)
    counts = _DimCounts(pairs, tuple(caps), tuple(tails), dtype, math.inf)
    assert counts.radix == len(expected)
    assert counts.table.dtype == dtype and _rows(counts.table) == expected
    assert not counts.columns.flags.writeable
    # a count capped at the limit still says whether the table passes it
    limit = data.draw(st.integers(1, len(expected) + 2))
    capped = _DimCounts(pairs, tuple(caps), tuple(tails), dtype, limit)
    assert capped.radix == min(len(expected), limit)
    if not expected:
        return
    ranks = data.draw(st.lists(st.integers(0, len(expected) - 1), max_size=40))
    block = counts.decode(np.array(ranks, np.int64))
    assert block.dtype == dtype and block.shape == (k, len(ranks))
    assert [tuple(c) for c in block.T.tolist()] == [expected[r] for r in ranks]
    # the scalar walk, alone, and as the fast digit under the capped
    # table's, which is exact below its limit
    if k and len(expected) < limit:
        walks = [counts.walk(list(range(k))), capped.walk(list(range(k, 2 * k)))]
        for r, s in zip(ranks, ranks[::-1]):
            alone = _decode_index(r, walks[:1], [1] * k)
            assert alone == list(expected[r])
            both = _decode_index(r + len(expected) * s, walks, [1] * (2 * k))
            assert both == [*expected[r], *expected[s]]


def _filtered_dim_choices(space):
    """Each dim's mesh-capped factorizations, and the ones among them that
    pass every max_tile window of the dim, checked by the slots the window
    holds."""
    rules = space.table._rules
    slot_cap = {}
    for r in rules:
        if r.kind == "mesh":
            slot_cap.update(dict.fromkeys(r.terms[0][0], r.hi))
    sizes = dict(space.table.dims)
    capped, out = {}, {}
    for dim, slot_ids in space.dim_slots.items():
        caps = tuple(slot_cap.get(i) for i in slot_ids)
        windows = [
            ([j for j, sid in enumerate(slot_ids) if sid in r.terms[0][0]], r.hi)
            for r in rules
            if r.kind == "max_tile" and r.dim == dim
        ]
        capped[dim] = _rows(_factorizations(sizes[dim], len(slot_ids), caps))
        out[dim] = [
            fac
            for fac in capped[dim]
            if all(math.prod(fac[j] for j in pos) <= hi for pos, hi in windows)
        ]
    return capped, out


LAYER_12X8 = """
layers:
  - name: wide
    dims: {M: 12, K: 8}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 2, Weights: 1, Outputs: 8}
    pmf: {Inputs: {delta: 1}, Weights: {delta: 1}}
"""

# (arch, layer, max_tile rules the arch holds)
TILE_CASES = {
    "A": (ARCH_RULES_A, LAYER_4X4, 1),
    "B": (ARCH_RULES_B, LAYER_4X4, 1),
    # two windows on M, the outer one holding the inner
    "two_nodes": (
        ARCH_RULES_A.replace(
            "spatial_dims: [M]}", "spatial_dims: [M], max_tile: {M: 6}}"
        ),
        LAYER_12X8,
        2,
    ),
    # a unit window: every M loop sits above the cell
    "unit": ("crossbar", LAYER_12X8, 1),
}


@pytest.mark.parametrize("case", list(TILE_CASES))
def test_max_tile_tail_caps_equal_the_window_filter(case):
    arch_text, layer_text, n_tile_rules = TILE_CASES[case]
    if arch_text == "crossbar":
        arch_text = read_fixture("arch_crossbar.yaml").replace(
            "spatial: {meshX: 2, meshY: 2}",
            "spatial: {meshX: 2, meshY: 2}\nconstraints: {max_tile: {M: 1}}",
        )
    arch = parse_arch(arch_text)
    layer = parse_workload(layer_text)[0]
    space = MappingSpace(arch, layer)
    assert sum(r.kind == "max_tile" for r in space.table._rules) == n_tile_rules
    capped, expected = _filtered_dim_choices(space)
    assert {d: _rows(t) for d, t in space.dim_choices.items()} == expected
    radices = [len(expected[d]) for d, _ in space.table.dims]
    assert space.radices == radices
    assert space.total == math.prod(radices) > 0
    # the windows bind: they filter out some mesh-capped factorization
    assert any(len(expected[d]) < len(capped[d]) for d in expected)


def _matvec(m: int, k: int) -> str:
    return f"""
layers:
  - name: mv
    dims: {{M: {m}, K: {k}}}
    projections: {{Inputs: [K], Weights: [K, M], Outputs: [M]}}
    bits: {{Inputs: 8, Weights: 8, Outputs: 24}}
    pmf: {{Inputs: {{uniform: [0, 255]}}, Weights: {{uniform: [0, 255]}}}}
"""


def test_factorization_tables_are_read_only(crossbar_arch):
    memo = {}
    _factorizations(360, 5, (None, 4, None, 2, None), None, memo)
    space = MappingSpace(crossbar_arch, parse_workload(_matvec(96, 64))[0])
    for table in [*memo.values(), *space.dim_choices.values()]:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[..., :1] = 7


def test_square_matvec_dims_get_equal_tables(crossbar_arch):
    space = MappingSpace(crossbar_arch, parse_workload(_matvec(4096, 4096))[0])
    m, k = space.dim_choices["M"], space.dim_choices["K"]
    assert m.dtype == np.int64 and m.shape[1] == len(space.dim_slots["M"])
    assert np.array_equal(m, k) and len(m) > 1000


def test_tables_past_int64_hold_python_ints(crossbar_arch):
    # 2**32 - 5 is prime; the MAC count is about 12 * 2**64
    prime = 4294967291
    layer = parse_workload(_matvec(12 * prime, prime))[0]
    space = MappingSpace(crossbar_arch, layer)
    _, plan = build_count_plan(crossbar_arch, layer, space.table)
    sizes = dict(layer.einsum.dims)
    for dim, table in space.dim_choices.items():
        assert table.dtype == object and len(table) > 1
        rows = _rows(table)
        assert all(math.prod(r) == sizes[dim] for r in rows)
        assert all(a < b for a, b in zip(rows, rows[1:]))
    for idx in (0, space.total // 3, space.total - 1):
        bounds = space.bounds_at(idx)
        [(kept, products)] = space.scan([idx], plan.subsets)
        assert kept.tolist() == [idx] and products[:, 0].tolist() == plan.products(bounds)
        assert space._columns(kept)[:, 0].tolist() == bounds
        mapping = space.mapping_at(idx)
        loops = [l for _, ls in mapping.loops for l in ls]
        assert all(type(l.bound) is int for l in loops)
        for dim, size in sizes.items():
            assert math.prod(l.bound for l in loops if l.dim == dim) == size
        assert space.table.bounds_from_mapping(mapping) == bounds


def test_mapping_space_tiny_census(crossbar_arch, tiny_layer):
    space = MappingSpace(crossbar_arch, tiny_layer)
    # per dim: a single bound-2 loop may sit at any of the five temporal
    # slots or on either leaf mesh axis
    assert space.total == 49
    drawn = space.draw_indices(budget=1000, seed=0)
    assert drawn == list(range(49))
    valid = list(enumerate_mappings(crossbar_arch, tiny_layer, budget=1000, seed=0))
    # the two mappings stacking both dims on one mesh axis overflow it
    assert len(valid) == 47
    for idx, mapping in valid:
        diag = check_valid(crossbar_arch, tiny_layer, mapping)
        assert diag.ok and not diag.warnings
    # the fast bounds filter agrees with the full checker on every point
    for i in range(space.total):
        ok = space.bounds_ok(space.bounds_at(i))
        full = check_valid(crossbar_arch, tiny_layer, space.mapping_at(i)).ok
        assert ok == full


def test_mapping_space_draw_determinism(crossbar_arch):
    layer = parse_workload(
        """
layers:
  - name: big
    dims: {M: 8, K: 16}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {delta: 1}, Weights: {delta: 1}}
"""
    )[0]
    space = MappingSpace(crossbar_arch, layer)
    assert space.total > 1000
    a = space.draw_indices(budget=200, seed=7)
    b = space.draw_indices(budget=200, seed=7)
    c = space.draw_indices(budget=200, seed=8)
    assert a == b
    assert a != c
    assert a == sorted(a)
    assert len(set(a)) == 200
    # index decoding is stable and in range
    for i in a:
        assert 0 <= i < space.total
        assert space.bounds_at(i) == space.bounds_at(i)


def _stdlib_setsize(budget):
    """random.sample's switch point: up to this population it shuffles a
    list, past it it redraws into a set."""
    return 21 + (4 ** math.ceil(math.log(budget * 3, 4)) if budget > 5 else 0)


def test_draw_indices_matches_random_sample(crossbar_arch, tiny_layer):
    space = MappingSpace(crossbar_arch, tiny_layer)
    cases = []
    for budget in (1, 6, 7, 2_000, 20_000):
        size = _stdlib_setsize(budget)
        cases += [(budget, size), (budget, size + 1)]
    # one to three 32-bit words per draw, and the largest range() length
    for bits in (31, 32, 33, 63):
        cases += [(1, 2 ** (bits - 1) + 12_345), (2_000, 2**bits - 3)]
    cases.append((2_000, 2**63 - 1))
    # 20,000 draws from 70,000 repeat values, which are redrawn
    cases.append((20_000, 70_000))
    for budget, total in cases:
        # draw_indices reads nothing of the space but its total
        space.total = total
        for seed in (0, 7919, 2**32 + 17):
            expected = sorted(random.Random(seed).sample(range(total), budget))
            assert space.draw_indices(budget, seed) == expected, (budget, total, seed)


def test_sampled_search_leaves_numpy_random_unimported():
    # a fresh interpreter: other tests may have imported numpy.random here
    script = (
        "import sys, cimeval\n"
        "arch = cimeval.parse_arch(open(sys.argv[1]).read())\n"
        "layer = cimeval.parse_workload(open(sys.argv[2]).read())[0]\n"
        "found = cimeval.search(arch, layer, cimeval.MapperConfig(budget=500))\n"
        "assert found.space_total > 500\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    fixtures = Path(__file__).parent / "fixtures"
    src = str(Path(cimeval.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script,
         str(fixtures / "arch_crossbar.yaml"), str(fixtures / "workload_conv.yaml")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_mapping_yaml_round_trip(tiny_mapping):
    text = serialize_mapping(tiny_mapping)
    assert parse_mapping(text) == tiny_mapping
    with pytest.raises(MappingError):
        parse_mapping("nodes: {cell: [{dim: M, bound: 2, kind: diagonal}]}")
    with pytest.raises(MappingError):
        parse_mapping("nodes: {cell: [{dim: M, bound: 2, flavor: odd}]}")
    with pytest.raises(MappingError):
        parse_mapping("nodes: {cell: [{dim: M}]}")
    with pytest.raises(MappingError):
        parse_mapping("- a\n- b\n")
    # a bare node map is accepted, and kind defaults to temporal
    m = parse_mapping("buffer: [{dim: M, bound: 4}]")
    assert m.node_loops("buffer")[0].kind == "temporal"
    # a node named with no loops has none, as has a node not named at all
    m = parse_mapping("nodes: {buffer: null, cell: [{dim: M, bound: 2}]}")
    assert m.loops[0] == ("buffer", ())
    assert m.node_loops("buffer") == m.node_loops("dac") == ()


def test_sample_refuses_a_negative_budget():
    with pytest.raises(ValueError, match="sample budget must be >= 0, got -1"):
        _sample_sorted(1000, -1, 0)


MATVEC_64 = """
layers:
  - name: matvec
    dims: {M: 64, K: 64}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 8, Weights: 8, Outputs: 24}
    pmf: {Inputs: {uniform: [0, 255]}, Weights: {two_point: [-32, 32, 0.5]}}
    signed: {Inputs: false}
"""

# three primes near 2^31: every count is a product of up to three of them,
# so the MAC count, about 2^93, is far past int64
PRIMES = """
layers:
  - name: primes
    dims: {M: 2147483647, K: 2147483629, N: 2147483587}
    projections: {Inputs: [K, N], Weights: [K, M], Outputs: [M, N]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {delta: 1}, Weights: {delta: 1}}
"""

# (arch, workload, layer number, budget); a budget below a dim's choice
# count makes the scan convert only the drawn choices of that dim
SCAN_CASES = {
    "conv3x3": ("crossbar", "conv", 0, 3 * SCAN_BLOCK),
    "conv3x3_few": ("crossbar", "conv", 0, 300),
    "fc": ("crossbar", "conv", 1, 3 * SCAN_BLOCK),
    "matvec": ("crossbar", MATVEC_64, 0, 3 * SCAN_BLOCK),
    "rules_A": (ARCH_RULES_A, LAYER_4X4, 0, 3 * SCAN_BLOCK),
    "rules_B": (ARCH_RULES_B, LAYER_4X4, 0, 3 * SCAN_BLOCK),
    "primes": ("crossbar", PRIMES, 0, 3 * SCAN_BLOCK),
}


@pytest.mark.parametrize("case", list(SCAN_CASES))
def test_block_scan_agrees_with_scalar_path(case):
    arch_text, layer_text, k, budget = SCAN_CASES[case]
    if arch_text == "crossbar":
        arch_text = read_fixture("arch_crossbar.yaml")
    if layer_text == "conv":
        layer_text = read_fixture("workload_conv.yaml")
    arch = parse_arch(arch_text)
    layer = parse_workload(layer_text)[k]
    space = MappingSpace(arch, layer)
    ev = LayerEvaluator(arch, layer)
    drawn = space.draw_indices(budget, seed=1)
    blocks = list(space.scan(drawn, ev.plan.subsets))
    assert len(blocks) == -(-len(drawn) // SCAN_BLOCK)
    kept = [i for idx, _ in blocks for i in idx.tolist()]
    assert kept == [i for i in drawn if space.bounds_ok(space.bounds_at(i))]
    assert kept
    wide = case == "primes"
    for idx, products in blocks:
        assert (products.dtype == object) == wide
        bounds = [space.bounds_at(i) for i in idx.tolist()]
        assert products.T.tolist() == [ev.plan.products(b) for b in bounds]
        # enumerate_mappings decodes the kept indices as one block
        assert space._columns(idx).T.tolist() == bounds
    for objective in ("energy", "latency", "edp"):
        block = [
            v
            for _, products in blocks
            if products.shape[1]
            for v in ev.objective_of_products(products, objective).tolist()
        ]
        scalar = [ev.objective_value(space.bounds_at(i), objective) for i in kept]
        assert block == scalar
        found = search(arch, layer, MapperConfig(objective, budget=budget, seed=1))
        first_min = min(range(len(kept)), key=lambda j: (scalar[j], kept[j]))
        assert found.index == kept[first_min]
        assert found.valid == len(kept)
        assert found.evaluated == len(drawn)


# (arch, workload, layer number) of the tabulation switch test: the scan
# cases, and ARCH_RULES_A (keep_dims, capacity, max_tile) on a wider layer
# and with a constraint on a dim the layer lacks
SWITCH_CASES = {
    **{c: (a, w, k) for c, (a, w, k, _) in SCAN_CASES.items() if c != "conv3x3_few"},
    "rules_A_wide": (ARCH_RULES_A, LAYER_12X8, 0),
    "unknown_dims": (
        ARCH_RULES_A.replace("keep_dims: [K]", "keep_dims: [K, Z]").replace(
            "max_tile: {M: 2}", "max_tile: {M: 2, Z: 3}"
        ),
        LAYER_12X8,
        0,
    ),
}


def _tabulation_switches(space, plan) -> dict[int, int]:
    """Per dim number, the shortest draw for which the scan tabulates the
    dim: radix * m + n * s < n * m, where m counts the multiplies on the
    dim's slots along the plan's subsets and the residual rules' terms
    (each from scratch), and s counts those."""
    chain = list(plan.subsets) + [
        (None, ids) for r in space._residual for ids, _ in r.terms
    ]
    s = len(chain)
    out = {}
    for j, (dim, _) in enumerate(space.table.dims):
        mine = set(space.dim_slots[dim])
        m = sum(i in mine for _, extra in chain for i in extra)
        if m > s:
            out[j] = space.radices[j] * m // (m - s) + 1
    return out


@pytest.mark.parametrize("case", list(SWITCH_CASES))
@given(seed=st.integers(0, 2**32))
@settings(max_examples=2, deadline=None)
def test_factor_scan_agrees_across_each_tabulation_switch(case, seed):
    arch_text, layer_text, k = SWITCH_CASES[case]
    if arch_text == "crossbar":
        arch_text = read_fixture("arch_crossbar.yaml")
    if layer_text == "conv":
        layer_text = read_fixture("workload_conv.yaml")
    arch = parse_arch(arch_text)
    layer = parse_workload(layer_text)[k]
    space = MappingSpace(arch, layer)
    ev = LayerEvaluator(arch, layer)
    switches = _tabulation_switches(space, ev.plan)
    # draws of one index, just below, at and just above each dim's switch,
    # of one block and a one-index tail, and of the whole space where it is
    # small
    lengths = {1, SCAN_BLOCK + 1}
    lengths |= {n + d for n in switches.values() for d in (-1, 0, 1)}
    if space.total <= 4 * SCAN_BLOCK:
        lengths.add(space.total)
    # the factor tables scan got, by dim number: None for a per-block dim
    layouts: list = []
    real = MappingSpace._scan_layout
    for t, n in enumerate(sorted(x for x in lengths if 1 <= x <= space.total)):
        drawn = space.draw_array(n, seed)
        layouts.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                MappingSpace,
                "_scan_layout",
                lambda self, *args: layouts.append(real(self, *args)) or layouts[-1],
            )
            blocks = list(space.scan(drawn, ev.plan.subsets))
        [(tables, *_)] = layouts
        assert len(tables) == len(space.radices)
        tabulated = [j for j, table in enumerate(tables) if table is not None]
        assert tabulated == [j for j, at in switches.items() if n >= at]
        kept = [i for idx, _ in blocks for i in idx.tolist()]
        assert kept == [i for i in drawn.tolist() if space.bounds_ok(space.bounds_at(i))]
        for idx, products in blocks:
            assert products.T.tolist() == [
                ev.plan.products(space.bounds_at(i)) for i in idx.tolist()
            ]
        # the objectives take turns, each search building its space anew
        objective = OBJECTIVES[t % len(OBJECTIVES)]
        found = search(arch, layer, MapperConfig(objective, budget=n, seed=seed))
        if not kept:
            assert found is None
            continue
        scalar = [ev.objective_value(space.bounds_at(i), objective) for i in kept]
        best = kept[min(range(len(kept)), key=lambda j: (scalar[j], kept[j]))]
        assert (found.index, found.valid, found.evaluated) == (best, len(kept), n)
        assert found.result.energy_j == ev.evaluate(space.mapping_at(best)).energy_j
    if case == "unknown_dims":
        assert not kept


@pytest.mark.parametrize("case", list(SWITCH_CASES))
@given(seed=st.integers(0, 2**32))
@settings(max_examples=2, deadline=None)
def test_scan_reads_whole_tables_up_to_the_draw_size(case, seed):
    arch_text, layer_text, k = SWITCH_CASES[case]
    if arch_text == "crossbar":
        arch_text = read_fixture("arch_crossbar.yaml")
    if layer_text == "conv":
        layer_text = read_fixture("workload_conv.yaml")
    arch = parse_arch(arch_text)
    layer = parse_workload(layer_text)[k]
    plan = LayerEvaluator(arch, layer).plan
    total = MappingSpace(arch, layer).total
    # draws just below, at and just above each dim's radix: a dim reads its
    # rows from its whole table when its radix is at most the draw size,
    # and decodes each block's rows otherwise
    radices = MappingSpace(arch, layer).radices
    lengths = {r + d for r in radices for d in (-1, 0, 1)}
    for n in sorted(x for x in lengths if 1 <= x <= total):
        space = MappingSpace(arch, layer)
        drawn = space.draw_array(n, seed)
        blocks = list(space.scan(drawn, plan.subsets))
        whole = ["columns" in vars(c) for c in space._counts]
        assert whole == [r <= len(drawn) for r in space.radices]
        kept = [i for idx, _ in blocks for i in idx.tolist()]
        assert kept == [i for i in drawn.tolist() if space.bounds_ok(space.bounds_at(i))]
        for idx, products in blocks:
            bounds = [space.bounds_at(i) for i in idx.tolist()]
            assert products.T.tolist() == [plan.products(b) for b in bounds]
            # enumerate_mappings decodes the kept indices by the draw's size
            assert space._columns(idx, len(drawn)).T.tolist() == bounds
            assert space._columns(idx).T.tolist() == bounds


# (workload, layer number) of the priced objective test; the primes layer
# scans in Python-int object blocks
PRICED_CASES = {"conv3x3": ("conv", 0), "fc": ("conv", 1), "primes": (PRIMES, 0)}


@functools.lru_cache(maxsize=None)
def _priced_scan(case):
    layer_text, k = PRICED_CASES[case]
    if layer_text == "conv":
        layer_text = read_fixture("workload_conv.yaml")
    # the crossbar with buffer traffic and accumulation priced too
    arch = parse_arch(
        read_fixture("arch_crossbar.yaml")
        .replace("e_per_bit: 0.0", "e_per_bit: 2.0e-15")
        .replace("e_per_add: 0.0", "e_per_add: 5.0e-15")
    )
    layer = parse_workload(layer_text)[k]
    space = MappingSpace(arch, layer)
    ev = LayerEvaluator(arch, layer)
    drawn = space.draw_indices(SCAN_BLOCK // 2, seed=3)
    blocks = [(i, p) for i, p in space.scan(drawn, ev.plan.subsets) if p.shape[1]]
    assert blocks and all((p.dtype == object) == (case == "primes") for _, p in blocks)
    return space, ev, blocks


@given(st.sampled_from(list(PRICED_CASES)), st.data())
@settings(max_examples=30, deadline=None)
def test_objective_is_a_left_to_right_float_sum(case, data):
    space, ev, blocks = _priced_scan(case)
    n = len(ev.units)
    ev.units = np.array(
        data.draw(st.lists(st.floats(1e-18, 1e-9), min_size=n, max_size=n))
    )
    for objective in ("energy", "latency", "edp"):
        for idx, products in blocks:
            vals = ev.objective_of_products(products, objective)
            for v, i in zip(vals.tolist(), idx.tolist()):
                bounds = space.bounds_at(i)
                p = ev.plan.products(bounds)
                energy = 0.0
                for c, u in zip(ev.plan.entry_counts(p), ev.units.tolist()):
                    energy += float(c) * u
                latency = float(p[ev.plan.cycles_sub]) * ev.clock
                want = {"energy": energy, "latency": latency}.get(
                    objective, energy * latency
                )
                assert v == ev.objective_value(bounds, objective) == want


# sha256 over (seed, index, serialized mapping) of every mapping that
# enumerate_mappings yields for conv3x3 on the crossbar, budget 2,000,
# seeds 0 to 2
LIBRARY_DIGEST = "91ec624fc8def47bb74925c4ec260c3847ce8a78acac2bb99e92aa702a20e03f"


def test_enumerated_mappings_are_pinned_and_share_their_loops(crossbar_arch):
    layer = parse_workload(read_fixture("workload_conv.yaml"))[0]
    digest = hashlib.sha256()
    for seed in range(3):
        # (node, kind, dim, bound) -> the first Loop seen for it, kept alive
        # so that no later object can reuse its id
        first: dict = {}
        count = 0
        for idx, mapping in enumerate_mappings(crossbar_arch, layer, 2000, seed):
            text = serialize_mapping(mapping)
            digest.update(f"{seed}|{idx}|{text}".encode())
            assert parse_mapping(text) == mapping
            for node, loops in mapping.loops:
                for loop in loops:
                    key = (node, loop.kind, loop.dim, loop.bound)
                    assert first.setdefault(key, loop) is loop
                    count += 1
        # the same (slot, bound) recurs across mappings
        assert count > len(first)
    assert digest.hexdigest() == LIBRARY_DIGEST


def test_draw_array_is_draw_indices_in_the_scan_index_dtype(crossbar_arch, tiny_layer):
    space = MappingSpace(crossbar_arch, tiny_layer)
    for total, budget, dtype in (
        (49, 100, np.int64),
        (2**40, 50, np.int64),
        (2**63, 50, np.int64),
        (2**63 + 1, 50, object),
        (2**70, 50, object),
    ):
        # draw_array reads nothing of the space but its total
        space.total = total
        drawn = space.draw_array(budget, seed=3)
        assert drawn.dtype == dtype
        assert drawn.tolist() == space.draw_indices(budget, seed=3)
    layer = parse_workload(read_fixture("workload_conv.yaml"))[0]
    space = MappingSpace(crossbar_arch, layer)
    _, plan = build_count_plan(crossbar_arch, layer, space.table)
    drawn = space.draw_array(3 * SCAN_BLOCK, seed=2)
    blocks = [(k.tolist(), p.tolist()) for k, p in space.scan(drawn, plan.subsets)]
    assert blocks == [
        (k.tolist(), p.tolist()) for k, p in space.scan(drawn.tolist(), plan.subsets)
    ]


def test_scan_and_bounds_at_refuse_an_index_outside_the_space(crossbar_arch):
    layer = parse_workload(read_fixture("workload_conv.yaml"))[1]
    space = MappingSpace(crossbar_arch, layer)
    assert space.total == 1_195_740
    # the last index and the first decode; one past either end is refused,
    # not wrapped to the other end or dropped by a numpy gather
    last = space.bounds_at(space.total - 1)
    assert space.bounds_at(np.int64(space.total - 1)) == last != space.bounds_at(0)
    for index in (space.total, -1):
        for at in (space.bounds_at, space.mapping_at):
            with pytest.raises(MappingError, match=r"must lie in \[0, 1195740\)"):
                at(index)
        with pytest.raises(MappingError, match=r"scan indices must lie in \[0, "):
            next(space.scan([0, index]))
    with pytest.raises(MappingError, match="mapping index must be an integer"):
        space.bounds_at(1.0)
    [(kept, _)] = space.scan([0, space.total - 1])
    assert kept.tolist() == [
        i for i in (0, space.total - 1) if space.bounds_ok(space.bounds_at(i))
    ]
    assert list(space.scan([])) == []


def test_mapping_space_refuses_a_dim_past_max_per_dim(crossbar_arch, monkeypatch):
    layer = parse_workload(read_fixture("workload_conv.yaml"))[0]
    # conv3x3's C and M have 532 factorizations each on the crossbar
    monkeypatch.setattr(MappingSpace, "MAX_PER_DIM", 531)
    with pytest.raises(MappingError, match="dim 'C' exceeds 531 factorizations"):
        MappingSpace(crossbar_arch, layer)
    monkeypatch.setattr(MappingSpace, "MAX_PER_DIM", 532)
    assert MappingSpace(crossbar_arch, layer).radices[:2] == [532, 532]


def test_an_oversized_dim_is_refused_from_its_count(crossbar_arch):
    # 2**120 has 121 divisors but 36,321,901 placements on the crossbar's
    # slots; counting them holds one count per divisor and slot, where a
    # table of them would hold every placement
    layer = parse_workload(_matvec(2**120, 2))[0]
    tracemalloc.start()
    try:
        with pytest.raises(MappingError, match="dim 'M' exceeds 2000000 factorizations"):
            MappingSpace(crossbar_arch, layer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_mapper_config_rejects_an_unknown_objective_and_a_bool_budget():
    assert [MapperConfig(o).objective for o in OBJECTIVES] == [
        "energy", "latency", "edp"
    ]
    for objective in ("bogus", "Energy", "", None):
        with pytest.raises(MappingError, match="objective must be one of"):
            MapperConfig(objective=objective)
    for budget in (True, False, 0, -3, 2.0, "10"):
        with pytest.raises(MappingError, match="budget must be an integer"):
            MapperConfig(budget=budget)


def test_draws_refuse_a_seed_or_budget_that_is_not_an_integer(crossbar_arch, tiny_layer):
    for seed in (None, 2.5, 3.0, True, "3"):
        with pytest.raises(MappingError, match="seed must be an integer"):
            MapperConfig(seed=seed)
        # refused at the call, before anything is drawn
        with pytest.raises(MappingError, match="seed must be an integer"):
            enumerate_mappings(crossbar_arch, tiny_layer, seed=seed)
    for budget in (2.5, "10", True, False, 0, -3):
        with pytest.raises(MappingError, match="budget must be an integer"):
            enumerate_mappings(crossbar_arch, tiny_layer, budget=budget)


def test_a_slot_table_built_for_another_pair_is_refused(
    crossbar_arch, tiny_layer, tiny_mapping
):
    big = parse_workload(read_fixture("workload_tiny.yaml").replace("M: 2", "M: 8"))[0]
    wide = parse_arch(read_fixture("arch_crossbar.yaml").replace("meshX: 2", "meshX: 4"))
    consumers = {
        "check_valid": lambda a, l, t: check_valid(a, l, tiny_mapping, t),
        "MappingSpace": MappingSpace,
        "enumerate_mappings": lambda a, l, t: enumerate_mappings(a, l, table=t),
        "build_count_plan": build_count_plan,
        "LayerEvaluator": lambda a, l, t: LayerEvaluator(a, l, table=t),
    }
    tiny_table = SlotTable(crossbar_arch, tiny_layer)
    for name, consume in consumers.items():
        for arch, layer in ((crossbar_arch, big), (wide, tiny_layer)):
            with pytest.raises(MappingError, match="another arch or layer"):
                consume(arch, layer, tiny_table)
        # equal inputs parsed again share the table
        consume(
            parse_arch(read_fixture("arch_crossbar.yaml")),
            parse_workload(read_fixture("workload_tiny.yaml"))[0],
            tiny_table,
        )
    assert MappingSpace(crossbar_arch, big).total == 490
    assert not check_valid(crossbar_arch, big, tiny_mapping).ok
