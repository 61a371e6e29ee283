"""Acceptance suite: one test per numbered criterion.

Every check re-derives its expectation independently (closed forms,
brute-force enumeration, or hand-built scenarios) so the engine is never
graded against itself.  `pytest -v` prints one pass/fail line per
criterion.
"""

import math
import random
import time

import pytest

from cimeval.archspec import parse_arch, validate
from cimeval.cli import main as cli_main
from cimeval.engine import (
    LayerEvaluator,
    evaluate,
    oracle_evaluate,
    precompute_energy_table,
)
from cimeval.mapping import build_count_plan, enumerate_mappings, parse_mapping
from cimeval.valuemodel import Encoding, SliceScheme, encode_pmf, slice_pmf
from cimeval.workload import ValuePMF, mac_count, parse_workload

from conftest import fixture_path, read_fixture

ROLES = ("Inputs", "Weights", "Outputs")


def _mapping_text(node_loops) -> str:
    lines = ["nodes:"]
    for node, loops in node_loops:
        kept = [(d, b, k) for d, b, k in loops if b > 1]
        if not kept:
            continue
        lines.append(f"  {node}:")
        for dim, bound, kind in kept:
            lines.append(f"    - {{dim: {dim}, bound: {bound}, kind: {kind}}}")
    return "\n".join(lines) + "\n"


def _pmf_yaml(support, probs) -> str:
    sup = ", ".join(str(v) for v in support)
    pr = ", ".join(repr(p) for p in probs)
    return f"{{table: {{support: [{sup}], probs: [{pr}]}}}}"


def _random_probs(rng, n):
    raw = [rng.random() + 0.05 for _ in range(n)]
    total = math.fsum(raw)
    return [p / total for p in raw]


# ---------------------------------------------------------------- criterion 1

_DIM_POOL = "ABCDEF"
_PATTERNS = (
    ("Inputs", "Weights"),
    ("Inputs", "Weights", "Outputs"),
    ("Inputs", "Outputs"),
    ("Weights", "Outputs"),
    ("Inputs",),
    ("Weights",),
)
_SR_OPTIONS = (
    (),
    ("Inputs",),
    ("Weights",),
    ("Outputs",),
    ("Inputs", "Outputs"),
    ("Weights", "Outputs"),
    ("Inputs", "Weights"),
)


def _random_workload(rng, name):
    n_dims = rng.randint(2, 5)
    names = list(_DIM_POOL[:n_dims])
    sizes = [rng.choice((1, 2, 2, 3, 3, 4)) for _ in names]
    patterns = [("Inputs", "Weights"), rng.choice((("Weights", "Outputs"), ("Inputs", "Outputs")))]
    while len(patterns) < n_dims:
        patterns.append(rng.choice(_PATTERNS))
    rng.shuffle(patterns)
    proj = {role: [] for role in ROLES}
    for dim, pattern in zip(names, patterns):
        for role in pattern:
            proj[role].append(dim)

    bits = {"Inputs": rng.randint(1, 3), "Weights": rng.randint(1, 3)}
    pmfs = {}
    for role in ("Inputs", "Weights"):
        hi = (1 << bits[role]) - 1
        k = rng.randint(1, min(4, hi + 1))
        support = sorted(rng.sample(range(hi + 1), k))
        pmfs[role] = _pmf_yaml(support, _random_probs(rng, k))

    dims = ", ".join(f"{d}: {s}" for d, s in zip(names, sizes))
    return (
        "layers:\n"
        f"  - name: {name}\n"
        f"    dims: {{{dims}}}\n"
        "    projections:\n"
        f"      Inputs: [{', '.join(proj['Inputs'])}]\n"
        f"      Weights: [{', '.join(proj['Weights'])}]\n"
        f"      Outputs: [{', '.join(proj['Outputs'])}]\n"
        f"    bits: {{Inputs: {bits['Inputs']}, Weights: {bits['Weights']}, Outputs: 8}}\n"
        "    pmf:\n"
        f"      Inputs: {pmfs['Inputs']}\n"
        f"      Weights: {pmfs['Weights']}\n"
    )


def _roles_yaml(roles) -> str:
    return "[" + ", ".join(roles) + "]"


_DIRECTIVE_OF = {
    "tr_buffer": "temporal_reuse",
    "bypass": "bypass",
    "adder": "coalesce",
    "dac": "no_coalesce",
    "adc": "no_coalesce",
    "container": "container",
}


def _middle_node(rng, kind, name, seen):
    seen.add(_DIRECTIVE_OF[kind])
    if kind == "tr_buffer":
        roles = rng.choice(_SR_OPTIONS[1:])
        return (
            f"--- !Component\nname: {name}\nclass: buffer\n"
            f"temporal_reuse: {_roles_yaml(roles)}\n"
            "attributes: {e_per_bit: 1.0e-13, width: 8}\n"
        )
    if kind == "bypass":
        # roles outside any directive pass through untouched
        return (
            f"--- !Component\nname: {name}\nclass: buffer\n"
            "attributes: {e_per_bit: 1.0e-13, width: 8}\n"
        )
    if kind == "adder":
        roles = rng.choice((("Outputs",), ("Outputs",), ("Inputs",)))
        return (
            f"--- !Component\nname: {name}\nclass: adder\n"
            f"coalesce: {_roles_yaml(roles)}\n"
            "attributes: {e_per_add: 1.0e-14}\n"
        )
    if kind == "dac":
        return (
            f"--- !Component\nname: {name}\nclass: dac\n"
            "no_coalesce: [Inputs]\n"
            "attributes: {e_full_scale: 1.0e-12, model: value_proportional}\n"
        )
    if kind == "adc":
        return (
            f"--- !Component\nname: {name}\nclass: adc\n"
            "no_coalesce: [Outputs]\n"
            "attributes: {resolution: 4}\n"
        )
    mesh_x = rng.choice((1, 2, 3))
    mesh_y = rng.choice((1, 1, 2))
    roles = rng.choice(_SR_OPTIONS)
    seen.update(f"spatial:{r}" for r in roles)
    return (
        f"--- !Container\nname: {name}\n"
        f"spatial: {{meshX: {mesh_x}, meshY: {mesh_y}}}\n"
        f"spatial_reuse: {_roles_yaml(roles)}\n"
    )


_MIDDLE_KINDS = ("tr_buffer", "bypass", "adder", "dac", "adc", "container")


def _random_arch(rng, trial, seen):
    docs = [
        "--- !Component\nname: top\nclass: buffer\n"
        "temporal_reuse: [Inputs, Weights, Outputs]\n"
        "attributes: {e_per_bit: 1.0e-12, width: 16}\n"
    ]
    seen.add("temporal_reuse")
    picks = [_MIDDLE_KINDS[trial % len(_MIDDLE_KINDS)]]
    picks += [rng.choice(_MIDDLE_KINDS) for _ in range(rng.randint(0, 2))]
    for i, kind in enumerate(picks):
        docs.append(_middle_node(rng, kind, f"m{i}", seen))

    leaf_sr = _SR_OPTIONS[trial % len(_SR_OPTIONS)]
    seen.update(f"spatial:{r}" for r in leaf_sr)
    leaf_dir = rng.choice(
        (
            "temporal_reuse: [Weights]\n",
            "temporal_reuse: [Weights]\n",
            "temporal_reuse: [Inputs, Weights]\n",
            "",
        )
    )
    seen.add("temporal_reuse" if leaf_dir else "bypass")
    mesh_x = rng.choice((1, 2, 3))
    mesh_y = rng.choice((1, 2, 3))
    if rng.random() < 0.5:
        klass, attrs = "reram_cell", "{t_read: 1.0e-9, g_max: 5.0e-5, vdd: 1.0}"
    else:
        klass, attrs = "sram_cell", "{e_mac: 1.0e-13}"
    docs.append(
        f"--- !Component\nname: cell\nclass: {klass}\n{leaf_dir}"
        f"spatial: {{meshX: {mesh_x}, meshY: {mesh_y}}}\n"
        f"spatial_reuse: {_roles_yaml(leaf_sr)}\n"
        f"attributes: {attrs}\n"
    )
    return "".join(docs)


def test_criterion_1_closed_form_counts_equal_oracle_counts():
    rng = random.Random(2024)
    seen = set()
    done = 0
    trial = 0
    while done < 200 and trial < 400:
        trial += 1
        layer = parse_workload(_random_workload(rng, f"t{trial}"))[0]
        arch = parse_arch(_random_arch(rng, trial, seen))
        assert validate(arch, layer) == []
        candidates = list(enumerate_mappings(arch, layer, budget=24, seed=trial))
        if not candidates:
            continue
        _, mapping = candidates[rng.randrange(len(candidates))]

        table, plan = build_count_plan(arch, layer)
        analytic = plan.evaluate(table.bounds_from_mapping(mapping))[0]
        oracle = oracle_evaluate(arch, layer, mapping, seed=trial)
        keys = set(analytic) | set(oracle.counts)
        for key in sorted(keys):
            assert analytic.get(key, 0) == oracle.counts.get(key, 0), (
                f"trial {trial}: count mismatch at {key}: "
                f"closed-form {analytic.get(key, 0)} vs "
                f"enumerated {oracle.counts.get(key, 0)}"
            )
        done += 1

    assert done >= 200
    assert {"temporal_reuse", "coalesce", "no_coalesce", "bypass"} <= seen
    assert {"spatial:Inputs", "spatial:Weights", "spatial:Outputs"} <= seen


# ---------------------------------------------------------------- criterion 2

_MIDSIZE = """\
layers:
  - name: mid
    dims: {M: 4, K: 64, N: 40}
    projections: {Inputs: [K, N], Weights: [K, M], Outputs: [M, N]}
    bits: {Inputs: 1, Weights: 1, Outputs: 16}
    pmf: {Inputs: {two_point: [0, 1, 0.25]}, Weights: {delta: 1}}
"""

_MIDSIZE_DELTA = _MIDSIZE.replace("{two_point: [0, 1, 0.25]}", "{delta: 1}")

_MIDSIZE_MAPPING = _mapping_text(
    [
        ("buffer", [("M", 2, "temporal"), ("K", 32, "temporal"), ("N", 40, "temporal")]),
        ("cell", [("M", 2, "spatialX"), ("K", 2, "spatialY")]),
    ]
)


def test_criterion_2_statistical_energy_tracks_sampled_runs():
    arch = parse_arch(read_fixture("arch_crossbar.yaml"))
    layer = parse_workload(_MIDSIZE)[0]
    mapping = parse_mapping(_MIDSIZE_MAPPING)
    assert mac_count(layer) == 10240

    stat = evaluate(arch, layer, mapping).energy_j
    runs = [oracle_evaluate(arch, layer, mapping, seed=s).energy_j for s in range(24)]
    sampled = math.fsum(runs) / len(runs)
    assert abs(stat - sampled) / sampled < 0.01

    sure_layer = parse_workload(_MIDSIZE_DELTA)[0]
    sure_stat = evaluate(arch, sure_layer, mapping).energy_j
    sure_oracle = oracle_evaluate(arch, sure_layer, mapping, seed=0).energy_j
    assert abs(sure_stat - sure_oracle) / sure_oracle < 1e-9


# ---------------------------------------------------------------- criterion 3

_FC = """\
layers:
  - name: big
    dims: {M: 8, K: 16}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 1, Weights: 1, Outputs: 8}
    pmf: {Inputs: {two_point: [0, 1, 0.25]}, Weights: {delta: 1}}
"""


def test_criterion_3_energy_table_is_identical_across_mappings():
    arch = parse_arch(read_fixture("arch_crossbar.yaml"))
    layer = parse_workload(_FC)[0]
    mappings = [m for _, m in enumerate_mappings(arch, layer, budget=120, seed=9)]
    assert len(mappings) >= 50

    reference = precompute_energy_table(arch, layer)
    for mapping in mappings[:50]:
        ev = LayerEvaluator(arch, layer)
        res = ev.evaluate(mapping)
        assert ev.table.fingerprint == reference.fingerprint
        assert ev.table.entries == reference.entries
        for (node, action), (_, unit, _) in res.breakdown.items():
            assert unit == reference.entries[(node, action)]


# ---------------------------------------------------------------- criterion 4

_PAIR_ARCH = """\
--- !Component
name: top
class: buffer
temporal_reuse: [Inputs, Outputs]
attributes: {e_per_bit: 0.0, width: 8}
--- !Component
name: cell
class: reram_cell
temporal_reuse: [Weights]
attributes: {t_read: %(t_read)r, vdd: %(vdd)r, g_min: %(g_min)r, g_max: %(g_max)r}
"""

_PAIR_WORKLOAD = """\
layers:
  - name: one
    dims: {M: 1, K: 1}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: %(bi)d, Weights: %(bw)d, Outputs: 8}
    pmf:
      Inputs: %(pi)s
      Weights: %(pw)s
"""


def test_criterion_4_average_cell_energy_matches_sum_products():
    rng = random.Random(33)
    for _ in range(24):
        bi = rng.randint(1, 6)
        bw = rng.randint(1, 6)
        t_read = rng.uniform(1e-9, 2e-8)
        vdd = rng.uniform(0.6, 1.2)
        g_min = rng.uniform(1e-6, 5e-6)
        g_max = rng.uniform(2e-5, 8e-5)

        hi_i = (1 << bi) - 1
        hi_w = (1 << bw) - 1
        sup_i = sorted(set(rng.sample(range(hi_i + 1), rng.randint(1, min(4, hi_i + 1)))) | {hi_i})
        sup_w = sorted(set(rng.sample(range(hi_w + 1), rng.randint(1, min(4, hi_w + 1)))))
        p_i = _random_probs(rng, len(sup_i))
        p_w = _random_probs(rng, len(sup_w))

        arch = parse_arch(
            _PAIR_ARCH % {"t_read": t_read, "vdd": vdd, "g_min": g_min, "g_max": g_max}
        )
        layer = parse_workload(
            _PAIR_WORKLOAD
            % {
                "bi": bi,
                "bw": bw,
                "pi": _pmf_yaml(sup_i, p_i),
                "pw": _pmf_yaml(sup_w, p_w),
            }
        )[0]

        v2_avg = math.fsum(
            p * (vdd * x / ((1 << bi) - 1)) ** 2 for x, p in zip(sup_i, p_i)
        )
        g_avg = math.fsum(
            p * (g_min + (g_max - g_min) * y / ((1 << bw) - 1))
            for y, p in zip(sup_w, p_w)
        )
        expected = v2_avg * g_avg * t_read

        table = precompute_energy_table(arch, layer)
        unit = table.unit("cell", "compute")
        assert abs(unit - expected) <= 1e-12 * abs(expected)


# ---------------------------------------------------------------- criterion 5

_SQUARE_ARCH = """\
--- !Component
name: buffer
class: buffer
temporal_reuse: [Inputs, Outputs]
attributes: {e_per_bit: 1.0e-13, width: 8}
--- !Component
name: accum
class: adder
coalesce: [Outputs]
attributes: {e_per_add: 1.0e-14}
--- !Component
name: dac
class: dac
no_coalesce: [Inputs]
attributes: {e_full_scale: 0.4e-12, model: value_proportional}
--- !Component
name: adc
class: adc
no_coalesce: [Outputs]
attributes: {resolution: 8}
--- !Component
name: cell
class: reram_cell
temporal_reuse: [Weights]
spatial: {meshX: %(mesh)d, meshY: %(mesh)d}
spatial_reuse: [Inputs, Outputs]
attributes: {t_read: 10.0e-9, g_max: 50.0e-6, vdd: 1.0}
"""

_MATVEC = """\
layers:
  - name: matvec
    dims: {M: 1024, K: 1024}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 8, Weights: 8, Outputs: 24}
    pmf: {Inputs: {uniform: [0, 255]}, Weights: {uniform: [0, 255]}}
"""


def _square_case(mesh):
    arch = parse_arch(_SQUARE_ARCH % {"mesh": mesh})
    layer = parse_workload(_MATVEC)[0]
    mapping = parse_mapping(
        _mapping_text(
            [
                ("buffer", [("M", 1024 // mesh, "temporal"), ("K", 1024 // mesh, "temporal")]),
                ("cell", [("M", mesh, "spatialX"), ("K", mesh, "spatialY")]),
            ]
        )
    )
    return arch, layer, mapping


def _best_eval_seconds(arch, layer, mapping, repeats=5):
    evaluate(arch, layer, mapping)
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        evaluate(arch, layer, mapping)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_5_mesh_growth_leaves_runtime_flat():
    small = _square_case(64)
    big = _square_case(1024)
    assert evaluate(*small).utilization == pytest.approx(1.0, abs=0)
    assert evaluate(*big).utilization == pytest.approx(1.0, abs=0)

    t_small = _best_eval_seconds(*small)
    t_big = _best_eval_seconds(*big)
    assert t_big < 2.0 * t_small, f"{t_big:.6f}s vs {t_small:.6f}s"


# ---------------------------------------------------------------- criterion 6

_SLICED_ARCH = """\
--- !Component
name: buffer
class: buffer
temporal_reuse: [Inputs, Outputs]
attributes: {e_per_bit: 1.0e-13, width: 8}
--- !Component
name: accum
class: adder
coalesce: [Outputs]
attributes: {e_per_add: 1.0e-14}
--- !Component
name: dac
class: dac
no_coalesce: [Inputs]
attributes: {e_full_scale: 0.4e-12, model: value_proportional}
--- !Component
name: adc
class: adc
no_coalesce: [Outputs]
attributes: {resolution: 8}
--- !Component
name: cell
class: reram_cell
temporal_reuse: [Weights]
spatial: {meshX: 4, meshY: 4}
spatial_reuse: [Inputs, Outputs]
attributes:
  t_read: 10.0e-9
  g_max: 50.0e-6
  vdd: 1.0
  input_slice_width: 1
  weight_slice_width: 1
"""

_SLICED_FC = """\
layers:
  - name: wide
    dims: {M: 8, K: 16}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 8, Weights: 8, Outputs: 24}
    pmf: {Inputs: {uniform: [0, 255]}, Weights: {uniform: [0, 255]}}
"""


def test_criterion_6_table_reuse_amortizes_across_mappings():
    arch = parse_arch(_SLICED_ARCH)
    layer = parse_workload(_SLICED_FC)[0]
    mappings = [m for _, m in enumerate_mappings(arch, layer, budget=1000, seed=0)]
    assert len(mappings) >= 200
    batch = (mappings * (1000 // len(mappings) + 1))[:1000]

    t_single = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        evaluate(arch, layer, batch[0])
        t_single = min(t_single, time.perf_counter() - t0)

    t_batch = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        ev = LayerEvaluator(arch, layer)
        for mapping in batch:
            ev.objective_value(ev.bounds_of(mapping), "energy")
        t_batch = min(t_batch, time.perf_counter() - t0)

    assert t_batch < 10.0 * t_single, f"batch {t_batch:.4f}s vs single {t_single:.4f}s"
    assert t_batch / 1000 <= t_single / 20.0, (
        f"per-mapping {t_batch / 1000:.2e}s vs single {t_single:.2e}s"
    )


# ---------------------------------------------------------------- criterion 7

_DOMAINS = {
    "twos_complement": lambda b: (-(1 << (b - 1)), (1 << b) - 1),
    "offset": lambda b: (-(1 << (b - 1)), (1 << (b - 1)) - 1),
    "magnitude_only": lambda b: (-((1 << b) - 1), (1 << b) - 1),
    "differential": lambda b: (-((1 << b) - 1), (1 << b) - 1),
}


def _random_partition(rng, total):
    widths = []
    left = total
    while left:
        w = rng.randint(1, left)
        widths.append(w)
        left -= w
    return SliceScheme(tuple(widths))


def test_criterion_7_encoding_and_slicing_conserve_statistics():
    rng = random.Random(7)
    for kind in ("twos_complement", "offset", "xnor", "magnitude_only", "differential"):
        for _ in range(100):
            if kind == "xnor":
                bits = 1
                support = [-1, 1] if rng.random() < 0.7 else [rng.choice((-1, 1))]
            else:
                bits = rng.randint(2, 8)
                lo, hi = _DOMAINS[kind](bits)
                k = rng.randint(1, 6)
                support = sorted(rng.sample(range(lo, hi + 1), min(k, hi - lo + 1)))
            probs = _random_probs(rng, len(support))
            pmf = ValuePMF(tuple(support), tuple(probs))

            lines = encode_pmf(pmf, Encoding(kind, bits))
            assert len(lines) == (2 if kind == "differential" else 1)
            scheme = _random_partition(rng, bits)
            # every device line, the differential negative line included
            for encoded in lines:
                assert abs(math.fsum(encoded.probs) - 1.0) <= 1e-9
                slices = slice_pmf(encoded, scheme)
                mean = math.fsum(l * p for l, p in zip(encoded.support, encoded.probs))
                rebuilt = 0.0
                for piece, offset in zip(slices, scheme.offsets):
                    assert abs(math.fsum(piece.probs) - 1.0) <= 1e-9
                    rebuilt += piece.mean() * (1 << offset)
                assert math.isclose(rebuilt, mean, rel_tol=1e-9, abs_tol=1e-12)


# ---------------------------------------------------------------- criterion 8

def test_criterion_8a_larger_arrays_never_cost_more_per_mac():
    per_mac = []
    for mesh in (64, 128, 256, 512, 1024):
        arch, layer, mapping = _square_case(mesh)
        res = evaluate(arch, layer, mapping)
        assert res.utilization == pytest.approx(1.0, abs=0)
        per_mac.append(res.energy_per_mac_j)
    for previous, current in zip(per_mac, per_mac[1:]):
        assert current <= previous * (1.0 + 1e-12), per_mac


_GROUPED_ARCH = """\
--- !Component
name: buf
class: buffer
temporal_reuse: [Inputs, Outputs]
attributes: {e_per_bit: 1.0e-13, width: 8}
--- !Component
name: dac
class: dac
no_coalesce: [Inputs]
attributes: {e_full_scale: 0.4e-12, model: value_proportional}
--- !Container
name: colgrid
spatial: {meshX: %(groups)d}
spatial_reuse: [Inputs]
--- !Component
name: adc
class: adc
no_coalesce: [Outputs]
attributes: {resolution: 8}
--- !Container
name: subcol
spatial: {meshX: %(width)d}
spatial_reuse: [Outputs]
--- !Component
name: cell
class: reram_cell
temporal_reuse: [Weights]
spatial: {meshY: %(rows)d}
spatial_reuse: [Outputs]
attributes: {t_read: 10.0e-9, g_max: 50.0e-6, vdd: 1.0}
"""

_GROUPED_WORKLOAD = """\
layers:
  - name: grouped
    dims: {M: 8, K: 32, N: 4}
    projections: {Inputs: [K, N], Weights: [K, M], Outputs: [M, N]}
    bits: {Inputs: 4, Weights: 4, Outputs: 16}
    pmf: {Inputs: {uniform: [0, 15]}, Weights: {uniform: [0, 15]}}
"""


def test_criterion_8b_output_reuse_width_trades_adc_for_dac():
    columns, rows = 8, 4
    layer = parse_workload(_GROUPED_WORKLOAD)[0]
    adc_per_mac = []
    dac_per_mac = []
    for width in (1, 2, 4, 8):
        groups = columns // width
        arch = parse_arch(
            _GROUPED_ARCH % {"groups": groups, "width": width, "rows": rows}
        )
        mapping = parse_mapping(
            _mapping_text(
                [
                    ("buf", [("M", width, "temporal"), ("K", groups, "temporal"), ("N", 4, "temporal")]),
                    ("colgrid", [("M", groups, "spatialX")]),
                    ("subcol", [("K", width, "spatialX")]),
                    ("cell", [("K", rows, "spatialY")]),
                ]
            )
        )
        res = evaluate(arch, layer, mapping)
        assert res.utilization == pytest.approx(1.0, abs=0)
        adc_per_mac.append(res.counts[("adc", "Outputs", "convert")] / res.macs)
        dac_per_mac.append(res.counts[("dac", "Inputs", "convert")] / res.macs)

    for previous, current in zip(adc_per_mac, adc_per_mac[1:]):
        assert current < previous, adc_per_mac
    for previous, current in zip(dac_per_mac, dac_per_mac[1:]):
        assert current > previous, dac_per_mac


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_reports_are_deterministic(tmp_path):
    wl = tmp_path / "fc.yaml"
    wl.write_text(_FC, encoding="utf-8")
    argv = [
        "search",
        "--arch", fixture_path("arch_crossbar.yaml"),
        "--workload", str(wl),
        "--budget", "200",
        "--seed", "5",
    ]
    outs = []
    for tag, jobs in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / f"{tag}.json"
        assert cli_main(argv + ["--jobs", str(jobs), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]

    ev = [
        "evaluate",
        "--arch", fixture_path("arch_crossbar.yaml"),
        "--workload", fixture_path("workload_tiny.yaml"),
        "--mapping", fixture_path("mapping_tiny.yaml"),
    ]
    first = tmp_path / "e1.json"
    second = tmp_path / "e2.json"
    assert cli_main(ev + ["--out", str(first)]) == 0
    assert cli_main(ev + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
