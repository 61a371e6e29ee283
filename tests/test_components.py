"""Per-component energy and area models, priced against hand arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cimeval.components import (
    ActionContext,
    AdderModel,
    AdcModel,
    BufferModel,
    ComponentError,
    DacModel,
    MemoryCellModel,
    ModelRegistry,
    SramCellModel,
    WireModel,
    _distinct_values,
    adc_area,
    adc_convert_energy,
    DEFAULT_ADC_FOM,
    DEFAULT_REGISTRY,
    dac_convert_energy,
    memcell_read_energy,
)
from cimeval.archspec import parse_arch
from cimeval.engine import build_action_context
from cimeval.valuemodel import Encoding, SliceScheme
from cimeval.workload import (
    ValuePMF,
    delta_pmf,
    parse_workload,
    two_point_pmf,
    uniform_pmf,
)

T_READ = 10e-9
G_MIN = 1e-6
G_MAX = 4e-6


def cell_ctx(in_slices, w_slices, bits=2, encodings=None, w_lines=()):
    """One-slice context; w_lines are the weights' further device lines."""
    return ActionContext(
        layer="t",
        node="cell",
        attributes={"t_read": T_READ, "vdd": 1.0, "g_min": G_MIN, "g_max": G_MAX},
        encodings=encodings
        or {
            "Inputs": Encoding("twos_complement", bits),
            "Weights": Encoding("twos_complement", bits),
        },
        schemes={"Inputs": SliceScheme((bits,)), "Weights": SliceScheme((bits,))},
        lines={"Inputs": (tuple(in_slices),), "Weights": (tuple(w_slices), *w_lines)},
    )


def test_memcell_single_slice_energy():
    # E = G_avg * E[V^2] * t_read with affine 4-level maps
    ctx = cell_ctx([uniform_pmf(0, 3)], [delta_pmf(2)])
    v2 = (0**2 + (1 / 3) ** 2 + (2 / 3) ** 2 + 1**2) / 4
    g = G_MIN + (G_MAX - G_MIN) * 2 / 3
    assert memcell_read_energy(ctx) == pytest.approx(g * v2 * T_READ, rel=1e-14, abs=0)
    assert memcell_read_energy(ctx) == pytest.approx(1.1666666666666666e-14 * v2 / (14 / 36), rel=1e-12, abs=0)


def test_memcell_slice_average():
    # weight 9 = 0b1001 split LSB-first into levels 1 and 2
    scheme = SliceScheme((2, 2))
    ctx = ActionContext(
        layer="t",
        node="cell",
        attributes={"t_read": T_READ, "vdd": 1.0, "g_min": G_MIN, "g_max": G_MAX},
        encodings={
            "Inputs": Encoding("twos_complement", 2),
            "Weights": Encoding("twos_complement", 4),
        },
        schemes={"Inputs": SliceScheme((2,)), "Weights": scheme},
        lines={
            "Inputs": ((uniform_pmf(0, 3),),),
            "Weights": ((delta_pmf(1), delta_pmf(2)),),
        },
    )
    v2 = (0 + (1 / 3) ** 2 + (2 / 3) ** 2 + 1) / 4
    g_lo = G_MIN + (G_MAX - G_MIN) * 1 / 3
    g_hi = G_MIN + (G_MAX - G_MIN) * 2 / 3
    expect = (g_lo + g_hi) / 2 * v2 * T_READ
    assert memcell_read_energy(ctx) == pytest.approx(expect, rel=1e-14, abs=0)


def test_memcell_differential_companion_adds_conductance():
    enc = {
        "Inputs": Encoding("twos_complement", 2),
        "Weights": Encoding("differential", 2),
    }
    main = ValuePMF((0, 3), (0.5, 0.5))
    comp = ValuePMF((0, 2), (0.5, 0.5))
    base = cell_ctx([uniform_pmf(0, 3)], [main], encodings=enc)
    both = cell_ctx(
        [uniform_pmf(0, 3)], [main], encodings=enc, w_lines=[(comp,)]
    )
    v2 = (0 + (1 / 3) ** 2 + (2 / 3) ** 2 + 1) / 4
    g_main = G_MIN + (G_MAX - G_MIN) * 1.5 / 3
    g_comp = G_MIN + (G_MAX - G_MIN) * 1.0 / 3
    assert memcell_read_energy(base) == pytest.approx(g_main * v2 * T_READ, rel=1e-14, abs=0)
    assert memcell_read_energy(both) == pytest.approx(
        (g_main + g_comp) * v2 * T_READ, rel=1e-14, abs=0
    )


def test_distinct_values_equal_np_unique_with_its_inverse():
    rng = np.random.default_rng(23)
    cases = [
        rng.integers(0, 256, 1000),  # dense: span below the count
        rng.integers(-128, 128, 300),  # dense and negative
        rng.integers(0, 10**6, 50),  # sparse: span above the count, np.unique
        np.array([-(2**40), 3, 2**40]),
        np.array([7]),
        np.array([], dtype=np.int64),
        rng.integers(-8, 8, (6, 5)),  # flattened like np.unique
        rng.integers(-128, 128, 400).astype(np.int8),
        np.array([0.5, -1.0, 0.5]),  # not integers, np.unique
    ]
    for values in cases:
        distinct, inverse = _distinct_values(values)
        want_distinct, want_inverse = np.unique(values, return_inverse=True)
        assert distinct.dtype == want_distinct.dtype
        assert inverse.dtype == want_inverse.dtype
        assert np.array_equal(distinct, want_distinct), values
        assert np.array_equal(inverse, np.ravel(want_inverse)), values
        assert np.array_equal(distinct[inverse], np.ravel(values))


def test_memcell_oracle_energy_matches_average_over_support():
    model = MemoryCellModel()
    ctx = cell_ctx([uniform_pmf(0, 3)], [uniform_pmf(0, 3)])
    x, y = (g.ravel() for g in np.meshgrid(range(4), range(4), indexing="ij"))
    per_point = model.oracle_energy("compute", ctx, {"Inputs": x, "Weights": y}).tolist()
    avg = sum(per_point) / len(per_point)
    assert avg == pytest.approx(model.energy_per_action("compute", ctx), rel=1e-12, abs=0)
    # with a value missing the oracle falls back to the population average
    fallback = model.oracle_energy("compute", ctx, {"Weights": np.array([1])})
    assert fallback.tolist() == [model.energy_per_action("compute", ctx)]


DIFF_INPUT_LAYER = """
layers:
  - name: diff
    dims: {M: 2, K: 2}
    projections: {Inputs: [K], Weights: [K, M], Outputs: [M]}
    bits: {Inputs: 4, Weights: 2, Outputs: 8}
    pmf: {Inputs: {uniform: [-8, 7]}, Weights: {uniform: [0, 3]}}
"""


@pytest.mark.parametrize("dac_model", ["value_proportional", "switching"])
def test_differential_input_oracle_energy_matches_average_over_support(dac_model):
    # 4-bit differential inputs in (3, 1) slices: both lines drive the cell
    # and both convert at the DAC
    datapath = "input_encoding: differential, input_slice_width: 3"
    cell_node, dac_node = parse_arch(
        "--- !Component\nname: dac\nclass: dac\nattributes: "
        f"{{e_full_scale: 1.0e-12, model: {dac_model}, {datapath}}}\n"
        "--- !Component\nname: cell\nclass: reram_cell\nattributes: "
        f"{{t_read: 1.0e-8, g_min: 1.0e-6, g_max: 4.0e-6, {datapath}}}\n"
    ).nodes[::-1]
    layer = parse_workload(DIFF_INPUT_LAYER)[0]
    ctx = build_action_context(cell_node, layer)
    assert [len(line) for line in ctx.role_lines("Inputs")] == [2, 2]
    cell = MemoryCellModel()
    per_point = [
        cell.oracle_energy("compute", ctx, {"Inputs": x, "Weights": y})
        for x in range(-8, 8)
        for y in range(4)
    ]
    avg = sum(per_point) / len(per_point)
    # abs=0: pytest.approx would otherwise pass any two values within 1e-12 J
    assert avg == pytest.approx(cell.energy_per_action("compute", ctx), rel=1e-12, abs=0)

    dctx = build_action_context(dac_node, layer)
    dac = DacModel()
    per_value = [dac.oracle_energy("convert", dctx, {"Inputs": x}) for x in range(-8, 8)]
    avg = sum(per_value) / len(per_value)
    assert avg == pytest.approx(dac.energy_per_action("convert", dctx), rel=1e-12, abs=0)


def test_dac_value_proportional_and_switching():
    ctx = ActionContext(
        layer="t",
        node="dac",
        attributes={"e_full_scale": 0.4e-12, "model": "value_proportional"},
        encodings={"Inputs": Encoding("twos_complement", 1)},
        schemes={"Inputs": SliceScheme((1,))},
        lines={"Inputs": ((two_point_pmf(0, 1, 0.25),),)},
    )
    assert dac_convert_energy(ctx) == pytest.approx(0.1e-12, rel=1e-14, abs=0)

    sw = ActionContext(
        layer="t",
        node="dac",
        attributes={"e_full_scale": 1e-12, "model": "switching"},
        encodings={"Inputs": Encoding("twos_complement", 2)},
        schemes={"Inputs": SliceScheme((2,))},
        lines={"Inputs": ((uniform_pmf(0, 3),),)},
    )
    assert dac_convert_energy(sw) == pytest.approx(0.5e-12, rel=1e-14, abs=0)

    bad = ActionContext(
        layer="t",
        node="dac",
        attributes={"e_full_scale": 1e-12, "model": "thermometer"},
        schemes={"Inputs": SliceScheme((2,))},
        lines={"Inputs": ((uniform_pmf(0, 3),),)},
    )
    with pytest.raises(ComponentError, match="unknown DAC model"):
        dac_convert_energy(bad)


def test_dac_oracle_energy_per_value():
    model = DacModel()
    ctx = ActionContext(
        layer="t",
        node="dac",
        attributes={"e_full_scale": 1e-12},
        encodings={"Inputs": Encoding("twos_complement", 2)},
        schemes={"Inputs": SliceScheme((2,))},
        lines={"Inputs": ((uniform_pmf(0, 3),),)},
    )
    assert model.oracle_energy("convert", ctx, {"Inputs": 3}) == pytest.approx(1e-12, abs=0)
    assert model.oracle_energy("convert", ctx, {"Inputs": 0}) == 0.0
    mean = sum(
        model.oracle_energy("convert", ctx, {"Inputs": v}) for v in range(4)
    ) / 4
    assert mean == pytest.approx(model.energy_per_action("convert", ctx), rel=1e-12, abs=0)
    # a conversion with no Inputs values prices every event at the average
    got = model.oracle_energy("convert", ctx, {"Weights": np.arange(2)})
    assert got.tolist() == [model.energy_per_action("convert", ctx)] * 2
    # an action other than convert falls back to energy_per_action, which
    # refuses it
    with pytest.raises(ComponentError, match="^node 'dac': model DacModel cannot price 'read'$"):
        model.oracle_energy("read", ctx, {"Inputs": np.arange(2)})


def _widths(bits: int):
    """Slices of 1, 2 or 4 bits (the last one may be short), or an uneven pair."""
    even = st.sampled_from([1, 2, 4]).map(
        lambda w: (w,) * (bits // w) + ((bits % w,) if bits % w else ())
    )
    if bits == 1:
        return even
    return st.one_of(even, st.integers(1, bits - 1).map(lambda lo: (lo, bits - lo)))


@st.composite
def _role(draw):
    """(Encoding, SliceScheme, values) of one operand role."""
    bits = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["twos_complement", "differential"]))
    lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if draw(st.booleans()) else (0, (1 << bits) - 1)
    values = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=30))
    return Encoding(kind, bits), SliceScheme(draw(_widths(bits))), values


@given(
    inputs=_role(),
    weights=_role(),
    dac_model=st.sampled_from(["value_proportional", "switching"]),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_oracle_energy_array_is_its_one_element_calls(inputs, weights, dac_model):
    (in_enc, in_scheme, xs), (w_enc, w_scheme, ws) = inputs, weights
    n = min(len(xs), len(ws))
    xs, ws = np.array(xs[:n]), np.array(ws[:n])
    ctx = ActionContext(
        layer="t",
        node="cell",
        attributes={
            "t_read": T_READ, "vdd": 1.0, "g_min": G_MIN, "g_max": G_MAX,
            "e_full_scale": 1e-12, "model": dac_model,
        },
        encodings={"Inputs": in_enc, "Weights": w_enc},
        schemes={"Inputs": in_scheme, "Weights": w_scheme},
    )
    for model, action, values in (
        (MemoryCellModel(), "compute", {"Inputs": xs, "Weights": ws}),
        (DacModel(), "convert", {"Inputs": xs}),
    ):
        got = model.oracle_energy(action, ctx, values)
        assert got.dtype == np.float64 and got.shape == (n,)
        one_by_one = [
            model.oracle_energy(action, ctx, {r: v[i : i + 1] for r, v in values.items()})
            for i in range(n)
        ]
        assert [p.hex() for p in got.tolist()] == [
            p.hex() for p in np.concatenate(one_by_one).tolist()
        ]


def test_oracle_energy_prices_value_independent_events_at_the_average():
    ctx = ActionContext(layer="t", node="pe", attributes={"e_mac": 5e-13})
    got = SramCellModel().oracle_energy("compute", ctx, {"Inputs": np.arange(3)})
    assert got.tolist() == [5e-13] * 3
    with pytest.raises(ComponentError, match="one length"):
        SramCellModel().oracle_energy(
            "compute", ctx, {"Inputs": np.arange(3), "Weights": np.arange(2)}
        )
    with pytest.raises(ComponentError, match="one length"):
        SramCellModel().oracle_energy("compute", ctx, {})


def test_adc_energy_is_walden_scaling():
    assert adc_convert_energy({"resolution": 8}) == pytest.approx(
        DEFAULT_ADC_FOM * 256, rel=1e-14, abs=0
    )
    assert adc_convert_energy({"resolution": 8}) == pytest.approx(2.56e-12, abs=0)
    assert adc_convert_energy({"resolution": 4, "fom": 2e-15}) == pytest.approx(3.2e-14, abs=0)
    with pytest.raises(ComponentError, match="resolution"):
        adc_convert_energy({})
    with pytest.raises(ComponentError, match="positive"):
        adc_convert_energy({"resolution": 0})


def test_adc_area_model():
    assert adc_area({"resolution": 8}) == pytest.approx(1e-10 * 256, abs=0)
    got = adc_area({"resolution": 6, "sample_rate": 1.0e9})
    assert got == pytest.approx(1e-10 * 64 + 1e-17 * 1.0e9, abs=0)
    custom = adc_area({"resolution": 4, "adc_a0": 1e-9, "adc_a1": 0.0, "adc_a2": 0.0})
    assert custom == pytest.approx(1e-9, abs=0)
    with pytest.raises(ComponentError, match="sample_rate"):
        adc_area({"resolution": 6, "sample_rate": -1.0})


def test_buffer_update_is_read_modify_write():
    model = BufferModel()
    ctx = ActionContext(
        layer="t", node="buf", attributes={"e_per_bit": 0.1e-12, "width": 8}
    )
    assert model.energy_per_action("read", ctx) == pytest.approx(0.8e-12, abs=0)
    assert model.energy_per_action("write", ctx) == pytest.approx(0.8e-12, abs=0)
    assert model.energy_per_action("fill", ctx) == pytest.approx(0.8e-12, abs=0)
    assert model.energy_per_action("update", ctx) == pytest.approx(1.6e-12, abs=0)
    with pytest.raises(ComponentError, match="cannot price"):
        model.energy_per_action("convert", ctx)
    with pytest.raises(ComponentError, match="missing required attribute"):
        model.energy_per_action("read", ActionContext(layer="t", node="buf", attributes={}))


@pytest.mark.parametrize(
    "model, action",
    [
        (MemoryCellModel(), "update"),
        (SramCellModel(), "convert"),
        (DacModel(), "read"),
        (AdcModel(), "write"),
        (AdderModel(), "write"),
    ],
    ids=lambda x: x if isinstance(x, str) else type(x).__name__,
)
def test_model_refuses_an_action_it_cannot_price(model, action):
    ctx = ActionContext(layer="t", node="n", attributes={})
    name = type(model).__name__
    with pytest.raises(ComponentError, match=f"^node 'n': model {name} cannot price '{action}'$"):
        model.energy_per_action(action, ctx)


def test_adder_wire_and_sram_models():
    add_ctx = ActionContext(layer="t", node="acc", attributes={"e_per_add": 3e-14})
    assert AdderModel().energy_per_action("compute", add_ctx) == pytest.approx(3e-14, abs=0)
    assert AdderModel().energy_per_action("convert", add_ctx) == pytest.approx(3e-14, abs=0)

    wire_ctx = ActionContext(
        layer="t", node="link", attributes={"e_per_bit": 2e-13, "width": 4}
    )
    assert WireModel().energy_per_action("read", wire_ctx) == pytest.approx(8e-13, abs=0)
    assert WireModel().energy_per_action("update", wire_ctx) == pytest.approx(1.6e-12, abs=0)

    mac_ctx = ActionContext(layer="t", node="pe", attributes={"e_mac": 5e-13})
    assert SramCellModel().energy_per_action("compute", mac_ctx) == pytest.approx(5e-13, abs=0)
    assert SramCellModel().energy_per_action("fill", mac_ctx) == 0.0
    assert not SramCellModel().value_dependent_on


def test_area_and_leakage_defaults():
    cell = MemoryCellModel()
    assert cell.area({"cell_area": 2.5e-14}) == pytest.approx(2.5e-14, abs=0)
    assert cell.area({}) == 0.0
    assert BufferModel().area({"area": 1e-8}) == pytest.approx(1e-8, abs=0)
    assert AdcModel().area({"resolution": 8}) == pytest.approx(2.56e-8, abs=0)


def test_registry_lookup_and_override():
    assert isinstance(DEFAULT_REGISTRY.get("reram_cell"), MemoryCellModel)
    assert isinstance(DEFAULT_REGISTRY.get("router"), WireModel)
    assert "sram_cell" in DEFAULT_REGISTRY.known()
    with pytest.raises(ComponentError, match="no model registered"):
        DEFAULT_REGISTRY.get("optical_cell")

    reg = ModelRegistry()
    reg.register("dac", DacModel())
    with pytest.raises(ComponentError, match="already registered"):
        reg.register("dac", DacModel())

    class FlatDac(DacModel):
        def energy_per_action(self, action, ctx):
            return 7e-12

    reg.register("dac", FlatDac(), override=True)
    ctx = ActionContext(layer="t", node="d", attributes={})
    assert reg.get("dac").energy_per_action("convert", ctx) == pytest.approx(7e-12, abs=0)
