"""Per-component energy/area models and the model registry.

Models price one action (read, write, fill, update, convert, compute) from an
ActionContext that carries the node's resolved attributes and, per role, the
slice PMFs of each device line its encoding drives; valuemodel.line_levels
decides the lines and slice_level the slices.  Data-value-dependent models
consume distributions only.  The brute-force oracle prices concrete events
through oracle_energy, which takes one int array per role (one entry per
event, and the oracle passes one per distinct operand combination) and
returns one price per entry, each a function of its own entry's values; the
cell and DAC run their per-value kernel once per distinct value.  The cell's
model and oracle share only its physical maps (_cell_maps), not their sums.

Registered classes: reram_cell, sram_cell, dac, adc, buffer, adder, wire
(router is an alias of wire).  DEFAULT_REGISTRY.register adds plug-ins keyed
by the architecture `class:` string.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .valuemodel import (
    Encoding,
    PhysicalMap,
    SliceScheme,
    expected_moment,
    line_levels,
    slice_level,
    switching_rate,
)
from .workload import MAX_BITS, ValuePMF, as_integer

# Walden figure of merit, J per conversion step.
DEFAULT_ADC_FOM = 10e-15
# ADC area model coefficients: area = a0 + a1 * 2^B + a2 * f_s.
DEFAULT_ADC_A0 = 0.0
DEFAULT_ADC_A1 = 1e-10  # m^2 per quantization level
DEFAULT_ADC_A2 = 1e-17  # m^2 per Hz of sample rate


class ComponentError(ValueError):
    """Missing attribute, missing PMF or unpriceable action."""


@dataclass(frozen=True)
class ActionContext:
    """Everything a model may consult when pricing one action.

    lines[role] holds one tuple of slice PMFs (LSB-first) per device line
    the role's encoding drives: one line, or two for differential (positive
    line first).  schemes[role].widths gives each slice's width.  ``lines``
    is a read-only mapping that the engine fills lazily: a role is encoded
    and sliced the first time a model reads it, so statistics no model
    reads are never built.  Its key set is fixed when the context is made,
    so testing ``role in ctx.lines`` builds nothing.
    """

    layer: str
    node: str
    attributes: dict
    encodings: dict[str, Encoding] = field(default_factory=dict)
    schemes: dict[str, SliceScheme] = field(default_factory=dict)
    lines: Mapping[str, tuple[tuple[ValuePMF, ...], ...]] = field(default_factory=dict)

    def attr(self, key: str, default=None):
        value = self.attributes.get(key, default)
        if value is None:
            raise ComponentError(
                f"node {self.node!r}: missing required attribute {key!r}"
            )
        return value

    def role_lines(self, role: str) -> tuple[tuple[ValuePMF, ...], ...]:
        if role not in self.lines:
            raise ComponentError(
                f"node {self.node!r}: no {role} distribution in action context"
            )
        return self.lines[role]


def _line_sum(ctx: ActionContext, role: str, moment) -> float:
    """Sum moment(pmf, width) over each device line of a role, slice by
    slice."""
    widths = ctx.schemes[role].widths
    total = 0.0
    for line in ctx.role_lines(role):
        for pmf, width in zip(line, widths):
            total += moment(pmf, width)
    return total


def _cell_maps(ctx: ActionContext) -> tuple[float, dict, dict]:
    """A cell's t_read, and one map per slice width: input slice levels to
    voltages, weight slice levels to conductances."""
    t_read = float(ctx.attr("t_read"))
    vdd = float(ctx.attributes.get("vdd", 1.0))
    g_min = float(ctx.attributes.get("g_min", 0.0))
    g_max = float(ctx.attr("g_max"))
    volts = {w: PhysicalMap.voltage(vdd, 1 << w) for w in ctx.schemes["Inputs"].widths}
    conds = {
        w: PhysicalMap.conductance(g_min, g_max, 1 << w)
        for w in ctx.schemes["Weights"].widths
    }
    return t_read, volts, conds


def memcell_read_energy(ctx: ActionContext) -> float:
    """Average read energy of one cell access: G_avg * V_avg^2 * t_read.

    Input slices map to voltages, weight slices to conductances; slice
    averages follow from each slice being equally likely per access.  A
    second weight line adds its population's conductance.
    """
    t_read, volts, conds = _cell_maps(ctx)
    v2 = _line_sum(
        ctx, "Inputs", lambda pmf, w: expected_moment(pmf, volts[w], power=2)
    )
    v2 /= len(ctx.schemes["Inputs"].widths)
    g = _line_sum(ctx, "Weights", lambda pmf, w: expected_moment(pmf, conds[w]))
    g /= len(ctx.schemes["Weights"].widths)
    return g * v2 * t_read


def _dac_model(ctx: ActionContext) -> str:
    model = ctx.attributes.get("model", "value_proportional")
    if model not in ("value_proportional", "switching"):
        raise ComponentError(f"node {ctx.node!r}: unknown DAC model {model!r}")
    return model


def dac_convert_energy(ctx: ActionContext) -> float:
    """Average energy of one input conversion.

    model=value_proportional scales e_full_scale by E[level]/(levels-1);
    model=switching scales it by the mean fraction of set bits.
    """
    e_fs = float(ctx.attr("e_full_scale"))
    if _dac_model(ctx) == "value_proportional":
        total = _line_sum(ctx, "Inputs", lambda pmf, w: pmf.mean() / ((1 << w) - 1))
    else:
        total = _line_sum(ctx, "Inputs", switching_rate)
    return e_fs * total / len(ctx.schemes["Inputs"].widths)


def _adc_levels(attributes: dict, node: str) -> int:
    """2^resolution, for an integer resolution in [1, MAX_BITS] and a
    positive sample_rate where one is given."""
    if "resolution" not in attributes:
        raise ComponentError(f"node {node!r}: missing required attribute 'resolution'")
    bits = as_integer(attributes["resolution"])
    if bits is None or not 1 <= bits <= MAX_BITS:
        raise ComponentError(
            f"node {node!r}: ADC resolution must be a positive integer of at "
            f"most {MAX_BITS} bits, got {attributes['resolution']!r}"
        )
    if "sample_rate" in attributes and float(attributes["sample_rate"]) <= 0:
        raise ComponentError(f"node {node!r}: sample_rate must be positive")
    return 1 << bits


def adc_convert_energy(attributes: dict, node: str = "adc") -> float:
    """Walden-style conversion energy: FOM * 2^resolution."""
    fom = float(attributes.get("fom", DEFAULT_ADC_FOM))
    return fom * _adc_levels(attributes, node)


def adc_area(attributes: dict, node: str = "adc") -> float:
    """ADC area: a0 + a1 * 2^resolution + a2 * sample_rate."""
    levels = _adc_levels(attributes, node)
    f_s = float(attributes.get("sample_rate", 0.0))
    a0 = float(attributes.get("adc_a0", DEFAULT_ADC_A0))
    a1 = float(attributes.get("adc_a1", DEFAULT_ADC_A1))
    a2 = float(attributes.get("adc_a2", DEFAULT_ADC_A2))
    return a0 + a1 * levels + a2 * f_s


def buffer_access_energy(ctx: ActionContext) -> float:
    """Energy of one buffer access: e_per_bit * width."""
    return float(ctx.attr("e_per_bit")) * float(ctx.attr("width"))


class ComponentModel(ABC):
    """Energy/area model for one component class."""

    #: tensor roles whose concrete values change this model's energy
    value_dependent_on: frozenset[str] = frozenset()

    @abstractmethod
    def energy_per_action(self, action: str, ctx: ActionContext) -> float:
        """Average energy in joules for one action."""

    def area(self, attributes: dict) -> float:
        """Area in m^2 of one instance."""
        return float(attributes.get("area", 0.0))

    def oracle_energy(
        self, action: str, ctx: ActionContext, values: dict[str, np.ndarray]
    ) -> np.ndarray:
        """Energy of each of n actions given their concrete operand values.

        values maps one or more roles to int arrays of n entries, one per
        event; the result is a float64 array of n prices.  A price may
        depend only on its own entry's values: the oracle passes each
        distinct operand combination once and weights its price by the
        number of events that carry it.  Value-independent models price
        every event at the average.
        """
        return np.full(_event_count(values), self.energy_per_action(action, ctx))

    def _unsupported(self, action: str, ctx: ActionContext):
        raise ComponentError(
            f"node {ctx.node!r}: model {type(self).__name__} cannot price {action!r}"
        )


def _event_count(values: dict[str, np.ndarray]) -> int:
    """The common length of oracle_energy's value arrays."""
    lengths = {np.size(v) for v in values.values()}
    if len(lengths) != 1:
        raise ComponentError(
            "oracle_energy needs one or more value arrays of one length, "
            f"got lengths {sorted(lengths)}"
        )
    return lengths.pop()


def _distinct_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_inverse=True) over the flattened values.

    When the values are integers spanning at most as many levels as there
    are values, one bincount over value - min finds them without a sort;
    a wider span keeps np.unique, so a sparse PMF allocates nothing large.
    """
    flat = np.ravel(values)
    if flat.size == 0 or not np.can_cast(flat.dtype, np.intp):
        return np.unique(flat, return_inverse=True)
    ints = flat.astype(np.intp, copy=False)
    low = int(ints.min())
    if int(ints.max()) - low >= ints.size:
        return np.unique(flat, return_inverse=True)
    offsets = ints - low
    present = np.bincount(offsets) > 0
    distinct = (np.flatnonzero(present) + low).astype(flat.dtype)
    return distinct, (np.cumsum(present) - 1)[offsets]


def _mean_slice_quantity(
    values: dict[str, np.ndarray], ctx: ActionContext, role: str, per_slice
) -> np.ndarray:
    """Average per_slice(slice_level, width) over the slices of each event's
    value of role, summed over its device lines, computed once per distinct
    value."""
    enc = ctx.encodings[role]
    scheme = ctx.schemes[role]
    distinct, inverse = _distinct_values(values[role])
    means = np.empty(len(distinct))
    for i, value in enumerate(distinct.tolist()):
        total = 0.0
        for level in line_levels(int(value), enc):
            for lvl, width in zip(slice_level(level, scheme), scheme.widths):
                total += per_slice(lvl, width)
        means[i] = total / len(scheme.widths)
    return means[inverse]


class MemoryCellModel(ComponentModel):
    """Resistive cell: analog MAC by driving a voltage across a conductance."""

    value_dependent_on = frozenset({"Inputs", "Weights"})

    def energy_per_action(self, action: str, ctx: ActionContext) -> float:
        if action in ("read", "compute"):
            return memcell_read_energy(ctx)
        if action in ("write", "fill"):
            return float(ctx.attributes.get("e_write", 0.0))
        self._unsupported(action, ctx)

    def oracle_energy(
        self, action: str, ctx: ActionContext, values: dict[str, np.ndarray]
    ) -> np.ndarray:
        n = _event_count(values)
        if action not in ("read", "compute") or not {"Inputs", "Weights"} <= set(values):
            return np.full(n, self.energy_per_action(action, ctx))
        t_read, volts, conds = _cell_maps(ctx)
        v2 = _mean_slice_quantity(
            values, ctx, "Inputs", lambda lvl, w: volts[w].value(lvl) ** 2
        )
        g = _mean_slice_quantity(
            values, ctx, "Weights", lambda lvl, w: conds[w].value(lvl)
        )
        return g * v2 * t_read

    def area(self, attributes: dict) -> float:
        return float(attributes.get("cell_area", attributes.get("area", 0.0)))


class SramCellModel(ComponentModel):
    """Digital cell: fixed energy per MAC."""

    def energy_per_action(self, action: str, ctx: ActionContext) -> float:
        if action in ("read", "compute"):
            return float(ctx.attr("e_mac"))
        if action in ("write", "fill"):
            return float(ctx.attributes.get("e_write", 0.0))
        self._unsupported(action, ctx)

    def area(self, attributes: dict) -> float:
        return float(attributes.get("cell_area", attributes.get("area", 0.0)))


class DacModel(ComponentModel):
    value_dependent_on = frozenset({"Inputs"})

    def energy_per_action(self, action: str, ctx: ActionContext) -> float:
        if action == "convert":
            return dac_convert_energy(ctx)
        self._unsupported(action, ctx)

    def oracle_energy(
        self, action: str, ctx: ActionContext, values: dict[str, np.ndarray]
    ) -> np.ndarray:
        if action != "convert" or "Inputs" not in values:
            return super().oracle_energy(action, ctx, values)
        e_fs = float(ctx.attr("e_full_scale"))
        if _dac_model(ctx) == "value_proportional":
            per_slice = lambda lvl, w: lvl / ((1 << w) - 1)
        else:
            per_slice = lambda lvl, w: lvl.bit_count() / w
        return e_fs * _mean_slice_quantity(values, ctx, "Inputs", per_slice)


class AdcModel(ComponentModel):
    def energy_per_action(self, action: str, ctx: ActionContext) -> float:
        if action == "convert":
            return adc_convert_energy(ctx.attributes, ctx.node)
        self._unsupported(action, ctx)

    def area(self, attributes: dict) -> float:
        return adc_area(attributes)


class BufferModel(ComponentModel):
    def energy_per_action(self, action: str, ctx: ActionContext) -> float:
        if action in ("read", "write", "fill"):
            return buffer_access_energy(ctx)
        if action == "update":
            # read-modify-write
            return 2.0 * buffer_access_energy(ctx)
        self._unsupported(action, ctx)


class AdderModel(ComponentModel):
    def energy_per_action(self, action: str, ctx: ActionContext) -> float:
        if action in ("compute", "convert"):
            return float(ctx.attr("e_per_add"))
        self._unsupported(action, ctx)


class WireModel(ComponentModel):
    def energy_per_action(self, action: str, ctx: ActionContext) -> float:
        if action == "update":
            return 2.0 * buffer_access_energy(ctx)
        return buffer_access_energy(ctx)


class ModelRegistry:
    """Component models keyed by the architecture `class:` string."""

    def __init__(self):
        self._models: dict[str, ComponentModel] = {}

    def register(self, name: str, model: ComponentModel, override: bool = False) -> None:
        if name in self._models and not override:
            raise ComponentError(
                f"model class {name!r} already registered; pass override=True to replace"
            )
        self._models[name] = model

    def get(self, name: str) -> ComponentModel:
        try:
            return self._models[name]
        except KeyError:
            raise ComponentError(f"no model registered for class {name!r}") from None

    def known(self) -> tuple[str, ...]:
        return tuple(sorted(self._models))


def _default_registry() -> ModelRegistry:
    reg = ModelRegistry()
    reg.register("reram_cell", MemoryCellModel())
    reg.register("memory_cell", MemoryCellModel())
    reg.register("sram_cell", SramCellModel())
    reg.register("dac", DacModel())
    reg.register("adc", AdcModel())
    reg.register("buffer", BufferModel())
    reg.register("adder", AdderModel())
    reg.register("wire", WireModel())
    reg.register("router", WireModel())
    return reg


DEFAULT_REGISTRY = _default_registry()

