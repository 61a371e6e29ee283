"""Evaluation engine: energy tables, mapping evaluation, search, oracle.

The model separates what depends on data values from what depends on the
mapping.  Per-action energies are statistical expectations over the layer's
value distributions and are therefore identical for every mapping of a given
(architecture, layer) pair; they are computed once into an EnergyTable.
Access counts are closed-form products of loop bounds compiled once into a
CountPlan.  Evaluating one mapping then reduces to a few dozen multiplies,
which is what makes large mapping searches cheap.

The brute-force oracle takes the opposite route: it draws concrete tensor
values, enumerates every point of the loop nest, counts an access event for
each distinct key the points carry and prices value-dependent actions per
event.  Its counts must match the closed form exactly and its energy must
converge to the statistical value, which is the main correctness check of
the whole model.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections import abc
from dataclasses import dataclass, field

import numpy as np

from .archspec import (
    COALESCE,
    NO_COALESCE,
    TEMPORAL_REUSE,
    ArchTree,
    instances,
)
from .components import (
    ActionContext,
    ComponentError,
    ComponentModel,
    DEFAULT_REGISTRY,
    ModelRegistry,
)
from .mapping import (
    COMPUTE_TENSOR,
    CountPlan,
    Mapping,
    MapperConfig,
    MappingSpace,
    SlotTable,
    TEMPORAL,
    build_count_plan,
    check_valid,
)
from . import valuemodel
from .valuemodel import Encoding, SliceScheme, slice_pmf
from .workload import ROLES, WorkloadLayer, as_integer, mac_count

DEFAULT_CLOCK_PERIOD = 1e-9

_ROLE_ATTR = {"Inputs": "input", "Weights": "weight", "Outputs": "output"}
# the per-role datapath attributes build_action_context reads
DATAPATH_ATTRS = frozenset(
    f"{r}_{a}" for r in _ROLE_ATTR.values() for a in ("encoding", "slice_width")
)

# A defaulted (undeclared) distribution enumerates every representable
# value, so past this width the context omits it instead of building a
# 2^bits support.  Declared PMFs are never capped.
_DEFAULT_PMF_BITS_CAP = 16


class EngineError(ValueError):
    """Evaluation failed: inconsistent inputs or unsupported configuration."""


def _slice_scheme(bits: int, width) -> SliceScheme:
    if width is None:
        return SliceScheme((bits,))
    w = as_integer(width)
    if w is None:
        raise EngineError(f"slice width must be an integer, got {width!r}")
    if w < 1 or w > bits:
        raise EngineError(f"slice width {w} outside [1, {bits}]")
    widths = [w] * (bits // w)
    if bits % w:
        widths.append(bits % w)
    return SliceScheme(tuple(widths))


class _LazyRoleMap(abc.Mapping):
    """Read-only role mapping whose values are built on access.

    The key set is fixed up front, so membership tests and iteration never
    build anything; reading a role calls ``build(role)``, which caches.
    """

    def __init__(self, roles, build):
        self._roles = tuple(roles)
        self._build = build

    def __getitem__(self, role: str):
        if role not in self._roles:
            raise KeyError(role)
        return self._build(role)

    def __contains__(self, role) -> bool:
        return role in self._roles

    def __iter__(self):
        return iter(self._roles)

    def __len__(self) -> int:
        return len(self._roles)


def _shared_lines(layer: WorkloadLayer, stats: dict, role: str, enc, scheme):
    """The role's slice PMFs per device line; the contexts that share
    ``stats`` encode a role once per encoding and slice it once per scheme."""
    if (role, enc) not in stats:
        # through its module, so a caller that wraps encode_pmf sees the call
        stats[role, enc] = valuemodel.encode_pmf(layer.pmf_for(role), enc)
    if (role, enc, scheme) not in stats:
        encoded = stats[role, enc]
        stats[role, enc, scheme] = tuple(tuple(slice_pmf(p, scheme)) for p in encoded)
    return stats[role, enc, scheme]


def build_action_context(node, layer: WorkloadLayer, stats=None) -> ActionContext:
    """Resolve the encoded, sliced operand statistics one node sees.

    Encodings and slice widths are datapath properties, so they come from
    node attributes (input_encoding, weight_slice_width, ...); bit widths
    come from the layer.  ``lines`` is a read-only mapping that encodes a
    role and slices each device line on its first access, so a role no
    model reads costs nothing; contexts built with one ``stats`` dict share
    those builds (_shared_lines).  A role with no declared PMF and more
    than _DEFAULT_PMF_BITS_CAP bits has no entry; a model that prices on
    such a role reports the missing distribution.
    """
    attrs = node.attributes
    encodings: dict[str, Encoding] = {}
    schemes: dict[str, SliceScheme] = {}
    for role in ROLES:
        key = _ROLE_ATTR[role]
        b = layer.bits[role]
        kind = str(attrs.get(f"{key}_encoding", "twos_complement"))
        encodings[role] = Encoding(kind, b)
        schemes[role] = _slice_scheme(b, attrs.get(f"{key}_slice_width"))
    present = [
        r for r in ROLES if r in layer.pmfs or layer.bits[r] <= _DEFAULT_PMF_BITS_CAP
    ]
    stats = {} if stats is None else stats
    return ActionContext(
        layer=layer.name,
        node=node.name,
        attributes=attrs,
        encodings=encodings,
        schemes=schemes,
        lines=_LazyRoleMap(
            present,
            lambda role: _shared_lines(
                layer, stats, role, encodings[role], schemes[role]
            ),
        ),
    )


@dataclass
class EnergyTable:
    """Average per-action energies for one (architecture, layer) pair.

    Entries are keyed (node, action).  The table never sees a mapping, so
    the fingerprint is a direct way to assert mapping invariance.
    """

    layer: str
    entries: dict[tuple[str, str], float]
    fingerprint: str

    def unit(self, node: str, action: str) -> float:
        try:
            return self.entries[(node, action)]
        except KeyError:
            raise EngineError(
                f"energy table has no entry for action {action!r} at {node!r}"
            ) from None


def _pricer(arch: ArchTree, layer: WorkloadLayer, registry: ModelRegistry | None):
    """The one pricing path of the energy table and the oracle: model(name)
    is a component's (registry model, action context), built once, the
    contexts sharing one ``stats`` dict; unit(name, action) its average."""
    stats: dict = {}  # the operand statistics the nodes' contexts share
    models: dict[str, tuple[ComponentModel, ActionContext]] = {}

    def model(name: str) -> tuple[ComponentModel, ActionContext]:
        if name not in models:
            node = arch.node(name)
            if node.kind != "component":
                raise EngineError(
                    f"container {node.name!r} carries reuse actions; give it a "
                    "Component with a model class"
                )
            ctx = build_action_context(node, layer, stats)
            models[name] = ((registry or DEFAULT_REGISTRY).get(node.klass), ctx)
        return models[name]

    def unit(name: str, action: str) -> float:
        m, ctx = model(name)
        return float(m.energy_per_action(action, ctx))

    return model, unit


def precompute_energy_table(
    arch: ArchTree,
    layer: WorkloadLayer,
    registry: ModelRegistry | None = None,
    plan: CountPlan | None = None,
) -> EnergyTable:
    if plan is None:
        _, plan = build_count_plan(arch, layer)
    _, unit = _pricer(arch, layer, registry)
    keys = dict.fromkeys((e.node, e.action) for e in plan.entries)
    entries = {key: unit(*key) for key in keys}
    h = hashlib.sha256(layer.name.encode())
    for (node, action), e in sorted(entries.items()):
        h.update(f"{node}|{action}|{e!r}\n".encode())
    return EnergyTable(layer.name, entries, h.hexdigest())


def total_area(arch: ArchTree, registry: ModelRegistry | None = None) -> float:
    registry = registry or DEFAULT_REGISTRY
    area = 0.0
    for node in arch.components():
        model = registry.get(node.klass)
        area += instances(arch, node.name) * model.area(node.attributes)
    return area


@dataclass(frozen=True)
class EvalResult:
    layer: str
    energy_j: float
    cycles: int
    latency_s: float
    utilization: float
    area_m2: float
    macs: int
    counts: dict[tuple[str, str, str], int]
    breakdown: dict[tuple[str, str], tuple[int, float, float]]

    @property
    def energy_per_mac_j(self) -> float:
        return self.energy_j / self.macs

    @property
    def edp_js(self) -> float:
        return self.energy_j * self.latency_s


class LayerEvaluator:
    """Bundles the compiled plan and energy table for one (arch, layer), and
    owns its slot table (``table``, when given): pass ``slot_table`` to
    check_valid and MappingSpace so that they reuse it and its rules.  The
    breakdown is laid out once: each (node, action) key in the order sorted
    count keys reach it, with its unit energy and the count keys it sums.
    """

    def __init__(
        self,
        arch: ArchTree,
        layer: WorkloadLayer,
        registry: ModelRegistry | None = None,
        table: SlotTable | None = None,
    ):
        self.arch = arch
        self.layer = layer
        self.registry = registry or DEFAULT_REGISTRY
        self.slot_table, self.plan = build_count_plan(arch, layer, table)
        self.table = precompute_energy_table(arch, layer, self.registry, self.plan)
        self.area_m2 = total_area(arch, self.registry)
        self.clock = float(
            arch.leaf.attributes.get("clock_period", DEFAULT_CLOCK_PERIOD)
        )
        self.macs = mac_count(layer)
        # unit energy of each plan entry, in entry order
        self.units = np.array(
            [self.table.unit(e.node, e.action) for e in self.plan.entries],
            dtype=np.float64,
        )
        groups: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
        for key, _, _ in sorted(self.plan.count_groups):
            groups.setdefault((key[0], key[2]), []).append(key)
        self._breakdown = tuple(
            (key, self.table.unit(*key), keys[0], tuple(keys[1:]))
            for key, keys in groups.items()
        )

    def bounds_of(self, mapping: Mapping) -> list[int]:
        return self.slot_table.bounds_from_mapping(mapping)

    def objective_value(self, bounds: list[int], objective: str) -> float:
        """Search objective of one mapping's bounds, as a float."""
        if len(bounds) != len(self.slot_table):
            side = "shorter" if len(bounds) < len(self.slot_table) else "longer"
            raise EngineError(f"bounds vector {side} than the slot table")
        return float(self.objective_of_products(self.plan.products(bounds), objective))

    def objective_of_products(self, products, objective: str):
        """Search objective from the plan's subset products, as a float64
        array: 0-d for one mapping's (CountPlan.products), one value per
        mapping for a block's rows of products (as MappingSpace.scan yields
        them).

        Energy adds float64(count) * unit left to right in plan-entry order,
        on Python ints and floats for one mapping and row-wise on int64 (or
        Python-int object) rows for a block: the same roundings in the same
        order, so a mapping's energy is the same float alone or in a block,
        on any BLAS build (a BLAS dot may reorder or fuse its additions).
        """
        plan = self.plan
        energy = 0.0
        for c, u in zip(plan.entry_counts(products), self.units.tolist()):
            energy = energy + c * u
        energy = np.asarray(energy, np.float64)
        if objective == "energy":
            return energy
        if objective in ("latency", "edp"):
            latency = np.asarray(products[plan.cycles_sub], np.float64) * self.clock
            return latency if objective == "latency" else energy * latency
        raise EngineError(f"unknown objective {objective!r}")

    def evaluate(self, mapping: Mapping) -> EvalResult:
        counts, cycles, utilization = self.plan.evaluate(self.bounds_of(mapping))
        breakdown: dict[tuple[str, str], tuple[int, float, float]] = {}
        energies = []
        for key, unit, first, later in self._breakdown:
            n = counts[first]
            for k in later:
                n += counts[k]
            e = n * unit
            breakdown[key] = (n, unit, e)
            energies.append(e)
        # positional: keywords cost a measurable share of this call
        return EvalResult(
            self.layer.name,
            math.fsum(energies),
            cycles,
            cycles * self.clock,
            utilization,
            self.area_m2,
            self.macs,
            counts,
            breakdown,
        )


def evaluate(
    arch: ArchTree,
    layer: WorkloadLayer,
    mapping: Mapping,
    registry: ModelRegistry | None = None,
) -> EvalResult:
    return LayerEvaluator(arch, layer, registry).evaluate(mapping)


@dataclass
class SearchResult:
    layer: str
    index: int
    mapping: Mapping
    result: EvalResult
    evaluated: int
    valid: int
    space_total: int
    fingerprint: str


def search(
    arch: ArchTree,
    layer: WorkloadLayer,
    config: MapperConfig,
    registry: ModelRegistry | None = None,
) -> SearchResult | None:
    """Deterministic random search over the exact-tiling mapping space.

    The drawn indices are scanned in ascending order, a block at a time,
    and ties on the objective break toward the lower index.  The scan
    prices each candidate from its plan products; only the winner's index
    is decoded into a mapping.
    """
    evaluator = LayerEvaluator(arch, layer, registry)
    space = MappingSpace(arch, layer, evaluator.slot_table)
    idxs = space.draw_array(config.budget, config.seed)
    best = None
    valid = 0
    for kept, products in space.scan(idxs, evaluator.plan.subsets):
        if not len(kept):
            continue
        valid += len(kept)
        vals = evaluator.objective_of_products(products, config.objective)
        k = int(np.argmin(vals))
        if best is None or vals[k] < best[0]:
            best = (vals[k], int(kept[k]))
    if best is None:
        return None
    best_idx = best[1]
    mapping = space.mapping_at(best_idx)
    return SearchResult(
        layer=layer.name,
        index=best_idx,
        mapping=mapping,
        result=evaluator.evaluate(mapping),
        evaluated=len(idxs),
        valid=valid,
        space_total=space.total,
        fingerprint=evaluator.table.fingerprint,
    )


def _check_int(what: str, value, low: int) -> None:
    """Refuse a value that is not an integer >= low; a bool is not taken
    for an integer."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise EngineError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise EngineError(f"{what} must be >= {low}, got {value}")


def draw_tensors(layer: WorkloadLayer, seed: int) -> dict[str, np.ndarray]:
    """Seeded iid operand tensors shaped by each tensor's projection."""
    _check_int("tensor draw seed", seed, 0)
    out: dict[str, np.ndarray] = {}
    sizes = layer.einsum.dim_sizes
    for offset, role in ((0, "Inputs"), (1, "Weights")):
        pmf = layer.pmf_for(role)
        shape = tuple(sizes[d] for d in layer.einsum.projection(role))
        n = int(np.prod(shape)) if shape else 1
        rng = np.random.default_rng([seed, offset])
        vals = rng.choice(np.array(pmf.support), size=n, p=np.array(pmf.probs))
        out[role] = vals.reshape(shape) if shape else vals
    return out


def _group_events(
    ranks: dict[str, np.ndarray], levels: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The distinct operand combinations of n events and how many events
    carry each.

    ranks maps each role to its n events' ranks among levels[role], the
    distinct values the role takes.  An event's code reads its ranks as a
    mixed-radix number.  The codes are counted by one bincount when their
    span is at most n and by np.unique otherwise, the rule
    components._distinct_values applies to one role.  Returns each role's
    values, one per combination in ascending code order, and the counts.
    """
    n = np.size(next(iter(ranks.values())))
    code, span = None, 1
    for role, r in ranks.items():
        k = len(levels[role])
        if code is None:
            code = r.astype(np.intp)
        else:
            code *= k
            code += r
        span *= k
    if span <= n:
        counts = np.bincount(code)
        combos = np.flatnonzero(counts)
        counts = counts[combos]
    else:
        combos, counts = np.unique(code, return_counts=True)
    picked = {}
    for role in reversed(ranks):
        k = len(levels[role])
        picked[role] = levels[role][combos % k]
        combos //= k
    return {role: picked[role] for role in ranks}, counts


# Veltkamp's splitter cuts a 53-bit significand into two 26-bit halves, and
# a count is cut into 26-bit limbs, so Dekker's product of a limb and a
# significand is exact: the rounded product plus its rounding error
_SPLITTER = 2.0**27 + 1
_LIMB_BITS = 26
# below this no exact term, and no partial sum of them, can overflow
_SAFE_SUM = 2.0**1020
# prices split per block, so the split's arrays and float lists stay small
_SUM_BLOCK = 4096


def _exact_terms(prices: np.ndarray, counts: np.ndarray):
    """Lists of floats whose exact sum is the sum of counts * prices.

    Each product is taken on the significand and one limb of the count,
    as Dekker's rounded product and its rounding error, both exact, and
    scaled back by the exponent; a zero error (a count of one or a power
    of two) adds no term.  All of it is exact while no term overflows.
    """
    for start in range(0, len(prices), _SUM_BLOCK):
        significand, exponent = np.frexp(prices[start : start + _SUM_BLOCK])
        left = counts[start : start + _SUM_BLOCK]
        high = significand * _SPLITTER
        high -= high - significand
        low = significand - high
        while left.any():
            limb = (left & ((1 << _LIMB_BITS) - 1)).astype(np.float64)
            product = limb * significand
            error = limb * high
            error -= product
            error += limb * low
            yield np.ldexp(product, exponent, out=product).tolist()
            np.ldexp(error, exponent, out=error)
            yield error[error != 0].tolist()
            left = left >> _LIMB_BITS
            exponent = exponent + _LIMB_BITS


def _count_weighted_fsum(prices: np.ndarray, counts: np.ndarray) -> float:
    """math.fsum over each price repeated its count times (counts >= 1),
    without building that list.

    One math.fsum over _exact_terms rounds the exact sum once.  A nan or
    an infinity gives what math.fsum gives over the non-finite prices
    (nan, the infinity, or ValueError for inf - inf), and a finite sum
    that overflows raises OverflowError, as math.fsum does; a sum that
    large is taken in fractions.
    """
    prices = np.asarray(prices, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    # at least the sum of |count * price|; nan when a price is nan
    with np.errstate(over="ignore"):
        bound = np.abs(prices).max() * counts.sum(dtype=np.float64)
    if not bound < _SAFE_SUM:
        finite = np.isfinite(prices)
        if not finite.all():
            return math.fsum(prices[~finite].tolist())
        # imported here, since only a sum this large pays for the module
        from fractions import Fraction

        exact = sum(Fraction(p) * c for p, c in zip(prices.tolist(), counts.tolist()))
        try:
            return float(exact)
        except OverflowError:
            raise OverflowError("intermediate overflow in fsum") from None
    return math.fsum(itertools.chain.from_iterable(_exact_terms(prices, counts)))


def _first_events(keys: np.ndarray, key_range: int) -> np.ndarray:
    """Index of the first occurrence of each distinct key, in ascending key order.

    Every key lies in [0, key_range).  One minimum pass over a key_range
    array gives what np.unique(keys, return_index=True)[1] gives, without a
    sort; a key that never occurs yields no index.
    """
    n = len(keys)
    first = np.full(key_range, n, dtype=np.intp)
    np.minimum.at(first, keys, np.arange(n, dtype=np.intp))
    return first[first < n]


@dataclass
class OracleResult:
    layer: str
    energy_j: float
    counts: dict[tuple[str, str, str], int]
    macs: int
    cycles: int


def oracle_evaluate(
    arch: ArchTree,
    layer: WorkloadLayer,
    mapping: Mapping,
    seed: int = 0,
    registry: ModelRegistry | None = None,
    point_limit: int = 2_000_000,
) -> OracleResult:
    """Behavioral reference evaluation by full loop-nest enumeration.

    Every nest point is enumerated once, in walk order.  An access event
    fires at the first point that carries its identifying key, so a
    stage's count is the number of distinct keys over the whole nest.  The
    key is the point's coordinates over the slots a component can
    distinguish (sibling multicast and wired reduction drop the collapsed
    mesh coordinates, tile refills drop the coordinates that iterate inside
    one tile), read as a mixed-radix number.  Each role is walked once,
    from the leaf to the root, with the branches in the order the count
    plan compiles them: the walk carries the slot set of the demand, drops
    a node's spatial slots the role does not index where the node reuses
    it spatially, and counts each directive's stage as distinct keys over
    its slots; it shares no code with the plan.  Keys are built by
    broadcasting over the nest's shape, and the distinct ones are found by
    one pass over an array of the key range, which is never larger than
    the nest, not by a sort.  Value-dependent components price every event
    on its own drawn operand values: a stage groups its events by their
    operand combination (_group_events) and prices each distinct
    combination once, through one oracle_energy array call, so a price may
    depend only on its own event's values.  The stage's energy is the exact
    sum of count * price rounded once (_count_weighted_fsum), which is what
    math.fsum gives over one price per event.  Other stages price at the
    average through the energy table's own _pricer; the oracle reads no
    CountPlan or EnergyTable.  A seed that is not an integer >= 0 and a
    point limit that is not an integer >= 1 are refused before any work.
    """
    _check_int("tensor draw seed", seed, 0)
    _check_int("point limit", point_limit, 1)
    table = SlotTable(arch, layer)
    diag = check_valid(arch, layer, mapping, table)
    if not diag.ok:
        raise EngineError("invalid mapping: " + "; ".join(diag.errors))

    bounds = table.bounds_from_mapping(mapping)
    n_points = math.prod(bounds)
    # a valid mapping covers every dim, so any point beyond the MACs is padding
    if n_points != mac_count(layer):
        raise EngineError("the oracle requires exact tiling, mapping is padded")
    if n_points > point_limit:
        raise EngineError(
            f"loop nest has {n_points} points, above the oracle limit {point_limit}"
        )

    nest_ids = [i for i, b in enumerate(bounds) if b > 1]
    shape = [bounds[sid] for sid in nest_ids]
    slots = table.slots
    nodes = arch.nodes
    leaf_i = len(nodes) - 1

    model, unit = _pricer(arch, layer, registry)
    tensors = draw_tensors(layer, seed)
    role_dims = {r: layer.einsum.projection(r) for r in ROLES}
    sizes = layer.einsum.dim_sizes

    def radix(ids) -> tuple[dict[int, int], int]:
        """Mixed-radix weights of the slots in `ids`, the last one fastest,
        and the number of keys they span."""
        weight, step = {}, 1
        for sid in reversed(nest_ids):
            if sid in ids:
                weight[sid] = step
                step *= bounds[sid]
        return weight, step

    def linear(weight: dict[int, int]) -> np.ndarray:
        """Sum of weight[slot] * coordinate at every nest point, in walk order.

        The weighted slots' terms are summed by broadcasting, then one
        C-order copy to the nest's shape (the last slot fastest) repeats
        them over the slots without a weight.
        """
        ndim = len(shape)
        acc = np.zeros((1,) * ndim, dtype=np.int64)
        for axis, sid in enumerate(nest_ids):
            if sid in weight:
                term = np.arange(bounds[sid], dtype=np.int64) * weight[sid]
                acc = acc + term.reshape((-1,) + (1,) * (ndim - 1 - axis))
        if acc.size < n_points:
            acc = np.broadcast_to(acc, shape).copy()
        return acc.ravel()

    @functools.cache
    def first_events(ids: frozenset[int]) -> np.ndarray:
        """Walk-order index of the first point of each distinct key over
        `ids`; each slot set's keys are built once."""
        weight, key_range = radix(ids)
        return _first_events(linear(weight), key_range)

    def point_index(role: str) -> np.ndarray:
        """The role's flat tensor index at every nest point, in walk order.

        A dim's coordinate folds its slots outer first, so the tensor's flat
        index is linear in the nest coordinates.
        """
        dim_stride, acc = {}, 1
        for d in reversed(role_dims[role]):
            dim_stride[d] = acc
            acc *= sizes[d]
        weight: dict[int, int] = {}
        for d, stride in dim_stride.items():
            fold, _ = radix([sid for sid in nest_ids if slots[sid].dim == d])
            weight.update((sid, step * stride) for sid, step in fold.items())
        return linear(weight)

    # each drawn tensor's distinct values, and every point's operand as its
    # rank among them
    levels, operands = {}, {}
    for role in ("Inputs", "Weights"):
        levels[role], ranks = np.unique(np.ravel(tensors[role]), return_inverse=True)
        operands[role] = ranks[point_index(role)]
    counts: dict[tuple[str, str, str], int] = {}

    def stage(name: str, tensor: str, action: str, n: int, ranks=None) -> float:
        """Count n (tensor, action) events at node `name` and price them:
        on their own operands when `ranks` holds them, one price per
        distinct combination, else at the average, where n * p is the
        correctly rounded sum of n copies of p."""
        counts[(name, tensor, action)] = n
        if ranks is None:
            return n * unit(name, action)
        m, ctx = model(name)
        combos, weights = _group_events(ranks, levels)
        return _count_weighted_fsum(m.oracle_energy(action, ctx, combos), weights)

    def events(t: int, role: str, action: str, ids) -> float:
        """Node t's (role, action) stage, one event per distinct key over
        `ids`; a role with no drawn operands (Outputs) prices at the average."""
        name, first = nodes[t].name, first_events(ids)
        drawn = role in model(name)[0].value_dependent_on and role in operands
        ranks = {role: operands[role][first]} if drawn else None
        return stage(name, role, action, len(first), ranks)

    # every point computes once, on its own operand pair
    leaf = nodes[leaf_i].name
    pairs = operands if model(leaf)[0].value_dependent_on else None
    energy_terms = [stage(leaf, COMPUTE_TENSOR, "compute", n_points, pairs)]

    spatial = frozenset(sid for sid in nest_ids if slots[sid].kind != TEMPORAL)
    for role in ROLES:
        rel = frozenset(sid for sid in nest_ids if slots[sid].dim in role_dims[role])

        def tile_ids(t: int) -> frozenset[int]:
            return frozenset(
                sid
                for sid in nest_ids
                if (sid in spatial and slots[sid].node <= t)
                or (sid in rel and slots[sid].node < t)
            )

        demand = frozenset(nest_ids)
        for t in range(leaf_i, -1, -1):
            if t < leaf_i and nodes[t + 1].reuses_spatially(role):
                demand = demand - {
                    sid for sid in spatial - rel if slots[sid].node == t + 1
                }
            d = nodes[t].directive(role)
            if d == NO_COALESCE:
                energy_terms.append(events(t, role, "convert", demand))
            elif d == COALESCE:
                energy_terms.append(events(t, role, "compute", demand))
                demand = tile_ids(t) if role == "Outputs" else tile_ids(t) | rel
            elif d == TEMPORAL_REUSE:
                name = nodes[t].name
                if role == "Outputs":
                    # a first in-tile event writes when its output has not
                    # been written before and updates otherwise
                    writes = len(first_events(demand & rel))
                    updates = len(first_events(demand)) - writes
                    energy_terms.append(
                        stage(name, role, "write", writes)
                        + stage(name, role, "update", updates)
                    )
                else:
                    # the leaf's compute reads its own tile
                    if t < leaf_i:
                        energy_terms.append(events(t, role, "read", demand))
                    # a fill prices at the average, n * p
                    n = len(first_events(tile_ids(t)))
                    energy_terms.append(stage(name, role, "fill", n))
                demand = tile_ids(t)

    temporal_ids = frozenset(sid for sid in nest_ids if slots[sid].kind == TEMPORAL)
    return OracleResult(
        layer=layer.name,
        energy_j=math.fsum(energy_terms),
        counts=counts,
        macs=n_points,
        cycles=len(first_events(temporal_ids)),
    )
