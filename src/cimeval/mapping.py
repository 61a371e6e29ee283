"""Loop-nest mappings and mapping-invariant access-count plans.

A mapping assigns each architecture node an ordered list of loops over
workload dimensions.  Document order of the architecture is containment,
so loops at earlier nodes are outer.  Spatial loops are allowed only at
Container nodes and at the compute leaf, and their bounds must fit the
node's mesh axis.

Access counting is closed form.  For a fixed architecture and layer every
count is a product of loop bounds over a fixed subset of loop slots (or a
difference of two such products, for read-modify-write updates), so the
whole counting rule set compiles once into a CountPlan of slot-index subsets
that is then evaluated per mapping with a handful of integer multiplies.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import yaml

from .archspec import (
    COALESCE,
    NO_COALESCE,
    TEMPORAL_REUSE,
    ArchError,
    ArchTree,
)
from .workload import ROLES, YAML_DUMPER, YAML_LOADER, WorkloadLayer, yaml_error

TEMPORAL = "temporal"
SPATIAL_X = "spatialX"
SPATIAL_Y = "spatialY"
LOOP_KINDS = (TEMPORAL, SPATIAL_X, SPATIAL_Y)

COMPUTE_TENSOR = "all"

#: what search minimizes
OBJECTIVES = ("energy", "latency", "edp")

# Indices MappingSpace.scan prices at once.  A block's factor matrices are
# tens of kB each whatever the budget; the drawn indices, one array of 8 bytes
# each (a Python int each past int64), grow with it.
SCAN_BLOCK = 1024


class MappingError(ValueError):
    """Structurally malformed mapping (unknown node, dim or loop kind)."""


@dataclass(frozen=True)
class Loop:
    dim: str
    bound: int
    kind: str = TEMPORAL

    def __post_init__(self):
        if self.kind not in LOOP_KINDS:
            raise MappingError(f"unknown loop kind {self.kind!r}")
        if not isinstance(self.bound, int) or isinstance(self.bound, bool):
            raise MappingError(f"loop bound must be an int, got {self.bound!r}")
        if self.bound < 1:
            raise MappingError(f"loop bound must be >= 1, got {self.bound}")


@dataclass(frozen=True)
class Mapping:
    """Ordered loops per node name.  Nodes without loops may be omitted."""

    loops: tuple[tuple[str, tuple[Loop, ...]], ...]

    @classmethod
    def from_dict(cls, d: dict) -> "Mapping":
        items = []
        for node, loops in d.items():
            items.append((str(node), tuple(loops)))
        return cls(tuple(items))

    def to_doc(self) -> dict:
        """node -> [{dim, bound, kind}, ...] in mapping order, the form the
        YAML file and the reports use."""
        return {
            node: [{"dim": l.dim, "bound": l.bound, "kind": l.kind} for l in loops]
            for node, loops in self.loops
        }

    def node_loops(self, name: str) -> tuple[Loop, ...]:
        for node, loops in self.loops:
            if node == name:
                return loops
        return ()


@dataclass(frozen=True)
class Slot:
    """One canonical loop position: a (node, kind, dim) triple."""

    node: int
    kind: str
    dim: str


class SlotTable:
    """Canonical slot universe for one (architecture, layer) pair.

    Slots exist for every workload dim at every node for the temporal kind,
    and at the mesh nodes (Containers plus the leaf) for the spatial kinds.
    Loop bounds of duplicate (node, kind, dim) loops multiply into one slot
    bound; absent slots default to bound 1 so they drop out of every product.
    Compiled once per table: each node's slot lookup, which bounds_from_mapping
    reads, and its canonical (slot id, dim, kind) rows, from which
    mapping_from_bounds builds mappings that share one Loop per (slot, bound).
    """

    def __init__(self, arch: ArchTree, layer: WorkloadLayer):
        self.arch = arch
        self.layer = layer
        self.dims = layer.einsum.dims
        leaf_i = len(arch.nodes) - 1
        #: ids of the nodes that carry a mesh and spatial slots
        self.mesh_nodes = tuple(
            ni
            for ni, node in enumerate(arch.nodes)
            if node.kind == "container" or ni == leaf_i
        )
        self.slots = tuple(
            Slot(ni, kind, dim)
            for ni in range(len(arch.nodes))
            for kind in (LOOP_KINDS if ni in self.mesh_nodes else (TEMPORAL,))
            for dim, _ in self.dims
        )
        names = [n.name for n in arch.nodes]
        # node name -> kind -> dim -> slot id, the lookup a mapping loop needs
        self._slot_of = {name: {kind: {} for kind in LOOP_KINDS} for name in names}
        for i, s in enumerate(self.slots):
            self._slot_of[names[s.node]][s.kind][s.dim] = i
        # canonical loop order: per node spatialX, spatialY then temporal,
        # dims in layer order; each row's dict maps a bound to its Loop
        rows: dict[str, list] = {name: [] for name in names}
        for kind in (SPATIAL_X, SPATIAL_Y, TEMPORAL):
            for i, s in enumerate(self.slots):
                if s.kind == kind:
                    rows[names[s.node]].append((i, s.dim, kind, {}))
        self._rows = tuple((name, tuple(r)) for name, r in rows.items())

    def __len__(self) -> int:
        return len(self.slots)

    def select(self, pred) -> tuple[int, ...]:
        """Ids of the slots that ``pred`` accepts, ascending."""
        return tuple(i for i, s in enumerate(self.slots) if pred(s))

    @cached_property
    def _rules(self) -> tuple[_Rule, ...]:
        return _validity_rules(self)

    def bounds_from_mapping(self, mapping: Mapping) -> list[int]:
        bounds = [1] * len(self.slots)
        for node_name, loops in mapping.loops:
            slot_of = self._slot_of.get(node_name)
            if slot_of is None:
                raise MappingError(f"mapping names unknown node {node_name!r}")
            for loop in loops:
                sid = slot_of[loop.kind].get(loop.dim)
                if sid is None:
                    if all(loop.dim != d for d, _ in self.dims):
                        raise MappingError(
                            f"mapping loop over unknown dim {loop.dim!r} "
                            f"at node {node_name!r}"
                        )
                    raise MappingError(
                        f"no loop slot for kind {loop.kind!r} at node {node_name!r}"
                    )
                bounds[sid] *= loop.bound
        return bounds

    def mapping_from_bounds(self, bounds: list[int]) -> Mapping:
        """Canonical mapping: per node spatialX, spatialY then temporal loops,
        dims in layer order, bound-1 loops omitted."""
        out = []
        for node, rows in self._rows:
            loops = []
            for i, dim, kind, shared in rows:
                bound = bounds[i]
                if bound != 1:
                    loop = shared.get(bound)
                    if loop is None:
                        loop = shared[bound] = Loop(dim, bound, kind)
                    loops.append(loop)
            if loops:
                out.append((node, tuple(loops)))
        return Mapping(tuple(out))


def _slot_table(arch: ArchTree, layer: WorkloadLayer, table) -> SlotTable:
    """``table`` when it was built for this (arch, layer), or a new one."""
    if table is None:
        return SlotTable(arch, layer)
    for built, given in ((table.arch, arch), (table.layer, layer)):
        if built is not given and built != given:
            raise MappingError("slot table was built for another arch or layer")
    return table


@dataclass(frozen=True)
class PlanEntry:
    """count = prod(bounds[i] for i in idx_a), minus the same over idx_b
    when mode is 'diff'."""

    node: str
    tensor: str
    action: str
    mode: str  # 'prod' or 'diff'
    idx_a: tuple[int, ...]
    idx_b: tuple[int, ...] = ()


@dataclass(frozen=True)
class CountPlan:
    """Compiled access-count rules for one (architecture, layer) pair.

    Each distinct slot subset of the entries, and the temporal slots whose
    product is the cycle count, is listed once in ``subsets``, smallest
    first, as (base, extra): subset ``base`` (None for the empty set) plus
    the slots ``extra``, so ``products`` extends a product it already took.
    Counts, cycles and utilization all read that one vector; the compute
    entry spans every slot, so the occupied mesh instances are its product
    over the cycles.  Which entries sum into each count key is compiled
    once (``count_groups``).
    """

    entries: tuple[PlanEntry, ...]
    subsets: tuple[tuple[int | None, tuple[int, ...]], ...]
    # per entry: the subset ids of idx_a and, for 'diff' entries, idx_b
    terms: tuple[tuple[int, int | None], ...]
    cycles_sub: int
    all_sub: int
    mesh_capacity: int

    def products(self, bounds) -> list:
        """Product of one mapping's bounds over each subset, in ``subsets``
        order (MappingSpace.scan gives the same products for a block)."""
        out: list = []
        for base, extra in self.subsets:
            p = 1 if base is None else out[base]
            for i in extra:
                p = p * bounds[i]
            out.append(p)
        return out

    def entry_counts(self, products: list) -> list:
        """Count of each entry, in entry order."""
        return [
            products[a] if b is None else products[a] - products[b]
            for a, b in self.terms
        ]

    @cached_property
    def count_groups(self) -> tuple[tuple[tuple[str, str, str], int, tuple], ...]:
        """Each (node, tensor, action) key in first-entry order, with the id
        of that entry and the ids of the later entries that add to its count."""
        ids: dict[tuple[str, str, str], list[int]] = {}
        for i, e in enumerate(self.entries):
            ids.setdefault((e.node, e.tensor, e.action), []).append(i)
        return tuple((key, v[0], tuple(v[1:])) for key, v in ids.items())

    def evaluate(
        self, bounds
    ) -> tuple[dict[tuple[str, str, str], int], int, float]:
        """Counts keyed (node, tensor, action), cycles and mesh utilization
        of one mapping, all from one vector of products."""
        p = self.products(bounds)
        c = self.entry_counts(p)
        counts: dict[tuple[str, str, str], int] = {}
        for key, first, later in self.count_groups:
            n = c[first]
            for i in later:
                n += c[i]
            counts[key] = n
        used = p[self.all_sub] // p[self.cycles_sub]
        util = used / self.mesh_capacity if self.mesh_capacity else 1.0
        return counts, p[self.cycles_sub], util


def _role_chain_entries(
    table: SlotTable, role: str, entries: list[PlanEntry]
) -> None:
    """Compile the demand-propagation walk for one operand or output tensor.

    Demand starts as the full slot set and walks from the leaf, the first
    node, up to the root.  Crossing a node that reuses the tensor spatially
    drops that node's spatial slots over dims the tensor does not index
    (one multicast or one wired reduction serves the whole extent).  A
    temporal-reuse node serves the collapsed demand (reads for operands,
    write/update for outputs) and replaces it with its tile-refill traffic;
    the leaf's own operand tile is only filled, since the compute reads it.
    Coalescing packs everything below into one emission per tile window;
    non-coalescing converts each demanded access and passes it through.
    """
    nodes = table.arch.nodes
    slots = table.slots
    leaf_i = len(nodes) - 1
    proj = set(table.layer.einsum.projection(role))
    is_output = role == "Outputs"

    def add(t: int, action: str, a: tuple, b: tuple | None = None):
        mode = "prod" if b is None else "diff"
        entries.append(PlanEntry(nodes[t].name, role, action, mode, a, b or ()))

    def tile_demand(t: int) -> tuple[int, ...]:
        return table.select(
            lambda s: (s.kind != TEMPORAL and s.node <= t)
            or (s.kind == TEMPORAL and s.dim in proj and s.node < t)
        )

    demand = tuple(range(len(slots)))
    for t in range(leaf_i, -1, -1):
        if t < leaf_i and nodes[t + 1].reuses_spatially(role):
            demand = tuple(
                i
                for i in demand
                if not (
                    slots[i].node == t + 1
                    and slots[i].kind != TEMPORAL
                    and slots[i].dim not in proj
                )
            )
        d = nodes[t].directive(role)
        if d == NO_COALESCE:
            add(t, "convert", demand)
        elif d == COALESCE:
            add(t, "compute", demand)
            if is_output:
                demand = tile_demand(t)
            else:
                demand = table.select(
                    lambda s: (s.kind != TEMPORAL and s.node <= t) or s.dim in proj
                )
        elif d == TEMPORAL_REUSE:
            if is_output:
                rel_in = tuple(i for i in demand if slots[i].dim in proj)
                add(t, "write", rel_in)
                add(t, "update", demand, rel_in)
            else:
                if t < leaf_i:
                    add(t, "read", demand)
                add(t, "fill", tile_demand(t))
            demand = tile_demand(t)


def build_count_plan(
    arch: ArchTree, layer: WorkloadLayer, table: SlotTable | None = None
) -> tuple[SlotTable, CountPlan]:
    """The slot table (``table``, or one built here) and its count plan."""
    table = _slot_table(arch, layer, table)
    entries: list[PlanEntry] = []
    all_idx = tuple(range(len(table.slots)))
    entries.append(
        PlanEntry(arch.leaf.name, COMPUTE_TENSOR, "compute", "prod", all_idx)
    )
    for role in ROLES:
        _role_chain_entries(table, role, entries)
    temporal_idx = table.select(lambda s: s.kind == TEMPORAL)
    distinct = sorted(
        {e.idx_a for e in entries}
        | {e.idx_b for e in entries if e.mode == "diff"}
        | {temporal_idx},
        key=lambda ids: (len(ids), ids),
    )
    sub_id = {ids: k for k, ids in enumerate(distinct)}
    subsets = []
    for ids in distinct:
        base = max(
            (k for k in range(len(subsets)) if set(distinct[k]) <= set(ids)),
            key=lambda k: len(distinct[k]),
            default=None,
        )
        done = set() if base is None else set(distinct[base])
        subsets.append((base, tuple(i for i in ids if i not in done)))
    terms = tuple(
        (sub_id[e.idx_a], sub_id[e.idx_b] if e.mode == "diff" else None)
        for e in entries
    )
    capacity = math.prod(
        arch.nodes[ni].spatial.mesh_x * arch.nodes[ni].spatial.mesh_y
        for ni in table.mesh_nodes
    )
    return table, CountPlan(
        tuple(entries),
        tuple(subsets),
        terms,
        sub_id[temporal_idx],
        sub_id[all_idx],
        capacity,
    )


@dataclass
class Diagnostics:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


_RULE_MESSAGES = {
    "cover": "dim {dim!r}: loop bounds cover {value} of {lo} iterations",
    "mesh": "node {node!r}: {dim} loops need {value} instances but the mesh "
    "axis has {hi}",
    "keep_dims": "node {node!r}: constraint keep_dims requires a loop over "
    "{dim!r} here",
    "unknown keep_dims": "node {node!r}: keep_dims names unknown dim {dim!r}",
    "max_tile": "node {node!r}: tile of dim {dim!r} is {value}, max_tile "
    "allows {hi}",
    "unknown max_tile": "node {node!r}: max_tile names unknown dim {dim!r}",
    "spatial_dims": "node {node!r}: spatial loops over {dim!r} are not "
    "permitted by the spatial_dims constraint",
    "capacity": "node {node!r}: retained tiles need {value} bits but "
    "capacity is {hi}",
}


@dataclass(frozen=True)
class _Rule:
    """One validity rule: lo <= sum of w * prod(bounds[i] for i in ids)
    over its (ids, w) terms <= hi.

    kind, node and dim (the axis kind, for a mesh rule) only word the
    message of a broken rule.
    """

    kind: str
    node: str
    dim: str
    terms: tuple[tuple[tuple[int, ...], int], ...]
    lo: float = 0
    hi: float = math.inf

    def value(self, bounds) -> int:
        total = 0
        for ids, w in self.terms:
            for i in ids:
                w *= bounds[i]
            total += w
        return total

    def message(self, value: int) -> str:
        hi = int(self.hi) if self.kind == "capacity" else self.hi
        return _RULE_MESSAGES[self.kind].format(
            node=self.node, dim=self.dim, value=value, lo=self.lo, hi=hi
        )


def _validity_rules(table: SlotTable) -> tuple[_Rule, ...]:
    """Compile every validity rule of one (architecture, layer) pair.

    Rules come in check_valid's reporting order: tiling per dim, mesh
    axes, each node's constraints, buffer capacities.  A constraint that
    names a dim the layer lacks compiles to a rule no mapping satisfies.
    """
    layer = table.layer
    nodes = table.arch.nodes
    size_of = dict(table.dims)
    rules = [
        _Rule(
            "cover", "", dim, ((table.select(lambda s: s.dim == dim), 1),), size, size
        )
        for dim, size in table.dims
    ]
    for ni in table.mesh_nodes:
        node = nodes[ni]
        for kind, cap in (
            (SPATIAL_X, node.spatial.mesh_x),
            (SPATIAL_Y, node.spatial.mesh_y),
        ):
            axis = table.select(lambda s: s.node == ni and s.kind == kind)
            rules.append(_Rule("mesh", node.name, kind, ((axis, 1),), hi=cap))
    for ni, node in enumerate(nodes):
        cons = node.constraints
        for dim in cons.keep_dims:
            if dim not in size_of:
                rules.append(_Rule("unknown keep_dims", node.name, dim, (), lo=1))
            elif size_of[dim] > 1:
                here = table.select(lambda s: s.node == ni and s.dim == dim)
                rules.append(_Rule("keep_dims", node.name, dim, ((here, 1),), lo=2))
        for dim, cap in cons.max_tile:
            if dim not in size_of:
                rules.append(_Rule("unknown max_tile", node.name, dim, (), lo=1))
            else:
                tile = table.select(lambda s: s.node >= ni and s.dim == dim)
                rules.append(_Rule("max_tile", node.name, dim, ((tile, 1),), hi=cap))
        if cons.spatial_dims is not None:
            for i in table.select(
                lambda s: s.node == ni
                and s.kind != TEMPORAL
                and s.dim not in cons.spatial_dims
            ):
                dim = table.slots[i].dim
                rules.append(_Rule("spatial_dims", node.name, dim, (((i,), 1),), hi=1))
    # capacity, in bits, bounds the tiles a node retains for its
    # temporal-reuse tensors
    for ni, node in enumerate(nodes):
        cap = node.attributes.get("capacity")
        if cap is None:
            continue
        terms = []
        for role in ROLES:
            if node.directive(role) != TEMPORAL_REUSE:
                continue
            proj = set(layer.einsum.projection(role))
            tile = table.select(
                lambda s: s.dim in proj
                and (s.node >= ni if s.kind == TEMPORAL else s.node > ni)
            )
            terms.append((tile, layer.bits[role]))
        rules.append(_Rule("capacity", node.name, "", tuple(terms), hi=cap))
    return tuple(rules)


def check_valid(
    arch: ArchTree,
    layer: WorkloadLayer,
    mapping: Mapping,
    table: SlotTable | None = None,
) -> Diagnostics:
    """Validate a mapping against the architecture and layer.

    Under-tiling (a dim whose loop bounds multiply to less than its size)
    is an error; over-tiling is accepted as padding and reported as a
    warning, since the counting model then prices the padded iteration
    space honestly.  Pass the slot table the caller already holds (a
    LayerEvaluator's ``slot_table`` or a MappingSpace's ``table``) to reuse
    it and its compiled rules; without one a table is built here, and one
    built for another (arch, layer) is refused with MappingError.
    """
    diag = Diagnostics()
    table = _slot_table(arch, layer, table)
    try:
        bounds = table.bounds_from_mapping(mapping)
    except MappingError as e:
        diag.errors.append(str(e))
        return diag
    for rule in table._rules:
        value = rule.value(bounds)
        if rule.kind == "cover" and value > rule.hi:
            diag.warnings.append(
                f"dim {rule.dim!r}: loop bounds cover {value} iterations, "
                f"padded beyond size {rule.hi}"
            )
        elif value < rule.lo or value > rule.hi:
            diag.errors.append(rule.message(value))
    return diag


def _factorizations(
    n: int,
    k: int,
    caps: tuple[int | None, ...] | None = None,
    tails: tuple[int | None, ...] | None = None,
    memo: dict | None = None,
    dtype=np.int64,
    divisors: dict | None = None,
) -> np.ndarray:
    """All ordered k-tuples of positive ints whose product is n, as the rows
    of a read-only (rows, k) array of ``dtype``.

    Rows come in ascending lexicographic order.  caps[j], when not None,
    bounds entry j; tails (k + 1 long), where tails[j] is not None, bounds
    the product of entries j and after.  Both prune inside the recursion,
    where the n left at depth j is that tail product, so the result is the
    uncapped table filtered by the caps, in the same order.  memo caches
    tables across calls that share it, which must pass one dtype; a cached
    table may be returned to several callers, so every table is read-only.
    divisors caches each n's sorted divisors the same way.
    """
    if caps is None:
        caps = (None,) * k
    if tails is None:
        tails = (None,) * (k + 1)
    if memo is None:
        memo = {}
    if divisors is None:
        divisors = {}
    key = (n, caps, tails)
    out = memo.get(key)
    if out is not None:
        return out
    if tails[0] is not None and n > tails[0]:
        out = np.empty((0, k), dtype)
    elif k == 0:
        out = np.empty((1 if n == 1 else 0, 0), dtype)
    else:
        # (d, first row, end row, suffix table) of each d with suffixes
        parts = []
        rows = 0
        if k == 1:
            ds = [n]
        elif n in divisors:
            ds = divisors[n]
        else:
            ds = divisors[n] = sorted(_divisors(n))
        for d in ds:
            if caps[0] is not None and d > caps[0]:
                break
            rest = _factorizations(
                n // d, k - 1, caps[1:], tails[1:], memo, dtype, divisors
            )
            if len(rest):
                parts.append((d, rows, rows + len(rest), rest))
                rows += len(rest)
        out = np.empty((rows, k), dtype)
        for d, start, end, rest in parts:
            out[start:end, 0] = d
            out[start:end, 1:] = rest
    out.flags.writeable = False
    memo[key] = out
    return out


_TRIAL_LIMIT = 1 << 16


def _divisors(n: int) -> list[int]:
    """Divisors of n, built from its prime factors.

    Trial division stops at the square root of what is left, so a size with
    small factors costs little however large it is.  It tries no factor
    above 2**16: what is left by then is prime if it is below 2**32, and a
    larger cofactor is refused rather than searched for hours.
    """
    size = n
    ds = [1]
    p = 2
    while p * p <= n:
        if p > _TRIAL_LIMIT:
            raise MappingError(
                f"cannot factor dim size {size}: {n} is left after trial "
                f"division up to {_TRIAL_LIMIT}"
            )
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            ds = [d * p**j for d in ds for j in range(e + 1)]
        p += 1
    return ds if n == 1 else ds + [d * n for d in ds]


def _factors(choices: np.ndarray, bases: list, own: list) -> np.ndarray:
    """(row, entry) factors of some rows of one dim's choices: the product
    of each row's entries at each chain entry's slots of the dim, built
    along the chain as CountPlan.products builds products over bounds.
    Entry k extends entry bases[k] (None for none) by the choice columns
    own[k].  Each row's factors are one row of the result, so a table built
    over all of a dim's choices is gathered by copying rows."""
    out = np.empty((len(own), len(choices)), choices.dtype)
    for k, (base, cols) in enumerate(zip(bases, own)):
        row = 1 if base is None else out[base]
        for pos in cols:
            row = row * choices[:, pos]
        out[k] = row
    return np.ascontiguousarray(out.T)


class MappingSpace:
    """Indexable space of exact-tiling mappings for one (arch, layer) pair.

    For each dim the factorizations of its size across the eligible slots
    are tabulated, pruned while they are generated: spatial slots are
    capped at their mesh axis, and each max_tile window caps a tail product
    of the dim's slots.  A mapping index is a mixed-radix number over the
    per-dim tables, so the space supports exhaustive iteration and seeded
    uniform sampling without replacement.  ``table`` shares a slot table
    (and its compiled rules) the caller already built for the same pair,
    as search shares its LayerEvaluator's; one built for another pair is
    refused.
    """

    MAX_PER_DIM = 2_000_000

    def __init__(
        self, arch: ArchTree, layer: WorkloadLayer, table: SlotTable | None = None
    ):
        self.table = _slot_table(arch, layer, table)
        rules = self.table._rules
        # the rules that bind one dim prune its factorizations: a mesh axis
        # caps each of its slots, a spatial_dims rule fixes its slot at 1,
        # and a max_tile window caps the product of the dim's slots in it
        # (each of these rules has one product term, terms[0])
        slot_cap: dict[int, int] = {}
        fixed: set[int] = set()
        tile_rules: dict[str, list[_Rule]] = {}
        for r in rules:
            if r.kind == "mesh":
                slot_cap.update(dict.fromkeys(r.terms[0][0], r.hi))
            elif r.kind == "spatial_dims":
                fixed.update(r.terms[0][0])
            elif r.kind == "max_tile":
                tile_rules.setdefault(r.dim, []).append(r)
        # every mapping of the space tiles each dim exactly within these
        # caps; bounds_ok checks the rest, which couple dims (mesh axes), pin
        # one node's loops (keep_dims), couple tensors (capacity) or name a
        # dim the layer lacks
        self._residual = tuple(
            r for r in rules if r.kind not in ("cover", "spatial_dims", "max_tile")
        )
        # Under exact tiling a subset product is at most the MAC count and a
        # rule value at most its weight sum times it; past int64 the tables
        # and blocks hold Python ints instead, so no product can wrap.
        macs = math.prod(size for _, size in self.table.dims)
        weight = max((sum(w for _, w in r.terms) for r in self._residual), default=1)
        self._dtype = np.int64 if max(weight, 1) * macs < 2**63 else object

        self.dim_slots: dict[str, list[int]] = {}
        self.dim_choices: dict[str, np.ndarray] = {}
        # one table for this build: dims with equal sizes and slot caps
        # (M and K of a square matvec) share their factorizations, and
        # every dim the divisors of the sizes it reaches
        memo: dict = {}
        divisors: dict = {}
        for cover in (r for r in rules if r.kind == "cover"):
            dim, size = cover.dim, cover.lo
            slot_ids = [i for i in cover.terms[0][0] if i not in fixed]
            caps = tuple(slot_cap.get(i) for i in slot_ids)
            # a max_tile window covers the dim's slots at its node and
            # below, a suffix of slot_ids (slot ids are node-major)
            tails = [None] * (len(slot_ids) + 1)
            for r in tile_rules.get(dim, ()):
                j = sum(sid not in r.terms[0][0] for sid in slot_ids)
                tails[j] = r.hi if tails[j] is None else min(tails[j], r.hi)
            choices = _factorizations(
                size, len(slot_ids), caps, tuple(tails), memo, self._dtype, divisors
            )
            if len(choices) > self.MAX_PER_DIM:
                raise MappingError(
                    f"mapping space for dim {dim!r} exceeds "
                    f"{self.MAX_PER_DIM} factorizations"
                )
            self.dim_slots[dim] = slot_ids
            self.dim_choices[dim] = choices
        # per slot id: (dim number, column in the dim's choices), or None
        # for a slot no dim varies, which stays 1
        self._slot_pos: list = [None] * len(self.table)
        for j, (dim, _) in enumerate(self.table.dims):
            for pos, i in enumerate(self.dim_slots[dim]):
                self._slot_pos[i] = (j, pos)
        self.radices = [len(self.dim_choices[d]) for d, _ in self.table.dims]
        self.total = math.prod(self.radices)

    def bounds_ok(self, bounds: list[int]) -> bool:
        """check_valid's verdict on bounds this space generated."""
        return all(r.lo <= r.value(bounds) <= r.hi for r in self._residual)

    def _digits(self, idx: np.ndarray) -> list[np.ndarray]:
        """Each index's choice of each dim, dims in layer order; the last
        dim's digit varies fastest."""
        digits = []
        rem = idx
        for radix in self.radices[:0:-1]:
            q = rem // radix
            digits.append((rem - q * radix).astype(np.intp, copy=False))
            rem = q
        digits.append(rem.astype(np.intp, copy=False))
        return digits[::-1]

    def _columns(self, idx: np.ndarray) -> np.ndarray:
        """Bounds columns of the indices: ``cols[s]`` holds slot s's bound
        of each; slots no dim varies are 1."""
        cols = np.ones((len(self.table), len(idx)), self._dtype)
        for (dim, _), digit in zip(self.table.dims, self._digits(idx)):
            cols[self.dim_slots[dim]] = self.dim_choices[dim].take(digit, 0).T
        return cols

    def bounds_at(self, index: int) -> list[int]:
        """The bounds of one index, decoded in Python as _columns decodes a
        block: the last dim's digit varies fastest."""
        try:
            index = operator.index(index)
        except TypeError:
            raise MappingError(
                f"mapping index must be an integer, got {index!r}"
            ) from None
        if not 0 <= index < self.total:
            raise MappingError(
                f"mapping index must lie in [0, {self.total}), got {index}"
            )
        bounds = [1] * len(self.table)
        for (dim, _), radix in zip(self.table.dims[::-1], self.radices[::-1]):
            index, digit = divmod(index, radix)
            for i, b in zip(self.dim_slots[dim], self.dim_choices[dim][digit].tolist()):
                bounds[i] = b
        return bounds

    def _scan_layout(self, subsets, n: int):
        """How a scan of n indices prices ``subsets`` and the residual rules.

        The chain is the subsets, then each rule term as a product from
        scratch.  A dim is tabulated when radix * m + n * s < n * m, for m
        multiplies on its slots along the chain and s chain entries.
        Returns, by dim number, the dim's factor table (None for a dim whose
        factors are built per block), the chain's bases, each dim's choice
        columns per entry (see _factors), and each rule as (lo, hi, (entry,
        weight) per term).
        """
        terms = [(None, ids) for r in self._residual for ids, _ in r.terms]
        chain = [*subsets, *terms]
        # own[j][k]: the columns of dim j's choices among entry k's extras
        own = [[[] for _ in chain] for _ in self.radices]
        for k, (_, extra) in enumerate(chain):
            for i in extra:
                at = self._slot_pos[i]
                if at is not None:
                    own[at[0]][k].append(at[1])
        s = len(chain)
        bases = [base for base, _ in chain]
        tables = []
        for (dim, _), radix, mine in zip(self.table.dims, self.radices, own):
            m = sum(map(len, mine))
            if radix * m + n * s < n * m:
                tables.append(_factors(self.dim_choices[dim], bases, mine))
            else:
                tables.append(None)
        entry = iter(range(len(subsets), s))
        checks = [
            (r.lo, r.hi, [(next(entry), w) for _, w in r.terms]) for r in self._residual
        ]
        return tables, bases, own, checks

    def scan(self, indices, subsets=()):
        """Yield, per block of SCAN_BLOCK indices, the ones bounds_ok accepts
        (in the given order) and their products over ``subsets``, a chain of
        (base, extra) as CountPlan.subsets holds it: ``products[k]`` holds
        of each kept index what CountPlan.products gives for subset k on its
        bounds_at.  Indices decode as in bounds_at; an array from draw_array
        is scanned as it is, with no conversion.  An index outside the space
        is refused with MappingError before any block is priced.

        A subset's product, and each term of a residual rule, factors into
        one integer per dim: the product of the dim's chosen factorization
        at the subset's slots of the dim.  _factors builds these factors
        for any rows of a dim's choices.  A dim is tabulated, its factors
        built once for every choice and gathered by each index's digit, when
        that is less work than building them from each block's chosen rows
        (see _scan_layout).  Either way each block multiplies one (index,
        entry) factor matrix per dim, checks the rules on its columns and
        keeps the subsets' columns of the kept indices.  The products are
        exact integers in the space's dtype.
        """
        indices = np.asarray(indices, _index_dtype(self.total))
        if len(indices):
            low, high = int(indices.min()), int(indices.max())
            if low < 0 or high >= self.total:
                raise MappingError(
                    f"scan indices must lie in [0, {self.total}), got {low} to {high}"
                )
        tables, bases, own, checks = self._scan_layout(subsets, len(indices))
        choices = [self.dim_choices[dim] for dim, _ in self.table.dims]
        for start in range(0, len(indices), SCAN_BLOCK):
            idx = indices[start : start + SCAN_BLOCK]
            factors = (
                _factors(rows.take(digit, 0), bases, mine)
                if table is None
                else table.take(digit, 0)
                for digit, table, rows, mine in zip(
                    self._digits(idx), tables, choices, own
                )
            )
            # every layer has a dim, and each factor matrix is a new array
            products = next(factors)
            for f in factors:
                products *= f
            ok = np.ones(len(idx), bool)
            for lo, hi, rule_terms in checks:
                value = 0
                for k, w in rule_terms:
                    value = value + products[:, k] * w
                # a value sums positive products with positive weights, so
                # a bound lo <= 0 or hi = inf holds for every index
                if lo > 0:
                    ok &= value >= lo
                if hi < math.inf:
                    ok &= value <= hi
            keep = np.flatnonzero(ok)
            yield idx.take(keep), products.take(keep, 0)[:, : len(subsets)].T.copy()

    def mapping_at(self, index: int) -> Mapping:
        return self.table.mapping_from_bounds(self.bounds_at(index))

    def draw_array(self, budget: int, seed: int) -> np.ndarray:
        """draw_indices's indices as one array in the scan's index dtype:
        int64, or Python ints for a space past 2**63.  search and
        enumerate_mappings hand it to scan as it is."""
        if self.total == 0 or self.total <= budget:
            return np.arange(self.total, dtype=np.int64)
        return _sample_sorted(self.total, budget, seed)

    def draw_indices(self, budget: int, seed: int) -> list[int]:
        """Deterministic index stream: every index when the space fits the
        budget, otherwise a uniform sample of `budget` distinct indices in
        ascending order.  The sample is the set that
        ``random.Random(seed).sample(range(total), budget)`` picks, drawn in
        one pass, and spaces past 2**63, where that call overflows, are
        sampled by the same rule.  This is draw_array as a list; search and
        enumerate_mappings keep the array from the draw to the scan."""
        return self.draw_array(budget, seed).tolist()


def _index_dtype(total: int):
    """dtype of the indices of a space of `total` mappings."""
    return np.int64 if total <= 2**63 else object


def _sample_sorted(total: int, budget: int, seed: int) -> np.ndarray:
    """sorted(random.Random(seed).sample(range(total), budget)), without a
    Python call per index once total is past the stdlib's small-set size.

    There the stdlib draws ``getrandbits(total.bit_length())`` until it
    has `budget` distinct values below total.  A draw of b bits reads
    ceil(b/32) 32-bit generator outputs, lowest word first, and drops the
    top word's low bits; one getrandbits over many whole words returns the
    same outputs in the same order, so a block of draws is decoded here.
    The sample is returned as an array in the space's index dtype."""
    if budget < 0:
        raise ValueError(f"sample budget must be >= 0, got {budget}")
    index_dtype = _index_dtype(total)
    rng = random.Random(seed)
    setsize = 21
    if budget > 5:
        setsize += 4 ** math.ceil(math.log(budget * 3, 4))
    if total <= setsize:
        # the stdlib shuffles a list here instead
        return np.array(sorted(rng.sample(range(total), budget)), index_dtype)
    bits = total.bit_length()
    words = -(-bits // 32)
    dtype = np.int64 if bits < 64 else object
    accepted = np.empty(0, dtype)
    need = budget
    while True:
        # a draw lands below total with probability over 1/2
        m = (need << bits) // total + need // 32 + 64
        raw = rng.getrandbits(32 * words * m).to_bytes(4 * words * m, "little")
        out = np.frombuffer(raw, "<u4").reshape(m, words)
        value = (out[:, -1] >> (32 * words - bits)).astype(dtype)
        for w in range(words - 2, -1, -1):
            value = (value << 32) | out[:, w].astype(dtype)
        accepted = np.concatenate([accepted, value[value < total]])
        if len(accepted) >= budget:
            head = np.sort(accepted[:budget])
            if (head[1:] != head[:-1]).all():
                return head.astype(index_dtype, copy=False)
        # a repeat is redrawn, so the sample is the first `budget` values
        # in order of first appearance
        _, first = np.unique(accepted, return_index=True)
        if len(first) >= budget:
            head = np.sort(accepted[np.sort(first)[:budget]])
            return head.astype(index_dtype, copy=False)
        need = budget - len(first)


@dataclass(frozen=True)
class MapperConfig:
    objective: str = "energy"
    budget: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise MappingError(
                f"objective must be one of {', '.join(OBJECTIVES)}, "
                f"got {self.objective!r}"
            )
        _check_draw(self.budget, self.seed)


def _check_draw(budget, seed) -> None:
    """Refuse a budget that is not an integer >= 1, and a seed that is not
    an integer: a None seed draws a different sample on every call."""
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise MappingError(f"budget must be an integer >= 1, got {budget!r}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise MappingError(f"seed must be an integer, got {seed!r}")


def enumerate_mappings(
    arch: ArchTree,
    layer: WorkloadLayer,
    budget: int = 1000,
    seed: int = 0,
    table: SlotTable | None = None,
):
    """(index, mapping) pairs of the valid mappings, deterministically and
    lazily; a bad budget or seed is refused here, before any is drawn.
    ``table`` shares a slot table the caller already built for the same
    pair, such as a LayerEvaluator's ``slot_table``."""
    _check_draw(budget, seed)
    space = MappingSpace(arch, layer, table)
    return (
        (idx, space.table.mapping_from_bounds(bounds))
        for kept, _ in space.scan(space.draw_array(budget, seed))
        for idx, bounds in zip(kept.tolist(), space._columns(kept).T.tolist())
    )


def parse_mapping(text: str) -> Mapping:
    """Read a mapping from YAML.

    Format: a `nodes:` map from node name to a list of loop entries, each
    `{dim: M, bound: 4, kind: temporal|spatialX|spatialY}` (kind defaults
    to temporal).
    """
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise MappingError(yaml_error("mapping", exc)) from exc
    if not isinstance(doc, dict):
        raise MappingError("mapping document must be a map")
    body = doc.get("nodes", doc)
    if not isinstance(body, dict):
        raise MappingError("mapping 'nodes' must map node names to loop lists")
    items = []
    for node, loops in body.items():
        if loops is None:
            loops = []
        if not isinstance(loops, list):
            raise MappingError(f"loops of node {node!r} must be a list")
        parsed = []
        for entry in loops:
            if not isinstance(entry, dict):
                raise MappingError(f"loop entry at node {node!r} must be a map")
            extra = set(entry) - {"dim", "bound", "kind"}
            if extra:
                raise MappingError(
                    f"loop entry at node {node!r} has unknown keys {sorted(extra)}"
                )
            if "dim" not in entry or "bound" not in entry:
                raise MappingError(
                    f"loop entry at node {node!r} needs 'dim' and 'bound'"
                )
            bound = entry["bound"]
            if not isinstance(bound, int) or isinstance(bound, bool):
                raise MappingError(
                    f"loop bound at node {node!r} must be an integer"
                )
            parsed.append(
                Loop(str(entry["dim"]), bound, entry.get("kind", TEMPORAL))
            )
        items.append((str(node), tuple(parsed)))
    return Mapping(tuple(items))


def serialize_mapping(mapping: Mapping) -> str:
    return yaml.dump({"nodes": mapping.to_doc()}, Dumper=YAML_DUMPER, sort_keys=False)
