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
import random
from dataclasses import dataclass, field
from functools import reduce

import yaml

from .archspec import (
    BYPASS,
    COALESCE,
    NO_COALESCE,
    TEMPORAL_REUSE,
    ArchError,
    ArchTree,
)
from .workload import ROLES, WorkloadLayer

TEMPORAL = "temporal"
SPATIAL_X = "spatialX"
SPATIAL_Y = "spatialY"
LOOP_KINDS = (TEMPORAL, SPATIAL_X, SPATIAL_Y)

COMPUTE_TENSOR = "all"


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

    def node_loops(self, name: str) -> tuple[Loop, ...]:
        for node, loops in self.loops:
            if node == name:
                return loops
        return ()

    def as_dict(self) -> dict[str, tuple[Loop, ...]]:
        return {node: loops for node, loops in self.loops}


@dataclass(frozen=True)
class Slot:
    """One canonical loop position: a (node, kind, dim) triple."""

    node: int
    kind: str
    dim: str


class SlotTable:
    """Canonical slot universe for one (architecture, layer) pair.

    Slots exist for every workload dim at every node for the temporal kind,
    and at Containers plus the leaf for the spatial kinds.  Loop bounds of
    duplicate (node, kind, dim) loops multiply into one slot bound; absent
    slots default to bound 1 so they drop out of every product.
    """

    def __init__(self, arch: ArchTree, layer: WorkloadLayer):
        self.arch = arch
        self.layer = layer
        self.dims = layer.einsum.dims
        slots: list[Slot] = []
        for ni, node in enumerate(arch.nodes):
            spatial_ok = node.kind == "container" or ni == len(arch.nodes) - 1
            for kind in LOOP_KINDS:
                if kind != TEMPORAL and not spatial_ok:
                    continue
                for dim, _ in self.dims:
                    slots.append(Slot(ni, kind, dim))
        self.slots = tuple(slots)
        self.index = {s: i for i, s in enumerate(self.slots)}
        self._node_names = tuple(n.name for n in arch.nodes)
        # (node name, kind, dim) -> slot id, the lookup a mapping loop needs
        self._slot_of = {
            (self._node_names[s.node], s.kind, s.dim): i
            for i, s in enumerate(self.slots)
        }

    def __len__(self) -> int:
        return len(self.slots)

    def slot_id(self, node: int, kind: str, dim: str) -> int:
        try:
            return self.index[Slot(node, kind, dim)]
        except KeyError:
            raise MappingError(
                f"no loop slot for kind {kind!r} at node "
                f"{self._node_names[node]!r}"
            ) from None

    def bounds_from_mapping(self, mapping: Mapping) -> list[int]:
        bounds = [1] * len(self.slots)
        slot_of = self._slot_of
        for node_name, loops in mapping.loops:
            if node_name not in self.arch.node_index:
                raise MappingError(f"mapping names unknown node {node_name!r}")
            for loop in loops:
                sid = slot_of.get((node_name, loop.kind, loop.dim))
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
        per_node: dict[str, list[Loop]] = {}
        order = {TEMPORAL: 2, SPATIAL_X: 0, SPATIAL_Y: 1}
        dim_rank = {d: i for i, (d, _) in enumerate(self.dims)}
        ranked = sorted(
            range(len(self.slots)),
            key=lambda i: (
                self.slots[i].node,
                order[self.slots[i].kind],
                dim_rank[self.slots[i].dim],
            ),
        )
        for i in ranked:
            if bounds[i] == 1:
                continue
            s = self.slots[i]
            per_node.setdefault(self._node_names[s.node], []).append(
                Loop(s.dim, bounds[i], s.kind)
            )
        return Mapping(tuple((n, tuple(ls)) for n, ls in per_node.items()))


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
    """Compiled access-count rules for one (architecture, layer) pair."""

    entries: tuple[PlanEntry, ...]
    temporal_idx: tuple[int, ...]
    spatial_idx: tuple[int, ...]
    mesh_capacity: int

    def counts(self, bounds: list[int]) -> dict[tuple[str, str, str], int]:
        out: dict[tuple[str, str, str], int] = {}
        for e in self.entries:
            c = 1
            for i in e.idx_a:
                c *= bounds[i]
            if e.mode == "diff":
                d = 1
                for i in e.idx_b:
                    d *= bounds[i]
                c -= d
            key = (e.node, e.tensor, e.action)
            out[key] = out.get(key, 0) + c
        return out

    def cycles(self, bounds: list[int]) -> int:
        c = 1
        for i in self.temporal_idx:
            c *= bounds[i]
        return c

    def utilization(self, bounds: list[int]) -> float:
        used = 1
        for i in self.spatial_idx:
            used *= bounds[i]
        return used / self.mesh_capacity if self.mesh_capacity else 1.0


def _role_chain_entries(
    table: SlotTable, role: str, entries: list[PlanEntry]
) -> None:
    """Compile the demand-propagation walk for one operand or output tensor.

    Operands: demand starts at the leaf as the full slot set and walks up.
    Crossing a node that reuses the tensor spatially drops that node's
    spatial slots over dims the tensor does not index (one multicast or one
    wired reduction serves the whole extent).  A temporal-reuse node serves
    the collapsed demand (reads for operands, write/update for outputs) and
    replaces it with its tile-refill traffic; coalescing packs everything
    below into one emission per tile window; non-coalescing converts each
    demanded access and passes it through.
    """
    arch = table.arch
    layer = table.layer
    nodes = arch.nodes
    leaf_i = len(nodes) - 1
    proj = set(layer.einsum.projection(role))
    is_output = role == "Outputs"

    def relevant(s: Slot) -> bool:
        return s.dim in proj

    all_slots = frozenset(range(len(table.slots)))

    def sel(pred) -> frozenset[int]:
        return frozenset(i for i in all_slots if pred(table.slots[i]))

    def tile_demand(t: int) -> frozenset[int]:
        return sel(
            lambda s: (s.kind != TEMPORAL and s.node <= t)
            or (s.kind == TEMPORAL and relevant(s) and s.node < t)
        )

    def add(node_i: int, action: str, idx: frozenset[int]):
        entries.append(
            PlanEntry(
                nodes[node_i].name,
                role,
                action,
                "prod",
                tuple(sorted(idx)),
            )
        )

    def add_diff(node_i: int, action: str, a: frozenset[int], b: frozenset[int]):
        entries.append(
            PlanEntry(
                nodes[node_i].name,
                role,
                action,
                "diff",
                tuple(sorted(a)),
                tuple(sorted(b)),
            )
        )

    def apply_directive(t: int, demand: frozenset[int]) -> frozenset[int]:
        d = nodes[t].directive(role)
        if d == BYPASS:
            return demand
        if d == NO_COALESCE:
            add(t, "convert", demand)
            return demand
        if d == COALESCE:
            verb = nodes[t].attributes.get("action_verb", "compute")
            add(t, str(verb), demand)
            if is_output:
                return tile_demand(t)
            return sel(
                lambda s: (s.kind != TEMPORAL and s.node <= t) or relevant(s)
            )
        # temporal reuse
        if is_output:
            rel_in = frozenset(i for i in demand if relevant(table.slots[i]))
            add(t, "write", rel_in)
            add_diff(t, "update", demand, rel_in)
        else:
            add(t, "read", demand)
            add(t, "fill", tile_demand(t))
        return tile_demand(t)

    # leaf consumption or emission
    leaf_dir = nodes[leaf_i].directive(role)
    if leaf_dir == TEMPORAL_REUSE:
        if is_output:
            rel_all = sel(relevant)
            add(leaf_i, "write", rel_all)
            add_diff(leaf_i, "update", all_slots, rel_all)
        else:
            add(leaf_i, "fill", tile_demand(leaf_i))
        demand = tile_demand(leaf_i)
    else:
        demand = apply_directive(leaf_i, all_slots)

    # walk upward; collapse at each crossed mesh, then apply the parent's
    # directive
    for m in range(leaf_i, 0, -1):
        if nodes[m].reuses_spatially(role):
            demand = frozenset(
                i
                for i in demand
                if not (
                    table.slots[i].node == m
                    and table.slots[i].kind != TEMPORAL
                    and not relevant(table.slots[i])
                )
            )
        demand = apply_directive(m - 1, demand)


def build_count_plan(arch: ArchTree, layer: WorkloadLayer) -> tuple[SlotTable, CountPlan]:
    table = SlotTable(arch, layer)
    entries: list[PlanEntry] = []
    leaf_i = len(arch.nodes) - 1
    all_idx = tuple(range(len(table.slots)))
    entries.append(
        PlanEntry(arch.leaf.name, COMPUTE_TENSOR, "compute", "prod", all_idx)
    )
    for role in ROLES:
        _role_chain_entries(table, role, entries)
    temporal_idx = tuple(
        i for i, s in enumerate(table.slots) if s.kind == TEMPORAL
    )
    spatial_idx = tuple(
        i for i, s in enumerate(table.slots) if s.kind != TEMPORAL
    )
    capacity = 1
    for ni, node in enumerate(arch.nodes):
        if node.kind == "container" or ni == leaf_i:
            capacity *= node.spatial.mesh_x * node.spatial.mesh_y
    return table, CountPlan(
        tuple(entries), temporal_idx, spatial_idx, capacity
    )


@dataclass
class Diagnostics:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


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
    space honestly.
    """
    diag = Diagnostics()
    if table is None:
        table = SlotTable(arch, layer)
    try:
        bounds = table.bounds_from_mapping(mapping)
    except MappingError as e:
        diag.errors.append(str(e))
        return diag

    nodes = arch.nodes
    leaf_i = len(nodes) - 1
    for node_name, loops in mapping.loops:
        ni = arch.index(node_name)
        node = nodes[ni]
        spatial_ok = node.kind == "container" or ni == leaf_i
        for loop in loops:
            if loop.kind != TEMPORAL and not spatial_ok:
                diag.errors.append(
                    f"spatial loop over {loop.dim!r} at {node_name!r}: spatial "
                    "loops are only allowed at containers and the compute leaf"
                )

    # tiling completeness per dim
    for dim, size in table.dims:
        prod = 1
        for i, s in enumerate(table.slots):
            if s.dim == dim:
                prod *= bounds[i]
        if prod < size:
            diag.errors.append(
                f"dim {dim!r}: loop bounds cover {prod} of {size} iterations"
            )
        elif prod > size:
            diag.warnings.append(
                f"dim {dim!r}: loop bounds cover {prod} iterations, padded "
                f"beyond size {size}"
            )

    # mesh capacity per axis
    for ni, node in enumerate(nodes):
        if node.kind != "container" and ni != leaf_i:
            continue
        for kind, cap in ((SPATIAL_X, node.spatial.mesh_x), (SPATIAL_Y, node.spatial.mesh_y)):
            used = 1
            for i, s in enumerate(table.slots):
                if s.node == ni and s.kind == kind:
                    used *= bounds[i]
            if used > cap:
                diag.errors.append(
                    f"node {node.name!r}: {kind} loops need {used} instances "
                    f"but the mesh axis has {cap}"
                )

    # node constraints
    for ni, node in enumerate(nodes):
        cons = node.constraints
        if cons is None:
            continue
        size_of = dict(table.dims)
        for dim in cons.keep_dims:
            if dim not in size_of:
                diag.errors.append(
                    f"node {node.name!r}: keep_dims names unknown dim {dim!r}"
                )
                continue
            if size_of[dim] == 1:
                continue
            prod = 1
            for i, s in enumerate(table.slots):
                if s.node == ni and s.dim == dim:
                    prod *= bounds[i]
            if prod == 1:
                diag.errors.append(
                    f"node {node.name!r}: constraint keep_dims requires a "
                    f"loop over {dim!r} here"
                )
        for dim, cap in cons.max_tile:
            if dim not in size_of:
                diag.errors.append(
                    f"node {node.name!r}: max_tile names unknown dim {dim!r}"
                )
                continue
            tile = 1
            for i, s in enumerate(table.slots):
                if s.node >= ni and s.dim == dim:
                    tile *= bounds[i]
            if tile > cap:
                diag.errors.append(
                    f"node {node.name!r}: tile of dim {dim!r} is {tile}, "
                    f"max_tile allows {cap}"
                )
        if cons.spatial_dims is not None:
            allowed = set(cons.spatial_dims)
            for i, s in enumerate(table.slots):
                if s.node == ni and s.kind != TEMPORAL and bounds[i] > 1:
                    if s.dim not in allowed:
                        diag.errors.append(
                            f"node {node.name!r}: spatial loops over {s.dim!r} "
                            "are not permitted by the spatial_dims constraint"
                        )

    # buffer capacity, when declared (capacity in bits)
    for ni, node in enumerate(nodes):
        cap = node.attributes.get("capacity")
        if cap is None:
            continue
        total_bits = 0
        for role in ROLES:
            if node.directive(role) != TEMPORAL_REUSE:
                continue
            proj = set(layer.einsum.projection(role))
            elems = 1
            for i, s in enumerate(table.slots):
                if s.dim not in proj:
                    continue
                if (s.kind == TEMPORAL and s.node >= ni) or (
                    s.kind != TEMPORAL and s.node > ni
                ):
                    elems *= bounds[i]
            total_bits += elems * layer.bits[role]
        if total_bits > cap:
            diag.errors.append(
                f"node {node.name!r}: retained tiles need {total_bits} bits "
                f"but capacity is {int(cap)}"
            )
    return diag


def utilization(arch: ArchTree, layer: WorkloadLayer, mapping: Mapping) -> float:
    table, plan = build_count_plan(arch, layer)
    return plan.utilization(table.bounds_from_mapping(mapping))


def analyze_access_counts(
    arch: ArchTree, layer: WorkloadLayer, mapping: Mapping
) -> dict[tuple[str, str, str], int]:
    """Closed-form access counts keyed by (node, tensor, action)."""
    table, plan = build_count_plan(arch, layer)
    return plan.counts(table.bounds_from_mapping(mapping))


def _factorizations(
    n: int,
    k: int,
    caps: tuple[int | None, ...] | None = None,
    memo: dict | None = None,
) -> list[tuple[int, ...]]:
    """All ordered k-tuples of positive ints whose product is n.

    Tuples come in ascending lexicographic order.  caps[j], when not None,
    bounds entry j; capped-out divisors are pruned inside the recursion, so
    the result is the uncapped list filtered by the caps, in the same order.
    memo caches suffix results across calls that share it; the returned
    lists may be shared with it and must not be mutated.
    """
    if caps is None:
        caps = (None,) * k
    if memo is None:
        memo = {}
    key = (n, caps)
    out = memo.get(key)
    if out is not None:
        return out
    if k == 0:
        out = [()] if n == 1 else []
    elif k == 1:
        out = [(n,)] if caps[0] is None or n <= caps[0] else []
    else:
        cap, rest_caps = caps[0], caps[1:]
        out = []
        for d in sorted(_divisors(n)):
            if cap is not None and d > cap:
                break
            for rest in _factorizations(n // d, k - 1, rest_caps, memo):
                out.append((d,) + rest)
    memo[key] = out
    return out


def _divisors(n: int) -> list[int]:
    ds = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            ds.append(i)
            if i != n // i:
                ds.append(n // i)
        i += 1
    return ds


class MappingSpace:
    """Indexable space of exact-tiling mappings for one (arch, layer) pair.

    For each dim the factorizations of its size across the eligible slots
    are tabulated (spatial slots capped at their mesh axis while the
    factorizations are generated, max_tile caps applied per dim); a mapping
    index is a mixed-radix number over the
    per-dim tables, so the space supports exhaustive iteration and seeded
    uniform sampling without replacement.
    """

    MAX_PER_DIM = 2_000_000

    def __init__(self, arch: ArchTree, layer: WorkloadLayer):
        self.table = SlotTable(arch, layer)
        self.arch = arch
        self.layer = layer
        nodes = arch.nodes
        leaf_i = len(nodes) - 1

        def axis_cap(s: Slot) -> int | None:
            node = nodes[s.node]
            if s.kind == TEMPORAL:
                return None
            if node.kind != "container" and s.node != leaf_i:
                return 0
            cap = node.spatial.mesh_x if s.kind == SPATIAL_X else node.spatial.mesh_y
            cons = node.constraints
            if cons is not None and cons.spatial_dims is not None:
                if s.dim not in cons.spatial_dims:
                    return 0
            return cap

        self.dim_slots: dict[str, list[int]] = {}
        self.dim_choices: dict[str, list[tuple[int, ...]]] = {}
        # one table for this build: dims with equal sizes and slot caps
        # (M and K of a square matvec) share their factorizations
        memo: dict = {}
        for dim, size in self.table.dims:
            slot_ids = []
            caps = []
            for i, s in enumerate(self.table.slots):
                if s.dim != dim:
                    continue
                cap = axis_cap(s)
                if cap == 0:
                    continue
                slot_ids.append(i)
                caps.append(cap)
            # max_tile binds a single dim, so it prunes here: the tile held
            # at a node is the product of the dim's bounds at or below it
            tile_windows = []
            for ni, node in enumerate(nodes):
                t_cap = node.constraints.max_tile_map.get(dim)
                if t_cap is None:
                    continue
                pos = tuple(
                    j
                    for j, sid in enumerate(slot_ids)
                    if self.table.slots[sid].node >= ni
                )
                tile_windows.append((pos, int(t_cap)))
            choices = []
            for fac in _factorizations(size, len(slot_ids), tuple(caps), memo):
                if any(
                    math.prod(fac[j] for j in pos) > t_cap
                    for pos, t_cap in tile_windows
                ):
                    continue
                choices.append(fac)
            if len(choices) > self.MAX_PER_DIM:
                raise MappingError(
                    f"mapping space for dim {dim!r} exceeds "
                    f"{self.MAX_PER_DIM} factorizations"
                )
            self.dim_slots[dim] = slot_ids
            self.dim_choices[dim] = choices
        self.radices = [len(self.dim_choices[d]) for d, _ in self.table.dims]
        self.total = reduce(lambda a, b: a * b, self.radices, 1) if all(
            self.radices
        ) else 0

        # residual validity checks not expressible per dim: mesh axes and
        # keep_dims couple dims, capacity couples tensors
        self._axis_checks: list[tuple[tuple[int, ...], int]] = []
        self._keep_checks: list[tuple[int, ...]] = []
        self._cap_checks: list[tuple[int, list[tuple[tuple[int, ...], int]]]] = []
        size_of = dict(self.table.dims)
        for ni, node in enumerate(nodes):
            if node.kind == "container" or ni == leaf_i:
                for kind, cap in (
                    (SPATIAL_X, node.spatial.mesh_x),
                    (SPATIAL_Y, node.spatial.mesh_y),
                ):
                    ids = tuple(
                        i
                        for i, s in enumerate(self.table.slots)
                        if s.node == ni and s.kind == kind
                    )
                    if ids:
                        self._axis_checks.append((ids, cap))
            for dim in node.constraints.keep_dims:
                if size_of.get(dim, 1) == 1:
                    continue
                ids = tuple(
                    i
                    for i, s in enumerate(self.table.slots)
                    if s.node == ni and s.dim == dim
                )
                self._keep_checks.append(ids)
            cap = node.attributes.get("capacity")
            if cap is not None:
                groups = []
                for role in ROLES:
                    if node.directive(role) != TEMPORAL_REUSE:
                        continue
                    proj = set(layer.einsum.projection(role))
                    ids = tuple(
                        i
                        for i, s in enumerate(self.table.slots)
                        if s.dim in proj
                        and (
                            (s.kind == TEMPORAL and s.node >= ni)
                            or (s.kind != TEMPORAL and s.node > ni)
                        )
                    )
                    groups.append((ids, layer.bits[role]))
                if groups:
                    self._cap_checks.append((int(cap), groups))

    def bounds_ok(self, bounds: list[int]) -> bool:
        """Fast equivalent of check_valid for bounds this space generated."""
        for ids, cap in self._axis_checks:
            p = 1
            for i in ids:
                p *= bounds[i]
            if p > cap:
                return False
        for ids in self._keep_checks:
            p = 1
            for i in ids:
                p *= bounds[i]
            if p == 1:
                return False
        for cap, groups in self._cap_checks:
            total = 0
            for ids, bits in groups:
                elems = 1
                for i in ids:
                    elems *= bounds[i]
                total += elems * bits
            if total > cap:
                return False
        return True

    def bounds_at(self, index: int) -> list[int]:
        bounds = [1] * len(self.table.slots)
        rem = index
        for (dim, _), radix in zip(reversed(self.table.dims), reversed(self.radices)):
            rem, chosen = divmod(rem, radix)
            fac = self.dim_choices[dim][chosen]
            for sid, b in zip(self.dim_slots[dim], fac):
                bounds[sid] = b
        return bounds

    def mapping_at(self, index: int) -> Mapping:
        return self.table.mapping_from_bounds(self.bounds_at(index))

    def draw_indices(self, budget: int, seed: int) -> list[int]:
        """Deterministic index stream: exhaustive when the space fits the
        budget, otherwise a seeded uniform sample without replacement,
        returned in ascending order."""
        if self.total == 0:
            return []
        if self.total <= budget:
            return list(range(self.total))
        rng = random.Random(seed)
        return sorted(rng.sample(range(self.total), budget))


@dataclass(frozen=True)
class MapperConfig:
    objective: str = "energy"
    budget: int = 1000
    seed: int = 0
    jobs: int = 1


def enumerate_mappings(
    arch: ArchTree,
    layer: WorkloadLayer,
    budget: int = 1000,
    seed: int = 0,
):
    """Yield (index, mapping) pairs for valid mappings, deterministically."""
    space = MappingSpace(arch, layer)
    table = space.table
    for idx in space.draw_indices(budget, seed):
        bounds = space.bounds_at(idx)
        mapping = table.mapping_from_bounds(bounds)
        if check_valid(arch, layer, mapping, table).ok:
            yield idx, mapping


def parse_mapping(text: str) -> Mapping:
    """Read a mapping from YAML.

    Format: a `nodes:` map from node name to a list of loop entries, each
    `{dim: M, bound: 4, kind: temporal|spatialX|spatialY}` (kind defaults
    to temporal).
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise MappingError(f"mapping YAML parse error: {e}") from e
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
    body = {}
    for node, loops in mapping.loops:
        body[node] = [
            {"dim": l.dim, "bound": l.bound, "kind": l.kind} for l in loops
        ]
    return yaml.safe_dump({"nodes": body}, sort_keys=False)
