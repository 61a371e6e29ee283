"""Container-hierarchy architecture descriptions.

An architecture is an ordered stream of !Component / !Container nodes.  Each
Container encloses every node declared after it, so document order fixes the
hierarchy; the final node is the compute leaf.  Components carry a model
class, attributes and per-tensor reuse directives; Containers only group and
replicate (mesh) the nodes below them.

Reuse directives per tensor: temporal_reuse (holds data across cycles),
coalesce (merges same-value accesses into one backing-store access),
no_coalesce (every use refetches), and the implicit default bypass (the
tensor does not interact with the node).  spatial_reuse names tensors that
are multicast (operands) or reduced (outputs) across a node's mesh instead
of delivered per instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import yaml

from .workload import ROLES, YAML_LOADER, WorkloadLayer, as_integer, yaml_error

TEMPORAL_REUSE = "temporal_reuse"
COALESCE = "coalesce"
NO_COALESCE = "no_coalesce"
BYPASS = "bypass"

DIRECTIVE_KEYS = (TEMPORAL_REUSE, COALESCE, NO_COALESCE)

_NODE_KEYS = {
    "name",
    "class",
    "attributes",
    "temporal_reuse",
    "coalesce",
    "no_coalesce",
    "spatial",
    "spatial_reuse",
    "constraints",
}

# Attributes that must be numeric when present.
NUMERIC_ATTRS = {
    "resolution",
    "e_full_scale",
    "t_read",
    "g_min",
    "g_max",
    "vdd",
    "fom",
    "e_per_bit",
    "width",
    "capacity",
    "e_per_add",
    "e_write",
    "e_mac",
    "clock_period",
    "sample_rate",
    "adc_a0",
    "adc_a1",
    "adc_a2",
    "area",
    "cell_area",
}


class ArchError(ValueError):
    """Malformed architecture document."""


def check_numeric(node: str, key: str, value) -> None:
    """Reject a NUMERIC_ATTRS value that is not a number, is a bool or is
    NaN (a NaN prices every action at NaN); infinities are allowed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise ArchError(
            f"node {node!r}: attribute {key!r} must be numeric, got {value!r}"
        )


def mesh_factor(node: str, key: str, value) -> int:
    """A mesh size or tile bound as an int: an integer >= 1, or a float
    equal to one."""
    n = as_integer(value)
    if n is None or n < 1:
        raise ArchError(
            f"node {node!r}: {key} must be an integer >= 1, got {value!r}"
        )
    return n


@dataclass(frozen=True)
class SpatialSpec:
    """Mesh replication of a node (and everything it encloses)."""

    mesh_x: int = 1
    mesh_y: int = 1
    spatial_reuse: tuple[str, ...] = ()

    def __post_init__(self):
        if self.mesh_x < 1 or self.mesh_y < 1:
            raise ArchError("mesh factors must be >= 1")

    @property
    def mesh(self) -> int:
        return self.mesh_x * self.mesh_y


@dataclass(frozen=True)
class Constraints:
    """Mapper restrictions attached to one node."""

    keep_dims: tuple[str, ...] = ()
    max_tile: tuple[tuple[str, int], ...] = ()
    spatial_dims: tuple[str, ...] | None = None

    @property
    def max_tile_map(self) -> dict[str, int]:
        return dict(self.max_tile)


@dataclass(frozen=True)
class ArchNode:
    """One Component or Container in document order."""

    name: str
    kind: str  # "component" | "container"
    klass: str | None = None
    attributes: dict = field(default_factory=dict)
    temporal_reuse: tuple[str, ...] = ()
    coalesce: tuple[str, ...] = ()
    no_coalesce: tuple[str, ...] = ()
    spatial: SpatialSpec = field(default_factory=SpatialSpec)
    constraints: Constraints = field(default_factory=Constraints)

    def __post_init__(self):
        if self.kind not in ("component", "container"):
            raise ArchError(f"node {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "component" and not self.klass:
            raise ArchError(f"component {self.name!r} missing a class")
        if self.kind == "container" and self.klass:
            raise ArchError(f"container {self.name!r} must not declare a class")
        for key in DIRECTIVE_KEYS:
            for role in getattr(self, key):
                if role not in ROLES:
                    raise ArchError(
                        f"node {self.name!r}: unknown tensor {role!r} in {key}"
                    )
        for role in self.spatial.spatial_reuse:
            if role not in ROLES:
                raise ArchError(
                    f"node {self.name!r}: unknown tensor {role!r} in spatial_reuse"
                )

    def directive(self, role: str) -> str:
        """Resolved temporal directive for one tensor role."""
        if role in self.temporal_reuse:
            return TEMPORAL_REUSE
        if role in self.coalesce:
            return COALESCE
        if role in self.no_coalesce:
            return NO_COALESCE
        return BYPASS

    def reuses_spatially(self, role: str) -> bool:
        return role in self.spatial.spatial_reuse


@dataclass(frozen=True)
class ArchTree:
    """Document-ordered node list; the last node is the compute leaf."""

    nodes: tuple[ArchNode, ...]
    #: node name -> position in ``nodes``
    node_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.nodes:
            raise ArchError("architecture has no nodes")
        node_index: dict[str, int] = {}
        for i, node in enumerate(self.nodes):
            if node.name in node_index:
                raise ArchError(f"duplicate node name {node.name!r}")
            node_index[node.name] = i
        object.__setattr__(self, "node_index", node_index)

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self):
        return len(self.nodes)

    @property
    def leaf(self) -> ArchNode:
        return self.nodes[-1]

    def node(self, name: str) -> ArchNode:
        return self.nodes[self.node_index[name]]

    def components(self) -> tuple[ArchNode, ...]:
        return tuple(n for n in self.nodes if n.kind == "component")


def instances(tree: ArchTree, name: str) -> int:
    """Physical copies of a node: its own mesh times every enclosing mesh.

    Only Containers enclose later nodes; a meshed Component replicates just
    itself (a bank), so its mesh never multiplies its siblings.
    """
    idx = tree.node_index[name]
    count = tree.nodes[idx].spatial.mesh
    for node in tree.nodes[:idx]:
        if node.kind == "container":
            count *= node.spatial.mesh
    return count


def _as_name_tuple(node_name: str, key: str, raw) -> tuple[str, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ArchError(f"node {node_name!r}: {key} must be a list of names")
    return tuple(str(r) for r in raw)


def _node_from_doc(kind: str, doc: dict) -> ArchNode:
    name = doc.get("name")
    if not name:
        raise ArchError(f"{kind} document missing a name")
    unknown = set(doc) - _NODE_KEYS
    if unknown:
        raise ArchError(f"node {name!r}: unknown keys {sorted(unknown)}")

    spatial_raw = doc.get("spatial") or {}
    if not isinstance(spatial_raw, dict) or set(spatial_raw) - {"meshX", "meshY"}:
        raise ArchError(f"node {name!r}: spatial takes meshX/meshY only")
    spatial = SpatialSpec(
        mesh_x=mesh_factor(name, "meshX", spatial_raw.get("meshX", 1)),
        mesh_y=mesh_factor(name, "meshY", spatial_raw.get("meshY", 1)),
        spatial_reuse=_as_name_tuple(name, "spatial_reuse", doc.get("spatial_reuse")),
    )

    cons_raw = doc.get("constraints") or {}
    if not isinstance(cons_raw, dict) or set(cons_raw) - {"keep_dims", "max_tile", "spatial_dims"}:
        raise ArchError(f"node {name!r}: bad constraints block")
    max_tile = cons_raw.get("max_tile") or {}
    if not isinstance(max_tile, dict):
        raise ArchError(f"node {name!r}: max_tile must map dims to bounds")
    spatial_dims = cons_raw.get("spatial_dims")
    constraints = Constraints(
        keep_dims=_as_name_tuple(name, "keep_dims", cons_raw.get("keep_dims")),
        max_tile=tuple(
            (str(d), mesh_factor(name, f"max_tile of {d!r}", b))
            for d, b in max_tile.items()
        ),
        spatial_dims=None
        if spatial_dims is None
        else _as_name_tuple(name, "spatial_dims", spatial_dims),
    )

    attributes = doc.get("attributes") or {}
    if not isinstance(attributes, dict):
        raise ArchError(f"node {name!r}: attributes must be a mapping")
    klass = doc.get("class")
    if klass is not None and not isinstance(klass, str):
        raise ArchError(f"node {name!r}: class must be a name, got {klass!r}")

    return ArchNode(
        name=str(name),
        kind=kind,
        klass=klass,
        attributes=dict(attributes),
        temporal_reuse=_as_name_tuple(name, "temporal_reuse", doc.get("temporal_reuse")),
        coalesce=_as_name_tuple(name, "coalesce", doc.get("coalesce")),
        no_coalesce=_as_name_tuple(name, "no_coalesce", doc.get("no_coalesce")),
        spatial=spatial,
        constraints=constraints,
    )


def _make_tag(kind):
    def construct(loader, node):
        data = loader.construct_mapping(node, deep=True)
        data["__kind__"] = kind
        return data

    return construct


def _arch_loader(base: type) -> type:
    """A subclass of the YAML loader ``base`` that reads the !Component and
    !Container tags."""

    class Loader(base):
        pass

    Loader.add_constructor("!Component", _make_tag("component"))
    Loader.add_constructor("!Container", _make_tag("container"))
    return Loader


_ArchLoader = _arch_loader(YAML_LOADER)


def parse_arch(text: str) -> ArchTree:
    """Parse a YAML stream of !Component/!Container documents into a tree.

    An untagged document holding a 'defaults' mapping supplies attribute
    defaults that are merged into every node (node values win).
    """
    try:
        docs = list(yaml.load_all(text, Loader=_ArchLoader))
    except yaml.YAMLError as exc:
        raise ArchError(yaml_error("architecture", exc)) from exc

    flat = []
    for doc in docs:
        if doc is None:
            continue
        if isinstance(doc, list):
            flat.extend(doc)
        else:
            flat.append(doc)

    defaults: dict = {}
    nodes = []
    for doc in flat:
        if isinstance(doc, dict) and "__kind__" in doc:
            kind = doc.pop("__kind__")
            nodes.append(_node_from_doc(kind, doc))
        elif isinstance(doc, dict) and set(doc) == {"defaults"}:
            if not isinstance(doc["defaults"], dict):
                raise ArchError("'defaults' must be a mapping")
            defaults.update(doc["defaults"])
        else:
            raise ArchError(
                "architecture documents must be tagged !Component or !Container "
                "(or a 'defaults' mapping)"
            )
    return resolve_attributes(ArchTree(nodes=tuple(nodes)), defaults)


def resolve_attributes(tree: ArchTree, defaults: dict) -> ArchTree:
    """Merge attribute defaults into every node; node-local values win.

    Every merged attribute named in NUMERIC_ATTRS must be a number.
    """
    new_nodes = []
    for node in tree.nodes:
        merged = {**defaults, **node.attributes}
        for key, value in merged.items():
            if key in NUMERIC_ATTRS:
                check_numeric(node.name, key, value)
        new_nodes.append(replace(node, attributes=merged))
    return ArchTree(nodes=tuple(new_nodes))


def serialize_arch(tree: ArchTree) -> str:
    """Emit the tree back to the tagged YAML stream form."""
    parts = []
    for node in tree.nodes:
        payload: dict = {"name": node.name}
        if node.klass:
            payload["class"] = node.klass
        if node.attributes:
            payload["attributes"] = dict(node.attributes)
        for key in DIRECTIVE_KEYS:
            roles = getattr(node, key)
            if roles:
                payload[key] = list(roles)
        mesh = {"meshX": node.spatial.mesh_x, "meshY": node.spatial.mesh_y}
        if any(n != 1 for n in mesh.values()):
            payload["spatial"] = {k: n for k, n in mesh.items() if n != 1}
        if node.spatial.spatial_reuse:
            payload["spatial_reuse"] = list(node.spatial.spatial_reuse)
        cons = node.constraints
        block = {"keep_dims": list(cons.keep_dims), "max_tile": dict(cons.max_tile)}
        block = {k: v for k, v in block.items() if v}
        if cons.spatial_dims is not None:
            block["spatial_dims"] = list(cons.spatial_dims)
        if block:
            payload["constraints"] = block
        tag = "!Component" if node.kind == "component" else "!Container"
        parts.append(f"--- {tag}\n" + yaml.safe_dump(payload, sort_keys=False))
    return "".join(parts)


def validate(tree: ArchTree, layer: WorkloadLayer | None = None) -> list[str]:
    """Structural diagnostics; an empty list means the tree is usable."""
    diags = []
    leaf = tree.leaf
    if leaf.kind != "component":
        diags.append("compute leaf absent: the innermost node must be a Component")

    for node in tree.nodes:
        listed: dict[str, list[str]] = {}
        for key in DIRECTIVE_KEYS:
            for role in getattr(node, key):
                listed.setdefault(role, []).append(key)
        for role, keys in listed.items():
            if len(keys) > 1:
                diags.append(
                    f"node {node.name!r}: {role} listed under {keys}; "
                    "a tensor takes exactly one directive per node"
                )
        if node.kind == "container" and listed:
            diags.append(
                f"container {node.name!r} declares temporal directives; "
                "containers only group and replicate"
            )

    # Every consumer of a tensor needs a temporal-reuse ancestor to act as its
    # backing store.  The compute leaf consumes all three tensors; the leaf's
    # own temporal_reuse backs its consumption (pre-loaded data).
    leaf_idx = len(tree.nodes) - 1
    for role in ROLES:
        tr_positions = [
            i for i, n in enumerate(tree.nodes) if n.directive(role) == TEMPORAL_REUSE
        ]
        consumers = [
            (i, n.name)
            for i, n in enumerate(tree.nodes)
            if n.directive(role) in (COALESCE, NO_COALESCE)
        ]
        if leaf.kind == "component" and leaf.directive(role) == BYPASS:
            consumers.append((leaf_idx, leaf.name))
        for idx, name in consumers:
            if not any(p < idx for p in tr_positions) and not (
                idx == leaf_idx and leaf_idx in tr_positions
            ):
                diags.append(
                    f"no backing store above {name!r} for {role}: "
                    "a temporal_reuse node must enclose every consumer"
                )

    if layer is not None:
        dims = set(layer.einsum.dim_names)
        for node in tree.nodes:
            cons = node.constraints
            named = set(cons.keep_dims) | set(cons.max_tile_map)
            if cons.spatial_dims is not None:
                named |= set(cons.spatial_dims)
            unknown = named - dims
            if unknown:
                diags.append(
                    f"node {node.name!r}: constraints name unknown dims {sorted(unknown)}"
                )
    return diags
