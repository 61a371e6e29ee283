"""Extended-Einsum workload layers and operand value distributions.

A layer is an iteration space (named dims with integer sizes) plus a
projection of those dims onto the Inputs / Weights / Outputs tensors and a
value PMF per tensor.  The PMFs are the only data-dependent information the
statistical energy models consume; actual tensor contents are needed only by
the brute-force oracle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

ROLES = ("Inputs", "Weights", "Outputs")

# Tolerance on total probability mass.
PROB_TOL = 1e-9

# Widest bit count a model prices: 2^1024 is past the largest float.
MAX_BITS = 1023

# The loader every input document is read with: libyaml's scanner and parser
# when PyYAML was built with them, else PyYAML's own.  Constructors and
# resolvers are PyYAML's Python code under both, so a document loads the same.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
# Mappings are written with libyaml's emitter when PyYAML was built with it.
# Representers are PyYAML's Python code under both, so the text is the same.
YAML_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


class WorkloadError(ValueError):
    """Malformed workload document or inconsistent layer data."""


def as_integer(value) -> int | None:
    """An integer (not a bool), or a float equal to one, as an int; else None."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def signed_range(bits: int) -> tuple[int, int]:
    """The lowest and highest value of a bits-wide two's-complement integer."""
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def yaml_error(what: str, exc: yaml.YAMLError) -> str:
    """One line naming the document, the position when known, and the problem."""
    mark = getattr(exc, "problem_mark", None)
    where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
    problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
    return f"{what} YAML error{where}: {problem}"


@dataclass(frozen=True)
class ValuePMF:
    """Discrete distribution over integer operand values.

    Support values are strictly increasing; probabilities are non-negative
    and sum to one within PROB_TOL.
    """

    support: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) == 0:
            raise WorkloadError("PMF needs at least one support value")
        if len(self.support) != len(self.probs):
            raise WorkloadError("PMF support and probability lengths differ")
        for v in self.support:
            if not isinstance(v, int):
                raise WorkloadError(f"PMF support must be integers, got {v!r}")
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise WorkloadError("PMF support must be strictly increasing")
        if any(p < 0.0 for p in self.probs):
            raise WorkloadError("PMF probabilities must be non-negative")
        total = math.fsum(self.probs)
        if not abs(total - 1.0) <= PROB_TOL:
            raise WorkloadError(f"PMF probabilities sum to {total!r}, not 1")

    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self.support, self.probs))

    @property
    def min_value(self) -> int:
        return self.support[0]

    @property
    def max_value(self) -> int:
        return self.support[-1]


def build_pmf(samples) -> ValuePMF:
    """Estimate a PMF from observed integer samples (e.g. a trace dump)."""
    arr = np.asarray(samples)
    if arr.size == 0:
        raise WorkloadError("cannot build a PMF from zero samples")
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise WorkloadError("PMF samples must be integers")
    values, counts = np.unique(arr, return_counts=True)
    n = arr.size
    return ValuePMF(
        support=tuple(int(v) for v in values),
        probs=tuple(float(c) / n for c in counts),
    )


def uniform_pmf(lo: int, hi: int) -> ValuePMF:
    """Uniform over the inclusive integer range [lo, hi]."""
    if hi < lo:
        raise WorkloadError(f"empty uniform range [{lo}, {hi}]")
    n = hi - lo + 1
    return ValuePMF(tuple(range(lo, hi + 1)), tuple([1.0 / n] * n))


def delta_pmf(value: int) -> ValuePMF:
    return ValuePMF((int(value),), (1.0,))


def two_point_pmf(a: int, b: int, p_b: float) -> ValuePMF:
    """Mass 1-p_b at a and p_b at b."""
    if not 0.0 <= p_b <= 1.0:
        raise WorkloadError(f"two_point probability {p_b} outside [0, 1]")
    if a == b:
        return delta_pmf(a)
    lo, hi = (a, b) if a < b else (b, a)
    p_hi = p_b if hi == b else 1.0 - p_b
    return ValuePMF((lo, hi), (1.0 - p_hi, p_hi))


def synth_pmf(kind: str, params) -> ValuePMF:
    """Build a synthetic PMF: uniform(lo, hi), delta(v) or two_point(a, b, p).

    Values are integers (a float equal to one counts) and p is a number.
    """
    arity = {"uniform": 2, "delta": 1, "two_point": 3}.get(kind)
    if arity is None:
        raise WorkloadError(f"unknown synthetic PMF kind {kind!r}")
    args = list(params) if isinstance(params, (list, tuple)) else [params]
    values = [as_integer(v) for v in args[: min(arity, 2)]]
    if len(args) != arity or None in values or (
        arity == 3 and type(args[2]) not in (int, float)
    ):
        raise WorkloadError(f"bad {kind} PMF parameters {params!r}")
    if kind == "two_point":
        return two_point_pmf(*values, float(args[2]))
    return uniform_pmf(*values) if kind == "uniform" else delta_pmf(*values)


@dataclass(frozen=True)
class EinsumSpec:
    """Iteration dims plus the dim subset each tensor is indexed by."""

    dims: tuple[tuple[str, int], ...]
    tensors: dict[str, tuple[str, ...]]

    def __post_init__(self):
        seen = set()
        for name, size in self.dims:
            if name in seen:
                raise WorkloadError(f"duplicate dim {name!r}")
            seen.add(name)
            if size < 1:
                raise WorkloadError(f"dim {name!r} has non-positive size {size}")
        for role in ROLES:
            if role not in self.tensors:
                raise WorkloadError(f"missing projection for {role}")
        for role, proj in self.tensors.items():
            if role not in ROLES:
                raise WorkloadError(f"unknown tensor role {role!r}")
            if len(set(proj)) != len(proj):
                raise WorkloadError(f"{role} projection repeats a dim")
            for d in proj:
                if d not in seen:
                    raise WorkloadError(f"{role} projects unknown dim {d!r}")
        used = set().union(*(self.tensors[r] for r in ROLES))
        unused = seen - used
        if unused:
            raise WorkloadError(f"dims {sorted(unused)} appear in no projection")
        operand_dims = set(self.tensors["Inputs"]) | set(self.tensors["Weights"])
        out = set(self.tensors["Outputs"])
        if not out <= operand_dims:
            raise WorkloadError("Outputs project dims absent from Inputs and Weights")
        if not self.reduction_dims:
            raise WorkloadError("layer has no reduction dim (Outputs cover every dim)")

    @property
    def dim_sizes(self) -> dict[str, int]:
        return dict(self.dims)

    @property
    def dim_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.dims)

    @property
    def reduction_dims(self) -> tuple[str, ...]:
        out = set(self.tensors["Outputs"])
        return tuple(name for name, _ in self.dims if name not in out)

    def projection(self, role: str) -> tuple[str, ...]:
        return self.tensors[role]


@dataclass(frozen=True)
class WorkloadLayer:
    """One layer: an Einsum, per-tensor bit widths, signedness and PMFs."""

    name: str
    einsum: EinsumSpec
    bits: dict[str, int]
    pmfs: dict[str, ValuePMF] = field(default_factory=dict)
    signed: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        for role in ROLES:
            if role not in self.bits:
                raise WorkloadError(f"layer {self.name!r}: missing bit width for {role}")
            if not 1 <= self.bits[role] <= MAX_BITS:
                raise WorkloadError(
                    f"layer {self.name!r}: {role} bit width must be in [1, {MAX_BITS}]"
                )
        for role, pmf in self.pmfs.items():
            if role not in ROLES:
                raise WorkloadError(f"layer {self.name!r}: PMF for unknown role {role!r}")
            self._check_representable(role, pmf)
        # Outputs default to uniform over the bit-width range, so an explicit
        # PMF is only mandatory for the operand tensors.
        for role in ("Inputs", "Weights"):
            if role not in self.pmfs:
                raise WorkloadError(f"layer {self.name!r}: missing PMF for {role}")

    def _values(self, role: str) -> range:
        """The values the role's bit width holds, ascending.  One signed bit
        carries the antipodal pair {-1, 1}, as in binary-bipolar layers."""
        b = self.bits[role]
        if not self.is_signed(role):
            return range(1 << b)
        if b == 1:
            return range(-1, 2, 2)
        lo, hi = signed_range(b)
        return range(lo, hi + 1)

    def _check_representable(self, role: str, pmf: ValuePMF) -> None:
        values = self._values(role)
        if pmf.min_value < values[0] or pmf.max_value > values[-1]:
            raise WorkloadError(
                f"layer {self.name!r}: {role} support [{pmf.min_value}, {pmf.max_value}] "
                f"does not fit {self.bits[role]}-bit "
                f"{'signed' if self.is_signed(role) else 'unsigned'} range"
            )

    def is_signed(self, role: str) -> bool:
        """The ``signed`` entry when given, else whether the declared PMF
        goes negative; an undeclared Outputs PMF defaults to signed."""
        if role in self.signed:
            return self.signed[role]
        pmf = self.pmfs.get(role)
        if pmf is None:
            return role == "Outputs"
        return pmf.min_value < 0

    def pmf_for(self, role: str) -> ValuePMF:
        """Declared PMF, or for Outputs a uniform default over the values
        its bit width holds."""
        if role in self.pmfs:
            return self.pmfs[role]
        if role == "Outputs":
            values = self._values(role)
            return ValuePMF(tuple(values), (1.0 / len(values),) * len(values))
        raise WorkloadError(f"layer {self.name!r}: no PMF for {role}")


def mac_count(layer: WorkloadLayer) -> int:
    """Total multiply-accumulate operations: the product of all dim sizes."""
    return math.prod(size for _, size in layer.einsum.dims)


def _parse_pmf_spec(spec, base_dir: Path | None) -> ValuePMF:
    if isinstance(spec, dict) and len(spec) == 1:
        kind, params = next(iter(spec.items()))
        if kind == "file" and isinstance(params, str):
            path = Path(params)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise WorkloadError(f"cannot read PMF file {path}: {exc}") from exc
            try:
                samples = [int(line) for line in text.split()]
            except ValueError as exc:
                raise WorkloadError(f"PMF file {path} has a non-integer entry") from exc
            return build_pmf(samples)
        if kind in ("uniform", "delta", "two_point"):
            return synth_pmf(kind, params)
        if kind == "table":
            return _pmf_from_table(params)
    if isinstance(spec, dict) and set(spec) == {"support", "probs"}:
        return _pmf_from_table(spec)
    raise WorkloadError(f"unrecognized PMF spec {spec!r}")


def _pmf_from_table(params) -> ValuePMF:
    try:
        support = tuple(as_integer(v) for v in params["support"])
        probs = tuple(float(p) for p in params["probs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WorkloadError(f"bad PMF table {params!r}") from exc
    if None in support:
        raise WorkloadError(f"bad PMF table {params!r}: support values are integers")
    if len(support) != len(probs):
        raise WorkloadError(
            f"bad PMF table {params!r}: support and probs lengths differ"
        )
    order = sorted(range(len(support)), key=lambda i: support[i])
    return ValuePMF(
        tuple(support[i] for i in order),
        tuple(probs[i] for i in order),
    )


def _as_int(layer: str, what: str, value) -> int:
    n = as_integer(value)
    if n is None:
        raise WorkloadError(f"layer {layer!r}: {what} must be an integer, got {value!r}")
    return n


def _as_map(layer: str, what: str, raw) -> dict:
    if not isinstance(raw, dict):
        raise WorkloadError(f"layer {layer!r}: {what!r} must be a mapping")
    return raw


def parse_workload(text: str, base_dir: str | Path | None = None) -> list[WorkloadLayer]:
    """Parse a workload YAML document into layers.

    Relative PMF file paths are resolved against base_dir.
    """
    base = Path(base_dir) if base_dir is not None else None
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise WorkloadError(yaml_error("workload", exc)) from exc
    if not isinstance(doc, dict) or "layers" not in doc:
        raise WorkloadError("workload document must be a mapping with a 'layers' list")
    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise WorkloadError("'layers' must be a non-empty list")

    layers = []
    names = set()
    for i, raw in enumerate(raw_layers):
        if not isinstance(raw, dict):
            raise WorkloadError(f"layer #{i} is not a mapping")
        name = raw.get("name", f"layer{i}")
        if not isinstance(name, (str, int, float)):
            raise WorkloadError(f"layer #{i}: name must be a string, got {name!r}")
        name = str(name)
        if name in names:
            raise WorkloadError(f"duplicate layer name {name!r}")
        names.add(name)
        try:
            dims_raw = raw["dims"]
            proj_raw = raw["projections"]
            bits_raw = raw["bits"]
        except KeyError as exc:
            raise WorkloadError(f"layer {name!r}: missing key {exc.args[0]!r}") from exc
        if not isinstance(dims_raw, dict) or not dims_raw:
            raise WorkloadError(f"layer {name!r}: 'dims' must be a non-empty mapping")
        dims = tuple(
            (str(d), _as_int(name, f"size of dim {d!r}", s)) for d, s in dims_raw.items()
        )
        tensors = {}
        for role, proj in _as_map(name, "projections", proj_raw).items():
            if not isinstance(proj, (list, type(None))):
                raise WorkloadError(
                    f"layer {name!r}: projection of {role!r} must be a list of dims"
                )
            tensors[str(role)] = tuple(str(d) for d in (proj or ()))
        einsum = EinsumSpec(dims=dims, tensors=tensors)
        bits = {
            str(r): _as_int(name, f"bit width of {r!r}", b)
            for r, b in _as_map(name, "bits", bits_raw).items()
        }
        pmfs = {
            str(r): _parse_pmf_spec(spec, base)
            for r, spec in _as_map(name, "pmf", raw.get("pmf") or {}).items()
        }
        signed = {}
        for r, v in _as_map(name, "signed", raw.get("signed") or {}).items():
            if not isinstance(v, bool):
                raise WorkloadError(
                    f"layer {name!r}: signed of {r!r} must be true or false, got {v!r}"
                )
            signed[str(r)] = v
        layers.append(
            WorkloadLayer(name=name, einsum=einsum, bits=bits, pmfs=pmfs, signed=signed)
        )
    return layers
