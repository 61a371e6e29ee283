"""Operand value encodings, bit slicing and physical-quantity maps.

Signed operand values are first encoded into non-negative device levels
(two's complement, offset, XNOR, magnitude-only or differential), optionally
split into bit slices, and finally mapped onto voltages or conductances by an
affine map.  This module alone decides which device lines an encoding drives
and each line's level (line_levels, which encode_pmf merges over a PMF) and
how a level splits into slices (slice_level).  Everything here is a pure
function of PMFs, so the same code prices a single value (for the
brute-force oracle) and a whole distribution (for the statistical model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .workload import ValuePMF, signed_range

ENCODINGS = (
    "twos_complement",
    "offset",
    "xnor",
    "magnitude_only",
    "differential",
)


class ValueModelError(ValueError):
    """Unrepresentable value, bad slice scheme or inconsistent map."""


@dataclass(frozen=True)
class Encoding:
    """Named encoding at a fixed bit width."""

    kind: str
    bits: int

    def __post_init__(self):
        if self.kind not in ENCODINGS:
            raise ValueModelError(f"unknown encoding {self.kind!r}")
        if self.bits < 1:
            raise ValueModelError("encoding bit width must be >= 1")


@dataclass(frozen=True)
class SliceScheme:
    """LSB-first slice widths; widths sum to the encoded bit width."""

    widths: tuple[int, ...]

    def __post_init__(self):
        if not self.widths:
            raise ValueModelError("slice scheme needs at least one slice")
        if any(w < 1 for w in self.widths):
            raise ValueModelError("slice widths must be >= 1")

    @property
    def offsets(self) -> tuple[int, ...]:
        offs, acc = [], 0
        for w in self.widths:
            offs.append(acc)
            acc += w
        return tuple(offs)

    @property
    def total_bits(self) -> int:
        return sum(self.widths)


@dataclass(frozen=True)
class EncodedPMF:
    """PMF over the non-negative levels one device line carries."""

    kind: str
    bits: int
    support: tuple[int, ...]
    probs: tuple[float, ...]


def _merge(levels_probs) -> tuple[tuple[int, ...], tuple[float, ...]]:
    acc: dict[int, float] = {}
    for level, p in levels_probs:
        acc[level] = acc.get(level, 0.0) + p
    support = tuple(sorted(acc))
    return support, tuple(acc[v] for v in support)


def encode_value(value: int, enc: Encoding) -> int:
    """Encode one value to its primary device level.

    For differential encoding this is the positive line's level; line_levels
    gives every line's.
    """
    b = enc.bits
    if enc.kind == "twos_complement":
        lo, hi = signed_range(b)[0], (1 << b) - 1
        if not lo <= value <= hi:
            raise ValueModelError(f"value {value} unrepresentable in {b}-bit two's complement")
        return value % (1 << b)
    if enc.kind == "offset":
        lo, hi = signed_range(b)
        if not lo <= value <= hi:
            raise ValueModelError(f"value {value} outside {b}-bit offset range")
        return value + (1 << (b - 1))
    if enc.kind == "xnor":
        if value == -1:
            return 0
        if value == 1:
            return 1
        raise ValueModelError(f"XNOR encoding only represents -1/+1, got {value}")
    if enc.kind == "magnitude_only":
        if abs(value) > (1 << b) - 1:
            raise ValueModelError(f"|{value}| exceeds {b}-bit magnitude range")
        return abs(value)
    # differential: Encoding.__post_init__ admits no other kind
    if abs(value) > (1 << b) - 1:
        raise ValueModelError(f"|{value}| exceeds {b}-bit differential range")
    return max(value, 0)


def line_levels(value: int, enc: Encoding) -> tuple[int, ...]:
    """One value's level on each device line its encoding drives: one line,
    or for differential a second (negative) line of negative magnitudes."""
    level = encode_value(value, enc)
    if enc.kind == "differential":
        return level, max(-value, 0)
    return (level,)


def encode_pmf(pmf: ValuePMF, enc: Encoding) -> tuple[EncodedPMF, ...]:
    """Push a value PMF through an encoding: one level PMF per device line
    (line_levels), colliding levels merged."""
    return tuple(
        EncodedPMF(enc.kind, enc.bits, *_merge(zip(levels, pmf.probs)))
        for levels in zip(*[line_levels(v, enc) for v in pmf.support])
    )


def slice_level(level: int, scheme: SliceScheme) -> tuple[int, ...]:
    """Split one non-negative level into LSB-first slice levels."""
    if level < 0:
        raise ValueModelError("cannot slice a negative level")
    out = []
    for width in scheme.widths:
        out.append(level & ((1 << width) - 1))
        level >>= width
    return tuple(out)


def slice_pmf(encoded: EncodedPMF, scheme: SliceScheme) -> list[ValuePMF]:
    """Exact marginal PMF of each slice, LSB-first.

    Slices of a shared level are marginals, not independent distributions;
    only their individual statistics are preserved.
    """
    if scheme.total_bits != encoded.bits:
        raise ValueModelError(
            f"slice widths sum to {scheme.total_bits}, encoded width is {encoded.bits}"
        )
    if len(scheme.widths) == 1:  # the one slice is the whole level
        return [ValuePMF(encoded.support, encoded.probs)]
    return [
        ValuePMF(*_merge(zip(column, encoded.probs)))
        for column in zip(*[slice_level(level, scheme) for level in encoded.support])
    ]


@dataclass(frozen=True)
class PhysicalMap:
    """Affine map from a device level to a physical quantity.

    Voltage:     V(x) = vdd * x / (levels - 1)
    Conductance: G(y) = g_min + (g_max - g_min) * y / (levels - 1)
    """

    kind: str
    levels: int
    vdd: float = 0.0
    g_min: float = 0.0
    g_max: float = 0.0

    def __post_init__(self):
        if self.kind not in ("voltage", "conductance"):
            raise ValueModelError(f"unknown physical map kind {self.kind!r}")
        if self.levels < 2:
            raise ValueModelError("physical map needs at least 2 levels")
        if self.kind == "conductance" and self.g_max < self.g_min:
            raise ValueModelError("g_max must be >= g_min")

    @classmethod
    def voltage(cls, vdd: float, levels: int) -> "PhysicalMap":
        return cls(kind="voltage", levels=levels, vdd=vdd)

    @classmethod
    def conductance(cls, g_min: float, g_max: float, levels: int) -> "PhysicalMap":
        return cls(kind="conductance", levels=levels, g_min=g_min, g_max=g_max)

    def value(self, level: int) -> float:
        if not 0 <= level < self.levels:
            raise ValueModelError(f"level {level} outside [0, {self.levels})")
        frac = level / (self.levels - 1)
        if self.kind == "voltage":
            return self.vdd * frac
        return self.g_min + (self.g_max - self.g_min) * frac


def expected_moment(pmf: ValuePMF, pmap: PhysicalMap, power: int = 1) -> float:
    """E[map(x)^power] for a PMF over device levels."""
    if power < 1:
        raise ValueModelError("moment power must be >= 1")
    if pmf.min_value < 0:
        raise ValueModelError("physical maps take non-negative levels; encode first")
    if pmf.max_value >= pmap.levels:
        raise ValueModelError(
            f"support max {pmf.max_value} needs at least {pmf.max_value + 1} map levels"
        )
    return math.fsum(p * pmap.value(v) ** power for v, p in zip(pmf.support, pmf.probs))


def switching_rate(pmf: ValuePMF, bits: int) -> float:
    """Mean fraction of bits set per value, assuming return-to-zero signaling.

    Each presented value charges its set bits from the idle (all-zero) state,
    so the toggle count of a value is its popcount.
    """
    if bits < 1:
        raise ValueModelError("bit width must be >= 1")
    if pmf.min_value < 0:
        raise ValueModelError("switching rate is defined over encoded levels")
    if pmf.max_value >= (1 << bits):
        raise ValueModelError(f"level {pmf.max_value} does not fit in {bits} bits")
    return math.fsum(p * v.bit_count() for v, p in zip(pmf.support, pmf.probs)) / bits
