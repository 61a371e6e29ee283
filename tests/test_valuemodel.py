"""Encoding, bit slicing and physical-map statistics.

The slicing identities here are load-bearing: the per-slice marginals must
reproduce the exact level statistics or every downstream energy average is
off.  Property tests pin the algebra, example tests pin concrete numbers.
"""

import unittest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cimeval.valuemodel import (
    Encoding,
    PhysicalMap,
    SliceScheme,
    ValueModelError,
    encode_pmf,
    encode_value,
    expected_moment,
    line_levels,
    slice_level,
    slice_pmf,
    switching_rate,
)
from cimeval.workload import ValuePMF, delta_pmf, two_point_pmf, uniform_pmf

MAX_BITS = 10


def partitions(total):
    """Strategy for slice-width tuples summing to `total`."""
    return st.integers(1, total).flatmap(
        lambda first: st.just((first,))
        if first == total
        else partitions(total - first).map(lambda rest: (first,) + rest)
    )


class EncodeValueTests(unittest.TestCase):
    def test_twos_complement_levels(self):
        enc = Encoding("twos_complement", 4)
        self.assertEqual(encode_value(-1, enc), 15)
        self.assertEqual(encode_value(-8, enc), 8)
        self.assertEqual(encode_value(7, enc), 7)
        with self.assertRaises(ValueModelError):
            encode_value(16, enc)

    def test_offset_levels(self):
        enc = Encoding("offset", 4)
        self.assertEqual(encode_value(-1, enc), 7)
        self.assertEqual(encode_value(-8, enc), 0)
        self.assertEqual(encode_value(7, enc), 15)
        with self.assertRaises(ValueModelError):
            encode_value(8, enc)

    def test_xnor_is_binary_bipolar(self):
        enc = Encoding("xnor", 1)
        self.assertEqual(encode_value(-1, enc), 0)
        self.assertEqual(encode_value(1, enc), 1)
        with self.assertRaises(ValueModelError):
            encode_value(0, enc)

    def test_magnitude_with_sign_companion(self):
        enc = Encoding("magnitude_only", 4)
        self.assertEqual(encode_value(-5, enc), 5)
        self.assertEqual(line_levels(-5, enc), (5,))

    def test_differential_splits_sign_across_lines(self):
        enc = Encoding("differential", 3)
        self.assertEqual(line_levels(-2, enc), (0, 2))
        self.assertEqual(line_levels(3, enc), (3, 0))

    def test_companion_requires_two_line_encoding(self):
        self.assertEqual(line_levels(3, Encoding("offset", 4)), (11,))

    @given(st.integers(2, MAX_BITS), st.data())
    def test_twos_complement_roundtrip(self, bits, data):
        lo = -(1 << (bits - 1))
        hi = (1 << (bits - 1)) - 1
        v = data.draw(st.integers(lo, hi))
        lvl = encode_value(v, Encoding("twos_complement", bits))
        decoded = lvl - (1 << bits) if lvl >= 1 << (bits - 1) else lvl
        self.assertEqual(decoded, v)

    @given(st.integers(1, MAX_BITS), st.data())
    def test_differential_lines_subtract_to_value(self, bits, data):
        hi = (1 << bits) - 1
        v = data.draw(st.integers(-hi, hi))
        enc = Encoding("differential", bits)
        pos, neg = line_levels(v, enc)
        self.assertEqual(pos - neg, v)


class EncodePmfTests(unittest.TestCase):
    def test_differential_pmf_lines(self):
        pmf = two_point_pmf(-2, 3, 0.5)
        out, neg = encode_pmf(pmf, Encoding("differential", 3))
        self.assertEqual(out.support, (0, 3))
        self.assertEqual(out.probs, (0.5, 0.5))
        self.assertEqual(neg.support, (0, 2))
        self.assertEqual(neg.probs, (0.5, 0.5))

    def test_colliding_levels_merge(self):
        pmf = ValuePMF((-3, 0, 3), (0.25, 0.5, 0.25))
        (out,) = encode_pmf(pmf, Encoding("magnitude_only", 4))
        self.assertEqual(out.support, (0, 3))
        self.assertEqual(out.probs, (0.5, 0.5))

    def test_level_overflow_rejected(self):
        with self.assertRaises(ValueModelError):
            encode_pmf(uniform_pmf(0, 4), Encoding("twos_complement", 2))


class SliceTests(unittest.TestCase):
    def test_scheme_offsets_are_lsb_first(self):
        scheme = SliceScheme((2, 3, 1))
        self.assertEqual(scheme.offsets, (0, 2, 5))
        self.assertEqual(scheme.total_bits, 6)

    def test_slice_level_bit_by_bit(self):
        self.assertEqual(slice_level(5, SliceScheme((1, 1, 1, 1))), (1, 0, 1, 0))
        self.assertEqual(slice_level(0b110110, SliceScheme((2, 2, 2))), (2, 1, 3))

    def test_uniform_slices_stay_uniform(self):
        (enc,) = encode_pmf(uniform_pmf(0, 15), Encoding("twos_complement", 4))
        lo, hi = slice_pmf(enc, SliceScheme((2, 2)))
        for part in (lo, hi):
            self.assertEqual(part.support, (0, 1, 2, 3))
            for p in part.probs:
                self.assertAlmostEqual(p, 0.25, places=12)

    @given(
        st.integers(1, 8).flatmap(lambda b: st.tuples(st.just(b), partitions(b))),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=40),
    )
    @settings(max_examples=100)
    def test_slice_pmf_equals_masking_each_slice_bit_for_bit(self, bits_widths, weights):
        bits, widths = bits_widths
        weights = weights[: 1 << bits]
        total = sum(weights)
        (enc,) = encode_pmf(
            ValuePMF(tuple(range(len(weights))), tuple(w / total for w in weights)),
            Encoding("twos_complement", bits),
        )
        scheme = SliceScheme(widths)
        # reference: mask one slice out of every level, summing in support order
        expected = []
        for width, offset in zip(scheme.widths, scheme.offsets):
            acc = {}
            for level, p in zip(enc.support, enc.probs):
                s = (level >> offset) & ((1 << width) - 1)
                acc[s] = acc.get(s, 0.0) + p
            expected.append(ValuePMF(tuple(sorted(acc)), tuple(acc[v] for v in sorted(acc))))
        self.assertEqual(slice_pmf(enc, scheme), expected)

    def test_width_mismatch_rejected(self):
        (enc,) = encode_pmf(uniform_pmf(0, 15), Encoding("twos_complement", 4))
        with self.assertRaises(ValueModelError):
            slice_pmf(enc, SliceScheme((2, 3)))

    @given(st.integers(1, MAX_BITS).flatmap(lambda b: st.tuples(st.just(b), partitions(b))), st.data())
    @settings(max_examples=200)
    def test_slices_reassemble_the_level(self, bits_widths, data):
        bits, widths = bits_widths
        level = data.draw(st.integers(0, (1 << bits) - 1))
        scheme = SliceScheme(widths)
        pieces = slice_level(level, scheme)
        rebuilt = sum(s << off for s, off in zip(pieces, scheme.offsets))
        self.assertEqual(rebuilt, level)

    @given(
        st.integers(2, 8).flatmap(lambda b: st.tuples(st.just(b), partitions(b))),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=100)
    def test_slice_marginals_preserve_mass_and_mean(self, bits_widths, weights, data):
        bits, widths = bits_widths
        # a 2-bit domain has only 4 levels, so cap the support size first
        weights = weights[: min(len(weights), 1 << bits)]
        levels = data.draw(
            st.lists(
                st.integers(0, (1 << bits) - 1),
                min_size=len(weights),
                max_size=len(weights),
                unique=True,
            )
        )
        total = sum(weights)
        pairs = sorted(zip(levels, weights))
        pmf = ValuePMF(
            tuple(v for v, _ in pairs), tuple(w / total for _, w in pairs)
        )
        (enc,) = encode_pmf(pmf, Encoding("twos_complement", bits))
        scheme = SliceScheme(widths)
        parts = slice_pmf(enc, scheme)
        for part in parts:
            self.assertAlmostEqual(sum(part.probs), 1.0, places=12)
        # linearity: E[level] equals the offset-weighted sum of slice means
        lhs = sum(v * p for v, p in zip(enc.support, enc.probs))
        rhs = sum(
            (1 << off) * part.mean() for off, part in zip(scheme.offsets, parts)
        )
        self.assertAlmostEqual(lhs, rhs, places=9)


class PhysicalMapTests(unittest.TestCase):
    def test_voltage_second_moment(self):
        pmap = PhysicalMap.voltage(1.0, 4)
        got = expected_moment(uniform_pmf(0, 3), pmap, power=2)
        self.assertAlmostEqual(got, 14 / 36, places=15)

    def test_conductance_endpoints(self):
        pmap = PhysicalMap.conductance(1e-6, 4e-6, 4)
        self.assertAlmostEqual(pmap.value(0), 1e-6)
        self.assertAlmostEqual(pmap.value(1), 2e-6)
        self.assertAlmostEqual(pmap.value(3), 4e-6)
        with self.assertRaises(ValueModelError):
            pmap.value(4)

    def test_moment_rejects_unencoded_support(self):
        with self.assertRaises(ValueModelError):
            expected_moment(delta_pmf(-1), PhysicalMap.voltage(1.0, 4))
        with self.assertRaises(ValueModelError):
            expected_moment(delta_pmf(4), PhysicalMap.voltage(1.0, 4))

    def test_map_construction_guards(self):
        with self.assertRaises(ValueModelError):
            PhysicalMap.voltage(1.0, 1)
        with self.assertRaises(ValueModelError):
            PhysicalMap.conductance(2e-6, 1e-6, 4)


class SwitchingRateTests(unittest.TestCase):
    def test_uniform_half_the_bits_toggle(self):
        self.assertEqual(switching_rate(uniform_pmf(0, 3), 2), 0.5)

    def test_extremes(self):
        self.assertEqual(switching_rate(delta_pmf(0), 4), 0.0)
        self.assertEqual(switching_rate(delta_pmf(15), 4), 1.0)

    def test_overflowing_level_rejected(self):
        with self.assertRaises(ValueModelError):
            switching_rate(delta_pmf(4), 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Encoding("offset", 0), "bit width must be >= 1"),
        (lambda: SliceScheme(()), "at least one slice"),
        (lambda: SliceScheme((2, 0)), "slice widths must be >= 1"),
        (
            lambda: encode_value(16, Encoding("magnitude_only", 4)),
            "exceeds 4-bit magnitude range",
        ),
        (
            lambda: encode_value(-16, Encoding("differential", 4)),
            "exceeds 4-bit differential range",
        ),
        (lambda: slice_level(-1, SliceScheme((2,))), "cannot slice a negative level"),
        (lambda: PhysicalMap("current", 4), "unknown physical map kind 'current'"),
        (
            lambda: expected_moment(delta_pmf(0), PhysicalMap.voltage(1.0, 4), power=0),
            "moment power must be >= 1",
        ),
        (lambda: switching_rate(delta_pmf(1), 0), "bit width must be >= 1"),
        (lambda: switching_rate(delta_pmf(-1), 4), "defined over encoded levels"),
        (
            lambda: slice_pmf(
                encode_pmf(uniform_pmf(-2, 1), Encoding("differential", 2))[0],
                SliceScheme((2, 1)),
            ),
            "slice widths sum to 3, encoded width is 2",
        ),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueModelError, match=message):
        call()


if __name__ == "__main__":
    unittest.main()
