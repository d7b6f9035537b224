"""Positive rational layer: exactness, order, and the two witnesses."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segreals import NonPositiveError, NotGreaterError, PosRational
from segreals.qpos import ceil_int, halve, int_str

from support import (
    NotLessError,
    archimedean_bound,
    compare,
    fr,
    long_int,
    mediant,
    q,
)

rationals = st.builds(PosRational, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))


class TestConstruction:
    def test_always_reduced(self):
        assert q(6, 4) == q(3, 2)
        assert q(6, 4).num == 3 and q(6, 4).den == 2
        assert q(100, 100) == q(1)

    def test_default_denominator(self):
        assert q(7) == q(7, 1)

    @pytest.mark.parametrize("num,den", [(0, 1), (-1, 2), (1, 0), (3, -4), (0, 0)])
    def test_rejects_non_positive(self, num, den):
        with pytest.raises(NonPositiveError):
            PosRational(num, den)

    def test_equality_and_hash_follow_the_reduced_pair(self):
        assert PosRational(6, 4) == PosRational(3, 2)
        assert hash(PosRational(6, 4)) == hash(PosRational(3, 2))
        assert PosRational(3, 2) != PosRational(2, 3)
        # only a rational of the same class compares equal, as for a dataclass
        assert PosRational(3, 2) != (3, 2)
        assert PosRational(3, 2).__eq__((3, 2)) is NotImplemented
        assert repr(PosRational(6, 4)) == "PosRational(3, 2)"

    def test_str_is_reduced_pair(self):
        assert str(q(10, 4)) == "5/2"
        assert str(q(3)) == "3/1"

    @given(rationals)
    def test_reduction_is_canonical(self, a):
        import math
        assert math.gcd(a.num, a.den) == 1
        assert a.num >= 1 and a.den >= 1


class TestArithmetic:
    @given(rationals, rationals)
    def test_add_matches_fractions(self, a, b):
        assert fr(a + b) == fr(a) + fr(b)

    @given(rationals, rationals)
    def test_mul_matches_fractions(self, a, b):
        assert fr(a * b) == fr(a) * fr(b)

    @given(rationals, rationals)
    def test_div_matches_fractions(self, a, b):
        assert fr(a / b) == fr(a) / fr(b)

    @given(rationals, rationals)
    def test_sub_strict_matches_fractions(self, a, b):
        if fr(a) > fr(b):
            assert fr(a - b) == fr(a) - fr(b)
        else:
            with pytest.raises(NotGreaterError):
                a - b

    @given(rationals, rationals, rationals)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    def test_reciprocal(self):
        assert q(3, 7).reciprocal() == q(7, 3)

    def test_halve(self):
        assert halve(q(3, 2)) == q(3, 4)


class TestOrder:
    @given(rationals, rationals)
    def test_compare_matches_fractions(self, a, b):
        fa, fb = fr(a), fr(b)
        expected = (fa > fb) - (fa < fb)
        assert compare(a, b) == expected
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)

    @given(rationals)
    def test_compare_reflexive(self, a):
        assert compare(a, a) == 0


class TestMediant:
    def test_between_one_and_two(self):
        assert mediant(q(1), q(2)) == q(3, 2)

    def test_requires_strict_order(self):
        with pytest.raises(NotLessError):
            mediant(q(2), q(1))
        with pytest.raises(NotLessError):
            mediant(q(1), q(1))

    @given(rationals, rationals)
    def test_strict_betweenness(self, a, b):
        if fr(a) == fr(b):
            return
        lo, hi = (a, b) if a < b else (b, a)
        m = mediant(lo, hi)
        assert fr(lo) < fr(m) < fr(hi)


class TestArchimedeanBound:
    def test_pinned_witness(self):
        # numerator plus one, on the reduced representation
        assert archimedean_bound(q(7, 3)) == 8

    @given(rationals)
    def test_strictly_dominates(self, a):
        n = archimedean_bound(a)
        assert isinstance(n, int)
        assert Fraction(n) > fr(a)


class TestCeil:
    @given(rationals)
    def test_ceil_matches_fractions(self, a):
        import math
        assert ceil_int(a) == math.ceil(fr(a))


class TestIntStr:
    @given(st.integers(-10 ** 40, 10 ** 40))
    def test_matches_str_below_the_cap(self, v):
        assert int_str(v) == str(v)

    @pytest.mark.parametrize("v, text", [
        (10 ** 5000, "1" + "0" * 5000),
        (10 ** 600 + 1, "1" + "0" * 599 + "1"),
        (10 ** 600 - 1, "9" * 600),
        (-(10 ** 9000 - 1), "-" + "9" * 9000),
        (0, "0"),
    ], ids=["power-of-ten", "piece-edge", "one-piece", "negative", "zero"])
    def test_piece_boundaries(self, v, text):
        assert int_str(v) == text

    def test_round_trips_past_the_cap(self):
        v = 7 ** 20000  # 16 902 digits
        assert long_int(int_str(v)) == v

    def test_rational_rendering_past_the_cap(self):
        assert str(q(10 ** 5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
