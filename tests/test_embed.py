"""Embeddings: the maps of rationals into cuts and reals."""

import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segreals import (
    Comparison,
    PosRational,
    bracket,
    f_embed,
    g_embed,
    less_than,
    phi,
    rational_interval,
    root_cut,
    s_r,
)
from segreals.cut import add as cut_add
from segreals.cut import compare as cut_compare
from segreals.cut import mul as cut_mul
from segreals.real import add as radd
from segreals.real import mul as rmul

from support import brackets_overlap, fr, interval_contains, q, straddles

small_rationals = st.builds(PosRational, st.integers(1, 30), st.integers(1, 30))
signed = st.one_of(
    st.just(Fraction(0)),
    small_rationals.map(fr),
    small_rationals.map(lambda r: -fr(r)),
)


class TestPhi:
    @given(small_rationals, small_rationals, st.sampled_from([100, 10 ** 4]))
    @settings(max_examples=40, deadline=None)
    def test_preserves_addition(self, r, s, n):
        image = cut_add(phi(r), phi(s))
        assert straddles(bracket(image, n), fr(r) + fr(s))
        assert brackets_overlap(bracket(image, n), bracket(phi(r + s), n))

    @given(small_rationals, small_rationals, st.sampled_from([100, 10 ** 4]))
    @settings(max_examples=40, deadline=None)
    def test_preserves_multiplication(self, r, s, n):
        image = cut_mul(phi(r), phi(s))
        assert straddles(bracket(image, n), fr(r) * fr(s))
        assert brackets_overlap(bracket(image, n), bracket(phi(r * s), n))

    @given(small_rationals, small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_isotone(self, r, s):
        if fr(r) == fr(s):
            return
        lo, hi = (r, s) if r < s else (s, r)
        gap = fr(hi) - fr(lo)
        n = int(2 / gap) + 1
        assert cut_compare(phi(lo), phi(hi), n) is Comparison.LESS
        # coarser queries may fail to separate but must never flip
        for coarse in (1, 10):
            assert cut_compare(phi(lo), phi(hi), coarse) is not Comparison.GREATER


class TestFEmbed:
    @given(small_rationals, small_rationals, st.sampled_from([100, 10 ** 4]))
    @settings(max_examples=40, deadline=None)
    def test_preserves_addition(self, r, s, n):
        a, b = phi(r), phi(s)
        lhs = rational_interval(radd(f_embed(a), f_embed(b)), n)
        rhs = rational_interval(f_embed(cut_add(a, b)), n)
        assert interval_contains(lhs, fr(r) + fr(s))
        assert interval_contains(rhs, fr(r) + fr(s))

    @given(small_rationals, small_rationals)
    @settings(max_examples=40, deadline=None)
    def test_preserves_multiplication(self, r, s):
        a, b = phi(r), phi(s)
        lhs = rational_interval(rmul(f_embed(a), f_embed(b)), 10 ** 4)
        assert interval_contains(lhs, fr(r) * fr(s))

    def test_carries_irrationals(self):
        x = f_embed(root_cut(2, q(2)))
        iv = rational_interval(x, 10 ** 6)
        assert iv.lo ** 2 < 2 < iv.hi ** 2

    @given(small_rationals, small_rationals)
    @settings(max_examples=40, deadline=None)
    def test_isotone(self, r, s):
        if fr(r) == fr(s):
            return
        lo, hi = (r, s) if r < s else (s, r)
        n = int(4 / (fr(hi) - fr(lo))) + 1
        assert less_than(f_embed(phi(lo)), f_embed(phi(hi)), n) is Comparison.LESS


class TestGEmbed:
    @given(signed, signed, st.sampled_from([100, 10 ** 4]))
    @settings(max_examples=40, deadline=None)
    def test_ring_homomorphism_on_sums(self, a, b, n):
        lhs = rational_interval(radd(g_embed(a), g_embed(b)), n)
        rhs = rational_interval(g_embed(a + b), n)
        assert interval_contains(lhs, a + b)
        assert interval_contains(rhs, a + b)
        assert not (lhs.hi < rhs.lo or rhs.hi < lhs.lo)

    @given(signed, signed)
    @settings(max_examples=40, deadline=None)
    def test_ring_homomorphism_on_products(self, a, b):
        lhs = rational_interval(rmul(g_embed(a), g_embed(b)), 10 ** 4)
        assert interval_contains(lhs, a * b)

    def test_zero_lands_on_syntactic_zero(self):
        x = g_embed(Fraction(0))
        assert x.pos is x.neg
        assert interval_contains(rational_interval(x, 100), Fraction(0))

    def test_negative_mirrors_positive(self):
        plus = g_embed(Fraction(5, 3))
        minus = g_embed(Fraction(-5, 3))
        assert interval_contains(rational_interval(plus, 1000), Fraction(5, 3))
        assert interval_contains(rational_interval(minus, 1000), Fraction(-5, 3))

    def test_int_and_fraction_agree(self):
        for v in (3, -3, 0):
            x, y = g_embed(v), g_embed(Fraction(v))
            for n in (1, 100, 10 ** 6):
                assert rational_interval(x, n) == rational_interval(y, n)
        z = g_embed(0)
        assert z.pos is z.neg

    @given(signed, signed)
    @settings(max_examples=60, deadline=None)
    def test_isotone(self, a, b):
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        n = int(4 / (hi - lo)) + 1
        assert less_than(g_embed(lo), g_embed(hi), n) is Comparison.LESS

    @pytest.mark.parametrize("value", [0.0, 0.5, "1/2", Decimal("0.5"), Decimal(0)],
                             ids=repr)
    def test_other_types_are_refused(self, value):
        # a zero of another type too: only a Fraction or an int is a rational here
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            g_embed(value)


class TestCompatibility:
    @given(small_rationals, st.sampled_from([100, 10 ** 4]))
    @settings(max_examples=40, deadline=None)
    def test_f_after_phi_agrees_with_g(self, r, n):
        via_f = rational_interval(f_embed(phi(r)), n)
        via_g = rational_interval(g_embed(fr(r)), n)
        assert interval_contains(via_f, fr(r))
        assert interval_contains(via_g, fr(r))
        assert not (via_f.hi < via_g.lo or via_g.hi < via_f.lo)
