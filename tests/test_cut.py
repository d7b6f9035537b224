"""Cut layer: exact membership, certified brackets, and their algebra."""

import math
import random
import re
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segreals import (
    BadDegreeError,
    Bracket,
    Comparison,
    EmptyFamilyError,
    NotALeafError,
    NotAMemberError,
    NotGreaterError,
    PosRational,
    PrecisionBudgetExhausted,
    ZeroAtPrecision,
    approx,
    bracket,
    difference,
    exprcli,
    f_embed,
    g_embed,
    inverse,
    membership_leaf,
    next_member_above,
    oracle_cut,
    real,
    root_cut,
    s_r,
    sup_finite,
)
from segreals.cut import (
    Inverse,
    Product,
    _grid_above,
    _grid_below,
    _grid_bits,
    _grid_bracket,
    _iroot,
    add,
    add_all,
    compare,
    mul,
)

from support import (
    _bisect,
    bracket_stepwise,
    brackets_overlap,
    fr,
    leaf_member_oracle,
    oracle_decimal,
    q,
    ratio_refine,
    straddles,
    surd_sign,
    surd_values,
    to_sexpr,
)

small_rationals = st.builds(PosRational, st.integers(1, 40), st.integers(1, 40))
rational_leaves = small_rationals.map(s_r)
root_leaves = st.builds(root_cut, st.integers(2, 4), small_rationals)
# an oracle over a drawn rational or root leaf s: its predicate is Fraction
# arithmetic, independent of the cut code, and its witnesses are s's
oracle_leaves = st.one_of(rational_leaves, root_leaves).map(
    lambda s: oracle_cut(lambda x: leaf_member_oracle(s, x), *s.witnesses()))
leaves = st.one_of(rational_leaves, root_leaves, oracle_leaves)
precisions = st.sampled_from([1, 2, 7, 10, 100, 1000, 10 ** 4])
tiny_rationals = st.builds(PosRational, st.integers(1, 10 ** 6), st.integers(1, 10 ** 12))
# up to 10^30, and just below and at powers of two, where root ceilings are tight
radicands = st.builds(PosRational,
                      st.integers(1, 10 ** 30) | st.integers(1, 100).map(lambda b: 2 ** b - 1)
                      | st.integers(0, 99).map(lambda b: 2 ** b),
                      st.integers(1, 10 ** 3))


# ===========================================================================
# leaves


class TestMembership:
    @given(rational_leaves, small_rationals)
    def test_rational_leaf_matches_oracle(self, leaf, x):
        assert membership_leaf(leaf, x) == leaf_member_oracle(leaf, x)

    @given(root_leaves, small_rationals)
    def test_root_leaf_matches_oracle(self, leaf, x):
        assert membership_leaf(leaf, x) == leaf_member_oracle(leaf, x)

    def test_oracle_leaf_uses_predicate(self):
        leaf = oracle_cut(lambda x: x < q(3), q(2), q(3))
        assert membership_leaf(leaf, q(2, 1))
        assert not membership_leaf(leaf, q(7, 2))

    def test_oracle_leaf_rejects_bad_witnesses(self):
        with pytest.raises(ValueError):
            oracle_cut(lambda x: x < q(3), q(3), q(4))
        with pytest.raises(ValueError):
            oracle_cut(lambda x: x < q(3), q(2), q(5, 2))

    def test_composite_has_no_membership(self):
        with pytest.raises(NotALeafError):
            membership_leaf(add(s_r(q(1)), s_r(q(1))), q(1))

    def test_root_degree_validated(self):
        with pytest.raises(BadDegreeError):
            root_cut(1, q(2))
        with pytest.raises(BadDegreeError):
            root_cut(0, q(2))

    @pytest.mark.parametrize("degree", [2.5, 2.0, "2"], ids=["float", "whole-float", "str"])
    def test_root_degree_must_be_an_int(self, degree):
        message = f"root degree must be an int, got {degree!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            root_cut(degree, q(2))

    def test_root_degree_capped(self):
        cap = exprcli.MAX_ROOT_DEGREE
        assert root_cut(cap, q(2)).degree == cap
        with pytest.raises(BadDegreeError, match=f"at most {cap}, got {cap + 1}"):
            root_cut(cap + 1, q(2))

    @given(leaves, small_rationals, small_rationals)
    def test_downward_closure(self, leaf, x, y):
        # anything below a member is a member
        if membership_leaf(leaf, x) and y < x:
            assert membership_leaf(leaf, y)

    @given(leaves, small_rationals, small_rationals)
    def test_nonmembers_dominate_members(self, leaf, x, y):
        if membership_leaf(leaf, x) and not membership_leaf(leaf, y):
            assert x < y


class TestNextMemberAbove:
    def test_rational_leaf_uses_the_gap(self):
        # any member above 1 inside S_2 would do; the mediant is the one built
        y = next_member_above(s_r(q(2)), q(1))
        assert y == q(3, 2)
        assert q(1) < y < q(2)

    def test_sqrt2_pinned_climb(self):
        # closed-form index: first valid n is 3, giving (3*1+2)/(3*1+1)
        y = next_member_above(root_cut(2, q(2)), q(1))
        assert y == q(5, 4)
        assert 5 ** 2 < 2 * 4 ** 2  # membership, in plain integers

    def test_sqrt2_below_one_climbs_to_one(self):
        assert next_member_above(root_cut(2, q(2)), q(1, 2)) == q(1)

    def test_rejects_nonmembers(self):
        with pytest.raises(NotAMemberError):
            next_member_above(s_r(q(1)), q(2))

    @given(leaves, small_rationals)
    def test_no_maximum(self, leaf, x):
        if not membership_leaf(leaf, x):
            return
        y = next_member_above(leaf, x)
        assert x < y
        assert membership_leaf(leaf, y)
        assert leaf_member_oracle(leaf, y)

    @settings(max_examples=60, deadline=None)
    @given(st.builds(root_cut, st.integers(2, 12), small_rationals),
           st.sampled_from([1, 10, 10 ** 6, 10 ** 20, 10 ** 45, 10 ** 60]))
    def test_root_climbs_from_fine_brackets(self, leaf, n):
        # a bracket's lo sits within 1/n below the root: the climb has to
        # find a member in that last sliver
        x = bracket(leaf, n).lo
        y = next_member_above(leaf, x)
        assert x < y
        assert leaf_member_oracle(leaf, y)

    def test_high_degree_root_climbs_in_bounded_time(self):
        leaf = root_cut(5000, q(999, 998))
        x = bracket(leaf, 10 ** 30).lo
        start = time.perf_counter()
        y = next_member_above(leaf, x)
        assert time.perf_counter() - start < 2
        assert x < y
        assert leaf_member_oracle(leaf, y)

    def test_oracle_leaf_climbs_by_bisection(self):
        leaf = oracle_cut(lambda x: x < q(3, 2), q(1), q(2))
        # the midpoint of 1 and 2 is not a member; the next one, 5/4, is
        assert next_member_above(leaf, q(1)) == q(5, 4)
        y = next_member_above(leaf, q(149, 100))
        assert q(149, 100) < y < q(3, 2)


# ===========================================================================
# brackets on leaves


class TestLeafBrackets:
    @given(leaves, precisions)
    @settings(max_examples=60, deadline=None)
    def test_sound_and_tight(self, leaf, n):
        b = bracket(leaf, n)
        assert membership_leaf(leaf, b.lo)
        assert not membership_leaf(leaf, b.hi)
        assert leaf_member_oracle(leaf, b.lo)
        assert not leaf_member_oracle(leaf, b.hi)
        assert fr(b.hi) - fr(b.lo) <= Fraction(1, n)

    @given(rational_leaves, precisions)
    def test_rational_leaf_straddles_its_bound(self, leaf, n):
        assert straddles(bracket(leaf, n), fr(leaf.bound))

    @given(leaves, st.sampled_from([1, 3, 10, 50]))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_linear_stepping(self, leaf, n):
        # same contract reached by a different route; both enclose the
        # value, so they must intersect
        assert brackets_overlap(bracket(leaf, n), bracket_stepwise(leaf, n))

    @given(leaves, st.sampled_from([1, 4, 9, 100]))
    @settings(max_examples=40, deadline=None)
    def test_refinement_stays_consistent(self, leaf, n):
        assert bracket(leaf, 2 * n).lo <= bracket(leaf, n).hi
        assert bracket(leaf, n).lo <= bracket(leaf, 2 * n).hi

    def test_rejects_zero_precision(self):
        with pytest.raises(ValueError):
            bracket(s_r(q(1)), 0)
        with pytest.raises(ValueError):
            bracket_stepwise(s_r(q(1)), 0)

    @pytest.mark.parametrize("n", [1.5, Fraction(7, 2), "3"], ids=["float", "fraction", "str"])
    @pytest.mark.parametrize("node", ["leaf", "sum"])
    def test_rejects_non_integer_precision(self, node, n):
        a = s_r(q(1, 3)) if node == "leaf" else add(s_r(q(1, 3)), root_cut(2, q(2)))
        with pytest.raises(TypeError, match=re.escape(f"must be an int, got {n!r}")):
            bracket(a, n)

    def test_sqrt2_certified_exactly(self):
        b = bracket(root_cut(2, q(2)), 10 ** 6)
        assert b.lo.num ** 2 < 2 * b.lo.den ** 2
        assert b.hi.num ** 2 >= 2 * b.hi.den ** 2
        assert fr(b.width) <= Fraction(1, 10 ** 6)


def bisected(leaf, n):
    """The reference: plain bisection from the leaf's witnesses."""
    return _bisect(leaf, *leaf.witnesses(), n)


wide_precisions = st.one_of(
    st.integers(1, 10 ** 60),
    st.sampled_from([1, 2, 3, 10 ** 6, 2 ** 64, 2 ** 64 + 1, 10 ** 60]),
)


class TestClosedFormLeaves:
    """Rational and root leaves are bracketed without a search; the result
    must be the very bracket bisection from the witnesses ends on."""

    @given(st.integers(1, 10 ** 12), st.integers(1, 10 ** 12), wide_precisions)
    @settings(max_examples=150, deadline=None)
    def test_rational_leaf_equals_bisection(self, num, den, n):
        leaf = s_r(q(num, den))
        assert bracket(leaf, n) == bisected(leaf, n)

    @given(st.integers(2, 12), st.integers(1, 10 ** 9), st.integers(2, 10 ** 9),
           wide_precisions)
    @settings(max_examples=150, deadline=None)
    def test_root_leaf_equals_bisection(self, degree, num, den, n):
        radicand = q(num, den)
        assume(radicand.den > 1)
        assert bracket(root_cut(degree, radicand), n) \
            == bisected(root_cut(degree, radicand), n)

    @given(st.integers(2, 12), st.integers(1, 60), st.integers(2, 60), wide_precisions)
    @settings(max_examples=100, deadline=None)
    def test_perfect_power_root_equals_bisection(self, degree, p, s, n):
        radicand = q(p ** degree, s ** degree)
        assume(radicand.den > 1)
        assert bracket(root_cut(degree, radicand), n) \
            == bisected(root_cut(degree, radicand), n)

    @given(oracle_leaves, wide_precisions)
    @settings(max_examples=150, deadline=None)
    def test_oracle_leaf_equals_bisection(self, oracle, n):
        # an oracle searches for its largest member numerator, but the
        # bracket is still the one bisection from its witnesses ends on
        assert bracket(oracle, n) == bisected(oracle, n)

    @given(st.builds(PosRational, st.integers(1, 10 ** 12), st.integers(1, 10 ** 12)),
           wide_precisions)
    @settings(max_examples=100, deadline=None)
    def test_oracle_numerator_equals_the_closed_form(self, b, den):
        oracle = oracle_cut(lambda x: x < b, q(b.num, b.den + 1), b)
        assert oracle.largest_member_numerator(den) == s_r(b).largest_member_numerator(den)

    @pytest.mark.parametrize("n, halvings", [(10 ** 6, 0), (10 ** 30, 60)])
    def test_oracle_bisects_the_cells(self, counted, n, halvings):
        # one membership test per halving of the witnesses' gap, about
        # 10^-12: a search for the numerator over the grid's denominator,
        # about 10^24 times finer, took 40 tests at 10^6 and 100 at 10^30
        cut_module, _, tests = counted
        b = q(999999999999, 10 ** 12)
        oracle = oracle_cut(lambda x: x < b, q(b.num, b.den + 1), b)
        got = cut_module.bracket(oracle, n)
        assert tests["OracleCut"] == halvings
        assert got == bisected(oracle, n)

    @pytest.mark.parametrize("degree, radicand, root, lo, hi", [
        (2, q(4), q(2), q(1), q(3)),  # the root is the first midpoint
        (3, q(8, 27), q(2, 3), q(1, 3), q(1)),
        (5, q(1), q(1), q(1, 2), q(1)),  # the root is the outside witness
    ])
    @pytest.mark.parametrize("n", [2, 3, 10, 2 ** 20, 10 ** 60])
    def test_root_on_the_grid_is_the_upper_end(self, degree, radicand, root, lo, hi, n):
        # a root that is a grid point is not a member of its own cut, so
        # bisection keeps it as hi; the closed form must do the same.  The
        # chosen witnesses put the root on the grid at every level these
        # precisions reach
        leaf = root_cut(degree, radicand)
        b = _grid_bracket(leaf, (lo.num, lo.den), (hi.num, hi.den), n)
        assert b == _bisect(leaf, lo, hi, n)
        assert b.hi == root
        assert bracket(leaf, n) == bisected(root_cut(degree, radicand), n)
        assert straddles(bracket(leaf, n), fr(root))
        # the largest member numerator over a multiple of the root's
        # denominator stops one short of the root
        den = root.den * n
        assert leaf.largest_member_numerator(den) == root.num * n - 1

    def test_integer_root(self):
        for t in range(200):
            assert _iroot(t, 2) == math.isqrt(t)
            for d in range(3, 13):
                assert _iroot(t, d) == max(y for y in range(t + 1) if y ** d <= t)
        for x in (2, 3, 10, 2 ** 40 + 1, 10 ** 30):
            for d in range(2, 13):
                assert _iroot(x ** d, d) == x
                assert _iroot(x ** d - 1, d) == x - 1
                assert _iroot(x ** d + 1, d) == x

    @given(st.integers(0, 2 ** 3000), st.integers(3, 400))
    @settings(max_examples=200, deadline=None)
    def test_integer_root_brackets_the_root(self, t, d):
        r = _iroot(t, d)
        assert r ** d <= t < (r + 1) ** d

    def test_integer_root_of_high_degree_is_fast(self):
        # Newton from a power of two needs about d steps at degree d; the
        # bisected seed needs a handful
        t = 3 ** 190_000 + 12345  # about 301 000 bits
        start = time.perf_counter()
        r = _iroot(t, 3000)
        assert time.perf_counter() - start < 2
        assert r ** 3000 <= t < (r + 1) ** 3000


# ===========================================================================
# composite brackets, checked against exact rational values


def rational_value(f: Fraction):
    return s_r(PosRational(f.numerator, f.denominator))


class TestCompositeBrackets:
    @given(small_rationals, small_rationals, precisions)
    @settings(max_examples=50, deadline=None)
    def test_sum(self, a, b, n):
        cut_ab = add(s_r(a), s_r(b))
        bb = bracket(cut_ab, n)
        assert straddles(bb, fr(a) + fr(b))
        assert fr(bb.width) <= Fraction(1, n)

    @given(small_rationals, small_rationals, precisions)
    @settings(max_examples=50, deadline=None)
    def test_product(self, a, b, n):
        bb = bracket(mul(s_r(a), s_r(b)), n)
        assert straddles(bb, fr(a) * fr(b))
        assert fr(bb.width) <= Fraction(1, n)

    @given(small_rationals, precisions)
    @settings(max_examples=50, deadline=None)
    def test_inverse(self, a, n):
        bb = bracket(inverse(s_r(a)), n)
        assert straddles(bb, 1 / fr(a))
        assert fr(bb.width) <= Fraction(1, n)

    def test_inverse_of_two_straddles_half(self):
        assert straddles(bracket(inverse(s_r(q(2))), 1000), Fraction(1, 2))

    def test_double_inverse_straddles_three(self):
        assert straddles(bracket(inverse(inverse(s_r(q(3)))), 1000), Fraction(3))

    @given(small_rationals, small_rationals, precisions)
    @settings(max_examples=50, deadline=None)
    def test_difference(self, a, b, n):
        if not fr(a) < fr(b):
            return
        bb = bracket(difference(s_r(a), s_r(b)), n)
        assert straddles(bb, fr(b) - fr(a))
        assert fr(bb.width) <= Fraction(1, n)

    def test_difference_pinned_example(self):
        assert straddles(bracket(difference(s_r(q(1)), s_r(q(3))), 100), Fraction(2))

    @pytest.mark.parametrize("lower, upper, width", [
        (s_r(q(2)), s_r(q(1)), "1/1"),
        (root_cut(2, q(3)), root_cut(2, q(2)), "1/4"),
    ], ids=["rational", "root"])
    def test_difference_in_the_wrong_order_says_so(self, lower, upper, width):
        # brackets certify upper below lower long before the budget runs
        # out, and the error is the one strict subtraction raises
        with pytest.raises(NotGreaterError) as info:
            difference(lower, upper)
        assert str(info.value) == f"the upper operand is below the lower one at width {width}"

    def test_difference_of_equal_values_exhausts_budget(self):
        a = s_r(q(2))
        with pytest.raises(PrecisionBudgetExhausted):
            difference(a, s_r(q(2)), budget=2 ** 10)

    @pytest.mark.parametrize("budget,error,message", [
        (0, ValueError, "precision budget must be >= 1, got 0"),
        ("8", TypeError, "precision budget must be an int, got '8'"),
    ], ids=["zero", "str"])
    def test_given_budget_follows_the_precision_rule(self, budget, error, message):
        # 1 and 2 are separated at t = 1; the budget is refused before any search
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            difference(s_r(q(1)), s_r(q(2)), budget)

    def test_difference_recovers_after_budget_raise(self):
        # a failed search leaves nothing behind: building the difference
        # again with enough budget succeeds
        lower, upper = s_r(q(1)), s_r(q(1, 1) + q(1, 64))
        with pytest.raises(PrecisionBudgetExhausted):
            difference(lower, upper, budget=2)
        assert straddles(bracket(difference(lower, upper), 10), Fraction(1, 64))

    def test_difference_separating_late_serves_any_request_order(self):
        # the operands are 1/64 apart, so no bracket separates them at
        # t = 1; the upper one is a cached composite
        lower = s_r(q(1))
        upper = add(s_r(q(1, 2)), s_r(q(1, 2) + q(1, 64)))
        with pytest.raises(PrecisionBudgetExhausted):
            difference(lower, upper, budget=1)
        d = difference(lower, upper)
        for n in (10, 10 ** 6, 10 ** 3):
            b = bracket(d, n)
            assert straddles(b, Fraction(1, 64))
            assert fr(b.width) <= Fraction(1, n)

    @pytest.mark.parametrize("gap", [q(1, 64), q(1, 10 ** 5)])
    def test_fresh_difference_asks_each_operand_once(self, asked, gap):
        # the separation was found when the difference was built, at
        # width 1/t, so a fresh bracket asks each operand once, at
        # max(2n, t): below 2n for the first gap, above it for the second
        lower, upper = s_r(q(1)), s_r(q(1) + gap)
        d = difference(lower, upper)
        cut_module, _, requests = asked
        requests.clear()
        cut_module.bracket(d, 1000)
        m = max(2000, d.t)
        assert requests == [(d, 1000), (lower, m), (upper, m)]

    @given(st.lists(small_rationals, min_size=1, max_size=5), precisions)
    @settings(max_examples=50, deadline=None)
    def test_sup_finite(self, values, n):
        family = sup_finite([s_r(v) for v in values])
        bb = bracket(family, n)
        assert straddles(bb, max(fr(v) for v in values))
        assert fr(bb.width) <= Fraction(1, n)

    def test_sup_singleton_is_transparent(self):
        a = s_r(q(7, 5))
        wrapped = sup_finite([a])
        for n in (1, 10, 1000):
            assert bracket(wrapped, n) == bracket(a, n)

    def test_sup_with_irrational_member(self):
        family = sup_finite([root_cut(2, q(2)), s_r(q(1))])
        b = bracket(family, 1000)
        assert b.lo.num ** 2 < 2 * b.lo.den ** 2
        assert b.hi.num ** 2 >= 2 * b.hi.den ** 2

    def test_sup_rejects_empty_family(self):
        with pytest.raises(EmptyFamilyError):
            sup_finite([])

    def test_deep_nesting_still_certifies(self):
        expr = mul(add(root_cut(2, q(2)), inverse(s_r(q(3)))),
                   difference(s_r(q(1)), s_r(q(2))))
        b = bracket(expr, 10 ** 4)
        # value is sqrt(2) + 1/3 times 1: compare against the isqrt oracle
        import math
        m = math.isqrt(2 * 10 ** 12)
        lo = Fraction(m, 10 ** 6) + Fraction(1, 3)
        hi = Fraction(m + 1, 10 ** 6) + Fraction(1, 3)
        assert fr(b.lo) < hi and lo < fr(b.hi)
        assert fr(b.width) <= Fraction(1, 10 ** 4)


# ===========================================================================
# algebraic laws, observed through overlapping brackets


class TestAlgebra:
    @given(leaves, leaves, st.sampled_from([10, 1000]))
    @settings(max_examples=30, deadline=None)
    def test_commutativity(self, a, b, n):
        assert brackets_overlap(bracket(add(a, b), n), bracket(add(b, a), n))
        assert brackets_overlap(bracket(mul(a, b), n), bracket(mul(b, a), n))

    @given(leaves, leaves, leaves, st.sampled_from([10, 1000]))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, a, b, c, n):
        assert brackets_overlap(bracket(add(add(a, b), c), n),
                                bracket(add(a, add(b, c)), n))
        assert brackets_overlap(bracket(mul(mul(a, b), c), n),
                                bracket(mul(a, mul(b, c)), n))

    @given(leaves, leaves, leaves, st.sampled_from([10, 1000]))
    @settings(max_examples=25, deadline=None)
    def test_distributivity(self, a, b, c, n):
        assert brackets_overlap(bracket(mul(a, add(b, c)), n),
                                bracket(add(mul(a, b), mul(a, c)), n))

    @given(leaves, st.sampled_from([10, 1000]))
    @settings(max_examples=30, deadline=None)
    def test_one_is_neutral(self, a, n):
        assert brackets_overlap(bracket(mul(s_r(q(1)), a), n), bracket(a, n))

    @given(leaves, st.sampled_from([10, 1000]))
    @settings(max_examples=30, deadline=None)
    def test_reciprocal_law(self, a, n):
        assert straddles(bracket(mul(a, inverse(a)), n), Fraction(1))

    @given(small_rationals, small_rationals, st.sampled_from([100, 1000]))
    @settings(max_examples=30, deadline=None)
    def test_difference_undoes_addition(self, a, b, n):
        if not fr(a) < fr(b):
            return
        restored = add(s_r(a), difference(s_r(a), s_r(b)))
        assert straddles(bracket(restored, n), fr(b))
        assert brackets_overlap(bracket(restored, n), bracket(s_r(b), n))


# ===========================================================================
# relative refinement and comparison


class TestRatioRefine:
    @given(leaves, st.sampled_from([2, 5, 100]))
    @settings(max_examples=30, deadline=None)
    def test_relative_gap(self, a, m):
        b = ratio_refine(a, m)
        assert fr(b.lo) / fr(b.hi) > Fraction(m - 1, m)
        assert membership_leaf(a, b.lo) and not membership_leaf(a, b.hi)

    def test_pinned_example_on_sqrt2(self):
        b = ratio_refine(root_cut(2, q(2)), 100)
        assert fr(b.lo) / fr(b.hi) > Fraction(99, 100)
        assert b.lo.num ** 2 < 2 * b.lo.den ** 2 and b.hi.num ** 2 >= 2 * b.hi.den ** 2

    def test_rejects_vacuous_ratio(self):
        for m in (1, 0, -3):
            with pytest.raises(ValueError):
                ratio_refine(s_r(q(1)), m)


class TestCompare:
    def test_pinned_example(self):
        assert compare(s_r(q(1)), s_r(q(2)), 10) is Comparison.LESS

    @given(small_rationals, small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_certificates_are_sound(self, a, b):
        # at a precision fine enough for the gap the certificate must
        # appear, and it must agree with the exact order
        fa, fb = fr(a), fr(b)
        if fa == fb:
            return
        gap = abs(fa - fb)
        n = int(2 / gap) + 1
        verdict = compare(s_r(a), s_r(b), n)
        assert verdict is (Comparison.LESS if fa < fb else Comparison.GREATER)

    @given(small_rationals, st.sampled_from([1, 10, 1000]))
    def test_equal_values_always_overlap(self, a, n):
        assert compare(s_r(a), s_r(PosRational(a.num, a.den)), n) is Comparison.OVERLAP

    @given(small_rationals, small_rationals, st.sampled_from([1, 10, 100]))
    @settings(max_examples=60, deadline=None)
    def test_overlap_bounds_the_distance(self, a, b, n):
        if compare(s_r(a), s_r(b), n) is Comparison.OVERLAP:
            assert abs(fr(a) - fr(b)) <= Fraction(2, n)

    @given(small_rationals, small_rationals, st.sampled_from([1, 10, 100]))
    @settings(max_examples=60, deadline=None)
    def test_never_a_reversed_certificate(self, a, b, n):
        if fr(a) < fr(b):
            assert compare(s_r(a), s_r(b), n) is not Comparison.GREATER

    def test_square_of_sqrt2_never_separates_from_two(self):
        r2 = root_cut(2, q(2))
        square = mul(r2, r2)
        for n in (1, 10, 1000, 10 ** 5):
            assert compare(square, s_r(q(2)), n) is Comparison.OVERLAP


# ===========================================================================
# plumbing: the bracket cache, trace hooks and debug rendering


@pytest.fixture
def counted(monkeypatch):
    import segreals.cut as cut_module
    brackets, tests = Counter(), Counter()
    plain_bracket, plain_member = cut_module.bracket, cut_module.membership_leaf

    def counting_bracket(a, n):
        brackets[type(a).__name__] += 1
        return plain_bracket(a, n)

    def counting_member(a, x):
        tests[type(a).__name__] += 1
        return plain_member(a, x)

    monkeypatch.setattr(cut_module, "bracket", counting_bracket)
    monkeypatch.setattr(cut_module, "membership_leaf", counting_member)
    return cut_module, brackets, tests


signed_small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


class TestMemoisation:
    def test_repeated_queries_hit_the_cache(self):
        a = add(root_cut(2, q(2)), s_r(q(1, 3)))
        assert bracket(a, 1000) is bracket(a, 1000)

    def test_coarser_request_is_served_without_work(self, counted):
        cut_module, brackets, _ = counted
        a = mul(add(root_cut(2, q(2)), s_r(q(1, 3))), inverse(s_r(q(3))))
        fine = cut_module.bracket(a, 10 ** 6)
        brackets.clear()
        assert cut_module.bracket(a, 10 ** 3) is fine
        assert brackets == {"Product": 1}  # the request itself, nothing nested

    def test_finer_request_is_served_up_to_the_width(self, counted):
        # the stored bracket answers every n with width*n <= 1, also n
        # above the precision it was asked at, and no n beyond that
        cut_module, brackets, _ = counted
        a = mul(add(root_cut(2, q(2)), s_r(q(1, 3))), inverse(s_r(q(3))))
        fine = cut_module.bracket(a, 10 ** 6)
        reach = math.floor(1 / fr(fine.width))
        assert reach > 10 ** 6  # a product comes out narrower than asked
        brackets.clear()
        assert cut_module.bracket(a, reach) is fine
        assert brackets == {"Product": 1}
        finer = cut_module.bracket(a, reach + 1)
        assert finer is not fine and sum(brackets.values()) > 2  # computed afresh
        assert fr(finer.width) <= Fraction(1, reach + 1)

    def test_record_is_the_stored_bracket_with_its_reach(self):
        # the record keeps the finest precision the bracket serves, not
        # the one it was asked at: a product comes out narrower than asked
        a = mul(add(root_cut(2, q(2)), s_r(q(1, 3))), inverse(s_r(q(3))))
        fine = bracket(a, 10 ** 6)
        reach = math.floor(1 / fr(fine.width))
        assert reach > 10 ** 6
        assert a._best == (reach, fine) and a._best[1] is fine

    @pytest.mark.parametrize("leaf",[s_r(q(22, 7)), root_cut(3, q(5, 2))])
    def test_leaves_ignore_earlier_requests(self, leaf):
        # closed-form leaves keep nothing, so a fine request never changes
        # the bytes of a later coarse one
        for n in (1, 7, 1000, 10 ** 6):
            bracket(leaf, 10 ** 40)
            lo, hi = leaf.witnesses()
            assert bracket(leaf, n) == _grid_bracket(leaf, (lo.num, lo.den), (hi.num, hi.den), n)

    @given(st.sampled_from([2, 3, 5]),
           st.lists(signed_small, min_size=1, max_size=3),
           st.lists(st.tuples(st.sampled_from(["add", "sub", "mul", "inv"]),
                              st.integers(0, 99), st.integers(0, 99)),
                    min_size=1, max_size=5),
           st.lists(st.tuples(st.integers(0, 999),
                              st.sampled_from([1, 3, 10, 97, 1000, 10 ** 6, 10 ** 9])),
                    min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_shared_nodes_in_any_order_stay_certified(self, p, consts, ops, requests):
        # real.mul feeds every component to two products and real.inv
        # builds a difference, so nodes are shared and each is asked at
        # precisions in whatever order the requests come
        pool = [f_embed(root_cut(2, q(p)))] + [g_embed(c) for c in consts]
        for op, i, j in ops:
            x, y = pool[i % len(pool)], pool[j % len(pool)]
            if op == "inv":
                try:
                    pool.append(real.inv(x, 10 ** 6))
                except ZeroAtPrecision:
                    pass
            else:
                pool.append(getattr(real, op)(x, y))
        nodes = list(surd_values([c for x in pool for c in (x.pos, x.neg)], p).values())
        for c, (a, b) in nodes:
            assert surd_sign(c.ceiling - a, -b, p) >= 0  # value <= ceiling
        for k, n in requests:
            c, (a, b) = nodes[k % len(nodes)]
            br = bracket(c, n)
            assert fr(br.width) <= Fraction(1, n)
            assert surd_sign(a - fr(br.lo), b, p) > 0  # lo < value
            assert surd_sign(fr(br.hi) - a, -b, p) >= 0  # value <= hi

    def test_threads_never_widen_the_stored_bracket(self):
        # many threads refine one node in different orders; its predicate
        # yields the interpreter lock on every test, so bisections at
        # different precisions interleave.  A watcher records the node's
        # stored bracket meanwhile, which must only ever get narrower
        def member(x):
            time.sleep(0)
            return x.num ** 2 < 2 * x.den ** 2

        a = oracle_cut(member, q(1), q(2))
        precisions = [10 ** k for k in range(1, 30)]
        widths_ok, stored = [], [None]

        def work(seed):
            order = random.Random(seed).sample(precisions, len(precisions))
            widths_ok.append(all(fr(bracket(a, n).width) <= Fraction(1, n) for n in order))

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            while any(t.is_alive() for t in threads):
                if a._best[1] is not stored[-1]:
                    stored.append(a._best[1])
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert widths_ok == [True] * 8
        widths = [fr(b.width) for b in stored[1:] + [a._best[1]]]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] <= Fraction(1, precisions[-1])

    def test_nested_products_grow_linearly(self, counted):
        # (2*(2*(...1...))): real.mul asks each operand at several
        # precisions; a cache keyed by exact n missed nearly all of them
        # and the calls grew about 2.2x per level
        cut_module, brackets, _ = counted

        def calls(levels):
            brackets.clear()
            text = "(2*" * levels + "1" + ")" * levels
            approx.decimal(exprcli.evaluate(exprcli.parse(text), 10 ** 7), 5)
            return sum(brackets.values())

        assert calls(16) <= 4 * calls(8)

    def test_concurrent_queries_agree(self):
        a = mul(add(root_cut(2, q(2)), s_r(q(1, 3))), inverse(s_r(q(3))))
        results = []
        lock = threading.Lock()

        def work():
            b = bracket(a, 10 ** 4)
            with lock:
                results.append(b)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert all(b.lo == results[0].lo and b.hi == results[0].hi for b in results)


def sum_tree(terms: list, shape: str):
    """The sum of `terms` as a left-deep, right-deep or balanced tree."""
    if shape == "balanced" and len(terms) > 1:
        mid = len(terms) // 2
        return add(sum_tree(terms[:mid], shape), sum_tree(terms[mid:], shape))
    if shape == "right":
        terms = terms[::-1]
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t) if shape == "left" else add(t, total)
    return total


@pytest.fixture
def asked(counted, monkeypatch):
    """Every (node, n) that cut.bracket is asked, in order, beside `counted`."""
    cut_module, brackets, _ = counted
    requests = []
    counting = cut_module.bracket

    def recording(a, n):
        requests.append((a, n))
        return counting(a, n)

    monkeypatch.setattr(cut_module, "bracket", recording)
    return cut_module, brackets, requests


class TestFlatSums:
    """A sum subtree is bracketed in one pass over its k terms, each asked
    at n * 2^ceil(log2 k), however deep the subtree is."""

    @given(st.sampled_from([2, 3, 5, 7]),
           st.lists(st.tuples(st.sampled_from(["rational", "sqrt", "product", "inverse",
                                               "shared", "scaled"]), small_rationals),
                    min_size=1, max_size=40),
           st.sampled_from(["left", "right", "balanced"]),
           st.sampled_from([None, 1, 1000, 10 ** 9]),
           st.sampled_from([1, 10, 1000, 10 ** 6, 10 ** 12]))
    @settings(max_examples=60, deadline=None)
    def test_sum_trees_stay_certified(self, p, specs, shape, prebracket, n):
        root = root_cut(2, q(p))
        # one nested sum appears as a term, inside products, or both; it
        # is bracketed beforehand or not
        shared = sum_tree([s_r(q(1, 3)), root, s_r(q(2))], shape)
        if prebracket is not None:
            bracket(shared, prebracket)
        make = {"rational": s_r, "sqrt": lambda r: root,
                "product": lambda r: mul(s_r(r), root),
                "inverse": lambda r: inverse(add(s_r(r), root)),
                "shared": lambda r: shared, "scaled": lambda r: mul(shared, s_r(r))}
        top = sum_tree([make[kind](r) for kind, r in specs], shape)
        a, b = surd_values([top], p)[id(top)][1]
        for m in (n, 10 * n):
            br = bracket(top, m)
            assert fr(br.width) <= Fraction(1, m)
            assert surd_sign(a - fr(br.lo), b, p) > 0  # lo < value
            assert surd_sign(fr(br.hi) - a, -b, p) >= 0  # value <= hi

    @pytest.mark.parametrize("k, scale", [(2, 2), (3, 4), (40, 64), (300, 512)])
    def test_chain_asks_each_term_once(self, asked, k, scale):
        cut_module, brackets, requests = asked
        terms = [s_r(q(j, 7)) if j % 3 else root_cut(2, q(j)) for j in range(1, k + 1)]
        top = sum_tree(terms, "left")
        cut_module.bracket(top, 1000)
        assert brackets["Sum"] == 1
        assert requests[0] == (top, 1000)
        assert [t for t, _ in requests[1:]] == terms
        assert {m for _, m in requests[1:]} == {1000 * scale}

    def test_a_pass_asks_each_distinct_term_once(self, asked):
        # one S_1 node, one root and one product recur among distinct leaves:
        # each distinct node is asked once, in first-occurrence order, at
        # n*2^ceil(log2 k) with k counting every occurrence (11, so 16n)
        cut_module, brackets, requests = asked
        one, root = s_r(q(1)), root_cut(2, q(2))
        prod = mul(root_cut(2, q(3)), s_r(q(5, 3)))
        a, b, c = s_r(q(1, 2)), root_cut(3, q(7)), s_r(q(9, 4))
        terms = [one, a, root, one, prod, b, root, one, prod, c, one]
        top = sum_tree(terms, "left")
        br = cut_module.bracket(top, 1000)
        distinct = [one, a, root, prod, b, c]
        assert requests[0] == (top, 1000)
        assert [(t, m) for t, m in requests[1:]
                if t is not prod.left and t is not prod.right] == \
            [(t, 16000) for t in distinct]
        assert brackets["Sum"] == 1
        # the exact total over every occurrence, each term's bracket at 16n
        # read again: closed form on the leaves, the stored one on the product
        parts = [cut_module.bracket(t, 16000) for t in terms]
        assert fr(br.lo) == sum(fr(p.lo) for p in parts)
        assert fr(br.hi) == sum(fr(p.hi) for p in parts)

    @pytest.mark.parametrize("prebracket", [False, True])
    def test_nested_sum_with_a_bracket_is_one_term(self, asked, prebracket):
        cut_module, brackets, requests = asked
        a, b, c, d = s_r(q(1, 2)), root_cut(2, q(3)), s_r(q(5, 4)), root_cut(3, q(7))
        inner = add(b, c)
        if prebracket:
            bracket(inner, 10 ** 9)
        top = add(add(a, inner), d)
        requests.clear()
        brackets.clear()
        cut_module.bracket(top, 1000)
        if prebracket:  # three terms, and the inner sum serves from its cache
            assert requests == [(top, 1000), (a, 4000), (inner, 4000), (d, 4000)]
            assert brackets["Sum"] == 2
        else:  # opened: four terms
            assert requests == [(top, 1000), (a, 4000), (b, 4000), (c, 4000), (d, 4000)]
            assert brackets["Sum"] == 1

    @pytest.mark.parametrize("depth", [20, 60])
    def test_doubling_a_shared_sum_is_not_exponential(self, counted, monkeypatch, depth):
        # x = x + x, `depth` times: a sum opened once in a pass stays one
        # term when it is reached again, so 2^depth leaves are never walked
        cut_module, brackets, _ = counted
        counting = cut_module.bracket

        def bounded(a, n):
            assert sum(brackets.values()) < 2 * depth ** 2, "more calls than depth^2"
            return counting(a, n)

        monkeypatch.setattr(cut_module, "bracket", bounded)
        x = s_r(q(1))
        for _ in range(depth):
            x = add(x, x)
        br = cut_module.bracket(x, 10 ** 6)
        assert straddles(br, Fraction(2 ** depth))
        assert fr(br.width) <= Fraction(1, 10 ** 6)

    def test_twenty_thousand_terms_without_recursion(self):
        terms = [s_r(q(j % 7 + 1, 3)) if j % 2 else root_cut(2, q(2)) for j in range(20000)]
        top = sum_tree(terms, "left")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(min(limit, 1000))  # the interpreter's default
        try:
            start = time.perf_counter()
            br = bracket(top, 10 ** 6)
            elapsed = time.perf_counter() - start
        finally:
            sys.setrecursionlimit(limit)
        assert elapsed < 2
        assert fr(br.width) <= Fraction(1, 10 ** 6)
        rational = sum(Fraction(j % 7 + 1, 3) for j in range(1, 20000, 2))
        assert surd_sign(rational - fr(br.lo), Fraction(10000), 2) > 0
        assert surd_sign(fr(br.hi) - rational, Fraction(-10000), 2) >= 0


def dyadic(x: PosRational) -> bool:
    return x.den & (x.den - 1) == 0


class TestOutwardRounding:
    """Products and inverses round their brackets outward onto the grid
    1/2^k with 2^k >= 4n, so their endpoints track the precision served."""

    @given(st.sampled_from([2, 3, 5, 7]),
           st.lists(small_rationals, min_size=1, max_size=3),
           st.lists(st.tuples(st.sampled_from(["mul", "inv"]),
                              st.integers(0, 99), st.integers(0, 99)),
                    min_size=1, max_size=8),
           st.lists(st.tuples(st.integers(0, 999),
                              st.sampled_from([1, 3, 10, 97, 1000, 10 ** 6, 10 ** 12])),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_product_and_inverse_trees_stay_certified(self, p, consts, ops, requests):
        pool = [root_cut(2, q(p))] + [s_r(c) for c in consts]
        for op, i, j in ops:
            x, y = pool[i % len(pool)], pool[j % len(pool)]
            pool.append(mul(x, y) if op == "mul" else inverse(x))
        nodes = list(surd_values(pool, p).values())
        # every node, first at the requested precisions in the drawn order,
        # then each at 10^6, so nodes nested in others are asked directly too
        for k, n in requests + [(k, 10 ** 6) for k in range(len(nodes))]:
            c, (a, b) = nodes[k % len(nodes)]
            br = bracket(c, n)
            assert fr(br.width) <= Fraction(1, n)
            assert surd_sign(a - fr(br.lo), b, p) > 0  # lo < value
            assert surd_sign(fr(br.hi) - a, -b, p) >= 0  # value <= hi
            if isinstance(c, (Product, Inverse)):
                assert dyadic(br.hi)
                # off the grid only when no positive grid point is below it,
                # on a grid at least 1/4 fine (the bracket served may have
                # been computed for a coarser request than n)
                assert dyadic(br.lo) or 4 * br.lo.num <= br.lo.den

    @given(st.builds(PosRational, st.integers(1, 10 ** 6), st.integers(1, 10 ** 12)),
           st.integers(1, 10 ** 9))
    def test_each_grid_step_costs_at_most_a_quarter_of_the_width(self, x, n):
        k = _grid_bits(n)
        assert 4 * n <= 2 ** k < 8 * n
        step = Fraction(1, 2 ** k)
        above, below = _grid_above(x.num, x.den, k), _grid_below(x.num, x.den, k)
        assert dyadic(above) and fr(x) <= fr(above) < fr(x) + step
        if below is None:
            assert fr(x) <= step
        else:
            assert dyadic(below) and fr(x) - step <= fr(below) < fr(x)

    def test_product_near_zero_keeps_a_positive_member(self):
        # 1/10^30 * 1/(10^30 + 1): no grid point of a bracket at n = 10
        # lies in (0, lo], so lo stays the unrounded member, near the value
        a, b = s_r(q(1, 10 ** 30)), inverse(s_r(q(10 ** 30 + 1)))
        value = Fraction(1, 10 ** 30 * (10 ** 30 + 1))
        for c, v in ((b, Fraction(1, 10 ** 30 + 1)), (mul(a, b), value)):
            br = bracket(c, 10)
            assert v / 2 < fr(br.lo) < v <= fr(br.hi)
            assert fr(br.width) <= Fraction(1, 10)
            assert dyadic(br.hi) and not dyadic(br.lo)

    @pytest.mark.parametrize("text", ["1/(" * 30 + "3" + ")" * 30,
                                      "(2*" * 30 + "1" + ")" * 30])
    def test_nested_endpoints_track_the_precision(self, counted, monkeypatch, text):
        # without rounding, endpoint bits multiply with every level: a
        # nested inverse passes 30 000 bits by L = 8.  With it they follow
        # the precisions asked: about 185 bits for the nested inverse at
        # L = 30, and about 120 for the nested product, whose levels ask
        # each operand at 4n times the other's ceiling
        cut_module, _, _ = counted
        levels, n = 30, 10 ** 7
        limit = 20 * (levels + n.bit_length())
        counting = cut_module.bracket

        def bounded(a, m):
            br = counting(a, m)
            bits = max(x.bit_length() for x in (br.lo.num, br.lo.den, br.hi.num, br.hi.den))
            assert bits <= limit, f"{type(a).__name__} endpoint of {bits} bits"
            return br

        monkeypatch.setattr(cut_module, "bracket", bounded)
        x = exprcli.evaluate(exprcli.parse(text), n)
        assert approx.decimal(x, 5) == ("3.00000" if text[0] == "1" else f"{2 ** 30}.00000")


class TestCeilings:
    """Every node carries a certified integer ceiling, fixed when it is
    built from its operands' ceilings; a product of two nodes that have
    one asks each operand at 4n times the other's ceiling, and spends no
    bracket on magnitudes."""

    def test_pinned_ceilings(self):
        assert (s_r(q(7, 2)).ceiling, s_r(q(3)).ceiling, s_r(q(1, 10 ** 30)).ceiling) == (4, 3, 1)
        # r < 2^b gives r^(1/k) < 2^ceil(b/k), tight just below a power of two
        assert root_cut(2, q(15)).ceiling == 4 and root_cut(2, q(16)).ceiling == 8
        assert root_cut(3, q(2 ** 30 - 1)).ceiling == 2 ** 10
        assert oracle_cut(lambda x: x < q(3, 2), q(1), q(5, 2)).ceiling == 3
        a, b = s_r(q(5, 2)), root_cut(2, q(2))
        assert (add(a, b).ceiling, mul(a, b).ceiling, difference(b, a).ceiling) == (5, 6, 3)
        assert sup_finite([a, b, s_r(q(1))]).ceiling == 3
        # an inverse keeps x0, the lower end of its operand's bracket at
        # n = 1 (a leaf's inner witness here), and takes ceil(1/x0) + 1
        assert (inverse(a).x0, inverse(a).ceiling) == (q(5, 3), 2)
        assert (inverse(s_r(q(1, 9))).x0, inverse(s_r(q(1, 9))).ceiling) == (q(1, 10), 11)
        assert inverse(inverse(s_r(q(3)))).ceiling == 5  # x0 = 1/4
        # and the nodes above an inverse build on its ceiling
        assert (mul(a, inverse(b)).ceiling, add(inverse(b), a).ceiling) == (6, 5)
        assert sup_finite([a, inverse(b)]).ceiling == 3
        assert difference(a, inverse(s_r(q(1, 9)))).ceiling == 11

    @given(st.lists(st.tuples(st.sampled_from(["rational", "root", "inverse", "product",
                                               "sum"]), tiny_rationals | small_rationals),
                    min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_a_sum_adds_its_terms_ceilings(self, drawn):
        # a sum computes its ceiling itself, however `add` or `add_all` built it
        terms = []
        for kind, r in drawn:
            c = s_r(r) if kind == "rational" else root_cut(3, r)
            if kind == "inverse":
                c = inverse(c)
            elif kind == "product":
                c = mul(c, root_cut(2, r))
            elif kind == "sum":
                c = add_all([c, s_r(r), c])
            terms.append(c)
        assert add(terms[0], terms[1]).ceiling == terms[0].ceiling + terms[1].ceiling
        assert add_all(terms).ceiling == sum(t.ceiling for t in terms)
        assert add_all(iter(terms)).ceiling == sum(t.ceiling for t in terms)

    @given(st.integers(2, 5),
           st.lists(st.tuples(st.sampled_from(["rational", "oracle"]),
                              tiny_rationals | small_rationals)
                    | st.tuples(st.just("root"), radicands), min_size=1, max_size=4),
           st.lists(st.tuples(st.sampled_from(["mul", "mul", "sup"]),
                              st.integers(0, 99), st.integers(0, 99)),
                    min_size=1, max_size=6),
           st.sampled_from([1, 3, 10, 97, 1000, 10 ** 6, 10 ** 12]))
    @settings(max_examples=80, deadline=None)
    def test_products_over_roots_stay_certified(self, k, leaves, ops, n):
        # each node's value v is tracked exactly through v^k, a rational:
        # k-th roots multiply and compare through their k-th powers
        pool = []
        for kind, r in leaves:
            if kind == "root":
                pool.append((root_cut(k, r), fr(r)))
            elif kind == "rational":
                pool.append((s_r(r), fr(r) ** k))
            else:
                pool.append((oracle_cut(lambda x, b=r: x < b, q(r.num, r.den + 1), r),
                             fr(r) ** k))
        for op, i, j in ops:
            (x, vx), (y, vy) = pool[i % len(pool)], pool[j % len(pool)]
            pool.append((mul(x, y), vx * vy) if op == "mul"
                        else (sup_finite([x, y]), max(vx, vy)))
        for c, power in pool[::-1]:
            assert Fraction(c.ceiling) ** k >= power  # the ceiling is a non-member
            br = bracket(c, n)
            assert fr(br.width) <= Fraction(1, n)
            assert fr(br.lo) ** k < power <= fr(br.hi) ** k

    def test_exact_product_takes_half_the_width(self, monkeypatch):
        # a root just below a power of two, its ceiling, may be bracketed
        # with an upper end above it; clamped to the ceiling, the exact
        # product of the operands' ends is at most 1/(2n) wide, and the two
        # grid steps take the other half
        import segreals.cut as cut_module
        ends = []
        plain_below, plain_above = cut_module._grid_below, cut_module._grid_above
        monkeypatch.setattr(cut_module, "_grid_below", lambda num, den, k:
                            ends.append(Fraction(num, den)) or plain_below(num, den, k))
        monkeypatch.setattr(cut_module, "_grid_above", lambda num, den, k:
                            ends.append(Fraction(num, den)) or plain_above(num, den, k))
        roots = [root_cut(k, q(2 ** (b * k) - d)) for k in (2, 4, 5) for b in (1, 2, 3)
                 for d in (1, 2)]
        for a in roots:
            for b in roots:
                for n in (1, 2, 3):
                    ends.clear()
                    br = bracket(mul(a, b), n)
                    lo, hi = ends
                    assert fr(hi) - fr(lo) <= Fraction(1, 2 * n)
                    assert fr(br.width) <= Fraction(1, n)

    @staticmethod
    def evaluated(brackets, text):
        brackets.clear()
        out = approx.decimal(exprcli.evaluate(exprcli.parse(text), 10 ** 7), 5)
        return out, sum(brackets.values())

    def test_root_chain_is_linear(self, asked):
        # each factor is asked at 4n times the other's ceiling, with no
        # bracket at n = 1 that walks the chain below: about 2L calls, and
        # requests that grow with the bits of the value, not quadratically
        _, brackets, requests = asked
        out, calls = self.evaluated(brackets, "*".join(["sqrt(2)"] * 100))
        assert out == f"{2 ** 50}.00000"
        assert calls <= 400
        assert max(n for _, n in requests) <= 2 ** 400

    def test_nested_product_is_linear(self, counted):
        _, brackets, _ = counted
        out, calls = self.evaluated(brackets, "(2*" * 100 + "1" + ")" * 100)
        assert out == f"{2 ** 100}.00000"
        assert calls <= 400

    def test_product_over_an_inverse_asks_nothing_at_one(self, asked):
        # the inverse bracketed its operand at n = 1 when it was built; the
        # product then asks each operand at 4n times the other's ceiling
        # (the difference below still searches for its separation from t = 1)
        _, _, requests = asked
        a = root_cut(2, q(2))
        inv = inverse(difference(s_r(q(1)), add(a, s_r(q(1)))))
        requests.clear()
        br = bracket(mul(a, inv), 1000)
        assert fr(br.width) <= Fraction(1, 1000) and straddles(br, Fraction(1))
        below = (a, inv, inv.operand)
        assert [n for c, n in requests if n == 1 and any(c is b for b in below)] == []
        assert any(c is inv.operand for c, _ in requests)

    def test_inverse_brackets_its_operand_when_built(self, asked):
        # two equal values never separate, so the budget runs out while
        # their difference is built, before an inverse of it can be
        with pytest.raises(PrecisionBudgetExhausted):
            inverse(difference(s_r(q(2)), s_r(q(2)), budget=2 ** 10))
        # an inverse of a difference that separates asks it once, at n = 1
        d = difference(s_r(q(1)), s_r(q(2)))
        _, _, requests = asked
        requests.clear()
        inverse(d)
        assert [r for r in requests if r[0] is d] == [(d, 1)]

    @pytest.mark.parametrize("levels, before", [(30, 4582), (60, 14812)])
    def test_nested_inverses_cost_no_more(self, counted, levels, before):
        # each inverse keeps a member x0 of its operand from when it was
        # built, so products above one ask without an n = 1 step; its
        # ceiling, ceil(1/x0) + 1, asks the other factor finely enough
        # that the next divisor's certificate finds the product's stored
        # bracket narrow enough, where ceil(1/x0) alone made L = 60 dearer
        _, brackets, _ = counted
        out, calls = self.evaluated(brackets, "1/(" * levels + "3" + ")" * levels)
        assert out == "3.00000"
        assert calls <= before

    @pytest.mark.parametrize("text, value, bound", [
        # inverting through a Difference of the canonical pair took 19 343
        # calls here, and one wrapper frame more raised RecursionError
        ("1/(" * 100 + "3" + ")" * 100, "3.00000", 9000),
        # 12 029 calls when each sum divisor was inverted through a Difference
        ("1/(1+" * 50 + "sqrt(2)" + ")" * 50, "0.61803", 7500),
    ], ids=["nested-inverse-100", "continued-fraction-50"])
    def test_divisors_of_known_sign_invert_their_magnitude(self, counted, text, value, bound):
        # a sum of same-sign terms records its magnitude, and inv inverts
        # it after the certificate: no Difference is built
        _, brackets, _ = counted
        out, calls = self.evaluated(brackets, text)
        assert out == value
        assert calls <= bound
        assert brackets["Difference"] == 0

    def test_long_same_sign_divisor_is_linear(self, counted):
        # the magnitude chain shares no Sum node with the pair that the
        # certificate has just bracketed, so a k-term divisor pays about
        # 3k calls where the canonical pair's difference paid about k
        # (73 and 133 calls at k = 20 and 40, from 35 and 55); linear still
        _, brackets, _ = counted
        calls = {}
        for k in (20, 40):
            text = "1/(" + "+".join(f"{i}/7" for i in range(1, k + 1)) + ")"
            out, calls[k] = self.evaluated(brackets, text)
            assert out == oracle_decimal(Fraction(14, k * (k + 1)), 5)
        assert calls[40] <= 2 * calls[20]


class TestTraceHooks:
    """Composite nodes recurse through the module attribute `cut.bracket`
    and leaves are tested through `cut.membership_leaf`, so one wrapper on
    each sees every bracket and every membership test.  Outside-in tracers
    (perfbench/spans.py) rely on exactly that."""

    def test_every_kind_is_bracketed_through_the_module(self, counted):
        cut_module, brackets, _ = counted
        half, root = s_r(q(1, 2)), root_cut(2, q(2))
        oracle = oracle_cut(lambda x: x < q(3, 2), q(1), q(2))
        family = sup_finite([mul(root, oracle), difference(half, add(root, half))])
        b = cut_module.bracket(add(inverse(family), half), 100)
        assert fr(b.width) <= Fraction(1, 100)
        assert set(brackets) == {"RationalCut", "RootCut", "OracleCut", "Sum", "Product",
                                 "Inverse", "Difference", "SupFinite"}
        # the top Sum is the only call made from outside the module
        assert brackets["Sum"] >= 2

    def test_leaf_membership_goes_through_the_module(self, counted):
        cut_module, _, tests = counted
        cut_module.bracket(oracle_cut(lambda x: x < q(3, 2), q(1), q(2)), 1000)
        assert tests["OracleCut"] > 0
        cut_module.bracket(root_cut(3, q(5, 2)), 1000)  # builds its witnesses
        assert tests["RootCut"] > 0
        before = tests["RootCut"]
        next_member_above(root_cut(3, q(5, 2)), q(1))  # the generic climb
        assert tests["RootCut"] > before


@pytest.fixture
def constructions(monkeypatch):
    """A one-element list counting PosRational constructions, through a
    wrapper on __init__ as perfbench/spans.py counts them."""
    count = [0]
    plain_init = PosRational.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(PosRational, "__init__", counting_init)
    return count


class TestConstructionCounts:
    """A leaf reads its witnesses as integer pairs, so building one, and
    a signed literal's two, makes no rational beyond its bounds."""

    def test_rational_leaf_builds_none(self, constructions):
        b = q(22, 7)
        constructions[0] = 0
        leaf = s_r(b)
        assert constructions[0] == 0
        bracket(leaf, 10 ** 6)  # its lower end; the upper end is the bound
        assert constructions[0] == 1

    @pytest.mark.parametrize("value", [Fraction(3, 7), Fraction(-22, 7), Fraction(5)])
    def test_signed_literal_builds_two(self, constructions, value):
        constructions[0] = 0
        g_embed(value)
        assert constructions[0] == 2

    def test_mixed_sum_brackets_each_kind_as_before(self, counted):
        # 40 terms, rationals and roots of degrees 2 to 5, added and
        # subtracted; the counts are those the parent tree made
        cut_module, brackets, _ = counted
        terms = [[f"{k + 1}/{k % 7 + 2}", f"sqrt({k + 2}/3)", f"root({k % 3 + 3}, {k + 5})",
                  f"{k}"][k % 4] for k in range(40)]
        text = terms[0] + "".join(f" {'+' if k % 3 else '-'} {t}"
                                  for k, t in enumerate(terms) if k)
        value = exprcli.evaluate(exprcli.parse(text), 10 ** 8)
        assert approx.decimal(value, 6) == "68.813212"
        assert brackets == {"Sum": 2, "RationalCut": 22, "RootCut": 20}


class TestSexpr:
    def test_pinned_rendering(self):
        expr = add(s_r(q(1, 2)), root_cut(2, q(2)))
        assert to_sexpr(expr) == "(sum (s_r 1/2) (root 2 2/1))"

    def test_all_constructors_render(self):
        a, b = s_r(q(1)), root_cut(3, q(5, 2))
        assert to_sexpr(mul(a, b)) == "(product (s_r 1/1) (root 3 5/2))"
        assert to_sexpr(inverse(a)) == "(inverse (s_r 1/1))"
        assert to_sexpr(difference(a, b)) == "(difference (s_r 1/1) (root 3 5/2))"
        assert to_sexpr(sup_finite([a, b])) == "(sup (s_r 1/1) (root 3 5/2))"
        leaf = oracle_cut(lambda x: x < q(2), q(1), q(2))
        assert to_sexpr(leaf) == "(oracle 1/1 2/1)"
        assert repr(a) == "(s_r 1/1)"

    def test_bracket_str(self):
        assert str(Bracket(q(1), q(2))) == "(1/1, 2/1)"

    def test_bracket_repr_and_equality(self):
        b = Bracket(q(1, 2), q(3, 4))
        assert repr(b) == "Bracket(lo=PosRational(1, 2), hi=PosRational(3, 4))"
        assert b == Bracket(q(2, 4), q(3, 4)) and hash(b) == hash(Bracket(q(2, 4), q(3, 4)))
        assert b != (q(1, 2), q(3, 4))

    @pytest.mark.parametrize("lo, hi", [(q(1), q(1)), (q(3), q(2))])
    def test_bracket_rejects_out_of_order_ends(self, lo, hi):
        with pytest.raises(ValueError) as exc:
            Bracket(lo, hi)
        assert str(exc.value) == f"bracket endpoints out of order: {lo} >= {hi}"
