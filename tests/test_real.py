"""Signed reals: pair arithmetic, sign certificates, canonical pairs."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segreals import (
    Comparison,
    IndistinguishableFromZero,
    Indeterminate,
    Negative,
    PosRational,
    Positive,
    PrecisionBudgetExhausted,
    Real,
    ZeroAtPrecision,
    approx,
    bracket,
    canonicalize,
    exprcli,
    f_embed,
    from_pair,
    g_embed,
    inv,
    less_than,
    rational_interval,
    real,
    root_cut,
    s_r,
    sign,
    zero,
)
from segreals.cut import Difference, Product, Sum
from segreals.real import add, mul, neg, sub

from support import (
    fr,
    interval_contains,
    q,
    straddles,
    surd_sign,
    surd_values,
    unity,
)

small_rationals = st.builds(PosRational, st.integers(1, 30), st.integers(1, 30))
signed = st.one_of(
    st.just(Fraction(0)),
    small_rationals.map(fr),
    small_rationals.map(lambda r: -fr(r)),
)


def value_interval(x: Real, n: int = 10 ** 4):
    return rational_interval(x, n)


class TestArithmetic:
    @given(signed, signed, st.sampled_from([100, 10 ** 4]))
    @settings(max_examples=50, deadline=None)
    def test_add_tracks_exact_values(self, a, b, n):
        iv = rational_interval(add(g_embed(a), g_embed(b)), n)
        assert interval_contains(iv, a + b)
        assert iv.width <= Fraction(1, n)

    @given(signed, signed, st.sampled_from([100, 10 ** 4]))
    @settings(max_examples=50, deadline=None)
    def test_mul_tracks_exact_values(self, a, b, n):
        iv = rational_interval(mul(g_embed(a), g_embed(b)), n)
        assert interval_contains(iv, a * b)

    @given(signed, signed)
    @settings(max_examples=50, deadline=None)
    def test_sub_tracks_exact_values(self, a, b):
        iv = value_interval(sub(g_embed(a), g_embed(b)))
        assert interval_contains(iv, a - b)

    @given(signed)
    def test_neg_swaps_components(self, a):
        x = g_embed(a)
        assert neg(x).pos is x.neg and neg(x).neg is x.pos
        back = -(-x)  # double negation restores the components
        assert back.pos is x.pos and back.neg is x.neg

    @given(signed)
    @settings(max_examples=40, deadline=None)
    def test_additive_inverse_law(self, a):
        x = g_embed(a)
        assert interval_contains(value_interval(x + (-x)), Fraction(0))

    def test_operator_sugar(self):
        x, y = g_embed(Fraction(3, 2)), g_embed(Fraction(-1, 3))
        assert interval_contains(value_interval(x + y), Fraction(7, 6))
        assert interval_contains(value_interval(x - y), Fraction(11, 6))
        assert interval_contains(value_interval(x * y), Fraction(-1, 2))

    def test_constants(self):
        assert interval_contains(value_interval(zero()), Fraction(0))
        assert interval_contains(value_interval(unity()), Fraction(1))

    @given(small_rationals, small_rationals, small_rationals)
    @settings(max_examples=40, deadline=None)
    def test_representative_independence(self, p, m, c):
        # shifting both components by the same cut must not move the value
        x = from_pair(s_r(p), s_r(m))
        shifted = from_pair(s_r(p) + s_r(c), s_r(m) + s_r(c))
        a, b = value_interval(x), value_interval(shifted)
        assert not (a.hi < b.lo or b.hi < a.lo)
        assert interval_contains(b, fr(p) - fr(m))


class TestSign:
    def test_positive_certificate(self):
        assert isinstance(sign(from_pair(s_r(q(3)), s_r(q(1))), 10), Positive)

    def test_negative_certificate(self):
        assert isinstance(sign(from_pair(s_r(q(1)), s_r(q(3))), 10), Negative)

    def test_verdicts_compare_by_class_and_precision(self):
        assert Positive() == Positive() and hash(Positive()) == hash(Positive())
        assert Positive() != Negative()
        assert IndistinguishableFromZero(5) == Indeterminate(5) != IndistinguishableFromZero(6)
        assert repr(IndistinguishableFromZero(5)) == "IndistinguishableFromZero(precision=5)"
        assert repr(Positive()) == "Positive()"

    def test_reals_compare_by_identity(self):
        x = from_pair(s_r(q(1)), s_r(q(2)))
        assert x == x and x != from_pair(x.pos, x.neg)
        assert repr(x) == "Real(pos=(s_r 1/1), neg=(s_r 2/1), magnitude=None, negative=False)"

    @pytest.mark.parametrize("n", [1, 10, 1000, 10 ** 5])
    def test_exact_zero_never_certifies(self, n):
        verdict = sign(zero(), n)
        assert verdict == IndistinguishableFromZero(n)

    @given(signed, st.sampled_from([10, 1000]))
    @settings(max_examples=50, deadline=None)
    def test_verdicts_match_exact_values(self, a, n):
        verdict = sign(g_embed(a), n)
        if isinstance(verdict, Positive):
            assert a > 0
        elif isinstance(verdict, Negative):
            assert a < 0
        else:
            assert abs(a) <= Fraction(2, n)

    def test_irrational_gap_certifies_with_enough_precision(self):
        x = f_embed(root_cut(2, q(2)))  # sqrt(2)
        d = sub(x, g_embed(Fraction(7, 5)))  # about 0.0142 above zero
        assert isinstance(sign(d, 1000), Positive)


class TestLessThan:
    def test_certified_order(self):
        assert less_than(g_embed(Fraction(1)), g_embed(Fraction(2)), 10) \
            is Comparison.LESS
        assert less_than(g_embed(Fraction(2)), g_embed(Fraction(1)), 10) \
            is Comparison.GREATER

    @given(signed, signed)
    @settings(max_examples=50, deadline=None)
    def test_sound_certificates(self, a, b):
        if a == b:
            return
        n = int(4 / abs(a - b)) + 1
        verdict = less_than(g_embed(a), g_embed(b), n)
        assert verdict is (Comparison.LESS if a < b else Comparison.GREATER)

    @given(signed, st.sampled_from([1, 10, 100]))
    @settings(max_examples=40, deadline=None)
    def test_self_comparison_overlaps(self, a, n):
        assert less_than(g_embed(a), g_embed(a), n) is Comparison.OVERLAP

    def test_order_respects_addition(self):
        # a < b certified, then a + c < b + c certified at the same precision
        a, b, c = g_embed(Fraction(1, 3)), g_embed(Fraction(1, 2)), \
            g_embed(Fraction(-5, 7))
        assert less_than(a, b, 100) is Comparison.LESS
        assert less_than(a + c, b + c, 100) is Comparison.LESS


class TestCanonicalize:
    def test_positive_form_carries_the_gap(self):
        form = canonicalize(from_pair(s_r(q(3)), s_r(q(1))), 10)
        assert form.magnitude is not None and not form.negative
        assert straddles(bracket(form.magnitude, 1000), Fraction(2))

    def test_negative_form_carries_the_gap(self):
        form = canonicalize(from_pair(s_r(q(1)), s_r(q(3))), 10)
        assert form.negative
        assert straddles(bracket(form.magnitude, 1000), Fraction(2))

    def test_shared_node_is_syntactic_zero(self):
        a = s_r(q(2))
        for x in (zero(), from_pair(a, a)):
            form = canonicalize(x, 10)
            assert form.magnitude is None
            assert form.pos is form.neg

    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_distinct_equal_components_stay_indeterminate(self, n):
        x = from_pair(s_r(q(2)), s_r(q(2)))
        assert canonicalize(x, n) == Indeterminate(n)

    @pytest.mark.parametrize("x", [zero(), g_embed(2)], ids=["syntactic-zero", "two"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_precision_is_checked_before_the_shortcut(self, x, n):
        with pytest.raises(ValueError, match=f"must be >= 1, got {n}"):
            canonicalize(x, n)

    def test_budget_message_says_the_sign_is_certified(self):
        with pytest.raises(PrecisionBudgetExhausted) as exc:
            canonicalize(g_embed(Fraction(1, 64)), 10 ** 6, budget=1)
        message = str(exc.value)
        assert message == ("the sign is certified at width 1/1000000, but the precision "
                           "budget ran out before its magnitude separated from zero")
        assert "may be equal" not in message
        # the difference's own message stays, for library callers
        assert isinstance(exc.value.__cause__, PrecisionBudgetExhausted)
        assert "may be equal" in str(exc.value.__cause__)

    def test_budget_is_spent_when_the_difference_is_built(self):
        # the sign is certified at 10^6, but the components, 1 and 65/64,
        # are not separated by brackets of width 1, which is all budget 1
        # allows the magnitude's separation search
        with pytest.raises(PrecisionBudgetExhausted):
            canonicalize(g_embed(Fraction(1, 64)), 10 ** 6, budget=1)
        form = canonicalize(g_embed(Fraction(1, 64)), 10 ** 6)
        assert form.magnitude is not None and not form.negative

    @pytest.mark.parametrize("budget,error,message", [
        (0, ValueError, "precision budget must be >= 1, got 0"),
        ("8", TypeError, "precision budget must be an int, got '8'"),
    ], ids=["zero", "str"])
    def test_given_budget_follows_the_precision_rule(self, budget, error, message):
        # 3 separates from 0 at the first width tried, so no search reads the budget
        for step in (canonicalize, inv):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                step(g_embed(3), 10, budget=budget)

    @pytest.mark.parametrize("budget,error,message", [
        (0, ValueError, "precision budget must be >= 1, got 0"),
        ("8", TypeError, "precision budget must be an int, got '8'"),
    ], ids=["zero", "str"])
    @pytest.mark.parametrize("kind", ["syntactic-zero", "indeterminate"])
    def test_given_budget_is_checked_before_any_answer(self, kind, budget, error, message):
        # no difference is built for these, so only the entry check reads the budget
        root = f_embed(root_cut(2, q(2)))
        x = zero() if kind == "syntactic-zero" else sub(mul(root, root), g_embed(2))
        for step in (canonicalize, inv):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                step(x, 10, budget=budget)

    @staticmethod
    def check_canonical_pair(x, a, b=Fraction(0), p=2):
        """x's canonical pair at 10^4 is signed(C, negative) and keeps the
        value a + b*sqrt(p): S_1 on the side the sign puts it, C + S_1 on the other."""
        c = canonicalize(x, 10 ** 4)
        assert c.negative == (surd_sign(a, b, p) < 0)
        shift, gap = (c.pos, c.neg) if c.negative else (c.neg, c.pos)
        assert shift is real.S_ONE
        assert isinstance(gap, Sum) and gap.terms == (c.magnitude, real.S_ONE)
        iv = rational_interval(c, 10 ** 6)
        assert surd_sign(a - iv.lo, b, p) >= 0 and surd_sign(iv.hi - a, -b, p) >= 0

    @given(signed.filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_canonical_pair_of_a_literal(self, a):
        self.check_canonical_pair(g_embed(a), a)

    def test_canonical_pair_of_a_root_minus_a_literal(self):
        x = sub(f_embed(root_cut(2, q(2))), g_embed(Fraction(7, 5)))
        self.check_canonical_pair(x, Fraction(-7, 5), Fraction(1))
        self.check_canonical_pair(neg(x), Fraction(7, 5), Fraction(-1))


class TestInv:
    def test_inverse_of_two_is_half(self):
        iv = value_interval(inv(g_embed(Fraction(2)), 10))
        assert interval_contains(iv, Fraction(1, 2))

    def test_inverse_of_negative_is_negative(self):
        iv = value_interval(inv(g_embed(Fraction(-4)), 10))
        assert interval_contains(iv, Fraction(-1, 4))

    @given(signed, st.sampled_from([100, 10 ** 4]))
    @settings(max_examples=40, deadline=None)
    def test_multiplicative_inverse_law(self, a, n):
        if a == 0 or abs(a) < Fraction(1, 50):
            return
        x = g_embed(a)
        iv = rational_interval(mul(x, inv(x, 1000)), n)
        assert interval_contains(iv, Fraction(1))

    def test_inverse_of_irrational(self):
        x = f_embed(root_cut(2, q(2)))
        iv = rational_interval(mul(x, inv(x, 100)), 10 ** 4)
        assert interval_contains(iv, Fraction(1))

    def test_exact_zero_raises(self):
        with pytest.raises(ZeroAtPrecision):
            inv(zero(), 10)

    def test_message_names_a_long_precision(self):
        x = f_embed(root_cut(2, q(2)))
        with pytest.raises(ZeroAtPrecision) as exc:
            inv(sub(mul(x, x), g_embed(Fraction(2))), 10 ** 5000)
        assert str(exc.value).endswith("width 1/1" + "0" * 5000)

    def test_indistinguishable_raises_with_precision(self):
        x = f_embed(root_cut(2, q(2)))
        square_minus_two = sub(mul(x, x), g_embed(Fraction(2)))
        with pytest.raises(ZeroAtPrecision) as exc:
            inv(square_minus_two, 1000)
        assert exc.value.precision == 1000

    @pytest.mark.parametrize("x", [
        g_embed(Fraction(-3, 4)),
        f_embed(root_cut(2, q(2))),
        add(g_embed(1), f_embed(root_cut(2, q(2)))),
        neg(add(g_embed(1), inv(g_embed(3), 10))),
    ], ids=["literal", "root", "sum", "negative-sum"])
    def test_known_sign_inverts_its_own_magnitude(self, x):
        y = inv(x, 10)
        assert y.magnitude.operand is x.magnitude
        assert y.negative is x.negative

    def test_unknown_sign_inverts_the_canonical_magnitude(self):
        x = sub(f_embed(root_cut(2, q(2))), g_embed(1))
        assert isinstance(inv(x, 10).magnitude.operand, Difference)

    def test_known_sign_still_pays_the_certificate(self):
        # 1/3 knows its sign, but inv certifies it as any divisor: the
        # difference of its pair does not separate within budget 1
        x = g_embed(Fraction(1, 3))
        with pytest.raises(PrecisionBudgetExhausted):
            inv(x, 10, budget=1)
        assert inv(x, 10).magnitude.operand is x.magnitude

    def test_zero_product_needs_a_zero_factor(self):
        # certified nonzero product means both factors certify at some
        # finer precision
        x, y = g_embed(Fraction(1, 7)), g_embed(Fraction(-3))
        assert isinstance(sign(mul(x, y), 100), Negative)
        assert isinstance(sign(x, 100), Positive)
        assert isinstance(sign(y, 100), Negative)


class TestGroupLaws:
    @given(signed, signed, signed, st.sampled_from([100, 10 ** 4]))
    @settings(max_examples=30, deadline=None)
    def test_add_assoc_and_comm(self, a, b, c, n):
        x, y, z = g_embed(a), g_embed(b), g_embed(c)
        lhs = rational_interval((x + y) + z, n)
        rhs = rational_interval(x + (y + z), n)
        assert not (lhs.hi < rhs.lo or rhs.hi < lhs.lo)
        assert interval_contains(rational_interval(x + y, n), a + b)
        assert interval_contains(rational_interval(y + x, n), a + b)

    @given(signed, signed, signed)
    @settings(max_examples=30, deadline=None)
    def test_mul_distributes(self, a, b, c):
        x, y, z = g_embed(a), g_embed(b), g_embed(c)
        expected = a * (b + c)
        assert interval_contains(value_interval(x * (y + z)), expected)
        assert interval_contains(value_interval(x * y + x * z), expected)


# Factor sources for products and sums, with their exact values
# a + b*sqrt(p): literals and roots know their sign, and so do inverses,
# which certify it; sums and differences know it only when their two
# terms share one.  Each may be negated.
FACTOR_KINDS = ("lit", "root", "inv", "sum", "diff")


def _factor(kind: str, c: Fraction, negate: bool, p: int):
    root = f_embed(root_cut(2, q(p)))
    x, v = {
        "lit": lambda: (g_embed(c), (c, Fraction(0))),
        "root": lambda: (root, (Fraction(0), Fraction(1))),
        "sum": lambda: (add(g_embed(c), root), (c, Fraction(1))),
        "diff": lambda: (sub(root, g_embed(c)), (-c, Fraction(1))),
        # 1/(sqrt(p) - c) = (-c - sqrt(p)) / (c^2 - p)
        "inv": lambda: (inv(sub(root, g_embed(c)), 10 ** 6),
                        (-c / (c * c - p), -1 / (c * c - p))),
    }[kind]()
    if negate:
        return neg(x), (-v[0], -v[1])
    return x, v


def _value(x: Real, p: int):
    """The exact value of a real, from its components' node structure."""
    values = surd_values([x.pos, x.neg], p)
    (a, b), (c, d) = values[id(x.pos)][1], values[id(x.neg)][1]
    return a - c, b - d


def _products(x: Real) -> int:
    seen, stack, count = set(), [x.pos, x.neg], 0
    while stack:
        c = stack.pop()
        if id(c) not in seen:
            seen.add(id(c))
            count += isinstance(c, Product)
            stack += [getattr(c, k) for k in ("left", "right", "operand", "lower", "upper")
                      if hasattr(c, k)]
            stack += getattr(c, "terms", ())
    return count


def _sign_sources():
    x = f_embed(root_cut(2, q(2)))
    return {
        "positive-literal": g_embed(Fraction(3, 4)),
        "negative-literal": g_embed(Fraction(-5, 2)),
        "root": x,
        "inverse": inv(g_embed(-3), 10),
        "known-sign-product": mul(x, g_embed(-2)),
        "unsigned-sum": add(x, g_embed(Fraction(-1))),
        "positive-sum": add(x, g_embed(2)),
        "negative-sum": add(g_embed(Fraction(-1, 2)), inv(g_embed(-3), 10)),
    }


class TestSignRecord:
    """A real records its sign once: `magnitude` and `negative`, mirrored by `neg`."""

    @pytest.mark.parametrize("kind", list(_sign_sources()))
    def test_double_negation_keeps_the_record(self, kind):
        x = _sign_sources()[kind]
        y = neg(neg(x))
        assert y.pos is x.pos and y.neg is x.neg and y.magnitude is x.magnitude
        assert y.negative is x.negative
        assert neg(x).pos is x.neg and neg(x).neg is x.pos
        assert neg(x).negative is (x.magnitude is not None and not x.negative)

    def test_signed_negative_is_the_mirror(self):
        c = root_cut(2, q(2))
        x = real.signed(c, True)
        assert x.pos is real.S_ONE and x.magnitude is c and x.negative
        assert x.neg.terms == (c, real.S_ONE)
        y = real.signed(c)
        assert y.neg is real.S_ONE and not y.negative and y.pos.terms[0] is c

    @pytest.mark.parametrize("r", [Fraction(1), Fraction(3, 4), Fraction(22, 7)])
    def test_negative_literal_swaps_the_components(self, r):
        x, y = g_embed(r), g_embed(-r)
        assert x.neg is real.S_ONE and y.pos is real.S_ONE
        assert y.neg.bound == x.pos.bound == PosRational(r.numerator + r.denominator,
                                                         r.denominator)
        assert y.magnitude.bound == x.magnitude.bound == PosRational(r.numerator, r.denominator)
        assert not x.negative and y.negative

    @given(st.sampled_from([2, 3, 5, 7]),
           st.lists(st.tuples(st.sampled_from(FACTOR_KINDS),
                              st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                              st.booleans()),
                    min_size=2, max_size=5),
           st.sampled_from([10, 1000, 10 ** 6]))
    @settings(max_examples=150, deadline=None)
    def test_same_sign_sums_record_their_magnitude(self, p, terms, n):
        x, (a, b) = _factor(*terms[0], p)
        for kind, c, negate in terms[1:]:
            y, (u, v) = _factor(kind, c, negate, p)
            same = (x.magnitude is not None and y.magnitude is not None
                    and x.negative == y.negative)
            negative = x.negative
            x, (a, b) = add(x, y), (a + u, b + v)
            # the pair is the componentwise sum whatever the signs
            assert _value(x, p) == (a, b)
            assert (x.magnitude is not None) is same
            assert x.negative is (same and negative)
        if x.magnitude is None:
            return
        m = surd_values([x.magnitude], p)[id(x.magnitude)][1]
        assert m == ((-a, -b) if x.negative else (a, b))
        assert surd_sign(*m, p) > 0
        br = bracket(x.magnitude, n)
        assert fr(br.width) <= Fraction(1, n)
        assert surd_sign(m[0] - fr(br.lo), m[1], p) > 0
        assert surd_sign(fr(br.hi) - m[0], -m[1], p) >= 0

    def test_mixed_signs_record_none(self):
        root = f_embed(root_cut(2, q(2)))
        for x in (add(g_embed(2), g_embed(-1)), add(neg(root), g_embed(3)),
                  add(root, sub(root, g_embed(1)))):
            assert x.magnitude is None and not x.negative

    def test_negating_a_signed_sum_flips_its_sign(self):
        x = add(g_embed(1), f_embed(root_cut(2, q(2))))
        assert x.magnitude is not None and not x.negative
        y = neg(x)
        assert y.magnitude is x.magnitude and y.negative
        assert rational_interval(y, 100).hi < 0
        z = add(y, g_embed(-1))
        assert z.negative and z.magnitude.terms[0] is x.magnitude

    def test_indeterminate_is_indistinguishable_from_zero(self):
        assert Indeterminate is IndistinguishableFromZero


class TestSignAwareMul:
    """A factor of known sign multiplies through its magnitude."""

    @given(st.sampled_from([2, 3, 5, 7]),
           st.lists(st.tuples(st.sampled_from(FACTOR_KINDS),
                              st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                              st.booleans()),
                    min_size=2, max_size=4),
           st.sampled_from([10, 1000, 10 ** 6]))
    @settings(max_examples=150, deadline=None)
    def test_products_of_every_source_are_exact(self, p, factors, n):
        x, (a, b) = _factor(*factors[0], p)
        for kind, c, negate in factors[1:]:
            y, (u, v) = _factor(kind, c, negate, p)
            known = (x.magnitude is not None) + (y.magnitude is not None)
            z = mul(x, y)
            # both signs known: one product; one: two; none: four
            assert _products(z) - _products(x) - _products(y) == (1, 2, 4)[2 - known]
            x, (a, b) = z, (a * u + b * v * p, a * v + b * u)
            assert _value(x, p) == (a, b)
            if x.magnitude is not None:
                m = surd_values([x.magnitude], p)[id(x.magnitude)][1]
                assert m == ((-a, -b) if x.negative else (a, b))
                assert surd_sign(*m, p) > 0
        iv = rational_interval(x, n)
        assert iv.width <= Fraction(1, n)
        assert surd_sign(a - iv.lo, b, p) >= 0 and surd_sign(iv.hi - a, -b, p) >= 0

    def test_known_signs_build_one_product(self):
        a, b = root_cut(2, q(2)), root_cut(2, q(3))
        z = mul(f_embed(a), f_embed(b))
        assert _products(z) == 1
        assert z.magnitude.left is a and z.magnitude.right is b
        assert not z.negative and mul(neg(f_embed(a)), f_embed(b)).negative

    def test_one_known_sign_builds_two_products(self):
        x = sub(f_embed(root_cut(2, q(2))), g_embed(Fraction(1)))  # no sign known
        assert x.magnitude is None
        for z in (mul(g_embed(2), x), mul(x, g_embed(-2))):
            assert _products(z) == 2 and z.magnitude is None
        assert _products(mul(x, x)) == 4

    def test_components_grow_with_the_value(self):
        # (2*(2*(...1...))) at L = 15 is 2^15; expanding every product
        # made its components 1.6*10^9
        levels = 15
        x = exprcli.evaluate(exprcli.parse("(2*" * levels + "1" + ")" * levels), 10)
        assert fr(bracket(x.pos, 1).hi) <= 2 ** levels + 2

    def test_nested_product_bracket_calls(self, monkeypatch):
        # expanding every product made 9 302 bracket calls at L = 30
        import segreals.cut as cut_module
        calls, plain = [0], cut_module.bracket

        def counting(a, n):
            calls[0] += 1
            return plain(a, n)

        monkeypatch.setattr(cut_module, "bracket", counting)
        levels = 30
        x = exprcli.evaluate(exprcli.parse("(2*" * levels + "1" + ")" * levels), 10 ** 7)
        assert approx.decimal(x, 5) == f"{2 ** levels}.00000"
        assert calls[0] <= 2500
