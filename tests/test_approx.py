"""Certified intervals and decimal rendering."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segreals import (
    PosRational,
    Real,
    SignedInterval,
    bracket,
    decimal,
    f_embed,
    g_embed,
    rational_interval,
    root_cut,
    s_r,
    zero,
)
from segreals.approx import GUARD_DIGITS
from segreals.qpos import int_str
from segreals.real import add, from_pair, mul, neg, sub

from support import (
    decimal_by_fractions,
    fr,
    interval_contains,
    oracle_decimal,
    q,
    sqrt_bounds,
)

small_rationals = st.builds(PosRational, st.integers(1, 50), st.integers(1, 50))
signed = st.one_of(
    st.just(Fraction(0)),
    small_rationals.map(fr),
    small_rationals.map(lambda r: -fr(r)),
)


def tie_at_lower_end(units: int, digits: int) -> Real:
    """A real whose interval at `digits` (so at width 10^-(digits + GUARD_DIGITS))
    has its lower end exactly on the half-way point (units + 1/2)/10^digits,
    kept as an unreduced pair; the whole interval rounds half up to units + 1."""
    n = 10 ** (digits + GUARD_DIGITS)
    top = q(units + 1)
    b = fr(bracket(s_r(top), 2 * n).lo) - Fraction(2 * units + 1, 2 * 10 ** digits)
    return from_pair(s_r(top), s_r(q(b.numerator, b.denominator)))


@st.composite
def reals_at_digits(draw):
    """(real, digits): a signed rational, zero, or a rational on a rounding
    tie at `digits`, plus a root of either sign or a root minus itself (an
    interval around the value, across zero when the value is 0); or a real
    whose interval ends exactly on a tie, or its negation."""
    digits = draw(st.integers(1, 8))
    if draw(st.integers(0, 4)) == 0:
        x = tie_at_lower_end(draw(st.integers(0, 10 ** 4)), digits)
        return (neg(x) if draw(st.booleans()) else x), digits
    value = draw(st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)),
        st.builds(lambda m: Fraction(2 * m + 1, 2 * 10 ** digits), st.integers(-10 ** 4, 10 ** 4)),
    ))
    x = g_embed(value)
    extra = draw(st.sampled_from(["none", "root", "minus root", "vanishing"]))
    if extra != "none":
        r = f_embed(root_cut(draw(st.integers(2, 4)),
                             q(draw(st.integers(1, 50)), draw(st.integers(1, 50)))))
        x = add(x, {"root": r, "minus root": neg(r), "vanishing": sub(r, r)}[extra])
    return x, digits


class TestRationalInterval:
    @given(signed, st.sampled_from([1, 10, 1000, 10 ** 5]))
    @settings(max_examples=60, deadline=None)
    def test_contains_value_within_width(self, a, n):
        iv = rational_interval(g_embed(a), n)
        assert interval_contains(iv, a)
        assert iv.width <= Fraction(1, n)

    @given(signed, st.sampled_from([1, 10, 100]))
    @settings(max_examples=40, deadline=None)
    def test_refinements_intersect(self, a, n):
        x = g_embed(a)
        coarse, fine = rational_interval(x, n), rational_interval(x, 4 * n)
        assert not (coarse.hi < fine.lo or fine.hi < coarse.lo)

    def test_straddles_zero_for_exact_zero(self):
        iv = rational_interval(zero(), 1000)
        assert iv.lo < 0 < iv.hi

    def test_sqrt2_against_isqrt_oracle(self):
        iv = rational_interval(f_embed(root_cut(2, q(2))), 10 ** 6)
        lo, hi = sqrt_bounds(Fraction(2), 10 ** 7)
        assert iv.lo <= hi and lo <= iv.hi
        assert iv.width <= Fraction(1, 10 ** 6)

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            rational_interval(zero(), 0)

    def test_rejects_non_integer_precision(self):
        with pytest.raises(TypeError, match="must be an int"):
            rational_interval(g_embed(1), 2.0)

    def test_non_integer_precision_is_named_as_passed(self):
        with pytest.raises(TypeError, match=r"precision denominator must be an int, got 2\.0$"):
            rational_interval(g_embed(1), 2.0)


class TestSignedInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError) as exc:
            SignedInterval(Fraction(2), Fraction(1))
        assert str(exc.value) == "interval endpoints out of order: [2/1, 1/1]"
        assert SignedInterval(Fraction(1), Fraction(1)).width == 0

    def test_repr_and_equality(self):
        iv = SignedInterval(Fraction(-1, 2), Fraction(3))
        assert repr(iv) == "SignedInterval(lo=Fraction(-1, 2), hi=Fraction(3, 1))"
        assert iv == SignedInterval(Fraction(-2, 4), Fraction(3))
        assert hash(iv) == hash(SignedInterval(Fraction(-2, 4), Fraction(3)))
        assert iv != (Fraction(-1, 2), Fraction(3))

    def test_contains_and_str(self):
        iv = SignedInterval(Fraction(-1, 3), Fraction(1, 2))
        assert Fraction(0) in iv
        assert Fraction(2) not in iv
        assert str(iv) == "[-1/3, 1/2]"

    def test_pair_ends_read_as_reduced_fractions(self):
        # rational_interval keeps its ends as unreduced integer pairs; read,
        # they are the reduced Fractions the constructor takes
        iv = SignedInterval._of_pairs((-2, 4), (6, 2))
        same = SignedInterval(Fraction(-1, 2), Fraction(3))
        assert iv == same and hash(iv) == hash(same)
        assert repr(iv) == repr(same) == "SignedInterval(lo=Fraction(-1, 2), hi=Fraction(3, 1))"
        assert str(iv) == "[-1/2, 3/1]"
        assert Fraction(0) in iv and Fraction(4) not in iv
        assert iv.width == Fraction(7, 2)

    def test_endpoint_text_forms(self):
        # whole endpoints keep their denominator, as --interval prints them
        assert str(SignedInterval(Fraction(0), Fraction(2))) == "[0/1, 2/1]"
        assert str(SignedInterval(Fraction(-3, 2), Fraction(0))) == "[-3/2, 0/1]"
        # past the interpreter's 4300-digit int-to-str cap
        big = Fraction(10 ** 5000 + 1, 3)
        assert str(SignedInterval(-big, big)) == \
            f"[-1{'0' * 4999}1/3, 1{'0' * 4999}1/3]"


class TestDecimal:
    @pytest.mark.parametrize("digits", [1.5, "3"], ids=["float", "str"])
    def test_non_integer_digits_are_named_as_passed(self, digits):
        with pytest.raises(TypeError, match=re.escape(f"digits must be an int, got {digits!r}")):
            decimal(g_embed(1), digits)

    def test_rejects_zero_digits(self):
        with pytest.raises(ValueError, match="digits must be >= 1, got 0"):
            decimal(g_embed(1), 0)

    @given(signed, st.sampled_from([1, 3, 6]))
    @settings(max_examples=60, deadline=None)
    def test_certified_strings_match_the_oracle(self, a, digits):
        got = decimal(g_embed(a), digits)
        scaled = a * 10 ** digits
        tie_gap = abs(scaled + Fraction(1, 2) - round(scaled + Fraction(1, 2)))
        if a != 0 and tie_gap > Fraction(1, 100):
            assert got == oracle_decimal(a, digits)
        else:
            # ties and zero may legitimately fall back to the interval form
            if got.startswith("["):
                return
            assert got == oracle_decimal(a, digits)

    def test_pinned_quarter(self):
        assert decimal(g_embed(Fraction(1, 4)), 3) == "0.250"

    def test_negative_value(self):
        assert decimal(g_embed(Fraction(-1, 3)), 6) == "-0.333333"

    def test_integer_value(self):
        assert decimal(g_embed(Fraction(12)), 2) == "12.00"

    def test_sqrt2_eight_digits(self):
        # both ends of the oracle cell must round alike for the expected
        # string to be well defined; assert that before using it
        lo, hi = sqrt_bounds(Fraction(2), 10 ** 10)
        expected = oracle_decimal(lo, 8)
        assert expected == oracle_decimal(hi, 8)
        assert decimal(f_embed(root_cut(2, q(2))), 8) == expected
        assert expected == "1.41421356"

    def test_uncertifiable_zero_renders_as_interval(self):
        x = f_embed(root_cut(2, q(2)))
        d = sub(mul(x, x), g_embed(Fraction(2)))
        assert decimal(d, 6) == "[-0.000001, 0.000001]"

    def test_exact_zero_renders_as_interval(self):
        out = decimal(zero(), 4)
        assert out.startswith("[") and out.endswith("]")

    def test_rounding_tie_falls_back_to_interval(self):
        # 0.00015 sits exactly on the 4-digit rounding boundary; a plain
        # string would overstate what the enclosure knows
        out = decimal(g_embed(Fraction(3, 20000)), 4)
        assert out == "[0.0001, 0.0002]"

    def test_interval_form_is_outward_rounded(self):
        # value 2/3: endpoints of any enclosure must be rendered outward
        out = decimal(g_embed(Fraction(2, 3)), 6)
        assert out == "0.666667"

    def test_rejects_bad_digit_count(self):
        with pytest.raises(ValueError):
            decimal(zero(), 0)

    def test_interval_form_past_the_int_conversion_cap(self):
        # outward endpoints longer than the interpreter's 4300-digit
        # int-to-str cap, on either side of zero
        zeros, unit = "0." + "0" * 5000, "0." + "0" * 4999 + "1"
        tiny = g_embed(Fraction(1, 2 * 10 ** 5000))
        assert decimal(tiny, 5000) == f"[{zeros}, {unit}]"
        assert decimal(neg(tiny), 5000) == f"[-{unit}, {zeros}]"
        root2 = f_embed(root_cut(2, q(2)))
        assert decimal(sub(root2, root2), 5000) == f"[-{unit}, {unit}]"


class TestRoundingFromPairs:
    """`decimal` rounds from the unreduced integer pairs of
    `rational_interval`, as the reduced Fractions were rounded before."""

    @given(reals_at_digits())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_rounding(self, case):
        x, digits = case
        assert decimal(x, digits) == decimal_by_fractions(x, digits)

    def test_half_way_lower_end_rounds_up(self):
        # the lower end lies exactly on 0.0125, half way between 12 and 13
        # thousandths, as an unreduced pair; half up takes it to 13, as the
        # rest of the interval, where a strict test would give 12
        x = tie_at_lower_end(12, 3)
        iv = rational_interval(x, 10 ** (3 + GUARD_DIGITS))
        assert iv.lo == Fraction(1, 80) and iv._lo != (1, 80)
        assert decimal(x, 3) == "0.013"
        assert decimal(neg(x), 3) == "[-0.013, -0.012]"

    def test_decimal_builds_no_fraction(self, monkeypatch):
        root2 = f_embed(root_cut(2, q(2)))
        cases = [(g_embed(Fraction(-22, 7)), 6, "-3.142857"),
                 (sub(root2, root2), 6, "[-0.000001, 0.000001]"),
                 (add(root2, g_embed(Fraction(1, 3))), 6, "1.747547"),
                 (tie_at_lower_end(12, 3), 3, "0.013")]
        count = [0]
        plain_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            count[0] += 1
            return plain_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        outputs = [decimal(x, digits) for x, digits, _ in cases]
        assert count[0] == 0
        assert outputs == [expected for _, _, expected in cases]
        rational_interval(cases[0][0], 10).lo  # reading an end builds one
        assert count[0] == 1


class TestScalingHelpers:
    @staticmethod
    def half_up(v, digits):
        from segreals.approx import _scaled_divmod
        units, rem = _scaled_divmod(v.numerator, v.denominator, 10 ** digits)
        return units + (2 * rem >= v.denominator)

    @given(signed, st.integers(1, 8))
    def test_half_up_monotone(self, a, digits):
        v = a
        w = a + Fraction(1, 997)
        assert self.half_up(v, digits) <= self.half_up(w, digits)

    @given(signed, st.integers(1, 8))
    def test_floor_ceil_sandwich(self, a, digits):
        from segreals.approx import _scaled_divmod
        lo, rem = _scaled_divmod(a.numerator, a.denominator, 10 ** digits)
        hi = lo + (rem > 0)
        assert lo <= self.half_up(a, digits) <= hi + 1
        assert Fraction(lo, 10 ** digits) <= a <= Fraction(hi, 10 ** digits)

    def test_half_way_pair_rounds_up(self):
        # 10/800 = 0.0125 is half way between 12 and 13 thousandths; the
        # remainder is over the unreduced denominator, and half of it
        from segreals.approx import _scaled_divmod
        assert _scaled_divmod(10, 800, 1000) == (12, 400)
        assert _scaled_divmod(-10, 800, 1000) == (-13, 400)

    def test_format_scaled(self):
        from segreals.approx import _format_scaled
        assert _format_scaled(-1, 6) == "-0.000001"
        assert _format_scaled(1234, 2) == "12.34"
        assert _format_scaled(0, 3) == "0.000"

    @given(st.integers(0, 10 ** 30), st.integers(1, 40),
           st.sampled_from([0, 0, 1, 7, 10 ** 40 - 1]), st.booleans())
    def test_format_scaled_prints_every_digit_of_the_units(self, whole, digits, fraction,
                                                           negative):
        # integer values, whose fraction is zero, are printed without
        # converting the zeros, in the bytes of converting every digit
        from segreals.approx import _format_scaled
        units = (whole * 10 ** digits + fraction % 10 ** digits) * (-1 if negative else 1)
        text = int_str(abs(units)).rjust(digits + 1, "0")
        sign = "-" if units < 0 else ""
        assert _format_scaled(units, digits) == f"{sign}{text[:-digits]}.{text[-digits:]}"

    def test_integer_values_past_the_int_conversion_cap(self):
        # a zero fraction and a whole part longer than the 4 300-digit cap
        assert decimal(g_embed(Fraction(-7)), 5000) == "-7." + "0" * 5000
        assert decimal(g_embed(Fraction(10 ** 4400)), 2) == "1" + "0" * 4400 + ".00"
