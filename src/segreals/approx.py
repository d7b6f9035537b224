"""Certified rational intervals and decimal rendering for signed reals.

The interval returned for a real provably contains its value: the lower
end subtracts an over-estimate of the negative component from an
under-estimate of the positive one, and symmetrically for the upper
end.  Its ends stay the integer pairs that subtraction gives, unreduced,
and `decimal` rounds from those pairs, with one `divmod` per end and no
gcd; an end becomes a reduced `Fraction` only when it is read.  Decimal
output is derived from such an interval `GUARD_DIGITS` digits finer than
requested, so a plain digit string is only ever printed when both ends
of the enclosure round to it; anything less certain is shown as an
explicit interval.
"""

from __future__ import annotations

from fractions import Fraction

from . import cut
from .qpos import PosRational, Record, int_str
from .real import Real

GUARD_DIGITS = 2  # `decimal` works from an interval this many digits finer than it prints


class SignedInterval(Record):
    """A closed interval with exact signed rational endpoints.

    Each end is kept as an integer pair (num, den), den > 0, that need
    not be reduced; `lo` and `hi` read it as a reduced `Fraction`, and
    equality, hash, repr, `str`, `in` and `width` go through them.
    Endpoints print as num/den even when whole (``0/1``, ``2/1``), and
    through `int_str`, so they print at any length.
    """

    __slots__ = ("_lo", "_hi")
    _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        self._lo = (lo.numerator, lo.denominator)
        self._hi = (hi.numerator, hi.denominator)
        if hi < lo:
            raise ValueError(f"interval endpoints out of order: {self}")

    @classmethod
    def _of_pairs(cls, lo: tuple[int, int], hi: tuple[int, int]) -> SignedInterval:
        # ends already in order, as (num, den) pairs with den > 0
        iv = cls.__new__(cls)
        iv._lo = lo
        iv._hi = hi
        return iv

    @property
    def lo(self) -> Fraction:
        return Fraction(*self._lo)

    @property
    def hi(self) -> Fraction:
        return Fraction(*self._hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"[{_ratio_str(self.lo)}, {_ratio_str(self.hi)}]"

    def __contains__(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi


def _ratio_str(v: Fraction) -> str:
    return f"{int_str(v.numerator)}/{int_str(v.denominator)}"


def rational_interval(x: Real, n: int) -> SignedInterval:
    """An interval of width at most 1/n certified to contain the value.

    Each component is bracketed at 2n, so the two half-widths add up to
    the requested tolerance.
    """
    cut.check_precision(n)
    bp = cut.bracket(x.pos, 2 * n)
    bm = cut.bracket(x.neg, 2 * n)
    return SignedInterval._of_pairs(_minus(bp.lo, bm.hi), _minus(bp.hi, bm.lo))


def decimal(x: Real, digits: int) -> str:
    """Decimal rendering with `digits` fractional digits, never a lie.

    Works from an interval 10^-(digits + GUARD_DIGITS) wide.  When both
    endpoints round to the same fixed-point string, that string is the
    correctly rounded value and is returned bare.  When they disagree, or
    when the interval straddles zero (so not even the sign is certified),
    the result is the interval itself, endpoints rounded outward.
    """
    cut.check_precision(digits, "digits")
    scale = 10 ** digits
    iv = rational_interval(x, 10 ** GUARD_DIGITS * scale)
    (lo_num, lo_den), (hi_num, hi_den) = iv._lo, iv._hi
    # one division per endpoint: v * 10^d = floor + rem/den, 0 <= rem < den
    lo, lo_rem = _scaled_divmod(lo_num, lo_den, scale)
    hi, hi_rem = _scaled_divmod(hi_num, hi_den, scale)
    if not (lo_num < 0 < hi_num):
        # half up, floor(v * 10^d + 1/2), is monotone, so agreement of both
        # interval ends pins the rounding of everything between them
        a = lo + (2 * lo_rem >= lo_den)
        b = hi + (2 * hi_rem >= hi_den)
        if a == b:
            return _format_scaled(a, digits)
    # outward: the floor of the lower end, the ceiling of the upper one
    return f"[{_format_scaled(lo, digits)}, {_format_scaled(hi + (hi_rem > 0), digits)}]"


def _minus(a: PosRational, b: PosRational) -> tuple[int, int]:
    # a - b as an unreduced (num, den) pair, den > 0
    return a.num * b.den - b.num * a.den, a.den * b.den


def _scaled_divmod(num: int, den: int, scale: int) -> tuple[int, int]:
    # floor(num/den * scale) and the remainder over den, which need not be
    # reduced: rem/den is the same fraction of a unit either way
    return divmod(num * scale, den)


def _format_scaled(units: int, digits: int) -> str:
    # `units` counts 10^-digits steps; render as fixed-point decimal, with
    # at least one digit before the point.  The fraction is split off
    # first, so an integer value converts no zeros
    whole, fraction = divmod(abs(units), 10 ** digits)
    text = int_str(fraction).rjust(digits, "0") if fraction else "0" * digits
    return f"{'-' if units < 0 else ''}{int_str(whole)}.{text}"
