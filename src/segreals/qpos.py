"""Exact arithmetic on the strictly positive rationals.

Everything downstream manipulates sets of these values, so the
representation stays small: a reduced pair of positive Python ints.
All operations are exact; numerators and denominators may grow without
bound and are never rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class NonPositiveError(ValueError):
    """A value that must be strictly positive was zero or negative."""


class NotGreaterError(ValueError):
    """Strict subtraction a - b was requested with a <= b."""


@dataclass(frozen=True, slots=True)
class PosRational:
    """A strictly positive rational, always stored reduced.

    Structural equality coincides with value equality because of the
    canonical form, so instances can be dict keys or set members.
    """

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        if self.num <= 0 or self.den <= 0:
            raise NonPositiveError(f"{self.num}/{self.den} is not strictly positive")
        g = math.gcd(self.num, self.den)
        if g > 1:
            # bypass the frozen guard once to normalise
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)

    def __str__(self) -> str:
        return f"{int_str(self.num)}/{int_str(self.den)}"

    def __repr__(self) -> str:
        return f"PosRational({self.num}, {self.den})"

    # arithmetic, all exact on cross-multiplied ints

    def __add__(self, other: PosRational) -> PosRational:
        return PosRational(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    def __mul__(self, other: PosRational) -> PosRational:
        return PosRational(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: PosRational) -> PosRational:
        return PosRational(self.num * other.den, self.den * other.num)

    def __sub__(self, other: PosRational) -> PosRational:
        """Strict subtraction: defined only when self > other."""
        if not other < self:
            raise NotGreaterError(f"{self} - {other} leaves the positive rationals")
        return PosRational(self.num * other.den - other.num * self.den,
                           self.den * other.den)

    def reciprocal(self) -> PosRational:
        return PosRational(self.den, self.num)

    # total order by cross multiplication

    def __lt__(self, other: PosRational) -> bool:
        return self.num * other.den < other.num * self.den

    def __le__(self, other: PosRational) -> bool:
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other: PosRational) -> bool:
        return other < self

    def __ge__(self, other: PosRational) -> bool:
        return other <= self


# Digits per piece in `int_str`: below 640, the lowest int-to-str cap
# CPython accepts (sys.set_int_max_str_digits), so no setting can refuse it.
_PIECE_DIGITS = 600
_PIECE = 10 ** _PIECE_DIGITS


def int_str(v: int) -> str:
    """The decimal digits of v, however many there are.

    str() refuses integers longer than the interpreter's conversion cap
    (4 300 digits by default).  Converting in pieces below the cap works
    for every length and leaves the process-wide limit alone.
    """
    if v < 0:
        return "-" + int_str(-v)
    pieces = []
    while v >= _PIECE:
        v, low = divmod(v, _PIECE)
        pieces.append(f"{low:0{_PIECE_DIGITS}d}")
    pieces.append(str(v))
    return "".join(reversed(pieces))


ONE = PosRational(1)


def ceil_int(r: PosRational) -> int:
    """Smallest integer >= r."""
    return -(-r.num // r.den)


def halve(r: PosRational) -> PosRational:
    return PosRational(r.num, 2 * r.den)
