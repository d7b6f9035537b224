"""Exact arithmetic on the strictly positive rationals.

Everything downstream manipulates sets of these values, so the
representation stays small: a reduced pair of positive Python ints.
All operations are exact; numerators and denominators may grow without
bound and are never rounded.  `Record`, the equality, hash and repr of
the package's plain value classes, lives here, in the module all import.
"""

from __future__ import annotations

import math


class Record:
    """Equality, hash and repr from the field names in `_fields`, as a frozen
    dataclass has them: instances compare and hash as the tuple of their
    fields, equal only to their own class, and repr names each field.

    A subclass sets its fields in its one `__init__` and never after, so it
    is immutable by convention; frozen, each field would be set through
    `object.__setattr__`, which made building one twice as slow.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class NonPositiveError(ValueError):
    """A value that must be strictly positive was zero or negative."""


class NotGreaterError(ValueError):
    """Strict subtraction a - b was requested with a <= b."""


class PosRational(Record):
    """A strictly positive rational, always stored reduced.

    Structural equality coincides with value equality because of the
    canonical form, so instances can be dict keys or set members.  It is
    the object the engine builds most, so it is a plain slotted class with
    one `__init__`, which checks and reduces the pair.
    """

    __slots__ = _fields = ("num", "den")

    def __init__(self, num: int, den: int = 1) -> None:
        if num <= 0 or den <= 0:
            raise NonPositiveError(f"{num}/{den} is not strictly positive")
        g = math.gcd(num, den)
        if g > 1:
            num, den = num // g, den // g
        self.num = num
        self.den = den

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
