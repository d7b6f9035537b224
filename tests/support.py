"""Shared test helpers: independent oracles and random generators.

Expected values are never copied out of the implementation.  Rational
arithmetic is checked against fractions.Fraction, roots against integer
square/k-th root bisection, and decimal strings against a rounding rule
recomputed here from exact values.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction

from segreals import (
    Bracket,
    Cut,
    PosRational,
    Real,
    bracket,
    cli_main,
    oracle_cut,
    root_cut,
    s_r,
)
from segreals.approx import GUARD_DIGITS, SignedInterval, rational_interval
from segreals.cut import (
    Difference,
    Inverse,
    Leaf,
    OracleCut,
    Product,
    RationalCut,
    RootCut,
    Sum,
    add,
    membership_leaf,
)
from segreals.qpos import halve
from segreals.real import S_ONE


def q(num: int, den: int = 1) -> PosRational:
    return PosRational(num, den)


def fr(x) -> Fraction:
    """Exact value of a PosRational, or of a Fraction itself, as a Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x.num, x.den)


def brackets_overlap(a: Bracket, b: Bracket) -> bool:
    return not (a.hi < b.lo or b.hi < a.lo)


def compare(a: PosRational, b: PosRational) -> int:
    """Exact three-way comparison: -1 if a < b, 0 if equal, +1 if a > b."""
    lhs = a.num * b.den
    rhs = b.num * a.den
    return (lhs > rhs) - (lhs < rhs)


class NotLessError(ValueError):
    """An operation requiring a < b was given a >= b."""


def mediant(a: PosRational, b: PosRational) -> PosRational:
    """The mediant of a < b, computed on the stored reduced pairs.

    Adding numerators and denominators of a < b always lands strictly
    between the two, which makes this the cheapest way to manufacture a
    rational inside a known gap.
    """
    if not a < b:
        raise NotLessError(f"mediant needs {a} < {b}")
    return PosRational(a.num + b.num, a.den + b.den)


def archimedean_bound(r: PosRational) -> int:
    """A positive integer strictly greater than r.

    num + 1 works for any reduced num/den with den >= 1; no search and
    no division needed.
    """
    return r.num + 1


def ratio_refine(a: Cut, m: int) -> Bracket:
    """A bracket whose endpoints agree to a relative factor (m-1)/m.

    Any member x1 bounds the value from below, so width 1/h with
    h > m/x1 forces lo/hi > 1 - 1/(h*hi) > 1 - 1/m.  Useful when the
    magnitude of the value is unknown but relative accuracy is wanted.
    """
    if m < 2:
        raise ValueError(f"relative refinement needs m >= 2, got {m}")
    x1 = bracket(a, 1).lo
    h = archimedean_bound(PosRational(m * x1.den, x1.num))
    return bracket(a, h)


def to_sexpr(a: Cut) -> str:
    """A compact s-expression rendering of the cut's structure."""
    return repr(a)


def unity() -> Real:
    return Real(add(S_ONE, S_ONE), S_ONE)


def straddles(b: Bracket, value: Fraction) -> bool:
    """lo < value <= hi, the enclosure a bracket promises for its value."""
    return fr(b.lo) < value <= fr(b.hi)


def interval_contains(iv: SignedInterval, value: Fraction) -> bool:
    return iv.lo <= value <= iv.hi


def leaf_member_oracle(leaf: Cut, x: PosRational) -> bool:
    """Membership recomputed independently with Fraction arithmetic."""
    if isinstance(leaf, RationalCut):
        return fr(x) < fr(leaf.bound)
    if isinstance(leaf, RootCut):
        return fr(x) ** leaf.degree < fr(leaf.radicand)
    if isinstance(leaf, OracleCut):
        return bool(leaf.member(x))
    raise TypeError(f"not a leaf: {type(leaf).__name__}")


def _bisect(a: Leaf, lo: PosRational, hi: PosRational, n: int) -> Bracket:
    # exact bisection between a member and a non-member; each step keeps
    # the invariant lo in, hi out, and halves the gap
    tol = PosRational(1, n)
    while tol < hi - lo:
        mid = halve(lo + hi)
        if membership_leaf(a, mid):
            lo = mid
        else:
            hi = mid
    return Bracket(lo, hi)


def bracket_stepwise(a: Cut, n: int) -> Bracket:
    """Leaf bracketing by linear stepping instead of bisection.

    Splits the gap between the witnesses into more than n * gap equal
    steps and walks up until the first step outside the set.  Costs a
    number of membership tests linear in n, so it is only a cross-check
    for `bracket`, not a replacement.
    """
    if n < 1:
        raise ValueError(f"precision denominator must be >= 1, got {n}")
    x0, y0 = a.witnesses()
    gap = y0 - x0
    k = archimedean_bound(PosRational(n) * gap)
    step = gap / PosRational(k)
    prev = x0
    for _ in range(k):
        cand = prev + step
        if not membership_leaf(a, cand):
            return Bracket(prev, cand)
        prev = cand
    # the final step reaches y0, a non-member, so we cannot get here
    raise AssertionError("stepping ran past the outside witness")


def long_int(digits: str) -> int:
    """int() of a decimal string of any length, read in pieces below the
    interpreter's int-from-str cap rather than by raising the cap."""
    value = 0
    for i in range(0, len(digits), 1000):
        piece = digits[i:i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def sqrt_bounds(value: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    """Oracle enclosure of sqrt(value) of width 1/scale, by integer isqrt."""
    m = math.isqrt(value.numerator * scale ** 2 // value.denominator)
    # m/scale <= sqrt(value) < (m+1)/scale, checked exactly
    assert Fraction(m, scale) ** 2 <= value < Fraction(m + 1, scale) ** 2
    return Fraction(m, scale), Fraction(m + 1, scale)


def root_bounds(value: Fraction, degree: int, scale: int) -> tuple[Fraction, Fraction]:
    """Oracle enclosure of value**(1/degree) of width 1/scale, by bisection
    on the integers."""
    t = value.numerator * scale ** degree // value.denominator
    lo, hi = 0, 1
    while hi ** degree <= t:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** degree <= t:
            lo = mid
        else:
            hi = mid
    assert Fraction(lo, scale) ** degree <= value < Fraction(hi, scale) ** degree
    return Fraction(lo, scale), Fraction(hi, scale)


def surd_sign(x: Fraction, y: Fraction, p: int) -> int:
    """The sign of x + y*sqrt(p), exactly, for p not a perfect square."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sy == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy
    # opposite signs: the term of larger magnitude wins, and the squares
    # cannot tie because sqrt(p) is irrational
    return sx if x * x > y * y * p else sy


def surd_values(roots: list, p: int) -> dict:
    """The exact value of every cut node reachable from `roots`, as a pair
    (a, b) standing for a + b*sqrt(p), recomputed from the node structure.
    Keyed by id, in the order the nodes were first reached."""
    values: dict = {}

    def value(c):
        if id(c) in values:
            return values[id(c)][1]
        if isinstance(c, RationalCut):
            v = fr(c.bound), Fraction(0)
        elif isinstance(c, RootCut):
            assert (c.degree, c.radicand) == (2, q(p))
            v = Fraction(0), Fraction(1)
        elif isinstance(c, Sum):
            parts = [value(t) for t in c.terms]
            v = sum(a for a, _ in parts), sum(b for _, b in parts)
        elif isinstance(c, Product):
            (a, b), (x, y) = value(c.left), value(c.right)
            v = a * x + b * y * p, a * y + b * x
        elif isinstance(c, Inverse):
            a, b = value(c.operand)
            norm = a * a - b * b * p
            v = a / norm, -b / norm
        elif isinstance(c, Difference):
            (a, b), (x, y) = value(c.lower), value(c.upper)
            v = x - a, y - b
        else:
            raise TypeError(type(c).__name__)
        values[id(c)] = c, v
        return v

    for c in roots:
        value(c)
    return values


def oracle_half_up(value: Fraction, digits: int) -> int:
    """floor(value * 10^digits + 1/2), computed straight from the Fraction."""
    scaled = value * 10 ** digits
    return math.floor(scaled + Fraction(1, 2))


def oracle_decimal(value: Fraction, digits: int) -> str:
    """The decimal string a certified renderer must print for `value`.

    Only valid when `value` keeps clear of rounding ties: anything
    within a guard width of a half-grid point could legitimately render
    as an interval instead, so such values are rejected here.
    """
    scaled = value * 10 ** digits
    tie_distance = abs(scaled + Fraction(1, 2) - round(scaled + Fraction(1, 2)))
    assert tie_distance > Fraction(1, 100), \
        f"{value} is too close to a rounding tie at {digits} digits"
    return format_scaled(oracle_half_up(value, digits), digits)


def decimal_by_fractions(x: Real, digits: int) -> str:
    """`approx.decimal` as it rounded from the reduced `Fraction` ends of
    `rational_interval`: the reference its rounding from unreduced
    integer pairs is checked against."""
    scale = 10 ** digits
    iv = rational_interval(x, 10 ** GUARD_DIGITS * scale)
    lo, lo_rem = divmod(iv.lo.numerator * scale, iv.lo.denominator)
    hi, hi_rem = divmod(iv.hi.numerator * scale, iv.hi.denominator)
    if not (iv.lo < 0 < iv.hi):
        a = lo + (2 * lo_rem >= iv.lo.denominator)
        b = hi + (2 * hi_rem >= iv.hi.denominator)
        if a == b:
            return format_scaled(a, digits)
    return f"[{format_scaled(lo, digits)}, {format_scaled(hi + (hi_rem > 0), digits)}]"


def format_scaled(units: int, digits: int) -> str:
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10 ** digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in process, capturing (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# seeded random generators (acceptance tests need fixed counts, so these
# use random.Random rather than hypothesis)


def random_posrational(rng: random.Random, lo: int = 1, hi: int = 40) -> PosRational:
    return PosRational(rng.randint(lo, hi), rng.randint(lo, hi))


def random_leaf(rng: random.Random) -> Cut:
    """A random leaf cut: rational, root, or oracle-backed rational."""
    kind = rng.randrange(4)
    if kind <= 1:
        return s_r(random_posrational(rng))
    if kind == 2:
        return root_cut(rng.randint(2, 4), random_posrational(rng))
    bound = random_posrational(rng)
    return oracle_cut(lambda x, b=bound: x < b,
                      PosRational(bound.num, bound.den + 1), bound)


def random_rational_leaf(rng: random.Random) -> tuple[Cut, Fraction]:
    bound = random_posrational(rng)
    return s_r(bound), fr(bound)
