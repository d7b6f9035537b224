"""Exact oracle for benchmark answers, independent of segreals.

Expressions are small tuples built by the generators in ``workloads``:

    ("num", Fraction)          a non-negative rational literal
    ("root", k, Fraction)      the k-th root of a positive rational
    ("neg", e)
    ("add" | "sub" | "mul" | "div", a, b)

Values are enclosed by exact interval arithmetic on ``fractions.Fraction``.
Root-free expressions evaluate to a point interval; roots are enclosed
with integer k-th roots at a chosen number of bits and are exact when
the radicand is a perfect power.  A check refines the enclosure until
its verdict is decided, so nothing here trusts the program under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Guard bits added to the precision a check needs, and how often the
# enclosure is refined (each time 4x finer) before a verdict is left
# open.  Only values sitting on a rounding tie or on an interval
# endpoint stay open, which random inputs almost never produce.
GUARD_BITS = 32
REFINEMENTS = 3


class Undecided(Exception):
    """A division whose divisor enclosure still contains zero."""


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, by integer Newton iteration."""
    if n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)  # an upper bound on the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def root_enclosure(k: int, r: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] containing r ** (1/k), exact when r is a perfect k-th power."""
    p, q = r.numerator, r.denominator
    rp, rq = iroot(p, k), iroot(q, k)
    if rp ** k == p and rq ** k == q:
        v = Fraction(rp, rq)
        return v, v
    scale = 1 << bits
    m = iroot(p * scale ** k // q, k)
    # m^k <= r * scale^k < (m+1)^k, so m/scale <= root < (m+1)/scale
    return Fraction(m, scale), Fraction(m + 1, scale)


def enclose(e: tuple, bits: int) -> tuple[Fraction, Fraction]:
    """An interval certainly containing the value of e."""
    op = e[0]
    if op == "num":
        return e[1], e[1]
    if op == "root":
        return root_enclosure(e[1], e[2], bits)
    if op == "neg":
        lo, hi = enclose(e[1], bits)
        return -hi, -lo
    alo, ahi = enclose(e[1], bits)
    blo, bhi = enclose(e[2], bits)
    if op == "add":
        return alo + blo, ahi + bhi
    if op == "sub":
        return alo - bhi, ahi - blo
    if op == "div":
        if blo <= 0 <= bhi:
            raise Undecided
        blo, bhi = 1 / bhi, 1 / blo
    elif op != "mul":
        raise ValueError(f"unknown node {op!r}")
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(products), max(products)


def decide(e: tuple, need_bits: int, verdict):
    """Apply verdict(lo, hi) -> True/False/None on finer and finer enclosures.

    Starts at need_bits + GUARD_BITS.  Returns the first decided
    verdict, or None when even the finest enclosure leaves it open.
    """
    bits = need_bits + GUARD_BITS
    for _ in range(REFINEMENTS):
        try:
            v = verdict(*enclose(e, bits))
        except Undecided:
            v = None
        if v is not None:
            return v
        bits *= 4
    return None


def _bits(n: int) -> int:
    return max(1, n).bit_length()


def near_zero(e: tuple, n: int) -> bool:
    """True unless |value of e| is certainly greater than 1/n."""
    w = Fraction(1, n)
    return decide(e, _bits(n), lambda lo, hi: False if lo > w or hi < -w
                  else (True if -w <= lo and hi <= w else None)) is not False


# ---------------------------------------------------------------------------
# answer checks; each returns None when the answer is right, else a reason


def _half_up(v: Fraction, digits: int) -> int:
    return math.floor(v * 10 ** digits + Fraction(1, 2))


def _decimal_fraction(text: str, digits: int) -> Fraction:
    """A fixed-point string with exactly `digits` fractional digits."""
    whole, dot, frac = text.removeprefix("-").partition(".")
    if not (dot and whole.isdigit() and frac.isdigit() and len(frac) == digits):
        raise ValueError(f"not a {digits}-digit decimal: {text!r}")
    return Fraction(text)


def _contains(e: tuple, need_bits: int, a: Fraction, b: Fraction) -> bool | None:
    return decide(e, need_bits, lambda lo, hi: True if a <= lo and hi <= b
                  else (False if hi < a or lo > b else None))


def check_decimal(e: tuple, digits: int, text: str) -> str | None:
    """A bare string must be correctly rounded; an interval must enclose
    the value and be at most 2 * 10^-digits wide."""
    text = text.strip()
    need = _bits(10 ** digits)
    is_interval = text.startswith("[") and text.endswith("]")
    try:
        if is_interval:
            a_text, b_text = text[1:-1].split(", ")
            a, b = _decimal_fraction(a_text, digits), _decimal_fraction(b_text, digits)
        else:
            a = _decimal_fraction(text, digits)
    except ValueError:
        return f"unreadable answer {text!r}"
    if is_interval:
        if not a <= b or b - a > Fraction(2, 10 ** digits):
            return f"interval {text} is not ordered or is wider than 2*10^-{digits}"
        if _contains(e, need, a, b) is False:
            return f"interval {text} misses the value"
        return None
    units = a * 10 ** digits
    allowed = decide(e, need, lambda lo, hi: (_half_up(lo, digits) == units)
                     if _half_up(lo, digits) == _half_up(hi, digits) else None)
    if allowed is None:
        # the value sits on (or extremely near) a rounding tie: either
        # neighbour is defensible
        allowed = decide(e, need, lambda lo, hi: _half_up(lo, digits) <= units
                         <= _half_up(hi, digits)) is not False
    return None if allowed else f"{text} is not the correctly rounded value"


def check_interval(e: tuple, n: int, text: str) -> str | None:
    """An exact interval "[p/q, r/s]" must enclose the value, width <= 1/n."""
    text = text.strip()
    try:
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError
        a_text, b_text = text[1:-1].split(", ")
        a, b = Fraction(a_text), Fraction(b_text)
    except ValueError:
        return f"unreadable interval {text!r}"
    if a > b or b - a > Fraction(1, n):
        return f"interval {text} is not ordered or is wider than 1/{n}"
    if _contains(e, _bits(n), a, b) is False:
        return f"interval {text} misses the value"
    return None


def check_compare(a: tuple, b: tuple, n: int, text: str) -> str | None:
    """less/greater must be true; overlap only when |a - b| <= 2/n."""
    diff = ("sub", a, b)
    need = _bits(n)
    text = text.strip()
    if text == "less":
        ok = decide(diff, need, lambda lo, hi: True if hi < 0 else (False if lo >= 0 else None))
    elif text == "greater":
        ok = decide(diff, need, lambda lo, hi: True if lo > 0 else (False if hi <= 0 else None))
    elif text == "overlap":
        w = Fraction(2, n)
        ok = decide(diff, need, lambda lo, hi: True if -w <= lo and hi <= w
                    else (False if lo > w or hi < -w else None))
        ok = ok is not False
    else:
        return f"unknown verdict {text!r}"
    return None if ok else f"verdict {text!r} is wrong"
