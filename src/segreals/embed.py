"""Embeddings of the rationals into cuts and into signed reals.

Three maps, each preserving the arithmetic it can express:

* ``phi`` sends a positive rational r to the cut of everything below r,
  turning rational sums and products into cut sums and products;
* ``f_embed`` sends a positive cut A to the pair (A + S_1, S_1), the
  canonical way a magnitude becomes a signed real;
* ``g_embed`` sends any signed rational, a ``Fraction`` or an ``int``,
  to a pair of rational cuts.

Both results know their sign (zero excepted), so ``real.mul`` can
multiply them through their magnitudes.
"""

from __future__ import annotations

from fractions import Fraction

from . import cut, real
from .qpos import PosRational
from .cut import Cut
from .real import Real


class SignedRational:
    """Not a type: signed rationals are ``Fraction``s, and ``from_fraction`` is
    ``Fraction``.  The benchmark worker calls it; the name goes with its next change."""

    from_fraction = staticmethod(Fraction)


def phi(r: PosRational) -> Cut:
    """The positive rational r as the cut of everything below it."""
    return cut.s_r(r)


def f_embed(a: Cut) -> Real:
    """A positive cut as a signed real, via the pair (a + S_1, S_1).

    The result is positive with magnitude a.
    """
    return real.signed(a)


def rational_pair(q: Fraction | int) -> tuple[int, int]:
    """The numerator and denominator of a ``Fraction`` or an ``int``, the one reader
    of a rational; any other type, a float or a Decimal too, raises TypeError."""
    try:
        return q.numerator, q.denominator
    except AttributeError:
        raise TypeError(f"a rational is a Fraction or an int, got {q!r}") from None


def g_embed(q: Fraction | int) -> Real:
    """Any signed rational as a signed real built from rational cuts.

    q is read by `rational_pair`.  A magnitude m lands at (S_{m+1}, S_1),
    negated by `real.neg` when q is negative, and carries S_m as its
    magnitude, so a product with it scales by m instead of by the
    components; zero knows no sign, and shares a single S_1 node between
    the components so that downstream code can recognise it syntactically.
    """
    num, den = rational_pair(q)
    if num == 0:
        return real.zero()
    m = abs(num)
    x = Real(cut.s_r(PosRational(m + den, den)), real.S_ONE, cut.s_r(PosRational(m, den)))
    return real.neg(x) if num < 0 else x
