"""Signed reals as formal differences of two positive cuts.

A real is a pair (pos, neg) standing for the value of pos minus the
value of neg.  Two pairs denote the same number exactly when cross sums
agree, but that equality is never decided here; all observations go
through brackets of the two components and carry their precision with
them.  `neg` swaps the components.  A sum of k signed terms, such as
x - y + z, is one step, `add_all`: each component is one cut sum of k
terms, the terms' components, a subtracted term's swapped, so a sum
builds one real and two or three cut sums whatever its length; `add`
and `sub` are its two-term cases.

A real built as a literal, a root or an inverse also knows its sign
from how it was built (an inverse from the certificate `inv` needs
anyway): its `magnitude` is the positive cut C whose value is its
absolute value, and it is (C + S_1, S_1), negated when `negative`.
Negation keeps what is known, and a sum whose terms all know the same
sign, a subtracted term's flipped, records that sign, with the sum of
their magnitudes as its magnitude.  Multiplication uses what the
factors know: two factors of known sign multiply their magnitudes in
one product, one factor of known sign, magnitude C, scales the other's
components as (C*c, C*d), and only when neither sign is known is the
formal product of differences expanded:

    (a - b) * (c - d)  =  (ac + bd) - (ad + bc)

So the components of a product of known signs grow as its value does,
where the expansion multiplies them by the factors' component sums:
(2*x) would have four times x's components and only twice its value.
Other sums and differences know no sign, and every observer reads the
pair alone.  A sign certified at a precision gives any pair its
canonical pair: `canonicalize` returns signed(C, negative), C the gap
between the components.  `inv` pays that certificate, then inverts the
magnitude the divisor knows, or else that C.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import cut
from .qpos import ONE, PosRational, Record, int_str
from .cut import Comparison, Cut


class ZeroAtPrecision(ArithmeticError):
    """An inverse was requested of a value not certified away from zero.

    Carries the precision at which certification was attempted; a finer
    precision may still succeed, unless the value really is zero.
    """

    def __init__(self, precision: int, message: str | None = None) -> None:
        self.precision = precision
        super().__init__(message or
                         f"not separable from zero at width 1/{int_str(precision)}")


class Positive(Record):
    pass


class Negative(Record):
    pass


class IndistinguishableFromZero(Record):
    """Brackets at the given precision straddle zero: no sign is certified,
    and no zero claimed.  Also named `Indeterminate`, as `canonicalize`'s answer."""

    _fields = ("precision",)

    def __init__(self, precision: int) -> None:
        self.precision = precision


Indeterminate = IndistinguishableFromZero


SignVerdict = Positive | Negative | IndistinguishableFromZero


class Real:
    """A formal difference of two cuts.  Identity-based equality only.

    A sign known from how it was built (see `signed` and `add_all`) is
    recorded once: the value is the positive cut `magnitude`'s, negated
    when `negative`.  Otherwise `magnitude` is None and `negative` False.
    Only `mul`, `add_all` and `inv` read them.  Nothing assigns a field
    after a real is built, so it is immutable by convention, as a
    `Record` is; every term and every sum builds one, so it is a plain
    slotted class with one `__init__`, which sets the four fields.
    """

    __slots__ = _fields = ("pos", "neg", "magnitude", "negative")
    __repr__ = Record.__repr__

    def __init__(self, pos: Cut, neg: Cut, magnitude: Cut | None = None,
                 negative: bool = False) -> None:
        self.pos = pos
        self.neg = neg
        self.magnitude = magnitude
        self.negative = negative

    def __add__(self, other: Real) -> Real:
        return add(self, other)

    def __sub__(self, other: Real) -> Real:
        return sub(self, other)

    def __mul__(self, other: Real) -> Real:
        return mul(self, other)

    def __neg__(self) -> Real:
        return neg(self)


def from_pair(pos: Cut, neg: Cut) -> Real:
    return Real(pos, neg)


# S_1, the cut of the rationals below 1, which every pair built here
# is shifted by.  A rational leaf keeps no state, so one node serves all,
# and a sum pass brackets it once however often it occurs as a term.
S_ONE = cut.s_r(ONE)


def signed(magnitude: Cut, negative: bool = False) -> Real:
    """The real of known sign (magnitude + S_1, S_1), negated when `negative`."""
    x = Real(cut.add(magnitude, S_ONE), S_ONE, magnitude)
    return neg(x) if negative else x


def zero() -> Real:
    """The pair (S_1, S_1); sharing the node makes the zero syntactic."""
    return Real(S_ONE, S_ONE)


def add_all(terms: Sequence[Real], subtracted: Sequence[bool]) -> Real:
    """The sum of the terms, left to right, each one subtracted where
    `subtracted` says so: one cut sum per component.

    Each component is the componentwise sum, a subtracted term's
    components swapped.  The sum knows its sign only when every term
    knows the same one, a subtracted term's flipped: its magnitude is
    then the sum of theirs.
    """
    pos, neg_ = [], []
    # the sign every term knows so far, None once one knows none or another
    negative = terms[0].negative != subtracted[0]
    for x, minus in zip(terms, subtracted):
        if minus:
            pos.append(x.neg)
            neg_.append(x.pos)
        else:
            pos.append(x.pos)
            neg_.append(x.neg)
        if x.magnitude is None or (x.negative != minus) != negative:
            negative = None
    if negative is None:
        return Real(cut.add_all(pos), cut.add_all(neg_))
    return Real(cut.add_all(pos), cut.add_all(neg_),
                cut.add_all([x.magnitude for x in terms]), negative)


def add(x: Real, y: Real) -> Real:
    """x + y, the two-term case of `add_all`."""
    return add_all((x, y), (False, False))


def sub(x: Real, y: Real) -> Real:
    """x - y, the two-term case of `add_all`."""
    return add_all((x, y), (False, True))


def neg(x: Real) -> Real:
    """The mirrored pair (neg, pos); a known sign flips with it."""
    return Real(x.neg, x.pos, x.magnitude, x.magnitude is not None and not x.negative)


def mul(x: Real, y: Real) -> Real:
    """The product, in one, two or four cut products.

    Known signs multiply through the magnitudes: C*D when both factors
    know theirs, (C*c, C*d) or its mirror when one of them does.
    """
    if x.magnitude is not None and y.magnitude is not None:
        return signed(cut.mul(x.magnitude, y.magnitude), x.negative != y.negative)
    if y.magnitude is not None:
        x, y = y, x  # the factor of known sign goes first
    if x.magnitude is not None:
        scaled = Real(cut.mul(x.magnitude, y.pos), cut.mul(x.magnitude, y.neg))
        return neg(scaled) if x.negative else scaled
    return Real(cut.add(cut.mul(x.pos, y.pos), cut.mul(x.neg, y.neg)),
                cut.add(cut.mul(x.pos, y.neg), cut.mul(x.neg, y.pos)))


def sign(x: Real, n: int) -> SignVerdict:
    """Sign certificate at precision 1/n.

    Zero is never certified: a verdict of IndistinguishableFromZero
    says only that |value| <= 2/n, which is all brackets can see.
    """
    verdict = cut.compare(x.pos, x.neg, n)
    if verdict is Comparison.GREATER:
        return Positive()
    if verdict is Comparison.LESS:
        return Negative()
    return IndistinguishableFromZero(n)


def less_than(x: Real, y: Real, n: int) -> Comparison:
    """Order certificate: x < y iff pos_x + neg_y sits below neg_x + pos_y."""
    return cut.compare(cut.add(x.pos, y.neg), cut.add(x.neg, y.pos), n)


def canonicalize(x: Real, n: int,
                 budget: int | None = None) -> Real | IndistinguishableFromZero:
    """The canonical pair of x, when a sign is certifiable at 1/n.

    A certified sign gives the pair signed(C, negative): C is the
    component gap, recovered by cut.difference, whose search for the
    separation spends the budget.  `zero()` is returned only when the two
    components are literally the same node, the one situation where zero
    is decidable, and it is the only answer whose `magnitude` is None;
    every other unresolved case is IndistinguishableFromZero, which is a
    statement about the precision, not about the value.  A given budget
    is checked first, as the precision is, whatever the answer.
    """
    cut.check_precision(n)
    if budget is not None:
        cut.check_precision(budget, "precision budget")
    if x.pos is x.neg:
        return zero()
    verdict = cut.compare(x.pos, x.neg, n)
    if verdict is Comparison.OVERLAP:
        return IndistinguishableFromZero(n)
    negative = verdict is Comparison.LESS
    lower, upper = (x.pos, x.neg) if negative else (x.neg, x.pos)
    try:
        magnitude = cut.difference(lower, upper, budget)
    except cut.PrecisionBudgetExhausted as exc:
        raise cut.PrecisionBudgetExhausted(
            f"the sign is certified at width 1/{int_str(n)}, but the precision budget "
            "ran out before its magnitude separated from zero") from exc
    return signed(magnitude, negative)


def inv(x: Real, n: int, budget: int | None = None) -> Real:
    """Multiplicative inverse, guarded by a nonzero certificate at 1/n.

    A certified positive of magnitude C inverts to (C^ + S_1, S_1) with
    C^ the reciprocal cut of C; the negative case mirrors the components.
    C is the magnitude x records when it knows its sign, and otherwise
    the canonical form's.  The certificate is paid either way: the budget
    is spent when `canonicalize` builds its difference, not by building
    C^.  The result knows its sign, and C^ is its magnitude.
    """
    form = canonicalize(x, n, budget)
    if isinstance(form, IndistinguishableFromZero):
        raise ZeroAtPrecision(n)
    if form.magnitude is None:
        raise ZeroAtPrecision(n, "the value is exactly zero and has no inverse")
    known = form if x.magnitude is None else x
    return signed(cut.inverse(known.magnitude), known.negative)
