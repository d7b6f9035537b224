"""Initial segments of the positive rationals, queried through brackets.

A positive real is represented by the set of positive rationals lying
strictly below it: a nonempty, proper, downward closed set with no
maximum element.  Sets are never materialised; a cut is an expression
tree whose leaves answer exact membership queries and whose composite
nodes (sum, product, inverse, difference, finite sup) define membership
of the derived set.

Nothing here ever decides equality of two cuts.  The one universally
available observation is ``bracket(a, n)``: a pair of rationals
``lo < hi`` with ``lo`` inside the set, ``hi`` outside it, and
``hi - lo <= 1/n``.  Everything downstream (signs, comparisons, decimal
printing) is phrased in terms of such certified enclosures, so every
answer the library gives is exact about its own uncertainty.

Each node kind brackets and renders itself: ``_fresh`` computes its
bracket from its operands' brackets (or, on a leaf, from its witnesses)
and ``repr`` is its s-expression; a leaf also answers ``contains(x)``
and names its largest member numerator over a given denominator, from
which it is bracketed and climbs (behind ``next_member_above``).
``bracket`` is the single entry point; it validates the precision and
owns the cache, and composite nodes recurse through it, never through
each other's ``_fresh``.  A sum holds a tuple of terms, so a chain of
k terms is one node, and it is the one exception to one bracket per
node: a sum subtree, a sum and the unbracketed sums nested among its
terms, is bracketed as one sum of its k terms, each asked at
n*2^ceil(log2 k), without recursion, so nesting costs neither a bracket
nor a halving of the tolerance per level.  A term that occurs several
times in the subtree, like the S_1 leaf every signed term carries, is
bracketed once and counted by its multiplicity; k still counts every
occurrence.  The cache is one slot per composite node and oracle leaf,
and its only mutable state: the tightest bracket seen so far.  A bracket
of width w answers every request with w*n <= 1, so a shared node asked
at several precisions is computed once per refinement, not once per
precision.  Rational and root leaves hold no record: that numerator is
one integer division or k-th root, so computing it every time keeps
their brackets independent of what was asked before, and they climb
without a membership test (a root bracket makes one, of 1).  An oracle
leaf bisects the grid's cells for its bracket, and the integers for a
numerator only when it climbs, and keeps its tightest bracket.  Leaf
membership inside this module goes through ``membership_leaf``, so
wrapping those two module attributes sees every bracket and every
membership test.

Every node also carries a ``ceiling``: an integer at or above its
value, so a non-member, fixed when the node is built, without recursion.
A rational leaf takes its bound rounded up, a root leaf a power of two
from the bit length of its radicand, an oracle leaf its outside witness
rounded up; a sum adds its terms' ceilings, a product multiplies
them, a finite sup takes their largest and a difference its upper
operand's.  An inverse brackets its operand once, at n = 1, when it is
built, and keeps that bracket's lower end x0, a member of the operand:
its own value is then below 1/x0, which gives its ceiling, and x0 bounds
the operand from below in every later bracket.  A product asks each
operand at 4n times the other's ceiling, which is what that operand's
error costs in the product; so a chain of L products costs about 2L
brackets.  A difference settles its premise, lower below upper, when
it is built too: the search for brackets that separate its operands is
the only work with a budget, so ``bracket`` takes none and never runs
out of one.

A bracket's endpoints need not be the exact rationals the arithmetic
produced.  ``Product`` and ``Inverse`` round theirs outward onto the
dyadic grid 1/2^k with 2^k >= 4n: ``lo`` down, ``hi`` up.  A cut is
downward closed, so ``lo`` stays a member and ``hi`` a non-member, and
the two grid steps, 1/(2n) together, are paid from the node's own
tolerance split.  Their endpoints then have about log2(n) bits plus
the bits of the value, instead of multiplying with every nested
product or inverse.  ``Sum`` and ``Difference`` are not rounded: their
endpoints are sums and differences of their operands' endpoints, whose
bits add rather than multiply, so rounding them would spend width
without bounding any growth, and would change the intervals of plain
sums such as ``2 + 3/4``.
"""

from __future__ import annotations

import enum
import math
import threading
from collections.abc import Callable, Iterable

from .qpos import ONE, NotGreaterError, PosRational, Record, ceil_int, halve

# Cap on the precision denominator of `difference`'s search for a separation:
# past it, it raises instead of looping forever on a pair of equal values.
DEFAULT_BUDGET = 2 ** 64

# Largest root degree `root_cut` accepts.  Bracketing a root raises
# integers to the degree-th power, so an unbounded degree is unbounded
# work; at this cap root(k, 999/998) prints 30 digits well within a second.
# The cost grows with the digits too: root(4999, 2) takes about 0.1 s at
# 30 digits, 1 s at 100, 3 s at 200 and two minutes at 2 000 (Python 3.11,
# one run each).  ROADMAP item 6 bounds it.
MAX_ROOT_DEGREE = 5000

# Serialises the check-and-store of a node's best bracket, so a wider
# bracket never replaces a narrower one when threads refine one node.
_STORE = threading.Lock()

# A node's cache record before its first stored bracket: reach 0 serves no n.
_NO_BRACKET: tuple[int, Bracket | None] = (0, None)


class BadDegreeError(ValueError):
    """Root degree outside 2..MAX_ROOT_DEGREE requested."""


class NotALeafError(TypeError):
    """A leaf-only operation was applied to a composite cut."""


class NotAMemberError(ValueError):
    """next_member_above was asked to climb from outside the set."""


class EmptyFamilyError(ValueError):
    """sup_finite needs at least one cut."""


class PrecisionBudgetExhausted(ArithmeticError):
    """difference could not separate its arguments within the budget.

    Raised when the difference is built, and never looped on: two cuts
    with equal values can never be separated, and the caller is the only
    one who knows how long a wait is worth it.
    """


class Comparison(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    OVERLAP = "overlap"


class Bracket(Record):
    """A certified enclosure: lo is in the set, hi is not.

    Since every member is strictly below every non-member, the value of
    the cut lies in (lo, hi].  Every fresh bracket builds one, so it is a
    plain slotted class whose one `__init__` checks lo < hi.
    """

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: PosRational, hi: PosRational) -> None:
        if not lo < hi:
            raise ValueError(f"bracket endpoints out of order: {lo} >= {hi}")
        self.lo = lo
        self.hi = hi

    @property
    def width(self) -> PosRational:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi})"


class Cut:
    """Base class for cut expression nodes.

    Nodes are immutable once built, apart from one cache: `_best`, the
    tightest bracket `bracket` has seen for the node, kept with its
    reach, floor(1/width), the finest precision it serves.  It is
    replaced by narrower brackets only; kinds whose `_keeps_best` is
    false hold none, as `bracket` computes theirs before it would read
    one.  `ceiling` is fixed when the node is built: an integer at or
    above its value, so a non-member, derived from its operands'
    ceilings, or for an inverse from a member of its operand.  Each
    subclass supplies `_fresh(n)`, its bracket at precision n computed
    without the cache, and a `__repr__` giving its s-expression; a leaf
    also supplies `contains(x)`.  Which bracket a request gets depends
    on what was asked before; every one is certified and at most 1/n
    wide, also for concurrent callers, which may each compute a fresh
    bracket and then get different, equally valid ones.  Identity, not
    structure, is node equality: value equality of cuts is only ever
    semidecidable and is deliberately not spelled __eq__.
    """

    __slots__ = ("_best", "ceiling")
    _keeps_best = True

    def __init__(self, ceiling: int) -> None:
        self._best = _NO_BRACKET
        self.ceiling = ceiling

    def contains(self, x: PosRational) -> bool:
        raise NotALeafError(f"membership is exact on leaves only, not {type(self).__name__}")

    def __add__(self, other: Cut) -> Cut:
        return add(self, other)

    def __mul__(self, other: Cut) -> Cut:
        return mul(self, other)


class Leaf(Cut):
    """A cut with exact membership `contains(x)` and `witnesses()` in/out.

    Every kind is bracketed on the dyadic grid over its witnesses, read
    as integer pairs (`_grid_bracket`), in the cell `_grid_cell` picks,
    and climbed by `_climb`, both from the kind's
    `largest_member_numerator` over a denominator; a rational leaf knows
    its cell without that numerator and names it in closed form, and an
    oracle leaf bisects the cells.  On rational and root leaves that is
    one integer division or k-th root, and on a root leaf one membership
    test, of 1, so their bracket is computed on every call and they hold
    no `_best`.
    """

    __slots__ = ()
    _keeps_best = False

    def _fresh(self, n: int) -> Bracket:
        lo, hi = self.witnesses()
        return _grid_bracket(self, (lo.num, lo.den), (hi.num, hi.den), n)

    def _grid_cell(self, grid: int, base: int, step: int, count: int) -> int:
        # the last of the points (base + j*step)/grid, j = 0..count, that is a member
        return (self.largest_member_numerator(grid) - base) // step

    def _climb(self, x: PosRational) -> PosRational:
        # the largest member on the grid 1/(x.den * 2^k), for the first k
        # at which it lies above x; one exists since the set has no maximum
        den, floor = x.den, x.num
        while True:
            y = self.largest_member_numerator(den)
            if y > floor:
                return PosRational(y, den)
            den, floor = 2 * den, 2 * floor


class RationalCut(Leaf):
    """The segment of everything strictly below the rational bound: `s_r`.

    Its witnesses are the bound, out, and the mediant of the bound with
    the origin corner, (num, den + 1), in.  The bound is a point of every
    dyadic grid over them and the least non-member, so the cell bisection
    keeps is the top one, and a fresh bracket is that cell in closed form:
    it builds one rational, its lower end, and its upper end is the bound.
    """

    __slots__ = ("bound",)

    def __init__(self, bound: PosRational) -> None:
        # the Cut slot, set here rather than through Cut.__init__: every
        # signed literal builds two rational leaves, and they keep no record
        self.ceiling = ceil_int(bound)
        self.bound = bound

    def contains(self, x: PosRational) -> bool:
        return x < self.bound

    def witnesses(self) -> tuple[PosRational, PosRational]:
        return PosRational(self.bound.num, self.bound.den + 1), self.bound

    def largest_member_numerator(self, den: int) -> int:
        """The largest integer y with y/den a member: y*b.den < b.num*den."""
        return (self.bound.num * den - 1) // self.bound.den

    def _fresh(self, n: int) -> Bracket:
        # k halvings of the gap num/(den*(den+1)), the fewest that bring it
        # under 1/n, as `_grid_bracket` counts them
        num, den = self.bound.num, self.bound.den
        grid = den * (den + 1)
        k = (-(-num * n // grid) - 1).bit_length()
        return Bracket(PosRational(num * (((den + 1) << k) - 1), grid << k), self.bound)

    def __repr__(self) -> str:
        return f"(s_r {self.bound})"


class RootCut(Leaf):
    """The segment whose value is the degree-th root of the radicand: `root_cut`.

    Its members are the positive rationals whose degree-th power is
    below the radicand r; the degree must pass `check_root_degree`.  Its
    witnesses, min(1, r)/2 in and 1 + num(r) out, are settled by
    arithmetic alone.
    """

    __slots__ = ("degree", "radicand")

    def __init__(self, degree: int, radicand: PosRational) -> None:
        check_root_degree(degree)
        # the Cut slot is set here, as on a rational leaf; r <= ceil(r) < 2^b,
        # so r^(1/k) < 2^ceil(b/k): O(1), where an integer k-th root would
        # cost every leaf built
        self.ceiling = 1 << -(-ceil_int(radicand).bit_length() // degree)
        self.degree = degree
        self.radicand = radicand

    def contains(self, x: PosRational) -> bool:
        # x^k < r, cross-multiplied so only integers are compared
        k, r = self.degree, self.radicand
        return x.num ** k * r.den < x.den ** k * r.num

    def witnesses(self) -> tuple[PosRational, PosRational]:
        # (1/2)^k < 1 < r, or (r/2)^k < r <= 1; and (1 + num r)^k > num r >= r.
        # 1 is in exactly when 1 < r, an O(1) test made through
        # `membership_leaf` so that a wrapper there sees every root bracket
        w_in = halve(ONE if membership_leaf(self, ONE) else self.radicand)
        return w_in, PosRational(1 + self.radicand.num)

    def largest_member_numerator(self, den: int) -> int:
        """The largest integer y with y/den a member: y^k*r.den < r.num*den^k."""
        r = self.radicand
        return _iroot((r.num * den ** self.degree - 1) // r.den, self.degree)

    def __repr__(self) -> str:
        return f"(root {self.degree} {self.radicand})"


class OracleCut(Leaf):
    """A leaf defined by a caller-supplied exact membership predicate: `oracle_cut`.

    The predicate must describe a genuine initial segment: downward
    closed, no maximum, neither empty nor everything.  The library
    cannot check that; it only spot-checks the two witnesses, through
    `membership_leaf`, and refuses the leaf (ValueError) unless the
    inside one is accepted and the outside one rejected.  Its predicate
    is opaque, so its cell and its largest member numerator are
    searches, and its tightest bracket is its one cache, kept like a
    composite's.
    """

    __slots__ = ("member", "witness_in", "witness_out")
    _keeps_best = True

    def __init__(self, member: Callable[[PosRational], bool],
                 witness_in: PosRational, witness_out: PosRational) -> None:
        self.member = member
        if not membership_leaf(self, witness_in):
            raise ValueError(f"witness_in {witness_in} rejected by the predicate")
        if membership_leaf(self, witness_out):
            raise ValueError(f"witness_out {witness_out} accepted by the predicate")
        super().__init__(ceil_int(witness_out))
        self.witness_in = witness_in
        self.witness_out = witness_out

    def contains(self, x: PosRational) -> bool:
        return bool(self.member(x))

    def witnesses(self) -> tuple[PosRational, PosRational]:
        return self.witness_in, self.witness_out

    def _grid_cell(self, grid: int, base: int, step: int, count: int) -> int:
        # bisection over the count cells, one membership test a halving:
        # point 0 is a member (or 0) and point count is not
        lo, hi = 0, count
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if membership_leaf(self, PosRational(base + mid * step, grid)):
                lo = mid
            else:
                hi = mid
        return lo

    def largest_member_numerator(self, den: int) -> int:
        """The largest integer y with y/den a member, bisected between
        floor(witness_in*den), in or 0, and ceil(witness_out*den), out."""
        w_in, w_out = self.witness_in, self.witness_out
        lo, hi = w_in.num * den // w_in.den, -(-w_out.num * den // w_out.den)
        return lo + self._grid_cell(den, lo, 1, hi - lo)

    def __repr__(self) -> str:
        return f"(oracle {self.witness_in} {self.witness_out})"


class Sum(Cut):
    """The sums t_1 + ... + t_k of one member of each of its k terms.

    Its terms are a tuple, left to right, so a chain of k terms is one
    node.  It is bracketed in one pass together with the sums nested
    among its terms that hold no bracket yet, such as the C + S_1 of a
    signed term: `_fresh` gathers the terms of the whole sum subtree and
    asks each for width 1/(n*2^j), with 2^j the least power of two >= k,
    so the k widths add up to at most 1/n.  A two-term sum asks each
    side at 2n, and no term is asked finer than about 2kn however deep
    the subtree.  Each distinct term, by identity, is bracketed once and
    counted by its multiplicity, where k counts every occurrence: a
    leaf's second bracket at the same precision would be the same closed
    form, and a composite's its stored one.  Its ceiling is the sum of
    its terms' ceilings.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Cut, ...]) -> None:
        # the Cut slots, set here rather than through Cut.__init__: a sum
        # is the node built most, one per signed root and one per
        # component of each "+"/"-" chain
        self._best = _NO_BRACKET
        ceiling = 0
        for t in terms:
            ceiling += t.ceiling
        self.ceiling = ceiling
        self.terms = terms

    def _fresh(self, n: int) -> Bracket:
        # the terms, left to right: a nested sum is opened into its terms
        # unless it holds a bracket already, or was opened before in this
        # pass; then it stays one term, refined through its own cache, and
        # a sum that doubles a shared one costs its depth, not 2^depth;
        # each term is counted by identity, in first-occurrence order, and
        # bracketed once
        counts, opened, stack = {}, set(), [*self.terms[::-1]]
        while stack:
            c = stack.pop()
            if isinstance(c, Sum) and c._best[1] is None and id(c) not in opened:
                opened.add(id(c))
                stack += c.terms[::-1]
            else:
                counts[c] = counts.get(c, 0) + 1
        # the widths add up over all k occurrences, so k, not the number
        # of distinct terms, sets m
        m = n << (sum(counts.values()) - 1).bit_length()
        parts = [bracket(t, m) for t in counts]
        ks = list(counts.values())
        return Bracket(_total([p.lo for p in parts], ks), _total([p.hi for p in parts], ks))

    def __repr__(self) -> str:
        return f"(sum {' '.join(map(repr, self.terms))})"


class Product(Cut):
    """Pairwise products of members of the two operands: `mul`.

    The exact product of brackets (x, X] and (y, Y] is X*Y - x*y =
    X*(Y - y) + y*(X - x) wide, so each operand's error costs the other
    operand's size.  With ceilings A and B, each operand is asked at 4n
    times the other's, and X is clamped to A: the exact product is then
    at most A/(4nA) + B/(4nB) = 1/(2n) wide, with no bracket spent on
    magnitudes.  It is then rounded outward onto the grid 1/2^k,
    2^k >= 4n, at most 1/(2n) more, straight from the integer products
    of the ends, unreduced.  A lower end with no positive grid
    point below it is kept unrounded, since a bracket's lower end is
    never 0.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Cut, right: Cut) -> None:
        super().__init__(left.ceiling * right.ceiling)
        self.left = left
        self.right = right

    def _fresh(self, n: int) -> Bracket:
        a, b = self.left.ceiling, self.right.ceiling
        fa = bracket(self.left, 4 * n * b)
        fb = bracket(self.right, 4 * n * a)
        if a * fa.hi.den < fa.hi.num:
            # A is a non-member, so (x, A] is still a bracket
            fa = Bracket(fa.lo, PosRational(a))
        k = _grid_bits(n)
        num, den = fa.lo.num * fb.lo.num, fa.lo.den * fb.lo.den
        # a member too small for the grid stays as it is
        return Bracket(_grid_below(num, den, k) or PosRational(num, den),
                       _grid_above(fa.hi.num * fb.hi.num, fa.hi.den * fb.hi.den, k))

    def __repr__(self) -> str:
        return f"(product {self.left!r} {self.right!r})"


class Inverse(Cut):
    """Rationals lying below the reciprocal of some non-member: `inverse`.

    Built with x0, the lower end of its operand's bracket at n = 1, a
    member of the operand: the value is below 1/x0, so ceil(1/x0) + 1 is
    a ceiling, and the lower end x of every later operand bracket is
    raised to at least x0.  From an operand bracket (x, y] at most
    x0^2/(2n) wide, 1/x - 1/y is then at most 1/(2n).  Then 1/x is
    rounded up and 1/y strictly down onto the grid 1/2^k, 2^k >= 4n, at
    most 1/(2n) more, each from its end's integer pair read the other way
    round; strictly, because 1/y itself is a member only when
    y is above the operand's value.  When 1/y <= 1/2^k has no positive
    grid point below it, the lower end is y.den/(y.num + 1), below 1/y
    by less than 1/y.
    """

    __slots__ = ("operand", "x0")

    def __init__(self, operand: Cut) -> None:
        x0 = bracket(operand, 1).lo
        # ceil(1/x0) is a ceiling already; one more makes a product over
        # the inverse ask its other factor finer (twice as fine when the
        # inverse is below 1), and in a chain of divisions that product's
        # stored bracket then serves the next divisor's certificate
        super().__init__(-(-x0.den // x0.num) + 1)
        self.operand = operand
        self.x0 = x0

    def _fresh(self, n: int) -> Bracket:
        x0 = self.x0
        # 1/x - 1/y = (y - x)/(x*y) <= (y - x)/x0^2 once both endpoints sit
        # above x0, so operand width x0^2/(2n) keeps the reciprocal gap under
        # 1/(2n); m is the ceiling of a positive ratio, so at least 1
        m = -(-2 * n * x0.den ** 2 // x0.num ** 2)
        fine = bracket(self.operand, m)
        x, y = max(fine.lo, x0), fine.hi
        k = _grid_bits(n)
        # y is outside the operand, so everything strictly below 1/y is a
        # member, and 1/x is above every member
        lo = _grid_below(y.den, y.num, k) or PosRational(y.den, y.num + 1)
        return Bracket(lo, _grid_above(x.den, x.num, k))

    def __repr__(self) -> str:
        return f"(inverse {self.operand!r})"


class Difference(Cut):
    """The unique cut that, added to `lower`, gives `upper`: `difference`.

    Membership: every z expressible as x - y with x a member of upper,
    y a non-member of lower and x > y.  Only meaningful when lower's
    value is below upper's, which is settled when the node is built:
    `ba` and `bb` are their brackets at the first width 1/t, t = 1, 2,
    4, ..., with ba.hi < bb.lo (PrecisionBudgetExhausted past the
    budget, which `check_precision` holds to an int of at least 1;
    NotGreaterError once bb.hi <= ba.lo puts upper below lower).  A
    fresh bracket asks each operand once, at max(2n, t), and clamps it
    against that pair, which keeps its lower end positive.
    """

    __slots__ = ("lower", "upper", "t", "ba", "bb")

    def __init__(self, lower: Cut, upper: Cut, budget: int | None = None) -> None:
        if budget is None:
            budget = DEFAULT_BUDGET
        check_precision(budget, "precision budget")
        super().__init__(upper.ceiling)
        self.lower = lower
        self.upper = upper
        t = 1
        while (ba := bracket(lower, t)).hi >= (bb := bracket(upper, t)).lo:
            if bb.hi <= ba.lo:
                raise NotGreaterError(
                    f"the upper operand is below the lower one at width 1/{t}")
            t *= 2
            if t > budget:
                raise PrecisionBudgetExhausted(
                    f"no separation between the operands down to width 1/{t // 2}; "
                    f"their values may be equal")
        self.t, self.ba, self.bb = t, ba, bb

    def _fresh(self, n: int) -> Bracket:
        m = max(2 * n, self.t)
        fa = _clamp(bracket(self.lower, m), self.ba)
        fb = _clamp(bracket(self.upper, m), self.bb)
        # fb.lo - fa.hi is a genuine member: upper-member minus lower-non-member,
        # positive thanks to the separation; fb.hi - fa.lo dominates every member
        return Bracket(fb.lo - fa.hi, fb.hi - fa.lo)

    def __repr__(self) -> str:
        return f"(difference {self.lower!r} {self.upper!r})"


class SupFinite(Cut):
    """Union of finitely many cuts, the least upper bound of the family: `sup_finite`.

    It takes any iterable of cuts and refuses an empty one (EmptyFamilyError).
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable[Cut]) -> None:
        members = tuple(members)
        if not members:
            raise EmptyFamilyError("sup_finite of an empty family")
        super().__init__(max(m.ceiling for m in members))
        self.members = members

    def _fresh(self, n: int) -> Bracket:
        parts = [bracket(m, n) for m in self.members]
        # hi dominates every part's hi, so it is outside every member set;
        # the width is at most the width of the part owning the largest hi
        return Bracket(max(p.lo for p in parts), max(p.hi for p in parts))

    def __repr__(self) -> str:
        return f"(sup {' '.join(map(repr, self.members))})"


# ---------------------------------------------------------------------------
# constructors: each name is its node class, and the class checks its
# arguments; `add` and `add_all` adapt their arguments to `Sum`'s tuple

s_r = RationalCut
root_cut = RootCut
oracle_cut = OracleCut
mul = Product
inverse = Inverse
difference = Difference
sup_finite = SupFinite


def check_root_degree(degree: int) -> None:
    """The one rule on root degrees: an int, 2 <= degree <= MAX_ROOT_DEGREE."""
    if not isinstance(degree, int):
        raise TypeError(f"root degree must be an int, got {degree!r}")
    if not 2 <= degree <= MAX_ROOT_DEGREE:
        bound = "at least 2" if degree < 2 else f"at most {MAX_ROOT_DEGREE}"
        raise BadDegreeError(f"root degree must be {bound}, got {degree}")


def add(a: Cut, b: Cut) -> Sum:
    """The two-term sum a + b: `add_all((a, b))`."""
    return Sum((a, b))


def add_all(terms: Iterable[Cut]) -> Sum:
    """The sum of two or more terms, left to right, as one node."""
    return Sum(tuple(terms))


# ---------------------------------------------------------------------------
# leaves: exact membership and climbing


def membership_leaf(a: Cut, x: PosRational) -> bool:
    """Exact membership test: a leaf's `contains`, NotALeafError on composites."""
    return a.contains(x)


def next_member_above(a: Cut, x: PosRational) -> PosRational:
    """A member strictly above x, witnessing that leaves have no maximum."""
    if not membership_leaf(a, x):  # raises NotALeafError on composites
        raise NotAMemberError(f"{x} is not a member")
    return a._climb(x)


# ---------------------------------------------------------------------------
# bracketing


def check_precision(n: int, name: str = "precision denominator") -> None:
    """The one rule on precisions, checked on the value the caller passed:
    an int, at least 1."""
    if not isinstance(n, int):
        raise TypeError(f"{name} must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")


def bracket(a: Cut, n: int) -> Bracket:
    """A certified enclosure of width at most 1/n.

    Returns (lo, hi) with lo a member of a, hi a non-member, and
    hi - lo <= 1/n.  This is the single entry point: it validates n,
    brackets a rational or root leaf afresh, returns any other node's
    stored bracket when that is already narrow enough, and otherwise
    asks the node for a fresh bracket and stores it if it is the
    narrowest yet.  So the bracket returned may be narrower than 1/n,
    and which one it is depends on earlier requests.  Leaves answer on
    the dyadic grid over their witnesses that bisection would walk, in
    the cell their largest member numerator picks (a rational leaf names
    its top cell directly, an oracle bisects the cells); composite nodes
    recurse structurally through this function, so a shared subtree is
    bracketed afresh only when a request is finer than anything it has
    answered.  It never raises PrecisionBudgetExhausted: a difference
    searched for the separation of its operands when it was built.
    """
    check_precision(n)
    if not a._keeps_best:
        return a._fresh(n)
    reach, best = a._best
    # the stored bracket serves every n its width allows, whatever was asked
    if n <= reach:
        return best
    result = a._fresh(n)
    reach = _reach(result)
    with _STORE:
        # another thread may have stored a narrower bracket meanwhile
        if reach > a._best[0]:
            a._best = (reach, result)
    return result


def _reach(b: Bracket) -> int:
    """floor(1/width): b serves precision n exactly when n <= _reach(b)."""
    lo, hi = b.lo, b.hi
    return lo.den * hi.den // (hi.num * lo.den - lo.num * hi.den)


def _grid_bracket(a: Leaf, lo: tuple[int, int], hi: tuple[int, int], n: int) -> Bracket:
    """The bracket bisection from lo to hi ends on at width 1/n, without the walk.

    lo and hi are the witnesses as (num, den) pairs, which need not be
    reduced: the grid points depend only on their values.  Bisection
    halves the gap k times, for the fewest k that brings it under 1/n,
    and always keeps a cell of the level-k dyadic grid over [lo, hi]:
    the unique cell whose left end is a member and whose right end is
    not.  On the common denominator `grid` the grid points are
    base + j*step, and the leaf's `_grid_cell` picks j: one integer
    division of its largest member numerator over `grid`, or on an
    oracle leaf a bisection over the 2^k cells.
    """
    (lo_num, lo_den), (hi_num, hi_den) = lo, hi
    den = math.lcm(lo_den, hi_den)
    base = lo_num * (den // lo_den)
    step = hi_num * (den // hi_den) - base
    k = (-(-step * n // den) - 1).bit_length()  # 2^k >= ceil(gap * n)
    grid = den << k
    base <<= k
    j = a._grid_cell(grid, base, step, 1 << k)
    return Bracket(PosRational(base + j * step, grid),
                   PosRational(base + (j + 1) * step, grid))


def _iroot(t: int, d: int) -> int:
    """floor(t ** (1/d)) for t >= 0, in exact integer arithmetic."""
    if t < 2:
        return t
    if d == 2:
        return math.isqrt(t)
    # bisect for the root of t's top bits: about log2(d) + 2 leading bits
    # of the root, or all of them when the root is that short
    shift = max(0, t.bit_length() // d - d.bit_length() - 2)
    top = t >> shift * d
    lo = 1 << (top.bit_length() - 1) // d  # lo^d <= top < (2*lo)^d
    hi = 2 * lo
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if mid ** d <= top:
            lo = mid
        else:
            hi = mid
    if shift == 0:
        return lo
    # hi << shift overshoots the root by a factor below 1 + 1/(2d), so
    # integer Newton starts in its quadratic phase and decreases onto
    # the floor root (from a power of two it would shrink by only about
    # 1 - 1/d a step)
    x = hi << shift
    while True:
        y = ((d - 1) * x + t // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def _total(points: list[PosRational], ks: list[int]) -> PosRational:
    """The exact sum of the points, each counted ks[i] times, added on
    integers and reduced once: one term per distinct point.

    The common denominator is the least common multiple of the points'
    denominators, which on the dyadic grids of leaf brackets stays near
    the largest of them, instead of their product.
    """
    den = math.lcm(*[p.den for p in points])
    num = 0
    for p, k in zip(points, ks):
        num += k * p.num * (den // p.den)
    return PosRational(num, den)


def _grid_bits(n: int) -> int:
    """The least k with 2^k >= 4n: two steps of the grid 1/2^k cost at most 1/(2n)."""
    return (4 * n - 1).bit_length()


def _grid_below(num: int, den: int, k: int) -> PosRational | None:
    """The largest point of the grid 1/2^k strictly below num/den, if one is positive.

    Within 1/2^k of num/den, which need not be reduced: the point depends
    only on the value.  Cuts are downward closed, so it is a member
    whenever everything below num/den is.
    """
    j = ((num << k) - 1) // den
    return PosRational(j, 1 << k) if j else None


def _grid_above(num: int, den: int, k: int) -> PosRational:
    """The least point of the grid 1/2^k at or above num/den, within 1/2^k of it.

    num/den need not be reduced.  Every rational above a non-member is a
    non-member.
    """
    return PosRational(-(-(num << k) // den), 1 << k)


def _clamp(fine: Bracket, coarse: Bracket) -> Bracket:
    # max of two members is a member, min of two non-members is not,
    # so intersecting certified brackets preserves certification
    lo = fine.lo if coarse.lo < fine.lo else coarse.lo
    hi = fine.hi if fine.hi < coarse.hi else coarse.hi
    return Bracket(lo, hi)


def compare(a: Cut, b: Cut, n: int) -> Comparison:
    """Order certificate at precision 1/n, honest about ties.

    LESS and GREATER are certificates: a non-member of one side sits at
    or below a member of the other, which forces strict containment of
    the segments.  OVERLAP is not a judgement of equality, only that
    brackets of width 1/n could not tell the values apart (they then
    differ by at most 2/n).
    """
    ba = bracket(a, n)
    bb = bracket(b, n)
    if ba.hi <= bb.lo:
        return Comparison.LESS
    if bb.hi <= ba.lo:
        return Comparison.GREATER
    return Comparison.OVERLAP

