"""Exact real arithmetic over initial segments of the positive rationals.

Positive reals are cuts: downward closed sets of positive rationals
with no maximum, represented as expression trees and observed only
through certified brackets.  Signed reals are formal differences of two
cuts.  Every query (sign, order, decimal rendering) states the
precision it was asked at and never claims more than the brackets show.
"""

from .qpos import (
    ONE,
    NonPositiveError,
    NotGreaterError,
    PosRational,
)
from .cut import (
    DEFAULT_BUDGET,
    BadDegreeError,
    Bracket,
    Comparison,
    Cut,
    EmptyFamilyError,
    NotALeafError,
    NotAMemberError,
    PrecisionBudgetExhausted,
    bracket,
    compare,
    difference,
    inverse,
    membership_leaf,
    next_member_above,
    oracle_cut,
    root_cut,
    s_r,
    sup_finite,
)
from .real import (
    IndistinguishableFromZero,
    Indeterminate,
    Negative,
    Positive,
    Real,
    SignVerdict,
    ZeroAtPrecision,
    canonicalize,
    from_pair,
    inv,
    less_than,
    sign,
    zero,
)
from .embed import SignedRational, f_embed, g_embed, phi
from .approx import SignedInterval, decimal, rational_interval
from .exprcli import (
    DomainError,
    ParseError,
    ZeroDivisorAtPrecision,
    cli_main,
    evaluate,
    parse,
    unparse,
)

__version__ = "0.1.0"
