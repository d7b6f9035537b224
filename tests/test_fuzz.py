"""Seeded random expressions through the command line and the library.

Trees of bounded depth over rational literals, square and higher roots,
the four operators and unary minus are rendered with `unparse` and run
through `cli_main` at two widths, half of them with `--` before the
expression and half without, so a text starting with `-(` is read as
an expression.  Flat `+`/`-` chains of 3 to 60 leaves, written without
parentheses, and deep chains of 8 to 40 nested divisions, inverses,
products, or products whose factors mix known and unknown signs go
through the same checks.  Every run must end with exit 0, 2 or 3 and at
most one diagnostic line; exit-0 intervals must be as narrow as asked,
agree with the library, intersect each other and contain the exact
value (a Fraction for root-free trees, an enclosure built from the
integer root oracles otherwise).  A few leaves are invalid roots, which
the parser and `evaluate` must reject with the same message.

The sizes are fixed: a failing seed stays failing, so it is reported,
not hidden by a smaller generator.
"""

import operator
import random
from fractions import Fraction

import pytest

from segreals import (
    DomainError,
    ZeroDivisorAtPrecision,
    evaluate,
    parse,
    rational_interval,
    unparse,
)
from segreals.exprcli import MAX_ROOT_DEGREE, Add, Binary, Div, Literal, Mul, Neg, Root, Sub

from support import root_bounds, run_cli

SEEDS = range(24)
TREES_PER_SEED = 20
MAX_DEPTH = 4
CHAIN_SEEDS = range(8)
CHAINS_PER_SEED = 10
DEEP_SEEDS = range(6)
WIDTHS = (10, 1000, 10 ** 6)
# oracle enclosure scales, tried in turn until the value is decided
ORACLE_SCALES = (10 ** 12, 10 ** 40, 10 ** 120)
_FIELD_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
              Div: operator.truediv}


def _positive(rng: random.Random) -> Fraction:
    if rng.random() < 0.5:
        return Fraction(rng.randint(1, 20))
    return Fraction(rng.randint(1, 60), rng.randint(1, 60))


def _leaf(rng: random.Random, valid_below: float = 0.96):
    roll = rng.random()
    if roll < 0.05:
        return Literal(Fraction(0))
    if roll < 0.5:
        return Literal(_positive(rng))
    if roll < valid_below:
        return Root(rng.choice((2, 2, 3, 4, 5)), Literal(_positive(rng)))
    # an invalid root: each argument rule is broken now and then
    return rng.choice((
        Root(rng.choice((0, 1, MAX_ROOT_DEGREE + 1)), Literal(_positive(rng))),
        Root(2, Literal(Fraction(0))),
        Root(3, Literal(-_positive(rng))),
    ))


def _tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng)
    kind = rng.randrange(5)
    if kind == 4:
        return Neg(_tree(rng, depth - 1))
    op = (Add, Sub, Mul, Div)[kind]
    return op(_tree(rng, depth - 1), _tree(rng, depth - 1))


def _chain(rng: random.Random):
    """A left-deep chain of 3 to 60 leaves joined by `+` and `-`, its first
    leaf negated now and then, and its text written without parentheses.
    About one chain in four holds an invalid root."""
    first = _leaf(rng, valid_below=0.995)
    tree, text = first, unparse(first)
    if rng.random() < 0.3:
        tree, text = Neg(first), "-" + text
    for _ in range(rng.randint(2, 59)):
        op = rng.choice((Add, Sub))
        leaf = _leaf(rng, valid_below=0.995)
        tree, text = op(tree, leaf), f"{text} {op.symbol} {unparse(leaf)}"
    return tree, text


def _nonzero_leaf(rng: random.Random):
    """A leaf other than the zero literal, about one in a thousand an
    invalid root."""
    while True:
        e = _leaf(rng, valid_below=0.999)
        if e != Literal(Fraction(0)):
            return e


def _deep(rng: random.Random, kind: str):
    """A right-nested chain of 8 to 40 levels, all of one kind: divisions
    a / (b / (...)), inverses 1 / (1 / (...)) or products a * (b * (...)),
    a level negated now and then.  Zero literals are left out, since one
    anywhere in a chain zeroes it or one of its divisors, and about one
    leaf in a thousand is an invalid root."""
    tree = _nonzero_leaf(rng)
    for _ in range(rng.randint(8, 40)):
        left = Literal(Fraction(1)) if kind == "inv" else _nonzero_leaf(rng)
        tree = (Mul if kind == "mul" else Div)(left, tree)
        if rng.random() < 0.1:
            tree = Neg(tree)
    return tree


def _mixed(rng: random.Random):
    """A right-nested product chain of 8 to 40 levels whose factors are a
    positive literal or a root, whose signs are known, a negated leaf,
    whose sign is known and flipped, or a difference (a - b) of two
    leaves, whose sign is not known."""
    def factor():
        kind = rng.randrange(4)
        if kind == 0:
            return Literal(_positive(rng))
        if kind == 1:
            return Root(rng.choice((2, 2, 3, 4, 5)), Literal(_positive(rng)))
        if kind == 2:
            return Neg(_nonzero_leaf(rng))
        return Sub(_nonzero_leaf(rng), _nonzero_leaf(rng))

    tree = factor()
    for _ in range(rng.randint(8, 40)):
        tree = Mul(factor(), tree)
    return tree


def _roots(e):
    if isinstance(e, Binary):
        return _roots(e.left) + _roots(e.right)
    if isinstance(e, Neg):
        return _roots(e.operand)
    return [e] if isinstance(e, Root) else []


def _valid(root: Root) -> bool:
    return 2 <= root.degree <= MAX_ROOT_DEGREE and root.radicand.value > 0


def _exact(e) -> Fraction:
    """The value of a root-free tree; ZeroDivisionError on a zero divisor."""
    if isinstance(e, Literal):
        return e.value
    if isinstance(e, Neg):
        return -_exact(e.operand)
    return _FIELD_OPS[type(e)](_exact(e.left), _exact(e.right))


def _enclosure(e, scale: int) -> tuple[Fraction, Fraction] | None:
    """lo <= value <= hi by interval arithmetic over the root oracles, or
    None when a divisor's enclosure contains zero."""
    if isinstance(e, Literal):
        return e.value, e.value
    if isinstance(e, Root):
        return root_bounds(e.radicand.value, e.degree, scale)
    if isinstance(e, Neg):
        inner = _enclosure(e.operand, scale)
        return None if inner is None else (-inner[1], -inner[0])
    a, b = _enclosure(e.left, scale), _enclosure(e.right, scale)
    if a is None or b is None:
        return None
    if isinstance(e, Add):
        return a[0] + b[0], a[1] + b[1]
    if isinstance(e, Sub):
        return a[0] - b[1], a[1] - b[0]
    if isinstance(e, Div):
        if b[0] <= 0 <= b[1]:
            return None
        b = (1 / b[1], 1 / b[0])
    products = [x * y for x in a for y in b]
    return min(products), max(products)


def _interval(out: str) -> tuple[Fraction, Fraction]:
    assert out.startswith("[") and out.endswith("]\n"), out
    lo, hi = out[1:-2].split(", ")
    return Fraction(lo), Fraction(hi)


def _argv(text: str, n: int, separate: bool) -> list[str]:
    # cli_main reads a text that starts with "-" as an expression, with
    # or without the "--" separator before it
    return ["eval", "--interval", f"1/{n}"] + ["--"] * separate + [text]


def _check_error_line(out: str, err: str) -> None:
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def _check_invalid(tree, text: str, n: int, separate: bool) -> None:
    with pytest.raises(DomainError) as parsed:
        parse(text)
    assert parsed.value.offset is not None
    code, out, err = run_cli(_argv(text, n, separate))
    assert code == 2
    _check_error_line(out, err)
    assert err == f"error: {parsed.value}\n"
    # evaluate reaches the same root first unless a divisor fails before it
    try:
        evaluate(tree, n)
    except DomainError as exc:
        assert exc.offset is None
        assert str(parsed.value) == f"{exc} (at offset {parsed.value.offset})"
    except ZeroDivisorAtPrecision:
        pass
    else:
        raise AssertionError("an invalid root evaluated")


def _check_valid(tree, text: str, n: int, separate: bool) -> int:
    """Run one valid tree at widths 1/n and 1/(4n); the number of exit-0 runs."""
    assert parse(text) == tree
    answers = []
    for m in (n, 4 * n):
        code, out, err = run_cli(_argv(text, m, separate))
        assert code in (0, 3)
        if code == 3:
            _check_error_line(out, err)
            continue
        assert err == ""
        lo, hi = _interval(out)
        assert hi - lo <= Fraction(1, m)
        assert out == f"{rational_interval(evaluate(tree, m), m)}\n"
        answers.append((lo, hi))
    if len(answers) == 2:
        (lo1, hi1), (lo2, hi2) = answers
        assert max(lo1, lo2) <= min(hi1, hi2)

    if not _roots(tree):
        try:
            value = _exact(tree)
        except ZeroDivisionError:
            assert answers == [], "a zero divisor was certified nonzero"
            return 0
        for lo, hi in answers:
            assert lo <= value <= hi
        return len(answers)
    for lo, hi in answers:
        for scale in ORACLE_SCALES:
            enc = _enclosure(tree, scale)  # None: a divisor too close to zero
            assert enc is None or enc[0] <= hi and lo <= enc[1], "interval misses the value"
            if enc is not None and lo <= enc[0] and enc[1] <= hi:
                break
        else:
            # a rational value may sit on an endpoint; a divisor the oracle
            # cannot tell from zero should not have been certified
            assert enc is not None, "divisor certified nonzero, oracle undecided"
    return len(answers)


def _check_cases(seed: int, kind: str, cases) -> None:
    """Check each (tree, text, n, separate) case; most of them must answer,
    so the interval checks are not vacuous."""
    answered = total = 0
    for i, (tree, text, n, separate) in enumerate(cases):
        where = f"seed {seed}, {kind} {i}: eval {'-- ' * separate}{text!r} --interval 1/{n}"
        try:
            if all(map(_valid, _roots(tree))):
                answered += _check_valid(tree, text, n, separate)
            else:
                _check_invalid(tree, text, n, separate)
        except AssertionError as exc:
            raise AssertionError(f"{where}: {exc}") from exc
        total += 1
    assert answered >= total // 2, f"seed {seed}: {answered} answers"


def _sqrt_half(rng: random.Random, text: str) -> str:
    return text.replace("root(2, ", "sqrt(") if rng.random() < 0.5 else text


@pytest.mark.parametrize("seed", SEEDS)
def test_random_expressions(seed):
    rng = random.Random(seed)
    # which trees get "--" comes from its own generator, so the trees
    # stay those of the same seed without it
    separators = random.Random(-1 - seed)

    def cases():
        for _ in range(TREES_PER_SEED):
            tree = _tree(rng, MAX_DEPTH)
            text = _sqrt_half(rng, unparse(tree))
            yield tree, text, rng.choice(WIDTHS), separators.random() < 0.5

    _check_cases(seed, "tree", cases())


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_flat_chains(seed):
    rng = random.Random(seed)

    def cases():
        for _ in range(CHAINS_PER_SEED):
            tree, text = _chain(rng)
            text = _sqrt_half(rng, text)
            yield tree, text, rng.choice(WIDTHS), rng.random() < 0.5

    _check_cases(seed, "chain", cases())


@pytest.mark.parametrize("seed", DEEP_SEEDS)
def test_deep_chains(seed):
    rng = random.Random(seed)

    def cases():
        for kind in ("div", "inv", "mul", "mixed"):
            tree = _mixed(rng) if kind == "mixed" else _deep(rng, kind)
            text = _sqrt_half(rng, unparse(tree))
            yield tree, text, rng.choice(WIDTHS), rng.random() < 0.5

    _check_cases(seed, "deep chain", cases())
