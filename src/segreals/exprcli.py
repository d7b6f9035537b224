"""Expression language and command line front end.

The language is deliberately tiny: field arithmetic over rational
literals plus k-th roots of positive rational literals.

    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := "-" factor | primary
    primary  := rational
              | "sqrt" "(" radicand ")"
              | "root" "(" nat "," radicand ")"
              | "(" expr ")"
    rational := nat ("/" nat)?      # "/ nat" absorbed only for nat > 0
    radicand := "-"? rational       # sign rejected with DomainError
    nat      := [0-9]+

Parentheses and unary minus signs nest at most MAX_NESTING levels deep;
deeper input is a ParseError at the first sign or parenthesis past the
limit.  A root degree outside 2..MAX_ROOT_DEGREE is a DomainError at
the degree; the rule is `cut.root_cut`'s, so the library holds roots
built without the parser to the same cap.  Whitespace never matters.
"1/2" and "1 / 2" are both the literal one-half; a zero denominator is
the one case where "/" falls through to division, so "1/0" is division
by the literal zero and fails at evaluation time (no nonzero
certificate), not at parse time.

A text is read in one scan: one regular expression takes each rational
literal and each whole root form as one match, and each operator, run of
letters or other character as another, and one precedence loop builds
the tree over those matches, each leaf checked and built into its node
as it is read.  The first error is at the first character outside the
grammar, wherever it comes; in a text without one, at the first match
out of place or the first leaf that fails its check.  A name that starts
no whole root form is always an error, named from the form's pieces.

Exit codes: 0 for any certified answer including "overlap", 2 for
syntax and domain errors, 3 when certification failed (zero divisor or
exhausted precision budget).  Answers go to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from itertools import chain, repeat

from . import approx, cut, real
from .embed import f_embed, g_embed, rational_pair
from .qpos import NonPositiveError, PosRational, Record, int_str
from .real import Real, ZeroAtPrecision

CONFIG_FILE = "reals.toml"
ENV_BUDGET = "REALS_BUDGET"
DEFAULT_DIGITS = 10
# Most digits `eval` prints: it works at 10^-(digits + approx.GUARD_DIGITS), so more is more work
MAX_DIGITS = 200_000
DEFAULT_COMPARE_PRECISION = 10 ** 6
# Deepest nesting of parentheses and unary minus signs the parser accepts.
# Parsing, evaluating and rendering keep explicit stacks, but `cut.bracket`
# recurses once or more per level through nested products and inverses,
# so this keeps it far inside the interpreter's recursion limit.
MAX_NESTING = 100
# Longest echo of a malformed option value in a diagnostic, quotes included
MAX_ECHO = 80
MAX_ROOT_DEGREE = cut.MAX_ROOT_DEGREE


class ParseError(ValueError):
    """Input rejected by the grammar; `offset` is the index of the character
    it happened at, in characters of the text, not bytes of its encoding."""

    def __init__(self, message: str, offset: int) -> None:
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class DomainError(ValueError):
    """Syntactically fine but mathematically out of range (roots only)."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class ZeroDivisorAtPrecision(ArithmeticError):
    """A divisor could not be certified nonzero at the working precision."""

    def __init__(self, precision: int) -> None:
        self.precision = precision
        super().__init__(
            f"divisor not separable from zero at width 1/{int_str(precision)}; "
            f"it may be exactly zero")


# ---------------------------------------------------------------------------
# syntax trees: each node kind lists its `operands` and has two steps, each
# given its operands' results: `_evaluate`, to a Real, and `_render`, to text;
# a node compares, hashes and prints by its `_fields`, down the whole tree
# from an explicit stack, and is immutable by convention


# How tightly each infix operator binds, for the parser and for `unparse`
_PRECEDENCE = {"+": 0, "-": 0, "*": 1, "/": 1}
_TIGHT = 2  # a value or a negation
_BAD_RADICAND = "root radicand must be a positive rational literal"


class _Node(Record):
    """Equality, hash and repr as `Record` gives them, read from an explicit
    stack: a tree of any depth compares, hashes and prints, where recursing
    through its fields would pass the interpreter's recursion limit."""

    def _values(self) -> tuple:
        """Each node's class and fields that are no subtree, in preorder."""
        values, todo = [], [self]
        while todo:
            e = todo.pop()
            fields = [getattr(e, f) for f in e._fields]
            values += (type(e), *[v for v in fields if not isinstance(v, _Node)])
            todo += reversed([v for v in fields if isinstance(v, _Node)])
        return tuple(values)

    def __repr__(self) -> str:
        parts, todo = [], [self]  # on the stack: nodes, and text ready to print
        while todo:
            e = todo.pop()
            if isinstance(e, str):
                parts.append(e)
                continue
            shown = [f"{type(e).__qualname__}("]
            for k, f in enumerate(e._fields):
                v = getattr(e, f)
                shown += [", " * (k > 0) + f"{f}=", v if isinstance(v, _Node) else repr(v)]
            todo += reversed([*shown, ")"])
        return "".join(parts)


class Literal(_Node):
    _fields = ("value",)
    operands, precedence = (), _TIGHT

    def __init__(self, value: Fraction | int) -> None:
        self.value = value  # the parser keeps a whole literal as the int it read

    def _evaluate(self, n: int, budget: int | None) -> Real:
        return g_embed(self.value)

    def _render(self) -> str:
        num, den = rational_pair(self.value)
        return int_str(num) if den == 1 else f"{int_str(num)}/{int_str(den)}"


class Binary(_Node):
    """An infix operator; each subclass names its `symbol` and evaluates
    itself.  A product or a quotient is one step on its two operands'
    results; a "+" or "-" is a `Chain`, one step for all its chain's terms."""

    _fields = ("left", "right")
    operands = property(lambda self: (self.left, self.right))
    precedence = property(lambda self: _PRECEDENCE[self.symbol])

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def _render(self, x: str, y: str) -> str:
        level = self.precedence
        x = f"({x})" if self.left.precedence < level else x
        # left associative: a right operand at this level is parenthesised too
        y = f"({y})" if self.right.precedence <= level else y
        return f"{x} {self.symbol} {y}"


class Chain(Binary):
    """A "+" or "-" and the maximal left-associated chain of them it tops,
    down its left spine.  The links' right operands and the last one's left
    operand are its terms, and the chain is one step on their results, left
    to right, so its inner links get no step; as a "+" or "-" never raises,
    the first error still comes from the same term.  `_chain` reads the spine
    once per node, cached in its __dict__, which ==, hash and repr never read."""

    @functools.cached_property
    def _chain(self) -> tuple[tuple[Expr, ...], tuple[bool, ...]]:
        """The terms, left to right, and for each whether it is subtracted;
        tuples, since every reader of the node shares them."""
        terms, subtracted, e = [], [], self
        while (minus := _SUBTRACTS.get(type(e))) is not None:
            terms.append(e.right)
            subtracted.append(minus)
            e = e.left
        terms.append(e)
        subtracted.append(False)
        return tuple(reversed(terms)), tuple(reversed(subtracted))

    operands = property(lambda self: self._chain[0])

    def _evaluate(self, n: int, budget: int | None, *xs: Real) -> Real:
        return real.add_all(xs, self._chain[1])

    def _render(self, *xs: str) -> str:
        # the text of the left-deep binary nodes: no term binds more loosely
        # than "+", and a later term that is a chain itself is parenthesised
        terms, subtracted = self._chain
        parts = [xs[0]]
        for t, x, minus in zip(terms[1:], xs[1:], subtracted[1:]):
            parts += (" - " if minus else " + ", f"({x})" if t.precedence <= 0 else x)
        return "".join(parts)


class Add(Chain):
    symbol = "+"


class Sub(Chain):
    symbol = "-"


class Mul(Binary):
    symbol = "*"

    def _evaluate(self, n: int, budget: int | None, x: Real, y: Real) -> Real:
        return real.mul(x, y)


class Div(Binary):
    symbol = "/"

    def _evaluate(self, n: int, budget: int | None, x: Real, y: Real) -> Real:
        try:
            y = real.inv(y, n, budget)
        except ZeroAtPrecision as exc:
            raise ZeroDivisorAtPrecision(n) from exc
        return real.mul(x, y)

    def _render(self, x: str, y: str) -> str:
        # after "/" a bare literal would be absorbed into the literal before it
        return super()._render(x, f"({y})" if isinstance(self.right, Literal) else y)


class Neg(_Node):
    _fields = ("operand",)
    operands = property(lambda self: (self.operand,))
    precedence = _TIGHT

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def _evaluate(self, n: int, budget: int | None, x: Real) -> Real:
        return real.neg(x)

    def _render(self, x: str) -> str:
        # its operand is a value or a negation, kept a space apart from this
        # sign: a text starting with "--" reads as an option on the command line
        x = f"({x})" if self.operand.precedence < _TIGHT else x
        return f"- {x}" if x.startswith("-") else f"-{x}"


class Root(_Node):
    _fields = ("degree", "radicand")
    operands, precedence = (), _TIGHT

    def __init__(self, degree: int, radicand: Literal) -> None:
        self.degree = degree
        self.radicand = radicand

    def _evaluate(self, n: int, budget: int | None) -> Real:
        num, den = rational_pair(self.radicand.value)
        try:
            return f_embed(cut.root_cut(self.degree, PosRational(num, den)))
        except NonPositiveError:
            raise DomainError(_BAD_RADICAND) from None
        except cut.BadDegreeError as exc:
            raise DomainError(str(exc)) from None

    def _render(self) -> str:
        return f"root({self.degree}, {self.radicand._render()})"


Expr = Literal | Binary | Neg | Root
_BINARY = {cls.symbol: cls for cls in (Add, Sub, Mul, Div)}
_SUBTRACTS = {Add: False, Sub: True}  # the links of a chain, by exact type


_OPERANDS_DONE = object()  # on `_walk`'s stack: the node two under it has its operands done


def _walk(e: Expr, verb: str, *args: object) -> object:
    """Each node's step `_<verb>(*args, *its operands' results)`, run in the order
    of a recursive post-order walk, operands left to right (so the first error is
    the same), but from an explicit stack; returns the root's result.  A node's
    operands are what it lists: a "+"/"-" chain lists its terms, so its inner
    links are never visited and a chain of k terms is one step, not k - 1."""
    step = "_" + verb  # made once: a string built per node is hashed per lookup
    # nodes to visit; a visited node waits under the marker and the index in
    # `done` where its operands' results will start
    todo: list = [e]
    done: list = []  # results waiting for their node's step
    while todo:
        e = todo.pop()
        if e is _OPERANDS_DONE:
            first, e = todo.pop(), todo.pop()
            done[first:] = [getattr(e, step)(*args, *done[first:])]
        elif not isinstance(e, Expr):
            raise TypeError(f"cannot {verb} {type(e).__name__}")
        elif operands := e.operands:
            todo += (e, len(done), _OPERANDS_DONE, *reversed(operands))
        else:
            done.append(getattr(e, step)(*args))
    return done.pop()


def evaluate(e: Expr, n: int, budget: int | None = None) -> Real:
    """Evaluate a tree to a signed real, certifying divisors nonzero at 1/n.

    n, and then a budget when one is given, are checked first, whether or
    not the tree has a divisor."""
    cut.check_precision(n)
    if budget is not None:
        cut.check_precision(budget, "precision budget")
    return _walk(e, "evaluate", n, budget)


def unparse(e: Expr) -> str:
    """Source that `parse` reads back to the same tree, for every tree it returns.

    Parentheses go only around an operand that binds more loosely than its
    operator, a right operand at its operator's level, and a literal after "/"
    (which would join the literal before it).  A hand-built negative Literal
    reads back as a Neg."""
    return _walk(e, "render")


# ---------------------------------------------------------------------------
# parsing


# One scan of _SCAN reads a text: each match is a whole root form, a
# rational literal, an operator, a run of letters or any other non-space
# character, and `lastindex` names which, as each kind is one outer group.
# Spaces fall between matches.  "/ nat" joins a literal when nat has a digit
# other than "0" ([^\D0]); a run of other scripts' zeros stays a division.
# [^\W\d_] also takes numerals that are not letters, such as "²" or "Ⅻ", so
# a run of letters is a name only when it is all letters.  On str patterns
# \s is str.isspace and \d str.isdecimal, character by character.
_SCAN = re.compile(
    r"((?:sqrt\s*\(|root\s*\(\s*(\d+)\s*,)\s*(-?)\s*(\d+)(?:\s*/\s*(\d+))?\s*\))"
    r"|((\d+)(?:\s*/\s*(\d*[^\D0]\d*))?)"
    r"|([-+*/(),])"
    r"|([^\W\d_]+)"
    r"|(\S)")
_ROOT, _DEGREE, _SIGN, _RAD_NUM, _RAD_DEN, _LITERAL, _NUM, _DEN, _OPERATOR, _NAME, _OTHER \
    = range(1, 12)


def _int(m: re.Match, group: int) -> int:
    """A group of decimal digits as an int.

    int() accepts every run of decimal digits, so only the interpreter's
    cap on the digits of one conversion can reject it.
    """
    try:
        return int(m[group])
    except ValueError:
        raise ParseError(f"integer literal of {len(m[group])} digits is too long",
                         m.start(group)) from None


def _radicand(sign: str, num: int, den: int | None, offset: int) -> Fraction | int:
    """The value of a radicand read as its sign, numerator and denominator;
    a sign or a zero value (p/0 too) is a DomainError at `offset`."""
    value = num if den is None else Fraction(num, den) if den else 0
    if sign or not value:
        raise DomainError(_BAD_RADICAND, offset)
    return value


def _root(m: re.Match) -> Root:
    """The Root of a whole root form's match."""
    degree = _int(m, _DEGREE) if m[_DEGREE] else 2
    num = _int(m, _RAD_NUM)
    den = _int(m, _RAD_DEN) if m[_RAD_DEN] else None
    value = _radicand(m[_SIGN], num, den, m.start(_SIGN))
    try:
        cut.check_root_degree(degree)
    except cut.BadDegreeError as exc:
        raise DomainError(str(exc), m.start(_DEGREE)) from None
    return Root(degree, Literal(value))


def _token(m: re.Match | None) -> str:
    """The text of a match's first token, as a diagnostic names it."""
    if m is None:
        return "end of input"
    return m[_NUM] if m.lastindex == _LITERAL else m[0][:4] if m.lastindex == _ROOT else m[0]


def _expected(what: str, m: re.Match | None, text: str) -> ParseError:
    return ParseError(f"expected {what}, found {_token(m)!r}",
                      len(text) if m is None else m.start())


def _bad_character(matches: list[re.Match]) -> ParseError | None:
    """The error at the first character no token takes among `matches`: any
    other non-space character (never a letter), or a numeral inside a run
    of letters."""
    for m in matches:
        if m.lastindex == _OTHER or m.lastindex == _NAME and not m[0].isalpha():
            k = next(k for k, c in enumerate(m[0]) if not c.isalpha())
            return ParseError(f"unexpected character {m[0][k]!r}", m.start() + k)
    return None


def _stray_name(text: str, matches: list[re.Match]) -> None:
    """Raise the error of a name that starts no whole root form, read from
    its match and the matches after it.  A whole form would have matched as
    one, so a piece of it is missing or out of place, an integer is too long
    or the radicand is out of range, and the degree rule is never reached."""
    name = matches[0]
    if name[0] not in ("sqrt", "root"):
        raise ParseError(f"unknown function {name[0]!r}", name.start())
    pieces = chain(matches[1:], repeat(None))  # None past the end

    def expect(symbol: str) -> None:
        if (m := next(pieces)) is None or m[0] != symbol:
            raise _expected(repr(symbol), m, text)

    def literal(what: str, m: re.Match | None) -> re.Match:
        if m is None or m.lastindex != _LITERAL:
            raise _expected(what, m, text)
        return m

    expect("(")
    if name[0] == "root":
        degree = literal("'int'", next(pieces))
        _int(degree, _NUM)  # the digit cap comes before the ","
        if degree[_DEN]:  # the "/" of a literal p/q stands where the "," should
            raise ParseError("expected ',', found '/'", degree.start() + degree[0].index("/"))
        expect(",")
    sign = next(pieces)
    num = literal("a rational literal", next(pieces) if sign and sign[0] == "-" else sign)
    value = _int(num, _NUM)
    den = _int(num, _DEN) if num[_DEN] else None
    after = next(pieces)
    if den is None and after and after[0] == "/":
        # nat is 0, or the literal would have taken "/ nat": the radicand is refused
        den = _int(literal("'int'", next(pieces)), _NUM)
    _radicand("" if num is sign else "-", value, den, sign.start())
    # the form would have matched whole if a ")" came here
    raise _expected("')'", after, text)


def parse(text: str) -> Expr:
    """Parse an expression; ParseError and DomainError carry character offsets.

    One scan of the text (`_SCAN`) takes each root form and each rational
    literal whole, and one precedence loop over an explicit stack builds the
    tree from its matches, each leaf checked as it is read.  The error is at
    the first character no token takes, wherever it is, and otherwise the
    loop's first, at the match it read.
    """
    scan = _SCAN.finditer(text)
    m = None
    ops: list[str] = []  # pending: infix symbols, "(" and "neg" (a unary minus)
    lefts: list[Expr] = []  # the left operand of each pending infix symbol
    try:
        while True:
            m = next(scan, None)
            kind = m and m.lastindex
            if kind == _LITERAL:
                value = _int(m, _NUM)
                if m[_DEN]:
                    if den := _int(m, _DEN):
                        value = Fraction(value, den)
                    else:  # other scripts' zeros: the "/" is read again as a division
                        scan = _SCAN.finditer(text, m.end(_NUM))
                value = Literal(value)
            elif kind == _ROOT:
                value = _root(m)
            elif kind == _OPERATOR and m[0] in ("-", "("):
                if len(ops) - len(lefts) == MAX_NESTING:  # the "(" and "neg" entries
                    raise ParseError(f"nesting deeper than {MAX_NESTING} levels", m.start())
                ops.append("neg" if m[0] == "-" else "(")
                continue
            elif kind == _NAME:
                scan = [m, *scan]  # the rest, kept for the handler below
                _stray_name(text, scan)
            else:
                raise _expected("a value", m, text)
            while True:  # after a value: close what it completes
                while ops and ops[-1] == "neg":
                    value = Neg(value)
                    ops.pop()
                m = next(scan, None)
                symbol = m[0] if m else ""
                # reduce what binds at least as tightly (left associative); a token
                # that is no infix operator reduces everything up to a parenthesis
                level = _PRECEDENCE.get(symbol, 0)
                while ops and _PRECEDENCE.get(ops[-1], -1) >= level:
                    value = _BINARY[ops.pop()](lefts.pop(), value)
                if symbol in _PRECEDENCE:
                    lefts.append(value)
                    ops.append(symbol)
                    break
                if not ops and m is None:
                    return value
                if not ops:
                    raise ParseError(f"unexpected trailing input {_token(m)!r}", m.start())
                if symbol != ")":  # ops[-1] is the innermost open "("
                    raise _expected("')'", m, text)
                ops.pop()
    except (ParseError, DomainError) as exc:
        # every match before m was read as a token, so the first character no
        # token takes, if any, is in m or after it
        raise _bad_character([m, *scan] if m else ()) or exc from None


# ---------------------------------------------------------------------------
# command line


def _too_long(text: str, where: str = "") -> str | None:
    """The diagnostic for a signed run of digits, which int() refuses only past
    the interpreter's cap on one conversion, as in `_int`: its digit count, not
    its text.  None for any other text."""
    digits = re.fullmatch(r"\s*[-+]?(\d+)\s*", text)
    return digits and f"integer of {len(digits[1])} digits{where} is too long"


def _echo(text: str) -> str:
    """A malformed value as a diagnostic shows it: its repr, as argparse's
    type=int prints it, or past MAX_ECHO characters its length."""
    shown = repr(text)
    return shown if len(shown) <= MAX_ECHO else f"a text of {len(text)} characters"


def _parse_width(text: str) -> int:
    """A width argument "1/N" (any p/q accepted) into a denominator n."""
    num, sep, den = text.partition("/")
    p = None
    try:
        p = int(num)
        q = int(den) if sep else 0
    except ValueError:
        if too_long := _too_long(num if p is None else den, " in the width"):
            raise argparse.ArgumentTypeError(too_long) from None
        p, q = 0, 0
    if not sep or p < 1 or q < 1:
        raise argparse.ArgumentTypeError(
            f"expected a width like 1/1000000, got {_echo(text)}")
    return -(-q // p)  # ceil(q / p): any interval of width p/q is fine at 1/n


def _parse_int(text: str) -> int:
    """An integer option's value, int(text), with argparse's type=int
    diagnostic for any text but a run of digits past the cap (`_too_long`)
    or a text too long to echo (`_echo`)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            _too_long(text) or f"invalid int value: {_echo(text)}") from None


def _load_config() -> dict:
    """Read key = value pairs from reals.toml in the working directory."""
    settings = {}
    if not os.path.isfile(CONFIG_FILE):  # a directory or a dangling link is skipped
        return settings
    try:
        with open(CONFIG_FILE, encoding="utf-8-sig") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {CONFIG_FILE}: {exc}") from None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key in ("digits", "budget"):
            try:
                settings[key] = int(value.strip())
            except ValueError:
                pass  # malformed entries are ignored, not fatal
    return settings


def _resolve(key: str, flag: int | None, config: dict, env: str | None = None,
             default: int | None = None, most: int | None = None) -> int | None:
    """--key, else $env (when given), else `key` in reals.toml, else default.

    A value below 1 leaves no precision to work at, and one above `most`
    too much work, so either is rejected here, naming where it came from,
    before anything is computed from it; so is a non-integer $env value.
    """
    value, source = flag, f"--{key}"
    env_value = os.environ.get(env) if env is not None else None
    if value is None and env_value is not None:
        try:
            value, source = int(env_value), env
        except ValueError:
            too_long = _too_long(env_value)
            raise ValueError(f"{env}: {too_long}" if too_long
                             else f"{env} must be an integer, got {_echo(env_value)}") from None
    if value is None:
        value, source = config.get(key, default), f"{key} in {CONFIG_FILE}"
    if value is not None and (value < 1 or most is not None and value > most):
        bound = "at least 1" if value < 1 else f"at most {most}"
        # a long value is named by its digit count, not echoed
        got = value if abs(value) < 10 ** 20 else f"an integer of {len(int_str(abs(value)))} digits"
        raise ValueError(f"{source} must be {bound}, got {got}")
    return value


@functools.cache
def _build_argparser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser, and the parser of each command word it routes to."""
    parser = argparse.ArgumentParser(
        prog="reals",
        description="Exact real arithmetic with certified output.")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate an expression")
    ev.add_argument("expression")
    how = ev.add_mutually_exclusive_group()
    how.add_argument("--digits", type=_parse_int, metavar="D",
                     help=f"certified decimal digits (default {DEFAULT_DIGITS})")
    how.add_argument("--interval", type=_parse_width, metavar="1/N",
                     help="print an exact rational interval of width at most 1/N")
    ev.add_argument("--budget", type=_parse_int, metavar="B",
                    help="cap on the precision denominator while separating cuts")

    cp = sub.add_parser("compare", help="order two expressions")
    cp.add_argument("expression")
    cp.add_argument("other")
    cp.add_argument("--precision", type=_parse_width, metavar="1/N",
                    default=DEFAULT_COMPARE_PRECISION,
                    help="certification width (default 1/1000000)")
    cp.add_argument("--budget", type=_parse_int, metavar="B",
                    help="cap on the precision denominator while separating cuts")
    # Every option but -h is spelled --name, so an argument with one leading
    # "-" is an expression such as -sqrt(2).  argparse has no public switch
    # for that; it passes through as values the arguments its private
    # negative-number pattern matches, so widen that pattern.  It is set
    # after the options are added: a registered option matching it (as -h
    # would) switches the pass-through off.
    for command in (ev, cp):
        command._negative_number_matcher = re.compile(r"^-(?!-)")
    return parser, {"eval": ev, "compare": cp}


def _read_args(argv: list[str]) -> argparse.Namespace:
    """`argv` read as the root parser reads it, in one pass where it can be.

    The root parser only hands every argument after the command word to
    that command's parser, so the command word picks the parser here.  A
    line that starts with no command word, or leaves an argument over,
    goes to the root parser whole, and argparse prints what `reals` says
    about it.  Like `parse_args`, this exits through SystemExit.
    """
    root, commands = _build_argparser()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return root.parse_args(argv)


def cli_main(argv: list[str] | None = None) -> int:
    """Run one `reals` command and return its exit code instead of exiting.

    Every call reads its inputs afresh: `argv` (`sys.argv[1:]` when it is
    None), reals.toml in the working directory, $REALS_BUDGET, and
    `sys.stdout`/`sys.stderr` as they are at the call.  The argument
    parsers are built once per process and are only read while parsing,
    each line in one pass where `_read_args` can route it.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_args(argv)
    except SystemExit as exit_:  # argparse already printed the diagnostic
        return int(exit_.code or 0)

    try:
        config = _load_config()
        budget = _resolve("budget", args.budget, config, env=ENV_BUDGET)
        if args.command == "eval":
            expr = parse(args.expression)
            if args.interval is not None:
                n = args.interval
                value = evaluate(expr, n, budget)
                print(approx.rational_interval(value, n))
            else:
                digits = _resolve("digits", args.digits, config, default=DEFAULT_DIGITS,
                                  most=MAX_DIGITS)
                value = evaluate(expr, 10 ** (digits + approx.GUARD_DIGITS), budget)
                print(approx.decimal(value, digits))
        else:
            n = args.precision
            left = evaluate(parse(args.expression), n, budget)
            right = evaluate(parse(args.other), n, budget)
            print(real.less_than(left, right, n).value)
        return 0
    except (ParseError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # only `cut.bracket` recurses, through products and inverses, so a
        # long "*" chain can still run out
        print("error: expression is too deep to evaluate", file=sys.stderr)
        return 2
    except (ZeroDivisorAtPrecision, cut.PrecisionBudgetExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = cli_main(sys.argv[1:])
    except BrokenPipeError:
        code = 1
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()  # so that a closed pipe shows here, not at exit
        except BrokenPipeError:  # as the `signal` docs advise for SIGPIPE
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
            code = code or 1
    sys.exit(code)
