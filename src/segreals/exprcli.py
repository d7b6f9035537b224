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

A text is read leaf by leaf: one regular expression takes each rational
literal and each whole root form as one token, checked and built into
its tree node, and each operator as another, and one precedence loop
builds the tree over those tokens.  A text that reading rejects, for a
character outside the grammar, a leaf that fails its check or a token
out of place, is read again token by token (digits, names and
operators, through the same loop), which raises the first error with
its offset.  Both readings give the same tree for every text.

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
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, repeat

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
    """Input rejected by the grammar; `offset` is the byte it happened at."""

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
# a node compares, hashes and prints by its `_fields`, and is immutable by
# convention


# How tightly each infix operator binds, for the parser and for `unparse`
_PRECEDENCE = {"+": 0, "-": 0, "*": 1, "/": 1}
_TIGHT = 2  # a value or a negation
_BAD_RADICAND = "root radicand must be a positive rational literal"


class Literal(Record):
    _fields = ("value",)
    operands, precedence = (), _TIGHT

    def __init__(self, value: Fraction | int) -> None:
        self.value = value  # the parser keeps a whole literal as the int it read

    def _evaluate(self, n: int, budget: int | None) -> Real:
        return g_embed(self.value)

    def _render(self) -> str:
        num, den = rational_pair(self.value)
        return int_str(num) if den == 1 else f"{int_str(num)}/{int_str(den)}"


class Binary(Record):
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


class Neg(Record):
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


class Root(Record):
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


# kind is "int", "name", one of "+-*/(),", "end", or "leaf": a whole rational
# literal or root form, read by `_read_leaves`, whose text is the Literal or
# Root it reads as and whose offset is None
_Token = namedtuple("_Token", ("kind", "text", "offset"))


# A text is first read leaf by leaf: one split on _LEAF takes each root form
# and each rational literal whole, and each operator alone, so the parts are
# gap, 7 groups, gap, ..., 7 groups, gap, and every gap must be whitespace.
# "/ nat" joins a literal when nat has a digit other than "0" ([^\D0]); as
# `_literal` absorbs it only when its value is nonzero, a run of other
# scripts' zeros sends the text to the token-level reading.  A "," or a
# letter outside a whole root form is left in a gap.
_LEAF = re.compile(
    r"(?:sqrt\s*\(|root\s*\(\s*(\d+)\s*,)\s*(-?)\s*(\d+)(?:\s*/\s*(\d+))?\s*\)"
    r"|(\d+)(?:\s*/\s*(\d*[^\D0]\d*))?"
    r"|([-+*/()])")
_OPERATOR_TOKENS = {c: _Token(c, c, None) for c in "+-*/()"}
_END = _Token("end", "", None)


def _read_leaves(text: str) -> list[_Token] | None:
    """The text as "leaf" and operator tokens, each leaf checked as `_literal`
    and `_root_form` check it, and an "end"; None when a gap is not
    whitespace or a leaf fails a check."""
    parts = _LEAF.split(text)
    gaps = "".join(parts[::8])
    if gaps and not gaps.isspace():
        return None
    tokens = []
    try:
        for degree, sign, rad_num, rad_den, num, den, op, _ in zip(*[iter(parts[1:])] * 8):
            if op:
                tokens.append(_OPERATOR_TOKENS[op])
                continue
            if num:
                leaf = Literal(Fraction(int(num), int(den)) if den else int(num))
            else:
                value = Fraction(int(rad_num), int(rad_den)) if rad_den else int(rad_num)
                if sign or not value:
                    return None
                degree = int(degree) if degree else 2
                cut.check_root_degree(degree)
                leaf = Root(degree, Literal(value))
            tokens.append(tuple.__new__(_Token, ("leaf", leaf, None)))  # no Python-level call
    except (ValueError, ZeroDivisionError):  # past int()'s digit cap, p/0, a bad degree
        return None
    tokens.append(_END)
    return tokens


# A token is a run of decimal digits, a run of letters or an operator, and
# one split on them reads the whole text: the parts alternate gap, token,
# gap, ..., token, gap, and every gap must be whitespace.  On str patterns
# \d is str.isdecimal, character by character, but [^\W\d_] also takes
# numerals that are not letters, such as "²" or "Ⅻ", so a run it takes is
# a name only when it is all letters.
_TOKEN = re.compile(r"(\d+|[^\W\d_]+|[-+*/(),])")
_OPERATORS = {c: c for c in "+-*/(),"}  # an operator's kind is its text


def _tokenize(text: str) -> list[_Token]:
    parts = _TOKEN.split(text)
    words = parts[1::2]
    # None marks a run of letters and numerals
    kinds = [_OPERATORS.get(w) or ("int" if w.isdecimal() else "name" if w.isalpha() else None)
             for w in words]
    gaps = "".join(parts[::2])
    if gaps and not gaps.isspace() or None in kinds:
        raise _first_error(parts)
    kinds.append("end")
    words.append("")
    # a token starts where the gap before it ends, and "end" where the last gap does
    starts = list(accumulate(map(len, parts)))[::2]
    # tuple.__new__ makes each _Token from its fields with no Python-level call
    return list(map(tuple.__new__, repeat(_Token), zip(kinds, words, starts)))


def _first_error(parts: list[str]) -> ParseError:
    """The error at the first character no token takes, in the parts of a
    rejected text: a gap's first non-space, or a run's first non-letter
    when it is no number or operator (the letters end at a numeral)."""
    at = 0
    for i, part in enumerate(parts):
        if i % 2 == 0 or not (part in _OPERATORS or part.isdecimal()):
            ok = str.isalpha if i % 2 else str.isspace
            for k, c in enumerate(part):
                if not ok(c):
                    return ParseError(f"unexpected character {c!r}", at + k)
        at += len(part)
    raise AssertionError("no character of the text is rejected")


def _int(tok: _Token, what: str | None = None) -> int:
    """The value of a token that must be an "int", as `_expect` checks it.

    int() accepts every run of decimal digits, so only the interpreter's
    cap on the digits of one conversion can reject it.
    """
    if tok.kind != "int":
        _expect(tok, "int", what)
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                         tok.offset) from None


def _expect(tok: _Token, kind: str, what: str | None = None) -> _Token:
    if tok.kind != kind:
        raise ParseError(f"expected {what or repr(kind)}, "
                         f"found {tok.text or 'end of input'!r}", tok.offset)
    return tok


def _literal(tokens: list[_Token], i: int) -> tuple[Literal, int]:
    """The rational literal at tokens[i], and the index after it."""
    num = _int(tokens[i], "a value")
    # "/ nat" joins the literal unless nat is 0, which stays behind as a division
    if tokens[i + 1].kind == "/" and tokens[i + 2].kind == "int" \
            and (den := _int(tokens[i + 2])) > 0:
        return Literal(Fraction(num, den)), i + 3
    return Literal(num), i + 1


def _root_form(tokens: list[_Token], i: int) -> tuple[Root, int]:
    """The `sqrt(...)` or `root(...)` at tokens[i], and the index after it."""
    name = tokens[i]
    if name.text not in ("sqrt", "root"):
        raise ParseError(f"unknown function {name.text!r}", name.offset)
    _expect(tokens[i + 1], "(")
    i += 2
    degree, deg_tok = 2, name  # sqrt's degree always passes the rule
    if name.text == "root":
        degree = _int(deg_tok := tokens[i])
        _expect(tokens[i + 1], ",")
        i += 2
    sign = tokens[i]  # the radicand's first token
    i += sign.kind == "-"
    value = _int(tokens[i], "a rational literal")
    if tokens[i + 1].kind == "/":
        value = Fraction(value, den) if (den := _int(tokens[i + 2])) else 0  # p/0: no radicand
        i += 2
    if sign.kind == "-" or value == 0:
        raise DomainError(_BAD_RADICAND, sign.offset)
    _expect(tokens[i + 1], ")")
    try:
        cut.check_root_degree(degree)
    except cut.BadDegreeError as exc:
        raise DomainError(str(exc), deg_tok.offset) from None
    return Root(degree, Literal(value)), i + 2


def parse(text: str) -> Expr:
    """Parse an expression; ParseError and DomainError carry byte offsets.

    The text is read leaf by leaf (`_read_leaves`), and read again token by
    token (`_tokenize`) only when that reading rejects it, so that the
    first error and its offset are the token-level reading's.
    """
    tokens = _read_leaves(text)
    if tokens is not None:
        try:
            return _read_tree(tokens)
        except ParseError:
            pass
    return _read_tree(_tokenize(text))


def _read_tree(tokens: list[_Token]) -> Expr:
    """The tree of a token list, "leaf" tokens or the tokenizer's, by one
    precedence loop over an explicit stack."""
    i = 0
    ops: list[str] = []  # pending: infix symbols, "(" and "neg" (a unary minus)
    lefts: list[Expr] = []  # the left operand of each pending infix symbol
    while True:
        tok = tokens[i]
        if tok.kind in ("-", "("):
            if len(ops) - len(lefts) == MAX_NESTING:  # the "(" and "neg" entries
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.offset)
            ops.append("neg" if tok.kind == "-" else "(")
            i += 1
            continue
        if tok.kind == "leaf":
            value, i = tok.text, i + 1
        else:
            value, i = (_root_form if tok.kind == "name" else _literal)(tokens, i)
        while True:  # after a value: close what it completes
            while ops and ops[-1] == "neg":
                value = Neg(value)
                ops.pop()
            tok = tokens[i]
            # reduce what binds at least as tightly (left associative); a token
            # that is no infix operator reduces everything up to a parenthesis
            level = _PRECEDENCE.get(tok.kind, 0)
            while ops and _PRECEDENCE.get(ops[-1], -1) >= level:
                value = _BINARY[ops.pop()](lefts.pop(), value)
            if tok.kind in _PRECEDENCE:
                lefts.append(value)
                ops.append(tok.kind)
                i += 1
                break
            if not ops and tok.kind != "end":
                raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
            if not ops:
                return value
            _expect(tok, ")")  # ops[-1] is the innermost open "("
            ops.pop()
            i += 1


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
