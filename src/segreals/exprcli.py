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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import approx, cut, real
from .embed import f_embed, g_embed
from .qpos import NonPositiveError, PosRational, int_str
from .real import Real, ZeroAtPrecision

CONFIG_FILE = "reals.toml"
ENV_BUDGET = "REALS_BUDGET"
DEFAULT_DIGITS = 10
DEFAULT_COMPARE_PRECISION = 10 ** 6
# Deepest nesting of parentheses and unary minus signs the parser accepts.
# The parser, and `cut.bracket` through nested products and inverses,
# recurse once or more per level, so this keeps both far inside the
# interpreter's recursion limit.
MAX_NESTING = 100
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
# syntax trees


@dataclass(frozen=True)
class Literal:
    value: Fraction


@dataclass(frozen=True)
class Binary:
    """An infix operator; each subclass names its `symbol` and `combine`."""

    left: Expr
    right: Expr


class Add(Binary):
    symbol, combine = "+", staticmethod(real.add)


class Sub(Binary):
    symbol, combine = "-", staticmethod(real.sub)


class Mul(Binary):
    symbol, combine = "*", staticmethod(real.mul)


class Div(Binary):
    symbol, combine = "/", staticmethod(real.mul)


@dataclass(frozen=True)
class Neg:
    operand: Expr


@dataclass(frozen=True)
class Root:
    degree: int
    radicand: Literal


Expr = Literal | Binary | Neg | Root

_BINARY = {cls.symbol: cls for cls in (Add, Sub, Mul, Div)}
# Operator symbols by precedence level, loosest first: expr, then term.
_LEVELS = (("+", "-"), ("*", "/"))


# ---------------------------------------------------------------------------
# parsing


class _Token(NamedTuple):
    kind: str  # "int", "name", one of "+-*/(),", or "end"
    text: str
    offset: int


# The token at each offset, read by one pattern: a run of whitespace
# (skipped), of decimal digits or of letters, an operator, or any other
# character, which is an error.  On str patterns \s is str.isspace and \d
# is str.isdecimal, character by character, but [^\W\d_] also takes
# numerals that are not letters, such as "²" or "Ⅻ".
_TOKEN = re.compile(r"\s+|(\d+)|([^\W\d_]+)|([-+*/(),])|(.)", re.DOTALL)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        group, word, i = m.lastindex, m.group(), m.start()
        if group == 2 and not word.isalpha():
            # the letters end at the first numeral, which no token takes
            i += next(k for k, c in enumerate(word) if not c.isalpha())
            group, word = 4, text[i]
        if group == 4:
            raise ParseError(f"unexpected character {word!r}", i)
        if group is not None:
            tokens.append(_Token(("int", "name", word)[group - 1], word, i))
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _int(tok: _Token) -> int:
    """The value of an "int" token.

    int() accepts every run of decimal digits, so only the interpreter's
    cap on the digits of one conversion can reject it.
    """
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                         tok.offset) from None


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses and unary minus signs around pos

    def nest(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.offset)

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.offset)
        return self.take()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return e

    def expr(self, level: int = 0) -> Expr:
        """A chain of `_LEVELS[level]` operators over the next level, read
        in a loop (left-associated), so a long chain costs no recursion."""
        if level == len(_LEVELS):
            return self.factor()
        e = self.expr(level + 1)
        while self.peek().kind in _LEVELS[level]:
            e = _BINARY[self.take().kind](e, self.expr(level + 1))
        return e

    def factor(self) -> Expr:
        if self.peek().kind == "-":
            self.nest(self.take())
            e = Neg(self.factor())
            self.depth -= 1
            return e
        return self.primary()

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            return Literal(self.rational())
        if tok.kind == "name":
            return self.root_form()
        if tok.kind == "(":
            self.nest(self.take())
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return e
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.offset)

    def rational(self) -> Fraction:
        num = _int(self.expect("int"))
        den = 1
        # absorb "/ nat" into the literal unless the denominator is the
        # literal 0, which stays behind as a division
        if self.peek().kind == "/" and self.peek(1).kind == "int" \
                and _int(self.peek(1)) > 0:
            self.take()
            den = _int(self.take())
        return Fraction(num, den)

    def radicand(self) -> Literal:
        tok = self.peek()
        negative = False
        if tok.kind == "-":
            self.take()
            negative = True
        start = self.peek()
        if start.kind != "int":
            raise ParseError(
                f"expected a rational literal, found {start.text or 'end of input'!r}",
                start.offset)
        num = _int(self.take())
        den = 1
        if self.peek().kind == "/":
            self.take()
            den = _int(self.expect("int"))
        if negative or num == 0 or den == 0:
            raise DomainError("root radicand must be a positive rational literal",
                              tok.offset)
        return Literal(Fraction(num, den))

    def root_form(self) -> Expr:
        name = self.take()
        if name.text not in ("sqrt", "root"):
            raise ParseError(f"unknown function {name.text!r}", name.offset)
        self.expect("(")
        degree, deg_tok = 2, name  # sqrt's degree always passes the rule
        if name.text == "root":
            deg_tok = self.expect("int")
            degree = _int(deg_tok)
            self.expect(",")
        rad = self.radicand()
        self.expect(")")
        try:
            cut.check_root_degree(degree)
        except cut.BadDegreeError as exc:
            raise DomainError(str(exc), deg_tok.offset) from None
        return Root(degree, rad)


def parse(text: str) -> Expr:
    """Parse an expression; ParseError and DomainError carry byte offsets."""
    return _Parser(text).parse()


def unparse(e: Expr) -> str:
    """Render a tree back to source that reparses to an identical tree.

    Operands are always parenthesised: the literal-absorption rule would
    otherwise fuse a rendered "1 / 2" back into the literal one-half.
    """
    if isinstance(e, Literal):
        v = e.value
        if v.denominator == 1:
            return int_str(v.numerator)
        return f"{int_str(v.numerator)}/{int_str(v.denominator)}"
    if isinstance(e, Neg):
        return f"-({unparse(e.operand)})"
    if isinstance(e, Root):
        return f"root({e.degree}, {unparse(e.radicand)})"
    return f"({unparse(e.left)}) {e.symbol} ({unparse(e.right)})"


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, n: int, budget: int | None = None) -> Real:
    """Evaluate a tree to a signed real, certifying divisors nonzero at 1/n.

    Nodes are evaluated in post-order, operands left to right, as a
    recursive walk would, so the first error met is the same; the walk
    keeps an explicit stack, so a long flat chain costs no recursion.
    """
    todo: list[tuple[Expr, bool]] = [(e, False)]  # (node, operands evaluated)
    values: list[Real] = []
    while todo:
        e, ready = todo.pop()
        if isinstance(e, Binary):
            if not ready:
                todo += ((e, True), (e.right, False), (e.left, False))
                continue
            y = values.pop()
            x = values.pop()
            if isinstance(e, Div):
                try:
                    y = real.inv(y, n, budget)
                except ZeroAtPrecision as exc:
                    raise ZeroDivisorAtPrecision(n) from exc
            values.append(e.combine(x, y))
        elif isinstance(e, Neg):
            if not ready:
                todo += ((e, True), (e.operand, False))
                continue
            values.append(real.neg(values.pop()))
        elif isinstance(e, Literal):
            values.append(g_embed(e.value))
        elif isinstance(e, Root):
            try:
                radicand = PosRational(*e.radicand.value.as_integer_ratio())
                values.append(f_embed(cut.root_cut(e.degree, radicand)))
            except NonPositiveError:
                raise DomainError(
                    "root radicand must be a positive rational literal") from None
            except cut.BadDegreeError as exc:
                raise DomainError(str(exc)) from None
        else:
            raise TypeError(f"cannot evaluate {type(e).__name__}")
    return values.pop()


# ---------------------------------------------------------------------------
# command line


def _parse_width(text: str) -> int:
    """A width argument "1/N" (any p/q accepted) into a denominator n."""
    num, sep, den = text.partition("/")
    try:
        p = int(num)
        q = int(den) if sep else 0
    except ValueError:
        p, q = 0, 0
    if not sep or p < 1 or q < 1:
        raise argparse.ArgumentTypeError(
            f"expected a width like 1/1000000, got {text!r}")
    return -(-q // p)  # ceil(q / p): any interval of width p/q is fine at 1/n


def _load_config() -> dict:
    """Read key = value pairs from reals.toml in the working directory."""
    settings = {}
    path = Path(CONFIG_FILE)
    if not path.is_file():
        return settings
    try:
        text = path.read_text(encoding="utf-8")
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
             default: int | None = None) -> int | None:
    """--key, else $env (when given), else `key` in reals.toml, else default.

    A value below 1 leaves no precision to work at, so it is rejected
    here, naming where it came from, before anything is computed from it;
    so is an environment value that is not an integer.
    """
    value, source = flag, f"--{key}"
    env_value = os.environ.get(env) if env is not None else None
    if value is None and env_value is not None:
        try:
            value, source = int(env_value), env
        except ValueError:
            raise ValueError(f"{env} must be an integer, got {env_value!r}") from None
    if value is None:
        value, source = config.get(key, default), f"{key} in {CONFIG_FILE}"
    if value is not None and value < 1:
        raise ValueError(f"{source} must be at least 1, got {value}")
    return value


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reals",
        description="Exact real arithmetic with certified output.")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate an expression")
    ev.add_argument("expression")
    how = ev.add_mutually_exclusive_group()
    how.add_argument("--digits", type=int, metavar="D",
                     help=f"certified decimal digits (default {DEFAULT_DIGITS})")
    how.add_argument("--interval", type=_parse_width, metavar="1/N",
                     help="print an exact rational interval of width at most 1/N")
    ev.add_argument("--budget", type=int, metavar="B",
                    help="cap on the precision denominator while separating cuts")

    cp = sub.add_parser("compare", help="order two expressions")
    cp.add_argument("expression")
    cp.add_argument("other")
    cp.add_argument("--precision", type=_parse_width, metavar="1/N",
                    help="certification width (default 1/1000000)")
    cp.add_argument("--budget", type=int, metavar="B",
                    help="cap on the precision denominator while separating cuts")
    # Every option but -h is spelled --name, so an argument with one leading
    # "-" is an expression such as -sqrt(2).  argparse has no public switch
    # for that; it passes through as values the arguments its private
    # negative-number pattern matches, so widen that pattern.  It is set
    # after the options are added: a registered option matching it (as -h
    # would) switches the pass-through off.
    for command in (ev, cp):
        command._negative_number_matcher = re.compile(r"^-(?!-)")
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    """Run one `reals` command and return its exit code instead of exiting.

    Every call reads its inputs afresh: `argv`, reals.toml in the working
    directory, $REALS_BUDGET, and `sys.stdout`/`sys.stderr` as they are
    at the call.  The argument parser is built once per process and is
    only read while parsing.
    """
    try:
        args = _build_argparser().parse_args(argv)
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
                print(approx.rational_interval(value, n, budget))
            else:
                digits = _resolve("digits", args.digits, config, default=DEFAULT_DIGITS)
                value = evaluate(expr, 10 ** (digits + 2), budget)
                print(approx.decimal(value, digits, budget))
        else:
            n = args.precision if args.precision is not None \
                else DEFAULT_COMPARE_PRECISION
            left = evaluate(parse(args.expression), n, budget)
            right = evaluate(parse(args.other), n, budget)
            print(real.less_than(left, right, n, budget).value)
        return 0
    except (ParseError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # parsing, evaluating and bracketing a flat sum are iterative, but
        # a product brackets its operands by recursion, so a long "*"
        # chain can still run out
        print("error: expression is too deep to evaluate", file=sys.stderr)
        return 2
    except (ZeroDivisorAtPrecision, ZeroAtPrecision,
            cut.PrecisionBudgetExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
