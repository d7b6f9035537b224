"""Expression grammar, evaluation, and the command line contract."""

import argparse
import contextlib
import functools
import io
import os
import random
import re
import subprocess
import sys
import time
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segreals import (
    DomainError,
    ParseError,
    ZeroDivisorAtPrecision,
    cut,
    evaluate,
    exprcli,
    g_embed,
    parse,
    rational_interval,
    real,
    unparse,
)
from segreals.exprcli import (
    MAX_DIGITS,
    MAX_ECHO,
    MAX_NESTING,
    MAX_ROOT_DEGREE,
    Add,
    Div,
    Literal,
    Mul,
    Neg,
    Root,
    Sub,
)

from support import (
    format_scaled,
    fr,
    interval_contains,
    long_int,
    oracle_half_up,
    q,
    root_bounds,
    run_cli,
    sqrt_bounds,
)


def lit(num, den=1):
    return Literal(Fraction(num, den))


_Tok = namedtuple("_Tok", ("kind", "text", "offset"))


def _tokenize_by_characters(text):
    """The tokens of a text, by a loop over characters: (kind, text, offset)
    triples, kind "int", "name", an operator or "end"."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(_Tok("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(_Tok("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/(),":
            tokens.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Tok("end", "", len(text)))
    return tokens


def _int(tok):
    """An "int" token's value; only the interpreter's cap on the digits of
    one conversion can reject it."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                         tok.offset) from None


class _DescentParser:
    """The parser as recursive descent, one method per grammar rule, over the
    tokens of `_tokenize_by_characters`.

    `parse` must agree with it on every text: the same tree, or the same
    exception type, message and offset.  It recurses about four frames
    per level of parentheses, which the loop in `parse` does not.
    """

    LEVELS = (("+", "-"), ("*", "/"))  # operator symbols, loosest first
    BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}

    def __init__(self, text):
        self.tokens = _tokenize_by_characters(text)
        self.pos = 0
        self.depth = 0  # open parentheses and unary minus signs around pos

    def nest(self, tok):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.offset)

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self):
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.offset)
        return self.take()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return e

    def expr(self, level=0):
        if level == len(self.LEVELS):
            return self.factor()
        e = self.expr(level + 1)
        while self.peek().kind in self.LEVELS[level]:
            e = self.BINARY[self.take().kind](e, self.expr(level + 1))
        return e

    def factor(self):
        if self.peek().kind == "-":
            self.nest(self.take())
            e = Neg(self.factor())
            self.depth -= 1
            return e
        return self.primary()

    def primary(self):
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

    def rational(self):
        num = _int(self.expect("int"))
        den = 1
        if self.peek().kind == "/" and self.peek(1).kind == "int" \
                and _int(self.peek(1)) > 0:
            self.take()
            den = _int(self.take())
        return Fraction(num, den)

    def radicand(self):
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

    def root_form(self):
        name = self.take()
        if name.text not in ("sqrt", "root"):
            raise ParseError(f"unknown function {name.text!r}", name.offset)
        self.expect("(")
        degree, deg_tok = 2, name
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


def _outcome(parser, text):
    """The tree `parser` reads from `text`, or its exception's type, message
    and offset."""
    try:
        return parser(text)
    except (ParseError, DomainError) as exc:
        return type(exc), str(exc), exc.offset


def _assert_parsed_as_by_descent(text):
    assert _outcome(parse, text) == _outcome(lambda t: _DescentParser(t).parse(), text)


def _call_with_frames_left(frames, fn, *args):
    """fn(*args), called with `frames` Python frames left below the
    recursion limit."""
    depth, f = 0, sys._getframe()
    while f is not None:
        depth, f = depth + 1, f.f_back

    def dive(k):
        return dive(k - 1) if k else fn(*args)
    # dive's own first frame and fn's frame are on top of the current ones
    return dive(sys.getrecursionlimit() - frames - depth - 2)


def _flat(e):
    """A tree as the list of its nodes in preorder, each as its kind and
    its fields that are not subtrees; listed without recursion, so two
    trees of any depth compare."""
    out, todo = [], [e]
    while todo:
        e = todo.pop()
        fields = [getattr(e, f) for f in e._fields]
        out.append((type(e), [v for v in fields if not isinstance(v, exprcli.Expr)]))
        todo += reversed([v for v in fields if isinstance(v, exprcli.Expr)])
    return out


# pieces of texts for the parser parity test: the grammar's tokens and
# forms, its error cases, an oversized literal, runs of openers and
# closers at and around the nesting limit, leaves with whitespace or
# other scripts' digits inside, zero denominators in other scripts, names
# that start no whole root form and root forms cut short
_PIECES = (
    "0", "1", "7", "12", "2/3", "3/0", "0/4", " ", "+", "-", "*", "/", "(", ")",
    ",", "sqrt", "root", "sqrt(", "root(", "root(3,", "root(0, ", "root(1,",
    f"root({MAX_ROOT_DEGREE},", f"root({MAX_ROOT_DEGREE + 1},",
    "root(10000000000000000000000,",
    "sqrt(2)", "sqrt(-1)", "sqrt(0)", "sqrt(1/0)", "sqrt(-2/3)", "root(4, 5/2)", "log",
    "x", "$", "\u00b2", "7" * 5000, "(" * (MAX_NESTING - 1), "(" * MAX_NESTING,
    "-" * (MAX_NESTING - 1), "-" * MAX_NESTING, "-(" * (MAX_NESTING // 2),
    ")" * (MAX_NESTING // 2), ")" * MAX_NESTING,
    "sqrt ( 2 / 3 )", "root( 3 , 7 / 4 )", "1 /\u3000 2", "\u0663/\u0664", "1/00", "00/1",
    "2sqrt(2)", "root(3/4, 2)", "sqrt(2 ,3)", "1 ) sqrt(-2)",
    "1/\u0660\u0660", "1/\u0660/5", "\u0660/5", "sqrt(2/\u0660)", "1 + root(3/\u0660, 2)",
    "sqrt(sqrt(2))", "xsqrt(2)", "sqrtx(2)", "sqrt2", "root(3, 2) root",
    "sqrt(2/", "root(3", "sqrt(-", "sqrt(0 sqrt(2))",
)
_piece_texts = st.lists(st.sampled_from(_PIECES), max_size=14).map("".join)


# texts over the grammar's own characters and their Unicode look-alikes:
# decimal digits of other scripts, numerals that are not decimal ("²",
# "½", "Ⅻ"), letters, marks, underscores, separators and controls
_token_texts = st.text(st.one_of(
    st.sampled_from("0123456789+-*/(),. _sqrtroot\t\n\u00a0\u3000\u2028"
                    "\u0663\u00b2\u00bd\u216b\u4e00\u00e9\u0301\u00aa"),
    st.characters(categories=("Nd", "Nl", "No", "Lu", "Ll", "Lm", "Lo", "Mn",
                              "Pc", "Zs", "Zl", "Zp", "Cc")),
), max_size=30)


class TestParse:
    def test_rational_literals(self):
        assert parse("2") == lit(2)
        assert parse("3/4") == lit(3, 4)
        assert parse("6/4") == lit(3, 2)  # stored reduced
        assert parse("0") == lit(0)
        assert parse("0/5") == lit(0)

    def test_whitespace_never_matters(self):
        assert parse("1 / 2") == parse("1/2") == lit(1, 2)
        assert parse(" sqrt( 2 ) +  1/3") == parse("sqrt(2)+1/3")

    def test_pinned_tree(self):
        assert parse("sqrt(2) + 1/3") == Add(Root(2, lit(2)), lit(1, 3))

    def test_precedence(self):
        assert parse("1 + 2*3") == Add(lit(1), Mul(lit(2), lit(3)))
        assert parse("2*3 + 1") == Add(Mul(lit(2), lit(3)), lit(1))

    def test_left_associativity(self):
        assert parse("1 - 2 - 3") == Sub(Sub(lit(1), lit(2)), lit(3))
        assert parse("24/2/3") == Div(lit(12), lit(3))

    def test_parentheses(self):
        assert parse("(1 + 2) * 3") == Mul(Add(lit(1), lit(2)), lit(3))
        assert parse("(1)/2") == Div(lit(1), lit(2))

    def test_unary_minus(self):
        assert parse("-2") == Neg(lit(2))
        assert parse("--2") == Neg(Neg(lit(2)))
        assert parse("-sqrt(2)") == Neg(Root(2, lit(2)))
        assert parse("1 - -2") == Sub(lit(1), Neg(lit(2)))

    def test_zero_denominator_stays_a_division(self):
        assert parse("1/0") == Div(lit(1), lit(0))

    def test_root_forms(self):
        assert parse("sqrt(2)") == Root(2, lit(2))
        assert parse("root(3, 5/2)") == Root(3, lit(5, 2))
        assert parse("sqrt(9/4)") == Root(2, lit(9, 4))

    @pytest.mark.parametrize("text,offset", [
        ("1 +", 3),
        ("(1", 2),
        ("1 $ 2", 2),
        ("* 2", 0),
        ("1 2", 2),
        ("sqrt 2", 5),
        ("log(2)", 0),
        ("sqrt(2/3 + 1)", 9),
        ("2\u00b2", 1),  # a superscript digit is not a decimal digit
        ("\u0663 $", 2),  # offsets count characters: "$" is byte 3 in UTF-8
    ])
    def test_syntax_errors_carry_offsets(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("text", [
        "sqrt(-1)", "sqrt(0)", "sqrt(0/3)", "root(1, 2)", "root(0, 2)",
        "sqrt(1/0)", "root(4, -2/3)",
    ])
    def test_domain_errors(self, text):
        with pytest.raises(DomainError):
            parse(text)

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_long_chains_parse_without_recursion(self, op):
        # the operator loop is iterative
        e, depth = parse(op.join(["1"] * 3000)), 0
        while not isinstance(e, Literal):
            e, depth = e.left, depth + 1
        assert depth == 2999

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_root_degree_cap(self):
        assert parse(f"root({MAX_ROOT_DEGREE}, 2)") == Root(MAX_ROOT_DEGREE, lit(2))
        for degree in (MAX_ROOT_DEGREE + 1, 10 ** 20):
            with pytest.raises(DomainError) as exc:
                parse(f"1 + root({degree}, 2)")
            assert exc.value.offset == 9  # the degree token
            assert f"at most {MAX_ROOT_DEGREE}" in str(exc.value)

    @pytest.mark.parametrize("opener", ["(", "-", "-("])
    def test_nesting_limit(self, opener):
        def nested(levels):
            return opener * levels + "1" + ")" * (opener.count("(") * levels)
        assert parse(nested(MAX_NESTING // len(opener)))
        with pytest.raises(ParseError) as exc:
            parse(nested(MAX_NESTING + 1))
        # the offset is that of the first sign or parenthesis past the limit
        assert exc.value.offset == MAX_NESTING

    @given(_token_texts)
    @settings(max_examples=300, deadline=None)
    def test_tokenizer_matches_the_character_loop(self, text):
        # the scan must reject exactly as a loop over str.isspace,
        # str.isdecimal and str.isalpha does, and read what it takes as the
        # descent parser reads the loop's tokens
        try:
            _tokenize_by_characters(text)
        except ParseError as exc:
            assert _outcome(parse, text) == (ParseError, str(exc), exc.offset)
        else:
            _assert_parsed_as_by_descent(text)

    @staticmethod
    def long_sum():
        """3 000 terms, each token followed by a run of tabs, newlines,
        spaces, U+00A0 or U+3000 (or by nothing), over 25 000 characters."""
        rng = random.Random(3000)
        terms = ["1/3", "sqrt(2)", "root(3, 7/4)", "12", "-(5)", "4 * 2", "9/(2)"]
        tokens = []
        for k in range(3000):
            tokens += [*re.findall(r"\d+|[a-z]+|\S", rng.choice(terms)), rng.choice("+-")]
        return "".join(tok + "".join(rng.choices(" \t\n\u00a0\u3000", k=rng.randint(0, 3)))
                       for tok in tokens[:-1])

    def test_tokenizer_matches_the_character_loop_on_long_texts(self):
        # offsets add up over thousands of tokens, and the first error wins
        # however far into the text it comes
        text = self.long_sum()
        assert len(text) > 25_000
        assert _flat(parse(text)) == _flat(_DescentParser(text).parse())
        for tail, bad in [(" @ 1", "@"),  # in a gap
                          (" + sqrt²(2)", "²"),  # a numeral inside a name
                          (" + ab²c $ 1", "²"),  # the numeral comes first
                          (" $ ab²c", "$")]:  # the gap comes first
            with pytest.raises(ParseError) as expected:
                _tokenize_by_characters(text + tail)
            assert _outcome(parse, text + tail) == (ParseError, str(expected.value),
                                                    expected.value.offset)
            assert expected.value.offset == len(text) + tail.index(bad) > 10_000

    @pytest.mark.parametrize("text, offset", [
        ("1 + " + "7" * 5000, 4),
        ("1/" + "7" * 5000, 2),
        ("root(" + "7" * 5000 + ", 2)", 5),
        ("sqrt(2/" + "7" * 5000 + ")", 7),
    ])
    def test_oversized_literal(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == offset
        assert "too long" in str(exc.value)
        assert "set_int_max_str_digits" not in str(exc.value)

    def test_leaf_pattern_classes_are_the_str_predicates(self):
        # the scan and the character loop take the same digits and gaps: on
        # every code point \s is str.isspace and \d str.isdecimal
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
        assert re.findall(r"\d", every) == [c for c in every if c.isdecimal()]

    @given(_piece_texts)
    @settings(max_examples=500, deadline=None)
    def test_parser_matches_recursive_descent(self, text):
        _assert_parsed_as_by_descent(text)

    @pytest.mark.parametrize("text", [
        "(" * MAX_NESTING + "1" + ")" * MAX_NESTING,
        "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1),
        "-" * MAX_NESTING + "1",
        "-" * (MAX_NESTING + 1) + "1",
        "-(" * (MAX_NESTING // 2) + "1" + ")" * (MAX_NESTING // 2),
        "(-" * (MAX_NESTING // 2) + "1" + ")" * (MAX_NESTING // 2),
        "(" * MAX_NESTING + "1" + ")" * (MAX_NESTING - 1),
        "(" * MAX_NESTING + "1" + ")" * (MAX_NESTING + 1),
        "(" * MAX_NESTING + ")",
        "1 + (2 * (3 - -(4 / 5))) / 6 - 7",
        "2 * 3 / 4 * 5 - 6 + 7 / 8 / 9",
        "1/0/0", "1/2/3", "4/5 / 6/7", "- 1/2", "1 - - 2",
        "", " ", ")", "1)", "(1))", "()", "1 (", "1 sqrt(2)", "sqrt(2) 3", "1,2",
        "root(3 2)", "root(,2)", "root(3,)", "sqrt(2", "sqrt(2/)", "sqrt(2/x)",
        "sqrt(-)", "sqrt(- 0)", "sqrt(2/0", "root(0, -1)", "root(5001, 2", "root(1, 0)",
        "1 + " + "7" * 5000, "1/" + "7" * 5000, "7" * 5000 + "/2",
        "root(" + "7" * 5000 + ", 2)", "sqrt(2/" + "7" * 5000 + ")",
        "sqrt(" + "7" * 5000 + "/0)",
        "sqrt ( 2 / 3 )", "root( 3 , 7 / 4 )", "1 /\u3000 2", "\u0663/\u0664", "1/00", "00/1",
        "2sqrt(2)", "root(3/4, 2)", "sqrt(2 ,3)", "1 ) sqrt(-2)",
        "1/\u0660\u0660", "1/\u0660/5", "\u0660/5", "sqrt(2/\u0660)", "1 + root(3/\u0660, 2)",
        "sqrt(sqrt(2))", "xsqrt(2)", "sqrtx(2)", "sqrt2", "root(3, 2) root",
        "sqrt(2/", "root(3", "sqrt(-", "sqrt(0 sqrt(2))",
    ])
    def test_parser_matches_recursive_descent_at_the_edges(self, text):
        _assert_parsed_as_by_descent(text)

    @pytest.mark.parametrize("opener", ["(", "-"])
    def test_deepest_nesting_parses_near_the_recursion_limit(self, opener):
        # parse keeps its own stacks: 40 frames are plenty for the
        # deepest input, where recursive descent needs about 400
        closers = ")" * MAX_NESTING if opener == "(" else ""
        text = opener * MAX_NESTING + "1" + closers
        tree, levels = _call_with_frames_left(40, parse, text), 0
        while isinstance(tree, Neg):
            tree, levels = tree.operand, levels + 1
        assert tree == lit(1)
        assert levels == (MAX_NESTING if opener == "-" else 0)
        with pytest.raises(RecursionError):
            _call_with_frames_left(40, lambda: _DescentParser(text).parse())


# a recursive strategy over syntax trees, for the round-trip law
_literals = st.one_of(
    st.just(lit(0)),
    st.builds(lambda n, d: lit(n, d), st.integers(1, 99), st.integers(1, 99)),
)
_roots = st.builds(Root, st.integers(2, 5),
                   st.builds(lambda n, d: lit(n, d),
                             st.integers(1, 99), st.integers(1, 99)))
_trees = st.recursive(
    st.one_of(_literals, _roots),
    lambda sub: st.one_of(
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub),
        st.builds(Neg, sub),
    ),
    max_leaves=8,
)
# every character str.isspace takes, and so \s in a str pattern
_SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


class TestUnparse:
    @given(_trees)
    @settings(max_examples=150)
    def test_round_trip(self, tree):
        assert parse(unparse(tree)) == tree

    @given(_trees, st.data())
    @settings(max_examples=150, deadline=None)
    def test_spaced_text_is_read_leaf_by_leaf(self, tree, data):
        # any whitespace before, between and after the tokens of a text that
        # parses: the scan takes each root form whole, so the error reader of
        # a name that starts no whole form is never reached
        tokens = re.findall(r"\d+|[a-z]+|\S", unparse(tree))
        gaps = data.draw(st.lists(st.text(st.sampled_from(_SPACES), max_size=3),
                                  min_size=len(tokens) + 1, max_size=len(tokens) + 1))
        text = gaps[0] + "".join(tok + gap for tok, gap in zip(tokens, gaps[1:]))
        with mock.patch.object(exprcli, "_stray_name", side_effect=AssertionError(text)):
            assert parse(text) == tree

    def test_division_survives(self):
        tree = parse("(1)/2")
        assert parse(unparse(tree)) == tree

    def test_long_literal_renders(self):
        assert unparse(lit(10 ** 5000)) == "1" + "0" * 5000
        assert unparse(lit(-1, 10 ** 5000)) == "-1/1" + "0" * 5000

    def test_fixed_corpus_round_trips(self):
        for text in ("sqrt(2) + 1/3", "1 - 2 - 3", "-(2/7) * root(4, 5)",
                     "1/0", "((1 + 2) * 3) / 4"):
            tree = parse(text)
            assert parse(unparse(tree)) == tree

    @pytest.mark.parametrize("text, rendered", [
        ("1/(2)", "1 / (2)"),
        ("(1)/2", "1 / (2)"),
        ("2 / 1/3", "2 / (3)"),
        ("1 - (2 - 3)", "1 - (2 - 3)"),
        ("(1 - 2) - 3", "1 - 2 - 3"),
        ("1 - (2 - 3) + sqrt(2) - -4", "1 - (2 - 3) + root(2, 2) - -4"),
        ("1/2 - 3 * (4 + 5) + -(6 - 7) - 8 / (9 - 1)",
         "1/2 - 3 * (4 + 5) + -(6 - 7) - 8 / (9 - 1)"),
        ("(1 + 2) - (3 + 4 - 5) + (6)", "1 + 2 - (3 + 4 - 5) + 6"),
        ("-1 + 2/3 - root(3, 5/2) * 2 - 0", "-1 + 2/3 - root(3, 5/2) * 2 - 0"),
        ("1 - (2 + (3 - (4 + 5)))", "1 - (2 + (3 - (4 + 5)))"),
        ("-(1 + 2) * 3", "-(1 + 2) * 3"),
        ("-(1 * 2)", "-(1 * 2)"),
        ("(1 + 2) * 3", "(1 + 2) * 3"),
        ("1 + 2 * 3", "1 + 2 * 3"),
        ("2 * (3 / sqrt(4))", "2 * (3 / root(2, 4))"),
        ("2 * (3 / 4)", "2 * 3/4"),
        ("2 * 3/4", "2 * 3/4"),
        ("1/2 / (1/3)", "1/2 / (1/3)"),
        ("sqrt(2) / 2", "root(2, 2) / (2)"),
        ("1 - -2", "1 - -2"),
        ("--2", "- -2"),
        ("-(-(2))", "- -2"),
        ("-sqrt(2) * -root(3, 5/2)", "-root(2, 2) * -root(3, 5/2)"),
        ("1/0", "1 / (0)"),
    ])
    def test_parentheses_only_where_needed(self, text, rendered):
        tree = parse(text)
        assert unparse(tree) == rendered
        assert parse(rendered) == tree

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    @pytest.mark.parametrize("length", [150, 3000])
    def test_long_chains_round_trip(self, op, length):
        # a chain renders without parentheses, so it never reaches the
        # nesting limit, and renders without recursion at any length
        term = "sqrt(2)" if op == "/" else "1"
        tree = parse(op.join([term] * (length + 1)))
        assert _flat(tree)[:length] == [(_DescentParser.BINARY[op], [])] * length
        text = unparse(tree)
        assert text == f" {op} ".join([unparse(parse(term))] * (length + 1))
        assert _flat(parse(text)) == _flat(tree)

    @pytest.mark.parametrize("text", [
        "-" * MAX_NESTING + "1",
        "(" * MAX_NESTING + "1" + ")" * MAX_NESTING,
        "-(" * (MAX_NESTING // 2) + "1 + 2" + ")" * (MAX_NESTING // 2),
        "1" + "-(1" * (MAX_NESTING - 1) + ")" * (MAX_NESTING - 1),
    ])
    def test_deepest_trees_round_trip(self, text):
        tree = parse(text)
        rendered = _call_with_frames_left(40, unparse, tree)
        assert _flat(parse(rendered)) == _flat(tree)

    def test_negations_never_start_with_two_minus_signs(self):
        # a text that starts with "--" would read as an option
        tree = Neg(Neg(lit(3)))
        assert unparse(tree) == "- -3"
        assert run_cli(["eval", unparse(tree), "--digits", "2"]) == (0, "3.00\n", "")

    def test_not_a_tree(self):
        with pytest.raises(TypeError, match="cannot render int"):
            unparse(Add(lit(1), 2))


class TestEvaluate:
    def test_not_a_tree(self):
        with pytest.raises(TypeError, match="cannot evaluate str"):
            evaluate(Neg("1"), 10)

    def test_precision_is_checked_before_a_divisor(self):
        with pytest.raises(ValueError, match="precision denominator must be >= 1, got 0"):
            evaluate(parse("1/0"), 0)

    @pytest.mark.parametrize("text,n,error,message", [
        ("1+1", 0, ValueError, "must be >= 1, got 0"),
        ("sqrt(2)", 2.5, TypeError, "must be an int, got 2.5"),
    ], ids=["zero", "float"])
    def test_precision_is_checked_without_a_divisor(self, text, n, error, message):
        with pytest.raises(error, match=f"^precision denominator {re.escape(message)}$"):
            evaluate(parse(text), n)

    @pytest.mark.parametrize("text", ["1+1", "1/(1/3)"], ids=["plain", "divisor"])
    @pytest.mark.parametrize("budget,error,message", [
        (0, ValueError, "must be >= 1, got 0"),
        ("8", TypeError, "must be an int, got '8'"),
    ], ids=["zero", "str"])
    def test_budget_is_checked_on_entry(self, text, budget, error, message):
        with pytest.raises(error, match=f"^precision budget {re.escape(message)}$"):
            evaluate(parse(text), 10, budget=budget)

    @pytest.mark.parametrize("text,value", [
        ("2", Fraction(2)),
        ("1/3 + 1/6", Fraction(1, 2)),
        ("2 * 3/4", Fraction(3, 2)),
        ("1 - 2/3", Fraction(1, 3)),
        ("-5/2", Fraction(-5, 2)),
        ("3 / 4", Fraction(3, 4)),  # a literal, but same value as division
        ("(3) / (4)", Fraction(3, 4)),
        ("1 / (1/3)", Fraction(3)),
        ("(1 - 2) * (1 - 2)", Fraction(1)),
        ("0 * sqrt(2)", Fraction(0)),
    ])
    def test_rational_values(self, text, value):
        x = evaluate(parse(text), 10 ** 4)
        assert interval_contains(rational_interval(x, 10 ** 4), value)

    def test_sqrt_against_isqrt_oracle(self):
        x = evaluate(parse("sqrt(2)"), 100)
        iv = rational_interval(x, 10 ** 6)
        lo, hi = sqrt_bounds(Fraction(2), 10 ** 7)
        assert fr(iv.lo) <= hi and lo <= fr(iv.hi)

    def test_perfect_square_root(self):
        x = evaluate(parse("sqrt(9/4)"), 100)
        assert interval_contains(rational_interval(x, 10 ** 6), Fraction(3, 2))

    def test_cube_root(self):
        x = evaluate(parse("root(3, 8)"), 100)
        assert interval_contains(rational_interval(x, 10 ** 6), Fraction(2))

    def test_division_by_literal_zero(self):
        with pytest.raises(ZeroDivisorAtPrecision) as exc:
            evaluate(parse("1/0"), 1000)
        assert exc.value.precision == 1000

    def test_division_by_vanishing_difference(self):
        with pytest.raises(ZeroDivisorAtPrecision):
            evaluate(parse("1 / (sqrt(2)*sqrt(2) - 2)"), 10 ** 4)

    def test_hand_built_root_validated(self):
        with pytest.raises(DomainError):
            evaluate(Root(2, lit(0)), 10)
        with pytest.raises(DomainError):
            evaluate(Root(2, lit(-2)), 10)
        with pytest.raises(DomainError):
            evaluate(Root(1, lit(2)), 10)

    @pytest.mark.parametrize("value", [2.5, Decimal("2.5")])
    def test_hand_built_root_takes_no_float(self, value):
        # a radicand is read as `g_embed` reads a literal: no float anywhere
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            evaluate(Root(2, Literal(value)), 10 ** 7)
        with pytest.raises(TypeError):
            evaluate(Literal(value), 10 ** 7)

    def test_hand_built_root_of_an_int(self):
        assert rational_interval(evaluate(Root(3, Literal(2)), 10 ** 6), 10 ** 6) == \
            rational_interval(evaluate(Root(3, lit(2)), 10 ** 6), 10 ** 6)

    def test_hand_built_root_degree_capped(self):
        # the cap is the library's, not only the parser's
        with pytest.raises(DomainError) as exc:
            evaluate(Root(MAX_ROOT_DEGREE + 1, lit(2)), 10)
        assert str(exc.value) == f"root degree must be at most {MAX_ROOT_DEGREE}, " \
            f"got {MAX_ROOT_DEGREE + 1}"
        assert exc.value.offset is None

    @given(_trees)
    @settings(max_examples=25, deadline=None)
    def test_commuted_trees_agree(self, tree):
        def swap(e):
            if isinstance(e, Add):
                return Add(swap(e.right), swap(e.left))
            if isinstance(e, Mul):
                return Mul(swap(e.right), swap(e.left))
            if isinstance(e, Sub):
                return Sub(swap(e.left), swap(e.right))
            if isinstance(e, Div):
                return Div(swap(e.left), swap(e.right))
            if isinstance(e, Neg):
                return Neg(swap(e.operand))
            return e

        n = 1000
        try:
            a = rational_interval(evaluate(tree, n), n)
        except (ZeroDivisorAtPrecision, DomainError):
            return
        b = rational_interval(evaluate(swap(tree), n), n)
        assert not (a.hi < b.lo or b.hi < a.lo)


class TestLiteralValues:
    """The parser keeps a whole literal or radicand as the int it read and
    builds a Fraction only for p/q; one reader, `embed.rational_pair`, takes
    a value apart for `g_embed`, a root and the text."""

    def test_whole_literals_stay_ints(self):
        assert type(parse("3").value) is int and parse("3").value == 3
        assert type(parse("0").value) is int
        assert parse("6/4").value == Fraction(3, 2)
        assert type(parse("6/4").value) is Fraction
        # "/ 0" stays behind as a division of two whole literals
        assert parse("1/0") == Div(Literal(1), Literal(0))
        assert type(parse("1/0").left.value) is int

    def test_whole_radicands_stay_ints(self):
        assert type(parse("sqrt(3)").radicand.value) is int
        assert type(parse("root(5, 12)").radicand.value) is int
        r = parse("root(3, 6/4)").radicand.value
        assert type(r) is Fraction and r == Fraction(3, 2)
        assert parse("sqrt(4/2)").radicand.value == 2

    def test_an_int_literal_is_the_fraction_literal(self):
        for v in (0, 3, -7, 10 ** 30):
            assert Literal(v) == Literal(Fraction(v))
            assert hash(Literal(v)) == hash(Literal(Fraction(v)))
            assert Root(2, Literal(v)) == Root(2, Literal(Fraction(v)))
        assert unparse(parse("3 + 6/4 * sqrt(2)")) == "3 + 3/2 * root(2, 2)"

    @pytest.mark.parametrize("value", [2.5, Decimal("2.5"), "1/2"], ids=repr)
    def test_one_type_error_for_every_reader(self, value):
        with pytest.raises(TypeError) as expected:
            g_embed(value)
        assert repr(value) in str(expected.value)
        for call in (lambda: evaluate(Literal(value), 10),
                     lambda: evaluate(Root(2, Literal(value)), 10),
                     lambda: unparse(Literal(value))):
            with pytest.raises(TypeError) as exc:
                call()
            assert str(exc.value) == str(expected.value)

    def test_node_reprs(self):
        assert repr(Literal(Fraction(3, 2))) == "Literal(value=Fraction(3, 2))"
        assert repr(parse("1 + 2/3")) == \
            "Add(left=Literal(value=1), right=Literal(value=Fraction(2, 3)))"
        assert repr(parse("root(3, 5/7)")) == \
            "Root(degree=3, radicand=Literal(value=Fraction(5, 7)))"
        assert repr(parse("-1")) == "Neg(operand=Literal(value=1))"
        # nodes of another kind never compare equal, even with equal fields
        assert parse("1 + 2") != parse("1 - 2") and parse("1 + 2") != (1, 2)

    def test_deep_trees_compare_hash_and_print(self):
        # equality, hash and repr read a tree from an explicit stack, so a
        # 3 000-term chain needs no recursion at the default limit
        text = "+".join(["1"] * 3000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            tree, same, other = parse(text), parse(text), parse(text[:-1] + "2")
            assert tree == same and hash(tree) == hash(same) and tree != other
            assert repr(tree) == ("Add(left=" * 2999 + "Literal(value=1)"
                                  + ", right=Literal(value=1))" * 2999)
        finally:
            sys.setrecursionlimit(limit)

    def test_a_chain_reads_its_spine_once(self, monkeypatch):
        readings = []
        plain = Add._chain.func

        def counting(self):
            readings.append(self)
            return plain(self)

        cached = functools.cached_property(counting)
        cached.__set_name__(Add, "_chain")
        monkeypatch.setattr(Add, "_chain", cached)
        text = "1 + 2 - root(2, 3) + 4/5"
        e = parse(text)
        # the walk's operands, the sum's signs and the text: one reading
        assert unparse(e) == text
        assert exprcli.approx.decimal(evaluate(e, 10 ** 5), 3) == "2.068"
        assert len(readings) == 1 and readings[0] is e
        # the cached reading is no field: equality, hash and repr are the tree's
        fresh = parse(text)
        assert "_chain" in vars(e) and "_chain" not in vars(fresh)
        assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)


def _chain_of(pairs):
    """The left-associated "+"/"-" chain of (subtracted, term) pairs; the
    first pair's flag is not read."""
    e = pairs[0][1]
    for minus, t in pairs[1:]:
        e = (Sub if minus else Add)(e, t)
    return e


# terms of a chain: literals, 0 and negatives too (a negative Literal only
# a hand-built tree holds), roots, negations, products, quotients and
# parenthesised sub-chains
_chain_leaves = st.one_of(
    st.builds(lambda n, d: lit(n, d), st.integers(-9, 9), st.integers(1, 5)),
    st.builds(Root, st.integers(2, 4),
              st.builds(lambda n, d: lit(n, d), st.integers(1, 9), st.integers(1, 5))),
)
_divisors = _chain_leaves.filter(lambda e: not (isinstance(e, Literal) and e.value == 0))
_chain_terms = st.one_of(
    _chain_leaves,
    st.builds(Neg, _chain_leaves),
    st.builds(Mul, _chain_leaves, _chain_leaves),
    st.builds(Div, _chain_leaves, _divisors),
    st.lists(st.tuples(st.booleans(), _chain_leaves), min_size=2, max_size=3).map(_chain_of),
)


class TestSumChains:
    """A "+"/"-" chain is one step of the walk, and its sum one cut sum per
    component."""

    @given(st.lists(st.tuples(st.booleans(), _chain_terms), min_size=2, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_chain_brackets_as_the_fold_of_add_and_sub(self, pairs):
        # the fold's terms are evaluated apart from the chain's, so neither
        # side's requests reach the other's nodes
        n = 10 ** 6
        chain = evaluate(_chain_of(pairs), n)
        terms = [evaluate(t, n) for _, t in pairs]
        fold = terms[0]
        for (minus, _), x in zip(pairs[1:], terms[1:]):
            fold = (real.sub if minus else real.add)(fold, x)
        assert chain.negative == fold.negative
        assert (chain.magnitude is None) == (fold.magnitude is None)
        for m in (1, 10 ** 6, 2 ** 80):
            for part in ("pos", "neg", "magnitude"):
                a, b = getattr(chain, part), getattr(fold, part)
                if a is not None:
                    ba, bb = cut.bracket(a, m), cut.bracket(b, m)
                    assert (ba.lo, ba.hi) == (bb.lo, bb.hi)

    @pytest.mark.parametrize("k", [2, 3, 40])
    @pytest.mark.parametrize("signs", ["same", "mixed"])
    def test_a_chain_builds_one_sum_per_component(self, monkeypatch, k, signs):
        built = []
        plain_init = cut.Sum.__init__

        def recording(self, *args):
            built.append(self)
            plain_init(self, *args)

        monkeypatch.setattr(cut.Sum, "__init__", recording)
        ops = ["+"] * (k - 1) if signs == "same" else ["-+"[j % 2] for j in range(k - 1)]
        text = "1/2" + "".join(f" {op} {j + 2}/3" for j, op in enumerate(ops))
        x = evaluate(parse(text), 10)
        # terms of one sign also record the sum of their magnitudes
        components = [x.pos, x.neg] + ([x.magnitude] if signs == "same" else [])
        assert built == components
        assert [len(c.terms) for c in built] == [k] * len(components)

    def test_twenty_thousand_terms_at_the_default_recursion_limit(self):
        # evaluating, rendering and printing a chain are iterative, and its
        # text is joined once
        text = "1" + " - 1/3 + 1/3" * 9999 + " - 1/3"
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert unparse(parse(text)) == text
            assert run_cli(["eval", text]) == (0, "0.6666666667\n", "")
        finally:
            sys.setrecursionlimit(limit)


class TestCli:
    def test_digits_output(self):
        assert run_cli(["eval", "sqrt(2)", "--digits", "8"]) == (0, "1.41421356\n", "")

    def test_default_digits(self):
        code, out, err = run_cli(["eval", "2/3"])
        assert (code, err) == (0, "")
        assert out == "0.6666666667\n"  # ten digits by default

    def test_interval_output_is_exact_and_sound(self):
        code, out, err = run_cli(["eval", "2 + 3/4", "--interval", "1/1000"])
        assert code == 0 and err == ""
        body = out.strip()
        assert body.startswith("[") and body.endswith("]")
        lo_s, hi_s = body[1:-1].split(", ")
        lo = Fraction(lo_s) if "/" in lo_s else Fraction(int(lo_s))
        hi = Fraction(hi_s) if "/" in hi_s else Fraction(int(hi_s))
        assert lo <= Fraction(11, 4) <= hi
        assert hi - lo <= Fraction(1, 1000)

    def test_compare_verdicts(self):
        assert run_cli(["compare", "sqrt(2)", "3/2", "--precision", "1/100"]) \
            == (0, "less\n", "")
        assert run_cli(["compare", "3/2", "sqrt(2)", "--precision", "1/100"]) \
            == (0, "greater\n", "")
        assert run_cli(["compare", "sqrt(2)*sqrt(2)", "2",
                        "--precision", "1/1000000"]) == (0, "overlap\n", "")

    def test_syntax_error_exit(self):
        code, out, err = run_cli(["eval", "1 +"])
        assert code == 2 and out == "" and "offset 3" in err

    def test_domain_error_exit(self):
        code, out, err = run_cli(["eval", "sqrt(-1)"])
        assert code == 2 and out == "" and "radicand" in err

    def test_zero_divisor_exit(self):
        code, out, err = run_cli(["eval", "1/0", "--digits", "4"])
        assert code == 3 and out == "" and "zero" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "1/(1/18446744073709551616)", "--digits", "5"],
        ["eval", "1/(1/3)", "--digits", "2", "--budget", "1"],
    ], ids=["tiny-divisor", "budget-1"])
    def test_certified_divisor_out_of_budget_says_so(self, argv):
        # the divisor's sign is certified; only its magnitude's separation
        # ran out of budget, so no hint that the values may be equal
        code, out, err = run_cli(argv)
        assert (code, out) == (3, "")
        assert "may be equal" not in err and "budget" in err
        assert err.startswith("error: the sign is certified") and err.count("\n") == 1

    def test_budget_exhaustion_exit(self):
        code, out, err = run_cli(["eval", "1/(1/3)", "--digits", "2",
                                  "--budget", "1"])
        assert code == 3 and out == ""
        assert "separation" in err or "budget" in err.lower() or "1/" in err

    @pytest.mark.parametrize("depth", [1000, 1500])
    def test_deep_nesting_exit(self, depth):
        code, out, err = run_cli(["eval", "(" * depth + "1" + ")" * depth])
        assert code == 2 and out == ""
        assert "nesting" in err and f"offset {MAX_NESTING}" in err

    def test_moderate_nesting_evaluates(self):
        assert run_cli(["eval", "(" * 50 + "sqrt(2)" + ")" * 50, "--digits", "8"]) \
            == (0, "1.41421356\n", "")
        assert run_cli(["eval", "(1+" * 50 + "1" + ")" * 50, "--digits", "3"]) \
            == (0, "51.000\n", "")

    def test_huge_root_degree_exit(self):
        code, out, err = run_cli(["eval", "root(99999999999999999999, 2)"])
        assert (code, out) == (2, "")
        assert f"at most {MAX_ROOT_DEGREE}" in err and "offset 5" in err

    @pytest.mark.parametrize("degree, radicand, digits", [
        (3000, Fraction(2), 5),
        (MAX_ROOT_DEGREE, Fraction(999, 998), 30),
    ])
    def test_high_root_degrees_in_bounded_time(self, degree, radicand, digits):
        start = time.perf_counter()
        code, out, err = run_cli(["eval", f"root({degree}, {radicand})",
                                  "--digits", str(digits)])
        assert time.perf_counter() - start < 2
        lo, hi = root_bounds(radicand, degree, 10 ** (digits + 4))
        units = oracle_half_up(lo, digits)
        assert units == oracle_half_up(hi, digits), "oracle enclosure crosses a tie"
        assert (code, out, err) == (0, format_scaled(units, digits) + "\n", "")

    def test_oversized_literal_exit(self):
        code, out, err = run_cli(["eval", "1 + " + "7" * 5000])
        assert code == 2 and out == ""
        assert "too long" in err and "offset 4" in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("argv", [
        ["eval", "1/3", "--interval", "1/1" + "0" * 4300],
        ["eval", "1/3", "--interval", "1" + "0" * 4300 + "/3"],
        ["eval", "1/3", "--interval", "-1" + "0" * 4300 + "/3"],
        ["compare", "1", "2", "--precision", "1/1" + "0" * 4300],
    ], ids=["interval", "interval-numerator", "interval-signed", "precision"])
    def test_width_past_the_int_conversion_cap(self, argv):
        # int() takes any run of digits but past the interpreter's cap on one
        # conversion: the message names the digit count, not the argument
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 300
        assert "integer of 4301 digits in the width is too long" in err
        assert "0" * 100 not in err and "expected a width" not in err
        assert run_cli(["eval", "1/3", "--interval", "1/1" + "0" * 4200])[0] == 0

    @pytest.mark.parametrize("argv", [
        ["eval", "1", "--digits", "1" + "0" * 4300],
        ["eval", "1", "--budget", "1" + "0" * 4300],
        ["eval", "1", "--digits", "-1" + "0" * 4300],
        ["compare", "1", "2", "--budget", "1" + "0" * 4300],
    ], ids=["digits", "budget", "negative-digits", "compare-budget"])
    def test_int_option_past_the_int_conversion_cap(self, argv):
        # as for a width: the digit count is named, and the value not echoed
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 300
        assert f"argument {argv[-2]}: integer of 4301 digits is too long" in err
        assert "0" * 100 not in err and "invalid int value" not in err

    @pytest.mark.parametrize("value", ["1" + "0" * 4199, "-1" + "0" * 4199])
    def test_long_digits_out_of_range_are_not_echoed(self, value):
        bound = "at least 1" if value[0] == "-" else f"at most {MAX_DIGITS}"
        assert run_cli(["eval", "1", "--digits", value]) == \
            (2, "", f"error: --digits must be {bound}, got an integer of 4200 digits\n")

    @pytest.mark.parametrize("option", ["--digits", "--budget"])
    def test_int_option_not_an_integer(self, option):
        code, out, err = run_cli(["eval", "1", option, "x"])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: invalid int value: 'x'\n")

    @pytest.mark.parametrize("argv", [
        ["eval", "1", "--interval", "x" * 5000],
        ["eval", "1", "--interval", "1/" + "x" * 5000],
        ["eval", "1", "--digits", "x" * 5000],
        ["eval", "1", "--budget", "1" * 4999 + "x"],
        ["compare", "1", "2", "--precision", "x" * 5000],
    ], ids=["interval", "interval-denominator", "digits", "budget", "precision"])
    def test_long_malformed_option_is_named_by_its_length(self, argv):
        # a text that is no number has no digit count to name, so past
        # MAX_ECHO characters the diagnostic names its length instead
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 300
        assert f"argument {argv[-2]}: " in err
        assert err.endswith(f"got a text of {len(argv[-1])} characters\n") \
            or err.endswith(f"invalid int value: a text of {len(argv[-1])} characters\n")
        assert "x" * 100 not in err and "1" * 100 not in err

    def test_echo_cap_counts_the_repr(self):
        # echoed whole up to MAX_ECHO characters of its repr, quotes included;
        # escapes count, so 30 NUL characters are named by their length
        fits, over = "x" * (MAX_ECHO - 2), "x" * (MAX_ECHO - 1)
        assert run_cli(["eval", "1", "--digits", fits])[2].endswith(
            f"invalid int value: {fits!r}\n")
        assert run_cli(["eval", "1", "--digits", over])[2].endswith(
            f"invalid int value: a text of {MAX_ECHO - 1} characters\n")
        assert run_cli(["eval", "1", "--interval", "\0" * 30])[2].endswith(
            "expected a width like 1/1000000, got a text of 30 characters\n")

    def test_digits_past_the_int_conversion_cap(self):
        assert run_cli(["eval", "1/3", "--digits", "5000"]) \
            == (0, "0." + "3" * 5000 + "\n", "")
        assert run_cli(["eval", "2/3", "--digits", "5000"]) \
            == (0, "0." + "6" * 4999 + "7\n", "")
        code, out, err = run_cli(["eval", "sqrt(2)", "--digits", "4400"])
        assert code == 0 and err == ""
        assert out.startswith("1.41421356") and len(out.strip().split(".")[1]) == 4400
        lo, hi = sqrt_bounds(Fraction(2), 10 ** 4400)
        # correctly rounded: the printed digits are floor or ceil of sqrt(2) * 10^4400
        assert lo * 10 ** 4400 <= long_int(out.strip().replace(".", "")) <= hi * 10 ** 4400

    def test_long_interval_and_diagnostic_endpoints(self):
        big = "9" * 3000
        code, out, err = run_cli(["eval", f"{big}*{big}", "--interval", "1/2"])
        assert code == 0 and err == ""
        lo, hi = (Fraction(*map(long_int, end.split("/")))
                  for end in out.strip()[1:-1].split(", "))
        assert lo <= (10 ** 3000 - 1) ** 2 <= hi and hi - lo <= Fraction(1, 2)
        code, out, err = run_cli(["eval", "1/(1-1)", "--digits", "5000"])
        assert code == 3 and out == "" and "zero" in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_long_product_chain_exits_cleanly(self, command):
        # a product brackets its operands by recursion, so a chain deeper
        # than the interpreter's recursion limit ends in one error line
        chain = "*".join(["1"] * 3000)
        argv = ["eval", chain] if command == "eval" else ["compare", chain, "1"]
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err and "recursion" not in err

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_too_deep_product_chain_prints_one_line(self, command):
        # 1 000 factors take about 2 000 frames of `cut.bracket`, past the
        # default recursion limit, which stays as it is
        chain = "*".join(["1"] * 1000)
        argv = ["eval", chain] if command == "eval" else ["compare", chain, "1"]
        assert run_cli(argv) == (2, "", "error: expression is too deep to evaluate\n")

    @pytest.mark.parametrize("levels, value", [(83, "0.33333"), (MAX_NESTING, "3.00000")])
    def test_nested_inverse_up_to_the_nesting_limit(self, levels, value):
        # each level is one product of two reals of known sign, inverted,
        # so the deepest nesting the parser takes stays within the
        # recursion limit
        text = "1/(" * levels + "3" + ")" * levels
        assert run_cli(["eval", text, "--digits", "5"]) == (0, value + "\n", "")

    @pytest.mark.parametrize("op", ["+", "-"])
    def test_long_flat_chain_evaluates(self, op):
        # evaluating and bracketing a flat sum are iterative
        text = "1" + f" {op} 1" * 2999
        value, order = ("3000.00000", "greater") if op == "+" else ("-2998.00000", "less")
        assert run_cli(["eval", text, "--digits", "5"]) == (0, value + "\n", "")
        assert run_cli(["compare", text, "1"]) == (0, order + "\n", "")

    def test_moderate_flat_chain_evaluates(self):
        assert run_cli(["eval", "+".join(["1"] * 400), "--digits", "3"]) \
            == (0, "400.000\n", "")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_budget_flag_below_one(self, value):
        code, out, err = run_cli(["eval", "1/(1/3)", "--budget", value])
        assert code == 2 and out == ""
        assert "--budget" in err and value in err

    @pytest.mark.parametrize("value", [MAX_DIGITS + 1, 999999999999])
    def test_digits_flag_above_the_cap(self, value):
        # rejected before 10^(digits + 2) is formed, so this ends at once
        assert run_cli(["eval", "1", "--digits", str(value)]) == \
            (2, "", f"error: --digits must be at most {MAX_DIGITS}, got {value}\n")

    def test_unknown_flag_exit(self):
        code, out, err = run_cli(["eval", "2", "--frobnicate"])
        assert code == 2 and out == ""

    def test_missing_command_exit(self):
        code, out, err = run_cli([])
        assert code == 2

    def test_bad_width_argument(self):
        code, out, err = run_cli(["eval", "2", "--interval", "zero"])
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv, separated", [
        (["eval", "-sqrt(2)"], ["eval", "--", "-sqrt(2)"]),
        (["eval", "-5/2", "--interval", "1/10"], ["eval", "--interval", "1/10", "--", "-5/2"]),
        (["eval", "-(-(3))", "--digits", "2"], ["eval", "--digits", "2", "--", "-(-(3))"]),
        (["compare", "-sqrt(2)", "1"], ["compare", "--", "-sqrt(2)", "1"]),
        (["compare", "1", "-sqrt(2)"], ["compare", "--", "1", "-sqrt(2)"]),
    ])
    def test_leading_minus_is_an_expression(self, argv, separated):
        # every option is spelled --name, so "-" starts an expression
        code, out, err = run_cli(argv)
        assert code == 0 and out and err == ""
        assert run_cli(separated) == (code, out, err)

    def test_help_still_an_option(self):
        code, out, err = run_cli(["eval", "-h"])
        assert code == 0 and out.startswith("usage: reals eval") and err == ""

    def test_bad_digits_value(self):
        # rejected before the precision 10^(digits + 2) is computed from it
        for value in ("0", "-3"):
            assert run_cli(["eval", "1/(1-1)", "--digits", value]) == \
                (2, "", f"error: --digits must be at least 1, got {value}\n")


class TestEntryPoint:
    @pytest.mark.parametrize("argv, code, stdout", [
        (["eval", "sqrt(2)", "--digits", "3"], 0, "1.414\n"),
        (["eval", "1 +"], 2, ""),
        (["eval", "1/0"], 3, ""),
    ])
    def test_main_exits_with_the_cli_code(self, monkeypatch, capsys, argv, code, stdout):
        monkeypatch.setattr(sys, "argv", ["reals", *argv])
        with pytest.raises(SystemExit) as exit_:
            exprcli.main()
        assert exit_.value.code == code
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize("argv, code, stdout", [
        (["eval", "sqrt(2)", "--digits", "8"], 0, "1.41421356\n"),
        (["eval", "1/0"], 3, ""),
    ])
    def test_python_m_segreals_runs_reals(self, monkeypatch, tmp_path, argv, code, stdout):
        src = str(Path(exprcli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        env.pop(exprcli.ENV_BUDGET, None)
        done = subprocess.run([sys.executable, "-m", "segreals", *argv], cwd=tmp_path,
                              capture_output=True, text=True, env=env, timeout=120)
        monkeypatch.delenv(exprcli.ENV_BUDGET, raising=False)
        monkeypatch.chdir(tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (code, stdout, run_cli(argv)[2])
        assert done.stderr.count("\n") == (code != 0)


def test_import_leaves_out_dataclasses():
    # nodes, rationals and brackets are plain classes, so the package's
    # import pulls in neither dataclasses nor the inspect module it imports,
    # and its annotations need no typing module (-S: no site hook runs first)
    src = str(Path(exprcli.__file__).resolve().parents[1])
    code = "import sys, segreals; " \
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


class TestClosedPipe:
    @pytest.mark.parametrize("digits", ["3", "10000"])
    def test_closed_pipe_ends_without_a_traceback(self, digits):
        # stdout is block-buffered, so the answer is written when main
        # flushes it (3 digits) or while it is printed (10 000 digits)
        src = str(Path(exprcli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        env.pop("PYTHONUNBUFFERED", None)
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-c", "from segreals.exprcli import main; main()",
                 "eval", "sqrt(2)", "--digits", digits],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr

    @pytest.mark.parametrize("argv", [["eval", "1 +"], ["eval", "1/0"], ["eval"]])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stderr_ends_without_a_traceback(self, argv, unbuffered):
        # the diagnostic cannot be written; an uncaught exception would
        # reach the hook, which reports on stdout, and a failed flush at
        # exit would end the process with 120
        src = str(Path(exprcli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        hook = "import sys; sys.excepthook = lambda *exc: print('Traceback', exc[1])\n"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-c", hook + "from segreals.exprcli import main; main()",
                 *argv],
                stdout=subprocess.PIPE, stderr=write, text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert done.returncode in (1, 2)
        assert done.stdout == ""


class TestCliConfig:
    def test_config_file_sets_digits(self, tmp_path, monkeypatch):
        (tmp_path / "reals.toml").write_text("digits = 3\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["eval", "1/4"]) == (0, "0.250\n", "")

    def test_byte_order_mark_keeps_the_first_setting(self, tmp_path, monkeypatch):
        # an editor's UTF-8 byte-order mark is not part of the first key
        (tmp_path / "reals.toml").write_bytes(b"\xef\xbb\xbfdigits = 3\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["eval", "1/3"]) == (0, "0.333\n", "")

    def test_flag_beats_config(self, tmp_path, monkeypatch):
        (tmp_path / "reals.toml").write_text("digits = 3\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["eval", "1/4", "--digits", "2"]) == (0, "0.25\n", "")

    def test_config_file_sets_budget(self, tmp_path, monkeypatch):
        (tmp_path / "reals.toml").write_text("budget = 1\n# comment\njunk\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["eval", "1/(1/3)", "--digits", "2"])
        assert code == 3 and out == ""

    def test_config_budget_below_one(self, tmp_path, monkeypatch):
        (tmp_path / "reals.toml").write_text("budget = 0\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["eval", "1/(1/3)", "--digits", "2"])
        assert code == 2 and out == "" and "budget in reals.toml" in err

    def test_config_digits_below_one(self, tmp_path, monkeypatch):
        (tmp_path / "reals.toml").write_text("digits = 0\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["eval", "1/3"]) == \
            (2, "", "error: digits in reals.toml must be at least 1, got 0\n")
        # the file's digits are not used by --interval, so they are not checked
        assert run_cli(["eval", "1/3", "--interval", "1/2"])[0] == 0

    def test_config_digits_above_the_cap(self, tmp_path, monkeypatch):
        (tmp_path / "reals.toml").write_text(f"digits = {MAX_DIGITS + 1}\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["eval", "1/3"]) == (2, "", "error: digits in reals.toml "
                                           f"must be at most {MAX_DIGITS}, got {MAX_DIGITS + 1}\n")

    def test_undecodable_config(self, tmp_path, monkeypatch):
        (tmp_path / "reals.toml").write_bytes(b"\xff\xfe")
        monkeypatch.chdir(tmp_path)
        for argv in (["eval", "1/3"], ["compare", "1", "2"]):
            code, out, err = run_cli(argv)
            assert code == 2 and out == ""
            assert err.startswith("error: cannot read reals.toml: ")
            assert err.count("\n") == 1

    def test_env_budget_below_one(self, monkeypatch):
        monkeypatch.setenv("REALS_BUDGET", "0")
        code, out, err = run_cli(["eval", "1/(1/3)", "--digits", "2"])
        assert code == 2 and out == "" and "REALS_BUDGET" in err

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_env_budget_not_an_integer(self, monkeypatch, value):
        # reals.toml skips a malformed line, but a malformed variable is
        # an error rather than a silent fall-through to the file
        monkeypatch.setenv("REALS_BUDGET", value)
        assert run_cli(["eval", "1/(1/3)", "--digits", "2"]) == \
            (2, "", f"error: REALS_BUDGET must be an integer, got {value!r}\n")
        # a --budget flag wins, and the variable is not read
        assert run_cli(["eval", "1/(1/3)", "--digits", "2", "--budget", "1000"])[0] == 0

    def test_long_env_budget_is_named_by_its_length(self, monkeypatch):
        monkeypatch.setenv("REALS_BUDGET", "x" * 5000)
        assert run_cli(["eval", "1/(1/3)", "--digits", "2"]) == \
            (2, "", "error: REALS_BUDGET must be an integer, got a text of 5000 characters\n")

    def test_env_budget_past_the_int_conversion_cap(self, monkeypatch):
        monkeypatch.setenv("REALS_BUDGET", "1" + "0" * 4300)
        assert run_cli(["eval", "1/(1/3)", "--digits", "2"]) == \
            (2, "", "error: REALS_BUDGET: integer of 4301 digits is too long\n")
        monkeypatch.setenv("REALS_BUDGET", "-1" + "0" * 4199)
        assert run_cli(["eval", "1/(1/3)", "--digits", "2"]) == \
            (2, "", "error: REALS_BUDGET must be at least 1, got an integer of 4200 digits\n")

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("REALS_BUDGET", "1")
        code, out, err = run_cli(["eval", "1/(1/3)", "--digits", "2"])
        assert code == 3

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REALS_BUDGET", "1")
        code, out, err = run_cli(["eval", "1/(1/3)", "--digits", "2",
                                  "--budget", "1000000"])
        assert code == 0 and out.strip() == "3.00"

    def test_env_beats_config(self, tmp_path, monkeypatch):
        (tmp_path / "reals.toml").write_text("budget = 1000000\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REALS_BUDGET", "1")
        code, out, err = run_cli(["eval", "1/(1/3)", "--digits", "2"])
        assert code == 3

    def test_each_call_reads_its_inputs(self, tmp_path, monkeypatch):
        # the parser is shared between calls, but reals.toml and the
        # environment are read again by each one
        config = tmp_path / "reals.toml"
        config.write_text("digits = 3\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["eval", "1/3"]) == (0, "0.333\n", "")
        config.write_text("digits = 5\n")
        assert run_cli(["eval", "1/3"]) == (0, "0.33333\n", "")
        monkeypatch.setenv("REALS_BUDGET", "1")
        assert run_cli(["eval", "1/(1/3)"])[0] == 3
        monkeypatch.delenv("REALS_BUDGET")
        assert run_cli(["eval", "1/(1/3)"]) == (0, "3.00000\n", "")


class TestConfigProbe:
    def test_a_directory_named_reals_toml_is_skipped(self, tmp_path, monkeypatch):
        (tmp_path / "reals.toml").mkdir()
        monkeypatch.chdir(tmp_path)
        assert run_cli(["eval", "1/3"]) == (0, "0.3333333333\n", "")

    def test_a_dangling_link_named_reals_toml_is_skipped(self, tmp_path, monkeypatch):
        try:
            (tmp_path / "reals.toml").symlink_to(tmp_path / "gone.toml")
        except OSError:
            pytest.skip("no symbolic links here")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["eval", "1/3"]) == (0, "0.3333333333\n", "")


# argparse errors first, then help, leading minus signs and answers, so a
# parser that kept state from a failed parse would show it
_SHARED_PARSER_ARGVS = [
    ["eval", "1", "--digits", "x"],
    ["eval", "1", "--interval", "zero"],
    ["eval", "1", "--digits", "3", "--interval", "1/10"],
    ["eval", "2", "--frobnicate"],
    [],
    ["eval", "-h"],
    ["compare", "-h"],
    ["eval", "-sqrt(2)"],
    ["eval", "--", "-sqrt(2)"],
    ["eval", "-5/2", "--interval", "1/10"],
    ["eval", "--interval", "1/10", "--", "-5/2"],
    ["eval", "-(-(3))", "--digits", "2"],
    ["eval", "--digits", "2", "--", "-(-(3))"],
    ["compare", "-sqrt(2)", "1"],
    ["compare", "--", "-sqrt(2)", "1"],
    ["compare", "1", "-sqrt(2)"],
    ["compare", "--", "1", "-sqrt(2)"],
    ["eval", "sqrt(2)", "--digits", "8"],
    ["eval", "2 + 3/4", "--interval", "1/100"],
    ["eval", "1/(1/3)", "--budget", "1"],
    ["compare", "sqrt(2)*sqrt(2)", "2", "--precision", "1/1000000"],
    ["compare", "3/2", "sqrt(2)", "--precision", "1/100"],
]


class TestSharedArgparser:
    def test_parser_is_built_once(self, monkeypatch):
        built = 0
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(50):
            assert run_cli(["eval", "1/4", "--digits", "2"]) == (0, "0.25\n", "")
        # the root parser and its two subparsers, when no earlier call built them
        assert built <= 3

    def test_reused_parser_answers_like_a_fresh_one(self, monkeypatch):
        def answers():
            monkeypatch.delenv("COLUMNS", raising=False)
            seen = [run_cli(argv) for argv in _SHARED_PARSER_ARGVS]
            for columns in ("40", "140"):
                # argparse reads the width when it formats, not when it builds
                monkeypatch.setenv("COLUMNS", columns)
                seen.append(run_cli(["eval", "-h"]))
            return seen

        shared = answers()
        monkeypatch.setattr(exprcli, "_build_argparser",
                            exprcli._build_argparser.__wrapped__)
        fresh = answers()
        assert shared == fresh
        assert shared[-2] != shared[-1]
        assert [code for code, _, _ in shared[:5]] == [2] * 5
        assert shared[5][1].startswith("usage: reals eval")


# Lines the command word's own parser reads whole, and lines it leaves an
# argument of, or that start with no command word, which the root parser reads
_ROUTING_ARGVS = _SHARED_PARSER_ARGVS + [
    ["-h"], ["--help"], ["eval"], ["compare"], ["compare", "1"],
    ["eval", "--", "-h"], ["eval", "--", "--digits"], ["eval", "1", "--"],
    ["compare", "1", "--", "-2"], ["eval", "1", "--", "--"],
    ["eval", "1", "--dig", "3"], ["eval", "1", "--h"], ["compare", "1", "2", "--h"],
    ["compare", "1", "2", "--prec", "1/10"], ["eval", "1", "--digits=3"],
    ["eval", "--dig=3", "1"], ["compare", "1", "2", "--precision=1/10"],
    ["eval", "1", "--in", "1/10"], ["eval", "1", "--budget=5"],
    ["eval", "1", "--digits", "-3"], ["eval", "1", "--digits", "3", "--digits", "4"],
    ["eval", "--interval", "1/10", "1", "--digits", "3"], ["eval", "1", "--digits"],
    ["eval", "1", "2"], ["compare", "1", "2", "3"], ["eval", "1", "-x"], ["eval", "-x"],
    ["-x", "eval", "1"], ["--", "eval", "1"], ["--", "compare", "1", "2"],
    ["-h", "eval"], ["eval", "1", "--help"], ["ev", "1"], ["EVAL", "1"], ["1"],
]


def _read_with(read, argv):
    """What reading `argv` gives: the Namespace, or the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = read(argv)
        except SystemExit as exit_:
            return exit_.code, out.getvalue(), err.getvalue()
    assert out.getvalue() == err.getvalue() == ""
    return args


class TestArgumentRouting:
    @pytest.mark.parametrize("argv", _ROUTING_ARGVS, ids=lambda argv: " ".join(argv) or "none")
    def test_routed_read_is_the_root_parsers(self, monkeypatch, argv):
        root = exprcli._build_argparser()[0]
        for columns in ("40", "140"):  # help and usage wrap to $COLUMNS
            monkeypatch.setenv("COLUMNS", columns)
            assert _read_with(exprcli._read_args, argv) == _read_with(root.parse_args, argv)

    @pytest.mark.parametrize("argv", [["eval", "sqrt(2)", "--digits", "8"],
                                      ["eval", "--interval", "1/10", "--", "-5/2"],
                                      ["compare", "1", "2", "--precision", "1/10"]])
    def test_a_well_formed_line_is_read_once(self, monkeypatch, argv):
        # the root parser is not asked, and the command's parser reads once
        root, commands = exprcli._build_argparser()
        reads = []
        monkeypatch.setattr(root, "parse_known_args", lambda *a: reads.append("root"))
        parse_known_args = commands[argv[0]].parse_known_args

        def counted(*args):
            reads.append(argv[0])
            return parse_known_args(*args)

        monkeypatch.setattr(commands[argv[0]], "parse_known_args", counted)
        assert run_cli(argv)[0] == 0
        assert reads == [argv[0]]

    def test_none_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["reals", "eval", "1/4", "--digits", "2"])
        assert run_cli(None) == (0, "0.25\n", "")
        monkeypatch.setattr(sys, "argv", ["reals", "eval", "1", "2"])
        code, out, err = run_cli(None)
        assert (code, out) == (2, "")
        assert err.endswith("reals: error: unrecognized arguments: 2\n")
