"""Seeded input generators for the four benchmark workloads.

Every workload is generated from ``random.Random(seed)`` alone.  Sizes,
digit counts and shapes are drawn so that every prefix of a run has the
same mix (see ``_Even``), so two seeds give different queries with the
same mix of shapes and sizes, and a run that stops a few queries
earlier or later sees the same mix too.

A query is a pair (job, expect).  ``job`` is what the worker runs: an
argv list for the ``reals`` command line, or [held index, digits, last]
for the library workload.  ``expect`` is what the oracle checks the answer
against:

    ("decimal", expr, digits)    eval --digits, or approx.decimal
    ("interval", expr, n)        eval --interval 1/n
    ("compare", a, b, n)         compare --precision 1/n
    ("exit", code)               a syntax, domain or zero-divisor error
    ("deep", expr, digits)       deep nesting: exit 0 with the value, or 2

The deep-nesting inputs are not part of any timed workload.  ``probe``
makes a fixed number of them per seed, which run.py runs after the timed
run and lists on their own, so that the number of them a run sees does
not depend on how many queries it got through.

Divisors are regenerated only when the oracle cannot put them outside
the width the program certifies them at (see ``cert_n``), because the
program's verdict is legitimately open there.  No other filter applies.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import oracle

DEFAULT_BUDGET = 2 ** 64           # the reals command line's default budget
DEFAULT_COMPARE_N = 10 ** 6        # compare's default precision, 1/10^6
REFINE_CERT_N = 10 ** 6            # precision the held inverses are certified at


def cert_n(n: int) -> int:
    """1/cert_n(n) is the width below which a divisor's sign is open.

    A divisor is certified nonzero by brackets of width 1/n, which needs
    |d| > 2/n, and its reciprocal is then bracketed after a separation
    search capped by the precision budget, which needs |d| >= 4/budget.
    """
    return min(n // 2, DEFAULT_BUDGET // 4)


# ---------------------------------------------------------------------------
# expressions and their source text


def num(r) -> tuple:
    return ("num", Fraction(r))


def root(k: int, r) -> tuple:
    return ("root", k, Fraction(r))


_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "num": 4, "root": 4}


def _literal(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def render(e: tuple) -> str:
    """Source text in the reals expression language that parses to e.

    Divisors are always parenthesised, so "a / (3)" stays a division
    instead of being read as the literal a/3.
    """
    op = e[0]
    if op == "num":
        return _literal(e[1])
    if op == "root":
        body = _literal(e[2])
        return f"sqrt({body})" if e[1] == 2 else f"root({e[1]}, {body})"
    if op == "neg":
        return "-" + _wrap(e[1], _PREC["neg"])
    right_prec = 5 if op == "div" else _PREC[op] + 1
    return f"{_wrap(e[1], _PREC[op])} {_SYMBOL[op]} {_wrap(e[2], right_prec)}"


def _wrap(e: tuple, prec: int) -> str:
    text = render(e)
    return f"({text})" if _PREC[e[0]] < prec else text


# ---------------------------------------------------------------------------
# shared pieces


def _rational(rng: random.Random) -> Fraction:
    if rng.random() < 0.3:
        return Fraction(rng.randint(1, 999))
    return Fraction(rng.randint(1, 999), rng.randint(2, 999))


def _radicand(rng: random.Random) -> Fraction:
    if rng.random() < 0.8:
        return Fraction(rng.randint(2, 999))
    return Fraction(rng.randint(1, 999), rng.randint(2, 99))


def _root(rng: random.Random) -> tuple:
    k = 2 if rng.random() < 0.6 else rng.randint(3, 5)
    return root(k, _radicand(rng))


def _leaf(rng: random.Random) -> tuple:
    return num(_rational(rng)) if rng.random() < 0.5 else _root(rng)


def _divide(rng: random.Random, numer: tuple, make_divisor, n: int) -> tuple:
    """numer / d, with d redrawn while its sign is open at precision 1/n."""
    d = make_divisor()
    while oracle.near_zero(d, cert_n(n)):
        d = make_divisor()
    return ("div", numer, d)


def _tree(rng: random.Random, depth: int, n: int) -> tuple:
    """A random expression whose longest operator chain is `depth`."""
    if depth == 0:
        return _leaf(rng)
    op = rng.choice(("add", "sub", "mul", "div"))
    deep = _tree(rng, depth - 1, n)
    other = lambda: _tree(rng, rng.randint(0, depth - 1), n)
    if op == "div":
        e = _divide(rng, deep, other, n) if rng.random() < 0.5 \
            else _divide(rng, other(), lambda: _tree(rng, depth - 1, n), n)
    else:
        e = (op, deep, other()) if rng.random() < 0.5 else (op, other(), deep)
    return ("neg", e) if rng.random() < 0.1 else e


def _radical_inverse(i: int, base: int) -> float:
    r, f = 0.0, 1.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


class _Even:
    """Draws spread evenly over their range in every prefix of a run.

    A van der Corput sequence in `base`, shifted by a seeded offset: the
    seed changes every draw, but not how evenly the queries of a run
    cover the range, so runs that stop at different points stay alike.
    """

    def __init__(self, rng: random.Random, base: int) -> None:
        self.base, self.shift, self.i = base, rng.random(), 0

    def unit(self) -> float:
        self.i += 1
        return (_radical_inverse(self.i, self.base) + self.shift) % 1.0

    def pick(self, lo: int, hi: int) -> int:
        return lo + int(self.unit() * (hi - lo + 1))


def _pick_class(share: _Even, table: tuple) -> tuple:
    """The row of `table` whose share (its last field, in percent)
    covers the next draw of `share`."""
    u, acc = share.unit() * 100, 0
    for row in table:
        acc += row[-1]
        if u < acc:
            return row
    return table[-1]


def _argv(command: str, exprs: list, options: list) -> list:
    """A reals command line; "--" goes first when an expression starts with "-"."""
    if any(text.startswith("-") for text in exprs):
        return [command, *options, "--", *exprs]
    return [command, *exprs, *options]


def _eval(e: tuple, digits: int) -> tuple:
    return _argv("eval", [render(e)], ["--digits", str(digits)]), ("decimal", e, digits)


def _blocks(rng: random.Random, count: int, make_block) -> list:
    queries = []
    for _ in range(count):
        block = make_block()
        rng.shuffle(block)
        queries.extend(block)
    return queries


# ---------------------------------------------------------------------------
# cli_mix: small interactive queries through the command line


def _eval_digits(rng: random.Random, depth: _Even, digits: _Even) -> tuple:
    d = digits.pick(3, 30)
    return _eval(_tree(rng, depth.pick(1, 3), 10 ** (d + 2)), d)


def _eval_interval(rng: random.Random, depth: _Even, digits: _Even) -> tuple:
    n = rng.choice((10, 1000, 10 ** 6, 10 ** 9, 2 ** 40))
    e = _tree(rng, depth.pick(1, 3), n)
    return _argv("eval", [render(e)], ["--interval", f"1/{n}"]), ("interval", e, n)


def _compare(rng: random.Random, depth: _Even, digits: _Even) -> tuple:
    n = rng.choice((None, 10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12))
    m = n or DEFAULT_COMPARE_N
    a = _tree(rng, depth.pick(1, 3), m)
    if rng.random() < 0.25:
        # an equal pair: only "overlap" is a right answer
        p = _radicand(rng)
        a, b = ("mul", root(2, p), root(2, p)), num(p)
    else:
        b = _tree(rng, depth.pick(1, 3), m)
    options = [] if n is None else ["--precision", f"1/{n}"]
    return _argv("compare", [render(a), render(b)], options), ("compare", a, b, m)


_SYNTAX_ERRORS = (
    "{a} +* {b}", "({a}", "{a})", "{a} $ {b}", "foo({p})", "sqrt({p}",
    "root({k} {p})", "{a} + sqrt(-{p})", "root(1, {p}) * {a}", "{a} - sqrt(0)",
    "root(0, {p})", "", "{a} {b}",
)


def _error_exit2(rng: random.Random, depth: _Even, digits: _Even) -> tuple:
    a, b = render(_tree(rng, 1, 10 ** 6)), render(_leaf(rng))
    p = _literal(_radicand(rng))
    if rng.random() < 0.15:
        argv = _argv("eval", [a], [rng.choice(("--interval", "--digits")), "x"])
    else:
        text = rng.choice(_SYNTAX_ERRORS).format(a=a, b=b, p=p, k=rng.randint(2, 5))
        argv = _argv("eval", [text], ["--digits", str(rng.randint(3, 30))])
    return argv, ("exit", 2)


def _zero_divisor(rng: random.Random, depth: _Even, digits: _Even) -> tuple:
    r = _literal(_rational(rng))
    zero = rng.choice(("0", "(0)", f"({r} - {r})"))
    text = f"{render(_tree(rng, 1, 10 ** 6))} / {zero}"
    if rng.random() < 0.25:
        return _argv("compare", [render(_leaf(rng)), text], []), ("exit", 3)
    return _argv("eval", [text], ["--digits", str(rng.randint(3, 30))]), ("exit", 3)


def _deep_nesting(rng: random.Random, depth: _Even, digits: _Even) -> tuple:
    parens = rng.randint(1000, 1500)
    d = digits.pick(3, 30)
    e = _tree(rng, 1, 10 ** (d + 2))
    text = "(" * parens + render(e) + ")" * parens
    return _argv("eval", [text], ["--digits", str(d)]), ("deep", e, d)


# per block of 99: 66 eval --digits, 20 compare, 5 eval --interval,
# 5 syntax or domain errors, 3 syntactic zero divisors
_CLI_MIX_BLOCK = ((_eval_digits, 66), (_compare, 20), (_eval_interval, 5),
                  (_error_exit2, 5), (_zero_divisor, 3))


def cli_mix(rng: random.Random, count: int) -> list:
    # each kind of query draws its depths and digits from its own
    # sequences, so each kind covers their ranges evenly
    draws = [(make, n, _Even(rng, 2), _Even(rng, 3)) for make, n in _CLI_MIX_BLOCK]
    return _blocks(rng, count // 99, lambda: [make(rng, depth, digits)
                                              for make, n, depth, digits in draws
                                              for _ in range(n)])


# ---------------------------------------------------------------------------
# shared_dag: root products, nested divisions, conjugate quotients


# Products, nested divisions and conjugate quotients of one size share
# their shape and root degrees; only the integers in them are drawn.


def _dag_product(rng: random.Random, factors: int) -> tuple:
    degrees = (2, 3, 2, 4, 2, 5)[:factors]
    e = root(degrees[0], rng.randint(2, 999))
    for k in degrees[1:]:
        e = ("mul", e, root(k, rng.randint(2, 999)))
    return e


# The divisors below are sums of positive terms, at least 1, so none is
# ever near zero and none needs redrawing.


def _dag_nested(rng: random.Random, depth: int) -> tuple:
    e = ("add", num(rng.randint(1, 9)), root(2, rng.randint(2, 999)))
    for _ in range(depth - 1):
        e = ("add", num(rng.randint(1, 9)), ("div", num(rng.randint(1, 9)), e))
    return ("div", num(rng.randint(1, 9)), e)


def _dag_conjugate(rng: random.Random) -> tuple:
    a, b = rng.sample(range(2, 1000), 2)
    sa, sb = root(2, a), root(2, b)
    return ("div", ("mul", ("add", sa, sb), ("sub", sa, sb)), ("add", num(1), sa))


# (shape, size, digits, share in percent), in order of median cost on
# the seed code.  The median falls inside the two classes "nested 2 at
# 20 digits" and "product 4 at 12 digits", which cost about the same.
# The costliest class, "product 6 at 12 digits", is the top fifth, so
# the 90th percentile is the median of its queries.  Neither percentile
# jumps when a run ends a few queries earlier or later.
SHARED_DAG_CLASSES = (
    ("product", 3, 20, 10), ("conjugate", 0, 10, 15), ("nested", 2, 20, 20),
    ("product", 4, 12, 15), ("conjugate", 0, 20, 5), ("nested", 3, 12, 5),
    ("product", 5, 12, 3), ("nested", 4, 12, 2), ("nested", 5, 5, 5), ("product", 6, 12, 20),
)


def shared_dag(rng: random.Random, count: int) -> list:
    make = {"product": lambda size: _dag_product(rng, size),
            "nested": lambda size: _dag_nested(rng, size),
            "conjugate": lambda _size: _dag_conjugate(rng)}
    share = _Even(rng, 2)
    queries = []
    for _ in range(count):
        shape, size, digits, _pct = _pick_class(share, SHARED_DAG_CLASSES)
        queries.append(_eval(make[shape](size), digits))
    return queries


# ---------------------------------------------------------------------------
# wide_sum: long flat sums and differences


# (terms, digits, share in percent).  The median falls in the middle of
# the 60-term class and the 90th percentile in the middle of the
# 200-term class, so neither jumps when a run ends a few queries earlier
# or later.  Short sums dominate, so a run still has enough queries for
# a 90th percentile.
WIDE_SUM_CLASSES = ((40, 5, 35), (60, 6, 30), (90, 7, 12), (135, 8, 9), (200, 9, 8), (300, 10, 6))


def wide_sum(rng: random.Random, count: int) -> list:
    share = _Even(rng, 2)
    queries = []
    for _ in range(count):
        terms, digits, _pct = _pick_class(share, WIDE_SUM_CLASSES)
        # half the terms are roots, 3 in 5 of them square roots
        roots = terms // 2
        sqrts = roots * 3 // 5
        kinds = ["num"] * (terms - roots) + ["sqrt"] * sqrts + ["kth"] * (roots - sqrts)
        rng.shuffle(kinds)
        leaves = [num(_rational(rng)) if k == "num"
                  else root(2 if k == "sqrt" else rng.randint(3, 5), _radicand(rng))
                  for k in kinds]
        e = leaves[0]
        for leaf in leaves[1:]:
            e = (rng.choice(("add", "sub")), e, leaf)
        queries.append(_eval(e, digits))
    return queries


# ---------------------------------------------------------------------------
# refine: library use on held reals at a rising ladder of precisions


def _refine_slots(rng: random.Random) -> list:
    """Makers for the eight held reals that are live at any time."""
    sqrt = lambda: root(2, rng.randint(2, 999))
    kth = lambda: root(rng.randint(3, 5), rng.randint(2, 999))
    inverse = lambda: ("div", num(1), ("add", num(1), sqrt()))
    return [sqrt, sqrt, kth, kth, lambda: ("add", sqrt(), kth()),
            lambda: ("mul", sqrt(), kth()), inverse, inverse]


def _refine_widths(rng: random.Random, coarser: _Even, slot: int) -> list:
    """Digits asked of one held real: a rising ladder of eight steps from
    10 to 400, then two widths already asked and one to three coarser new
    ones, as many as the slot number modulo 3 plus one."""
    ladder = [10] + [round(10 * 40 ** (j / 7) * rng.uniform(0.9, 1.1)) for j in range(1, 7)]
    ladder.append(400)
    fresh = []
    while len(fresh) < 1 + slot % 3:
        d = coarser.pick(11, 399)
        if d not in ladder and d not in fresh:
            fresh.append(d)
    revisits = rng.sample(ladder, 2) + fresh
    rng.shuffle(revisits)
    return ladder + revisits


def refine(rng: random.Random, per_slot: int) -> tuple[list, list]:
    """(held expressions, queries); query jobs are [held index, digits, last].

    Eight slots each hold one real at a time and are asked in turn, one
    query per slot per round.  When a slot's real has had all its widths
    it is dropped and the slot takes the next one.  Slots ask 11, 12 or
    13 widths of each real, so they drift out of phase and any stretch
    of a run sees the same mix of fresh, high and repeated precisions.
    """
    held, streams = [], []
    coarser = _Even(rng, 3)
    for slot, make in enumerate(_refine_slots(rng)):
        stream = []
        for _ in range(per_slot):
            e = make()
            widths = _refine_widths(rng, coarser, slot)
            # the third field marks the last query on a held real, after
            # which the worker lets it go
            stream += [([len(held), d, int(j == len(widths) - 1)], ("decimal", e, d))
                       for j, d in enumerate(widths)]
            held.append(e)
        streams.append(stream)
    queries = [s[r] for r in range(max(map(len, streams))) for s in streams if r < len(s)]
    return held, queries


# ---------------------------------------------------------------------------

WORKLOADS = ("cli_mix", "shared_dag", "wide_sum", "refine")
# queries generated per run; a run on the seed code uses about a third
# (cli_mix) to a tenth (refine) of them
POOL = {"cli_mix": 5940, "shared_dag": 1200, "wide_sum": 800}
REFINE_PER_SLOT = 64
DEEP_PROBE = 5      # deep-nesting inputs per cli_mix run, outside the timed loop


def generate(workload: str, seed: int) -> tuple[list, list]:
    """(held expressions, queries) for a workload; held is empty for CLI ones."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "refine":
        return refine(rng, REFINE_PER_SLOT)
    make = {"cli_mix": cli_mix, "shared_dag": shared_dag, "wide_sum": wide_sum}[workload]
    return [], make(rng, POOL[workload])


def probe(workload: str, seed: int) -> list:
    """The deep-nesting queries run after a workload's timed run."""
    if workload != "cli_mix":
        return []
    rng = random.Random(f"{workload}:probe:{seed}")
    depth, digits = _Even(rng, 2), _Even(rng, 3)
    return [_deep_nesting(rng, depth, digits) for _ in range(DEEP_PROBE)]


def to_json(e: tuple):
    """A JSON-able form of an expression, for the worker."""
    if e[0] == "num":
        return ["num", str(e[1])]
    if e[0] == "root":
        return ["root", e[1], str(e[2])]
    return [e[0], *map(to_json, e[1:])]


def digest(jobs: list) -> str:
    return hashlib.sha256(json.dumps(jobs, separators=(",", ":")).encode()).hexdigest()[:16]
