"""The acceptance gate: one test per advertised guarantee.

Every expected value is recomputed here from an independent oracle
(integer k-th roots by bisection, Fraction arithmetic, a rounding rule
applied to exact enclosures) before being compared.  Run with -s to see
one verdict line per criterion.
"""

from __future__ import annotations

import contextlib
import math
import random
import time
from fractions import Fraction

import pytest

from segreals import (
    Comparison,
    IndistinguishableFromZero,
    PrecisionBudgetExhausted,
    bracket,
    compare,
    difference,
    evaluate,
    f_embed,
    g_embed,
    inverse,
    next_member_above,
    parse,
    phi,
    rational_interval,
    root_cut,
    s_r,
    sup_finite,
)
from segreals import cut, real

from support import (
    brackets_overlap,
    format_scaled,
    fr,
    interval_contains,
    leaf_member_oracle,
    oracle_decimal,
    oracle_half_up,
    q,
    random_leaf,
    random_posrational,
    random_rational_leaf,
    run_cli,
    sqrt_bounds,
    straddles,
)


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL  {label}")
        raise
    print(f"criterion {num:02d} PASS  {label}")


# ---------------------------------------------------------------------------
# oracles local to this gate


def _iroot(degree: int, n: int) -> int:
    """floor(n ** (1/degree)) by integer bisection; no float anywhere."""
    lo, hi = 0, 1
    while hi ** degree <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** degree <= n:
            lo = mid
        else:
            hi = mid
    assert lo ** degree <= n < (lo + 1) ** degree
    return lo


def oracle_root_decimal(value: Fraction, degree: int, digits: int) -> str:
    """Rounded decimal of value**(1/degree) from an exact integer enclosure."""
    scale = 10 ** (digits + 3)
    m = _iroot(degree, value.numerator * scale ** degree // value.denominator)
    lo, hi = Fraction(m, scale), Fraction(m + 1, scale)
    assert lo ** degree <= value < hi ** degree
    a, b = oracle_half_up(lo, digits), oracle_half_up(hi, digits)
    assert a == b, "oracle enclosure crosses a rounding tie"
    return format_scaled(a, digits)


def _parse_interval(text: str) -> tuple[Fraction, Fraction]:
    assert text.startswith("[") and text.endswith("]")
    lo_s, hi_s = text[1:-1].split(", ")
    return Fraction(lo_s), Fraction(hi_s)


def _intervals_overlap(a, b) -> bool:
    return not (a.hi < b.lo or b.hi < a.lo)


# ---------------------------------------------------------------------------


def test_criterion_01_sqrt2_certification():
    with criterion(1, "sqrt(2) bracket at 1/10^6 and 8 certified digits"):
        started = time.perf_counter()

        br = bracket(root_cut(2, q(2)), 10 ** 6)
        assert br.lo.num ** 2 < 2 * br.lo.den ** 2        # lo^2 < 2
        assert br.hi.num ** 2 >= 2 * br.hi.den ** 2       # 2 <= hi^2
        assert fr(br.hi) - fr(br.lo) <= Fraction(1, 10 ** 6)
        cell_lo, cell_hi = sqrt_bounds(Fraction(2), 10 ** 6)
        assert fr(br.lo) < cell_hi and cell_lo < fr(br.hi)

        m = math.isqrt(2 * 10 ** 16)
        assert m ** 2 <= 2 * 10 ** 16 < (m + 1) ** 2
        expected = oracle_root_decimal(Fraction(2), 2, 8)
        assert int(expected.replace(".", "")) == m        # no rounding carry
        assert run_cli(["eval", "sqrt(2)", "--digits", "8"]) \
            == (0, expected + "\n", "")

        assert time.perf_counter() - started < 1.0


def test_criterion_02_mediant_climb():
    with criterion(2, "next member above 1 in the sqrt(2) cut is 5/4"):
        step = next_member_above(root_cut(2, q(2)), q(1))
        assert step == q(5, 4)
        assert 5 ** 2 < 2 * 4 ** 2                         # 25 < 32, exactly


def test_criterion_03_bracket_contract_on_random_leaves():
    with criterion(3, "bracket soundness on 200 random leaves x 5 precisions"):
        rng = random.Random(0x5E6A)
        for _ in range(200):
            leaf = random_leaf(rng)
            for n in (1, 10, 100, 1000, 10000):
                br = bracket(leaf, n)
                assert leaf_member_oracle(leaf, br.lo)
                assert not leaf_member_oracle(leaf, br.hi)
                assert fr(br.hi) - fr(br.lo) <= Fraction(1, n)


def test_criterion_04_group_and_field_identities():
    with criterion(4, "algebraic identity suite on 100 random expressions"):
        rng = random.Random(0xF1E1D)
        for _ in range(100):
            a, b, c = (random_leaf(rng) for _ in range(3))
            for n in (1, 1000, 10 ** 6):
                pairs = [
                    (cut.add(a, b), cut.add(b, a)),
                    (cut.add(cut.add(a, b), c), cut.add(a, cut.add(b, c))),
                    (cut.mul(a, b), cut.mul(b, a)),
                    (cut.mul(cut.mul(a, b), c), cut.mul(a, cut.mul(b, c))),
                    (cut.mul(a, cut.add(b, c)),
                     cut.add(cut.mul(a, b), cut.mul(a, c))),
                    (cut.mul(s_r(q(1)), a), a),
                ]
                for left, right in pairs:
                    assert brackets_overlap(bracket(left, n), bracket(right, n))
                recip = bracket(cut.mul(a, inverse(a)), n)
                assert fr(recip.lo) < 1 <= fr(recip.hi)

            x = f_embed(a)
            vanish = rational_interval(real.add(x, real.neg(x)), 10 ** 6)
            assert interval_contains(vanish, Fraction(0))
            unit = rational_interval(real.mul(x, real.inv(x, 1000)), 10 ** 6)
            assert interval_contains(unit, Fraction(1))


def test_criterion_05_embeddings_are_homomorphisms():
    with criterion(5, "phi/f/g preserve + and *, phi and f isotone"):
        rng = random.Random(0x6B05)
        for _ in range(100):
            p, r = random_posrational(rng), random_posrational(rng)

            for exact, composite in (
                (p + r, cut.add(phi(p), phi(r))),
                (p * r, cut.mul(phi(p), phi(r))),
            ):
                direct, built = bracket(phi(exact), 10 ** 6), bracket(composite, 10 ** 6)
                assert straddles(built, fr(exact))
                assert brackets_overlap(direct, built)

            ac, bc = s_r(p), s_r(r)
            for exact, combined in (
                (fr(p) + fr(r), real.add(f_embed(ac), f_embed(bc))),
                (fr(p) * fr(r), real.mul(f_embed(ac), f_embed(bc))),
            ):
                iv = rational_interval(combined, 10 ** 6)
                assert interval_contains(iv, exact)

            sa = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            sb = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            for exact_sr, combined in (
                (sa + sb, real.add(g_embed(sa), g_embed(sb))),
                (sa * sb, real.mul(g_embed(sa), g_embed(sb))),
            ):
                direct_iv = rational_interval(g_embed(exact_sr), 10 ** 6)
                built_iv = rational_interval(combined, 10 ** 6)
                assert interval_contains(built_iv, fr(exact_sr))
                assert _intervals_overlap(direct_iv, built_iv)

            if p != r:
                low, high = (p, r) if p < r else (r, p)
                gap = fr(high) - fr(low)
                sharp = math.ceil(2 / gap) + 1
                assert compare(phi(low), phi(high), sharp) is Comparison.LESS
                assert real.less_than(f_embed(s_r(low)), f_embed(s_r(high)),
                                      sharp) is Comparison.LESS
                for n in (1, 3, 37):
                    assert compare(phi(low), phi(high), n) is not Comparison.GREATER
                    assert real.less_than(f_embed(s_r(low)), f_embed(s_r(high)),
                                          n) is not Comparison.GREATER


def test_criterion_06_cancellation_and_strict_growth():
    with criterion(6, "adding c preserves order direction; a+b outgrows a"):
        rng = random.Random(0xCA9CE1)
        for _ in range(100):
            a, va = random_rational_leaf(rng)
            b, vb = random_rational_leaf(rng)
            while vb == va:
                b, vb = random_rational_leaf(rng)
            c, _ = random_rational_leaf(rng)
            expected = Comparison.LESS if va < vb else Comparison.GREATER

            def first_certificate(left, right):
                n = 1
                while n <= 1 << 14:
                    verdict = compare(left, right, n)
                    if verdict is not Comparison.OVERLAP:
                        return verdict
                    n *= 2
                return None

            assert first_certificate(a, b) is expected
            assert first_certificate(cut.add(a, c), cut.add(b, c)) is expected

            n = 1
            while n <= 1 << 14:
                if bracket(a, n).hi < bracket(cut.add(a, b), n).lo:
                    break
                n *= 2
            else:
                pytest.fail(f"a+b never separated above a for {va} + {vb}")


def test_criterion_07_difference_law():
    with criterion(7, "a + (b - a) lands on b; b - b exhausts its budget"):
        rng = random.Random(0xD1FF)
        for _ in range(100):
            a, va = random_rational_leaf(rng)
            b, vb = random_rational_leaf(rng)
            while vb == va:
                b, vb = random_rational_leaf(rng)
            if vb < va:
                (a, va), (b, vb) = (b, vb), (a, va)
            rebuilt = cut.add(a, difference(a, b))
            br = bracket(rebuilt, 10 ** 6)
            assert straddles(br, vb)
            assert brackets_overlap(br, bracket(b, 10 ** 6))

        started = time.perf_counter()
        same = s_r(q(7, 3))
        with pytest.raises(PrecisionBudgetExhausted):
            bracket(difference(same, same), 1)
        assert time.perf_counter() - started < 5.0


def test_criterion_08_semidecidability_is_honest():
    with criterion(8, "sqrt(2)^2 vs 2: overlap verdict, no sign, exit 3"):
        assert run_cli(["compare", "sqrt(2)*sqrt(2)", "2",
                        "--precision", "1/1000000"]) == (0, "overlap\n", "")

        residue = evaluate(parse("sqrt(2)*sqrt(2) - 2"), 10)
        for n in (1, 10, 100, 10 ** 3, 10 ** 4, 10 ** 5):
            verdict = real.sign(residue, n)
            assert isinstance(verdict, IndistinguishableFromZero)
            assert verdict.precision == n

        code, out, err = run_cli(["eval", "1/(sqrt(2)*sqrt(2) - 2)"])
        assert code == 3 and out == "" and err != ""


def test_criterion_09_finite_supremum():
    with criterion(9, "sup of S_1, S_3/2, S_2 is indistinguishable from S_2"):
        sup = sup_finite([s_r(q(1)), s_r(q(3, 2)), s_r(q(2))])
        two = s_r(q(2))
        for n in (1, 10, 100, 10 ** 3, 10 ** 4, 10 ** 6):
            br = bracket(sup, n)
            assert fr(br.lo) < 2 <= fr(br.hi)
            assert fr(br.hi) - fr(br.lo) <= Fraction(1, n)
            assert compare(sup, two, n) is Comparison.OVERLAP


# (argv, exit code, exact stdout, oracle check or None); the stdout bytes
# are golden, the oracle column re-derives them from exact arithmetic
CORPUS = [
    (["eval", "2"], 0, "2.0000000000\n", ("rational", Fraction(2), 10)),
    (["eval", "1/4", "--digits", "3"], 0, "0.250\n", ("rational", Fraction(1, 4), 3)),
    (["eval", "--digits", "6", "--", "-1/3"], 0, "-0.333333\n",
     ("rational", Fraction(-1, 3), 6)),
    (["eval", "2/3", "--digits", "4"], 0, "0.6667\n", ("rational", Fraction(2, 3), 4)),
    (["eval", "1/7", "--digits", "7"], 0, "0.1428571\n", ("rational", Fraction(1, 7), 7)),
    (["eval", "22/7 - 3", "--digits", "5"], 0, "0.14286\n",
     ("rational", Fraction(1, 7), 5)),
    (["eval", "10/4", "--digits", "1"], 0, "2.5\n", ("rational", Fraction(5, 2), 1)),
    (["eval", "(1+2)*(3+4)", "--digits", "2"], 0, "21.00\n",
     ("rational", Fraction(21), 2)),
    (["eval", "(5 - 1/2)/(3/2)", "--digits", "6"], 0, "3.000000\n",
     ("rational", Fraction(3), 6)),
    (["eval", "--digits", "5", "1/(1/3)"], 0, "3.00000\n", ("rational", Fraction(3), 5)),
    (["eval", "--digits", "4", "--", "-(2/3) * 3"], 0, "-2.0000\n",
     ("rational", Fraction(-2), 4)),
    (["eval", "sqrt(2)", "--digits", "8"], 0, "1.41421356\n",
     ("root", Fraction(2), 2, 8)),
    (["eval", "root(3, 2)", "--digits", "6"], 0, "1.259921\n",
     ("root", Fraction(2), 3, 6)),
    (["eval", "sqrt(2) + sqrt(8)", "--digits", "6"], 0, "4.242641\n",
     ("root", Fraction(18), 2, 6)),  # sqrt(2) + sqrt(8) = sqrt(18), exactly
    (["eval", "sqrt(2)*sqrt(3)", "--digits", "6"], 0, "2.449490\n",
     ("root", Fraction(6), 2, 6)),
    (["eval", "sqrt(1/2)", "--digits", "7"], 0, "0.7071068\n",
     ("root", Fraction(1, 2), 2, 7)),
    (["eval", "root(5, 1/32)", "--digits", "3"], 0, "0.500\n",
     ("root", Fraction(1, 32), 5, 3)),
    (["eval", "sqrt(9/4)", "--digits", "4"], 0, "1.5000\n",
     ("rational", Fraction(3, 2), 4)),
    (["eval", "sqrt(49)", "--digits", "2"], 0, "7.00\n", ("rational", Fraction(7), 2)),
    (["eval", "root(3, 27)", "--digits", "5"], 0, "3.00000\n",
     ("rational", Fraction(3), 5)),
    (["eval", "root(4, 81)", "--digits", "3"], 0, "3.000\n", ("rational", Fraction(3), 3)),
    (["eval", "sqrt(2)*sqrt(2)", "--digits", "6"], 0, "2.000000\n",
     ("rational", Fraction(2), 6)),
    (["eval", "(sqrt(2) + 1) * (sqrt(2) - 1)", "--digits", "6"], 0, "1.000000\n",
     ("rational", Fraction(1), 6)),
    (["eval", "sqrt(2)/sqrt(8)", "--digits", "4"], 0, "0.5000\n",
     ("rational", Fraction(1, 2), 4)),
    (["eval", "1/4", "--digits", "1"], 0, "[0.2, 0.3]\n",
     ("decint", Fraction(1, 4), 1)),  # 0.25 sits on the 1-digit rounding tie
    (["eval", "0", "--digits", "4"], 0, "[-0.0001, 0.0001]\n",
     ("decint", Fraction(0), 4)),
    (["eval", "sqrt(2) - sqrt(2)", "--digits", "3"], 0, "[-0.001, 0.001]\n",
     ("decint", Fraction(0), 3)),
    (["eval", "2 + 3/4", "--interval", "1/100"], 0, "[28131/10240, 705/256]\n",
     ("interval", Fraction(11, 4), Fraction(1, 100))),
    (["eval", "sqrt(2)", "--interval", "1/1000"], 0, "[46331/32768, 5795/4096]\n",
     ("interval", None, Fraction(1, 1000))),  # None: check lo^2 < 2 < hi^2
    # signed roots and rationals in one sum: S_1 and the roots recur as
    # terms, and each occurrence counts towards the tolerance split
    (["eval", "1/2 - sqrt(2) + 3/4 - root(3, 5) + sqrt(7) - 2/3 + 5", "--interval",
      "1/1000000"], 0, "[41110042189/8053063680, 1370334923/268435456]\n", None),
    (["eval", "1/2 - sqrt(2) + 3/4 - root(3, 5) + sqrt(7) - 2/3 + 5", "--digits", "12"],
     0, "5.104895135348\n", None),
    (["compare", "sqrt(2)", "3/2", "--precision", "1/100"], 0, "less\n", None),
    (["compare", "3/2", "sqrt(2)", "--precision", "1/100"], 0, "greater\n", None),
    (["compare", "sqrt(2)*sqrt(2)", "2", "--precision", "1/1000000"], 0,
     "overlap\n", None),
    (["compare", "1/3 + 1/6", "1/2", "--precision", "1/1000"], 0, "overlap\n", None),
    (["compare", "root(3, 2)", "root(2, 2)", "--precision", "1/100"], 0,
     "less\n", None),
    (["compare", "--", "-1/2", "1/3"], 0, "less\n", None),
    (["compare", "0 - 2", "-1"], 0, "less\n", None),
    (["eval", "1 +"], 2, "", None),
    (["eval", "sqrt(-1)"], 2, "", None),
    (["eval", "root(1, 2)"], 2, "", None),
    (["eval", "2", "--digits", "4", "--interval", "1/10"], 2, "", None),
    (["compare", "1", "2", "--precision", "0/5"], 2, "", None),
    (["eval", "1/0", "--digits", "3"], 3, "", None),
    (["eval", "1/(sqrt(2)*sqrt(2) - 2)"], 3, "", None),
    (["eval", "1/(sqrt(2) - sqrt(2))", "--digits", "4"], 3, "", None),
]


def _check_corpus_oracle(check, out: str) -> None:
    kind = check[0]
    if kind == "rational":
        _, value, digits = check
        assert out == oracle_decimal(value, digits) + "\n"
    elif kind == "root":
        _, radicand, degree, digits = check
        assert out == oracle_root_decimal(radicand, degree, digits) + "\n"
    elif kind == "decint":
        _, value, digits = check
        lo, hi = _parse_interval(out.strip())
        assert lo <= value <= hi
        assert hi - lo <= Fraction(2, 10 ** digits)
    elif kind == "interval":
        _, value, width = check
        lo, hi = _parse_interval(out.strip())
        if value is None:
            assert lo ** 2 < 2 < hi ** 2
        else:
            assert lo <= value <= hi
        assert hi - lo <= width
    else:
        raise AssertionError(f"unknown oracle kind {kind!r}")


def test_criterion_10_cli_golden_corpus():
    with criterion(10, f"golden corpus, {len(CORPUS)} CLI invocations"):
        assert len(CORPUS) >= 25
        started = time.perf_counter()
        for argv, want_code, want_out, check in CORPUS:
            code, out, err = run_cli(argv)
            assert (code, out) == (want_code, want_out), \
                f"{argv}: got code={code} out={out!r} err={err!r}"
            if want_code == 0:
                assert err == ""
            else:
                assert err != ""
            if check is not None:
                _check_corpus_oracle(check, out)
        assert time.perf_counter() - started < 5.0
