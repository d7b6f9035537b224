"""Tests of the benchmark's own checking: the oracle must reject wrong answers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run
import workloads
from workloads import num, root

SQRT2 = root(2, 2)   # 1.41421356237309504880...


def test_iroot_brackets_the_root():
    rng = random.Random(0)
    for _ in range(200):
        n, k = rng.randrange(1, 10 ** 60), rng.randint(2, 7)
        r = oracle.iroot(n, k)
        assert r ** k <= n < (r + 1) ** k


def test_correct_digits_pass_and_a_wrong_digit_fails():
    assert oracle.check_decimal(SQRT2, 10, "1.4142135624") is None
    assert oracle.check_decimal(SQRT2, 10, "1.4142135623") is not None
    assert oracle.check_decimal(SQRT2, 10, "1.414213562") is not None  # too few digits
    assert oracle.check_decimal(("neg", SQRT2), 3, "-1.414") is None
    assert oracle.check_decimal(("neg", SQRT2), 3, "1.414") is not None


def test_exact_ties_round_half_up():
    assert oracle.check_decimal(num(Fraction(1, 8)), 2, "0.13") is None
    assert oracle.check_decimal(num(Fraction(1, 8)), 2, "0.12") is not None


def test_an_interval_that_misses_the_value_fails():
    assert oracle.check_decimal(SQRT2, 5, "[1.41421, 1.41422]") is None
    assert oracle.check_decimal(SQRT2, 5, "[1.41422, 1.41423]") is not None
    assert oracle.check_decimal(SQRT2, 5, "[1.41420, 1.41423]") is not None  # too wide
    assert oracle.check_interval(SQRT2, 4, "[5/4, 3/2]") is None
    assert oracle.check_interval(SQRT2, 4, "[1/2, 3/4]") is not None
    assert oracle.check_interval(SQRT2, 8, "[5/4, 3/2]") is not None    # too wide


def test_compare_verdicts():
    two = num(2)
    assert oracle.check_compare(SQRT2, two, 10 ** 6, "less") is None
    assert oracle.check_compare(SQRT2, two, 10 ** 6, "greater") is not None
    assert oracle.check_compare(SQRT2, two, 10 ** 6, "overlap") is not None
    equal = ("mul", SQRT2, SQRT2)
    assert oracle.check_compare(equal, two, 10 ** 6, "overlap") is None
    assert oracle.check_compare(equal, two, 10 ** 6, "less") is not None


def test_a_wrong_exit_code_fails():
    assert run.check(("exit", 3), 3, "") is None
    assert run.check(("exit", 3), 2, "") is not None
    assert run.check(("exit", 2), 0, "1.000") is not None
    assert run.check(("decimal", SQRT2, 3), 3, "") is not None
    assert run.check(("deep", SQRT2, 3), 2, "") is None
    assert run.check(("deep", SQRT2, 3), 0, "1.414") is None
    assert run.check(("deep", SQRT2, 3), 0, "1.415") is not None
    assert run.check(("deep", SQRT2, 3), 3, "") is not None


def test_crashes_fail_without_counting_as_wrong_answers():
    queries = [(["eval", "2"], ("decimal", num(2), 3))]
    results = [[0, 0.1, "traceback:RecursionError", "", 0.0], [0, 0.1, "timeout", "", 0.1],
               [0, 0.1, 0, "2.000", 0.2], [0, 0.1, 0, "2.001", 0.3]]
    failures, wrong = run.grade(queries, results)
    assert len(failures) == 3 and wrong == 1


def test_near_zero_divisors_are_the_only_ones_redrawn():
    assert oracle.near_zero(("sub", num(Fraction(1, 3)), num(Fraction(1, 3))), 10 ** 6)
    assert oracle.near_zero(("sub", ("mul", SQRT2, SQRT2), num(2)), 10 ** 6)
    assert not oracle.near_zero(("sub", SQRT2, num(Fraction(141421, 100000))), 10 ** 6)


def test_generated_expressions_render_to_their_own_value():
    # render() must place parentheses so the text means the tree
    e = ("div", ("sub", num(1), ("add", num(2), num(3))), ("mul", num(2), num(Fraction(1, 2))))
    assert workloads.render(e) == "(1 - (2 + 3)) / (2 * 1/2)"
    assert workloads.render(("neg", ("add", num(1), SQRT2))) == "-(1 + sqrt(2))"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_on_the_seed_only(name):
    def digest(seed):
        return workloads.digest([job for job, _ in workloads.generate(name, seed)[1]])
    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
