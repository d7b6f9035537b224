"""The library calls the benchmark makes, pinned in the tier-1 suite.

The benchmark worker (perfbench/worker.py) builds the refine workload's
held reals through the public API, and its tracer (perfbench/spans.py)
wraps public functions by name.  Both are loaded here read-only and run
against exact oracles, so a change that drops or renames a name the
benchmark uses fails here instead of in a benchmark run.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import segreals

from support import oracle_decimal, sqrt_bounds

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CERT_N = 10 ** 6
DIGITS = 30


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # read-only: no bytecode cache is written next to the benchmark
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def worker():
    return load("worker")


def enclose(e, scale: int) -> tuple[Fraction, Fraction]:
    """Exact bounds on the value of a worker expression, square roots by isqrt."""
    op = e[0]
    if op == "num":
        v = Fraction(e[1])
        return v, v
    if op == "root":
        assert e[1] == 2
        return sqrt_bounds(Fraction(e[2]), scale)
    (a, b), (c, d) = enclose(e[1], scale), enclose(e[2], scale)
    if op == "add":
        return a + c, b + d
    if op == "mul":
        ends = (a * c, a * d, b * c, b * d)
    else:
        assert op == "div" and (c > 0 or d < 0)
        ends = (a / c, a / d, b / c, b / d)
    return min(ends), max(ends)


def oracle(e) -> str:
    lo, hi = enclose(e, 10 ** (DIGITS + 10))
    expected = oracle_decimal(lo, DIGITS)
    assert oracle_decimal(hi, DIGITS) == expected
    return expected


# in the JSON form the worker reads (perfbench/workloads.py, to_json)
EXPRESSIONS = [
    ["num", "-3/2"],
    ["root", 2, "5/2"],
    ["add", ["num", "1/3"], ["root", 2, "2"]],
    ["mul", ["num", "-2/7"], ["root", 2, "3"]],
    ["div", ["num", "1"], ["add", ["num", "1"], ["root", 2, "7"]]],
]


@pytest.mark.parametrize("e", EXPRESSIONS, ids=[e[0] for e in EXPRESSIONS])
def test_worker_builds_through_the_public_api(worker, e):
    held = worker.build(segreals, e, CERT_N)
    assert segreals.approx.decimal(held, DIGITS) == oracle(e)


def test_tracer_wraps_the_public_functions(worker):
    spans = load("spans")
    tracer = spans.Tracer()
    tracer.install(segreals)
    try:
        tracer.begin_query(0)
        e = EXPRESSIONS[-1]
        out = segreals.approx.decimal(worker.build(segreals, e, CERT_N), DIGITS)
    finally:
        tracer.uninstall()
    assert out == oracle(e)
    assert {"real.inv", "approx.decimal", "approx.rational_interval",
            "cut.bracket.Sum"} <= set(tracer.names)
    assert tracer.constructions[0] > 0
