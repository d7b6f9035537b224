"""segreals benchmark: four seeded, oracle-checked workloads.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 25 --trace 0

Each workload runs in fresh worker interpreters (worker.py) on one
thread, as a closed loop with one client: each query waits for the
previous answer.  Every answer is checked by an exact oracle that does
not use segreals (oracle.py).

--trace 0 measures the end-to-end metrics with unpatched code.
--trace 1 runs the same queries with spans recorded around segreals'
public functions (spans.py), reports the per-layer metrics, and then
replays the traced queries untraced to get the tracing overhead.

Human-readable lines go to stdout first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  With
--workload all, every workload runs in turn and the metric names in
that JSON are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans
import workloads
from worker import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Query times are reported at a reference machine speed: the speed at
# which worker.calibrate() takes exactly 4 ms.  See reference_times().
CALIBRATION_REF_S = 0.004
CAP_S = 10.0          # per-query time cap; no query took over 1.5 s when this was set
SETUP_SPAWNS = 9      # set-up-only interpreters, besides the measured one
CLI_WORKLOADS = ("cli_mix", "shared_dag", "wide_sum")

# end-to-end metrics, printed with --trace 0: name -> unit
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics, printed with --trace 1: name -> (unit, better)
PER_LAYER = {}
for _k in spans.KINDS:
    PER_LAYER[f"cut.bracket.{_k}.calls"] = ("calls/query", "lower")
    PER_LAYER[f"cut.bracket.{_k}.computed"] = ("calls/query", "lower")
    PER_LAYER[f"cut.bracket.{_k}.self_ms"] = ("ms/query", "lower")
PER_LAYER.update({
    "cut.bracket.calls": ("calls/query", "lower"),
    "cut.bracket.reuse_ratio": ("ratio", "higher"),
    "cut.bracket.max_n_bits": ("bits", "lower"),
    "cut.bracket.max_endpoint_bits": ("bits", "lower"),
    "cut.membership_leaf.calls": ("calls/query", "lower"),
    "cut.membership_leaf.self_ms": ("ms/query", "lower"),
    "qpos.constructions": ("count/query", "lower"),
    "exprcli.cli_main.self_ms": ("ms/query", "lower"),
    "exprcli.parse.self_ms": ("ms/query", "lower"),
    "exprcli.evaluate.self_ms": ("ms/query", "lower"),
    "real.inv.calls": ("calls/query", "lower"),
    "real.inv.zero": ("calls/query", "lower"),
    "real.certify_ms": ("ms/query", "lower"),
    "approx.render.self_ms": ("ms/query", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})

# Wrapped functions and the workloads that must call them.  A wrapped
# function that sees no call where it should means the benchmark lost
# track of the program (say, bracket moved into node methods), so the
# traced run fails instead of reporting a zero.
USED_BY = {
    "cut.bracket": workloads.WORKLOADS,
    "cut.membership_leaf": workloads.WORKLOADS,
    "qpos.PosRational": workloads.WORKLOADS,
    "approx.decimal": workloads.WORKLOADS,
    "approx.rational_interval": workloads.WORKLOADS,
    "exprcli.cli_main": CLI_WORKLOADS,
    "exprcli.parse": CLI_WORKLOADS,
    "exprcli.evaluate": CLI_WORKLOADS,
    "real.inv": ("cli_mix", "shared_dag"),
    "real.less_than": ("cli_mix",),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# workers


class Worker:
    """A worker interpreter; construction measures its set-up time."""

    def __init__(self, setup_line: str) -> None:
        env = {k: v for k, v in os.environ.items() if k != "REALS_BUDGET"}
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        try:
            self.proc.stdin.write(setup_line)
            self.proc.stdin.flush()
            ready = self.proc.stdout.readline()
        except BrokenPipeError:
            ready = ""
        self.setup_s = time.perf_counter() - t0
        if ready.strip() != "ready":
            self.close()
            raise BenchError("the worker failed to set up; see its error above")

    def run(self, job: dict, timeout: float) -> dict:
        try:
            out, _ = self.proc.communicate(json.dumps(job) + "\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"the worker did not finish within {timeout:.0f} s") from None
        finally:
            self.close()
        if self.proc.returncode != 0 or not out:
            raise BenchError(f"the worker exited with code {self.proc.returncode}")
        return json.loads(out)

    def close(self) -> None:
        if self.proc.poll() is None:
            if not self.proc.stdin.closed:
                try:
                    self.proc.stdin.close()
                except BrokenPipeError:
                    pass
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def _setup_line(held: list) -> str:
    return json.dumps({"held": [workloads.to_json(e) for e in held],
                       "cert_n": workloads.REFINE_CERT_N}) + "\n"


def _job(jobs_file, seconds=None, limit=None, trace=False, spans_out=None) -> dict:
    return {"jobs_file": str(jobs_file), "seconds": seconds, "limit": limit, "cap": CAP_S,
            "trace": trace, "spans_out": spans_out and str(spans_out)}


# ---------------------------------------------------------------------------
# checking answers


def check(expect: tuple, outcome, text: str) -> str | None:
    """None for a right answer, otherwise why it is a failure."""
    if outcome == "timeout" or str(outcome).startswith("traceback:"):
        return str(outcome)
    kind = expect[0]
    if kind == "exit":
        return None if outcome == expect[1] else f"exit {outcome}, expected {expect[1]}"
    if kind == "deep" and outcome == 2:
        return None
    if outcome != 0:
        return f"exit {outcome}, expected 0"
    if kind in ("decimal", "deep"):
        return oracle.check_decimal(expect[1], expect[2], text)
    if kind == "interval":
        return oracle.check_interval(expect[1], expect[2], text)
    return oracle.check_compare(expect[1], expect[2], expect[3], text)


def grade(queries: list, results: list) -> tuple[list, int]:
    """(failures as (index, reason), number of wrong answers).

    Wrong answers are a subset of failures: a printed result or exit
    code the oracle rejects.  Tracebacks and timeouts fail without
    being wrong, since the program gave no answer.
    """
    failures, wrong, seen = [], 0, {}
    for index, _lat, outcome, text, _start in results:
        key = (index, str(outcome), text)
        if key not in seen:
            seen[key] = check(queries[index][1], outcome, text)
        reason = seen[key]
        if reason is not None:
            failures.append((index, reason))
            if not (reason == "timeout" or reason.startswith("traceback:")):
                wrong += 1
    return failures, wrong


def _shorten(argv: list) -> str:
    parts = []
    for a in argv:
        parts.append(a if len(a) <= 60 else f"{a[:28]}...{a[-28:]} ({len(a)} chars)")
    return " ".join(repr(p) for p in parts)


# ---------------------------------------------------------------------------
# metrics


def reference_times(report: dict) -> list[float]:
    """Each query's wall time, in seconds at the reference speed.

    The machine's speed while a query ran is the median calibration time
    within a second of the query's midpoint, or the nearest calibration
    when none is that close.  The worker calibrates every quarter second
    between queries, so this follows the drift of a shared machine
    without touching the program under test.
    """
    cal = report["calibrations"]
    at = [c[0] for c in cal]
    scaled = []
    for _index, lat, _outcome, _text, start in report["results"]:
        mid = start + lat / 2
        half = max(1.0, lat / 2 + 0.5)
        window = [c[1] for c in cal[bisect.bisect_left(at, mid - half):
                                    bisect.bisect_right(at, mid + half)]]
        if not window:
            window = [cal[min(bisect.bisect_left(at, mid), len(cal) - 1)][1]]
        scaled.append(lat * CALIBRATION_REF_S / statistics.median(window))
    return scaled


def raw_summary(report: dict) -> str:
    lat_ms = [r[1] * 1000 for r in report["results"]]
    cuts = statistics.quantiles(lat_ms, n=100, method="inclusive")
    cal_ms = statistics.median(c[1] for c in report["calibrations"]) * 1000
    return (f"raw wall time: p50 {cuts[49]:.4g} ms, p90 {cuts[89]:.4g} ms, "
            f"{len(lat_ms) / report['wall']:.4g} queries/s; "
            f"calibration median {cal_ms:.4g} ms over {len(report['calibrations'])}")


def end_to_end(report: dict, setup_samples: list) -> dict:
    lat_ms = [t * 1000 for t in reference_times(report)]
    cuts = statistics.quantiles(lat_ms, n=100, method="inclusive")
    values = {
        "latency_p50_ms": cuts[49],
        "latency_p90_ms": cuts[89],
        "queries_per_s": len(lat_ms) / (sum(lat_ms) / 1000),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(workload: str, summary: dict, overhead: float, speed: float) -> dict:
    """Per-layer values; times are scaled to the reference speed by `speed`."""
    q = summary["queries"]
    ms = 1000 * speed / q   # seconds in a run to reference milliseconds per query
    totals = summary["totals"]
    empty = {"calls": 0, "computed": 0, "self_s": 0.0, "errors": {}}
    t = lambda name: totals.get(name, empty)
    brackets = [v for k, v in totals.items() if k.startswith(spans.BRACKET + ".")]
    calls = {
        "cut.bracket": sum(v["calls"] for v in brackets),
        "cut.membership_leaf": summary["leaf_calls"],
        "qpos.PosRational": summary["constructions"],
        **{name: t(name)["calls"] for name in USED_BY if name in totals},
    }
    silent = [name for name, users in USED_BY.items()
              if workload in users and not calls.get(name)]
    if silent:
        raise BenchError(f"traced functions saw no call on {workload}: {', '.join(silent)}")
    values = {}
    for k in spans.KINDS:
        v = t(f"{spans.BRACKET}.{k}")
        values[f"cut.bracket.{k}.calls"] = v["calls"] / q
        values[f"cut.bracket.{k}.computed"] = v["computed"] / q
        values[f"cut.bracket.{k}.self_ms"] = v["self_s"] * ms
    computed = sum(v["computed"] for v in brackets)
    values.update({
        "cut.bracket.calls": calls["cut.bracket"] / q,
        "cut.bracket.reuse_ratio": 1 - computed / calls["cut.bracket"],
        "cut.bracket.max_n_bits": summary["max_n_bits"],
        "cut.bracket.max_endpoint_bits": summary["max_endpoint_bits"],
        "cut.membership_leaf.calls": summary["leaf_calls"] / q,
        "cut.membership_leaf.self_ms": summary["leaf_s"] * ms,
        "qpos.constructions": summary["constructions"] / q,
        "exprcli.cli_main.self_ms": t("exprcli.cli_main")["self_s"] * ms,
        "exprcli.parse.self_ms": t("exprcli.parse")["self_s"] * ms,
        "exprcli.evaluate.self_ms": t("exprcli.evaluate")["self_s"] * ms,
        "real.inv.calls": t("real.inv")["calls"] / q,
        "real.inv.zero": t("real.inv")["errors"].get("ZeroAtPrecision", 0) / q,
        "real.certify_ms": summary["certify_s"] * ms,
        "approx.render.self_ms": sum(t(n)["self_s"] for n in spans.RENDER) * ms,
        "trace.overhead_ratio": overhead,
    })
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "segreals" / "__init__.py").is_file():
        raise BenchError(f"no segreals package under {ROOT / 'src'}")
    held, queries = workloads.generate(workload, seed)
    probes = workloads.probe(workload, seed)
    jobs = [job for job, _ in queries]
    setup_line = _setup_line(held)
    timeout = seconds + CAP_S + 120
    OUT.mkdir(exist_ok=True)
    jobs_file = OUT / f"{workload}-seed{seed}-{os.getpid()}.jobs.jsonl"
    jobs_file.write_text("".join(json.dumps(job) + "\n" for job in jobs))
    probe_file = OUT / f"{workload}-seed{seed}-{os.getpid()}.probe.jsonl"
    probe_file.write_text("".join(json.dumps(job) + "\n" for job, _ in probes))
    try:
        if not trace:
            # set-up times at the reference speed, calibrated around each spawn
            setup_samples, raw_setup = [], []
            for i in range(SETUP_SPAWNS + 1):
                before = calibrate()
                w = Worker(setup_line)
                raw_setup.append(w.setup_s)
                setup_samples.append(w.setup_s * CALIBRATION_REF_S * 2 / (before + calibrate()))
                if i < SETUP_SPAWNS:
                    w.close()
            report = w.run(_job(jobs_file, seconds=seconds), timeout)
            runs = [report]
        else:
            spans_out = OUT / f"{workload}-seed{seed}.spans.tsv.gz"
            report = Worker(setup_line).run(
                _job(jobs_file, seconds=seconds / 2, trace=True, spans_out=spans_out), timeout)
            replay = Worker(setup_line).run(
                _job(jobs_file, limit=len(report["results"])), timeout)
            runs = [report, replay]
        # the deep-nesting probe, untimed, after the measured run
        probe_report = (Worker(setup_line).run(_job(probe_file, limit=len(probes)),
                                               CAP_S * len(probes) + 120)
                        if probes else {"results": []})
    finally:
        jobs_file.unlink()
        probe_file.unlink()

    failures, wrong = grade(queries, report["results"])
    replay_failures, replay_wrong = (grade(queries, runs[1]["results"]) if trace
                                     else ([], 0))
    attempted = len(report["results"])
    pool_prefix = [jobs[r[0]] for r in report["results"]]
    lines = [f"# {workload} seed {seed}: {attempted} queries attempted, "
             f"{'traced' if trace else 'untraced'}; inputs sha256 {workloads.digest(jobs)} "
             f"({len(jobs)} generated), attempted sha256 {workloads.digest(pool_prefix)}"]
    for index, reason in failures:
        lines.append(f"# FAIL {workload} #{index} {reason}: {_shorten(jobs[index])}")
    probe_failures, probe_wrong = grade(probes, probe_report["results"])
    if probes:
        lines.append(f"# deep-nesting probe: {len(probe_failures)} of {len(probes)} failed, "
                     f"{probe_wrong} wrong (not counted in attempted or failed)")
    for index, reason in probe_failures:
        lines.append(f"# PROBE FAIL {workload} deep #{index} {reason}: "
                     f"{_shorten(probes[index][0])}")
    if trace:
        speed = CALIBRATION_REF_S / statistics.median(c[1] for c in report["calibrations"])
        overhead = sum(reference_times(report)) / sum(reference_times(runs[1]))
        metrics = per_layer(workload, report["trace"], overhead, speed)
        lines.append(f"# spans: {report['trace']['spans']} written to "
                     f"{spans_out.relative_to(ROOT)}; untraced replay: "
                     f"{len(replay_failures)} failures, {replay_wrong} wrong")
    else:
        metrics = end_to_end(report, setup_samples)
        lines.append(f"# {raw_summary(report)}; raw set-up median "
                     f"{statistics.median(raw_setup):.4g} s")
        lines.append(f"{workload} fail_ratio {len(failures) / attempted:.6f} ratio "
                     f"(n={attempted}, {len(failures)} failed, {wrong} wrong)")
    for name, m in metrics.items():
        n = len(setup_samples) if name == "setup_s" else attempted
        lines.append(f"{workload} {name} {m['value']:.6g} {m['unit']} (n={n})")
    return {"lines": lines, "correct": wrong == 0 and replay_wrong == 0 and probe_wrong == 0,
            "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(results[name]["lines"]), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
