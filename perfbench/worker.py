"""One workload run in a fresh interpreter; driven by run.py over stdin/stdout.

Protocol, one JSON document per line:

1. run.py sends the set-up: {"held", "cert_n"}.  The worker
   imports segreals from the checkout's src/, builds the held reals of
   the refine workload, and answers "ready".  Everything up to that line
   is the set-up time.  If stdin then closes, the worker exits.
2. run.py sends the job: {"jobs_file", "seconds", "limit", "cap",
   "trace", "spans_out"}.  The worker reads one query at a time from the
   jobs file, one JSON line each, so its memory holds no input pool.  It
   answers them as a closed loop with one client, until `seconds` have
   passed or, when `limit` is set, until `limit` queries are done.  CLI
   jobs are reused from the start when the file runs out; refine jobs
   are not, because their held reals keep what earlier queries computed.
3. The worker writes one line of results and exits.

Between queries, every CALIBRATE_EVERY_S seconds, the worker also times
a fixed piece of exact arithmetic that does not use segreals.  The
speed of a shared machine drifts by tens of percent within seconds;
run.py uses these timings to state each query's time at a fixed
reference speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds taken by a fixed exact bisection for sqrt(3), about 4 ms.

    Like the program's leaf kernel it mixes interpreter work with
    arithmetic on integers of a few hundred bits, so it slows down with
    the machine the way the queries do.
    """
    t0 = time.perf_counter()
    lo, hi = Fraction(1), Fraction(2)
    for _ in range(300):
        mid = (lo + hi) / 2
        if mid * mid < 3:
            lo = mid
        else:
            hi = mid
    return time.perf_counter() - t0


class QueryTimeout(BaseException):
    """The per-query cap ran out.  A BaseException, so the CLI's own
    handlers cannot mistake it for an answer."""


def _on_alarm(signum, frame):
    raise QueryTimeout


def import_segreals():
    sys.path.insert(0, str(SRC))
    import segreals
    if Path(segreals.__file__).resolve().parent != SRC / "segreals":
        raise ImportError(f"segreals imported from {segreals.__file__}, not from {SRC}")
    return segreals


def build(segreals, e, cert_n: int):
    """A held real built through the library API, from a JSON expression."""
    op = e[0]
    if op == "num":
        return segreals.g_embed(segreals.SignedRational.from_fraction(Fraction(e[1])))
    if op == "root":
        r = Fraction(e[2])
        return segreals.embed.f_embed(
            segreals.root_cut(e[1], segreals.PosRational(r.numerator, r.denominator)))
    a, b = build(segreals, e[1], cert_n), build(segreals, e[2], cert_n)
    if op == "add":
        return segreals.real.add(a, b)
    if op == "mul":
        return segreals.real.mul(a, b)
    if op == "div":
        return segreals.real.mul(a, segreals.real.inv(b, cert_n))
    raise ValueError(f"unknown node {op!r}")


def run(segreals, job: dict, held: list, jobs) -> dict:
    seconds, limit, cap = job["seconds"], job["limit"], job["cap"]
    cli = held == []
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install(segreals)
    # read after install, so the traced run calls the wrappers
    exprcli, approx = segreals.exprcli, segreals.approx
    signal.signal(signal.SIGALRM, _on_alarm)
    results, calibrations = [], []
    start = next_calibration = time.perf_counter()
    i = index = 0
    while (i < limit) if limit is not None else (time.perf_counter() - start < seconds):
        now = time.perf_counter()
        if now >= next_calibration:
            calibrations.append([now - start, calibrate()])
            next_calibration = now + CALIBRATE_EVERY_S
        line = jobs.readline()
        if not line and cli:
            jobs.seek(0)
            index, line = 0, jobs.readline()
        if not line:
            break
        q = json.loads(line)
        if tracer is not None:
            tracer.begin_query(i)
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            if cli:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    outcome = exprcli.cli_main(q)
            else:
                out.write(approx.decimal(held[q[0]], q[1]))
                outcome = 0
            signal.setitimer(signal.ITIMER_REAL, 0)
        except QueryTimeout:
            outcome = "timeout"
        except Exception as exc:  # a traceback is an outcome, and the run goes on
            signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = f"traceback:{type(exc).__name__}"
        t1 = time.perf_counter()
        if not cli and q[2]:
            held[q[0]] = None  # the last query on this real: let it go
        results.append([index, t1 - t0, outcome, out.getvalue(), t0 - start])
        i += 1
        index += 1
    wall = time.perf_counter() - start
    calibrations.append([wall, calibrate()])
    report = {"results": results, "wall": wall, "calibrations": calibrations,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        if job["spans_out"]:
            tracer.write(job["spans_out"])
    return report


def main() -> int:
    setup = json.loads(sys.stdin.readline())
    segreals = import_segreals()
    held = [build(segreals, e, setup["cert_n"]) for e in setup["held"]]
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)
    with open(job["jobs_file"]) as jobs:
        report = run(segreals, job, held, jobs)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
