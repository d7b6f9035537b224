"""Same answers and the same work as another revision, on the benchmark's inputs.

    python tools/equiv.py --against REV

REV is any git revision of this repository.  Its files are extracted with
`git archive REV | tar -x` into a temporary directory, and the same inputs
run through its `src/` and through this checkout's, each in a fresh
interpreter started in an empty directory, with no $REALS_BUDGET:

- the first 3 000 / 1 200 / 300 seed-7 `cli_mix` / `shared_dag` /
  `wide_sum` argvs through `exprcli.cli_main`, and each `eval --digits` of
  them again at `--digits 300`;
- the 6 080 seed-7 `refine` queries through `approx.decimal`, on held reals
  built as the benchmark's worker builds them.

The inputs come from this checkout's `perfbench/workloads.py`, so both
sides answer the very same queries.  Per workload the report gives the
number of changed (exit, stdout, stderr) triples and the first few of
them, each side's `cut.bracket` calls per node kind (counted by a wrapper
on the module attribute, which every composite recursion goes through),
each side's `cut.membership_leaf` calls per leaf kind (counted the same
way, which every leaf test inside the package goes through) and a sha256
of each side's outputs.  Its last line is one JSON object with the totals;
`counts_equal` compares the bracket calls only, and each workload's
`membership` object holds both sides' membership tests, which a change
may cut without changing an answer.  The tool gates nothing: it exits 0
whenever both sides ran, whatever they answered.

Both sides run under the interpreter that runs the tool, so another Python
needs no flag: `python3.13 tools/equiv.py --against REV` compares the two
trees on 3.13.  The package is stdlib-only, and CPython 3.10.13, 3.11.7,
3.12.1 and 3.13.0 print the same four sha256s on the same tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SEED = 7
PREFIX = {"cli_mix": 3000, "shared_dag": 1200, "wide_sum": 300}
RERUN_DIGITS = "300"
SHOWN = 5  # changed triples printed per workload
CLIP = 160  # characters of a shown argv or output


def _inputs() -> dict:
    """Each CLI workload's argvs, and refine's held reals and queries."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    sys.path.insert(0, str(BENCH))
    import workloads

    cli = {}
    for name, count in PREFIX.items():
        argvs = [job for job, _ in workloads.generate(name, SEED)[1][:count]]
        cli[name] = argvs + [_at_digits(argv) for argv in argvs
                             if argv[0] == "eval" and "--digits" in argv]
    held, queries = workloads.generate("refine", SEED)
    return {"cli": cli, "held": [workloads.to_json(e) for e in held],
            "cert_n": workloads.REFINE_CERT_N, "refine": [job for job, _ in queries]}


def _at_digits(argv: list) -> list:
    i = argv.index("--digits")
    return [*argv[:i + 1], RERUN_DIGITS, *argv[i + 2:]]


def _child(src: str, inputs_file: str) -> None:
    """Run every input through the segreals under `src`; print the outputs,
    the bracket counts and the membership test counts, per workload, as one
    JSON object."""
    sys.path[:0] = [src, str(BENCH)]
    import segreals
    import worker  # the benchmark's builder of held reals

    with open(inputs_file) as file:
        data = json.load(file)
    brackets, tests = Counter(), Counter()
    segreals.cut.bracket = _counting(brackets, segreals.cut.bracket)
    segreals.cut.membership_leaf = _counting(tests, segreals.cut.membership_leaf)

    def counts() -> dict:
        """The calls per kind since the last read; the counting starts again."""
        taken = {"brackets": dict(brackets), "membership": dict(tests)}
        brackets.clear()
        tests.clear()
        return taken

    report = {}
    for name, argvs in data["cli"].items():
        outputs = [_run_cli(segreals.exprcli.cli_main, argv) for argv in argvs]
        report[name] = {"outputs": outputs, **counts()}
    held = [worker.build(segreals, e, data["cert_n"]) for e in data["held"]]
    outputs = []
    for index, digits, last in data["refine"]:
        try:
            outputs.append([0, segreals.approx.decimal(held[index], digits), ""])
        except Exception as exc:  # an escaped error is an output too
            outputs.append([f"traceback:{type(exc).__name__}", "", str(exc)])
        if last:
            held[index] = None  # as the worker lets it go
    report["refine"] = {"outputs": outputs, **counts()}
    json.dump(report, sys.stdout)


def _counting(counts: Counter, plain):
    """`plain(a, arg)`, counting each call by the type name of `a`."""
    def counting(a, arg):
        counts[type(a).__name__] += 1
        return plain(a, arg)
    return counting


def _run_cli(cli_main, argv: list) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except Exception as exc:  # an escaped error is an output too
            code = f"traceback:{type(exc).__name__}"
            print(exc, file=err)
    return [code, out.getvalue(), err.getvalue()]


def _side(src: Path, inputs_file: Path, cwd: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REALS_BUDGET"}
    proc = subprocess.run([sys.executable, "-B", str(Path(__file__).resolve()), "--child",
                           str(src), str(inputs_file)],
                          cwd=cwd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def _extract(rev: str, dest: Path) -> str:
    """REV's files under dest; returns its commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                         stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return commit


def _sha256(outputs: list) -> str:
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


def _clip(value: object) -> str:
    text = json.dumps(value, ensure_ascii=False)
    return text if len(text) <= CLIP else f"{text[:CLIP]}... ({len(text)} characters)"


def _kinds(counts: dict) -> str:
    total = sum(counts.values())
    return ", ".join(f"{kind} {n}" for kind, n in sorted(counts.items())) + f"; total {total}"


def _compare(inputs: dict, against: dict, this: dict) -> dict:
    summary = {}
    for name in against:
        queries = inputs["cli"][name] if name in inputs["cli"] else inputs["refine"]
        old, new = against[name], this[name]
        changed = [i for i, (a, b) in enumerate(zip(old["outputs"], new["outputs"])) if a != b]
        equal = old["brackets"] == new["brackets"]
        hashes = {"against": _sha256(old["outputs"]), "this": _sha256(new["outputs"])}
        print(f"{name}: {len(queries)} runs, {len(changed)} changed; "
              f"cut.bracket calls {'equal' if equal else 'DIFFER'}")
        print(f"  sha256  against {hashes['against']}\n          this    {hashes['this']}")
        print(f"  cut.bracket  against  {_kinds(old['brackets'])}")
        print(f"               this     {_kinds(new['brackets'])}")
        print(f"  cut.membership_leaf  against  {_kinds(old['membership'])}")
        print(f"                       this     {_kinds(new['membership'])}")
        for i in changed[:SHOWN]:
            print(f"  changed: {_clip(queries[i])}")
            print(f"    against {_clip(old['outputs'][i])}")
            print(f"    this    {_clip(new['outputs'][i])}")
        summary[name] = {"runs": len(queries), "changed": len(changed),
                         "counts_equal": equal, "sha256": hashes,
                         "membership": {"against": old["membership"], "this": new["membership"]}}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="equiv", description="Compare answers and bracket calls with another revision.")
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the git revision to compare this checkout with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="equiv-") as tmp:
        tmp = Path(tmp)
        (tmp / "rev").mkdir()
        (tmp / "cwd").mkdir()  # no reals.toml here
        commit = _extract(args.against, tmp / "rev")
        inputs = _inputs()
        inputs_file = tmp / "inputs.json"
        inputs_file.write_text(json.dumps(inputs))
        print(f"against {args.against} ({commit[:12]}): seed {SEED}, this checkout {ROOT}")
        against = _side(tmp / "rev" / "src", inputs_file, tmp / "cwd")
        this = _side(ROOT / "src", inputs_file, tmp / "cwd")
    summary = _compare(inputs, against, this)
    print(json.dumps({"against": args.against, "commit": commit,
                      "changed": sum(w["changed"] for w in summary.values()),
                      "counts_equal": all(w["counts_equal"] for w in summary.values()),
                      "workloads": summary}))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:  # one side's run, started by `_side`
        _child(*sys.argv[2:])
    else:
        sys.exit(main())
