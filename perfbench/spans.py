"""Outside-in tracing of segreals: spans recorded around its public functions.

Wrappers replace module attributes, so calls that go through a module's
globals (the recursion inside ``cut.bracket``, ``exprcli.evaluate``,
``approx.decimal`` calling ``rational_interval``) are traced too.
Nothing under ``src/`` changes, and the wrappers exist only in the
process that ``install`` is called in.

Each span has a name, start, end, parent span and query id.  The leaf
kernel ``cut.membership_leaf`` runs far too often for a span per call:
its calls and time are added to the span that made them, which is all a
leaf span would contribute to its parent's self time.  ``PosRational``
constructions are counted per query.  Spans are kept in flat arrays in
memory and written out once, after the run.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter

# integer fields per span
NAME, PARENT, QUERY, LEAF_CALLS, N_BITS, END_BITS, ERROR = range(7)
INTS = 7
# float fields per span
START, END, LEAF_TIME = range(3)
FLOATS = 3

BRACKET = "cut.bracket"
LEAF = "cut.membership_leaf"
KINDS = ("RationalCut", "RootCut", "Sum", "Product", "Inverse", "Difference")

# (module, function) pairs wrapped with a span, named "<module>.<function>"
SPANNED = (("exprcli", "cli_main"), ("exprcli", "parse"), ("exprcli", "evaluate"),
           ("real", "inv"), ("real", "less_than"),
           ("approx", "decimal"), ("approx", "rational_interval"))
CERTIFY = ("real.inv", "real.less_than")
RENDER = ("approx.decimal", "approx.rational_interval")


class Tracer:
    """Spans and counts of one traced worker, kept in flat arrays.

    Span i has INTS integer fields at ints[i * INTS:] and FLOATS float
    fields at floats[i * FLOATS:].  Its parent is the span open when it
    started, or -1.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict = {}
        self.ints = array("q")
        self.floats = array("d")
        self.stack = [-1]
        self.query = -1
        self.constructions: list[int] = []  # PosRational constructions per query
        self.queries = 0
        self._undo: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # ------------------------------------------------------------------
    # installing the wrappers

    def install(self, segreals) -> None:
        """Wrap the public functions of segreals' modules in this process."""
        for module, fn in SPANNED:
            mod = getattr(segreals, module)
            self._patch(mod, fn, self._spanned(getattr(mod, fn), f"{module}.{fn}"))
        self._patch(segreals.cut, "bracket", self._bracket(segreals.cut.bracket))
        self._patch(segreals.cut, "membership_leaf", self._leaf(segreals.cut.membership_leaf))
        cls = segreals.qpos.PosRational
        self._patch(cls, "__init__", self._counted(cls.__init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def begin_query(self, qid: int) -> None:
        self.query = qid
        self.queries += 1
        self.constructions.append(0)

    def _open(self, nid: int) -> int:
        idx = len(self.floats) // FLOATS
        self.ints.extend((nid, self.stack[-1], self.query, 0, 0, 0, -1))
        self.floats.extend((perf_counter(), 0.0, 0.0))
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, exc: BaseException | None) -> None:
        self.floats[idx * FLOATS + END] = perf_counter()
        self.stack.pop()
        if exc is not None:
            self.ints[idx * INTS + ERROR] = self.name_id(type(exc).__name__)

    def _spanned(self, fn, name: str):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, exc)
                raise
            self._close(idx, None)
            return result
        return wrapper

    def _bracket(self, fn):
        ids = {}

        def wrapper(a, n, *args, **kwargs):
            kind = type(a)
            nid = ids.get(kind)
            if nid is None:
                nid = ids[kind] = self.name_id(f"{BRACKET}.{kind.__name__}")
            idx = self._open(nid)
            try:
                result = fn(a, n, *args, **kwargs)
            except BaseException as exc:
                self._close(idx, exc)
                raise
            self._close(idx, None)
            base = idx * INTS
            self.ints[base + N_BITS] = n.bit_length()
            lo, hi = result.lo, result.hi
            self.ints[base + END_BITS] = max(lo.num.bit_length(), lo.den.bit_length(),
                                             hi.num.bit_length(), hi.den.bit_length())
            return result
        return wrapper

    def _leaf(self, fn):
        self.name_id(LEAF)
        ints, floats, stack = self.ints, self.floats, self.stack

        def wrapper(a, x):
            t0 = perf_counter()
            result = fn(a, x)
            dt = perf_counter() - t0
            top = stack[-1]
            if top < 0:
                raise RuntimeError(f"{LEAF} called outside any traced span")
            ints[top * INTS + LEAF_CALLS] += 1
            floats[top * FLOATS + LEAF_TIME] += dt
            return result
        return wrapper

    def _counted(self, init):
        counts = self.constructions

        def wrapper(obj, *args, **kwargs):
            if counts:
                counts[-1] += 1
            init(obj, *args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    # after the run

    def summary(self) -> dict:
        """Per-name totals derived from the span tree.

        A bracket span is "computed" when it has a nested bracket span or
        made membership_leaf calls; every other bracket span was served
        without work, whatever the cache looks like inside.
        """
        ints, floats, names = self.ints, self.floats, self.names
        count = len(floats) // FLOATS
        child_time = [0.0] * count
        nested = [False] * count
        in_certify = [False] * count
        is_bracket = [n.startswith(BRACKET + ".") for n in names]
        certify_ids = {self._ids.get(n) for n in CERTIFY}
        totals: dict = {}
        leaf_calls = 0
        leaf_time = 0.0
        certify_time = 0.0
        max_n_bits = max_end_bits = 0
        for i in range(count):
            b, f = i * INTS, i * FLOATS
            parent = ints[b + PARENT]
            dur = floats[f + END] - floats[f + START]
            nid = ints[b + NAME]
            if parent >= 0:
                child_time[parent] += dur
                if is_bracket[nid]:
                    nested[parent] = True
            if nid in certify_ids and not (parent >= 0 and in_certify[parent]):
                certify_time += dur
                in_certify[i] = True
            elif parent >= 0 and in_certify[parent]:
                in_certify[i] = True
        for i in range(count):
            b, f = i * INTS, i * FLOATS
            nid = ints[b + NAME]
            calls_here = ints[b + LEAF_CALLS]
            time_here = floats[f + LEAF_TIME]
            leaf_calls += calls_here
            leaf_time += time_here
            dur = floats[f + END] - floats[f + START]
            t = totals.setdefault(names[nid], {"calls": 0, "computed": 0, "self_s": 0.0,
                                               "errors": {}})
            t["calls"] += 1
            t["self_s"] += dur - child_time[i] - time_here
            if is_bracket[nid]:
                if nested[i] or calls_here:
                    t["computed"] += 1
                max_n_bits = max(max_n_bits, ints[b + N_BITS])
                max_end_bits = max(max_end_bits, ints[b + END_BITS])
            err = ints[b + ERROR]
            if err >= 0:
                t["errors"][names[err]] = t["errors"].get(names[err], 0) + 1
        return {"spans": count, "queries": self.queries, "totals": totals,
                "leaf_calls": leaf_calls, "leaf_s": leaf_time, "certify_s": certify_time,
                "max_n_bits": max_n_bits, "max_endpoint_bits": max_end_bits,
                "constructions": sum(self.constructions)}

    def write(self, path) -> None:
        """All spans as gzipped tab-separated text, one per line."""
        ints, floats, names = self.ints, self.floats, self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tquery\tname\tstart_s\tend_s\tleaf_calls\tleaf_s"
                      "\tn_bits\tendpoint_bits\terror\n")
            for i in range(len(floats) // FLOATS):
                b, f = i * INTS, i * FLOATS
                err = ints[b + ERROR]
                out.write(f"{i}\t{ints[b + PARENT]}\t{ints[b + QUERY]}\t{names[ints[b + NAME]]}"
                          f"\t{floats[f + START]:.9f}\t{floats[f + END]:.9f}"
                          f"\t{ints[b + LEAF_CALLS]}\t{floats[f + LEAF_TIME]:.9f}"
                          f"\t{ints[b + N_BITS]}\t{ints[b + END_BITS]}"
                          f"\t{names[err] if err >= 0 else ''}\n")
