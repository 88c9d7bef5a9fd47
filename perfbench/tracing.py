"""Spans and counters recorded around the package's layer functions.

`Tracer.install` replaces each traced function where its callers look it
up: the module global (callers inside the module and `module.name`
callers both resolve there) and, for `Poly` and `RunReport`, the class
attribute.  Spans are kept in memory as (name, start, end, parent, nested)
rows and written once, when the run ends.  A span's self time is its
duration minus the durations of its child spans.  Nothing is installed on
untraced runs, so they run the package exactly as shipped.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name, self.start, self.end = array("q"), array("q"), array("q")
        self.parent, self.nested = array("q"), array("b")
        self.counts: Counter = Counter()
        self.points: set = set()
        self.child_starts: list[float] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if self._active[nid] else 0)
        self.end.append(0)
        self._stack.append(i)
        self._active[nid] += 1
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int, nid: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()
        self._active[nid] -= 1

    def mark(self):
        return (len(self.start), Counter(self.counts), set(self.points),
                len(self.child_starts))

    def rollback(self, mark) -> None:
        """Forget everything recorded since `mark`: an item cut off by the
        deadline adds neither spans nor counts."""
        size, self.counts, self.points, starts = mark
        for col in (self.name, self.start, self.end, self.parent, self.nested):
            del col[size:]
        del self.child_starts[starts:]
        self._stack, self._active = [], Counter()

    def current(self) -> int:
        """The open span, the parent of spans merged from a child process."""
        return self._stack[-1]

    @contextmanager
    def span(self, label: str):
        nid = self._id(label)
        i = self._open(nid)
        try:
            yield i
        finally:
            self._close(i, nid)

    def wrap(self, label: str, fn, count=None):
        """`fn` with a span named `label`; `count(tracer, args)` may add to
        the counters before the call."""
        nid = self._id(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, args)
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i, nid)
        return traced

    def install(self) -> None:
        from ringtasep import chain, cli, formulas, mlq, schubert
        from ringtasep.poly import Poly

        def patch(owner, attr, label, count=None):
            setattr(owner, attr, self.wrap(label, getattr(owner, attr), count))

        for attr in ("build_chain", "stationary", "renormalize",
                     "symbolic_stationary"):
            patch(chain, attr, f"chain.{attr}")
        patch(chain, "solve_renormalized", "chain.solve_renormalized",
              _count_solve)
        patch(Poly, "__init__", "poly.init")
        patch(Poly, "__add__", "poly.add")
        patch(Poly, "__mul__", "poly.mul", _count_mul)
        patch(Poly, "evaluate", "poly.evaluate", _count_evaluate)
        patch(Poly, "divided_difference", "poly.divided_difference")
        patch(schubert, "double_schubert", "schubert.double_schubert")
        patch(schubert, "apply_divided_differences",
              "schubert.apply_divided_differences")
        patch(formulas, "main_formula", "formulas.main_formula")
        patch(formulas, "xy_fact", "formulas.xy_fact")
        for attr in ("bully_project", "queue_weight", "queue_type",
                     "all_psi_via_mlq"):
            patch(mlq, attr, f"mlq.{attr}")
        mlq.iter_queues = _counting(self, mlq.iter_queues, "mlq.iter_queues.queues")
        suites = {s: self.wrap(f"cli.verify.{s}", cli.cmd_verify)
                  for s in cli.SUITES}
        cli.cmd_verify = functools.wraps(cli.cmd_verify)(
            lambda args: suites[args.suite](args))
        patch(cli.RunReport, "record", "cli.record", _count_case)

    # -- exchange between processes --------------------------------------------

    def dump(self) -> dict:
        return {"names": self.names, "rows": [list(r) for r in self.rows()],
                "counts": dict(self.counts), "points": len(self.points)}

    def merge(self, data: dict, parent: int) -> None:
        """Append a child process's spans under span `parent`."""
        base = len(self.start)
        for nm, s, e, p, k in data["rows"]:
            self.name.append(self._id(data["names"][nm]))
            self.start.append(s)
            self.end.append(e)
            self.parent.append(parent if p < 0 else base + p)
            self.nested.append(k)
        self.counts.update(data["counts"])
        self.counts["distinct_points"] += data["points"]

    def rows(self):
        return zip(self.name, self.start, self.end, self.parent, self.nested)

    def write(self, path) -> None:
        """Spans as gzip CSV, one row per span, parents by row number."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,nested\n")
            names = self.names
            for nm, s, e, p, k in self.rows():
                fh.write(f"{names[nm]},{s},{e},{p},{k}\n")

    # -- per-layer figures -------------------------------------------------------

    def layer_totals(self) -> tuple[dict, dict, dict]:
        """Per name: inclusive seconds (outermost spans only), self
        seconds, and span count."""
        children = array("q", bytes(8 * len(self.start)))
        for i, (s, e, p) in enumerate(zip(self.start, self.end, self.parent)):
            if p >= 0:
                children[p] += e - s
        incl, own, calls = Counter(), Counter(), Counter()
        for nm, s, e, c, k in zip(self.name, self.start, self.end, children,
                                  self.nested):
            label = self.names[nm]
            calls[label] += 1
            own[label] += (e - s - c) / 1e9
            if not k:
                incl[label] += (e - s) / 1e9
        return incl, own, calls


def _counting(tracer: Tracer, gen_fn, counter: str):
    @functools.wraps(gen_fn)
    def counted(*args, **kwargs):
        for item in gen_fn(*args, **kwargs):
            tracer.counts[counter] += 1
            yield item
    return counted


def _count_solve(tracer: Tracer, args) -> None:
    params = args[1]
    tracer.points.add((params.xvals, params.yvals))


def _count_mul(tracer: Tracer, args) -> None:
    tracer.counts["poly.mul.term_pairs"] += len(args[0]) * len(args[1])


def _count_evaluate(tracer: Tracer, args) -> None:
    tracer.counts["poly.evaluate.terms"] += len(args[0])


def _count_case(tracer: Tracer, args) -> None:
    tracer.counts["cli.cases"] += 1


def per_layer(tracer: Tracer, items: int) -> dict:
    """The per-layer metrics, per whole traced item."""
    incl, own, calls = tracer.layer_totals()
    counts = tracer.counts
    points = counts["distinct_points"] + len(tracer.points)
    solves = calls["chain.solve_renormalized"]
    per = {
        "chain.stationary.s": incl["chain.stationary"],
        "chain.stationary.calls": calls["chain.stationary"],
        "chain.build_chain.s": incl["chain.build_chain"],
        "chain.renormalize.s": incl["chain.renormalize"],
        "chain.symbolic_stationary.self_s": own["chain.symbolic_stationary"],
        "chain.solve_renormalized.calls": solves,
        "poly.evaluate.s": incl["poly.evaluate"],
        "poly.evaluate.terms": counts["poly.evaluate.terms"],
        "poly.mul.s": incl["poly.mul"],
        "poly.mul.calls": calls["poly.mul"],
        "poly.mul.term_pairs": counts["poly.mul.term_pairs"],
        "poly.init.s": incl["poly.init"],
        "poly.add.s": incl["poly.add"],
        "poly.add.calls": calls["poly.add"],
        "poly.divided_difference.s": incl["poly.divided_difference"],
        "schubert.double_schubert.s": incl["schubert.double_schubert"],
        "schubert.apply_divided_differences.calls":
            calls["schubert.apply_divided_differences"],
        "formulas.main_formula.self_s": own["formulas.main_formula"],
        "formulas.xy_fact.s": incl["formulas.xy_fact"],
        "mlq.bully_project.s": incl["mlq.bully_project"],
        "mlq.queue_weight.s": incl["mlq.queue_weight"],
        "mlq.queue_type.s": incl["mlq.queue_type"],
        "mlq.iter_queues.queues": counts["mlq.iter_queues.queues"],
        "mlq.all_psi_via_mlq.self_s": own["mlq.all_psi_via_mlq"],
        "cli.verify.main.s": incl["cli.verify.main"],
        "cli.verify.mlq.s": incl["cli.verify.mlq"],
        "cli.cases": counts["cli.cases"],
    }
    out = {k: v / items for k, v in per.items()}
    # a ratio of totals, so it is not divided by the item count
    out["chain.solves_per_point"] = solves / points if points else 0.0
    starts = tracer.child_starts
    out["cli.start_s"] = sum(starts) / len(starts) if starts else 0.0
    return out
