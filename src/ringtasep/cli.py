"""Command-line interface: exact stationary solves, formula expansion,
queue sums, Schubert expansion, enumeration, and verification suites.

All tables print states in lexicographic order and polynomials in canonical
term order, so output is byte-identical across runs with the same argv and
seed.  A ValueError is bad input: one stderr line, exit code 2.  An
AssertionError is a failed internal check: exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import chain, formulas, mlq, perms, schubert
from .chain import RateParams
from .poly import Poly

JSON_SCHEMA = 1


@dataclass
class CaseResult:
    name: str
    ok: bool
    expected: str = ""
    actual: str = ""
    seconds: float = 0.0


@dataclass
class RunReport:
    suite: str
    cases: list = field(default_factory=list)
    stamp: float = field(default_factory=lambda: time.monotonic())

    def record(self, name: str, ok: bool, expected: str = "",
               actual: str = "") -> None:
        """Add a case timed since the previous case, or since the report
        started."""
        now = time.monotonic()
        self.cases.append(CaseResult(name, ok, expected, actual,
                                     now - self.stamp))
        self.stamp = now

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def emit(self, out, as_json: bool, timings: bool) -> None:
        if as_json:
            _print_json(out, suite=self.suite, ok=self.ok, cases=[
                {"name": c.name, "ok": c.ok,
                 **({"expected": c.expected, "actual": c.actual}
                    if not c.ok else {}),
                 **({"seconds": round(c.seconds, 3)} if timings else {})}
                for c in self.cases])
            return
        for c in self.cases:
            line = f"{'PASS' if c.ok else 'FAIL'} {c.name}"
            if timings:
                line += f"  ({c.seconds:.3f}s)"
            print(line, file=out)
            if not c.ok:
                print(f"  expected: {c.expected}", file=out)
                print(f"  actual:   {c.actual}", file=out)
        status = "all passed" if self.ok else "FAILURES"
        print(f"{self.suite}: {len(self.cases)} cases, {status}", file=out)


def _print_json(out, **fields) -> None:
    print(json.dumps({"schema": JSON_SCHEMA, **fields}, indent=2), file=out)


# -- parameter handling ----------------------------------------------------

def _rational(text: str, item: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {item!r}")
    except ValueError:
        raise ValueError(f"bad value in {item!r}")


def _load_params(args, n: int) -> RateParams:
    if args.params:
        try:
            with open(args.params) as fh:
                vals = [_rational(s, s) for ln in fh if (s := ln.strip())]
        except OSError as exc:
            raise ValueError(f"cannot read params file: {exc}")
        if len(vals) != 2 * n:
            raise ValueError(f"params file must hold {2 * n} rationals "
                             f"(x block then y block), got {len(vals)}")
        return RateParams(vals[:n], vals[n:])
    xvals = [Fraction(0)] * n
    seen = set()
    if args.eval:
        for item in args.eval.split(","):
            name, _, val = item.partition("=")
            name = name.strip()
            if not name.startswith("x"):
                raise ValueError(f"--eval assigns x variables only: {item!r}")
            try:
                idx = int(name[1:])
            except ValueError:
                raise ValueError(f"bad x index in {item!r}")
            if not 1 <= idx <= n:
                raise ValueError(f"x index out of range in {item!r}")
            if idx in seen:
                raise ValueError(f"x{idx} assigned twice in {item!r}")
            xvals[idx - 1] = _rational(val, item)
            seen.add(idx)
    if args.y_zero:
        missing = [i for i in range(1, n + 1) if i not in seen]
        if missing:
            raise ValueError(f"--eval must assign x{missing[0]}")
        return RateParams.y_zero(xvals)
    raise ValueError("provide --params FILE or --y-zero with --eval")


# -- subcommands -----------------------------------------------------------

def cmd_psi(args) -> int:
    n = args.n
    params = _load_params(args, n)
    psi = chain.solve_renormalized(n, params)
    rows = [(perms.perm_str(w), str(psi[w])) for w in sorted(psi)]
    if args.json:
        _print_json(sys.stdout, n=n, psi=dict(rows))
    else:
        for s, v in rows:
            print(f"{s}\t{v}")
    return 0


def cmd_formula(args) -> int:
    w = perms.parse_perm(args.state)
    n = len(w)
    lams = formulas.psi_partitions(w)
    gvecs = [formulas.g_vector(n, lam) for lam in lams]
    labels = formulas.factor_permutations(w)
    if args.y_zero:
        mu, factors = formulas.main_formula_y0(w)
        prefactor = Poly.monomial(n, mu)
        expanded = formulas.assemble_y0(w)
    else:
        prefactor = formulas.xy_fact(w)
        expanded = formulas.main_formula(w)
    if args.json:
        _print_json(sys.stdout, state=perms.perm_str(w),
                    partitions=[list(lam) for lam in lams],
                    g_vectors=[list(g) for g in gvecs],
                    factors=[perms.perm_str(u) for u in labels],
                    prefactor=prefactor.to_text(),
                    expanded=expanded.to_json_terms())
        return 0
    print(f"state:      {perms.perm_str(w)}")
    print(f"partitions: {' '.join(str(tuple(lam)) for lam in lams) or '()'}")
    for lam, g, u in zip(lams, gvecs, labels):
        print(f"  {tuple(lam)} -> code {perms.perm_str(g)}"
              f" -> factor {perms.perm_str(u)}")
    print(f"prefactor:  {prefactor.to_text()}")
    print(f"expanded:   {expanded.to_text()}")
    return 0


def cmd_count(args) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
    report = RunReport(suite="counts")
    _suite_counts(report, args.max_n, args.seed)
    for c in report.cases:
        if not c.ok:
            raise AssertionError(f"{c.name}: expected {c.expected}, "
                                 f"got {c.actual}")
    counts = [int(c.expected) for c in report.cases[::2]]  # 2 cases per n
    if args.json:
        _print_json(sys.stdout, counts=counts)
    else:
        print(" ".join(str(c) for c in counts))
    return 0


def cmd_mlq(args) -> int:
    w = perms.parse_perm(args.state)
    n = len(w)
    if args.list:
        lines = [(pq.to_text(),
                  Poly.monomial(n, mlq.queue_weight(pq)).to_text())
                 for pq in mlq.queues_of_type(w)]
        if args.json:
            _print_json(sys.stdout, state=perms.perm_str(w),
                        queues=[{"grid": g, "weight": wt}
                                for g, wt in lines])
        else:
            for g, wt in lines:
                print(g)
                print(f"weight: {wt}")
                print()
            print(f"{len(lines)} queues")
    else:
        total = mlq.psi_via_mlq(w)
        if args.json:
            _print_json(sys.stdout, state=perms.perm_str(w),
                        psi=total.to_json_terms())
        else:
            print(total.to_text())
    return 0


def cmd_schubert(args) -> int:
    w = perms.parse_perm(args.perm)
    p = (schubert.single_schubert(w) if args.single
         else schubert.double_schubert(w))
    if args.json:
        _print_json(sys.stdout, perm=perms.perm_str(w),
                    single=bool(args.single), poly=p.to_json_terms())
    else:
        print(p.to_text())
    return 0


# -- verification suites ---------------------------------------------------

def _suite_counts(report: RunReport, n: int, seed: int) -> None:
    for m in range(1, n + 1):
        want = perms.count_evil_avoiding_recurrence(m)
        for name, count in (("filter vs recurrence", perms.count_evil_avoiding),
                            ("closed form",
                             perms.count_evil_avoiding_closed_form)):
            got = count(m)
            report.record(f"count n={m} {name}", got == want, str(want),
                          str(got))


def _record_points(report: RunReport, label: str, route, states,
                   points) -> None:
    """One case per state: route(w) against the chain solve at the points."""
    for w, ok in chain.compare_with_solver(route, states, points):
        report.record(label.format(perms.perm_str(w)), ok,
                      "equal at all points", "ok" if ok else "mismatch")


def _suite_main(report: RunReport, n: int, seed: int) -> None:
    states = perms.enumerate_states(n)
    if n <= chain.SYMBOLIC_MAX_N:
        psis = chain.symbolic_stationary(n)
        for w in states:
            got = formulas.main_formula(w)
            report.record(f"product formula {perms.perm_str(w)} (symbolic)",
                          got == psis[w], psis[w].to_text(), got.to_text())
    else:
        # a wrong formula survives with probability at most
        # (C(n, 3) * eps)^5, < 6.3e-56 at n = 5 (see chain.sample_points)
        _record_points(report, "product formula {} (5 points)",
                       formulas.main_formula, states,
                       chain.sample_points(n, trials=5, seed=seed))


def _suite_eta(report: RunReport, n: int, seed: int) -> None:
    psis = mlq.all_psi_via_mlq(n)
    for w in sorted(psis):
        content, _ = psis[w].monomial_content()
        got = content[:n]
        want = formulas.eta(w)
        report.record(f"monomial factor {perms.perm_str(w)}",
                      got == want, str(want), str(got))


def _suite_mlq(report: RunReport, n: int, seed: int) -> None:
    queue_psis = mlq.all_psi_via_mlq(n)
    # the queue sums have no y: compare at the sampled x with y = 0; a wrong
    # queue sum survives with probability at most (C(n, 3) * eps)^3,
    # < 6.1e-33 at n = 6 (see chain.sample_points)
    points = [RateParams.y_zero(p.xvals)
              for p in chain.sample_points(n, trials=3, seed=seed)]
    _record_points(report, "queue sum vs solver {}", queue_psis.__getitem__,
                   sorted(queue_psis), points)


def _suite_flags(report: RunReport, n: int, seed: int) -> None:
    for w in perms.iter_perms(n):
        if schubert.is_vexillary(w):
            ok = schubert.verify_flagged_factorization(w)
            report.record(f"flagged factorization {perms.perm_str(w)}",
                          ok, "equal", "ok" if ok else "mismatch")


SUITES = {
    "counts": _suite_counts,
    "main": _suite_main,
    "eta": _suite_eta,
    "mlq": _suite_mlq,
    "flags": _suite_flags,
}


def cmd_verify(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    report = RunReport(suite=args.suite)
    SUITES[args.suite](report, args.n, args.seed)
    report.emit(sys.stdout, args.json, args.timings)
    return 0 if report.ok else 1


# -- entry point -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ringtasep",
        description="Exact stationary measures of the inhomogeneous TASEP "
                    "on a ring, with product-formula and queue-sum routes.")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized identity testing")
    ap.add_argument("--json", action="store_true",
                    help="emit machine-readable output")
    ap.add_argument("--timings", action="store_true",
                    help="include wall-clock times in reports")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="solve the chain at a parameter point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--params", help="file of 2n rationals, x block then y block")
    p.add_argument("--y-zero", action="store_true")
    p.add_argument("--eval", help="x assignments, e.g. x1=2,x2=1,x3=1")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("formula", help="expand the product formula for a state")
    p.add_argument("--state", required=True)
    p.add_argument("--y-zero", action="store_true")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("count", help="enumerate the pattern-avoiding class")
    p.add_argument("--max-n", type=int, default=6)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("mlq", help="queue sums for a state")
    p.add_argument("--state", required=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_mlq)

    p = sub.add_parser("schubert", help="expand a Schubert polynomial")
    p.add_argument("--perm", required=True)
    p.add_argument("--single", action="store_true",
                   help="y = 0 specialization")
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except AssertionError as exc:
        # an internal invariant or certificate failed: a bug, not bad input
        print("internal check failed:", *str(exc).splitlines(),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
