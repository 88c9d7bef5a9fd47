"""The four workloads.  Each is a closed loop with one caller: an item
starts only after the previous one has finished and been checked.

A workload has `setup(seed)` (the one-off cost before the first item),
`prepare()` (the next item's input, untimed), `run(inp, limit, tracer)`
(the timed item) and `check(inp, out)` (untimed; a list of errors).
`in_process` workloads are interrupted by the runner's alarm; the others
enforce `limit` themselves.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

import checks

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_n5.json"
CLI_ENTRY = HERE / "cli_entry.py"
OUT = HERE / "out"


class Deadline(BaseException):
    """The run's measuring time ran out inside an item.  Not an Exception,
    so no `except Exception` in the package can swallow it."""


class Workload:
    in_process = True

    def probe_argv(self, workload: str, seed: int) -> list[str]:
        """A fresh process that only sets this workload up."""
        return [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-only"]

    def verify_inputs(self) -> list[str]:
        return []


def parse_perm(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


class SolveN5(Workload):
    """`chain.solve_renormalized(5, p)` at seeded integer points, drawn as
    `sample_integer_params` draws them: x in [50, 120], y in [0, 30]."""
    n = 5

    def setup(self, seed: int) -> None:
        from ringtasep import chain
        self.chain = chain
        self.rng = random.Random(seed)

    def prepare(self):
        x = tuple(self.rng.randint(50, 120) for _ in range(self.n))
        y = tuple(self.rng.randint(0, 30) for _ in range(self.n))
        return x, y, self.chain.RateParams(x, y)

    def run(self, inp, limit, tracer):
        return self.chain.solve_renormalized(self.n, inp[2])

    def check(self, inp, out) -> list[str]:
        x, y, _ = inp
        return checks.check_chain_values(out, [Fraction(v) for v in x],
                                         [Fraction(v) for v in y])


class FormulaN5(Workload):
    """Expand `main_formula` for the 20 special states at n = 5 from cold
    Schubert caches and evaluate each at one rational point of the stored
    pool; the seed orders the pool."""

    def setup(self, seed: int) -> None:
        from ringtasep import formulas, schubert
        self.formulas, self.schubert = formulas, schubert
        data = json.loads(REFERENCE.read_text())
        self.states = [parse_perm(s) for s in data["special_states"]]
        self.pool = []
        for pt in data["points"]:
            x = tuple(Fraction(v) for v in pt["x"])
            y = tuple(Fraction(v) for v in pt["y"])
            psi = {parse_perm(k): Fraction(v) for k, v in pt["psi"].items()}
            self.pool.append((x, y, psi))
        order = list(range(len(self.pool)))
        random.Random(seed).shuffle(order)
        self.order = itertools.cycle(order)

    def verify_inputs(self) -> list[str]:
        """Re-certify the stored chain values before they judge anything."""
        errors = [] if len(self.states) == 20 else [
            f"{len(self.states)} special states stored, expected e(4) = 20"]
        for x, y, psi in self.pool:
            errors += checks.check_chain_values(psi, x, y)
        return errors

    def prepare(self):
        return self.pool[next(self.order)]

    def run(self, inp, limit, tracer):
        x, y, _ = inp
        self.schubert.clear_caches()
        return {w: self.formulas.main_formula(w).evaluate(x, y)
                for w in self.states}

    def check(self, inp, out) -> list[str]:
        psi = inp[2]
        return checks.check_formula_values(out, {w: psi[w] for w in self.states})


class QueueN6(Workload):
    """One full sweep of `mlq.all_psi_via_mlq(6)`: 162,000 queues, 720
    polynomials.  Every item does the same work; the seed only draws the
    point at which balance is checked."""
    n = 6

    def setup(self, seed: int) -> None:
        from ringtasep import mlq
        self.mlq = mlq
        self.rng = random.Random(seed)

    def prepare(self):
        return checks.queue_point(self.n, self.rng)

    def run(self, inp, limit, tracer):
        return self.mlq.all_psi_via_mlq(self.n)

    def check(self, inp, out) -> list[str]:
        return checks.check_queue_sums(
            list(out), lambda w: out[w].to_json_terms(), self.n, inp)


class VerifyN4(Workload):
    """`ringtasep --seed S verify --n 4 --suite main`, then `--suite mlq`,
    each in a fresh process as a user runs them."""
    in_process = False
    suites = (("main", 6), ("mlq", 24))  # cases: e(3) and 4!

    def setup(self, seed: int) -> None:
        self.seed = seed

    def probe_argv(self, workload: str, seed: int) -> list[str]:
        """A fresh CLI process doing almost nothing: its start-up cost."""
        return [sys.executable, str(CLI_ENTRY), "count", "--max-n", "1"]

    def prepare(self):
        return None

    def run(self, inp, limit, tracer):
        deadline = None if limit is None else perf_counter_ns() + limit * 1e9
        out = []
        for suite, _ in self.suites:
            argv = ["--seed", str(self.seed), "verify", "--n", "4",
                    "--suite", suite]
            out.append((suite,) + self._child(argv, deadline, tracer))
        return out

    def _child(self, argv, deadline, tracer):
        trace_file = OUT / f"child-spans-{os.getpid()}.json"
        head = ["--trace", str(trace_file)] if tracer else []
        spawned = perf_counter_ns()
        proc = subprocess.Popen([sys.executable, str(CLI_ENTRY)] + head + argv,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            timeout = (None if deadline is None
                       else max(0.0, (deadline - perf_counter_ns()) / 1e9))
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            trace_file.unlink(missing_ok=True)
            raise Deadline from None
        if tracer and proc.returncode == 0:
            data = json.loads(trace_file.read_text())
            trace_file.unlink()
            tracer.child_starts.append((data.pop("ready_ns") - spawned) / 1e9)
            tracer.merge(data, tracer.current())
        return proc.returncode, stdout, stderr

    def check(self, inp, out) -> list[str]:
        errors = []
        for (suite, cases), (_, code, stdout, stderr) in zip(self.suites, out):
            found = checks.check_verify_report(code, stdout, suite, cases)
            if found and stderr.strip():
                found.append(f"stderr: {stderr.strip()[-300:]}")
            errors += found
        return errors


WORKLOADS = {"solve-n5": SolveN5, "formula-n5": FormulaN5,
             "queue-n6": QueueN6, "verify-n4": VerifyN4}
