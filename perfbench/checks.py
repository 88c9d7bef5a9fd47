"""Output checks for the benchmark, written apart from the package.

Nothing here imports `ringtasep`.  The ring dynamics are rebuilt from the
rate definition: particles i (left) and j (right) on adjacent sites swap
at rate x_i - y_{n+1-j} when i < j, the pair (site n, site 1) included.
Every checker returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction

MAX_ERRORS = 5


def states(n: int) -> list[tuple]:
    return list(itertools.permutations(range(1, n + 1)))


def rotations(w: tuple) -> list[tuple]:
    return [w[k:] + w[:k] for k in range(1, len(w))]


def balance_residuals(psi: dict, x, y) -> dict:
    """Inflow minus outflow at every state, for values `psi` at the point
    (x, y).  A stationary vector has every residual zero."""
    n = len(x)
    res = {w: 0 for w in psi}
    for u, value in psi.items():
        for p in range(n):
            q = (p + 1) % n
            i, j = u[p], u[q]
            if i < j:
                flow = value * (x[i - 1] - y[n - j])
                t = list(u)
                t[p], t[q] = j, i
                res[u] -= flow
                res[tuple(t)] += flow
    return res


def identity_target(x, y):
    """prod_{i<j} (x_i - y_{n+1-j})^(j-i-1), the identity state's value."""
    n = len(x)
    return math.prod((x[i - 1] - y[n - j]) ** (j - i - 1)
                     for i in range(1, n + 1) for j in range(i + 1, n + 1))


def check_chain_values(psi: dict, x, y) -> list[str]:
    """Certify renormalized stationary values at one point.

    Balance plus the identity normalization pin the vector down exactly,
    because the chain is irreducible when every rate is positive."""
    n = len(x)
    errors = []
    if set(psi) != set(states(n)):
        return [f"expected the {math.factorial(n)} states of n={n}, "
                f"got {len(psi)}"]
    errors += [f"psi{w} = {v} is not positive"
               for w, v in psi.items() if not v > 0]
    errors += [f"balance residual {r} at {w}"
               for w, r in balance_residuals(psi, x, y).items() if r]
    want = identity_target(x, y)
    ident = tuple(range(1, n + 1))
    if psi[ident] != want:
        errors.append(f"identity value {psi[ident]} != product {want}")
    errors += [f"psi{r} != psi{w}" for w in psi for r in rotations(w)
               if psi[r] != psi[w]]
    return errors[:MAX_ERRORS]


def check_formula_values(got: dict, reference: dict) -> list[str]:
    """Formula values must equal the certified chain values exactly."""
    if set(got) != set(reference):
        return [f"formula states {sorted(got)} != {sorted(reference)}"]
    return [f"formula {w}: {got[w]} != chain {reference[w]}"
            for w in got if got[w] != reference[w]][:MAX_ERRORS]


# -- queue sums ---------------------------------------------------------------

# Schwartz-Zippel: a nonzero balance residual has degree C(n,3) + 1 in x,
# so it vanishes at a point drawn uniformly from [1, QUEUE_POINT_MAX]^n with
# probability at most (C(n,3) + 1) / QUEUE_POINT_MAX, below 2e-11 at n = 6.
QUEUE_POINT_MAX = 2 ** 40


def queue_point(n: int, rng: random.Random) -> tuple:
    return tuple(rng.randint(1, QUEUE_POINT_MAX) for _ in range(n))


def check_queue_sums(states_: list, terms_of, n: int, x: tuple) -> list[str]:
    """Queue weight sums at y = 0 for the given states, each read through
    `terms_of(state)` as a `Poly.to_json_terms()` list, one state at a time
    so the check adds little to the workload's peak memory.  Balance is
    tested at the integer point x."""
    if set(states_) != set(states(n)):
        return [f"expected the {math.factorial(n)} states of n={n}, "
                f"got {len(states_)}"]
    degree = math.comb(n, 3)
    errors = []
    total = 0
    digest, value = {}, {}
    for w in states_:
        terms = terms_of(w)
        v = 0
        for t in terms:
            total += t["coef"]
            if any(t["yexp"]) or sum(t["xexp"]) != degree:
                errors.append(f"{w}: term {t} is not an x-monomial of "
                              f"degree {degree}")
            v += t["coef"] * math.prod(a ** e for a, e in zip(x, t["xexp"]))
        value[w] = v
        digest[w] = hashlib.sha256(json.dumps(terms).encode()).digest()
    queues = math.prod(math.comb(n, r) for r in range(1, n))
    if total != queues:
        errors.append(f"coefficients sum to {total}, not {queues} queues")
    ident = tuple(range(1, n + 1))
    want = [{"coef": 1, "xexp": [math.comb(n - i, 2) for i in range(1, n + 1)],
             "yexp": [0] * n}]
    if terms_of(ident) != want:
        errors.append(f"identity sum {terms_of(ident)} != {want}")
    errors += [f"queue sum at {r} differs from {w}"
               for w in digest for r in rotations(w) if digest[r] != digest[w]]
    errors += [f"balance residual {r} at {w}" for w, r in
               balance_residuals(value, x, (0,) * n).items() if r]
    return errors[:MAX_ERRORS]


# -- CLI verify reports ---------------------------------------------------------

_SUMMARY = re.compile(r"^(\w+): (\d+) cases, all passed$")


def check_verify_report(returncode: int, stdout: str, suite: str,
                        cases: int) -> list[str]:
    """A `ringtasep verify` run must exit 0 with one PASS line per case and
    a matching summary line."""
    errors = []
    if returncode != 0:
        errors.append(f"verify --suite {suite} exited {returncode}")
    lines = stdout.splitlines()
    if not lines:
        return errors + [f"verify --suite {suite} printed nothing"]
    body, summary = lines[:-1], lines[-1]
    errors += [f"not a PASS line: {ln!r}" for ln in body
               if not ln.startswith("PASS ")]
    if len(body) != cases:
        errors.append(f"{len(body)} case lines, expected {cases}")
    m = _SUMMARY.match(summary)
    if not m or m.group(1) != suite or int(m.group(2)) != cases:
        errors.append(f"summary {summary!r} is not "
                      f"'{suite}: {cases} cases, all passed'")
    return errors[:MAX_ERRORS]


# -- rational points, drawn the way identity testing draws them -------------------

def rational_point(n: int, rng: random.Random) -> tuple:
    """x in [1, 2], y in [0, 1), each with a denominator drawn up to 10^6."""
    def frac(shift):
        den = rng.randint(2, 10 ** 6)
        return shift + Fraction(rng.randint(0, den - 1), den)
    return tuple(frac(1) for _ in range(n)), tuple(frac(0) for _ in range(n))
