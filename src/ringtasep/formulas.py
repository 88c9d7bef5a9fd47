"""Closed formulas for the stationary probabilities of the special states:
the partition-sequence map, the code-building map g_n, the (x, y) prefactor,
the product formulas, and the extractable monomial factor.
"""

from __future__ import annotations

import itertools
import math

from . import perms, schubert
from .perms import Perm
from .poly import Poly, product


class FormulaDomainError(ValueError):
    """Raised when a state is outside the product-formula class."""


def psi_partitions(w: Perm) -> tuple:
    """The sequence of partitions attached to a special state.

    With c the Lehmer code of w^{-1} and a_1 < ... < a_k the (strict)
    descent positions of c, the i-th partition is
    (n - a_i)^(a_i) - (0^(a_{i-1}), c_{a_{i-1}+1}, ..., c_{a_i}),
    trailing zeros stripped.
    """
    w = perms.check_perm(w)
    if not perms.is_special_state(w):
        raise FormulaDomainError(
            f"formula does not apply: {perms.perm_str(w)} is not an "
            "evil-avoiding state with first letter 1")
    n = len(w)
    c = perms.lehmer_code(perms.inverse(w))
    desc = [i + 1 for i in range(n - 1) if c[i] > c[i + 1]]
    lams = []
    prev = 0
    for a in desc:
        lam = []
        for pos in range(1, a + 1):
            sub = 0 if pos <= prev else c[pos - 1]
            lam.append(n - a - sub)
        if any(v < 0 for v in lam) or any(p < q for p, q in zip(lam, lam[1:])):
            raise AssertionError(f"malformed partition {lam} for state {w}")
        lams.append(tuple(v for v in lam if v))
        prev = a
    return tuple(lams)


def g_vector(n: int, lam) -> tuple:
    """Build a length-n Lehmer code from a partition of length <= n - 2.

    Writing lam = (mu_1^{k_1}, ..., mu_l^{k_l}) with mu_1 > ... > mu_l,
    step i sets v_{n - mu_i} = mu_i and then assigns mu_i to the first
    k_i - 1 unassigned components to its left; unassigned entries become 0.
    """
    lam = tuple(lam)
    if any(p <= 0 for p in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"not a partition: {lam}")
    if len(lam) > n - 2:
        raise ValueError(f"partition {lam} too long for n={n}")
    v: list[int | None] = [None] * n
    for mu, run in itertools.groupby(lam):
        anchor = n - mu - 1  # 0-indexed position n - mu
        if anchor < 0 or v[anchor] is not None:
            raise ValueError(f"partition {lam} does not fit n={n}")
        v[anchor] = mu
        remaining = len(list(run)) - 1
        pos = anchor - 1
        while remaining and pos >= 0:
            if v[pos] is None:
                v[pos] = mu
                remaining -= 1
            pos -= 1
        if remaining:
            raise ValueError(f"partition {lam} does not fit n={n}")
    code = tuple(0 if e is None else e for e in v)
    if not perms.is_valid_code(code):
        raise AssertionError(f"g produced an invalid Lehmer code {code}")
    return code


def cyclic_order(a: int, b: int, c: int, w: Perm) -> bool:
    """True iff reading w cyclically starting at letter a, letter b is met
    before letter c."""
    if len({a, b, c}) != 3:
        raise ValueError(f"letters must be distinct: {(a, b, c)}")
    n = len(w)
    pos = {v: i for i, v in enumerate(w)}
    for v in (a, b, c):
        if v not in pos:
            raise ValueError(f"letter {v} not in {w}")
    db = (pos[b] - pos[a]) % n
    dc = (pos[c] - pos[a]) % n
    return db < dc


def xy_fact(w: Perm) -> Poly:
    """The prefactor: for each i and each k > i + 1 with i -> i+1 -> k in
    cyclic order, the product (x_1 - y_{n+1-k}) ... (x_i - y_{n+1-k})."""
    w = perms.check_perm(w)
    n = len(w)
    return product((Poly.x(n, t) - Poly.y(n, n + 1 - k)
                    for i in range(1, n - 1) for k in range(i + 2, n + 1)
                    if cyclic_order(i, i + 1, k, w)
                    for t in range(1, i + 1)), n)


def factor_permutations(w: Perm) -> tuple:
    """The Schubert labels of the product formula: one permutation per
    partition in the sequence attached to w."""
    n = len(w)
    return tuple(perms.code_to_perm(g_vector(n, lam))
                 for lam in psi_partitions(w))


def main_formula(w: Perm) -> Poly:
    """Product formula over Z[x, y]: xy_fact(w) times the double Schubert
    polynomials of the factor permutations.  psi_partitions rejects a w
    outside the formula class."""
    factors = [schubert.double_schubert(u) for u in factor_permutations(w)]
    return xy_fact(w) * product(factors, len(w))


def main_formula_y0(w: Perm) -> tuple:
    """The y = 0 form: an x-monomial exponent mu and the single Schubert
    factors.  mu = (C(n-1,2), C(n-2,2), ..., C(2,2)) minus the sum of the
    attached partitions, padded to length n - 2."""
    lams = psi_partitions(w)
    n = len(w)
    mu = [math.comb(n - 1 - i, 2) for i in range(n - 2)]
    for lam in lams:
        for i, part in enumerate(lam):
            mu[i] -= part
    if any(m < 0 for m in mu):
        raise AssertionError(f"negative monomial exponent {mu} for state {w}")
    factors = [schubert.single_schubert(u) for u in factor_permutations(w)]
    return tuple(mu), factors


def assemble_y0(w: Perm) -> Poly:
    """Expand the y = 0 form into a single polynomial."""
    mu, factors = main_formula_y0(w)
    n = len(w)
    return Poly.monomial(n, mu) * product(factors, n)


def ring_gap_counts(w: Perm) -> tuple:
    """a_i(w) for i = 1..n-2: the number of letters greater than i + 1
    strictly between letter i + 1 and letter i, reading the ring in the
    index-increasing direction with wraparound."""
    w = perms.check_perm(w)
    n = len(w)
    pos = {v: i for i, v in enumerate(w)}
    counts = []
    for i in range(1, n - 1):
        p = (pos[i + 1] + 1) % n
        stop = pos[i]
        a = 0
        while p != stop:
            if w[p] > i + 1:
                a += 1
            p = (p + 1) % n
        counts.append(a)
    return tuple(counts)


def eta(w: Perm) -> tuple:
    """x-exponent vector of the largest monomial dividing the stationary
    probability at y = 0: x_i carries a_i + a_{i+1} + ... + a_{n-2}."""
    counts = ring_gap_counts(w)
    n = len(w)
    exps = []
    tail = sum(counts)
    for i in range(n - 2):
        exps.append(tail)
        tail -= counts[i]
    return tuple(exps) + (0,) * 2
