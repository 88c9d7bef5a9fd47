"""Double and single Schubert polynomials, vexillary flags, and flagged
Schur functions via semistandard tableau enumeration.

A Schubert polynomial at w_0 is the top polynomial (the product
Delta(x, y) for the double version, the staircase monomial for the single
version); at any other w it is the divided difference at w's first ascent
i of the memoized entry at w s_i, so labels share the entries on their way
down to w_0.  One functools.cache on (top, w) holds both flavours, and
clear_caches() empties it.
"""

from __future__ import annotations

import functools
from collections import Counter

from . import perms
from .perms import Perm
from .poly import Poly, product


def delta(n: int) -> Poly:
    """The top polynomial: product of (x_i - y_j) over i + j <= n."""
    if n < 1:
        raise ValueError("n must be positive")
    return product((Poly.x(n, i) - Poly.y(n, j)
                    for i in range(1, n) for j in range(1, n - i + 1)), n)


def staircase_monomial(n: int) -> Poly:
    """x_1^{n-1} x_2^{n-2} ... x_{n-1}."""
    return Poly.monomial(n, tuple(n - i for i in range(1, n + 1)))


def reduced_word(w: Perm) -> list[int]:
    """A deterministic reduced word for w: repeatedly swap at the smallest
    descent.  Returns (i_1..i_m) with w = s_{i_1} ... s_{i_m}."""
    u = list(w)
    swaps = []
    while True:
        i = next((i for i in range(len(u) - 1) if u[i] > u[i + 1]), None)
        if i is None:
            break
        swaps.append(i + 1)
        u[i], u[i + 1] = u[i + 1], u[i]
    swaps.reverse()
    return swaps


def apply_divided_differences(p: Poly, w: Perm) -> Poly:
    """Apply the operator chain of any reduced word of w to p."""
    # with word (i_1..i_m) the operator is dd_{i_1} o ... o dd_{i_m},
    # i.e. the rightmost letter acts first
    for i in reversed(reduced_word(w)):
        p = p.divided_difference(i)
    return p


@functools.cache
def _from_top(top, w: Perm) -> Poly:
    """The entry at a checked w: top(len(w)) at w_0, otherwise
    divided_difference(i + 1) of the entry at w s_{i+1}, i + 1 the first
    ascent of w.  Memoized per (top, w), so labels share their way down."""
    n = len(w)
    i = next((i for i in range(n - 1) if w[i] < w[i + 1]), None)
    return top(n) if i is None else _from_top(
        top, w[:i] + (w[i + 1], w[i]) + w[i + 2:]).divided_difference(i + 1)


def double_schubert(w: Perm) -> Poly:
    """Divided differences along w^{-1} w_0 applied to delta(n)."""
    return _from_top(delta, perms.check_perm(w))


def single_schubert(w: Perm) -> Poly:
    """The y = 0 specialization, computed directly from the staircase
    monomial (an independent route from double_schubert)."""
    return _from_top(staircase_monomial, perms.check_perm(w))


def is_vexillary(w: Perm) -> bool:
    """True iff w avoids 2143."""
    return not perms.contains_pattern(w, (2, 1, 4, 3))


def shape(w: Perm) -> tuple:
    """The code sorted decreasingly, trailing zeros stripped."""
    parts = sorted(perms.lehmer_code(w), reverse=True)
    return tuple(p for p in parts if p)


def flag(w: Perm) -> tuple:
    """Row bounds of a vexillary permutation: for each i with c_i != 0,
    the greatest j >= i with c_j >= c_i, sorted increasingly."""
    if not is_vexillary(w):
        raise ValueError(f"{w} is not vexillary")
    c = perms.lehmer_code(w)
    es = []
    for i, ci in enumerate(c):
        if ci:
            es.append(max(j for j in range(i, len(c)) if c[j] >= ci) + 1)
    return tuple(sorted(es))


def ssyt_enumerate(shape_: tuple, bounds: tuple) -> list[tuple]:
    """All semistandard tableaux of the given shape whose row-i entries are
    bounded above by bounds[i-1]."""
    shape_ = tuple(shape_)
    if any(a < b for a, b in zip(shape_, shape_[1:])) or any(p <= 0 for p in shape_):
        raise ValueError(f"not a partition: {shape_}")
    if len(bounds) < len(shape_):
        raise ValueError("not enough row bounds")
    if not shape_:
        return [()]

    results: list[tuple] = []
    rows: list[list[int]] = [[] for _ in shape_]

    def fill(r: int, c: int) -> None:
        if r == len(shape_):
            results.append(tuple(tuple(row) for row in rows))
            return
        if c == shape_[r]:
            fill(r + 1, 0)
            return
        lo = rows[r][c - 1] if c else 1
        if r and c < shape_[r - 1]:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, bounds[r] + 1):
            rows[r].append(v)
            fill(r, c + 1)
            rows[r].pop()

    fill(0, 0)
    return results


def flagged_schur(shape_: tuple, bounds: tuple, nvars: int) -> Poly:
    """Sum of x^content(T) in x_1..x_nvars over the flagged tableau
    enumeration.  A row bound above nvars raises ValueError."""
    if any(b > nvars for b in bounds[:len(shape_)]):
        raise ValueError(f"row bounds {tuple(bounds)} exceed nvars={nvars}")
    terms = Counter()
    for t in ssyt_enumerate(shape_, bounds):
        content = [0] * (2 * nvars)  # the y block stays zero
        for row in t:
            for v in row:
                content[v - 1] += 1
        terms[tuple(content)] += 1
    return Poly(nvars, terms)


def verify_flagged_factorization(w: Perm) -> bool:
    """Check single_schubert(w) == flagged_schur(shape(w), flag(w)); flag
    rejects a w that is not vexillary."""
    return flagged_schur(shape(w), flag(w), nvars=len(w)) == single_schubert(w)


def partitions_in_box(rows: int, cols: int):
    """All partitions with at most `rows` parts, each at most `cols`
    (including the empty partition)."""
    def rec(maxpart: int, remaining_rows: int):
        yield ()
        if not remaining_rows:
            return
        for first in range(maxpart, 0, -1):
            for rest in rec(first, remaining_rows - 1):
                yield (first,) + rest
    return list(rec(cols, rows))


def clear_caches() -> None:
    _from_top.cache_clear()
