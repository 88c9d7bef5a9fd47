"""Double and single Schubert polynomials, vexillary flags, and flagged
Schur functions via semistandard tableau enumeration.

A Schubert polynomial at w_0 is the top polynomial (the product
Delta(x, y) for the double version, the staircase monomial for the single
version); at any other w it is the divided difference at w's first ascent
i of the memoized entry at w s_i, so labels share the entries on their way
down to w_0.  The memo is per (n, w) and clear_caches() empties it.
"""

from __future__ import annotations

from . import perms
from .perms import Perm
from .poly import Poly

_double_cache: dict[tuple[int, Perm], Poly] = {}
_single_cache: dict[tuple[int, Perm], Poly] = {}


def delta(n: int) -> Poly:
    """The top polynomial: product of (x_i - y_j) over i + j <= n."""
    if n < 1:
        raise ValueError("n must be positive")
    out = Poly.const(n, 1)
    for i in range(1, n):
        for j in range(1, n - i + 1):
            out = out * (Poly.x(n, i) - Poly.y(n, j))
    return out


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


def _from_top(cache: dict, top, w: Perm) -> Poly:
    """top(n) at w = w_0, n = len(w); otherwise divided_difference(i + 1)
    of the entry at w s_{i+1}, i + 1 the first ascent of w.  Memoized in
    cache per (n, w), so every label shares the entries on its way down."""
    w = perms.check_perm(w)
    n = len(w)
    if (n, w) not in cache:
        i = next((i for i in range(n - 1) if w[i] < w[i + 1]), None)
        cache[n, w] = top(n) if i is None else _from_top(
            cache, top, w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        ).divided_difference(i + 1)
    return cache[n, w]


def double_schubert(w: Perm) -> Poly:
    """Divided differences along w^{-1} w_0 applied to delta(n)."""
    return _from_top(_double_cache, delta, w)


def single_schubert(w: Perm) -> Poly:
    """The y = 0 specialization, computed directly from the staircase
    monomial (an independent route from double_schubert)."""
    return _from_top(_single_cache, staircase_monomial, w)


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


def tableau_content(t: tuple, nvals: int) -> tuple:
    """Multiplicity vector of the entries 1..nvals."""
    counts = [0] * nvals
    for row in t:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def flagged_schur(shape_: tuple, bounds: tuple, nvars: int) -> Poly:
    """Sum of x^content(T) in x_1..x_nvars over the flagged tableau
    enumeration."""
    out = Poly.zero(nvars)
    for t in ssyt_enumerate(shape_, bounds):
        out = out + Poly.monomial(nvars, tableau_content(t, nvars))
    return out


def verify_flagged_factorization(w: Perm) -> bool:
    """Check single_schubert(w) == flagged_schur(shape(w), flag(w))."""
    if not is_vexillary(w):
        raise ValueError(f"{w} is not vexillary")
    n = len(w)
    return single_schubert(w) == flagged_schur(shape(w), flag(w), nvars=n)


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
    _double_cache.clear()
    _single_cache.clear()
