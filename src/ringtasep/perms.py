"""Permutations in one-line notation, Lehmer codes, and pattern machinery.

Permutations are tuples of the values 1..n (1-indexed positions throughout).
The serialized form everywhere is comma-separated one-line notation, e.g.
"1,4,5,2,3".
"""

from __future__ import annotations

import itertools
from typing import Iterator

Perm = tuple  # of ints, a bijection on {1..n}

# the four patterns whose avoidance characterizes the states with
# product-form stationary probabilities
EVIL_PATTERNS: tuple[Perm, ...] = ((2, 4, 1, 3), (3, 2, 1, 4),
                                   (4, 1, 3, 2), (4, 2, 1, 3))


def check_perm(w) -> Perm:
    w = tuple(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
    return w


def parse_perm(text: str) -> Perm:
    """Parse comma-separated one-line notation."""
    try:
        letters = [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"not comma-separated integers: {text!r}") from None
    return check_perm(letters)


def perm_str(w: Perm) -> str:
    return ",".join(str(v) for v in w)


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def compose(u: Perm, v: Perm) -> Perm:
    """(u v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(u)))


def inversions(w: Perm) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def lehmer_code(w: Perm) -> tuple:
    """c_i = #{j > i : w(j) < w(i)}, the row counts of the Rothe diagram."""
    n = len(w)
    return tuple(sum(1 for j in range(i + 1, n) if w[j] < w[i])
                 for i in range(n))


def code_to_perm(c) -> Perm:
    """Inverse of lehmer_code: w_i is the (c_i+1)-th smallest unused value."""
    c = tuple(c)
    n = len(c)
    unused = list(range(1, n + 1))
    out = []
    for i, ci in enumerate(c):
        if not 0 <= ci <= n - i - 1:
            raise ValueError(f"invalid Lehmer code {c}: entry {ci} at position "
                             f"{i + 1} exceeds {n - i - 1}")
        out.append(unused.pop(ci))
    return tuple(out)


def is_valid_code(c) -> bool:
    return all(0 <= ci <= len(c) - i - 1 for i, ci in enumerate(c))


def _spells(w: Perm, subsets, patterns) -> bool:
    """True iff the letters of w at some subset of positions (a tuple of
    increasing indices), standardized to 1..k, form one of the patterns.
    Each subset's letters are sorted once."""
    for idx in subsets:
        vals = [w[i] for i in idx]
        rank = {v: r for r, v in enumerate(sorted(vals), 1)}
        if tuple(map(rank.__getitem__, vals)) in patterns:
            return True
    return False


def contains_pattern(w: Perm, p: Perm) -> bool:
    """True iff some subsequence of w is order-isomorphic to the
    permutation p."""
    return _spells(w, itertools.combinations(range(len(w)), len(p)),
                   {tuple(p)})


def is_evil_avoiding(w: Perm) -> bool:
    """True iff w avoids 2413, 3214, 4132 and 4213."""
    return not _spells(w, itertools.combinations(range(len(w)), 4),
                       EVIL_PATTERNS)


def inv_descent_count(w: Perm) -> int:
    """Number of letters a of w with a+1 appearing to its left.

    Equals the descent count of the inverse permutation.
    """
    pos = {v: i for i, v in enumerate(w)}
    return sum(1 for a in range(1, len(w)) if pos[a + 1] < pos[a])


def is_special_state(w: Perm) -> bool:
    """Member of the product-formula class: w_1 = 1 and evil-avoiding."""
    return bool(w) and w[0] == 1 and is_evil_avoiding(w)


def enumerate_states(n: int, k: int | None = None) -> list[Perm]:
    """All evil-avoiding w with w_1 = 1 (optionally with a fixed inverse
    descent count), in lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")
    return sorted(w for w in evil_avoiders(n)
                  if w[0] == 1 and (k is None or inv_descent_count(w) == k))


def iter_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def evil_avoiders(n: int) -> list[Perm]:
    """Every evil-avoiding permutation of S_n, by filtering insertions:
    deleting a letter from an avoider leaves an avoider, so the avoiders of
    S_m are those of S_{m-1} with m inserted at a position p through which
    no 4-subset of positions spells an evil pattern."""
    level: list[Perm] = [()]
    for m in range(1, n + 1):
        quads = list(itertools.combinations(range(m), 4))
        through = [[q for q in quads if p in q] for p in range(m)]
        level = [w for u in level for p in range(m)
                 for w in [u[:p] + (m,) + u[p:]]
                 if not _spells(w, through[p], EVIL_PATTERNS)]
    return level


def count_evil_avoiding(n: int) -> int:
    """Count evil-avoiding permutations in all of S_n by filtering."""
    if n < 1:
        raise ValueError("n must be positive")
    return len(evil_avoiders(n))


def count_evil_avoiding_recurrence(n: int) -> int:
    """e(1)=1, e(2)=2, e(n) = 4 e(n-1) - 2 e(n-2)."""
    if n < 1:
        raise ValueError("n must be positive")
    a, b = 1, 2
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, 4 * b - 2 * a
    return b


def count_evil_avoiding_closed_form(n: int) -> int:
    """Round of ((2+sqrt 2)^(n-1) + (2-sqrt 2)^(n-1)) / 2, computed exactly.

    (2+s)^m + (2-s)^m with s = sqrt 2 is an integer: twice the even part of
    the binomial expansion.
    """
    m = n - 1
    # expand (2+s)^m = A + B s; the sum of the conjugate pair is 2A
    a, b = 1, 0  # A + B s
    for _ in range(m):
        a, b = 2 * a + 2 * b, a + 2 * b
    return a
