"""Multiline queues: projection, weights, the queue-sum route to the
stationary probabilities at y = 0, and the Grassmannian tableau
correspondence.

A queue is an L x n occupancy grid.  Columns are numbered right to left in
all text and reading conventions; internally the grid is stored left to
right (index p holds column n - p) and the convention is applied only at
the read/print boundary.  For permutation states L = n - 1 and row r holds
exactly r balls.  A projected queue prints each ball as its class and each
vacancy as '.', which is what `ringtasep mlq --list` draws.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from . import perms, schubert
from .perms import Perm
from .poly import Poly


@dataclass(frozen=True)
class MultilineQueue:
    n: int
    rows: tuple  # per row, a sorted tuple of occupied grid indices (0-based)

    def __post_init__(self):
        for row in self.rows:
            if any(not 0 <= p < self.n for p in row):
                raise ValueError("ball index out of range")
            if tuple(sorted(set(row))) != tuple(row):
                raise ValueError("row occupancies must be sorted and distinct")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def to_text(self) -> str:
        """One line per row, leftmost character = column n."""
        return "\n".join(
            "".join("o" if p in row else "." for p in range(self.n))
            for row in self.rows)

    @classmethod
    def from_text(cls, text: str) -> "MultilineQueue":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        n = len(lines[0])
        if any(len(ln) != n for ln in lines):
            raise ValueError("ragged queue text")
        rows = tuple(tuple(p for p, ch in enumerate(ln) if ch == "o")
                     for ln in lines)
        return cls(n, rows)

    @classmethod
    def from_columns(cls, n: int, rows_by_column) -> "MultilineQueue":
        """Build from per-row lists of column numbers (right-to-left
        numbering, 1-based)."""
        return cls(n, tuple(tuple(sorted(n - c for c in row))
                            for row in rows_by_column))


@dataclass(frozen=True)
class ProjectedQueue:
    queue: MultilineQueue
    classes: tuple   # per row, a dict from grid index to class
    covered: tuple   # ((row, index, class), ...) per covered vacancy

    def to_text(self) -> str:
        """One line per row, each ball drawn as its class and each vacancy
        as '.', leftmost character = column n."""
        return "\n".join(
            "".join(str(cl.get(p, ".")) for p in range(self.queue.n))
            for cl in self.classes)


def bully_project(q: MultilineQueue) -> ProjectedQueue:
    """Assign classes top-down and record vacancy coverage, one row at a
    time from the row above and its own balls.

    Row-1 balls are class 1.  Within a row, balls are processed in
    increasing class order; each matches the unmatched ball directly below
    if any, else the first unmatched ball to the right (wrapping).  A
    vacancy is recorded as i-covered by the first matching path to pass
    it, which is the path of the smallest class i that does.
    """
    n = q.n
    classes: list[dict[int, int]] = [dict.fromkeys(q.rows[0], 1)]
    covered: list[tuple[int, int, int]] = []
    for r in range(q.num_rows - 1):
        above, passed = classes[r], {}
        unmatched = set(q.rows[r + 1])
        # balls below start as new; positions missing from cur are vacancies
        cur = dict.fromkeys(q.rows[r + 1], r + 2)
        for p in sorted(q.rows[r], key=lambda p: (above[p], p)):
            cls = above[p]
            while p not in unmatched:
                if p not in cur:
                    passed.setdefault(p, cls)
                p = (p + 1) % n
            unmatched.remove(p)
            cur[p] = cls
        classes.append(cur)
        for p in sorted(passed):
            covered.append((r + 2, p, passed[p]))
    return ProjectedQueue(q, tuple(classes), tuple(covered))


def queue_type(pq: ProjectedQueue) -> tuple:
    """Bottom-row classes read right to left, vacancies reading L + 1."""
    q = pq.queue
    bottom = pq.classes[-1]
    return tuple(bottom.get(q.n - c, q.num_rows + 1)
                 for c in range(1, q.n + 1))


def queue_weight(pq: ProjectedQueue) -> tuple:
    """Exponent vector of the queue weight monomial in x_1..x_L.

    x_i carries the vacancies strictly below row i; each i-covered vacancy
    in row r moves one unit of weight from x_i to x_r.  The final exponents
    are always nonnegative integers.
    """
    q = pq.queue
    L = q.num_rows
    vac = [q.n - len(row) for row in q.rows]
    exps = [0] * L
    for i in range(1, L):  # x_i^{V_i} for i <= L - 1
        exps[i - 1] = sum(vac[i:])
    for row, _idx, cls in pq.covered:
        exps[row - 1] += 1
        exps[cls - 1] -= 1
    if any(e < 0 for e in exps):
        raise AssertionError(f"negative weight exponent for queue\n{q.to_text()}")
    return tuple(exps)


def iter_queues(n: int) -> Iterator[MultilineQueue]:
    """All (n-1) x n queues with row ball counts 1, 2, ..., n-1."""
    if n < 2:
        raise ValueError("n must be at least 2")
    choices = [itertools.combinations(range(n), r) for r in range(1, n)]
    for rows in itertools.product(*choices):
        yield MultilineQueue(n, tuple(rows))


def queues_of_type(w: Perm) -> Iterator[ProjectedQueue]:
    """The projected queues of type w, in `iter_queues` order."""
    w = perms.check_perm(w)
    for q in iter_queues(len(w)):
        pq = bully_project(q)
        if queue_type(pq) == w:
            yield pq


def psi_via_mlq(w: Perm) -> Poly:
    """Stationary probability at y = 0 as the weight sum over all queues
    projecting to w."""
    w = perms.check_perm(w)
    return all_psi_via_mlq(len(w)).get(w, Poly.zero(len(w)))


def all_psi_via_mlq(n: int) -> dict:
    """One full enumeration sweep: state -> weight-sum polynomial."""
    out: dict[Perm, Poly] = {}
    for q in iter_queues(n):
        pq = bully_project(q)
        w = queue_type(pq)
        exps = queue_weight(pq) + (0,)
        term = Poly.monomial(n, exps)
        out[w] = out.get(w, Poly.zero(n)) + term
    return out


# -- Grassmannian correspondence -------------------------------------------

def w_of_partition(lam, n: int) -> tuple:
    """Lattice-path permutation of a partition, plus the horizontal-step
    labels d that immediately follow vertical steps.

    The partition's southeast border is walked from its top-right corner to
    the origin; vertical steps are labeled 1..H top to bottom (H rows,
    counting appended zero rows so that H + lam_1 = n) and horizontal steps
    continue H+1, H+2, ... from right to left.
    """
    lam = tuple(lam)
    if any(p < 0 for p in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"not a partition: {lam}")
    lam = tuple(p for p in lam if p)
    width = lam[0] if lam else 0
    H = n - width
    if H < len(lam):
        raise ValueError(f"partition {lam} does not fit n={n}")
    parts = lam + (0,) * (H - len(lam))
    word: list[int] = []
    d: list[int] = []
    hlabel = H + 1
    for r in range(H):
        word.append(r + 1)
        drop = parts[r] - (parts[r + 1] if r + 1 < H else 0)
        for step in range(drop):
            if step == 0:
                d.append(hlabel)
            word.append(hlabel)
            hlabel += 1
    return perms.check_perm(word), tuple(d)


def d_prime(lam, d) -> tuple:
    """Flag vector: for lam = (mu_1^{b_1}, ..., mu_k^{b_k}) concatenate
    (d_i - b_i, ..., d_i - 1) for each block."""
    lam = tuple(p for p in lam if p)
    blocks = [(mu, len(list(g))) for mu, g in itertools.groupby(lam)]
    if len(blocks) != len(d):
        raise ValueError("one d entry per distinct part value is required")
    out: list[int] = []
    for (mu, b), di in zip(blocks, d):
        out.extend(range(di - b, di))
    return tuple(out)


def verify_grassmannian_bijection(lam, n: int) -> bool:
    """Weight-multiset consequence of the queue/tableau correspondence.

    Compares the multiset of queue weights over MLQ(w(lam)) with the
    multiset of tableau content monomials over SSYT(lam, d'), up to one
    global Laurent-monomial shift K (computed from the minimal elements,
    then validated on the whole multiset).  Also requires equal
    cardinalities.
    """
    lam = tuple(p for p in lam if p)
    w, d = w_of_partition(lam, n)
    dp = d_prime(lam, d)

    weights = Counter(queue_weight(pq) for pq in queues_of_type(w))

    tabs = Counter()
    for t in schubert.ssyt_enumerate(lam, dp):
        tabs[schubert.tableau_content(t, n - 1)] += 1

    if not weights or sum(weights.values()) != sum(tabs.values()):
        return False
    shift = tuple(a - b for a, b in zip(min(weights), min(tabs)))
    shifted = Counter({tuple(a + b for a, b in zip(exp, shift)): c
                       for exp, c in tabs.items()})
    return shifted == weights
