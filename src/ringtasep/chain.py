"""The inhomogeneous TASEP on a ring: chain construction and exact
stationary distributions.

The rates depend only on particle labels, so the generator commutes with
rotating the ring and the stationary vector is rotation invariant.  Both
solves therefore find the null vector of the lumped balance system of the
(n-1)! rotation classes, represented by the states with w_1 = 1, and expand
it to all n! states.  `stationary` does so at a rational parameter point and
certifies the answer by exact substitution into every balance equation of
the full chain.  `symbolic_stationary` does so over Z[x, y], scales the
identity state's entry to the normalization product, and certifies the
polynomials by exact symbolic balance substitution.

Each ring has one exact kernel.  The ints use fraction-free (Bareiss)
elimination and back-substitution by Cramer's rule, in which every
division is exact; Z[x, y], whose entries are linear, takes signed maximal
minors by memoized Laplace expansion and divides nowhere.  Both rings read
the chain's edge rates from one table of the n(n-1)/2 pair rates.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import perms
from .perms import Perm
from .poly import Poly

SYMBOLIC_MAX_N = 4


@dataclass(frozen=True)
class RateParams:
    """One rational value per variable, x block and y block."""
    xvals: tuple
    yvals: tuple

    def __post_init__(self):
        object.__setattr__(self, "xvals", tuple(Fraction(v) for v in self.xvals))
        object.__setattr__(self, "yvals", tuple(Fraction(v) for v in self.yvals))
        if len(self.xvals) != len(self.yvals):
            raise ValueError("x and y blocks must have equal length")

    @property
    def n(self) -> int:
        return len(self.xvals)

    @classmethod
    def y_zero(cls, xvals) -> "RateParams":
        xvals = tuple(xvals)
        return cls(xvals, (Fraction(0),) * len(xvals))

    def all_rates_positive(self) -> bool:
        return all(r > 0 for r in _pair_rates(self.xvals, self.yvals).values())


def transition_rate(i: int, j: int, n: int, params: RateParams) -> Fraction:
    """Rate for a weight-i particle on the left to swap with a weight-j
    particle on the right: x_i - y_{n+1-j} when i < j, else 0."""
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"bad weights ({i}, {j}) for n={n}")
    if params.n != n:
        raise ValueError("params size mismatch")
    return _pair_rates(params.xvals, params.yvals).get((i, j), Fraction(0))


def _pair_rates(x, y) -> dict:
    """(i, j) -> the rate x_i - y_{n+1-j} of every weight pair i < j, the
    pairs with a nonzero rate, in the ring of x and y (Fractions or Polys)."""
    n = len(x)
    return {(i, j): x[i - 1] - y[n - j]
            for i, j in itertools.combinations(range(1, n + 1), 2)}


def _poly_pair_rates(n: int) -> dict:
    """The pair rates as elements of Z[x, y]."""
    ks = range(1, n + 1)
    return _pair_rates([Poly.x(n, k) for k in ks], [Poly.y(n, k) for k in ks])


def swap_moves(w: Perm):
    """Yield (position p, target state) for every allowed swap out of w,
    including the wrap pair (n, 1).  Positions are 0-indexed."""
    n = len(w)
    for p in range(n):
        q = (p + 1) % n
        if w[p] < w[q]:
            t = list(w)
            t[p], t[q] = t[q], t[p]
            yield p, tuple(t)


def _edges(states, n: int, rate: dict) -> dict:
    """Every edge (u, t) out of the given states -> its rate, read from the
    pair table `rate` by the weights that swap.  No edge repeats."""
    return {(u, t): rate[u[p], u[(p + 1) % n]]
            for u in states for p, t in swap_moves(u)}


@dataclass
class ChainInstance:
    n: int
    states: list  # all n! permutations, lexicographic
    rates: dict   # (state, state) -> positive Fraction


def build_chain(n: int, params: RateParams) -> ChainInstance:
    if n < 1:
        raise ValueError("n must be at least 1")
    if params.n != n:
        raise ValueError("params size mismatch")
    states = list(perms.iter_perms(n))
    rates = _edges(states, n, _pair_rates(params.xvals, params.yvals))
    return ChainInstance(n, states, rates)


def _rotate_to_one(w: Perm) -> Perm:
    """The rotation of the ring state w that starts with 1: the
    representative of w's rotation class."""
    k = w.index(1)
    return w[k:] + w[:k]


def stationary(chain: ChainInstance) -> list:
    """The unique positive left null vector of the generator, normalized to
    sum 1, solved on the rotation classes and certified on all states.

    Every rate must be strictly positive; the chain is then irreducible and
    its stationary vector is rotation invariant, so it is the lumped balance
    system's null vector expanded from the representatives w_1 = 1."""
    n, states = chain.n, chain.states
    # one common scale turns every rate into an integer
    rates = dict(zip(chain.rates, _integer_row(list(chain.rates.values()))))
    for (u, v), r in rates.items():
        if r <= 0:
            i, j = sorted(a for a, b in zip(u, v) if a != b)
            raise ValueError(f"transition rate x{i} - y{n + 1 - j} is not "
                             "strictly positive")
    A, idx = _lumped(rates, n, 0)
    vec = _null_vector(A)
    full = {s: vec[idx[_rotate_to_one(s)]] for s in states}
    total = sum(full.values())
    if total == 0:
        raise ValueError("degenerate null vector")
    if any(v * total <= 0 for v in vec):
        raise ValueError("stationary vector is not strictly positive")
    # certificate: the expanded vector satisfies every balance equation of
    # the full chain, exactly
    if any(_residuals(full, rates).values()):
        raise ValueError("stationary vector fails the balance certificate")
    return [Fraction(full[s], total) for s in states]


def _residuals(psi: dict, rates: dict) -> dict:
    """Inflow minus outflow at every state of the vector psi, in one pass
    over the edges (u, v) -> rate.  Entries and rates are ints or Polys
    alike."""
    first = next(iter(psi.values()))
    res = dict.fromkeys(psi, first - first)  # the zero of psi's ring
    for (u, v), r in rates.items():
        flow = psi[u] * r
        res[v] = res[v] + flow
        res[u] = res[u] - flow
    return res


def _lumped(rates: dict, n: int, zero) -> tuple[list, dict]:
    """The balance matrix of the rotation classes over the ring of `zero`,
    and idx, its columns' representatives w_1 = 1.  Row v holds the balance
    equation at v, sum_{u->v} rate(u->v) * pi[rot(u)] - pi_v * outflow(v)."""
    idx = {(1,) + rest: k for k, rest
           in enumerate(itertools.permutations(range(2, n + 1)))}
    m = len(idx)
    A = [[zero] * m for _ in range(m)]
    for (u, v), r in rates.items():
        if v[0] == 1:
            A[idx[v]][idx[_rotate_to_one(u)]] += r
        if u[0] == 1:
            A[idx[u]][idx[u]] -= r
    return A, idx


def _integer_row(row: list) -> list:
    """The primitive integer row on the ray of a rational row: the row times
    the lcm of its denominators, divided by the gcd of the result.  As a
    vector it differs by a positive scale, so scaled rates keep their
    chain's stationary vector."""
    scale = math.lcm(*(a.denominator for a in row))
    ints = [a.numerator * (scale // a.denominator) for a in row]
    g = math.gcd(*ints) or 1
    return [a // g for a in ints]


def _echelon(A: list) -> list:
    """Bring the integer matrix A to row-echelon form in place by
    fraction-free (Bareiss) elimination, skipping columns with no pivot,
    and return the pivot columns.  Each row is divided by the pivot
    that last updated it, and a row that skipped steps is scaled up to date
    when it becomes the pivot row, so every pivot row holds minors of the
    input and each division is exact (Sylvester's identity; Bareiss 1968)."""
    pivots: list[int] = []
    prev = 1
    last = [1] * len(A)
    for col in range(len(A[0])):
        k = len(pivots)
        piv = next((r for r in range(k, len(A)) if A[r][col]), None)
        if piv is None:
            continue
        A[k], A[piv] = A[piv], A[k]
        last[k], last[piv] = last[piv], last[k]
        if last[k] != prev:
            A[k][col:] = [a * prev // last[k] for a in A[k][col:]]
        top = A[k][col:]
        pc = top[0]
        for r in range(k + 1, len(A)):
            f = A[r][col]
            if f:
                A[r][col:] = [(a * pc - f * b) // last[r]
                              for a, b in zip(A[r][col:], top)]
                last[r] = pc
        pivots.append(col)
        prev = pc
    return pivots


def _null_vector(A: list) -> list:
    """A nonzero null vector of the square integer matrix A, whose null
    space must be one-dimensional.  A is brought to echelon form in place;
    the column without a pivot gets -d, d the last pivot, and the pivot
    columns follow by back-substitution.  d is the determinant of the pivot
    block up to sign, so by Cramer's rule every division is exact."""
    m = len(A)
    pivots = _echelon(A)
    if len(pivots) != m - 1:
        raise ValueError("chain is reducible or not rotation invariant: "
                         f"lumped null space dimension {m - len(pivots)}")
    free = min(set(range(m)) - set(pivots))
    d = A[m - 2][pivots[-1]] if pivots else 1
    vec = [-d] * m
    for r in reversed(range(m - 1)):
        row = A[r]
        s = d * row[free]
        for p in pivots[r + 1:]:
            s = s - row[p] * vec[p]
        vec[pivots[r]] = s // row[pivots[r]]
    return vec


def _cofactors(A: list) -> list:
    """A nonzero null vector of the square matrix A, whose rows sum to zero:
    entry j is (-1)^j times the minor of A without its last row and column
    j.  The minors of the first r + 1 rows come from those of the first r
    by Laplace expansion along row r, one per set of columns (a bitmask),
    so ring elements are only multiplied by A's entries and added, never
    divided (expansion by minors; Gentleman & Johnson, ACM TOMS 1976).
    Raises ValueError when every such minor vanishes, as they do when the
    null space has more than one dimension."""
    m, one = len(A), A[0][0] ** 0  # the ring's one
    minors = {0: one}  # the empty minor
    for row in A[:-1]:
        nxt: dict = {}
        for cols, d in minors.items():
            for j, a in enumerate(row):
                if a and not cols >> j & 1:
                    # the sign is (-1)^(the columns of `cols` after j)
                    t = -(d * a) if (cols >> j).bit_count() & 1 else d * a
                    key = cols | 1 << j
                    nxt[key] = nxt[key] + t if key in nxt else t
        minors = {k: d for k, d in nxt.items() if d}
    if not minors:
        raise ValueError("chain is reducible or not rotation invariant: "
                         "every maximal minor of the lumped matrix vanishes")
    v = [minors.get(((1 << m) - 1) ^ (1 << j), one - one) for j in range(m)]
    return [-d if j & 1 else d for j, d in enumerate(v)]


def normalization_polynomial(n: int) -> Poly:
    """The identity-state target: product of (x_i - y_{n+1-j})^(j-i-1)
    over i < j."""
    return math.prod((r ** (j - i - 1) for (i, j), r
                      in _poly_pair_rates(n).items()), start=Poly.const(n, 1))


def renormalize(pi: list, n: int, params: RateParams) -> list:
    """Scale pi so the identity-state entry equals the normalization
    product evaluated at params."""
    if any(p <= 0 for p in pi):
        raise ValueError("pi must be strictly positive")
    target = math.prod(r ** (j - i - 1) for (i, j), r
                       in _pair_rates(params.xvals, params.yvals).items())
    scale = target / pi[0]  # identity state is first in lexicographic order
    return [p * scale for p in pi]


def solve_renormalized(n: int, params: RateParams) -> dict:
    """Stationary solve plus renormalization, as a state -> value map.
    `stationary` rejects a point where some rate is not strictly positive."""
    chain = build_chain(n, params)
    psi = renormalize(stationary(chain), n, params)
    return dict(zip(chain.states, psi))


# -- symbolic solve over Z[x, y] ------------------------------------------

def symbolic_stationary(n: int) -> dict:
    """Renormalized stationary probabilities as exact polynomials in
    Z[x_1..x_n, y_1..y_n], for every state.

    The null vector v of the lumped balance system comes from
    `_cofactors`; its entries share the factor g = v_identity / N, N the
    normalization product, and psi_w = v_w / g.  Capped at n = 4: at n = 5
    the 24 x 24 system's table of column subsets would hold up to
    C(24, 12) = 2,704,156 minors.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > SYMBOLIC_MAX_N:
        raise ValueError(f"symbolic solve capped at n={SYMBOLIC_MAX_N}")

    states = list(perms.iter_perms(n))
    A, idx = _lumped(_edges(states, n, _poly_pair_rates(n)), n, Poly.zero(n))
    v = _cofactors(A)
    norm = normalization_polynomial(n)
    try:  # v[0] is the identity state's entry
        g = v[0] // norm
        psi = {s: v[k] // g for s, k in idx.items()}
    except (ValueError, ZeroDivisionError) as exc:
        raise AssertionError(f"symbolic null vector: {exc}") from None
    out = {s: psi[_rotate_to_one(s)] for s in states}

    # certificate: the balance null space over Q(x, y) is one-dimensional, so
    # a balanced vector with the identity entry fixed is the stationary one
    residuals = global_balance_residuals(out, n)
    if any(residuals.values()) or out[states[0]] != norm:
        raise AssertionError("symbolic stationary polynomials fail the "
                             "exact balance certificate")
    return out


def global_balance_residuals(psis: dict, n: int) -> dict:
    """Symbolic balance check: for each state v, inflow minus outflow of
    the polynomial stationary vector.  All residuals must be zero."""
    return _residuals(psis, _edges(psis, n, _poly_pair_rates(n)))


# -- randomized identity testing -------------------------------------------

def sample_rational_params(n: int, rng: random.Random) -> RateParams:
    """Random rational parameter point over one denominator B = 2^40, which
    keeps the integer-scaled rates short: x = 1 + a/B and y = b/B, each a
    and b uniform in [0, B), so every rate is strictly positive."""
    def frac(lo_shift):
        return lo_shift + Fraction(rng.randrange(2 ** 40), 2 ** 40)
    return RateParams([frac(1) for _ in range(n)],
                      [frac(0) for _ in range(n)])


def sample_points(n: int, trials: int,
                  seed: int | None) -> list[RateParams]:
    """`trials` random rational points with all rates positive, drawn in turn
    by `sample_rational_params` from one generator seeded with `seed`.

    Failure bound: each coordinate from `sample_rational_params` takes any
    one value with probability at most eps = 2^-40 < 9.1e-13.  By the
    generalized Schwartz-Zippel lemma a nonzero difference of degree at
    most C(n, 3) vanishes at one point with probability at most
    C(n, 3) * eps, so a wrong identity survives all `trials` points with
    probability at most (C(n, 3) * eps)^trials.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    return [sample_rational_params(n, rng) for _ in range(trials)]


def compare_with_solver(route, states, points):
    """Yield (w, ok) state by state, ok telling whether the polynomial
    route(w) equals the renormalized chain solution psi_w at every point.
    Each point is solved once, when the first state is asked for."""
    solved = [(p, solve_renormalized(p.n, p)) for p in points]
    for w in states:
        value = route(w)
        yield w, all(value.evaluate(p.xvals, p.yvals) == psi[w]
                     for p, psi in solved)
