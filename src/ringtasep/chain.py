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

One exact kernel serves both rings, the ints and Z[x, y]: fraction-free
(Bareiss) elimination to row-echelon form, then back-substitution by
Cramer's rule, in which every division is exact.
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

_symbolic_cache: dict[int, dict[Perm, Poly]] = {}
_SYMBOLIC_MAX_N = 4


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
        return all(transition_rate(i, j, self.n, self) > 0
                   for i, j in _weight_pairs(self.n))


def transition_rate(i: int, j: int, n: int, params: RateParams) -> Fraction:
    """Rate for a weight-i particle on the left to swap with a weight-j
    particle on the right: x_i - y_{n+1-j} when i < j, else 0."""
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"bad weights ({i}, {j}) for n={n}")
    if i < j:
        return params.xvals[i - 1] - params.yvals[n - j]
    return Fraction(0)


def _weight_pairs(n: int):
    """Every pair of weights i < j: the pairs with a nonzero rate."""
    return itertools.combinations(range(1, n + 1), 2)


def rate_polynomial(i: int, j: int, n: int) -> Poly:
    """The same rate as an element of Z[x, y]."""
    if i < j:
        return Poly.x(n, i) - Poly.y(n, n + 1 - j)
    return Poly.zero(n)


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


@dataclass
class ChainInstance:
    n: int
    params: RateParams
    states: list  # all n! permutations, lexicographic
    rates: dict   # (state, state) -> positive Fraction


def build_chain(n: int, params: RateParams) -> ChainInstance:
    if n < 1:
        raise ValueError("n must be at least 1")
    if params.n != n:
        raise ValueError("params size mismatch")
    states = list(perms.iter_perms(n))
    rates: dict = {}
    for w in states:
        for p, t in swap_moves(w):
            q = (p + 1) % n
            r = transition_rate(w[p], w[q], n, params)
            rates[(w, t)] = rates.get((w, t), Fraction(0)) + r
    return ChainInstance(n, params, states, rates)


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
    idx = {rep: k for k, rep in enumerate(s for s in states if s[0] == 1)}
    A = [_integer_row(row) for row in _lumped(rates, idx, 0)]
    vec = _integer_row(_null_vector(A))
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


def _lumped(rates: dict, idx: dict, zero) -> list:
    """The balance matrix of the rotation classes: columns are the
    representatives w_1 = 1 (numbered by idx), and row v holds the balance
    equation at v, sum_{u->v} rate(u->v) * pi[rot(u)] - pi_v * outflow(v).
    Entries are sums of rates, starting from the ring's zero."""
    m = len(idx)
    A = [[zero] * m for _ in range(m)]
    for (u, v), r in rates.items():
        if v[0] == 1:
            A[idx[v]][idx[_rotate_to_one(u)]] += r
        if u[0] == 1:
            A[idx[u]][idx[u]] -= r
    return A


def _integer_row(row: list) -> list:
    """The primitive integer row on the ray of a rational row: the row times
    the lcm of its denominators, divided by the gcd of the result.  It has
    the same solutions, and as a vector it differs by a positive scale;
    keeping rows primitive keeps the elimination's minors short."""
    scale = math.lcm(*(a.denominator for a in row))
    ints = [a.numerator * (scale // a.denominator) for a in row]
    g = math.gcd(*ints) or 1
    return [a // g for a in ints]


def _echelon(A: list) -> list:
    """Bring the matrix A over the ints or Z[x, y] to row-echelon form in
    place by fraction-free (Bareiss) elimination, skipping columns with no
    pivot, and return the pivot columns.  Every entry stays a minor of the
    input, so each division is exact."""
    pivots: list[int] = []
    prev = 1
    for col in range(len(A[0])):
        k = len(pivots)
        piv = next((r for r in range(k, len(A)) if A[r][col]), None)
        if piv is None:
            continue
        A[k], A[piv] = A[piv], A[k]
        top = A[k][col:]
        pc = top[0]
        for r in range(k + 1, len(A)):
            f = A[r][col]
            if f:
                A[r][col:] = [(a * pc - f * b) // prev
                              for a, b in zip(A[r][col:], top)]
            elif pc != prev:
                A[r][col:] = [a * pc // prev for a in A[r][col:]]
        pivots.append(col)
        prev = pc
    return pivots


def _null_vector(A: list) -> list:
    """A nonzero null vector of the square matrix A, whose null space must be
    one-dimensional, with entries in A's ring (ints or Polys).  A is brought
    to echelon form in place; the column without a pivot gets -d, d the last
    pivot, and the pivot columns follow by back-substitution.  d is the
    determinant of the pivot block up to sign, so by Cramer's rule every
    division is exact."""
    m = len(A)
    pivots = _echelon(A)
    if len(pivots) != m - 1:
        raise ValueError("chain is reducible or not rotation invariant: "
                         f"lumped null space dimension {m - len(pivots)}")
    free = min(set(range(m)) - set(pivots))
    k = len(pivots)
    d = A[k - 1][pivots[-1]] if pivots else A[0][0] ** 0  # the ring's one
    vec = [-d] * m
    for r in range(k - 1, -1, -1):
        row = A[r]
        s = d * row[free]
        for j in range(r + 1, k):
            s = s - row[pivots[j]] * vec[pivots[j]]
        vec[pivots[r]] = s // row[pivots[r]]
    return vec


def normalization_polynomial(n: int) -> Poly:
    """The identity-state target: product of (x_i - y_{n+1-j})^(j-i-1)
    over i < j."""
    return math.prod((rate_polynomial(i, j, n) ** (j - i - 1)
                      for i, j in _weight_pairs(n)), start=Poly.const(n, 1))


def renormalize(pi: list, n: int, params: RateParams) -> list:
    """Scale pi so the identity-state entry equals the normalization
    product evaluated at params."""
    if any(p <= 0 for p in pi):
        raise ValueError("pi must be strictly positive")
    target = math.prod(transition_rate(i, j, n, params) ** (j - i - 1)
                       for i, j in _weight_pairs(n))
    scale = target / pi[0]  # identity state is first in lexicographic order
    return [p * scale for p in pi]


def solve_renormalized(n: int, params: RateParams) -> dict:
    """Stationary solve plus renormalization, as a state -> value map.
    `stationary` rejects a point where some rate is not strictly positive."""
    chain = build_chain(n, params)
    psi = renormalize(stationary(chain), n, params)
    return dict(zip(chain.states, psi))


# -- symbolic solve over Z[x, y] ------------------------------------------

def sample_integer_params(n: int, rng: random.Random, xlo: int = 50,
                          xhi: int = 120, ymax: int = 30) -> RateParams:
    """Random integer parameter point; x well above y keeps every rate
    strictly positive.  Integer points keep the rational elimination cheap;
    widen the ranges when a smaller identity-test failure bound is needed."""
    if ymax >= xlo:
        raise ValueError("ymax must stay below xlo to keep rates positive")
    xv = [rng.randint(xlo, xhi) for _ in range(n)]
    yv = [rng.randint(0, ymax) for _ in range(n)]
    return RateParams(xv, yv)


def symbolic_stationary(n: int) -> dict:
    """Renormalized stationary probabilities as exact polynomials in
    Z[x_1..x_n, y_1..y_n], for every state.

    The lumped balance system is eliminated over Z[x, y] by the point
    solve's kernel, and psi_w = N * v_w / v_identity for its null vector v,
    N the normalization product.  Capped at n = 4: at n = 5 the last
    Bareiss pivot of the 24 x 24 system is a minor of degree 23 in 8
    variables.  Results are cached per n.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > _SYMBOLIC_MAX_N:
        raise ValueError(f"symbolic solve capped at n={_SYMBOLIC_MAX_N}")
    cached = _symbolic_cache.get(n)
    if cached is not None:
        return cached

    states = list(perms.iter_perms(n))
    idx = {rep: k for k, rep in enumerate(s for s in states if s[0] == 1)}
    v = _null_vector(_lumped(_polynomial_rates(states, n), idx, Poly.zero(n)))
    norm = normalization_polynomial(n)
    try:  # v[0] is the identity state's entry
        psi = {s: norm * v[k] // v[0] for s, k in idx.items()}
    except ValueError as exc:
        raise AssertionError(f"symbolic null vector: {exc}") from None
    out = {s: psi[_rotate_to_one(s)] for s in states}

    # certificate: the balance null space over Q(x, y) is one-dimensional, so
    # a balanced vector with the identity entry fixed is the stationary one
    residuals = global_balance_residuals(out, n)
    if (any(not r.is_zero() for r in residuals.values())
            or out[states[0]] != norm):
        raise AssertionError("symbolic stationary polynomials fail the "
                             "exact balance certificate")
    _symbolic_cache[n] = out
    return out


def _polynomial_rates(states, n: int) -> dict:
    """Every edge (u, v) out of the given states -> its rate in Z[x, y]."""
    return {(u, t): rate_polynomial(u[p], u[(p + 1) % n], n)
            for u in states for p, t in swap_moves(u)}


def global_balance_residuals(psis: dict, n: int) -> dict:
    """Symbolic balance check: for each state v, inflow minus outflow of
    the polynomial stationary vector.  All residuals must be zero."""
    return _residuals(psis, _polynomial_rates(psis, n))


# -- randomized identity testing -------------------------------------------

def sample_rational_params(n: int, rng: random.Random) -> RateParams:
    """Random rational parameter point with every rate strictly positive:
    y in [0, 1), x in [1, 2]."""
    def frac(lo_shift):
        den = rng.randint(2, 10 ** 6)
        return lo_shift + Fraction(rng.randint(0, den - 1), den)
    return RateParams([frac(1) for _ in range(n)],
                      [frac(0) for _ in range(n)])


def sample_points(n: int, trials: int,
                  seed: int | None) -> list[RateParams]:
    """`trials` random rational points with all rates positive, drawn in turn
    by `sample_rational_params` from one generator seeded with `seed`.

    Failure bound: each coordinate from `sample_rational_params` takes any
    one value with probability at most
    eps = (H_{10^6} - 1) / (10^6 - 1) < 1.34e-5, H_k the k-th harmonic
    number.  By the generalized Schwartz-Zippel lemma a nonzero difference
    of degree at most C(n, 3) vanishes at one point with probability at
    most C(n, 3) * eps, so a wrong identity survives all `trials` points
    with probability at most (C(n, 3) * eps)^trials.
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
