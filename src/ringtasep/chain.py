"""The inhomogeneous TASEP on a ring: chain construction and exact
stationary distributions.

Two solve paths are provided.  `stationary` solves one chain instance at a
rational parameter point.  `symbolic_stationary` recovers the full
stationary polynomials over Z[x, y]: the stationary vector is homogeneous of
total degree C(n, 3) in x_1..x_{n-1}, y_1..y_{n-1}, so it is determined by
exact solves at finitely many integer points followed by a linear fit; the
fit is then certified by exact symbolic balance substitution.

The rates depend only on particle labels, so the generator commutes with
rotating the ring and the stationary vector is rotation invariant.  Both
paths therefore work on the (n-1)! rotation classes, represented by the
states with w_1 = 1: `stationary` solves the lumped balance system there,
expands the answer to all n! states and certifies it by exact substitution
into every balance equation of the full chain; the fit interpolates the
representatives only.

Both paths share one exact kernel: rows are scaled to integers, brought to
row-echelon form by fraction-free (Bareiss) elimination over Python ints,
and solved by integer back-substitution for any right-hand-side column.
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
    reps = [s for s in states if s[0] == 1]
    m = len(reps)
    idx = {s: k for k, s in enumerate(reps)}
    # columns are representatives; row v holds the balance equation at v:
    # sum_{u->v} rate(u->v) * pi[rot(u)] - pi_v * outflow(v) = 0
    A = [[0] * m for _ in range(m)]
    for (u, v), r in rates.items():
        if v[0] == 1:
            A[idx[v]][idx[_rotate_to_one(u)]] += r
        if u[0] == 1:
            A[idx[u]][idx[u]] -= r
    A = [_integer_row(row) for row in A]
    pivots = _echelon(A)
    if len(pivots) != m - 1:
        raise ValueError("chain is reducible or not rotation invariant: "
                         f"lumped null space dimension {m - len(pivots)}")
    # the free column enters with coefficient -1, so the pivot entries solve
    # the system whose right-hand side is that column
    free = min(set(range(m)) - set(pivots))
    vec = [Fraction(-1)] * m
    for col, v in zip(pivots, _back_substitute(A, pivots, free)):
        vec[col] = v
    vec = _integer_row(vec)
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
    """Bring the integer matrix A to row-echelon form in place by
    fraction-free (Bareiss) elimination, skipping columns with no pivot, and
    return the pivot columns.  Every entry stays an integer minor of the
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


def _back_substitute(A: list, pivots: list, col: int) -> list:
    """The rational x with sum_j A[r][pivots[j]] * x_j = A[r][col] for the
    echelon form A, one entry per pivot column.  The last pivot d is the
    determinant of the pivot block up to sign, so d * x is integral
    (Cramer's rule) and every division below is exact."""
    k = len(pivots)
    d = A[k - 1][pivots[-1]] if pivots else 1
    y = [0] * k
    for r in range(k - 1, -1, -1):
        row = A[r]
        s = d * row[col] - sum(row[pivots[j]] * y[j] for j in range(r + 1, k))
        y[r] = s // row[pivots[r]]
    return [Fraction(v, d) for v in y]


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


# -- symbolic solve via exact interpolation --------------------------------

def _homogeneous_exponents(nvars: int, degree: int):
    """All exponent vectors of the given length summing to the degree."""
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    for first in range(degree, -1, -1):
        for rest in _homogeneous_exponents(nvars - 1, degree - first):
            yield (first,) + rest


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


def _fit_coefficients(monos: list, points: list, values: list) -> list:
    """Solve the square Vandermonde system V c = b_k for every right-hand
    side simultaneously by eliminating [V | b] with the shared kernel.
    Returns one coefficient list per right-hand side."""
    M = len(monos)
    A = [_integer_row([math.prod(v ** e for v, e in zip(pt, mono))
                       for mono in monos] + vals)
         for pt, vals in zip(points, values)]
    pivots = _echelon(A)
    if pivots != list(range(M)):
        raise ValueError("singular interpolation system")
    return [_back_substitute(A, pivots, M + k) for k in range(len(values[0]))]


def symbolic_stationary(n: int) -> dict:
    """Renormalized stationary probabilities as exact polynomials in
    Z[x_1..x_n, y_1..y_n], for every state.

    Feasibility-bounded: capped at n = 4; an n = 5 fit would need 19,448
    monomials per state.  Results are cached per n.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > _SYMBOLIC_MAX_N:
        raise ValueError(f"symbolic solve capped at n={_SYMBOLIC_MAX_N}")
    cached = _symbolic_cache.get(n)
    if cached is not None:
        return cached

    degree = math.comb(n, 3)
    active = n - 1  # only x_1..x_{n-1}, y_1..y_{n-1} appear in the rates
    monos = list(_homogeneous_exponents(2 * active, degree))
    states = list(perms.iter_perms(n))
    # psi is rotation invariant: fit the representatives w_1 = 1 only
    reps = [s for s in states if s[0] == 1]
    rng = random.Random(20240 + n)

    points, values = [], []
    seen = set()
    while len(points) < len(monos):
        params = sample_integer_params(n, rng)
        pt = tuple(params.xvals[:active] + params.yvals[:active])
        if pt in seen:
            continue
        seen.add(pt)
        psi = solve_renormalized(n, params)
        points.append(pt)
        values.append([psi[s] for s in reps])

    coeffs = _fit_coefficients(monos, points, values)
    fitted = {}
    for s, cs in zip(reps, coeffs):
        terms = {}
        for mono, c in zip(monos, cs):
            if c:
                if c.denominator != 1:
                    raise ValueError("non-integer fitted coefficient")
                xe = mono[:active] + (0,) * (n - active)
                ye = mono[active:] + (0,) * (n - active)
                terms[xe + ye] = int(c)
        fitted[s] = Poly(n, terms)
    out = {s: fitted[_rotate_to_one(s)] for s in states}

    # certify the fit: the balance null space over Q(x, y) is one-dimensional,
    # so a balanced vector with the identity entry fixed is the stationary one
    residuals = global_balance_residuals(out, n)
    if (any(not r.is_zero() for r in residuals.values())
            or out[states[0]] != normalization_polynomial(n)):
        raise AssertionError("interpolated stationary polynomials fail the "
                             "exact balance certificate")
    _symbolic_cache[n] = out
    return out


def global_balance_residuals(psis: dict, n: int) -> dict:
    """Symbolic balance check: for each state v, inflow minus outflow of
    the polynomial stationary vector.  All residuals must be zero."""
    rates = {(u, t): rate_polynomial(u[p], u[(p + 1) % n], n)
             for u in psis for p, t in swap_moves(u)}
    return _residuals(psis, rates)


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
