import random
from fractions import Fraction

import pytest

from ringtasep import chain, perms
from ringtasep.chain import RateParams
from ringtasep.poly import Poly


def params_n3():
    return RateParams.y_zero([2, 1, 1])


def assert_balanced(c, pi):
    """Exact substitution into every balance equation of chain c."""
    psi = dict(zip(c.states, pi))
    for v in c.states:
        inflow = sum((psi[u] * r for (u, t), r in c.rates.items()
                      if t == v), Fraction(0))
        outflow = psi[v] * sum((r for (u, _), r in c.rates.items()
                                if u == v), Fraction(0))
        assert inflow == outflow


def full_stationary(c):
    """Reference solve: the null vector of all n! balance equations, by the
    same kernel, normalized to sum 1."""
    N = len(c.states)
    idx = {s: i for i, s in enumerate(c.states)}
    A = [[Fraction(0)] * N for _ in range(N)]
    for (u, v), r in c.rates.items():
        A[idx[v]][idx[u]] += r
        A[idx[u]][idx[u]] -= r
    vec = chain._null_vector([chain._integer_row(row) for row in A])
    total = sum(vec)
    return [Fraction(v, total) for v in vec]


def fraction_det(M):
    """The determinant up to sign, by Gaussian elimination over Q."""
    M = [[Fraction(a) for a in row] for row in M]
    det = Fraction(1)
    for c in range(len(M)):
        p = next((r for r in range(c, len(M)) if M[r][c]), None)
        if p is None:
            return Fraction(0)
        M[c], M[p] = M[p], M[c]
        det *= M[c][c]
        for r in range(c + 1, len(M)):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return det


class TestRates:
    def test_known_edges(self):
        p = RateParams([Fraction(2), Fraction(3), Fraction(5)],
                       [Fraction(0), Fraction(1), Fraction(1)])
        assert chain.transition_rate(1, 3, 3, p) == 2 - 0  # x1 - y1
        assert chain.transition_rate(2, 3, 3, p) == 3 - 0  # x2 - y1
        assert chain.transition_rate(1, 2, 3, p) == 2 - 1  # x1 - y2

    def test_wrong_order_is_zero(self):
        p = params_n3()
        assert chain.transition_rate(3, 1, 3, p) == 0

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            chain.transition_rate(1, 1, 3, params_n3())

    @pytest.mark.parametrize("n", [3, 5])
    def test_rejects_params_size_mismatch(self, n):
        p = RateParams([1, 2, 3, 4], [0, 7, 0, 5])
        with pytest.raises(ValueError, match="params size mismatch"):
            chain.transition_rate(1, n, n, p)


class TestBuildChain:
    def test_n3_edges(self):
        p = RateParams([Fraction(7), Fraction(5), Fraction(4)],
                       [Fraction(1), Fraction(2), Fraction(3)])
        c = chain.build_chain(3, p)
        assert len(c.states) == 6
        assert len(c.rates) == 9
        x1, x2 = p.xvals[0], p.xvals[1]
        y1, y2 = p.yvals[0], p.yvals[1]
        assert c.rates[((1, 2, 3), (2, 1, 3))] == x1 - y2
        assert c.rates[((1, 2, 3), (1, 3, 2))] == x2 - y1
        # wrap-pair transitions out of 312 and 231
        assert c.rates[((3, 1, 2), (2, 1, 3))] == x2 - y1
        assert c.rates[((2, 3, 1), (1, 3, 2))] == x1 - y2

    def test_n2(self):
        p = RateParams([Fraction(3), Fraction(1)], [Fraction(1), Fraction(0)])
        c = chain.build_chain(2, p)
        assert set(c.rates) == {((1, 2), (2, 1)), ((2, 1), (1, 2))}
        assert all(r == p.xvals[0] - p.yvals[0] for r in c.rates.values())

    def test_outgoing_count_is_cyclic_ascent_count(self):
        p = RateParams([Fraction(9), Fraction(7), Fraction(5), Fraction(4)],
                       [Fraction(0), Fraction(1), Fraction(2), Fraction(3)])
        c = chain.build_chain(4, p)
        for w in c.states:
            ascents = sum(1 for i in range(4) if w[i] < w[(i + 1) % 4])
            assert sum(1 for (u, _) in c.rates if u == w) == ascents


class TestStationary:
    def test_n3_point(self):
        psi = chain.solve_renormalized(3, params_n3())
        want = {(1, 2, 3): 2, (1, 3, 2): 3, (2, 1, 3): 3,
                (2, 3, 1): 2, (3, 1, 2): 2, (3, 2, 1): 3}
        assert {w: v for w, v in psi.items()} == want

    def test_n2_uniform(self):
        p = RateParams([Fraction(3), Fraction(1)], [Fraction(1), Fraction(0)])
        pi = chain.stationary(chain.build_chain(2, p))
        assert pi == [Fraction(1, 2), Fraction(1, 2)]

    def test_scaling_rates_leaves_stationary_unchanged(self):
        p1 = RateParams([2, 3, 5], [0, 1, 1])
        p2 = RateParams([4, 6, 10], [0, 2, 2])  # all rates doubled
        pi1 = chain.stationary(chain.build_chain(3, p1))
        pi2 = chain.stationary(chain.build_chain(3, p2))
        assert pi1 == pi2

    def test_renormalize_identity_target(self):
        p = params_n3()
        pi = chain.stationary(chain.build_chain(3, p))
        psi = chain.renormalize(pi, 3, p)
        assert psi[0] == 2  # x1 - y1 at the point

    def test_global_balance_at_point(self):
        p = RateParams([Fraction(5), Fraction(3), Fraction(2), Fraction(2)],
                       [Fraction(0), Fraction(1), Fraction(1), Fraction(0)])
        c = chain.build_chain(4, p)
        assert_balanced(c, chain.stationary(c))

    def test_n5_rational_point_certified(self):
        # y = 0 with x over the denominator 2^40, as sample_points draws them
        xv = chain.sample_rational_params(5, random.Random(7)).xvals
        c = chain.build_chain(5, RateParams.y_zero(xv))
        pi = chain.stationary(c)
        assert sum(pi) == 1
        assert_balanced(c, pi)

    def test_reducible_rejected(self):
        # a zero rate disconnects the two-state chain
        p = RateParams([Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)])
        c = chain.build_chain(2, p)
        with pytest.raises(ValueError):
            chain.stationary(c)

    def test_nonpositive_rate_named(self):
        # x1 - y2 = 2 and x1 - y1 = 1, but x2 - y1 = 0
        p = RateParams([2, 1, 1], [1, 0, 0])
        with pytest.raises(ValueError, match="x2 - y1"):
            chain.solve_renormalized(3, p)


class TestQuotient:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_full_solve(self, n):
        p = chain.sample_integer_params(n, random.Random(n))
        c = chain.build_chain(n, p)
        assert chain.stationary(c) == full_stationary(c)

    def test_n6_integer_point(self):
        c = chain.build_chain(6, chain.sample_integer_params(
            6, random.Random(6)))
        pi = chain.stationary(c)
        assert sum(pi) == 1
        assert_balanced(c, pi)

    def test_rotation_breaking_rate_rejected(self):
        # an edge between two non-representatives leaves the lumped system
        # unchanged, so only the full balance certificate can catch it
        c = chain.build_chain(4, chain.sample_integer_params(
            4, random.Random(4)))
        edge = next((u, v) for u, v in c.rates if u[0] != 1 and v[0] != 1)
        c.rates[edge] += 1
        with pytest.raises(ValueError, match="balance certificate"):
            chain.stationary(c)


class TestKernel:
    def test_echelon_skips_empty_column(self):
        A = [[0, 2, 4], [0, 1, 3]]
        assert chain._echelon(A) == [1, 2]

    def test_rows_that_skip_a_step(self):
        # rows 1 and 2 have a zero in column 0, so they skip the first step;
        # then row 1 becomes the pivot row and row 2 is updated, each up to
        # date by its own last pivot, 1, not the current one, 3.  Row 3 is
        # 2 * row 2 - row 0, so the null space is one-dimensional.
        A = [[3, 1, 4, 5], [0, 4, -3, 4], [0, 2, 3, 3], [-3, 3, 2, 1]]
        E = [row[:] for row in A]
        assert chain._echelon(E) == [0, 1, 2]
        det = fraction_det([row[:3] for row in A[:3]])
        assert abs(E[2][2]) == abs(det) == 54
        v = chain._null_vector([row[:] for row in A])
        assert any(v)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in A)

    @staticmethod
    def assert_proportional(v, w):
        assert all(v[i] * w[j] == v[j] * w[i]
                   for i in range(len(v)) for j in range(i + 1, len(v)))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_cofactors_on_integer_matrices(self, m):
        rng = random.Random(m)
        A = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(m - 1)]
        A.append([-sum(col) for col in zip(*A)] if A else [0])
        v = chain._cofactors(A)
        assert any(v)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in A)
        self.assert_proportional(v, chain._null_vector([r[:] for r in A]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cofactors_on_lumped_polynomial_matrices(self, n):
        states = list(perms.iter_perms(n))
        A, _ = chain._lumped(chain._edges(states, n, chain._poly_pair_rates(n)),
                             n, Poly.zero(n))
        v = chain._cofactors(A)
        assert any(v)
        zero = Poly.zero(n)
        assert all(sum((a * b for a, b in zip(row, v)), zero).is_zero()
                   for row in A)
        self.assert_proportional(v, chain._null_vector([r[:] for r in A]))

    def test_cofactors_reject_rank_deficient(self):
        A = [[1, -2, 1], [1, -2, 1], [-2, 4, -2]]  # two equal rows, rank 1
        with pytest.raises(ValueError, match="every maximal minor"):
            chain._cofactors(A)


class TestSymbolic:
    def test_n3_exact(self, symbolic_n3):
        assert symbolic_n3[(1, 2, 3)] == Poly.x(3, 1) - Poly.y(3, 1)
        x1, x2 = Poly.x(3, 1), Poly.x(3, 2)
        y1, y2 = Poly.y(3, 1), Poly.y(3, 2)
        assert symbolic_n3[(1, 3, 2)] == x1 + x2 - y1 - y2

    def test_n2(self):
        psis = chain.symbolic_stationary(2)
        one = Poly.const(2, 1)
        assert psis == {(1, 2): one, (2, 1): one}

    def test_cap(self):
        with pytest.raises(ValueError):
            chain.symbolic_stationary(5)

    def test_certificate_rejects_wrong_fit(self, monkeypatch):
        cofactors = chain._cofactors

        def off_by_identity(A):
            # psi_1 gains N: the division stays exact, the balance fails
            v = cofactors(A)
            v[1] = v[1] + v[0]
            return v
        monkeypatch.setattr(chain, "_symbolic_cache", {})
        monkeypatch.setattr(chain, "_cofactors", off_by_identity)
        with pytest.raises(AssertionError, match="balance certificate"):
            chain.symbolic_stationary(3)

    def test_global_balance_symbolic(self, symbolic_n3):
        res = chain.global_balance_residuals(symbolic_n3, 3)
        assert all(r.is_zero() for r in res.values())

    def test_homogeneous_degree(self, symbolic_n4):
        for p in symbolic_n4.values():
            assert p.homogeneous_degree() == 4  # C(4, 3)

    def test_cyclic_symmetry(self, symbolic_n4):
        for w, p in symbolic_n4.items():
            shifted = w[1:] + w[:1]
            assert symbolic_n4[shifted] == p

    def test_positivity(self, symbolic_n4):
        params = RateParams([9, 7, 6, 5], [1, 2, 0, 1])
        for p in symbolic_n4.values():
            assert p.evaluate(params.xvals, params.yvals) > 0


class TestIdentityCheck:
    def test_comparer_agrees_with_symbolic(self, symbolic_n3):
        states = sorted(symbolic_n3)
        points = chain.sample_points(3, trials=3, seed=0)
        got = list(chain.compare_with_solver(symbolic_n3.__getitem__, states,
                                             points))
        assert got == [(w, True) for w in states]

    def test_comparer_flags_only_perturbed_state(self, symbolic_n3):
        bad = (1, 3, 2)

        def route(w):
            return symbolic_n3[w] + (Poly.x(3, 1) if w == bad
                                     else Poly.zero(3))
        points = chain.sample_points(3, trials=2, seed=0)
        got = dict(chain.compare_with_solver(route, sorted(symbolic_n3),
                                             points))
        assert got == {w: w != bad for w in symbolic_n3}

    def test_seed_reproducible(self):
        rng1 = random.Random(11)
        rng2 = random.Random(11)
        a = chain.sample_rational_params(3, rng1)
        b = chain.sample_rational_params(3, rng2)
        assert a == b

    def test_sampled_rates_positive(self):
        rng = random.Random(5)
        for _ in range(20):
            assert chain.sample_rational_params(4, rng).all_rates_positive()

    def test_sampler_one_denominator(self):
        rng = random.Random(3)
        for _ in range(20):
            p = chain.sample_rational_params(5, rng)
            assert all(2 ** 40 % v.denominator == 0
                       for v in p.xvals + p.yvals)
            assert all(x > y for x, y in zip(p.xvals, p.yvals))
