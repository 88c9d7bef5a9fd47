"""End-to-end acceptance checks, one per criterion, each printing a single
PASS/FAIL line (run with -s to see them).  All comparisons are exact except
number 4, which tests polynomial identities at seeded random rational points.
"""

import random
import time

from ringtasep import chain, formulas, mlq, perms, schubert
from ringtasep.chain import RateParams
from ringtasep.poly import Poly

from expected import (EVIL_COUNTS, N3_PSI, N4_FORMS, N5_SPECIAL,
                      N5_Y0_FORMS, parse_label)

# start from cold caches so the per-criterion budgets measure real work
schubert.clear_caches()


def _run(num, desc, fn, budget=None):
    t0 = time.monotonic()
    try:
        fn()
    except Exception:
        print(f"FAIL criterion {num}: {desc}")
        raise
    dt = time.monotonic() - t0
    if budget is not None and dt > budget:
        print(f"FAIL criterion {num}: {desc} ({dt:.2f}s over {budget}s budget)")
        raise AssertionError(f"criterion {num} exceeded {budget}s: {dt:.2f}s")
    print(f"PASS criterion {num}: {desc}")


def test_criterion_01_n3_symbolic():
    def check():
        psis = chain.symbolic_stationary(3)
        for w, text in N3_PSI.items():
            assert psis[w] == Poly.from_text(3, text), w
    _run(1, "3-site symbolic stationary polynomials", check, budget=1.0)


def test_criterion_02_n4_products():
    def check():
        psis = chain.symbolic_stationary(4)
        for w, (factors, labels) in N4_FORMS.items():
            want = Poly.const(4, 1)
            for i, j in factors:
                want = want * (Poly.x(4, i) - Poly.y(4, j))
            for u in labels:
                want = want * schubert.double_schubert(u)
            assert psis[w] == want, w
    _run(2, "4-site monomial-times-Schubert products", check, budget=10.0)


def test_criterion_03_n5_y0_table():
    def check():
        big = 7  # some factor labels live in S_6 / S_7
        queue_psis = mlq.all_psi_via_mlq(5)
        assert len(N5_Y0_FORMS) == 24
        for state, (mu, summands) in N5_Y0_FORMS.items():
            w = parse_label(state)
            total = Poly.zero(big)
            for labels in summands:
                term = Poly.const(big, 1)
                for label in labels:
                    term = term * schubert.single_schubert(
                        parse_label(label)).embed(big)
                total = total + term
            want = Poly.monomial(big, mu) * total
            assert queue_psis[w].embed(big) == want, state
    _run(3, "5-site y=0 table via queue sums", check, budget=300.0)


def test_criterion_04_n5_general_identity():
    def check():
        states = [parse_label(s) for s in N5_SPECIAL]
        # a wrong identity survives all 5 points with probability below
        # (C(5, 3) * 2^-40)^5 < 10^-20 (see chain.sample_points)
        points = chain.sample_points(5, trials=5, seed=97)
        for w, ok in chain.compare_with_solver(formulas.main_formula, states,
                                               points):
            assert ok, w
    _run(4, "5-site general-parameter product formula at 5 points",
         check, budget=60.0)


def test_criterion_05_partition_map_table():
    def check():
        for state, (k, lams, labels) in N5_SPECIAL.items():
            w = parse_label(state)
            assert perms.inv_descent_count(w) == k, state
            assert formulas.psi_partitions(w) == lams, state
            mu, _ = formulas.main_formula_y0(w)
            assert mu == N5_Y0_FORMS[state][0], state
            got = formulas.factor_permutations(w)
            assert got == tuple(parse_label(l) for l in labels), state
    _run(5, "partition map, x-monomial and factor labels", check)


def test_criterion_06_g_vector():
    def check():
        assert formulas.g_vector(5, (2, 1, 1)) == (0, 1, 2, 1, 0)
        assert formulas.g_vector(6, (3, 2, 2, 1)) == (0, 2, 3, 2, 1, 0)
        assert formulas.g_vector(6, (3, 1, 1)) == (0, 0, 3, 1, 1, 0)
        for n in range(3, 7):
            for lam in schubert.partitions_in_box(n - 2, n - 2):
                if not lam or lam[0] + len(lam) > n:
                    continue
                code = formulas.g_vector(n, lam)
                assert perms.is_valid_code(code)
                w = perms.code_to_perm(code)
                assert schubert.is_vexillary(w)
                assert schubert.shape(w) == lam
                bounds = tuple(n - p for p in lam)
                assert schubert.single_schubert(w) == \
                    schubert.flagged_schur(lam, bounds, nvars=n), (n, lam)
    _run(6, "code vectors, vexillarity and flagged-Schur form", check)


def test_criterion_07_counts():
    def check():
        for n, want in enumerate(EVIL_COUNTS, start=1):
            assert perms.count_evil_avoiding(n) == want
            assert perms.count_evil_avoiding_recurrence(n) == want
            assert perms.count_evil_avoiding_closed_form(n) == want
    _run(7, "pattern-avoiding counts through n=8", check, budget=30.0)


def test_criterion_08_monomial_factor():
    def check():
        n4 = {w: p.substitute_y_zero()
              for w, p in chain.symbolic_stationary(4).items()}
        n5 = mlq.all_psi_via_mlq(5)
        for psis, n in ((n4, 4), (n5, 5)):
            assert len(psis) == [None, 1, 2, 6, 24, 120][n]
            for w, p in psis.items():
                content, _ = p.monomial_content()
                assert content[:n] == formulas.eta(w), w
                assert not any(content[n:]), w
    _run(8, "largest monomial factor of each stationary polynomial", check)


def test_criterion_09_flagged_factorization():
    def check():
        checked = 0
        for w in perms.iter_perms(5):
            if schubert.is_vexillary(w):
                assert schubert.verify_flagged_factorization(w), w
                checked += 1
        assert checked == 103  # vexillary count in S_5
    _run(9, "flagged factorization for all vexillary 5-permutations", check)


def test_criterion_10_queue_tableau_weights():
    def check():
        n = 5
        for lam in schubert.partitions_in_box(n, n):
            if lam and lam[0] + len(lam) > n:
                continue
            assert mlq.verify_grassmannian_bijection(lam, n), lam
        w, d = mlq.w_of_partition((2, 2, 1), n)
        assert mlq.d_prime((2, 2, 1), d) == (2, 3, 4)
        found = any(
            mlq.queue_weight(pq) == (5, 3, 1, 1)
            for pq in map(mlq.bully_project, mlq.iter_queues(n))
            if mlq.queue_type(pq) == w)
        assert found
    _run(10, "queue/tableau weight multisets for all shapes at n=5", check)


def test_criterion_11_property_suites():
    def check():
        # divided-difference relations
        rng = random.Random(23)
        for _ in range(20):
            exps = [tuple(rng.randrange(3) for _ in range(6)) for _ in range(4)]
            p = Poly(3, {e: rng.randrange(-5, 6) for e in exps})
            for i in (1, 2):
                assert p.divided_difference(i).divided_difference(i).is_zero()
            a = p.divided_difference(1).divided_difference(2)
            assert a.divided_difference(1) == \
                p.divided_difference(2).divided_difference(1) \
                 .divided_difference(2)
        # global balance, cyclic symmetry, homogeneity
        for n in (3, 4):
            psis = chain.symbolic_stationary(n)
            res = chain.global_balance_residuals(psis, n)
            assert all(r.is_zero() for r in res.values())
            for w, p in psis.items():
                assert psis[w[1:] + w[:1]] == p
                deg = n * (n - 1) * (n - 2) // 6
                assert p.homogeneous_degree() == deg
        n5 = mlq.all_psi_via_mlq(5)
        for w, p in n5.items():
            assert n5[w[1:] + w[:1]] == p
            assert p.homogeneous_degree() == 10
    _run(11, "operator relations, balance, symmetry, homogeneity", check)
