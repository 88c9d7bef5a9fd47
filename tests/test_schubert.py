import random

import pytest

from ringtasep import perms, schubert
from ringtasep.poly import Poly


class TestDelta:
    def test_n2(self):
        assert schubert.delta(2) == Poly.x(2, 1) - Poly.y(2, 1)

    def test_n3(self):
        n = 3
        want = ((Poly.x(n, 1) - Poly.y(n, 1))
                * (Poly.x(n, 1) - Poly.y(n, 2))
                * (Poly.x(n, 2) - Poly.y(n, 1)))
        assert schubert.delta(3) == want

    def test_n1_empty_product(self):
        assert schubert.delta(1) == Poly.const(1, 1)


class TestDoubleSchubert:
    def test_longest_element_is_delta(self):
        for n in (2, 3, 4):
            assert schubert.double_schubert(perms.longest_element(n)) == \
                schubert.delta(n)

    def test_identity_n2(self):
        assert schubert.double_schubert((1, 2)) == Poly.const(2, 1)

    def test_1432_at_y_zero(self):
        got = schubert.double_schubert((1, 4, 3, 2)).substitute_y_zero()
        want = schubert.flagged_schur((2, 1), (2, 3), nvars=4)
        assert got == want

    def test_reduced_word_independence(self):
        # reverse-ordered word built from the largest descent instead
        def word_from_largest(w):
            u = list(w)
            swaps = []
            while True:
                descents = [i for i in range(len(u) - 1) if u[i] > u[i + 1]]
                if not descents:
                    break
                i = descents[-1]
                swaps.append(i + 1)
                u[i], u[i + 1] = u[i + 1], u[i]
            swaps.reverse()
            return swaps

        def schubert_alt(w):
            n = len(w)
            u = perms.compose(perms.inverse(w), perms.longest_element(n))
            p = schubert.delta(n)
            for i in reversed(word_from_largest(u)):
                p = p.divided_difference(i)
            return p

        for w in perms.iter_perms(4):
            assert schubert.double_schubert(w) == schubert_alt(w)
        rng = random.Random(7)
        pool = list(perms.iter_perms(5))
        for w in rng.sample(pool, 50):
            assert schubert.double_schubert(w) == schubert_alt(w)

    def test_stability_under_embedding(self):
        for w in perms.iter_perms(4):
            bigger = w + (5,)
            assert schubert.double_schubert(w).embed(5) == \
                schubert.double_schubert(bigger)

    def test_nonnegative_integer_coefficients(self):
        for n in range(1, 6):
            for w in perms.iter_perms(n):
                p = schubert.double_schubert(w).substitute_y_zero()
                assert all(c > 0 for c in p.terms.values()), w

    def test_memo_matches_reduced_word_route_s5(self):
        n = 5
        schubert.clear_caches()
        for w in perms.iter_perms(n):
            u = perms.compose(perms.inverse(w), perms.longest_element(n))
            assert schubert.double_schubert(w) == \
                schubert.apply_divided_differences(schubert.delta(n), u), w
            assert schubert.single_schubert(w) == \
                schubert.apply_divided_differences(
                    schubert.staircase_monomial(n), u), w

    def test_clear_caches_empties_both(self):
        schubert.clear_caches()
        schubert.double_schubert((1, 3, 2, 4))
        double_entries = schubert._from_top.cache_info().currsize
        schubert.single_schubert((2, 1, 4, 3))
        assert schubert._from_top.cache_info().currsize > double_entries > 0
        schubert.clear_caches()
        assert schubert._from_top.cache_info().currsize == 0


class TestSingleSchubert:
    def test_matches_double_at_y_zero(self):
        for n in range(1, 5):
            for w in perms.iter_perms(n):
                assert schubert.single_schubert(w) == \
                    schubert.double_schubert(w).substitute_y_zero()

    def test_first_elementary_symmetric(self):
        n = 5
        want = sum((Poly.x(n, i) for i in range(1, 5)), Poly.zero(n))
        assert schubert.single_schubert((1, 2, 3, 5, 4)) == want

    def test_identity(self):
        assert schubert.single_schubert((1, 2, 3)) == Poly.const(3, 1)

    def test_degree_is_inversion_count(self):
        for w in perms.iter_perms(4):
            p = schubert.single_schubert(w)
            assert p.homogeneous_degree() == perms.inversions(w)


class TestVexillary:
    def test_2143_itself(self):
        assert not schubert.is_vexillary((2, 1, 4, 3))

    def test_1432(self):
        assert schubert.is_vexillary((1, 4, 3, 2))

    def test_identity(self):
        assert schubert.is_vexillary(perms.identity(5))

    def test_flag_1432(self):
        assert schubert.flag((1, 4, 3, 2)) == (2, 3)

    def test_flag_longest_s3(self):
        assert schubert.flag((3, 2, 1)) == (1, 2)

    def test_flag_dominant(self):
        # strictly decreasing code: every flag entry sits at its own row
        w = (3, 2, 1)
        c = perms.lehmer_code(w)
        assert all(e == i + 1 for i, e in enumerate(schubert.flag(w))
                   if c[i] != 0)

    def test_flag_rejects_non_vexillary(self):
        with pytest.raises(ValueError):
            schubert.flag((2, 1, 4, 3))


class TestSSYT:
    def test_count_21_shape(self):
        assert len(schubert.ssyt_enumerate((2, 1), (2, 3))) == 5

    def test_single_box_column(self):
        for k in range(1, 5):
            assert len(schubert.ssyt_enumerate((1,), (k,))) == k

    def test_impossible_column(self):
        assert schubert.ssyt_enumerate((2, 2), (1, 1)) == []

    def test_rows_weakly_columns_strictly(self):
        for t in schubert.ssyt_enumerate((3, 2), (3, 4)):
            for row in t:
                assert all(a <= b for a, b in zip(row, row[1:]))
            for c in range(2):
                assert t[0][c] < t[1][c]


class TestFlaggedSchur:
    def test_21_shape(self):
        got = schubert.flagged_schur((2, 1), (2, 3), nvars=4)
        assert got == schubert.single_schubert((1, 4, 3, 2))

    def test_single_row_single_variable(self):
        got = schubert.flagged_schur((4,), (1,), nvars=2)
        assert got == Poly.monomial(2, (4,))

    def test_221_shape_9_tableaux(self):
        # 5 + 3 + 1 tableaux over the three possible first rows
        got = schubert.flagged_schur((2, 2, 1), (2, 3, 4), nvars=5)
        assert sum(got.terms.values()) == 9

    def test_bound_above_nvars_rejected(self):
        with pytest.raises(ValueError, match="exceed nvars=2"):
            schubert.flagged_schur((1,), (3,), nvars=2)

    def test_matches_shape_and_flag_of_perm(self):
        w = (1, 3, 5, 4, 2)
        assert schubert.shape(w) == (2, 1, 1)
        assert schubert.flag(w) == (3, 4, 4)
        got = schubert.flagged_schur((2, 1, 1), (3, 4, 4), nvars=5)
        assert got == schubert.single_schubert(w)


class TestFlaggedFactorization:
    def test_1432(self):
        assert schubert.verify_flagged_factorization((1, 4, 3, 2))

    def test_13542(self):
        assert schubert.verify_flagged_factorization((1, 3, 5, 4, 2))

    def test_identity(self):
        assert schubert.verify_flagged_factorization(perms.identity(4))

    def test_rejects_non_vexillary(self):
        with pytest.raises(ValueError):
            schubert.verify_flagged_factorization((2, 1, 4, 3))

    def test_all_vexillary_s4(self):
        for w in perms.iter_perms(4):
            if schubert.is_vexillary(w):
                assert schubert.verify_flagged_factorization(w), w
