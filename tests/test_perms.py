import itertools

import pytest
from hypothesis import given, strategies as st

from ringtasep import perms

from expected import EVIL_COUNTS


def random_perm(max_n=7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


class TestLehmerCode:
    def test_worked_example(self):
        assert perms.lehmer_code((1, 3, 5, 4, 2)) == (0, 1, 2, 1, 0)

    def test_identity(self):
        assert perms.lehmer_code(perms.identity(6)) == (0,) * 6

    def test_longest_element(self):
        assert perms.lehmer_code((4, 3, 2, 1)) == (3, 2, 1, 0)

    @pytest.mark.parametrize("code,want", [
        ((0, 2, 0, 0), (1, 4, 2, 3)),
        ((0, 1, 1, 0), (1, 3, 4, 2)),
        ((0, 0, 0, 0), (1, 2, 3, 4)),
    ])
    def test_decode(self, code, want):
        # frozen from a brute-force scan of S_4 for the matching code
        assert perms.code_to_perm(code) == want
        assert want == next(w for w in perms.iter_perms(4)
                            if perms.lehmer_code(w) == code)

    def test_decode_rejects_invalid(self):
        with pytest.raises(ValueError):
            perms.code_to_perm((2, 0))

    @given(random_perm())
    def test_roundtrip(self, w):
        assert perms.code_to_perm(perms.lehmer_code(w)) == w

    def test_roundtrip_exhaustive_small(self):
        for n in range(1, 6):
            for w in perms.iter_perms(n):
                assert perms.code_to_perm(perms.lehmer_code(w)) == w


class TestPatterns:
    def test_pattern_equals_word(self):
        assert perms.contains_pattern((2, 4, 1, 3), (2, 4, 1, 3))

    def test_embedded_pattern(self):
        # (4,3,2,5) inside 14325 is order-isomorphic to 3214
        assert perms.contains_pattern((1, 4, 3, 2, 5), (3, 2, 1, 4))

    def test_identity_avoids_everything_nontrivial(self):
        for p in perms.EVIL_PATTERNS:
            assert not perms.contains_pattern(perms.identity(6), p)

    @given(random_perm(6))
    def test_agrees_with_exhaustive_scan(self, w):
        p = (2, 4, 1, 3)
        brute = any(
            tuple(sorted(sub).index(v) + 1 for v in sub) == p
            for sub in itertools.combinations(w, 4))
        assert perms.contains_pattern(w, p) == brute

    def test_agrees_with_value_subsequences_in_s5(self):
        # patterns longer than w included: S_5 holds no pattern of length 6
        for w in perms.iter_perms(5):
            for k in range(7):
                spelled = {tuple(sorted(sub).index(v) + 1 for v in sub)
                           for sub in itertools.combinations(w, k)}
                for p in perms.iter_perms(k):
                    assert perms.contains_pattern(w, p) == (p in spelled)

    def test_evil_avoiding(self):
        assert perms.is_evil_avoiding((1, 5, 4, 3, 2))
        assert not perms.is_evil_avoiding((1, 4, 3, 2, 5))
        assert perms.is_evil_avoiding(perms.identity(7))


class TestInvDescents:
    def test_known_values(self):
        assert perms.inv_descent_count((1, 5, 4, 3, 2)) == 3
        assert perms.inv_descent_count((1, 2, 3, 5, 4)) == 1
        assert perms.inv_descent_count(perms.identity(5)) == 0

    def test_matches_descents_of_inverse(self):
        for n in range(1, 7):
            for w in perms.iter_perms(n):
                inv = perms.inverse(w)
                desc = sum(1 for i in range(n - 1) if inv[i] > inv[i + 1])
                assert perms.inv_descent_count(w) == desc


class TestEnumeration:
    def test_state_counts_n5(self):
        assert len(perms.enumerate_states(5)) == 20
        assert [len(perms.enumerate_states(5, k)) for k in range(4)] == \
            [1, 11, 7, 1]

    def test_n2(self):
        assert perms.enumerate_states(2) == [(1, 2)]

    def test_k_zero_is_identity(self):
        for n in range(2, 6):
            assert perms.enumerate_states(n, 0) == [perms.identity(n)]

    def test_sorted_lexicographically(self):
        states = perms.enumerate_states(5)
        assert states == sorted(states)

    def test_state_count_equals_smaller_class_count(self):
        # states with w_1 = 1 in S_n biject onto the full class in S_{n-1}
        for n in range(2, 7):
            assert len(perms.enumerate_states(n)) == \
                perms.count_evil_avoiding(n - 1)


class TestCounting:
    def test_sequence(self):
        for n, want in enumerate(EVIL_COUNTS[:6], start=1):
            assert perms.count_evil_avoiding(n) == want

    def test_recurrence_extension(self):
        assert perms.count_evil_avoiding_recurrence(7) == 792
        assert perms.count_evil_avoiding_recurrence(8) == 2704

    def test_closed_form_matches_recurrence(self):
        for n in range(1, 16):
            assert perms.count_evil_avoiding_closed_form(n) == \
                perms.count_evil_avoiding_recurrence(n)

    def test_insertion_equals_direct_filter(self):
        for n in range(1, 8):
            grown = perms.evil_avoiders(n)
            assert len(grown) == len(set(grown))
            assert set(grown) == {w for w in perms.iter_perms(n)
                                  if perms.is_evil_avoiding(w)}


class TestSerialization:
    def test_roundtrip(self):
        assert perms.parse_perm("1,4,5,2,3") == (1, 4, 5, 2, 3)
        assert perms.perm_str((1, 4, 5, 2, 3)) == "1,4,5,2,3"

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            perms.parse_perm("1,2,2")
