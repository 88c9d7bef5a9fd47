from collections import Counter

import pytest

from ringtasep import chain, mlq, perms, schubert
from ringtasep.chain import RateParams
from ringtasep.poly import Poly


def example_queue():
    # 4 x 5 grid, per-row column numbers (right-to-left, 1-based)
    return mlq.MultilineQueue.from_columns(
        5, [[2], [1, 3], [1, 2, 5], [1, 2, 3, 4]])


class TestQueueBasics:
    def test_text_roundtrip(self):
        q = example_queue()
        assert mlq.MultilineQueue.from_text(q.to_text()) == q

    def test_text_layout(self):
        # leftmost character is column n
        q = mlq.MultilineQueue.from_columns(3, [[3], [1, 2]])
        assert q.to_text() == "o..\n.oo"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mlq.MultilineQueue(3, ((5,),))

    def test_rejects_row_shorter_than_above(self):
        # row 1's second ball would find no ball below to match
        with pytest.raises(ValueError, match="fewer balls"):
            mlq.MultilineQueue(3, ((0, 1), (0,)))

    @pytest.mark.parametrize("make", [lambda: mlq.MultilineQueue(3, ()),
                                      lambda: mlq.MultilineQueue.from_text("")])
    def test_rejects_no_rows(self, make):
        with pytest.raises(ValueError, match="at least one row"):
            make()


class TestProjection:
    def test_example_type(self):
        pq = mlq.bully_project(example_queue())
        assert mlq.queue_type(pq) == (1, 2, 4, 3, 5)

    def test_example_coverage(self):
        pq = mlq.bully_project(example_queue())
        rows_and_classes = [(row, cls) for row, _, cls in pq.covered]
        assert rows_and_classes == [(2, 1), (3, 2), (4, 3)]

    def test_example_weight(self):
        pq = mlq.bully_project(example_queue())
        assert mlq.queue_weight(pq) == (5, 3, 1, 1)

    def test_single_row_types(self):
        for col, want in [(1, (1, 2)), (2, (2, 1))]:
            q = mlq.MultilineQueue.from_columns(2, [[col]])
            assert mlq.queue_type(mlq.bully_project(q)) == want

    def test_right_aligned_staircase(self):
        # every ball matches straight down; no covered vacancies
        n = 4
        q = mlq.MultilineQueue(
            n, tuple(tuple(range(n - r, n)) for r in range(1, n)))
        pq = mlq.bully_project(q)
        assert pq.covered == ()
        assert mlq.queue_type(pq) == (1, 2, 3, 4)
        vac = [n - len(row) for row in q.rows]
        want = tuple(sum(vac[i:]) for i in range(1, n - 1)) + (0,)
        assert mlq.queue_weight(pq) == want

    def test_smallest_class_covers_shared_vacancy(self):
        # the paths of classes 1 and 2 both pass row 3's vacancy at grid
        # index 1; the class-1 path passes it first and covers it
        q = mlq.MultilineQueue.from_text("o....\noo...\n..ooo\noooo.")
        pq = mlq.bully_project(q)
        assert pq.covered == ((3, 0, 1), (3, 1, 1), (4, 4, 3))
        assert mlq.queue_type(pq) == (5, 2, 1, 4, 3)

    def test_class_grid_text(self):
        # each ball drawn as its class, leftmost character = column n
        pq = mlq.bully_project(example_queue())
        assert pq.to_text() == "...1.\n..2.1\n3..21\n.3421"

    def test_queues_of_type_counts(self, mlq_n4):
        for w in perms.iter_perms(4):
            want = mlq_n4[w].evaluate((1,) * 4, (0,) * 4)
            assert len(list(mlq.queues_of_type(w))) == want, w

    def test_type_is_permutation(self):
        for q in mlq.iter_queues(4):
            t = mlq.queue_type(mlq.bully_project(q))
            assert sorted(t) == [1, 2, 3, 4]


class TestWeights:
    def test_all_weights_nonnegative_degree_fixed(self):
        # total degree is C(n, 3) for every queue
        for n in (3, 4, 5):
            want = n * (n - 1) * (n - 2) // 6
            for q in mlq.iter_queues(n):
                wt = mlq.queue_weight(mlq.bully_project(q))
                assert all(e >= 0 for e in wt)
                assert sum(wt) == want

    def test_n2_trivial_weight(self):
        for q in mlq.iter_queues(2):
            assert mlq.queue_weight(mlq.bully_project(q)) == (0,)


class TestQueueSum:
    def test_n3(self):
        got = mlq.all_psi_via_mlq(3)
        x1, x2 = Poly.x(3, 1), Poly.x(3, 2)
        assert got[(1, 2, 3)] == x1
        assert got[(1, 3, 2)] == x1 + x2

    def test_n4_matches_symbolic(self, symbolic_n4, mlq_n4):
        for w, p in symbolic_n4.items():
            assert mlq_n4[w] == p.substitute_y_zero()

    def test_sum_over_states_is_sum_over_queues(self, mlq_n5):
        total = Poly.zero(5)
        for p in mlq_n5.values():
            total = total + p
        queue_total = Poly.zero(5)
        for q in mlq.iter_queues(5):
            pq = mlq.bully_project(q)
            queue_total = queue_total + Poly.monomial(
                5, mlq.queue_weight(pq))
        assert total == queue_total

    def test_one_state_equals_sweep_n4(self, mlq_n4):
        for w in perms.iter_perms(4):
            assert mlq.psi_via_mlq(w) == mlq_n4[w], w

    @pytest.mark.parametrize("w", [(1, 2, 3, 4, 5), (1, 3, 2, 5, 4),
                                   (2, 4, 1, 5, 3), (3, 5, 1, 4, 2),
                                   (5, 4, 3, 2, 1)])
    def test_one_state_equals_sweep_n5(self, mlq_n5, w):
        assert mlq.psi_via_mlq(w) == mlq_n5[w]

    def test_n5_matches_solver_at_points(self, mlq_n5):
        states = [(1, 2, 3, 4, 5), (1, 5, 4, 3, 2), (2, 4, 1, 5, 3)]
        points = [RateParams.y_zero(p.xvals)
                  for p in chain.sample_points(5, trials=2, seed=1)]
        for w, ok in chain.compare_with_solver(mlq_n5.__getitem__, states,
                                               points):
            assert ok, w


class TestLatticePath:
    def test_221(self):
        w, d = mlq.w_of_partition((2, 2, 1), 5)
        assert w == (1, 2, 4, 3, 5)
        assert d == (4, 5)

    def test_single_box(self):
        w, d = mlq.w_of_partition((1,), 2)
        assert w == (1, 2)
        assert d == (2,)

    def test_empty(self):
        w, d = mlq.w_of_partition((), 4)
        assert w == (1, 2, 3, 4)
        assert d == ()

    def test_rejects_too_wide(self):
        with pytest.raises(ValueError):
            mlq.w_of_partition((4, 4), 5)

    def test_d_prime(self):
        assert mlq.d_prime((2, 2, 1), (4, 5)) == (2, 3, 4)
        assert mlq.d_prime((3,), (5,)) == (4,)
        assert mlq.d_prime((1, 1, 1), (4,)) == (1, 2, 3)


class TestGrassmannianBijection:
    def test_small(self):
        assert mlq.verify_grassmannian_bijection((1,), 3)

    def test_empty(self):
        assert mlq.verify_grassmannian_bijection((), 3)

    def test_221_with_example_weight(self):
        assert mlq.verify_grassmannian_bijection((2, 2, 1), 5)
        w, _ = mlq.w_of_partition((2, 2, 1), 5)
        weights = Counter()
        for q in mlq.iter_queues(5):
            pq = mlq.bully_project(q)
            if mlq.queue_type(pq) == w:
                weights[mlq.queue_weight(pq)] += 1
        assert (5, 3, 1, 1) in weights

    def test_cardinalities(self):
        for n in (3, 4, 5):
            for lam in schubert.partitions_in_box(n, n):
                if lam and lam[0] + len(lam) > n:
                    continue
                w, d = mlq.w_of_partition(lam, n)
                dp = mlq.d_prime(lam, d)
                count = sum(
                    1 for q in mlq.iter_queues(n)
                    if mlq.queue_type(mlq.bully_project(q)) == w)
                tabs = len(schubert.ssyt_enumerate(lam, dp)) if lam else 1
                assert count == tabs, (n, lam)

    def test_raised_flag_rejected(self, monkeypatch):
        d_prime = mlq.d_prime
        monkeypatch.setattr(mlq, "d_prime", lambda lam, d: tuple(
            b + 1 for b in d_prime(lam, d)))
        for lam in schubert.partitions_in_box(5, 5):
            if lam and lam[0] + len(lam) <= 5:
                assert not mlq.verify_grassmannian_bijection(lam, 5), lam
