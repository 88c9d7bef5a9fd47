from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringtasep.poly import Poly


def polys(n=3, max_degree=4, max_terms=6):
    exps = st.tuples(*[st.integers(0, max_degree)] * (2 * n))
    return st.dictionaries(exps, st.integers(-9, 9), max_size=max_terms).map(
        lambda d: Poly(n, d))


def x(i, n=3):
    return Poly.x(n, i)


def y(i, n=3):
    return Poly.y(n, i)


class TestArithmetic:
    def test_cancellation(self):
        assert (x(1) + (-x(1))).is_zero()

    def test_difference_of_squares(self):
        n = 1
        x1, y1 = Poly.x(n, 1), Poly.y(n, 1)
        assert (x1 - y1) * (x1 + y1) == x1 ** 2 - y1 ** 2

    def test_square_of_sum(self):
        assert (x(1) + x(2)) * (x(1) + x(2)) == \
            x(1) ** 2 + (x(1) * x(2)).scale(2) + x(2) ** 2

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            Poly.x(2, 1) + Poly.x(3, 1)

    @given(polys(), polys(), polys())
    @settings(max_examples=50)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r


class TestDividedDifference:
    def test_single_variable(self):
        assert x(1).divided_difference(1) == Poly.const(3, 1)

    def test_symmetric_input_killed(self):
        assert (x(1) * x(2)).divided_difference(1).is_zero()

    def test_square(self):
        assert (x(1) ** 2).divided_difference(1) == x(1) + x(2)

    def test_y_untouched(self):
        p = x(1) ** 2 * y(2)
        assert p.divided_difference(1) == (x(1) + x(2)) * y(2)

    def test_matches_quotient_definition(self):
        p = x(1) ** 3 * x(2) + x(2) ** 2 * x(3) + y(1) * x(1) ** 2
        lhs = p.divided_difference(1) * (x(1) - x(2))
        assert lhs == p - p.swap_x(1)

    @given(polys())
    @settings(max_examples=60)
    def test_nilpotence(self, p):
        for i in (1, 2):
            assert p.divided_difference(i).divided_difference(i).is_zero()

    @given(polys(n=4))
    @settings(max_examples=40)
    def test_commuting_when_far_apart(self, p):
        a = p.divided_difference(1).divided_difference(3)
        b = p.divided_difference(3).divided_difference(1)
        assert a == b

    @given(polys())
    @settings(max_examples=40)
    def test_braid_relation(self, p):
        a = p.divided_difference(1).divided_difference(2).divided_difference(1)
        b = p.divided_difference(2).divided_difference(1).divided_difference(2)
        assert a == b


class TestEvaluate:
    def test_simple(self):
        n = 1
        p = Poly.x(n, 1) - Poly.y(n, 1)
        assert p.evaluate([3], [1]) == 2

    def test_monomial(self):
        p = Poly.monomial(2, (2, 1))
        assert p.evaluate([2, 3], [0, 0]) == 12

    def test_zero(self):
        assert Poly.zero(2).evaluate([5, 7], [1, 2]) == 0

    @given(polys(n=2), polys(n=2),
           st.lists(st.fractions(max_denominator=20), min_size=4, max_size=4))
    @settings(max_examples=40)
    def test_ring_homomorphism(self, p, q, vals):
        xs, ys = vals[:2], vals[2:]
        assert (p * q).evaluate(xs, ys) == \
            p.evaluate(xs, ys) * q.evaluate(xs, ys)


class TestMonomialContent:
    def test_shared_factor(self):
        p = Poly.monomial(3, (2, 1)) + Poly.monomial(3, (1, 2))
        m, q = p.monomial_content()
        assert m == (1, 1, 0, 0, 0, 0)
        assert q == x(1) + x(2)

    def test_unit_content(self):
        m, q = (x(1) + x(2)).monomial_content()
        assert m == (0,) * 6
        assert q == x(1) + x(2)

    def test_unit_content_nontrivial(self):
        # five quadratic-shape terms where no single variable divides all
        p = Poly.zero(3)
        for e in [(2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1), (0, 2, 1)]:
            p = p + Poly.monomial(3, e)
        m, q = p.monomial_content()
        assert m == (0,) * 6 and q == p

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Poly.zero(2).monomial_content()

    @given(polys().filter(bool))
    @settings(max_examples=60)
    def test_roundtrip(self, p):
        m, q = p.monomial_content()
        assert Poly(3, {m: 1}) * q == p
        qm, _ = q.monomial_content()
        assert qm == (0,) * 6


class TestHomogeneity:
    def test_homogeneous(self):
        p = Poly.monomial(2, (2, 1)) + Poly.monomial(2, (1, 0), (1, 1))
        assert p.homogeneous_degree() == 3

    def test_inhomogeneous(self):
        assert (x(1) + x(1) * x(2)).homogeneous_degree() is None

    def test_constant(self):
        assert Poly.const(2, 5).homogeneous_degree() == 0


class TestSerialization:
    def test_text_form(self):
        p = (x(1) ** 2 * x(2)).scale(3) - y(1) * y(2) + Poly.const(3, 1)
        assert p.to_text() == "3*x1^2*x2 - y1*y2 + 1"

    def test_zero_text(self):
        assert Poly.zero(2).to_text() == "0"
        assert Poly.from_text(2, "0").is_zero()

    @given(polys())
    @settings(max_examples=60)
    def test_text_roundtrip(self, p):
        assert Poly.from_text(3, p.to_text()) == p

    @given(polys())
    @settings(max_examples=60)
    def test_json_roundtrip(self, p):
        assert Poly.from_json_terms(3, p.to_json_terms()) == p

    def test_canonical_order_is_equality(self):
        p = x(1) * x(2) + x(3) ** 2
        q = x(3) ** 2 + x(2) * x(1)
        assert p.to_text() == q.to_text()


class TestEmbed:
    def test_embedding_preserves_values(self):
        p = x(1) ** 2 - y(2, 3)
        q = p.embed(5)
        assert q.n == 5
        assert q.evaluate([2, 3, 4, 5, 6], [1, 1, 1, 1, 1]) == \
            p.evaluate([2, 3, 4], [1, 1, 1])

    def test_shrink_rejected(self):
        with pytest.raises(ValueError):
            x(1).embed(2)


def naive_evaluate(p, xs, ys):
    """Term-by-term Fraction evaluation, the exponents read from JSON."""
    total = Fraction(0)
    for item in p.to_json_terms():
        term = Fraction(item["coef"])
        for v, e in zip(list(xs) + list(ys), item["xexp"] + item["yexp"]):
            term *= Fraction(v) ** e
        total += term
    return total


def poly_and_point(values):
    """A polynomial at n = 4 or 5 and a point of 2n values drawn from
    values."""
    return st.integers(4, 5).flatmap(lambda n: st.tuples(
        polys(n=n, max_degree=5, max_terms=12),
        st.lists(values, min_size=2 * n, max_size=2 * n)))


class TestPackedKernels:
    @given(polys(), st.lists(st.fractions(max_denominator=50), min_size=6,
                             max_size=6))
    @settings(max_examples=80)
    def test_evaluate_matches_naive(self, p, vals):
        xs, ys = vals[:3], vals[3:]
        assert p.evaluate(xs, ys) == naive_evaluate(p, xs, ys)

    @given(polys(), st.lists(st.fractions(max_denominator=50), min_size=3,
                             max_size=3))
    @settings(max_examples=40)
    def test_evaluate_at_y_zero_matches_naive(self, p, xs):
        assert p.evaluate(xs, [0, 0, 0]) == naive_evaluate(p, xs, [0, 0, 0])
        assert p.evaluate(xs, [0, 0, 0]) == \
            p.substitute_y_zero().evaluate(xs, [1, 1, 1])

    @given(poly_and_point(st.fractions(max_denominator=10**6)))
    @settings(max_examples=60)
    def test_evaluate_matches_naive_distinct_denominators(self, case):
        p, vals = case
        xs, ys = vals[:p.n], vals[p.n:]
        assert p.evaluate(xs, ys) == naive_evaluate(p, xs, ys)

    @given(poly_and_point(st.integers(-2**40, 2**40).map(
        lambda v: Fraction(v, 2**40))))
    @settings(max_examples=60)
    def test_evaluate_matches_naive_one_denominator(self, case):
        p, vals = case
        xs, ys = vals[:p.n], vals[p.n:]
        assert p.evaluate(xs, ys) == naive_evaluate(p, xs, ys)

    def test_evaluate_length_mismatch_on_zero(self):
        for xs, ys in (([1], [1, 2]), ([1, 2], [1]), ([1, 2, 3], [1, 2, 3])):
            with pytest.raises(ValueError, match="length mismatch"):
                Poly.zero(2).evaluate(xs, ys)

    def test_evaluate_non_integer_and_zero(self):
        p = Poly.monomial(2, (3, 0), (0, 2), coef=-4) + Poly.x(2, 2)
        xs, ys = [Fraction(-2, 3), Fraction(5, 7)], [0, Fraction(1, 9)]
        assert p.evaluate(xs, ys) == naive_evaluate(p, xs, ys) == \
            Fraction(-4 * -8, 27 * 81) + Fraction(5, 7)
        assert Poly.zero(2).evaluate(xs, ys) == 0
        assert Poly.zero(0).evaluate([], []) == 0
        assert Poly.const(0, 7).evaluate([], []) == 7

    @given(st.dictionaries(st.tuples(*[st.integers(0, 4)] * 6),
                           st.integers(-9, 9), max_size=8))
    @settings(max_examples=60)
    def test_json_order_is_graded_lex(self, d):
        want = sorted(((e, c) for e, c in d.items() if c),
                      key=lambda t: (sum(t[0]), t[0]), reverse=True)
        got = [(tuple(t["xexp"] + t["yexp"]), t["coef"])
               for t in Poly(3, d).to_json_terms()]
        assert got == want

    def test_exponent_above_field_rejected(self):
        assert Poly.x(2, 1, 255).coefficient((255,)) == 1
        with pytest.raises(ValueError):
            Poly.x(2, 1, 256)
        with pytest.raises(ValueError):
            Poly(1, {(0, 300): 1})

    def test_product_overflow_raises(self):
        assert Poly.x(2, 1, 200) * Poly.x(2, 1, 55) == Poly.x(2, 1, 255)
        # large fields in different variables do not overflow
        assert Poly.x(2, 1, 200) * Poly.y(2, 2, 200) == \
            Poly.monomial(2, (200,), (0, 200))
        with pytest.raises(ValueError):
            Poly.x(2, 1, 200) * Poly.x(2, 1, 56)
        # the lowest field must not carry into y_1
        with pytest.raises(ValueError):
            (Poly.y(2, 2, 255) + Poly.x(2, 2)) * Poly.y(2, 2)

    def test_power_overflow_raises(self):
        assert (Poly.x(2, 2, 85) ** 3).coefficient((0, 255)) == 1
        with pytest.raises(ValueError):
            Poly.x(2, 2, 64) ** 4
        with pytest.raises(ValueError):
            (Poly.x(1, 1) + Poly.y(1, 1)) ** 256


class TestExactDivision:
    @given(polys(), polys())
    @settings(max_examples=60)
    def test_product_divided_by_factor(self, a, b):
        if b.is_zero():
            b = Poly.const(3, -2)
        assert (a * b) // b == a

    @given(polys(), st.integers(-9, 9).filter(bool))
    @settings(max_examples=30)
    def test_int_divisor(self, a, c):
        assert a.scale(c) // c == a
        assert a // 1 == a

    def test_zero_dividend(self):
        assert (Poly.zero(3) // (x(1) - y(2))).is_zero()

    @pytest.mark.parametrize("num, den", [
        (x(1), x(2)),
        (x(1) + x(2), x(1)),
        (x(1).scale(3), x(1).scale(2)),
        (x(1).scale(3), 2),
        (x(1) * x(1) + y(1), x(1) - y(1)),
        (Poly.const(3, 1), x(1)),
    ])
    def test_non_multiple_rejected(self, num, den):
        with pytest.raises(ValueError, match="divide exactly"):
            num // den

    @pytest.mark.parametrize("den", [Poly.zero(3), 0])
    def test_zero_divisor(self, den):
        with pytest.raises(ZeroDivisionError):
            x(1) // den

    def test_fields_near_255(self):
        n = 2
        a = Poly.monomial(n, (200, 0), (0, 255)) - Poly.monomial(n, (0, 3))
        b = Poly.x(n, 1, 55) - Poly.y(n, 1, 255)
        assert (a * b) // b == a
        top = Poly.monomial(n, (255, 1), (255, 0))
        assert top // Poly.monomial(n, (255, 1)) == Poly.y(n, 1, 255)
        assert top // Poly.monomial(n, (1, 1)) == Poly.monomial(n, (254,),
                                                               (255,))
        # a borrow across fields would make these look divisible
        for num, den in ((Poly.x(n, 1, 255), Poly.x(n, 2)),
                         (Poly.x(n, 2, 255), Poly.x(n, 1)),
                         (Poly.y(n, 1, 255), Poly.y(n, 2, 255))):
            with pytest.raises(ValueError, match="divide exactly"):
                num // den
