"""Exact polynomial and rational-function arithmetic."""

import random
from fractions import Fraction

import pytest

from toric_precision.errors import PoleError
from toric_precision.polynomials import (
    Polynomial,
    RationalFunction,
    sum_rational_functions,
    variables,
)


def F(x):
    return Fraction(x)


class TestPolynomialEvaluation:
    def test_product_of_variables(self):
        x1, x2 = variables("x1 x2")
        assert (x1 * x2).evaluate((F("4/5"), F("2/5"))) == F("8/25")

    def test_trapezoid_edge_form_vanishes_at_top_vertex(self):
        x1, x2 = variables("x1 x2")
        assert (2 - x1 - x2).evaluate((1, 1)) == 0

    def test_constant(self):
        one = Polynomial.constant(1, ("x1", "x2"))
        assert one.evaluate((F("7/3"), F(-2))) == 1

    def test_dimension_mismatch(self):
        x1, x2 = variables("x1 x2")
        with pytest.raises(ValueError):
            (x1 + x2).evaluate((1,))

    def test_product_eval_matches_eval_product(self):
        rng = random.Random(7)
        x1, x2, x3 = variables("x1 x2 x3")
        f = 2 * x1**2 - x2 * x3 + 3
        g = x1 * x3 - 5 * x2 + F("1/2")
        for _ in range(50):
            point = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)
            )
            assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)


class TestRationalFunctionEvaluation:
    def test_hand_value(self):
        x1, x2 = variables("x1 x2")
        f = RationalFunction(x1 * x2, 2 - x2)
        assert f.evaluate((F("4/5"), F("2/5"))) == F("1/5")

    def test_pole(self):
        (x1,) = variables("x1")
        f = RationalFunction(x1, 1 - x1)
        with pytest.raises(PoleError):
            f.evaluate((1,))

    def test_vertex_value(self):
        x1, x2 = variables("x1 x2")
        f = RationalFunction((1 - x1) * (1 - x2), 1)
        assert f.evaluate((0, 0)) == 1


class TestRationalFunctionEquality:
    def test_common_monomial_factor(self):
        (x,) = variables("x")
        assert RationalFunction(x, 1) == RationalFunction(x**2, x)

    def test_different_variables_not_equal(self):
        x2, y2 = variables("x2 y2")
        assert RationalFunction(1 - x2, 1) != RationalFunction(1 - y2, 1)

    def test_square_functions_sum_to_one(self):
        x1, x2 = variables("x1 x2")
        total = sum_rational_functions(
            RationalFunction(p, 1)
            for p in ((1 - x1) * (1 - x2), x1 * (1 - x2), x2 * (1 - x1), x1 * x2)
        )
        assert total.equals(RationalFunction(1))

    def test_equivalence_relation_on_random_fractions(self):
        # reflexive, symmetric, and transitive via shared-multiple constructions
        rng = random.Random(11)
        x1, x2 = variables("x1 x2")
        atoms = [x1, x2, 1 - x1, 2 - x2, x1 + x2, Polynomial.constant(3, ("x1", "x2"))]

        def random_poly():
            p = Polynomial.constant(rng.randint(1, 3), ("x1", "x2"))
            for _ in range(rng.randint(1, 3)):
                p = p * atoms[rng.randrange(len(atoms))]
            return p

        for _ in range(100):
            num, den, scale = random_poly(), random_poly(), random_poly()
            f = RationalFunction(num, den)
            g = RationalFunction(num * scale, den * scale)
            h = RationalFunction(scale * num, scale * den)
            assert f == f
            assert f == g and g == f
            assert f == g and g == h and f == h
            assert f != f + 1

    def test_eq_is_fraction_field_equality(self):
        (x,) = variables("x")
        f = RationalFunction(x + 1, x + 1)
        assert (f.numerator, f.denominator) == (x + 1, x + 1)
        assert f == 1
        with pytest.raises(TypeError):
            hash(f)


class TestArithmetic:
    def test_add_shared_denominator(self):
        x1, x2 = variables("x1 x2")
        f = RationalFunction(x1, 2 - x2)
        g = RationalFunction(x2, 2 - x2)
        total = f + g
        expected = RationalFunction(x1 + x2, 2 - x2)
        assert (total.numerator, total.denominator) == (expected.numerator, expected.denominator)

    def test_mul_inverse(self):
        (x,) = variables("x")
        product = RationalFunction(x, 1) * RationalFunction(1, x)
        assert (product.numerator, product.denominator) == (1, 1)

    def test_div_by_zero(self):
        (x,) = variables("x")
        with pytest.raises(ZeroDivisionError):
            RationalFunction(x, 1) / RationalFunction(0)

    def test_eval_homomorphism(self):
        rng = random.Random(3)
        x1, x2 = variables("x1 x2")
        f = RationalFunction(x1 + 1, 2 - x2)
        g = RationalFunction(x1 * x2 - 3, x1 + 5)
        for _ in range(30):
            point = (F(rng.randint(-3, 3)), F(rng.randint(-1, 1)))
            assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)
            assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)


class TestCanonicalForm:
    def test_idempotent(self):
        x1, x2 = variables("x1 x2")
        f = RationalFunction(F("2/3") * x1, F("4/9") * (2 - x2))
        again = RationalFunction(f.numerator, f.denominator)
        assert (f.numerator, f.denominator) == (again.numerator, again.denominator)

    def test_denominator_leading_coefficient_positive(self):
        x1, x2 = variables("x1 x2")
        f = RationalFunction(x1, -(2 - x2) * (1 - x1))
        assert f.denominator.leading_coefficient() > 0

    def test_joint_integer_content(self):
        x1, x2 = variables("x1 x2")
        f = RationalFunction(F("6/5") * x1, F("9/10") * (1 - x2))
        coefficients = list(f.numerator.terms.values()) + list(f.denominator.terms.values())
        assert all(c.denominator == 1 for c in coefficients)
        from math import gcd

        g = 0
        for c in coefficients:
            g = gcd(g, abs(c.numerator))
        assert g == 1

    def test_zero_function_normalizes_to_zero_over_one(self):
        x1, x2 = variables("x1 x2")
        f = RationalFunction(Polynomial.zero(("x1", "x2")), (2 - x2) ** 3)
        assert f.numerator.is_zero
        assert f.denominator == Polynomial.constant(1, ("x1", "x2"))


class TestSubstitution:
    def test_affine_substitution(self):
        x1, x2 = variables("x1 x2")
        (t,) = variables("t")
        image = (x1 * x2 - x1).substitute([t, 2 * t + 1])
        assert image == t * (2 * t + 1) - t

    def test_constant_substitution(self):
        x1, x2 = variables("x1 x2")
        assert (x1 + x2).substitute([F(1), F(2)]) == Polynomial.constant(3)


class TestOrderingAndFormat:
    def test_sorted_terms_graded_lex_descending(self):
        x1, x2 = variables("x1 x2")
        p = 1 + x2 + x1 + x1 * x2 + x2**3
        exponents = [e for e, _ in p.sorted_terms()]
        assert exponents == [(0, 3), (1, 1), (1, 0), (0, 1), (0, 0)]

    def test_str_roundtrip_examples(self):
        x1, x2 = variables("x1 x2")
        assert str(2 - x1 - x2) == "-x1 - x2 + 2"
        assert str(Polynomial.zero(("x1",))) == "0"
        # sign normalization keeps the denominator's leading coefficient positive
        assert str(RationalFunction(x1, 2 - x2)) == "(-x1) / (x2 - 2)"
