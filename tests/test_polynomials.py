"""Exact polynomial and rational-function arithmetic."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest

from toric_precision.errors import PoleError
from toric_precision.polynomials import (
    EvaluationKernel,
    Polynomial,
    RationalFunction,
    lcm_sum,
    primitive_term,
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


def reference_value(poly, point):
    """Term-by-term Fraction evaluation, independent of the integer evaluator."""
    total = Fraction(0)
    for exp, c in poly:
        term = Fraction(c)
        for v, e in zip(point, exp):
            term *= Fraction(v) ** e
        total += term
    return total


def random_polynomial(rng, names, integer=False):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exp = tuple(rng.randint(0, 3) for _ in names)
        terms[exp] = rng.randint(-20, 20) if integer else Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    return Polynomial(names, terms)


def random_point(rng, dim):
    return tuple(
        rng.randint(-9, 9) if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(dim)
    )


class TestIntegerEvaluation:
    def test_matches_fraction_reference(self):
        rng = random.Random(20)
        for _ in range(200):
            names = tuple(f"x{i + 1}" for i in range(rng.randint(1, 4)))
            poly = random_polynomial(rng, names)
            for _ in range(3):
                point = random_point(rng, len(names))
                assert poly.evaluate(point) == reference_value(poly, point)

    def test_integer_evaluator_contract(self):
        # The kernel of p alone gives p(xs / q) = H / (L * q**deg), L the lcm
        # of the coefficient denominators.
        rng = random.Random(21)
        for _ in range(100):
            names = tuple(f"x{i + 1}" for i in range(rng.randint(1, 3)))
            poly = random_polynomial(rng, names)
            q = rng.randint(1, 12)
            xs = [rng.randint(-20, 20) for _ in names]
            common = 1
            for _, c in poly:
                common = common * c.denominator // gcd(common, c.denominator)
            ((value, scale),) = EvaluationKernel([RationalFunction(poly)]).pairs(xs, q)
            assert scale == common * q ** max(poly.total_degree(), 0)
            assert Fraction(value, scale) == reference_value(poly, [Fraction(x, q) for x in xs])

    def test_zero_polynomial(self):
        zero = Polynomial.zero(("x1", "x2"))
        assert zero.evaluate((F("3/7"), -2)) == 0
        assert EvaluationKernel([RationalFunction(zero)]).pairs([3, -14], 7) == [(0, 1)]

    def test_constants(self):
        for value in (F(5), F("-7/3"), F("1/12")):
            constant = Polynomial.constant(value, ("x1", "x2", "x3"))
            assert constant.evaluate((F("1/2"), -4, F("-5/9"))) == value
        assert Polynomial.constant(F("3/4")).evaluate(()) == F("3/4")

    def test_rational_function_pole_exactly_at_zero_denominator(self):
        rng = random.Random(22)
        names = ("x1", "x2")
        x1, x2 = variables(names)
        grid = [F(n) / 2 for n in range(-4, 5)]
        poles = values = 0
        for _ in range(30):
            den = (rng.randint(-2, 2) * x1 + rng.randint(-2, 2) * x2 + rng.randint(-2, 2)) * (
                x1 - rng.randint(-2, 2) * x2 + Fraction(rng.randint(-2, 2), 2)
            )
            if den.is_zero:
                continue
            f = RationalFunction(random_polynomial(rng, names, integer=True), den)
            for point in ((a, b) for a in grid for b in grid):
                expected_den = reference_value(f.denominator, point)
                if expected_den == 0:
                    poles += 1
                    with pytest.raises(PoleError, match="vanishes"):
                        f.evaluate(point)
                else:
                    values += 1
                    assert f.evaluate(point) == reference_value(f.numerator, point) / expected_den
        assert poles and values


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


def nonzero_polynomial(rng, names):
    while True:
        p = random_polynomial(rng, names)
        if not p.is_zero:
            return p


class TestLcmSum:
    def test_exponentwise_lcm(self):
        x, y = variables("x y")
        one = Polynomial.constant(1, ("x", "y"))
        numerator, denominator = lcm_sum([(one, {x: 2}), (one, {x: 1, y: 1})], ("x", "y"))
        assert denominator == x**2 * y
        assert numerator == y + x

    def test_equal_denominators_grouped(self):
        x, y = variables("x y")
        a, b = 1 + x, 2 - y
        terms = [(x, {a: 1}), (y, {a: 1}), (x * y, {a: 1, b: 2})]
        numerator, denominator = lcm_sum(terms, ("x", "y"))
        assert denominator == (1 + x) * (2 - y) ** 2
        assert numerator == (x + y) * (2 - y) ** 2 + x * y

    def test_no_terms(self):
        assert lcm_sum([], ("x",)) == (Polynomial.zero(("x",)), Polynomial.constant(1, ("x",)))

    def test_add_matches_pairwise_rule(self):
        def pairwise(f, g):
            if f.denominator == g.denominator:
                return RationalFunction(f.numerator + g.numerator, f.denominator)
            return RationalFunction(
                f.numerator * g.denominator + g.numerator * f.denominator,
                f.denominator * g.denominator,
            )

        rng = random.Random(29)
        shared = 0
        names = ("x1", "x2")
        for _ in range(60):
            f = RationalFunction(random_polynomial(rng, names), nonzero_polynomial(rng, names))
            if rng.random() < 0.4:
                # a constant term of 1 keeps f's denominator canonical in g
                numerator = random_polynomial(rng, names, integer=True)
                numerator = Polynomial(names, {**dict(numerator), (0, 0): 1})
                g = RationalFunction(numerator, f.denominator)
            else:
                g = RationalFunction(random_polynomial(rng, names), nonzero_polynomial(rng, names))
            shared += f.denominator == g.denominator
            total, expected = f + g, pairwise(f, g)
            assert (total.numerator, total.denominator) == (expected.numerator, expected.denominator)
        assert shared >= 10

    def test_sum_is_sum_in_fraction_field(self):
        rng = random.Random(31)
        names = ("x1", "x2")
        for _ in range(20):
            pool = [nonzero_polynomial(rng, names) for _ in range(2)]
            fs = [
                RationalFunction(random_polynomial(rng, names), rng.choice(pool))
                for _ in range(rng.randint(1, 4))
            ]
            numerator = Polynomial.zero(names)
            denominator = Polynomial.constant(1, names)
            for k, f in enumerate(fs):
                term = f.numerator
                for j, g in enumerate(fs):
                    if j != k:
                        term = term * g.denominator
                numerator = numerator + term
                denominator = denominator * f.denominator
            assert sum_rational_functions(fs) == RationalFunction(numerator, denominator)


class TestPrimitiveTerms:
    """Sums keyed by the primitive part of each denominator."""

    def test_denominators_equal_up_to_content_share_one_key(self):
        x, y = variables("x y")
        fs = [RationalFunction(1, 2 * (1 + x * y)), RationalFunction(x, 3 + 3 * x * y), RationalFunction(y, 1 + x * y)]
        assert len({f.denominator for f in fs}) == 3
        terms = [primitive_term(f) for f in fs]
        assert [key for _, key in terms] == [{1 + x * y: 1}] * 3
        assert [numerator for numerator, _ in terms] == [Polynomial.constant(Fraction(1, 2), ("x", "y")), Fraction(1, 3) * x, y]
        total, denominator = lcm_sum(terms, ("x", "y"))
        assert denominator == 1 + x * y
        assert RationalFunction(total, denominator) == sum_rational_functions(fs)
        # keyed by whole denominators, each group is multiplied by the other two
        _, whole = lcm_sum([(f.numerator, {f.denominator: 1}) for f in fs], ("x", "y"))
        assert whole == 6 * (1 + x * y) ** 3
        # sum_rational_functions and + key primitive parts too
        for summed in (sum_rational_functions(fs), fs[0] + fs[1] + fs[2]):
            assert summed.denominator.total_degree() == 2
            assert summed == RationalFunction(total, denominator)

    def test_a_constant_denominator_adds_no_factor(self):
        x, y = variables("x y")
        fs = [RationalFunction(x, 4), RationalFunction(y, 6), RationalFunction(1 - x - y, 1)]
        terms = [primitive_term(f) for f in fs]
        assert [key for _, key in terms] == [{}, {}, {}]
        total, denominator = lcm_sum(terms, ("x", "y"))
        assert denominator == Polynomial.constant(1, ("x", "y"))
        assert total == Fraction(1, 4) * x + Fraction(1, 6) * y + 1 - x - y

    def test_each_term_is_its_function(self):
        rng = random.Random(37)
        names = ("x1", "x2")
        for _ in range(40):
            content = rng.choice((1, 2, 6, 15))
            f = RationalFunction(random_polynomial(rng, names), content * nonzero_polynomial(rng, names))
            numerator, key = primitive_term(f)
            (factor,) = key or (Polynomial.constant(1, names),)
            assert RationalFunction(numerator, factor) == f
            assert factor.sorted_terms()[0][1] > 0
            assert gcd(*(c for _, c in factor)) == 1


class TestCanonicalForm:
    def test_idempotent(self):
        x1, x2 = variables("x1 x2")
        f = RationalFunction(F("2/3") * x1, F("4/9") * (2 - x2))
        again = RationalFunction(f.numerator, f.denominator)
        assert (f.numerator, f.denominator) == (again.numerator, again.denominator)

    def test_denominator_leading_coefficient_positive(self):
        x1, x2 = variables("x1 x2")
        f = RationalFunction(x1, -(2 - x2) * (1 - x1))
        assert f.denominator.sorted_terms()[0][1] > 0

    def test_joint_integer_content(self):
        x1, x2 = variables("x1 x2")
        f = RationalFunction(F("6/5") * x1, F("9/10") * (1 - x2))
        coefficients = [c for _, c in f.numerator] + [c for _, c in f.denominator]
        assert all(c.denominator == 1 for c in coefficients)
        from math import gcd

        g = 0
        for c in coefficients:
            g = gcd(g, abs(c.numerator))
        assert g == 1

    def test_placed_over_the_same_names_is_the_same_function(self):
        x1, x2 = variables("x1 x2")
        f = RationalFunction(F("2/3") * x1, 2 - x2)
        same = f.placed(("x1", "x2"), 0)
        assert (same.numerator, same.denominator) == (f.numerator, f.denominator)
        wider = f.placed(("x1", "x2", "x3"), 0)
        assert wider.variables == ("x1", "x2", "x3") and wider != f
        again = wider.placed(("x1", "x2", "x3"), 0)
        assert (again.numerator, again.denominator) == (wider.numerator, wider.denominator)

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

    def test_integer_coefficients_are_read_as_stored(self):
        x1, x2 = variables("x1 x2")
        integral, halves = 3 * x1**2 - 2 * x1 * x2 + 1, (3 * x1**2 - x2) * F("1/2")
        assert [type(c) for _, c in integral.sorted_terms()] == [int] * 3
        assert [type(c) for _, c in halves.sorted_terms()] == [Fraction] * 2
        for p in (integral, halves, -integral, Polynomial.constant(F("-7/3"), ("x1",))):
            reference = [(e, Fraction(c, p._denominator)) for e, c in p._coefficients.items()]
            assert p.sorted_terms() == sorted(reference, key=lambda t: (sum(t[0]), t[0]), reverse=True)
        assert str(integral) == "3*x1^2 - 2*x1*x2 + 1"
        assert str(halves) == "3/2*x1^2 - 1/2*x2"

    def test_str_roundtrip_examples(self):
        x1, x2 = variables("x1 x2")
        assert str(2 - x1 - x2) == "-x1 - x2 + 2"
        assert str(Polynomial.zero(("x1",))) == "0"
        # sign normalization keeps the denominator's leading coefficient positive
        assert str(RationalFunction(x1, 2 - x2)) == "(-x1) / (x2 - 2)"


# -- the integer core against a dict-of-Fraction reference -------------------

NAMES = ("x1", "x2", "x3")


def lift(terms, source, target):
    """Reference terms {exponent over source: Fraction} rewritten over target."""
    out = {}
    for exp, c in terms.items():
        powers = dict(zip(source, exp))
        key = tuple(powers.get(v, 0) for v in target)
        out[key] = out.get(key, 0) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_pow(a, n, width):
    out = {(0,) * width: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_canonical(num, den, width):
    """The canonical form rule, written out over Fractions."""
    if not num:
        return {}, {(0,) * width: Fraction(1)}
    exps = list(num) + list(den)
    shift = tuple(min(e[i] for e in exps) for i in range(width))
    num = {tuple(a - s for a, s in zip(e, shift)): c for e, c in num.items()}
    den = {tuple(a - s for a, s in zip(e, shift)): c for e, c in den.items()}
    coefficients = list(num.values()) + list(den.values())
    common = 1
    for c in coefficients:
        common = common * c.denominator // gcd(common, c.denominator)
    content = 0
    for c in coefficients:
        content = gcd(content, c.numerator * (common // c.denominator))
    scale = Fraction(common, content)
    if den[max(den, key=lambda e: (sum(e), e))] * scale < 0:
        scale = -scale
    return {e: c * scale for e, c in num.items()}, {e: c * scale for e, c in den.items()}


def random_names(rng):
    return tuple(rng.sample(NAMES, rng.randint(1, 3)))


def random_terms(rng, names, nonzero=False):
    while True:
        terms = {
            tuple(rng.randint(0, 3) for _ in names): Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            for _ in range(rng.randint(0, 6))
        }
        if lift(terms, names, names) or not nonzero:
            return terms


def assert_canonical(poly):
    den = poly._denominator
    assert den > 0 and all(poly._coefficients.values())
    assert gcd(den, *poly._coefficients.values()) == 1
    assert all(type(c) is (int if den == 1 else Fraction) for _, c in poly)


class TestIntegerCoreAgainstFractionReference:
    def test_constructor_and_terms_view(self):
        rng = random.Random(40)
        for _ in range(200):
            names = random_names(rng)
            terms = random_terms(rng, names)
            poly = Polynomial(names, terms)
            assert_canonical(poly)
            view = dict(poly)
            assert view == lift(terms, names, names)
            view[(0,) * len(names)] = 1
            assert dict(poly) == lift(terms, names, names)

    def test_ring_operations(self):
        rng = random.Random(41)
        for _ in range(200):
            nf = ng = merged = random_names(rng)
            tf, tg = random_terms(rng, nf), random_terms(rng, ng)
            f, g = Polynomial(nf, tf), Polynomial(ng, tg)
            a, b = lift(tf, nf, merged), lift(tg, ng, merged)
            minus_b = {e: -c for e, c in b.items()}
            scalar = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            k = rng.randint(0, 3)
            expected = [
                (f + g, ref_add(a, b)),
                (f - g, ref_add(a, minus_b)),
                (f * g, ref_mul(a, b)),
            ]
            for result, reference in expected:
                assert result.variables == merged
                assert dict(result) == reference
                assert_canonical(result)
            assert dict(-g) == {e: -c for e, c in lift(tg, ng, ng).items()}
            for result, reference in (
                (f + scalar, ref_add(lift(tf, nf, nf), {(0,) * len(nf): scalar})),
                (scalar * f, ref_mul(lift(tf, nf, nf), {(0,) * len(nf): scalar})),
                (f**k, ref_pow(lift(tf, nf, nf), k, len(nf))),
            ):
                assert result.variables == nf
                assert dict(result) == {e: c for e, c in reference.items() if c}
                assert_canonical(result)

    def test_substitute(self):
        rng = random.Random(42)
        for _ in range(100):
            names = random_names(rng)
            terms = random_terms(rng, names)
            image_names = random_names(rng)
            images = []
            for _ in names:
                if rng.random() < 0.2:
                    images.append(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
                else:
                    images.append(Polynomial(image_names, random_terms(rng, image_names)))
            result = Polynomial(names, terms).substitute(images)
            merged = image_names if any(isinstance(image, Polynomial) for image in images) else ()
            assert result.variables == merged
            lifted = [
                lift(dict(image), image.variables, merged)
                if isinstance(image, Polynomial)
                else lift({(): image}, (), merged)
                for image in images
            ]
            reference = {}
            for exp, c in lift(terms, names, names).items():
                term = {(0,) * len(merged): c}
                for image, e in zip(lifted, exp):
                    term = ref_mul(term, ref_pow(image, e, len(merged)))
                reference = ref_add(reference, term)
            assert dict(result) == reference
            assert_canonical(result)

    def test_placed_equality_and_hash(self):
        rng = random.Random(43)
        for _ in range(200):
            names = random_names(rng)
            terms = random_terms(rng, names)
            poly = Polynomial(names, terms)
            others = [v for v in NAMES if v not in names]
            rng.shuffle(others)
            offset = rng.randint(0, len(others))
            superset = (*others[:offset], *names, *others[offset:])
            moved = poly.placed(superset, offset)
            assert moved.variables == superset
            assert dict(moved) == lift(terms, names, superset)
            rebuilt = Polynomial(superset, lift(terms, names, superset))
            assert moved == rebuilt and rebuilt == moved
            assert hash(moved) == hash(rebuilt)
            assert (moved == poly) is (poly == moved) is (superset == names)
            other_names = random_names(rng)
            other = Polynomial(other_names, random_terms(rng, other_names))
            same = other_names == names and lift(terms, names, names) == lift(dict(other), names, names)
            assert (poly == other) is same and (other == poly) is same

    def test_rational_function_canonical_form(self):
        rng = random.Random(44)
        for _ in range(150):
            n1 = n2 = merged = random_names(rng)
            t1, t2 = random_terms(rng, n1), random_terms(rng, n2, nonzero=True)
            if rng.random() < 0.4:
                # a shared monomial factor to cancel
                shift = {v: rng.randint(1, 2) for v in rng.sample(NAMES, rng.randint(1, 3))}
                t1 = {tuple(e + shift.get(v, 0) for v, e in zip(n1, exp)): c for exp, c in t1.items()}
                t2 = {tuple(e + shift.get(v, 0) for v, e in zip(n2, exp)): c for exp, c in t2.items()}
            f = RationalFunction(Polynomial(n1, t1), Polynomial(n2, t2))
            num, den = ref_canonical(lift(t1, n1, merged), lift(t2, n2, merged), len(merged))
            assert f.variables == merged
            assert dict(f.numerator) == num
            assert dict(f.denominator) == den
            assert_canonical(f.numerator)
            assert_canonical(f.denominator)


class TestHashAgreesWithEquality:
    def test_equal_polynomials_collapse_in_a_set(self):
        half = F("1/2")
        x, y = variables("x y")
        linear = {Polynomial(("x", "y"), {(1, 0): half}), half * x, (x + y - y) * half, x - half * x}
        assert len(linear) == 1
        # over other variables, the same stored integers are other polynomials
        assert len({*linear, Polynomial(("y", "x"), {(1, 0): half})}) == 2
        constants = {Polynomial.constant(2, ("x", "y")), Polynomial.constant(2), 2, F(2)}
        assert len(constants) == 1
        assert {Polynomial.constant(half, ("x",)), half} == {half}
        assert {Polynomial.zero(("x", "y")), Polynomial.zero(), 0} == {0}


class TestOneVariableTuple:
    """Operands share one variable tuple; a constant over none is padded to it."""

    XY, YX = ("x", "y"), ("y", "x")

    @staticmethod
    def raises_naming(a, b):
        return pytest.raises(ValueError, match=re.escape(f"{a} and {b}") + "|" + re.escape(f"{b} and {a}"))

    def test_different_tuples_are_refused(self):
        p = Polynomial(self.XY, {(1, 0): 1, (0, 2): F("1/2")})
        q = Polynomial(self.YX, {(1, 0): 1, (0, 0): 3})
        f, g = RationalFunction(p, 1 + p), RationalFunction(q, 2 + q)
        operations = [
            lambda: p + q, lambda: p - q, lambda: p * q,
            lambda: f + g, lambda: f - g, lambda: f * g, lambda: f / g,
            lambda: f + q, lambda: f * q, lambda: g / p,
            lambda: RationalFunction(p, q),
            lambda: sum_rational_functions([f, g]),
            lambda: sum_rational_functions([RationalFunction(1), f, g]),
            lambda: (Polynomial.variable("s", ("s", "t")) * Polynomial.variable("t", ("s", "t"))).substitute([p, q]),
            lambda: p.substitute([q, p]),
        ]
        for operation in operations:
            with self.raises_naming(self.XY, self.YX):
                operation()

    def test_equality_across_tuples_is_false(self):
        p = Polynomial(self.XY, {(1, 0): 1})
        q = Polynomial(self.YX, {(1, 0): 1})
        for a, b in ((p, q), (RationalFunction(p), RationalFunction(q)), (RationalFunction(p), q), (p, RationalFunction(q))):
            assert not a == b and not b == a
            assert a != b and b != a
        # equal stored integers, so the same hash, yet different polynomials
        assert hash(p) == hash(q) and len({p, q}) == 2
        for k in (0, 2):
            assert Polynomial.constant(k, self.XY) != Polynomial.constant(k, self.YX)
            assert RationalFunction(Polynomial.constant(k, self.XY)) != RationalFunction(Polynomial.constant(k, self.YX))

    @pytest.mark.parametrize("k", [0, 1, -3, 2**70, F("-5/6")])
    def test_a_constant_takes_the_partner_tuple(self, k):
        expected = Polynomial.constant(k, self.XY)
        zero = Polynomial.zero(self.XY)
        for constant in (k, F(k), Polynomial.constant(k)):
            for result in (zero + constant, constant + zero, zero - (-constant), (1 + zero) * constant):
                assert result.variables == self.XY
                assert (result._coefficients, result._denominator) == (expected._coefficients, expected._denominator)
            assert (zero + constant == expected) and (constant == expected) and (expected == constant)
        one = RationalFunction(Polynomial.constant(1, self.XY))
        for result in (
            one * RationalFunction(k),
            RationalFunction(k) * one,
            RationalFunction(k, Polynomial.constant(1, self.XY)),
            RationalFunction(Polynomial.constant(k, self.XY), 1),
            sum_rational_functions([RationalFunction(k), RationalFunction(Polynomial.zero(self.XY))]),
        ):
            want = RationalFunction(expected)
            assert result.variables == self.XY
            assert (result.numerator, result.denominator) == (want.numerator, want.denominator)
            assert result.numerator._coefficients == want.numerator._coefficients
        (x,) = variables("x")
        image = Polynomial.variable("t", ("t", "u")).substitute([k, x])
        assert image.variables == ("x",) and image == Polynomial.constant(k, ("x",))

    def test_hash_agrees_with_equality_to_a_constant(self):
        rng = random.Random(12)
        equal = 0
        for _ in range(100):
            k = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for p in (Polynomial.constant(k, NAMES), Polynomial.constant(k), Polynomial(NAMES, random_terms(rng, NAMES))):
                for other in (k, k.numerator, Polynomial.constant(k), Polynomial.constant(k, NAMES)):
                    if p == other:
                        equal += 1
                        assert hash(p) == hash(other)
        assert equal >= 600


class TestFastPathsAgreeWithTheGeneralPath:
    """Same-variable operands and int scalars skip alignment; the results must not change."""

    @staticmethod
    def same(a, b):
        return (a.variables, a._coefficients, a._denominator) == (b.variables, b._coefficients, b._denominator)

    @pytest.mark.parametrize("k", [0, 1, -3, 2**70, True, F("-5/6")])
    def test_scalar_times_polynomial(self, k):
        rng = random.Random(7)
        for _ in range(20):
            p = Polynomial(NAMES, random_terms(rng, NAMES))
            general = p * Polynomial.constant(k)
            assert self.same(p * k, general) and self.same(k * p, general)
            assert_canonical(p * k)

    def test_same_permuted_and_larger_variables(self):
        """Operands over one tuple take the fast path, and placing them in a
        larger tuple first gives the placed result; a permuted tuple is refused."""
        rng = random.Random(8)
        permuted = ("x3", "x1", "x2")
        for _ in range(50):
            p = Polynomial(NAMES, random_terms(rng, NAMES))
            q = Polynomial(NAMES, random_terms(rng, NAMES))
            for larger, offset in (((*NAMES, "x4"), 0), (("x0", *NAMES), 1)):
                for op in (lambda a, b: a + b, lambda a, b: a * b):
                    fast, general = op(p, q), op(p.placed(larger, offset), q.placed(larger, offset))
                    assert self.same(fast.placed(larger, offset), general)
                    assert_canonical(fast)
            other = Polynomial(permuted, dict(q))
            with pytest.raises(ValueError):
                p + other
            assert p != other
            assert dict(p + q) == ref_add(dict(p), dict(q))
            assert dict(p * q) == ref_mul(dict(p), dict(q))

    def test_cached_hash_equals_a_fresh_one(self):
        rng = random.Random(9)
        for _ in range(50):
            terms = random_terms(rng, NAMES)
            p = Polynomial(NAMES, terms)
            first = hash(p)
            assert hash(p) == first == hash(Polynomial(NAMES, terms))
        xy = Polynomial.variable("x", ("x", "y")) * Polynomial.variable("y", ("x", "y"))
        yx = Polynomial.variable("y", ("x", "y")) * Polynomial.variable("x", ("x", "y"))
        assert xy == yx and hash(xy) == hash(yx)
        assert hash(xy) == hash(Polynomial(("x", "y"), {(1, 1): 1}))

    def test_exact_constructors_match_the_validating_ones(self):
        for value in (0, 1, -4, 2**70, F(0), F(4), F("-5/6")):
            assert self.same(Polynomial.constant(value, ("x", "y")), Polynomial(("x", "y"), {(0, 0): value}))
        assert self.same(Polynomial.zero(("x", "y")), Polynomial(("x", "y")))
        assert self.same(Polynomial.variable("y", ("x", "y")), Polynomial(("x", "y"), {(0, 1): 1}))
        with pytest.raises(ValueError, match="duplicate variable names"):
            Polynomial.constant(1, ("x", "x"))
        with pytest.raises(ValueError, match="duplicate variable names"):
            Polynomial.variable("x", ("x", "x"))


class TestConstructorValidation:
    @pytest.mark.parametrize("exponent", [(F("17/10"),), (1.7,), (True,), ("1",)])
    def test_non_integer_exponent_rejected(self, exponent):
        with pytest.raises(TypeError, match="exponents must be integers"):
            Polynomial(("x",), {exponent: 1})

    def test_float_coefficient_rejected(self):
        (x,) = variables("x")
        with pytest.raises(TypeError, match="float coefficient"):
            Polynomial(("x",), {(1,): 0.1})
        with pytest.raises(TypeError, match="float coefficient"):
            Polynomial.constant(0.5, ("x",))
        with pytest.raises(TypeError, match="float coefficient"):
            x * 0.5

    def test_exact_coefficients_accepted(self):
        poly = Polynomial(("x",), [((1,), 1), ((1,), "1/2"), ((0,), F("-3/4"))])
        assert dict(poly) == {(1,): F("3/2"), (0,): F("-3/4")}
