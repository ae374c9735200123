"""The shared-monomial evaluation kernel and the integer sampler behind every sampled check."""

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from toric_precision.blending import (
    BlendingSystem,
    WeightVector,
    toric_blending,
    verify_rational_linear_precision,
)
from toric_precision.cli import _as_system, _load
from toric_precision.errors import PoleError
from toric_precision.geometry import PointConfiguration, _integer_samples, convex_hull_facets, sample_interior
from toric_precision.polynomials import EvaluationKernel, RationalFunction, variables
from toric_precision.tfp import tfp_blending

from test_tfp import face_partition_holds

SYSTEM_FIXTURES = ("segment.json", "square.json", "trapezoid.json", "trapezoid_toric.json", "trapezoid_beta_tilde.json")


def box(k, d):
    config = PointConfiguration(d, tuple(product(range(k + 1), repeat=d)))
    weights = WeightVector(tuple(prod(comb(k, x) for x in p) for p in config.points))
    return toric_blending(convex_hull_facets(config), config, weights)


def unit_box(k, d):
    config = PointConfiguration(d, tuple(product(range(k + 1), repeat=d)))
    return toric_blending(convex_hull_facets(config), config, WeightVector.ones(len(config.points)))


def simplex(k, d):
    config = PointConfiguration(d, tuple(p for p in product(range(k + 1), repeat=d) if sum(p) <= k))
    weights = WeightVector(tuple(
        factorial(k) // (prod(factorial(x) for x in p) * factorial(k - sum(p))) for p in config.points
    ))
    return toric_blending(convex_hull_facets(config), config, weights)


def ladder_systems(square_system, beta_tilde_system, grading):
    systems = {name: _as_system(*_load(name, "model")) for name in SYSTEM_FIXTURES}
    systems.update({f"box{k}x2": box(k, 2) for k in (2, 3, 4)})
    systems["box2x3"] = box(2, 3)
    systems["box2x2-unit"] = unit_box(2, 2)
    systems.update({f"simplex{k}x2": simplex(k, 2) for k in (2, 3, 4)})
    systems["simplex2x3"] = simplex(2, 3)
    for form in ("B", "C"):
        systems[f"square-x-beta-tilde-{form}"] = tfp_blending(square_system, beta_tilde_system, grading, form=form)[0]
    return systems


class TestKernelAgainstRationalFunctionEvaluate:
    def test_every_function_of_every_ladder_system(self, square_system, beta_tilde_system, square_trapezoid_grading):
        rng = random.Random(80)
        for name, system in ladder_systems(square_system, beta_tilde_system, square_trapezoid_grading).items():
            kernel = EvaluationKernel(system.functions)
            for xs, q in _integer_samples(system.config, 4, rng.randrange(100)):
                # scale by k >= 2 so that (xs, q) is never reduced
                k = rng.randint(2, 5)
                xs, q = [k * x for x in xs], k * q
                point = tuple(Fraction(x, q) for x in xs)
                pairs = kernel.pairs(xs, q)
                assert len(pairs) == len(system.functions)
                for f, (n, d) in zip(system.functions, pairs):
                    assert Fraction(n, d) == f.evaluate(point), name
                assert system.evaluate(point) == tuple(Fraction(n, d) for n, d in pairs), name

    def test_negative_coordinates_and_custom_functions(self):
        rng = random.Random(81)
        x, y = variables("x y")
        functions = (
            RationalFunction(3 * x**2 - y, 1 + x**2 + y**4),
            RationalFunction(x * y**3 - Fraction(1, 7), 2 + y),
            RationalFunction(0 * x),
            RationalFunction(x**5, x + y + 3),
        )
        kernel = EvaluationKernel(functions)
        for _ in range(50):
            q = rng.randint(1, 30)
            xs = [rng.randint(-40, 40), rng.randint(-40, 40)]
            point = tuple(Fraction(v, q) for v in xs)
            try:
                expected = [f.evaluate(point) for f in functions]
            except PoleError:
                with pytest.raises(PoleError):
                    kernel.pairs(xs, q)
                continue
            assert [Fraction(n, d) for n, d in kernel.pairs(xs, q)] == expected

    def test_functions_must_share_variables(self):
        x, _ = variables("x y")
        with pytest.raises(ValueError, match="share"):
            EvaluationKernel((RationalFunction(x), RationalFunction(variables("z")[0])))

    def test_point_of_the_wrong_dimension(self, square_system, trapezoid_graded):
        with pytest.raises(ValueError, match="expected 2 coordinates, got 3"):
            square_system._kernel.pairs([1, 1, 1], 2)
        # a 1-dimensional system read on the faces of a 2-dimensional polytope
        segment = toric_blending(
            convex_hull_facets(PointConfiguration(1, ((0,), (1,), (2,), (3,), (4,)))),
            PointConfiguration(1, ((0,), (1,), (2,), (3,), (4,))),
            WeightVector.ones(5),
        )
        with pytest.raises(ValueError):
            face_partition_holds(segment, trapezoid_graded, 1)


class TestPoles:
    def test_vanishing_denominator_raises_and_fails_the_check(self, square_system):
        # 2*x1 - 1 vanishes at the square's barycenter, sample 0
        x1, _ = variables("x1 x2")
        pole = RationalFunction(1, 2 * x1 - 1)
        functions = (square_system.functions[0] * pole,) + square_system.functions[1:]
        system = BlendingSystem(
            square_system.config, square_system.weights, functions, "custom", square_system.variables
        )
        xs, q = next(_integer_samples(system.config, 1, 0))
        assert (xs, q) == ([2, 2], 4)
        with pytest.raises(PoleError, match=r"vanishes at \(1/2, 1/2\)"):
            system._kernel.pairs(xs, q)
        with pytest.raises(PoleError, match=r"vanishes at \(1/2, 1/2\)$"):
            system.evaluate((Fraction(1, 2), Fraction(1, 2)))
        report = verify_rational_linear_precision(system, samples=10, seed=0)
        assert not report.toric_membership and not report.interior_positivity
        for name in ("toric_membership", "interior_positivity"):
            assert report.details[name] == (
                "interior sample 0 (seed 0) at (1/2, 1/2): denominator 2*x1 - 1 vanishes at (1/2, 1/2)"
            )

    def test_public_evaluate_keeps_its_message(self):
        x1, x2 = variables("x1 x2")
        f = RationalFunction(x1, x1 - x2)
        with pytest.raises(PoleError) as caught:
            f.evaluate((1, Fraction(2, 2)))
        assert str(caught.value) == "denominator x1 - x2 vanishes at (1, 1)"


class TestIntegerSampler:
    @pytest.mark.parametrize("dim, seed", [(1, 3), (2, 4), (3, 5), (4, 6)])
    def test_reproduces_sample_interior(self, dim, seed):
        rng = random.Random(seed)
        config = PointConfiguration(
            dim, tuple(tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(9))
        )
        integer = list(_integer_samples(config, 30, seed))
        assert [tuple(Fraction(x, q) for x in xs) for xs, q in integer] == sample_interior(config, 30, seed)
        # unreduced: q is the sum of the drawn weights, n for the barycenter
        assert integer[0][1] == 9
        assert all(q >= 9 for _, q in integer)

    def test_empty_configuration(self):
        with pytest.raises(ValueError):
            sample_interior(PointConfiguration(1, ()), 3, 0)


class TestSharing:
    @pytest.mark.parametrize("system_name", ["trapezoid_toric_system", "square_system"])
    def test_toric_denominator_is_one_program(self, request, system_name):
        system = request.getfixturevalue(system_name)
        assert len({f.denominator for f in system.functions}) == 1
        kernel = system._kernel
        numerators = {f.numerator for f in system.functions}
        assert len(kernel._programs) == len(numerators) + 1
        # every function reads the one denominator program
        assert len({pair[2] for pair in kernel._pairs}) == 1

    def test_denominators_equal_up_to_content_share_a_program(self):
        # binomial weights make canonical denominators differ by constant factors
        system = box(2, 2)
        assert len({f.denominator for f in system.functions}) > 1
        kernel = system._kernel
        assert len({pair[2] for pair in kernel._pairs}) == 1
        assert len(kernel._programs) == len(system.functions) + 1

    def test_shared_denominator_is_evaluated_once_per_sample(self, trapezoid_toric_system):
        class Counting(list):
            iterations = 0

            def __iter__(self):
                Counting.iterations += 1
                return super().__iter__()

        system = BlendingSystem(
            trapezoid_toric_system.config, trapezoid_toric_system.weights,
            trapezoid_toric_system.functions, "toric", trapezoid_toric_system.variables,
        )
        kernel = system._kernel
        (denominator,) = {pair[2] for pair in kernel._pairs}
        coefficients, columns = kernel._programs[denominator]
        kernel._programs[denominator] = (Counting(coefficients), columns)
        report = verify_rational_linear_precision(system, samples=20, seed=1)
        assert (report.toric_membership, report.interior_positivity) == (True, True)
        assert Counting.iterations == 20

    def test_kernel_is_planned_once_per_system(self, beta_tilde_system):
        assert beta_tilde_system._kernel is beta_tilde_system._kernel
