"""The shared-monomial evaluation kernel and the integer sampler behind every sampled check."""

import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from toric_precision import polynomials
from toric_precision.blending import (
    BlendingSystem,
    WeightVector,
    toric_blending,
    verify_rational_linear_precision,
)
from toric_precision.cli import _as_system, _load
from toric_precision.errors import PoleError
from toric_precision.geometry import PointConfiguration, _integer_samples, convex_hull_facets, sample_interior
from toric_precision.polynomials import (
    _TERMS_PER_STATEMENT,
    EvaluationKernel,
    Polynomial,
    RationalFunction,
    point_text,
    variables,
)
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


@pytest.fixture
def kernel_bodies(monkeypatch):
    """The body lines of each kernel compiled while the test runs, read
    through a spy on the one compiler of straight-line code."""
    bodies = []
    compile_body = polynomials.straight_line

    def spy(label, name, signature, body, bound):
        if label == "evaluation kernel":
            bodies.append(list(body))
        return compile_body(label, name, signature, body, bound)

    monkeypatch.setattr(polynomials, "straight_line", spy)
    return bodies


def written_plan(body):
    """The programs a kernel body defines, its pole tests, and the program of
    each function's numerator and denominator, read from the return line."""
    programs = {line.split(" = ")[0] for line in body if re.match(r"v\d+ = ", line)}
    poles = [line for line in body if line.startswith("if not ")]
    pairs = re.findall(r"\((v\d+)[^,]*, (v\d+)[^)]*\)", body[-1])
    return programs, poles, pairs


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


def fraction_value(poly, point):
    """The polynomial at ``point``, summed term by term in Fractions."""
    return sum(
        (c * prod(Fraction(x) ** e for x, e in zip(point, exponent)) for exponent, c in poly.sorted_terms()),
        Fraction(0),
    )


def expected_pairs(functions, xs, q):
    """Each function's value at ``xs / q`` in Fractions, or the PoleError
    text naming the first function whose denominator vanishes."""
    point = [Fraction(x, q) for x in xs]
    values = []
    for f in functions:
        denominator = fraction_value(f.denominator, point)
        if denominator == 0:
            return f"denominator {f.denominator} vanishes at {point_text(xs, q)}"
        values.append(fraction_value(f.numerator, point) / denominator)
    return values


def assert_exact(functions, points):
    kernel = EvaluationKernel(functions)
    for xs, q in points:
        expected = expected_pairs(functions, xs, q)
        if isinstance(expected, str):
            with pytest.raises(PoleError) as caught:
                kernel.pairs(xs, q)
            assert str(caught.value) == expected
        else:
            assert [Fraction(n, d) for n, d in kernel.pairs(xs, q)] == expected


def random_polynomial(rng, names, terms, degree):
    return Polynomial(names, [
        (tuple(rng.randint(0, degree) for _ in names), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(terms)
    ])


class TestCompiledKernelIsExact:
    """The compiled kernel against term-by-term Fraction sums of ``sorted_terms()``."""

    @pytest.mark.parametrize("arity", [0, 1, 2, 3, 4])
    def test_seeded_random_functions(self, arity):
        rng = random.Random(90 + arity)
        names = tuple(f"z{i}" for i in range(arity))
        for _ in range(6):
            denominators = [random_polynomial(rng, names, rng.randint(1, 4), 3) for _ in range(3)]
            functions = []
            for _ in range(rng.randint(1, 6)):
                denominator = rng.choice([d for d in denominators if d] or [Polynomial.constant(1, names)])
                # content multiples of one denominator share its program
                scale = rng.choice([1, 1, -3, Fraction(5, 2)])
                numerator = random_polynomial(rng, names, rng.randint(0, 6), 4)
                functions.append(RationalFunction(numerator, denominator * scale))
            points = [([rng.randint(-5, 5) for _ in names], rng.randint(1, 4)) for _ in range(12)]
            assert_exact(functions, points)

    def test_coefficient_of_more_than_4300_digits(self):
        x, y = variables("x y")
        big = 7**5200 + 1
        assert big.bit_length() > 4300 * 3.33
        functions = (
            RationalFunction(big * x**2 - y, x + big * y + 1),
            RationalFunction(big**2 * x * y, 3 + x**2),
            RationalFunction(y, big),
        )
        assert_exact(functions, [([1, 2], 3), ([-4, 5], 7), ([0, 0], 1)])

    def test_only_the_powers_read_are_written(self, kernel_bodies):
        (x,) = variables("x1")
        # homogenised, x1^100000 + 1 reads x1 and q to the power 100000 alone
        kernel = EvaluationKernel([RationalFunction(x**100000 + 1)])
        (body,) = kernel_bodies
        assert len([line for line in body if re.match(r"(x\d+|q)_\d+ = ", line)]) <= 2
        ((n, d),) = kernel.pairs([1], 2)
        assert Fraction(n, d) == 1 + Fraction(1, 2**100000)
        # gaps of 1, 2 and 4 between the powers read
        assert_exact((RationalFunction(x**3 + 2 * x**7, 1 + x**8),), [([3], 2), ([-1], 5), ([0], 1)])

    def test_program_of_more_than_2000_terms(self, kernel_bodies):
        rng = random.Random(93)
        names = ("a", "b", "c")
        exponents = [e for e in product(range(22), repeat=3) if sum(e) <= 21]
        numerator = Polynomial(names, {e: rng.choice([-2, -1, 1, 3, 10**30]) for e in exponents})
        assert len(numerator.sorted_terms()) > 2000
        a, b, c = variables(names)
        functions = (RationalFunction(numerator, 1 + a**2 + b * c), RationalFunction(a, 1 + a**2 + b * c))
        assert_exact(functions, [([1, -2, 3], 5), ([2, 1, 1], 1)])
        # the long sum is split into bounded statements
        (body,) = kernel_bodies
        assert max(line.count(" + ") + line.count(" - ") for line in body) <= _TERMS_PER_STATEMENT
        assert sum(line.startswith("v0 = ") for line in body) > 2000 // _TERMS_PER_STATEMENT

    def test_pole_names_the_first_function(self):
        x, y = variables("x y")
        functions = (
            RationalFunction(x, y + 1),
            RationalFunction(1, x - y),
            RationalFunction(y, 2 * x - 2 * y),
            RationalFunction(x * y, x - 2),
        )
        kernel = EvaluationKernel(functions)
        with pytest.raises(PoleError) as caught:
            kernel.pairs([2, 2], 4)
        assert str(caught.value) == "denominator x - y vanishes at (1/2, 1/2)"
        with pytest.raises(PoleError) as caught:
            kernel.pairs([4, 1], 2)
        assert str(caught.value) == "denominator x - 2 vanishes at (2, 1/2)"
        assert_exact(functions, [([2, 2], 4), ([4, 1], 2), ([1, 3], 2), ([1, -2], 2)])

    def test_wrong_arity_before_and_after_the_first_call(self):
        x, y = variables("x y")
        kernel = EvaluationKernel((RationalFunction(x, y + 1),))
        with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
            kernel.pairs([1], 1)
        assert kernel.pairs([1, 1], 1) == [(1, 2)]
        with pytest.raises(ValueError, match="expected 2 coordinates, got 3"):
            kernel.pairs([1, 1, 1], 1)

    def test_empty_kernel(self):
        kernel = EvaluationKernel(())
        assert kernel.pairs([], 1) == []
        assert kernel.pairs([1, 2], 3) == []

    def test_compiled_when_built_and_never_again(self, kernel_bodies):
        x, y = variables("x y")
        kernel = EvaluationKernel((RationalFunction(x, y + 1), RationalFunction(y, y + 1)))
        assert len(kernel_bodies) == 1
        assert [kernel.pairs([1, 2], 3) for _ in range(3)] == [[(1, 5), (2, 5)]] * 3
        assert len(kernel_bodies) == 1
        # the kernel keeps its arity and its compiled function, no plan
        assert EvaluationKernel.__slots__ == ("_arity", "_compiled")

    def test_each_kernel_has_a_file_name_of_its_own(self):
        x, y = variables("x y")
        functions = (RationalFunction(x, y + 1),)
        names = [EvaluationKernel(functions)._compiled.__code__.co_filename for _ in range(2)]
        assert names[0] != names[1]
        assert all(re.fullmatch(r"<evaluation kernel \d+>", name) for name in names)


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

    @pytest.mark.parametrize("seed, count", [(0, 1), (1, 7), (5, 50), (21, 120), (1234, 33)])
    def test_weights_are_the_randint_stream(self, seed, count):
        points = ((0, 0), (3, 0), (0, 2), (1, 1), (2, 5), (-1, 4), (7, -3))
        config = PointConfiguration(2, points)
        rng = random.Random(seed)
        expected = []
        for index in range(count):
            weights = [1] * len(points) if index == 0 else [rng.randint(1, 1000) for _ in points]
            xs = [sum(w * p[c] for w, p in zip(weights, points)) for c in range(2)]
            expected.append((xs, sum(weights)))
        assert list(_integer_samples(config, count, seed)) == expected

    def test_empty_configuration(self):
        with pytest.raises(ValueError):
            sample_interior(PointConfiguration(1, ()), 3, 0)


class TestSharing:
    @pytest.mark.parametrize("system_name", ["trapezoid_toric_system", "square_system"])
    def test_toric_denominator_is_one_program(self, request, system_name, kernel_bodies):
        system = request.getfixturevalue(system_name)
        assert len({f.denominator for f in system.functions}) == 1
        EvaluationKernel(system.functions)
        programs, poles, pairs = written_plan(kernel_bodies[0])
        numerators = {f.numerator for f in system.functions}
        assert len(programs) == len(numerators) + 1
        # every function reads the one denominator program, tested once for a pole
        assert len(pairs) == len(system.functions)
        assert len({d for _, d in pairs}) == 1
        assert len(poles) == 1

    def test_denominators_equal_up_to_content_share_a_program(self, kernel_bodies):
        # binomial weights make canonical denominators differ by constant factors
        system = box(2, 2)
        assert len({f.denominator for f in system.functions}) > 1
        system._kernel
        programs, poles, pairs = written_plan(kernel_bodies[0])
        assert len(pairs) == len(system.functions)
        assert len({d for _, d in pairs}) == 1
        assert len(poles) == 1
        assert len(programs) == len(system.functions) + 1

    def test_shared_denominator_is_evaluated_once_per_sample(self, trapezoid_toric_system, kernel_bodies):
        system = BlendingSystem(
            trapezoid_toric_system.config, trapezoid_toric_system.weights,
            trapezoid_toric_system.functions, "toric", trapezoid_toric_system.variables,
        )
        code = system._kernel._compiled.__code__
        (body,) = kernel_bodies
        _, _, pairs = written_plan(body)
        (denominator,) = {d for _, d in pairs}
        # the denominator has fewer terms than one statement sums, so one line computes it;
        # body line i is line i + 1 of the compiled function
        lines = [code.co_firstlineno + 1 + i for i, line in enumerate(body) if line.startswith(f"{denominator} =")]
        assert len(lines) == 1
        executed = Counter()

        def trace_lines(frame, event, arg):
            executed[frame.f_code.co_filename, frame.f_lineno] += event == "line"
            return trace_lines

        def trace_calls(frame, event, arg):
            return trace_lines if frame.f_code.co_filename.startswith("<evaluation kernel ") else None

        previous = sys.gettrace()
        sys.settrace(trace_calls)
        try:
            report = verify_rational_linear_precision(system, samples=20, seed=1)
        finally:
            sys.settrace(previous)
        assert (report.toric_membership, report.interior_positivity) == (True, True)
        # 20 samples, 20 calls of the compiled code, each computing the denominator once
        assert [executed[code.co_filename, n] for n in lines] == [20]

    def test_kernel_is_planned_once_per_system(self, beta_tilde_system):
        assert beta_tilde_system._kernel is beta_tilde_system._kernel
