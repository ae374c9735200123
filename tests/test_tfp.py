"""Multigradings, fiber products, product blending systems, class sums on faces."""

import re
import warnings
from fractions import Fraction

import pytest

from toric_precision import blending, geometry, polynomials, tfp
from toric_precision.blending import (
    BlendingSystem,
    WeightVector,
    toric_blending,
    verify_interior_positivity,
    verify_linear_precision,
    verify_partition_of_unity,
    verify_rational_linear_precision,
    verify_toric_membership,
)
from toric_precision.errors import (
    DependentDegreesError,
    EmptyDegreeClassError,
    NoDegreeMapError,
    ToricPrecisionError,
    ZeroClassSumError,
)
from toric_precision.geometry import PointConfiguration, convex_hull_facets, design_matrix, sample_interior
from toric_precision.horn import (
    HornPair,
    align_horn_to_labels,
    horn_parametrize,
    minimize_horn_pair,
    tfp_horn_pair,
    validate_horn_pair,
)
from toric_precision.mle import (
    birch_residual,
    mle_closed_form,
    tfp_marginal_counts,
    tfp_mle_combine,
)
from toric_precision.polynomials import EvaluationKernel, Polynomial, RationalFunction, sum_rational_functions, variables
from toric_precision.serialize import blending_system_from_json, blending_system_to_json
from toric_precision.tfp import (
    GradedConfiguration,
    Multigrading,
    tfp_blending,
    tfp_configuration,
    validate_multigrading,
    verify_form_agreement,
)

from test_mle import random_data_vectors


def canonical(f):
    return (f.numerator, f.denominator)


def class_points(graded, i):
    """The class-i points of a graded configuration, in configuration order."""
    return PointConfiguration(graded.config.dim, [p for p, a in zip(graded.config.points, graded.assignment) if a == i])


def face_partition_holds(system, graded, i):
    """Whether the class-i functions of a system on the graded points sum to 1
    on the affine span of the class, the paper's face i: an identity, no sample."""
    if system.config.points != graded.config.points:
        raise ValueError("the system's points are not the points of the graded configuration")
    total = sum_rational_functions(f for f, a in zip(system.functions, graded.assignment) if a == i)
    span = blending._affine_span_substitution(class_points(graded, i))
    return blending._vanishes_on(total - 1, span)


class TestValidateMultigrading:
    def test_square_trapezoid(self, square_trapezoid_grading):
        g = square_trapezoid_grading
        assert g.degrees.points == ((1, 0), (0, 1))
        assert g.assignment_b == (1, 1, 2, 2)
        assert g.assignment_c == (1, 1, 1, 2, 2)
        assert g.num_classes == 2
        assert Multigrading._fields == ("degrees", "assignment_b", "assignment_c")

    def test_no_covector_is_solved_for(self, square_graded, trapezoid_graded, degree_pair, monkeypatch):
        # one solve per degree coordinate and factor, for the degree maps only
        calls = []
        solve = tfp.linalg.solve
        monkeypatch.setattr(tfp.linalg, "solve", lambda rows, rhs: calls.append(len(rows)) or solve(rows, rhs))
        validate_multigrading(square_graded, trapezoid_graded, degree_pair)
        assert calls == [4, 4, 5, 5]

    def test_dependent_degrees(self, square_graded, trapezoid_graded):
        collinear = PointConfiguration(2, ((1, 0), (2, 0)))
        with pytest.raises(DependentDegreesError):
            validate_multigrading(square_graded, trapezoid_graded, collinear)

    def test_no_degree_map(self, square_config, trapezoid_graded, degree_pair):
        # diagonal pairs force the two degrees to coincide at the midpoint
        diagonal = GradedConfiguration(square_config, (1, 2, 2, 1))
        with pytest.raises(NoDegreeMapError) as info:
            validate_multigrading(diagonal, trapezoid_graded, degree_pair)
        # the map solved on the first independent points (0,0), (1,0), (0,1) misses the last
        assert str(info.value) == (
            "no affine degree map for the first factor: point (1, 1) in class 1 "
            "forces coordinate 1 to -1, expected 1"
        )

    def test_class_count_mismatch(self, square_config, trapezoid_graded):
        one_degree = PointConfiguration(1, ((1,),))
        graded = GradedConfiguration(square_config, (1, 1, 2, 2))
        with pytest.raises(EmptyDegreeClassError, match="gradings use 2 and 2 classes for 1 degrees"):
            validate_multigrading(graded, trapezoid_graded, one_degree)


class TestProductConfiguration:
    def test_square_trapezoid_points(
        self, square_graded, trapezoid_graded, square_trapezoid_grading
    ):
        product = tfp_configuration(
            square_graded,
            WeightVector.ones(4),
            trapezoid_graded,
            WeightVector(tuple(Fraction(v) for v in (1, 2, 1, 1, 1))),
            square_trapezoid_grading,
        )
        assert len(product.config.points) == 10
        by_label = dict(zip(product.config.labels, product.config.points))
        assert by_label["z[1][2][3]"] == (1, 0, 2, 0)
        assert by_label["z[2][2][2]"] == (1, 1, 1, 1)
        assert tuple(str(w) for w in product.weights.weights) == (
            "1", "2", "1", "1", "2", "1", "1", "1", "1", "1",
        )

    def test_cartesian_special_case(self, segment_config):
        trivial = GradedConfiguration(segment_config, (1, 1))
        grading = validate_multigrading(
            trivial, trivial, PointConfiguration(1, ((1,),))
        )
        product = tfp_configuration(
            trivial, WeightVector.ones(2), trivial, WeightVector.ones(2), grading
        )
        assert product.config.points == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_point_count_formula(
        self, square_graded, trapezoid_graded, square_trapezoid_grading
    ):
        product = tfp_configuration(
            square_graded,
            WeightVector.ones(4),
            trapezoid_graded,
            WeightVector.ones(5),
            square_trapezoid_grading,
        )
        sizes_b = [len(class_points(square_graded, i)) for i in (1, 2)]
        sizes_c = [len(class_points(trapezoid_graded, i)) for i in (1, 2)]
        assert len(product.config.points) == sum(s * t for s, t in zip(sizes_b, sizes_c))
        assert all(w > 0 for w in product.weights.weights)


@pytest.fixture(scope="module")
def product_system(square_system, beta_tilde_system, square_trapezoid_grading):
    system, product = tfp_blending(
        square_system, beta_tilde_system, square_trapezoid_grading, form="B"
    )
    return system, product


class TestTfpBlending:
    def test_printed_function(self, product_system):
        system, product = product_system
        x1, x2, y1, y2 = variables("x1 x2 y1 y2")
        index = product.config.labels.index("z[1][2][3]")
        expected = RationalFunction(
            x1 * (1 - x2) * y1**2 * (1 - y2), (1 - x2) * (2 - y2) ** 2
        )
        assert canonical(system.functions[index]) == canonical(expected)

    def test_class_two_function(self, product_system):
        system, product = product_system
        x1, x2, y1, y2 = variables("x1 x2 y1 y2")
        index = product.config.labels.index("z[2][2][2]")
        expected = RationalFunction(x1 * y1 * y2, 2 - y2)
        assert canonical(system.functions[index]) == canonical(expected)

    def test_partition_of_unity(self, product_system):
        assert verify_partition_of_unity(product_system[0])

    def test_linear_precision_on_span(self, product_system):
        assert verify_linear_precision(product_system[0])

    def test_interior_positivity(self, product_system):
        assert verify_interior_positivity(product_system[0], samples=50, seed=0)

    def test_headline_all_checks(self, product_system):
        report = verify_rational_linear_precision(product_system[0], samples=50, seed=0)
        assert report.all_pass, report.details

    def test_c_denominator_form(self, square_system, beta_tilde_system, square_trapezoid_grading):
        system, product = tfp_blending(
            square_system, beta_tilde_system, square_trapezoid_grading, form="C"
        )
        x1, x2, y1, y2 = variables("x1 x2 y1 y2")
        index = product.config.labels.index("z[1][2][3]")
        expected = RationalFunction(
            x1 * (1 - x2) * y1**2 * (1 - y2), (1 - y2) * (2 - y2) ** 2
        )
        assert canonical(system.functions[index]) == canonical(expected)
        assert verify_rational_linear_precision(system, samples=50, seed=0).all_pass

    def test_forms_differ_globally_but_agree_on_samples(
        self, square_system, beta_tilde_system, square_trapezoid_grading
    ):
        b_form, product = tfp_blending(
            square_system, beta_tilde_system, square_trapezoid_grading, form="B"
        )
        c_form, _ = tfp_blending(
            square_system, beta_tilde_system, square_trapezoid_grading, form="C"
        )
        index = product.config.labels.index("z[1][2][3]")
        assert b_form.functions[index] != c_form.functions[index]
        assert verify_form_agreement(
            square_system, beta_tilde_system, square_trapezoid_grading, 50, 0
        )

    def test_cartesian_forms_identical(self, segment_system, segment_config):
        trivial = GradedConfiguration(segment_config, (1, 1))
        grading = validate_multigrading(trivial, trivial, PointConfiguration(1, ((1,),)))
        b_form, _ = tfp_blending(segment_system, segment_system, grading, form="B")
        c_form, _ = tfp_blending(segment_system, segment_system, grading, form="C")
        assert list(map(canonical, b_form.functions)) == list(map(canonical, c_form.functions))
        x1, y1 = variables("x1 y1")
        assert list(map(canonical, b_form.functions)) == [
            ((1 - x1) * (1 - y1), 1),
            ((1 - x1) * y1, 1),
            (x1 * (1 - y1), 1),
            (x1 * y1, 1),
        ]

    def test_no_warning_for_a_factor_without_linear_precision(
        self, square_system, trapezoid_toric_system, square_trapezoid_grading
    ):
        # Checking the factors is the caller's job; the `tfp` verb does it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form in ("B", "C"):
                tfp_blending(square_system, trapezoid_toric_system, square_trapezoid_grading, form)

    def test_more_degrees_than_classes(self, square_system, beta_tilde_system, square_trapezoid_grading):
        three_degrees = PointConfiguration(2, ((1, 0), (0, 1), (1, 1)))
        grading = square_trapezoid_grading._replace(degrees=three_degrees)
        for form in ("B", "C"):
            with pytest.raises(EmptyDegreeClassError, match="^gradings use 2 and 2 classes for 3 degrees$"):
                tfp_blending(square_system, beta_tilde_system, grading, form)


def padded(poly, names, offset):
    """The polynomial over ``names`` with its exponents padded by zeros, through the validating constructor."""
    after = (0,) * (len(names) - offset - len(poly.variables))
    return Polynomial(names, {(0,) * offset + e + after: c for e, c in poly})


class TestPlacement:
    """The factors' functions are placed into the product's variables by padding exponents."""

    @pytest.mark.parametrize("offset", [0, 2], ids=["offset-0", "offset-dB"])
    def test_placement_keeps_the_canonical_form(
        self, offset, square_system, trapezoid_toric_system, beta_tilde_system, product_system
    ):
        for system in (square_system, trapezoid_toric_system, beta_tilde_system, product_system[0]):
            d = system.config.dim
            names = tuple(f"v{i + 1}" for i in range(d + 2))
            for f in system.functions:
                placed = f.placed(names, offset)
                expected = RationalFunction(padded(f.numerator, names, offset), padded(f.denominator, names, offset))
                assert placed.variables == names
                assert placed.numerator == expected.numerator
                assert placed.denominator == expected.denominator

    def test_placement_must_fit(self, square_system):
        f = square_system.functions[0]
        for names, offset in ((("a", "b", "c"), 2), (("a", "b"), -1), (("a",), 0)):
            with pytest.raises(ValueError, match="do not fit"):
                f.placed(names, offset)

    def test_a_build_never_reindexes(
        self, monkeypatch, chain, square_system, beta_tilde_system, trapezoid_toric_system, square_trapezoid_grading
    ):
        inner_system, _, outer_grading, _, _ = chain
        calls = []
        aligned = Polynomial._aligned

        def recording_aligned(poly, other):
            calls.append((poly.variables, other.variables))
            return aligned(poly, other)

        monkeypatch.setattr(Polynomial, "_aligned", recording_aligned)
        for form in "BC":
            for system, _ in (
                tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading, form),
                tfp_blending(inner_system, square_system, outer_grading, form),
            ):
                assert system.functions
        assert calls and all(a == b for a, b in calls)
        # the toric trapezoid lacks linear precision, so the class sums are
        # compared; of S^C / S^B - 1, only the constant 1 is padded
        calls.clear()
        assert not verify_form_agreement(square_system, trapezoid_toric_system, square_trapezoid_grading)
        padded = [pair for pair in calls if pair[0] != pair[1]]
        assert padded and all(() in pair for pair in padded)


def with_zero_class(system, kept, cancelled):
    """The system with function ``cancelled`` replaced by minus function ``kept``."""
    functions = list(system.functions)
    functions[cancelled] = -functions[kept]
    return system._replace(functions=tuple(functions))


class TestZeroClassSum:
    def test_form_b_names_the_first_factor(self, square_system, beta_tilde_system, square_trapezoid_grading):
        zero = with_zero_class(square_system, 0, 1)  # square class 1 is points 0 and 1
        with pytest.raises(ZeroClassSumError, match="^the first factor's class-1 functions sum to 0$"):
            tfp_blending(zero, beta_tilde_system, square_trapezoid_grading, "B")
        assert issubclass(ZeroClassSumError, ToricPrecisionError)

    def test_form_c_names_the_second_factor(self, square_system, beta_tilde_system, square_trapezoid_grading):
        zero = with_zero_class(beta_tilde_system, 3, 4)  # trapezoid class 2 is points 3 and 4
        with pytest.raises(ZeroClassSumError, match="^the second factor's class-2 functions sum to 0$"):
            tfp_blending(square_system, zero, square_trapezoid_grading, "C")

    def test_only_the_chosen_denominator_matters(self, square_system, beta_tilde_system, square_trapezoid_grading):
        zero = with_zero_class(beta_tilde_system, 3, 4)
        system, _ = tfp_blending(square_system, zero, square_trapezoid_grading, "B")
        assert len(system.functions) == 10
        assert not verify_form_agreement(square_system, zero, square_trapezoid_grading)


class TestFacePartition:
    def test_beta_tilde_class_sums(self, beta_tilde_system):
        y1, y2 = variables("y1 y2")
        class1 = sum(
            (beta_tilde_system.functions[i] for i in (0, 1, 2)),
            RationalFunction(0),
        )
        assert class1 == RationalFunction(1 - y2, 1)
        class2 = beta_tilde_system.functions[3] + beta_tilde_system.functions[4]
        assert class2 == RationalFunction(y2, 1)

    def test_beta_tilde_face_values(self, beta_tilde_system, trapezoid_graded):
        assert face_partition_holds(beta_tilde_system, trapezoid_graded, 1)
        assert face_partition_holds(beta_tilde_system, trapezoid_graded, 2)

    def test_square_face_value(self, square_system, square_graded):
        x1, x2 = variables("x1 x2")
        class1 = square_system.functions[0] + square_system.functions[1]
        assert class1 == RationalFunction(1 - x2, 1)
        assert class1.evaluate((Fraction(1, 2), 0)) == 1
        assert face_partition_holds(square_system, square_graded, 1)


class TestSampledChecksFail:
    """Failing verdicts without a pole, against the same sums in Fractions."""

    def test_face_partition_of_a_scaled_function(self, beta_tilde_system, trapezoid_graded):
        system = changed_function(beta_tilde_system, 1, lambda f: f * Fraction(3, 2))
        point = sample_interior(class_points(trapezoid_graded, 1), 1, 0)[0]
        assert sum(system.functions[p].evaluate(point) for p in (0, 1, 2)) != 1
        assert not face_partition_holds(system, trapezoid_graded, 1)
        # class 2 does not contain the scaled function
        assert face_partition_holds(system, trapezoid_graded, 2)

    def test_forms_disagree_when_a_factor_is_scaled(
        self, square_system, beta_tilde_system, square_trapezoid_grading
    ):
        functions = list(beta_tilde_system.functions)
        functions[3] = functions[3] * 2
        scaled = BlendingSystem(
            beta_tilde_system.config, beta_tilde_system.weights, tuple(functions), "custom", ("y1", "y2")
        )
        b_form, product = tfp_blending(square_system, scaled, square_trapezoid_grading, "B")
        c_form, _ = tfp_blending(square_system, scaled, square_trapezoid_grading, "C")
        point = sample_interior(product.config, 1, 0)[0]
        assert b_form.evaluate(point) != c_form.evaluate(point)
        assert not verify_form_agreement(square_system, scaled, square_trapezoid_grading, 20, 0)


class TestSampledChecks:
    """No samples is an error for every check that takes a sample count, and a
    pole at any sample fails the sampled membership and positivity checks."""

    @staticmethod
    def sampled_checks(system, square_poly):
        return (
            lambda n: verify_toric_membership(system, n, 0),
            lambda n: verify_interior_positivity(system, square_poly, n, 0),
        )

    def test_no_samples_is_an_error(
        self, square_system, square_graded, square_poly, beta_tilde_system, square_trapezoid_grading
    ):
        for check in self.sampled_checks(square_system, square_poly) + (
            lambda n: verify_form_agreement(square_system, beta_tilde_system, square_trapezoid_grading, n, 0),
        ):
            assert check(20)
            with pytest.raises(ValueError):
                check(0)

    def test_pole_at_a_sample_fails(self, square_system, square_poly):
        # (2*x1 - 1) / (2*x1 - 1) is never cancelled and vanishes at the
        # barycenter of the square
        for check in self.sampled_checks(with_removable_pole(square_system), square_poly):
            assert not check(20)


def half_line(f):
    """2*t - 1 for the first variable t of f; it vanishes at the square's barycenter."""
    return 2 * Polynomial.variable(f.variables[0], f.variables) - 1


def removable_pole(f):
    """f times (2*t - 1) / (2*t - 1), never cancelled."""
    return f * RationalFunction(half_line(f), half_line(f))


def with_removable_pole(system):
    """The system with every function times (2*x1 - 1) / (2*x1 - 1)."""
    functions = tuple(map(removable_pole, system.functions))
    return BlendingSystem(system.config, system.weights, functions, "custom", system.variables)


def changed_function(system, index, change):
    """A custom copy of the system, with no record, whose function ``index``
    is ``change`` of the old one."""
    functions = list(system.functions)
    functions[index] = change(functions[index])
    return BlendingSystem(system.config, system.weights, tuple(functions), "custom", system.variables)


@pytest.fixture
def counted_evaluations(monkeypatch):
    """Records every sample drawn and every point any kernel evaluates."""
    calls = []
    pairs, draw = EvaluationKernel.pairs, geometry._integer_samples

    def counting_pairs(kernel, xs, q):
        calls.append(("pairs", tuple(xs), q))
        return pairs(kernel, xs, q)

    def counting_draw(config, count, seed):
        calls.append(("draw", config, count, seed))
        return draw(config, count, seed)

    monkeypatch.setattr(EvaluationKernel, "pairs", counting_pairs)
    monkeypatch.setattr(geometry, "_integer_samples", counting_draw)
    monkeypatch.setattr(blending, "_integer_samples", counting_draw)
    return calls


class TestExactProductChecks:
    """Form agreement and face partition are identities on an affine span."""

    def test_no_sample_is_drawn(
        self,
        counted_evaluations,
        chain,
        square_system,
        square_graded,
        beta_tilde_system,
        trapezoid_graded,
        square_trapezoid_grading,
    ):
        inner_system, _, outer_grading, _, _ = chain
        assert verify_form_agreement(square_system, beta_tilde_system, square_trapezoid_grading, 20, 0)
        assert verify_form_agreement(inner_system, square_system, outer_grading, 20, 0)
        assert not verify_form_agreement(
            square_system, changed_function(beta_tilde_system, 3, lambda f: f * 2), square_trapezoid_grading, 20, 0
        )
        for i in (1, 2):
            assert face_partition_holds(beta_tilde_system, trapezoid_graded, i)
            assert face_partition_holds(square_system, square_graded, i)
        assert not face_partition_holds(
            changed_function(beta_tilde_system, 1, lambda f: f * Fraction(3, 2)), trapezoid_graded, 1
        )
        assert counted_evaluations == []

    @staticmethod
    def forms_agree_at_samples(sysB, sysC, g, count):
        b_form, product = tfp_blending(sysB, sysC, g, "B")
        c_form, _ = tfp_blending(sysB, sysC, g, "C")
        return all(b_form.evaluate(p) == c_form.evaluate(p) for p in sample_interior(product.config, count, 0))

    def test_form_agreement_equals_the_comparison_at_samples(
        self, chain, square_system, beta_tilde_system, square_trapezoid_grading
    ):
        inner_system, _, outer_grading, _, _ = chain
        cases = (
            (square_system, beta_tilde_system, square_trapezoid_grading, True),
            (square_system, changed_function(beta_tilde_system, 3, lambda f: f * 2), square_trapezoid_grading, False),
            (inner_system, square_system, outer_grading, True),
        )
        for sysB, sysC, g, expected in cases:
            assert verify_form_agreement(sysB, sysC, g) == expected
            assert self.forms_agree_at_samples(sysB, sysC, g, 10) == expected

    def test_face_partition_equals_the_sums_at_samples(self, beta_tilde_system, trapezoid_graded):
        for system, expected in (
            (beta_tilde_system, (True, True)),
            (changed_function(beta_tilde_system, 1, lambda f: f * Fraction(3, 2)), (False, True)),
            (changed_function(beta_tilde_system, 4, lambda f: f * 2), (True, False)),
        ):
            for i in (1, 2):
                functions = [f for f, a in zip(system.functions, trapezoid_graded.assignment) if a == i]
                sums = [
                    sum(f.evaluate(point) for f in functions)
                    for point in sample_interior(class_points(trapezoid_graded, i), 10, 0)
                ]
                assert face_partition_holds(system, trapezoid_graded, i) == expected[i - 1]
                assert all(total == 1 for total in sums) == expected[i - 1]

    def test_face_partition_needs_the_systems_points(self, square_system, trapezoid_graded):
        for i in (1, 2):
            with pytest.raises(ValueError, match="points"):
                face_partition_holds(square_system, trapezoid_graded, i)

    @pytest.fixture(scope="class")
    def reversed_grading(self, trapezoid_graded, square_graded, degree_pair):
        """The grading of trapezoid x square, the square second."""
        return validate_multigrading(trapezoid_graded, square_graded, degree_pair)

    def test_a_class_sum_of_zero_fails(
        self, square_system, beta_tilde_system, square_trapezoid_grading, reversed_grading
    ):
        # class 1 of the square is points 0 and 1: f_0 and -f_0 sum to zero
        functions = list(square_system.functions)
        functions[1] = -functions[0]
        zero_sum = BlendingSystem(square_system.config, square_system.weights, tuple(functions))
        assert not verify_form_agreement(zero_sum, beta_tilde_system, square_trapezoid_grading)
        assert not verify_form_agreement(beta_tilde_system, zero_sum, reversed_grading)

    def test_a_removable_pole_passes(
        self, square_system, square_graded, beta_tilde_system, square_trapezoid_grading, reversed_grading
    ):
        # As partition of unity and linear precision do, the identities pass
        # although (2*x1 - 1) / (2*x1 - 1) has no value at x1 = 1/2.
        system = with_removable_pole(square_system)
        assert verify_partition_of_unity(system) and verify_linear_precision(system)
        assert face_partition_holds(system, square_graded, 1)
        assert verify_form_agreement(system, beta_tilde_system, square_trapezoid_grading)
        assert verify_form_agreement(beta_tilde_system, system, reversed_grading)


FACTOR_PERTURBATIONS = {
    "doubled": lambda f: 2 * f,
    "negated": lambda f: -f,
    "removable pole": removable_pole,
    "zero on a line": lambda f: f * RationalFunction(half_line(f) ** 2),
    "plus one": lambda f: f + 1,
}


class TestProductsDecidedFromTheirFactors:
    """A product from tfp_blending is decided from its factors, with no product
    sample when they pass, and otherwise sampled as its record-free copy is."""

    @staticmethod
    def verdicts(system, samples, seed):
        return (
            verify_rational_linear_precision(system, samples, seed),
            verify_toric_membership(system, samples, seed),
            verify_interior_positivity(system, None, samples, seed),
        )

    def test_only_factor_configurations_are_sampled(
        self, counted_evaluations, chain, square_system, beta_tilde_system, square_trapezoid_grading
    ):
        # The ladder's product cases in both forms, and square x beta-tilde x square.
        products = [tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading, form)[0] for form in "BC"]
        for system in products + [chain[3]]:
            for seed in (0, 3):
                report, membership, positivity = self.verdicts(system, 50, seed)
                assert report.all_pass and membership and positivity, report.details
        draws = [call for call in counted_evaluations if call[0] == "draw"]
        # the square is toric and decided structurally; only beta-tilde is sampled
        assert draws and {call[1] for call in draws} == {beta_tilde_system.config}
        assert {call[2:] for call in draws} == {(50, 0), (50, 3)}
        assert {len(call[1]) for call in counted_evaluations if call[0] == "pairs"} == {2}

    def test_verdicts_equal_the_record_free_copies(
        self, square_system, square_graded, beta_tilde_system, trapezoid_toric_system, square_trapezoid_grading
    ):
        corrupted = beta_tilde_system._replace(weights=WeightVector.ones(5))
        factor_pairs = [(square_system, beta_tilde_system), (square_system, trapezoid_toric_system), (square_system, corrupted)]
        for perturb in FACTOR_PERTURBATIONS.values():
            factor_pairs += [(changed_function(square_system, b, perturb), beta_tilde_system) for b in (0, 3)]
            factor_pairs += [(square_system, changed_function(beta_tilde_system, b, perturb)) for b in (1, 3)]
        products = []
        for form in "BC":
            products += [tfp_blending(sysB, sysC, square_trapezoid_grading, form)[0] for sysB, sysC in factor_pairs]
            inner, model = tfp_blending(square_system, corrupted, square_trapezoid_grading, form)
            outer_grading = validate_multigrading(model.graded, square_graded, model.degrees)
            products.append(tfp_blending(inner, square_system, outer_grading, form)[0])
        passing = []
        for system in products:
            copy = system._replace()
            assert copy._record is None
            verdicts = self.verdicts(system, 12, 0)
            assert verdicts == self.verdicts(copy, 12, 0)
            passing.append(verdicts[1:])
        # square x beta-tilde, the toric-trapezoid factor and the removable
        # poles in beta-tilde pass both checks in each form; every product with
        # the corrupted factor fails membership with a sampled witness
        assert passing.count((True, True)) == 2 * 4
        for system in (products[2], products[-1]):
            details = verify_rational_linear_precision(system, 12, 0).details
            assert details["toric_membership"].startswith("interior sample 0 (seed 0) at (")

    def test_a_factor_that_vanishes_inside_is_no_certificate(
        self, counted_evaluations, square_system, beta_tilde_system, square_trapezoid_grading
    ):
        # nonnegative, but zero at the barycenter (1/2, 1/2), the first sample
        zero = changed_function(square_system, 0, FACTOR_PERTURBATIONS["zero on a line"])
        assert verify_interior_positivity(zero, None, 12, 0)
        assert blending._decide(zero, blending.STRICT_POSITIVITY, samples=12, seed=0) == (
            "interior sample 0 (seed 0) at (1/2, 1/2): function 0 is zero",
        )
        system, product = tfp_blending(zero, beta_tilde_system, square_trapezoid_grading)
        counted_evaluations.clear()
        assert verify_interior_positivity(system, None, 12, 0)
        assert ("draw", product.config, 12, 0) in counted_evaluations

    def test_a_replace_copy_carries_no_record(self, square_system, beta_tilde_system, square_trapezoid_grading):
        system, _ = tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading)
        assert system._record == blending._ProductRecord((square_system, beta_tilde_system), square_trapezoid_grading, "B")
        copy = system._replace()
        assert copy == system and copy._record is None
        assert system._replace(kind="custom")._record is None
        assert blending_system_from_json(blending_system_to_json(system))._record is None


@pytest.fixture
def summed_variables(monkeypatch):
    """Records the variables of every lcm_sum, from blending's checks and from
    sum_rational_functions alike."""
    calls = []
    lcm_sum = polynomials.lcm_sum

    def recording_lcm_sum(terms, names):
        calls.append(tuple(names))
        return lcm_sum(terms, names)

    monkeypatch.setattr(polynomials, "lcm_sum", recording_lcm_sum)
    monkeypatch.setattr(blending, "lcm_sum", recording_lcm_sum)
    return calls


class TestIdentitiesDecidedFromTheirFactors:
    """A product from tfp_blending passes partition of unity and linear
    precision with no product sum when both factors pass both; otherwise the
    expanded functions are summed, as for its record-free copy."""

    @staticmethod
    def identities(system):
        return (
            verify_rational_linear_precision(system, 12, 0),
            verify_partition_of_unity(system),
            verify_linear_precision(system),
        )

    def test_reports_equal_the_expanded_checks_on_the_chain(self, chain, square_system, square_graded):
        inner_system, _, _, outer_system, outer = chain
        # the 40-function rung, in either form over a product of the chain's form
        grading = validate_multigrading(outer.graded, square_graded, outer.degrees)
        longer = [tfp_blending(outer_system, square_system, grading, form)[0] for form in "BC"]
        for system in [inner_system, outer_system] + longer:
            verdicts = self.identities(system)
            assert verdicts[0].all_pass and verdicts[1:] == (True, True)
            assert verdicts == self.identities(system._replace())

    def test_no_product_sum_when_the_factors_pass(
        self, summed_variables, chain, square_system, beta_tilde_system, square_trapezoid_grading
    ):
        inner_system, _, outer_grading, outer_system, _ = chain
        products = [tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading, form)[0] for form in "BC"]
        summed_variables.clear()
        for system in products + [outer_system]:
            report, partition, linear = self.identities(system)
            assert report.all_pass and partition and linear
        assert verify_form_agreement(square_system, beta_tilde_system, square_trapezoid_grading)
        assert verify_form_agreement(inner_system, square_system, outer_grading)
        # only the square (x1, x2) and beta-tilde (y1, y2) are summed
        assert summed_variables and set(summed_variables) == {("x1", "x2"), ("y1", "y2")}

    def test_a_factor_without_either_identity_falls_back(
        self, summed_variables, square_system, beta_tilde_system, trapezoid_toric_system, square_trapezoid_grading
    ):
        doubled = FACTOR_PERTURBATIONS["doubled"]
        factor_pairs = (
            (square_system, trapezoid_toric_system),  # no linear precision
            (changed_function(square_system, 0, doubled), beta_tilde_system),  # neither
            (square_system, changed_function(beta_tilde_system, 1, doubled)),  # neither
        )
        failing = set()
        for form in "BC":
            for sysB, sysC in factor_pairs:
                system, _ = tfp_blending(sysB, sysC, square_trapezoid_grading, form)
                summed_variables.clear()
                verdicts = self.identities(system)
                assert system.variables in summed_variables
                assert verdicts == self.identities(system._replace())
                report = verdicts[0]
                failing.update(report.details)
                if not report.partition_of_unity:
                    total = sum_rational_functions(system.functions)
                    assert report.details["partition_of_unity"] == f"functions sum to {total}, not 1"
        assert {"partition_of_unity", "linear_precision"} <= failing

    def test_a_factor_undefined_on_its_span_is_no_certificate(
        self, square_system, square_graded, beta_tilde_system, square_trapezoid_grading
    ):
        # The square x beta-tilde product spans x2 = y2, and its function 0 sits
        # at the origin, so no coordinate sum of linear precision reads it.
        # Times (x2 - y2) / (x2 - y2), it is undefined on the whole span, yet
        # the copy passes partition of unity and linear precision.
        inner, model = tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading)
        assert inner.config.points[0] == (0, 0, 0, 0)
        x2, y2 = Polynomial.variable("x2", inner.variables), Polynomial.variable("y2", inner.variables)
        undefined = changed_function(inner, 0, lambda f: RationalFunction(f.numerator * (x2 - y2), f.denominator * (x2 - y2)))
        assert verify_partition_of_unity(undefined) and verify_linear_precision(undefined)
        assert blending._decide(undefined, blending.DEFINED) == ("a denominator vanishes on the span",)
        grading = validate_multigrading(model.graded, square_graded, model.degrees)
        # In form B, the second factor's coordinates are summed against every
        # function of the first one's classes, the undefined one included.
        system, _ = tfp_blending(undefined, square_system, grading, "B")
        assert self.identities(system) == self.identities(system._replace())
        assert not verify_linear_precision(system)
        assert not verify_form_agreement(undefined, square_system, grading)

    def test_form_agreement_equals_the_symbolic_route(
        self, monkeypatch, chain, square_system, beta_tilde_system, trapezoid_toric_system, square_trapezoid_grading
    ):
        inner_system, _, outer_grading, _, _ = chain
        cases = [
            (square_system, beta_tilde_system, square_trapezoid_grading),
            (inner_system, square_system, outer_grading),
            (square_system, trapezoid_toric_system, square_trapezoid_grading),
        ]
        for perturb in FACTOR_PERTURBATIONS.values():
            cases.append((changed_function(square_system, 3, perturb), beta_tilde_system, square_trapezoid_grading))
            cases.append((square_system, changed_function(beta_tilde_system, 3, perturb), square_trapezoid_grading))
        answers = [verify_form_agreement(*case) for case in cases]
        monkeypatch.setattr(tfp, "_factors_certify", lambda *args: False)
        assert answers == [verify_form_agreement(*case) for case in cases]
        assert answers[:2] == [True, True] and False in answers


class TestDegreeMapsOfTheFactors:
    """The grading's classes must admit an affine degree map on the points of
    the factor systems that tfp_blending and verify_form_agreement are given."""

    @pytest.fixture(scope="class")
    def crossed(self):
        """A toric system on the square's points in another order, so that the
        classes (1, 1, 2, 2) pair opposite corners."""
        config = PointConfiguration(2, ((0, 0), (1, 1), (1, 0), (0, 1)))
        return toric_blending(convex_hull_facets(config), config, WeightVector.ones(4))

    MESSAGE = "no affine degree map for the {} factor: point (0, 1) in class 2 forces coordinate 1 to 2, expected 0"

    def test_tfp_blending_names_the_factor_and_the_point(
        self, crossed, beta_tilde_system, trapezoid_graded, square_graded, degree_pair, square_trapezoid_grading
    ):
        reversed_grading = validate_multigrading(trapezoid_graded, square_graded, degree_pair)
        for form in ("B", "C"):
            with pytest.raises(NoDegreeMapError, match=re.escape(self.MESSAGE.format("first"))):
                tfp_blending(crossed, beta_tilde_system, square_trapezoid_grading, form)
            with pytest.raises(NoDegreeMapError, match=re.escape(self.MESSAGE.format("second"))):
                tfp_blending(beta_tilde_system, crossed, reversed_grading, form)

    def test_another_degree_map_fits(self, beta_tilde_system, square_trapezoid_grading):
        # the grading's map (1 - x2, x2) misses the doubled square; (1 - x2/2, x2/2) fits it
        config = PointConfiguration(2, ((0, 0), (2, 0), (0, 2), (2, 2)))
        doubled = toric_blending(convex_hull_facets(config), config, WeightVector.ones(4))
        system, product = tfp_blending(doubled, beta_tilde_system, square_trapezoid_grading)
        assert product.config.points[-1] == (2, 2, 1, 1)
        # the toric class sums of the corners of [0, 2]^2 are not affine, so
        # the forms disagree and the product lacks linear precision
        assert not verify_form_agreement(doubled, beta_tilde_system, square_trapezoid_grading)
        report = verify_rational_linear_precision(system, 12, 0)
        assert report.toric_membership and report.interior_positivity and not report.linear_precision
        assert report == verify_rational_linear_precision(system._replace(), 12, 0)

    def test_form_agreement_names_the_factor_and_the_point(
        self, crossed, beta_tilde_system, square_trapezoid_grading
    ):
        with pytest.raises(NoDegreeMapError, match=re.escape(self.MESSAGE.format("first"))):
            verify_form_agreement(crossed, beta_tilde_system, square_trapezoid_grading)

    def test_dependent_degrees_are_refused(self):
        # three classes at degrees 0, 1 and 2 on a line, built without
        # validate_multigrading; the map L(p) = p sends every point to its degree
        line = PointConfiguration(1, ((0,), (1,), (2,)))
        system = toric_blending(convex_hull_facets(line), line, WeightVector.ones(3))
        g = Multigrading(line, (1, 2, 3), (1, 2, 3))
        with pytest.raises(DependentDegreesError, match="linearly dependent"):
            tfp_blending(system, system, g)
        with pytest.raises(DependentDegreesError, match="linearly dependent"):
            verify_form_agreement(system, system, g)


def eager_functions(sysB, sysC, g, form):
    """The product's functions built the plain way: f_j * f_k / S_i over the placed factors."""
    names = tuple([f"x{i + 1}" for i in range(sysB.config.dim)] + [f"y{i + 1}" for i in range(sysC.config.dim)])
    fB = [f.placed(names, 0) for f in sysB.functions]
    fC = [f.placed(names, sysB.config.dim) for f in sysC.functions]
    chosen, assignment = (fB, g.assignment_b) if form == "B" else (fC, g.assignment_c)
    sums = [sum_rational_functions(f for f, a in zip(chosen, assignment) if a == i) for i in range(1, g.num_classes + 1)]
    return [fB[bi] * fC[ci] / sums[i - 1] for i, _, _, bi, ci in tfp.enumerate_product_indices(g.assignment_b, g.assignment_c)]


def unexpanded(system):
    return "functions" not in system.__dict__


class TestProductsFormedOnFirstRead:
    """tfp_blending forms no product function; the first read of ``functions``
    forms them from the record, exactly as an eager build does."""

    @staticmethod
    def chain_of(square_system, square_graded, beta_tilde_system, square_trapezoid_grading, form, rungs):
        """The factors, grading and system of each rung of square x beta-tilde x square^(rungs - 1)."""
        built = [(square_system, beta_tilde_system, square_trapezoid_grading)]
        system, model = tfp_blending(*built[0], form)
        for _ in range(rungs - 1):
            grading = validate_multigrading(model.graded, square_graded, model.degrees)
            built.append((system, square_system, grading))
            system, model = tfp_blending(system, square_system, grading, form)
        return built, system

    @pytest.mark.parametrize("form", ["B", "C"])
    def test_build_report_and_form_agreement_form_no_function(
        self, form, square_system, square_graded, beta_tilde_system, trapezoid_toric_system, square_trapezoid_grading
    ):
        system, _ = tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading, form)
        assert unexpanded(system)
        assert verify_rational_linear_precision(system).all_pass
        assert verify_form_agreement(square_system, beta_tilde_system, square_trapezoid_grading)
        assert unexpanded(system)
        built, top = self.chain_of(square_system, square_graded, beta_tilde_system, square_trapezoid_grading, form, 3)
        assert len(top.config.points) == 40 and unexpanded(top)
        assert verify_rational_linear_precision(top).all_pass
        assert verify_form_agreement(*built[-1])
        assert unexpanded(top)
        # the toric trapezoid lacks linear precision: form agreement compares
        # the factors' class sums, and the report sums the product's functions
        system, _ = tfp_blending(square_system, trapezoid_toric_system, square_trapezoid_grading, form)
        assert not verify_form_agreement(square_system, trapezoid_toric_system, square_trapezoid_grading)
        assert unexpanded(system)
        report = verify_rational_linear_precision(system)
        assert not unexpanded(system)
        assert report == verify_rational_linear_precision(system._replace())

    @pytest.mark.parametrize("form", ["B", "C"])
    def test_the_first_read_equals_an_eager_build(
        self, form, square_system, square_graded, beta_tilde_system, trapezoid_toric_system, square_trapezoid_grading
    ):
        built, _ = self.chain_of(square_system, square_graded, beta_tilde_system, square_trapezoid_grading, form, 3)
        built.append((square_system, trapezoid_toric_system, square_trapezoid_grading))
        for sysB, sysC, g in built:
            expected = eager_functions(sysB, sysC, g, form)
            system, _ = tfp_blending(sysB, sysC, g, form)
            assert unexpanded(system)
            assert len(system.functions) == len(expected) and not unexpanded(system)
            for got, want in zip(system.functions, expected):
                assert dict(got.numerator) == dict(want.numerator)
                assert dict(got.denominator) == dict(want.denominator)
                assert got.variables == want.variables == system.variables
                assert str(got) == str(want)
            assert system.functions is system.functions

    def test_equality_hash_replace_and_json_keep_their_meaning(
        self, square_system, beta_tilde_system, square_trapezoid_grading
    ):
        for form in "BC":
            lazy, product = tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading, form)
            functions = eager_functions(square_system, beta_tilde_system, square_trapezoid_grading, form)
            eager = BlendingSystem(product.config, product.weights, functions, "custom", lazy.variables)
            assert lazy == eager and eager == lazy
            assert repr(lazy) == repr(eager)
            with pytest.raises(TypeError, match="unhashable"):
                hash(lazy)  # rational functions are not hashable
            copy = lazy._replace()
            assert copy == eager and copy._record is None and not unexpanded(copy)
            assert lazy._replace(kind="toric") != eager
            assert blending_system_to_json(lazy) == blending_system_to_json(eager)
            assert blending_system_from_json(blending_system_to_json(lazy)) == lazy
            other, _ = tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading, "C" if form == "B" else "B")
            assert lazy != other


class TestGradingValidatedOnce:
    """A grading from validate_multigrading is not validated again on the
    points it was validated on, and is on any other points, with the same errors."""

    @pytest.fixture
    def degree_maps(self, monkeypatch):
        calls = []
        check = tfp._check_degree_map

        def recording_check(graded, degrees, side):
            calls.append(graded.config.points)
            return check(graded, degrees, side)

        monkeypatch.setattr(tfp, "_check_degree_map", recording_check)
        return calls

    def test_no_solve_on_the_validated_points(self, square_system, square_graded, trapezoid_graded, beta_tilde_system, degree_pair, degree_maps):
        g = validate_multigrading(square_graded, trapezoid_graded, degree_pair)
        assert degree_maps == [square_graded.config.points, trapezoid_graded.config.points]
        assert g._validated == (square_graded.config.points, trapezoid_graded.config.points)
        assert "_validated" not in Multigrading._fields
        degree_maps.clear()
        for form in "BC":
            tfp_blending(square_system, beta_tilde_system, g, form)
        assert verify_form_agreement(square_system, beta_tilde_system, g)
        assert degree_maps == []
        # a copy or a hand-built grading carries no record and is validated
        for copy in (g._replace(), Multigrading(*(getattr(g, name) for name in Multigrading._fields))):
            assert copy == g and copy._validated is None
            tfp_blending(square_system, beta_tilde_system, copy)
            assert len(degree_maps) == 2
            degree_maps.clear()

    def test_other_points_are_validated(self, beta_tilde_system, square_trapezoid_grading, degree_maps):
        # the corners of [0, 2]^2 fit another degree map; opposite corners paired fit none
        doubled = PointConfiguration(2, ((0, 0), (2, 0), (0, 2), (2, 2)))
        crossed = PointConfiguration(2, ((0, 0), (1, 1), (1, 0), (0, 1)))
        doubled_system, crossed_system = (
            toric_blending(convex_hull_facets(config), config, WeightVector.ones(4)) for config in (doubled, crossed)
        )
        tfp_blending(doubled_system, beta_tilde_system, square_trapezoid_grading)
        assert degree_maps == [doubled.points, beta_tilde_system.config.points]
        degree_maps.clear()
        message = "no affine degree map for the first factor: point (0, 1) in class 2 forces coordinate 1 to 2, expected 0"
        for call in (tfp_blending, verify_form_agreement):
            with pytest.raises(NoDegreeMapError, match=re.escape(message)):
                call(crossed_system, beta_tilde_system, square_trapezoid_grading)
            assert degree_maps == [crossed.points]
            degree_maps.clear()


class TestAssociativity:
    def test_cube_from_iterated_products(self, segment_config, segment_system):
        one_point = PointConfiguration(1, ((1,),))
        trivial = GradedConfiguration(segment_config, (1, 1))
        grading = validate_multigrading(trivial, trivial, one_point)
        inner_system, inner = tfp_blending(segment_system, segment_system, grading, form="B")
        inner_graded = GradedConfiguration(inner.config, (1, 1, 1, 1))
        outer_grading = validate_multigrading(inner_graded, trivial, one_point)
        _, outer = tfp_blending(inner_system, segment_system, outer_grading, form="B")
        from itertools import product as iproduct

        assert set(outer.config.points) == set(iproduct((0, 1), repeat=3))


@pytest.fixture(scope="module", params=["B", "C"])
def chain(request, square_system, square_graded, beta_tilde_system, square_trapezoid_grading):
    """square x beta-tilde x square, the first product a factor of the second."""
    form = request.param
    inner_system, inner = tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading, form)
    outer_grading = validate_multigrading(inner.graded, square_graded, inner.degrees)
    outer_system, outer = tfp_blending(inner_system, square_system, outer_grading, form)
    return inner_system, inner, outer_grading, outer_system, outer


@pytest.fixture(scope="module")
def horn_chain(chain, square_graded, trapezoid_graded, square_horn, trapezoid_horn, beta_tilde_system):
    """Horn pairs of square x beta-tilde x square (24 x 20) and of it x square (33 x 40)."""
    _, inner, _, _, outer = chain
    square = align_horn_to_labels(square_horn, square_graded.config.labels)
    trapezoid = align_horn_to_labels(trapezoid_horn, beta_tilde_system.config.labels)
    inner_pair = tfp_horn_pair(square, trapezoid, 2, square_graded.assignment, trapezoid_graded.assignment)
    pair = tfp_horn_pair(inner_pair, square, 2, inner.graded.assignment, square_graded.assignment)
    return pair, tfp_horn_pair(pair, square, 2, outer.graded.assignment, square_graded.assignment)


class TestThreeFactorChain:
    def test_product_is_a_graded_model(self, chain, square_trapezoid_grading):
        _, inner, _, outer_system, outer = chain
        assert inner.graded.assignment == (1,) * 6 + (2,) * 4
        assert inner.degrees == square_trapezoid_grading.degrees
        assert len(outer.config.points) == 20 and outer.config.dim == 6
        assert outer_system.config == outer.config

    def test_all_four_checks_pass(self, chain):
        report = verify_rational_linear_precision(chain[3], samples=20, seed=0)
        assert report.all_pass, report.details

    def test_forms_agree(self, chain, square_system):
        inner_system, _, outer_grading, _, _ = chain
        assert verify_form_agreement(inner_system, square_system, outer_grading, 20, 0)

    def test_estimate_is_the_combination_applied_twice(
        self, chain, square_system, beta_tilde_system, square_trapezoid_grading
    ):
        _, _, outer_grading, outer_system, _ = chain
        dm = design_matrix(outer_system.config)
        for u in random_data_vectors(5, 20, seed=106):
            u_inner, u_square = tfp_marginal_counts(outer_grading, u)
            u_b, u_c = tfp_marginal_counts(square_trapezoid_grading, u_inner)
            inner = tfp_mle_combine(
                mle_closed_form(square_system, u_b),
                mle_closed_form(beta_tilde_system, u_c),
                square_trapezoid_grading,
                u_inner,
            )
            combined = tfp_mle_combine(inner, mle_closed_form(square_system, u_square), outer_grading, u)
            exact = mle_closed_form(outer_system, u)
            assert exact.probs == combined.probs
            assert not any(birch_residual(dm, u, exact))

    def test_horn_map_of_the_product_applied_twice(self, chain, horn_chain):
        _, _, _, outer_system, outer = chain
        pair = horn_chain[0]
        assert (pair.matrix.n_rows, pair.n_columns) == (24, 20)
        assert pair.matrix.column_labels == outer.config.labels
        for u in random_data_vectors(5, 20, seed=107):
            assert horn_parametrize(pair, u.counts) == mle_closed_form(outer_system, u).probs

    def test_horn_pairs_validate(self, horn_chain):
        pair, longer = horn_chain
        assert (longer.matrix.n_rows, longer.n_columns) == (33, 40)
        for valid in (pair, minimize_horn_pair(pair), longer):
            report = validate_horn_pair(valid)
            assert report.valid, report

    def test_a_doubled_coefficient_is_witnessed(self, horn_chain):
        longer = horn_chain[1]
        doubled = HornPair(longer.matrix, (2 * longer.coefficients[0],) + longer.coefficients[1:])
        report = validate_horn_pair(doubled)
        assert report.positive and not report.valid
        ones = [1] * 40
        total = sum(horn_parametrize(doubled, ones))
        assert total != 1
        assert report.witness == f"u={ones}: coordinates sum to {total}"
