"""Multigradings, fiber products, product blending systems, graded faces."""

from fractions import Fraction

import pytest

from toric_precision.blending import (
    BlendingSystem,
    WeightVector,
    verify_interior_positivity,
    verify_linear_precision,
    verify_partition_of_unity,
    verify_rational_linear_precision,
    verify_toric_membership,
)
from toric_precision.errors import (
    DependentDegreesError,
    NoDegreeMapError,
    NotAFaceError,
)
from toric_precision.geometry import PointConfiguration, convex_hull_facets
from toric_precision.polynomials import RationalFunction, variables
from toric_precision.tfp import (
    GradedConfiguration,
    graded_face,
    tfp_blending,
    tfp_configuration,
    validate_multigrading,
    verify_face_partition,
    verify_form_agreement,
)


def canonical(f):
    return (f.numerator, f.denominator)


class TestValidateMultigrading:
    def test_square_trapezoid(self, square_trapezoid_grading):
        g = square_trapezoid_grading
        assert g.omega == (Fraction(1), Fraction(1))
        # affine map (x1, x2) -> (1 - x2, x2): rows act on (1, x1, x2)
        assert g.degree_map_b == (
            (Fraction(1), Fraction(0), Fraction(-1)),
            (Fraction(0), Fraction(0), Fraction(1)),
        )

    def test_dependent_degrees(self, square_graded, trapezoid_graded):
        collinear = PointConfiguration(2, ((1, 0), (2, 0)))
        with pytest.raises(DependentDegreesError):
            validate_multigrading(square_graded, trapezoid_graded, collinear)

    def test_no_degree_map(self, square_config, trapezoid_graded, degree_pair):
        # diagonal pairs force the two degrees to coincide at the midpoint
        diagonal = GradedConfiguration(square_config, (1, 2, 2, 1))
        with pytest.raises(NoDegreeMapError):
            validate_multigrading(diagonal, trapezoid_graded, degree_pair)

    def test_class_count_mismatch(self, square_config, trapezoid_graded):
        one_degree = PointConfiguration(1, ((1,),))
        graded = GradedConfiguration(square_config, (1, 1, 2, 2))
        with pytest.raises(Exception):
            validate_multigrading(graded, trapezoid_graded, one_degree)


class TestTfpConfiguration:
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
        sizes_b = [len(square_graded.class_positions(i)) for i in (1, 2)]
        sizes_c = [len(trapezoid_graded.class_positions(i)) for i in (1, 2)]
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

    def test_factor_warning(self, square_system, trapezoid_toric_system, square_trapezoid_grading):
        with pytest.warns(UserWarning):
            tfp_blending(
                square_system, trapezoid_toric_system, square_trapezoid_grading, form="B"
            )


class TestGradedFace:
    def test_trapezoid_bottom_edge(self, trapezoid_graded, trapezoid_poly):
        face, certificate = graded_face(trapezoid_graded, trapezoid_poly, 1)
        assert face.points == ((0, 0), (1, 0), (2, 0))
        normals = {trapezoid_poly.facets[f].normal for f in certificate}
        assert normals == {(0, 1)}

    def test_square_bottom_edge(self, square_graded, square_poly):
        face, certificate = graded_face(square_graded, square_poly, 1)
        assert face.points == ((0, 0), (1, 0))
        assert {square_poly.facets[f].normal for f in certificate} == {(0, 1)}

    def test_whole_configuration_trivial_certificate(self, segment_config):
        trivial = GradedConfiguration(segment_config, (1, 1))
        poly = convex_hull_facets(segment_config)
        face, certificate = graded_face(trivial, poly, 1)
        assert face.points == segment_config.points
        assert certificate == ()

    def test_not_a_face(self, square_config, square_poly):
        # opposite corners are not cut out by any facet subset
        diagonal = GradedConfiguration(square_config, (1, 2, 2, 1))
        with pytest.raises(NotAFaceError):
            graded_face(diagonal, square_poly, 1)

    def test_membership_iff_on_certificate_facets(self, trapezoid_graded, trapezoid_poly):
        _, certificate = graded_face(trapezoid_graded, trapezoid_poly, 1)
        for idx, point in enumerate(trapezoid_graded.config.points):
            on_all = all(
                sum(a * b for a, b in zip(point, trapezoid_poly.facets[f].normal))
                + trapezoid_poly.facets[f].offset
                == 0
                for f in certificate
            )
            assert on_all == (trapezoid_graded.assignment[idx] == 1)


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

    def test_beta_tilde_face_values(
        self, beta_tilde_system, trapezoid_graded, trapezoid_poly
    ):
        assert verify_face_partition(
            beta_tilde_system, trapezoid_graded, trapezoid_poly, 1, 20, 0
        )
        assert verify_face_partition(
            beta_tilde_system, trapezoid_graded, trapezoid_poly, 2, 20, 0
        )

    def test_square_face_value(self, square_system, square_graded, square_poly):
        x1, x2 = variables("x1 x2")
        class1 = square_system.functions[0] + square_system.functions[1]
        assert class1 == RationalFunction(1 - x2, 1)
        assert class1.evaluate((Fraction(1, 2), 0)) == 1
        assert verify_face_partition(square_system, square_graded, square_poly, 1, 20, 0)


class TestSampledChecks:
    """No samples is an error and a pole at any sample is a failure, for all four."""

    @staticmethod
    def sampled_checks(system, square_graded, square_poly, beta_tilde_system, grading):
        return (
            lambda n: verify_toric_membership(system, n, 0),
            lambda n: verify_interior_positivity(system, square_poly, n, 0),
            lambda n: verify_face_partition(system, square_graded, square_poly, 1, n, 0),
            lambda n: verify_form_agreement(system, beta_tilde_system, grading, n, 0),
        )

    def test_no_samples_is_an_error(
        self, square_system, square_graded, square_poly, beta_tilde_system, square_trapezoid_grading
    ):
        for check in self.sampled_checks(
            square_system, square_graded, square_poly, beta_tilde_system, square_trapezoid_grading
        ):
            assert check(20)
            with pytest.raises(ValueError):
                check(0)

    def test_pole_at_a_sample_fails(
        self, square_system, square_graded, square_poly, beta_tilde_system, square_trapezoid_grading
    ):
        # (2*x1 - 1) / (2*x1 - 1) is never cancelled and vanishes at the
        # barycenters of the square, of its bottom edge and of the product
        x1, _ = variables("x1 x2")
        pole = RationalFunction(2 * x1 - 1, 2 * x1 - 1)
        functions = tuple(f * pole for f in square_system.functions)
        system = BlendingSystem(
            square_system.config, square_system.weights, functions, "custom", square_system.variables
        )
        for check in self.sampled_checks(
            system, square_graded, square_poly, beta_tilde_system, square_trapezoid_grading
        ):
            assert not check(20)


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
