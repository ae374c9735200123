"""Blending systems: construction and the four defining checks."""

import random
from fractions import Fraction

import pytest

from toric_precision.blending import (
    BlendingSystem,
    WeightVector,
    toric_blending,
    toric_patch_eval,
    verify_interior_positivity,
    verify_linear_precision,
    verify_partition_of_unity,
    verify_toric_membership,
)
from toric_precision.errors import PointOutsidePolytopeError
from toric_precision.geometry import PointConfiguration, convex_hull_facets, lattice_points
from toric_precision.polynomials import RationalFunction, variables


class TestToricBlending:
    def test_square_products(self, square_system):
        x1, x2 = variables("x1 x2")
        expected = [
            (1 - x1) * (1 - x2),
            x1 * (1 - x2),
            x2 * (1 - x1),
            x1 * x2,
        ]
        for f, p in zip(square_system.functions, expected):
            assert (f.numerator, f.denominator) == (p, 1)

    def test_trapezoid_weighted_sum_at_origin(self, trapezoid_poly, trapezoid_config, trapezoid_weights):
        # the weighted numerator sum evaluates to (1-0)*(2-0)^2 = 4 at the origin
        from toric_precision.geometry import lattice_distance_forms
        from toric_precision.polynomials import Polynomial

        forms = lattice_distance_forms(trapezoid_poly, ("y1", "y2"))
        beta_w = Polynomial.zero(("y1", "y2"))
        for w, b in zip(trapezoid_weights.weights, trapezoid_config.points):
            term = Polynomial.constant(w, ("y1", "y2"))
            for h, e in zip(forms, trapezoid_poly.lattice_distances(b)):
                term = term * h ** int(e)
            beta_w = beta_w + term
        assert beta_w.evaluate((0, 0)) == 4
        # the constructed denominator is that sum up to the documented sign flip
        system = toric_blending(trapezoid_poly, trapezoid_config, trapezoid_weights, ("y1", "y2"))
        den = system.functions[0].denominator
        assert den == beta_w or den == -beta_w

    def test_segment_bernstein(self, segment_system):
        (x,) = variables("x1")
        assert [(f.numerator, f.denominator) for f in segment_system.functions] == [
            (1 - x, 1),
            (x, 1),
        ]

    def test_point_outside_polytope(self, square_poly):
        bad = PointConfiguration(2, ((0, 0), (3, 3)))
        with pytest.raises(PointOutsidePolytopeError):
            toric_blending(square_poly, bad, WeightVector.ones(2))


class TestPartitionOfUnity:
    def test_square(self, square_system):
        assert verify_partition_of_unity(square_system)

    def test_beta_tilde(self, beta_tilde_system):
        assert verify_partition_of_unity(beta_tilde_system)

    def test_toric_systems_by_construction(self, trapezoid_toric_system, segment_system):
        assert verify_partition_of_unity(trapezoid_toric_system)
        assert verify_partition_of_unity(segment_system)

    def test_custom_failure(self, segment_config):
        (x,) = variables("x1")
        bad = BlendingSystem(
            segment_config,
            WeightVector.ones(2),
            (RationalFunction(x * x, 1), RationalFunction(1 - x, 1)),
            "custom",
            ("x1",),
        )
        assert not verify_partition_of_unity(bad)

    def test_random_small_polytopes(self):
        # partition of unity holds by construction for any weights
        rng = random.Random(2024)
        built = 0
        while built < 5:
            raw = {
                (rng.randint(0, 3), rng.randint(0, 2))
                for _ in range(rng.randint(3, 7))
            }
            config = PointConfiguration(2, tuple(sorted(raw)))
            try:
                poly = convex_hull_facets(config)
            except Exception:
                continue
            points = lattice_points(poly)
            weights = WeightVector(
                tuple(Fraction(rng.randint(1, 5)) for _ in points.points)
            )
            system = toric_blending(poly, points, weights)
            assert verify_partition_of_unity(system)
            built += 1


class TestLinearPrecision:
    def test_square(self, square_system):
        assert verify_linear_precision(square_system)

    def test_trapezoid_toric_fails(self, trapezoid_toric_system):
        assert not verify_linear_precision(trapezoid_toric_system)

    def test_beta_tilde_passes(self, beta_tilde_system):
        assert verify_linear_precision(beta_tilde_system)

    @staticmethod
    def _permuted(system, order):
        config = PointConfiguration(
            system.config.dim,
            tuple(system.config.points[i] for i in order),
            tuple(system.config.labels[i] for i in order) if system.config.labels else None,
        )
        return BlendingSystem(
            config,
            WeightVector(tuple(system.weights[i] for i in order)),
            tuple(system.functions[i] for i in order),
            "custom",
            system.variables,
        )

    def test_invariant_under_point_permutation(self, beta_tilde_system, trapezoid_toric_system):
        order = [2, 0, 4, 1, 3]
        assert verify_linear_precision(self._permuted(beta_tilde_system, order))
        assert not verify_linear_precision(self._permuted(trapezoid_toric_system, order))


class TestInteriorPositivity:
    def test_square(self, square_system, square_poly):
        assert verify_interior_positivity(square_system, square_poly, 50, 0)

    def test_beta_tilde(self, beta_tilde_system, trapezoid_poly):
        assert verify_interior_positivity(beta_tilde_system, trapezoid_poly, 50, 0)

    def test_negative_interior_value(self, segment_config):
        # sums to one but goes negative at x = 1/4 (value -1/2)
        (x,) = variables("x1")
        system = BlendingSystem(
            segment_config,
            WeightVector.ones(2),
            (RationalFunction(2 * x - 1, 1), RationalFunction(2 - 2 * x, 1)),
            "custom",
            ("x1",),
        )
        assert system.functions[0].evaluate((Fraction(1, 4),)) == Fraction(-1, 2)
        assert not verify_interior_positivity(system, samples=50, seed=0)


class TestToricMembership:
    def test_square_kernel_identity(self, square_system):
        # the only design-matrix relation pairs opposite corners
        p = (Fraction(1, 3), Fraction(1, 7))
        values = square_system.evaluate(p)
        assert values[0] * values[3] == values[1] * values[2]
        assert verify_toric_membership(square_system, 50, 0)

    def test_beta_tilde_with_declared_weights(self, beta_tilde_system):
        assert verify_toric_membership(beta_tilde_system, 50, 0)

    def test_beta_tilde_with_wrong_weights_fails(self, beta_tilde_system):
        wrong = BlendingSystem(
            beta_tilde_system.config,
            WeightVector.ones(5),
            beta_tilde_system.functions,
            "custom",
            beta_tilde_system.variables,
        )
        assert not verify_toric_membership(wrong, 50, 0)

    def test_edge_midpoint_relation(self, beta_tilde_system):
        # (0,0) + (2,0) = 2*(1,0): product identity with the weight scaling
        p = (Fraction(1, 2), Fraction(1, 3))
        v = beta_tilde_system.evaluate(p)
        w = beta_tilde_system.weights
        assert (v[0] / w[0]) * (v[2] / w[2]) == (v[1] / w[1]) ** 2


class TestToricPatch:
    def test_identity_controls(self, square_system):
        controls = [tuple(map(Fraction, p)) for p in square_system.config.points]
        p = (Fraction(1, 3), Fraction(1, 3))
        assert toric_patch_eval(square_system, controls, p) == p

    def test_collapsed_controls(self, square_system):
        controls = [(0, 0), (0, 0), (0, 0), (1, 1)]
        value = toric_patch_eval(square_system, controls, (Fraction(1, 2), Fraction(1, 2)))
        assert value == (Fraction(1, 4), Fraction(1, 4))

    def test_beta_tilde_linear_reproduction(self, beta_tilde_system):
        controls = [tuple(map(Fraction, p)) for p in beta_tilde_system.config.points]
        p = (Fraction(4, 5), Fraction(2, 5))
        assert toric_patch_eval(beta_tilde_system, controls, p) == p

    def test_control_count_mismatch(self, square_system):
        with pytest.raises(ValueError):
            toric_patch_eval(square_system, [(0, 0)], (Fraction(1, 2), Fraction(1, 2)))
