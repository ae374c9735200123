"""Blending systems: construction and the four defining checks."""

import random
import re
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, prod

import pytest

from toric_precision import blending, geometry, linalg
from toric_precision.blending import (
    BlendingSystem,
    WeightVector,
    _affine_span_substitution,
    toric_blending,
    toric_patch_eval,
    verify_interior_positivity,
    verify_linear_precision,
    verify_partition_of_unity,
    verify_rational_linear_precision,
    verify_toric_membership,
)
from toric_precision.cli import _as_system, _load
from toric_precision.errors import PointOutsidePolytopeError, PoleError
from toric_precision.geometry import (
    PointConfiguration,
    convex_hull_facets,
    design_matrix,
    sample_interior,
)
from toric_precision.linalg import integer_kernel_basis
from toric_precision.polynomials import (
    EvaluationKernel,
    Polynomial,
    RationalFunction,
    sum_rational_functions,
    variables,
)
from toric_precision.serialize import blending_system_from_json, blending_system_to_json
from toric_precision.tfp import tfp_blending

from test_geometry import fraction_forms, lattice_distances, lattice_points


class TestWeightVector:
    def test_float_weights_are_refused(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
        with pytest.raises(TypeError, match="float weight 0.1"):
            WeightVector((1, 0.1))
        assert WeightVector((1, "1/10")).weights == (1, Fraction(1, 10))


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

        forms = lattice_distance_forms(trapezoid_poly)
        beta_w = Polynomial.zero(("x1", "x2"))
        for w, b in zip(trapezoid_weights.weights, trapezoid_config.points):
            term = Polynomial.constant(w, ("x1", "x2"))
            for h, e in zip(forms, lattice_distances(trapezoid_poly, b)):
                term = term * h ** int(e)
            beta_w = beta_w + term
        assert beta_w.evaluate((0, 0)) == 4
        # the constructed denominator is that sum up to the documented sign flip
        system = toric_blending(trapezoid_poly, trapezoid_config, trapezoid_weights)
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

    def test_functions_share_the_system_variables(self, segment_config):
        (x,), (t,) = variables("x1"), variables("t")
        with pytest.raises(ValueError, match=re.escape("('x1',) and ('t',)")):
            BlendingSystem(segment_config, WeightVector.ones(2), (RationalFunction(1 - x), RationalFunction(t)))
        # a constant over no variables is padded to the system's
        padded = BlendingSystem(segment_config, WeightVector.ones(2), (RationalFunction(1), RationalFunction(Fraction(1, 2))))
        assert [f.variables for f in padded.functions] == [("x1",)] * 2
        assert [(f.numerator, f.denominator) for f in padded.functions] == [
            (Polynomial.constant(1, ("x1",)),) * 2,
            (Polynomial.constant(1, ("x1",)), Polynomial.constant(2, ("x1",))),
        ]

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

    def test_fails_on_a_proper_span(self, square_system, trapezoid_toric_system, square_trapezoid_grading):
        system, _ = tfp_blending(square_system, trapezoid_toric_system, square_trapezoid_grading, "B")
        assert _affine_span_substitution(system.config) is not None
        assert not verify_linear_precision(system)
        report = verify_rational_linear_precision(system, samples=5)
        assert (report.partition_of_unity, report.linear_precision) == (True, False)
        assert report.details["linear_precision"] == (
            "sum_b f_b * b does not reproduce the coordinate functions"
        )
        # Form C divides by the classes of the toric trapezoid itself, and that
        # product reproduces the coordinates on its span.
        system_c, _ = tfp_blending(square_system, trapezoid_toric_system, square_trapezoid_grading, "C")
        assert verify_linear_precision(system_c)


def reference_linear_precision(sys):
    """Linear precision with one RationalFunction per weighted function, as a reference.

    Each f_b * b_c is canonicalised on its own and summed; a full-dimensional
    configuration compares the sum with x_c by ``equals``, any other one
    needs every canonical denominator nonzero on its span and substitutes
    the span into the difference.
    """
    span = _affine_span_substitution(sys.config)
    if span is not None and any(f.denominator.substitute(span).is_zero for f in sys.functions):
        return False
    for c, name in enumerate(sys.variables):
        weighted = sum_rational_functions(
            f * Fraction(b[c]) for f, b in zip(sys.functions, sys.config.points)
        )
        coordinate = RationalFunction(Polynomial.variable(name, sys.variables))
        if span is None:
            if not weighted.equals(coordinate):
                return False
            continue
        difference = weighted - coordinate
        num = difference.numerator.substitute(span)
        den = difference.denominator.substitute(span)
        if den.is_zero or not num.is_zero:
            return False
    return True


class TestLinearPrecisionMatchesTheReference:
    def test_fixtures_and_ladder_systems(self, square_system, beta_tilde_system, trapezoid_toric_system):
        systems = {"square": square_system, "beta-tilde": beta_tilde_system, "trapezoid-toric": trapezoid_toric_system}
        for name in ("segment.json", "square.json", "trapezoid.json", "trapezoid_toric.json", "trapezoid_beta_tilde.json"):
            systems[name] = _as_system(*_load(name, "model"))
        for k in (2, 3, 4):
            systems[f"box{k}x2"] = bernstein_box(k, 2)
            systems[f"simplex{k}x2"] = bernstein_simplex(k, 2)
        systems["box2x2-unit"] = bernstein_box(2, 2, binomial=False)
        systems["box2x3"] = bernstein_box(2, 3)
        systems["simplex2x3"] = bernstein_simplex(2, 3)
        for i, s in enumerate(seeded_random_weights(32)):
            systems[f"random{i}"] = s
        verdicts = {name: verify_linear_precision(s) for name, s in systems.items()}
        assert verdicts == {name: reference_linear_precision(s) for name, s in systems.items()}
        assert sorted(name for name, ok in verdicts.items() if not ok) == [
            "box2x2-unit", "random0", "random1", "random2", "random3",
            "trapezoid-toric", "trapezoid.json", "trapezoid_toric.json",
        ]

    def test_perturbed_products(self, square_system, beta_tilde_system, trapezoid_toric_system, square_trapezoid_grading):
        # The span of the square x beta-tilde product is x2 = y2.  The
        # uncancelled factor (x2 - y2) / (x2 - y2) puts a denominator that
        # vanishes there into the system, which fails linear precision
        # whichever function carries it; (2*x1 - 1) / (2*x1 - 1) vanishes
        # nowhere on it, and an added x2 - y2 vanishes on all of it.
        x1, x2, y1, y2 = variables("x1 x2 y1 y2")
        perturbations = (
            lambda f: RationalFunction(f.numerator * (x2 - y2), f.denominator * (x2 - y2)),
            lambda f: RationalFunction(f.numerator * (2 * x1 - 1), f.denominator * (2 * x1 - 1)),
            lambda f: 2 * f,
            lambda f: f + (x2 - y2),
        )
        systems = []
        for form in ("B", "C"):
            product_system, _ = tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading, form)
            systems.append(product_system)
            for perturb in perturbations:
                for b in range(len(product_system.functions)):
                    functions = list(product_system.functions)
                    functions[b] = perturb(functions[b])
                    systems.append(product_system._replace(functions=tuple(functions)))
            systems.append(tfp_blending(square_system, trapezoid_toric_system, square_trapezoid_grading, form)[0])
        verdicts = [verify_linear_precision(s) for s in systems]
        assert verdicts == [reference_linear_precision(s) for s in systems]
        assert verdicts.count(True) == 45


def diagonal_segments():
    """The segment from (0, 0) to (1, 1) with the functions (1 - x1, x2),
    which sum to 1 on its span but not globally, and the same system with
    its first function times (x1 - x2) / (x1 - x2), undefined on the span."""
    x1, x2 = variables("x1 x2")
    segment = BlendingSystem(
        PointConfiguration(2, ((0, 0), (1, 1))), WeightVector.ones(2), (RationalFunction(1 - x1), RationalFunction(x2))
    )
    line = x1 - x2
    undefined = segment._replace(functions=(RationalFunction((1 - x1) * line, line), segment.functions[1]))
    return segment, undefined


def four_verdicts(report):
    return (report.partition_of_unity, report.toric_membership, report.interior_positivity, report.linear_precision)


def embedded(system, dim, rng):
    """The system on a seeded integer affine image M p + t of its points in
    ``dim`` dimensions, and an affine form that vanishes on the image.

    Each function is composed with a left inverse of the map, whose first
    rows B are invertible, and gets a random positive multiple of that form
    added, so the functions sum to 1 and reproduce the coordinates only on
    the image's span.
    """
    d = system.config.dim
    while True:
        matrix = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(dim)]
        if linalg.rank([[Fraction(c) for c in row] for row in matrix[:d]]) == d:
            break
    shift = [rng.randint(-3, 3) for _ in range(dim)]
    xs = variables(" ".join(f"x{i + 1}" for i in range(dim)))
    # p = B^-1 (x[:d] - t[:d]), solved column by column
    columns = [
        linalg.solve([[Fraction(c) for c in row] for row in matrix[:d]], [Fraction(int(r == c)) for r in range(d)])
        for c in range(d)
    ]
    zero = Polynomial.zero(xs[0].variables)
    inverse = [sum((columns[c][i] * (xs[c] - shift[c]) for c in range(d)), zero) for i in range(d)]
    # each further row r gives x_r - t_r - M_r p, which vanishes on the image
    form = sum(
        (rng.randint(1, 3) * (xs[r] - shift[r] - sum(matrix[r][i] * inverse[i] for i in range(d))) for r in range(d, dim)),
        zero,
    )
    points = tuple(
        tuple(sum(m * c for m, c in zip(row, p)) + t for row, t in zip(matrix, shift)) for p in system.config.points
    )
    functions = tuple(
        RationalFunction(f.numerator.substitute(inverse), f.denominator.substitute(inverse)) + rng.randint(1, 5) * form
        for f in system.functions
    )
    config = PointConfiguration(dim, points, system.config.labels)
    return BlendingSystem(config, system.weights, functions, "custom", xs[0].variables), form


class TestIdentitiesOnTheSpan:
    """Partition of unity and linear precision are identities on the span,
    and both fail when a denominator vanishes identically there."""

    def test_the_diagonal_segment_passes_all_four(self):
        segment, _ = diagonal_segments()
        assert not sum_rational_functions(segment.functions).equals(1)
        assert verify_rational_linear_precision(segment).all_pass

    def test_a_denominator_vanishing_on_the_span_fails_both_identities(self):
        _, undefined = diagonal_segments()
        report = verify_rational_linear_precision(undefined)
        assert four_verdicts(report) == (False, False, False, False)
        assert report.details["partition_of_unity"] == "a denominator vanishes on the span"
        assert report.details["linear_precision"] == "a denominator vanishes on the span"
        for name in ("toric_membership", "interior_positivity"):
            assert report.details[name].endswith("denominator x1 - x2 vanishes at (1/2, 1/2)")
        with pytest.raises(PoleError):
            undefined.evaluate((Fraction(1, 2), Fraction(1, 2)))

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("name", ["square_system", "trapezoid_toric_system", "beta_tilde_system"])
    def test_verdicts_do_not_depend_on_the_embedding(self, request, name, dim):
        # copies of the toric systems, so that no record decides them
        system = request.getfixturevalue(name)._replace()
        image, form = embedded(system, dim, random.Random(1))
        assert not form.is_zero and _affine_span_substitution(image.config) is not None
        assert not sum_rational_functions(image.functions).equals(1)
        assert four_verdicts(verify_rational_linear_precision(image, 12, 0)) == four_verdicts(
            verify_rational_linear_precision(system, 12, 0)
        )

    def test_an_embedded_denominator_vanishing_on_the_span(self, beta_tilde_system):
        image, form = embedded(beta_tilde_system, 4, random.Random(1))
        f = image.functions[2]
        functions = list(image.functions)
        functions[2] = RationalFunction(f.numerator * form, f.denominator * form)
        report = verify_rational_linear_precision(image._replace(functions=tuple(functions)), 12, 0)
        assert four_verdicts(report) == (False, False, False, False)
        for name in ("partition_of_unity", "linear_precision"):
            assert report.details[name] == "a denominator vanishes on the span"
        for name in ("toric_membership", "interior_positivity"):
            assert re.search(r"^interior sample 0 \(seed 0\) at .*: denominator .* vanishes at ", report.details[name])


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

    def test_sampled_report_builds_no_hull(self, beta_tilde_system, monkeypatch):
        # Each sample weights every point positively, so it is interior without a facet test.
        calls = []
        hull = geometry.convex_hull_facets
        monkeypatch.setattr(geometry, "convex_hull_facets", lambda config: calls.append(config) or hull(config))
        assert verify_rational_linear_precision(beta_tilde_system, samples=20).all_pass
        assert calls == []


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

    def test_matches_fraction_formula_on_custom_systems(self):
        def fraction_membership(system, samples, seed):
            """The binomials in Fractions: products of f_b(p)/w_b over each side of v."""
            dm = design_matrix(system.config)
            kernel = integer_kernel_basis([list(r) for r in dm.rows], dm.n_columns)
            for point in sample_interior(system.config, samples, seed):
                try:
                    values = system.evaluate(point)
                except PoleError:
                    return False
                scaled = [v / w for v, w in zip(values, system.weights.weights)]
                for vector in kernel:
                    left = right = Fraction(1)
                    for x, e in zip(scaled, vector):
                        if e > 0:
                            left *= x**e
                        elif e < 0:
                            right *= x**-e
                    if left != right:
                        return False
            return True

        rng = random.Random(50)
        configs = [
            PointConfiguration(2, ((0, 0), (1, 0), (0, 1), (1, 1))),
            PointConfiguration(2, ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1))),
            PointConfiguration(2, tuple((a, b) for a in range(3) for b in range(3 - a))),
            PointConfiguration(1, ((0,), (1,), (2,), (3,))),
        ]
        verdicts = []
        for config in configs:
            names = tuple(f"x{i + 1}" for i in range(config.dim))
            n = len(config.points)
            weights = WeightVector(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)))
            toric = toric_blending(convex_hull_facets(config), config, weights)
            # sample 0 is the barycenter; a factor vanishing there gives a zero or a pole
            x1 = variables(names)[0]
            vanishing = x1 - sample_interior(config, 1, 0)[0][0]
            functions = list(toric.functions)
            zero = [functions[0] * RationalFunction(vanishing)] + functions[1:]
            pole = [functions[0] / RationalFunction(vanishing)] + functions[1:]
            scaled = list(functions)
            scaled[rng.randrange(n)] *= Fraction(rng.randint(2, 5), rng.randint(1, 5))
            reweighted = WeightVector(tuple(w * rng.choice((1, 1, 2)) for w in weights.weights))
            cases = [
                (weights, functions),
                (weights, zero),
                (weights, pole),
                (weights, scaled),
                (reweighted, functions),
            ]
            for case_weights, case_functions in cases:
                system = BlendingSystem(config, case_weights, tuple(case_functions), "custom", names)
                for seed in (0, 1):
                    verdict = verify_toric_membership(system, 10, seed)
                    assert verdict == fraction_membership(system, 10, seed)
                    verdicts.append(verdict)
            zero_system = BlendingSystem(config, weights, tuple(zero), "custom", names)
            assert zero_system.evaluate(sample_interior(config, 1, 0)[0])[0] == 0
            pole_system = BlendingSystem(config, weights, tuple(pole), "custom", names)
            assert not verify_toric_membership(pole_system, 10, 0)
        assert True in verdicts and False in verdicts


class TestOneEvaluationPerSample:
    def test_verify_evaluates_each_sample_once(self, beta_tilde_system, monkeypatch):
        # Sampled checks go through the system's kernel, not the public evaluate.
        calls = []
        pairs = EvaluationKernel.pairs

        def counting(kernel, xs, q):
            calls.append(tuple(Fraction(x, q) for x in xs))
            return pairs(kernel, xs, q)

        monkeypatch.setattr(EvaluationKernel, "pairs", counting)
        report = verify_rational_linear_precision(beta_tilde_system, samples=20, seed=3)
        assert report.all_pass
        assert len(calls) == 20
        assert calls == sample_interior(beta_tilde_system.config, 20, 3)

    def test_one_verdict_per_predicate(self, square_system, square_config):
        kernel = square_system._kernel
        witnesses = blending._holds_at_samples(
            square_config,
            5,
            0,
            kernel,
            lambda xs, q, pairs: None,
            lambda xs, q, pairs: None if 0 < xs[0] < q else "outside",
            lambda xs, q, pairs: "fails" if xs[0] * 3 > q else None,
        )
        assert witnesses[:2] == (None, None)
        # sample 0 is the barycenter (2, 2) / 4, where 3 * 2 > 4
        assert witnesses[2] == blending.Witness(0, (2, 2), 4, "fails")
        always = blending._holds_at_samples(square_config, 5, 0, kernel, lambda xs, q, pairs: "no")
        assert always == (blending.Witness(0, (2, 2), 4, "no"),)

    def test_a_pole_fails_every_open_check(self, square_system, square_config):
        x1, _ = variables("x1 x2")
        at = sample_interior(square_config, 5, 0)[3][0]
        functions = (square_system.functions[0] / RationalFunction(x1 - at),) + square_system.functions[1:]
        system = BlendingSystem(square_config, square_system.weights, functions, "custom", square_system.variables)
        first, second = blending._holds_at_samples(
            square_config, 5, 0, system._kernel, lambda xs, q, pairs: "no", lambda xs, q, pairs: None
        )
        assert first.index == 0 and first.reason == "no"
        assert second.index == 3 and "vanishes" in second.reason

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_joint_verdicts_equal_separate_checks(self, seed):
        rng = random.Random(70 + seed)
        configs = [
            PointConfiguration(2, ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1))),
            PointConfiguration(2, tuple((a, b) for a in range(3) for b in range(3 - a))),
            PointConfiguration(1, ((0,), (1,), (2,), (3,))),
        ]
        for config in configs:
            names = tuple(f"x{i + 1}" for i in range(config.dim))
            n = len(config.points)
            poly = convex_hull_facets(config)
            weights = WeightVector(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)))
            functions = list(toric_blending(poly, config, weights).functions)
            moved = list(weights.weights)
            moved[rng.randrange(n)] *= 2
            x1 = variables(names)[0]
            vanishing = x1 - sample_interior(config, 1, seed)[0][0]
            cases = {
                "membership fails": (WeightVector(tuple(moved)), functions, (False, True)),
                "positivity fails": (weights, [-f for f in functions], (True, False)),
                "pole": (weights, [functions[0] / RationalFunction(vanishing)] + functions[1:], (False, False)),
            }
            for name, (case_weights, case_functions, expected) in cases.items():
                system = BlendingSystem(config, case_weights, tuple(case_functions), "custom", names)
                report = verify_rational_linear_precision(system, samples=12, seed=seed)
                separate = (
                    verify_toric_membership(system, 12, seed),
                    verify_interior_positivity(system, poly, 12, seed),
                )
                assert (report.toric_membership, report.interior_positivity) == separate == expected, name


WITNESS = re.compile(r"^interior sample (\d+) \(seed (\d+)\) at \((.*)\): (.*)$")


def fraction_binomial_holds(system, vector, point):
    scaled = [v / w for v, w in zip(system.evaluate(point), system.weights.weights)]
    left = right = Fraction(1)
    for x, e in zip(scaled, vector):
        if e > 0:
            left *= x**e
        elif e < 0:
            right *= x**-e
    return left == right


class TestWitnesses:
    def test_membership_names_the_first_failing_sample_and_vector(self, beta_tilde_system):
        wrong = BlendingSystem(
            beta_tilde_system.config, WeightVector.ones(5), beta_tilde_system.functions, "custom", ("y1", "y2")
        )
        report = verify_rational_linear_precision(wrong, samples=30, seed=4)
        assert not report.toric_membership and report.interior_positivity
        index, seed, point, reason = WITNESS.match(report.details["toric_membership"]).groups()
        samples = sample_interior(wrong.config, 30, 4)
        index = int(index)
        assert seed == "4"
        assert point == ", ".join(str(c) for c in samples[index])
        vector = tuple(int(e) for e in re.fullmatch(r"the binomial of kernel vector \((.*)\) fails", reason)[1].split(", "))
        dm = design_matrix(wrong.config)
        kernel = [tuple(v) for v in integer_kernel_basis([list(r) for r in dm.rows], dm.n_columns)]
        assert vector in kernel
        assert not fraction_binomial_holds(wrong, vector, samples[index])
        for earlier in samples[:index]:
            assert all(fraction_binomial_holds(wrong, v, earlier) for v in kernel)

    def test_positivity_names_the_function(self, square_system):
        negated = BlendingSystem(
            square_system.config, square_system.weights, tuple(-f for f in square_system.functions), "custom"
        )
        report = verify_rational_linear_precision(negated, samples=10, seed=0)
        assert report.details["interior_positivity"] == (
            "interior sample 0 (seed 0) at (1/2, 1/2): function 0 is negative"
        )

    def test_passing_checks_have_no_details(self, beta_tilde_system):
        assert verify_rational_linear_precision(beta_tilde_system, samples=10, seed=0).details == {}


def toric_system(points, weights=None):
    config = PointConfiguration(len(points[0]), tuple(points))
    weights = WeightVector(weights or (1,) * len(points))
    return toric_blending(convex_hull_facets(config), config, weights)


def bernstein_box(k, d, binomial=True):
    points = list(product(range(k + 1), repeat=d))
    return toric_system(points, [prod(comb(k, x) for x in p) for p in points] if binomial else None)


def bernstein_simplex(k, d):
    points = [p for p in product(range(k + 1), repeat=d) if sum(p) <= k]
    return toric_system(
        points, [factorial(k) // (prod(factorial(x) for x in p) * factorial(k - sum(p))) for p in points]
    )


def seeded_random_weights(seed):
    rng = random.Random(seed)
    systems = []
    for points in (
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)],
        [(a, b) for a in range(3) for b in range(3 - a)],
        [(0,), (1,), (2,), (3,)],
        list(product(range(2), repeat=3)),
    ):
        systems.append(toric_system(points, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in points]))
    return systems


def sampled_copy(s):
    """The same system without the record of toric_blending."""
    return BlendingSystem(s.config, s.weights, s.functions, s.kind, s.variables)


@pytest.fixture
def counted_samples(monkeypatch):
    """Counts the samples every sampled check evaluates."""
    calls = []
    pairs = EvaluationKernel.pairs

    def counting(kernel, xs, q):
        calls.append((tuple(xs), q))
        return pairs(kernel, xs, q)

    monkeypatch.setattr(EvaluationKernel, "pairs", counting)
    return calls


class TestStructuralChecks:
    """Toric-built systems are decided from their factored form, every other system by samples."""

    SAMPLES = 6

    @pytest.fixture(scope="class")
    def systems(self, square_system, trapezoid_toric_system):
        systems = {"square": square_system, "trapezoid-toric-weights": trapezoid_toric_system}
        for k in (2, 3, 4):
            systems[f"box{k}x2-binomial"] = bernstein_box(k, 2)
            systems[f"box{k}x2-unit"] = bernstein_box(k, 2, binomial=False)
        for k, d in ((1, 2), (2, 2), (3, 2), (4, 2), (2, 3)):
            systems[f"simplex{k}x{d}"] = bernstein_simplex(k, d)
        systems["box2x3"] = bernstein_box(2, 3)
        systems["box1x5"] = bernstein_box(1, 5)
        for i, s in enumerate(seeded_random_weights(31)):
            systems[f"random{i}"] = s
        return systems

    def test_structural_verdicts_equal_the_sampled_ones(self, systems, counted_samples):
        for name, s in systems.items():
            poly = convex_hull_facets(s.config)
            structural = (
                verify_toric_membership(s, self.SAMPLES, 2),
                verify_interior_positivity(s, poly, self.SAMPLES, 2),
            )
            assert counted_samples == [], name
            copy = sampled_copy(s)
            assert copy._record is None
            sampled = (
                verify_toric_membership(copy, self.SAMPLES, 2),
                verify_interior_positivity(copy, poly, self.SAMPLES, 2),
            )
            assert len(counted_samples) == 2 * self.SAMPLES, name
            counted_samples.clear()
            assert structural == sampled == (True, True), name

    def test_reports_agree_and_only_copies_draw_samples(self, systems, counted_samples):
        for name in ("square", "trapezoid-toric-weights", "box2x2-unit", "simplex2x2", "random0"):
            s = systems[name]
            structural = verify_rational_linear_precision(s, samples=self.SAMPLES, seed=1)
            assert counted_samples == [], name
            sampled = verify_rational_linear_precision(sampled_copy(s), samples=self.SAMPLES, seed=1)
            assert len(counted_samples) == self.SAMPLES, name
            counted_samples.clear()
            assert structural == sampled, name
        assert not verify_rational_linear_precision(systems["trapezoid-toric-weights"]).linear_precision

    def test_partition_of_unity_holds_by_construction(self, systems, monkeypatch):
        sums = []
        lcm_sum = blending.lcm_sum
        monkeypatch.setattr(blending, "lcm_sum", lambda terms, names: sums.append(len(terms)) or lcm_sum(terms, names))
        for name, s in systems.items():
            n = len(s.config.points)
            assert verify_partition_of_unity(s) and sums == [], name
            report = verify_rational_linear_precision(s, samples=self.SAMPLES, seed=0)
            summed, sums[:] = list(sums), []
            # only linear precision is summed: no sum over all n functions
            assert report.partition_of_unity and summed and n not in summed, name
            copy = sampled_copy(s)
            assert verify_partition_of_unity(copy) and sums == [n], name
            sums.clear()
            assert verify_rational_linear_precision(copy, samples=self.SAMPLES, seed=0) == report
            assert sums == [n] + summed, name
            sums.clear()
        s = systems["square"]
        scaled = s._replace(functions=(2 * s.functions[0],) + s.functions[1:])
        assert scaled._record is None
        assert not verify_partition_of_unity(scaled)
        assert not verify_rational_linear_precision(scaled, samples=self.SAMPLES, seed=0).partition_of_unity
        # a record that does not hold certifies no identity either
        tampered = toric_system(s.config.points)
        rows = tampered._record.exponents
        object.__setattr__(tampered, "_record", tampered._record._replace(exponents=rows[1:] + rows[:1]))
        sums.clear()
        assert verify_partition_of_unity(tampered) and sums == [4]

    def test_the_record_is_not_a_field(self, square_system):
        copy = sampled_copy(square_system)
        assert square_system._record is not None
        assert "_record" not in BlendingSystem._fields
        assert square_system == copy
        assert blending_system_to_json(square_system) == blending_system_to_json(copy)

    def test_replaced_weights_are_sampled_and_fail(self, square_system, counted_samples):
        moved = square_system._replace(weights=WeightVector((1, 1, 1, 2)))
        assert moved._record is None
        assert not verify_toric_membership(moved, self.SAMPLES, 0)
        # the first sample already fails the one binomial, so the loop stops there
        assert len(counted_samples) == 1
        report = verify_rational_linear_precision(moved, samples=self.SAMPLES, seed=0)
        assert not report.toric_membership and report.interior_positivity
        assert report.details["toric_membership"].startswith("interior sample 0 (seed 0)")

    def test_json_round_trip_is_sampled_with_the_same_verdicts(self, systems, counted_samples):
        for name in ("square", "trapezoid-toric-weights", "box3x2-binomial", "random1"):
            s = systems[name]
            loaded = blending_system_from_json(blending_system_to_json(s))
            assert loaded.kind == "toric" and loaded._record is None
            structural = verify_rational_linear_precision(s, samples=self.SAMPLES, seed=4)
            sampled = verify_rational_linear_precision(loaded, samples=self.SAMPLES, seed=4)
            assert structural == sampled, name
            assert len(counted_samples) == self.SAMPLES, name
            counted_samples.clear()

    def test_no_kernel_basis_hull_or_evaluation(self, square_system, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("not needed by a structural decision")

        monkeypatch.setattr(blending.linalg, "integer_kernel_basis", forbidden)
        monkeypatch.setattr("toric_precision.geometry.convex_hull_facets", forbidden)
        monkeypatch.setattr(blending, "_integer_samples", forbidden)
        s = toric_system(square_system.config.points)
        report = verify_rational_linear_precision(s, samples=10, seed=0)
        assert report.all_pass
        assert "_kernel" not in vars(s)

    def test_input_checks_hold(self, square_system, segment_system, trapezoid_poly):
        for check in (
            lambda n: verify_toric_membership(square_system, n, 0),
            lambda n: verify_interior_positivity(square_system, None, n, 0),
            lambda n: verify_rational_linear_precision(square_system, samples=n),
        ):
            assert check(1)
            with pytest.raises(ValueError, match="need at least one sample"):
                check(0)
        with pytest.raises(ValueError, match="the polytope has dimension 2, the samples 1"):
            verify_interior_positivity(segment_system, trapezoid_poly, 10, 0)

    def test_a_record_that_does_not_hold_certifies_nothing(self, square_config, square_poly):
        s = toric_blending(square_poly, square_config, WeightVector.ones(4))
        rows = s._record.exponents
        object.__setattr__(s, "_record", s._record._replace(exponents=rows[1:] + rows[:1]))
        assert not verify_toric_membership(s, 5, 0)
        assert not verify_interior_positivity(s, None, 5, 0)
        report = verify_rational_linear_precision(s, samples=5)
        assert report.details["toric_membership"] == (
            "the recorded exponents are not the lattice distances of the points"
        )


class TestBernsteinBoxesAtScale:
    @pytest.mark.parametrize("k, d", [(1, 5), (2, 4)])
    def test_all_four_checks_pass(self, k, d):
        # binomial weights give the tensor-product Bernstein basis, which has
        # linear precision; brute-force hulls took 19 s and 119 s here
        config = PointConfiguration(d, tuple(product(range(k + 1), repeat=d)))
        weights = WeightVector(tuple(prod(comb(k, x) for x in p) for p in config.points))
        system = toric_blending(convex_hull_facets(config), config, weights)
        report = verify_rational_linear_precision(system, samples=10, seed=5)
        assert report.as_dict() == {
            "partition_of_unity": True,
            "toric_membership": True,
            "interior_positivity": True,
            "linear_precision": True,
            "all_pass": True,
        }


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


class TestPowerTables:
    """Numerators built from one power table per form equal the plain products of powers."""

    @pytest.mark.parametrize(
        "build",
        [lambda: bernstein_box(4, 2), lambda: bernstein_simplex(4, 2), lambda: bernstein_box(2, 3)],
        ids=["[0,4]^2", "4simplex2", "[0,2]^3"],
    )
    def test_numerators_equal_direct_powers(self, build):
        system = build()
        poly = convex_hull_facets(system.config)
        forms = geometry.lattice_distance_forms(poly)
        numerators = []
        for w, b in zip(system.weights.weights, system.config.points):
            beta = Polynomial.constant(w, system.variables)
            for h, facet in zip(forms, poly.facets):
                beta = beta * h ** facet.distance(b)
            numerators.append(beta)
        total = sum(numerators, Polynomial.zero(system.variables))
        for f, beta in zip(system.functions, numerators):
            expected = RationalFunction(beta, total)
            assert (f.numerator, f.denominator) == (expected.numerator, expected.denominator)


def plain_weighted_numerators(poly, config, weights):
    """w_b * prod_i h_i**h_i(b) for every point b, from Fraction forms and a
    product that starts at the constant 1, with w_b multiplied as a polynomial."""
    forms = fraction_forms(poly)
    names = forms[0].variables
    weighted = []
    for w, b in zip(weights.weights, config.points):
        beta = Polynomial.constant(1, names)
        for h, facet in zip(forms, poly.facets):
            e = facet.distance(b)
            if e:
                beta = beta * h**e
        weighted.append(w * beta)
    return weighted


def plain_toric_functions(poly, config, weights):
    """toric_blending's functions built the plain way: one RationalFunction
    per point over the uncancelled weighted sum."""
    weighted = plain_weighted_numerators(poly, config, weights)
    total = sum(weighted, Polynomial.zero(weighted[0].variables))
    return [RationalFunction(beta, total) for beta in weighted]


def canonical_form_cases():
    cases = []
    for d in (1, 2, 3):
        for k in range(1, 5):
            points = list(product(range(k + 1), repeat=d))
            cases.append((f"[0,{k}]^{d}-binomial", points, [prod(comb(k, x) for x in p) for p in points]))
            cases.append((f"[0,{k}]^{d}-unit", points, [1] * len(points)))
    rng = random.Random(7)
    for d, k in ((1, 3), (2, 2), (2, 3), (2, 4), (3, 2)):
        points = [p for p in product(range(k + 1), repeat=d) if sum(p) <= k]
        multinomial = [factorial(k) // (prod(factorial(x) for x in p) * factorial(k - sum(p))) for p in points]
        cases.append((f"{k}simplex{d}-multinomial", points, multinomial))
        cases.append((f"{k}simplex{d}-unit", points, [1] * len(points)))
        random_weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in points]
        cases.append((f"{k}simplex{d}-random", points, random_weights))
    trapezoid = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
    cases.append(("trapezoid", trapezoid, [1, 2, 1, 1, 1]))
    cases.append(("trapezoid-unit", trapezoid, [1] * 5))
    cases.append(("segment[1,2]", [(1,), (2,)], [1, 2]))
    return cases


CANONICAL_FORM_CASES = canonical_form_cases()


class TestCanonicalForms:
    """toric_blending gives every function the canonical form of the plain construction."""

    @pytest.mark.parametrize("name, points, weights", CANONICAL_FORM_CASES, ids=[case[0] for case in CANONICAL_FORM_CASES])
    def test_equal_to_the_plain_construction(self, name, points, weights):
        config = PointConfiguration(len(points[0]), points)
        poly = convex_hull_facets(config)
        w = WeightVector(weights)
        system = toric_blending(poly, config, w)
        for f, g in zip(system.functions, plain_toric_functions(poly, config, w), strict=True):
            for mine, plain in ((f.numerator, g.numerator), (f.denominator, g.denominator)):
                assert mine._coefficients == plain._coefficients
                assert mine._denominator == plain._denominator
            assert str(f) == str(g)

    def test_cases_cover_both_signs_contents_and_a_monomial_denominator(self):
        """The weighted sums of the cases lead with either sign, have integer
        content 1 and above 1, and one of them is the monomial x1."""
        signs, contents, monomial = set(), set(), []
        for name, points, weights in CANONICAL_FORM_CASES:
            config = PointConfiguration(len(points[0]), points)
            weighted = plain_weighted_numerators(convex_hull_facets(config), config, WeightVector(weights))
            total = sum(weighted, Polynomial.zero(weighted[0].variables))
            signs.add(total.sorted_terms()[0][1] > 0)
            contents.add(gcd(*total._coefficients.values()) > 1)
            if any(map(min, zip(*total._coefficients))):
                monomial.append(name)
        assert signs == {True, False}
        assert contents == {True, False}
        assert monomial == ["segment[1,2]"]

    def test_no_points_no_functions(self, square_poly):
        assert toric_blending(square_poly, PointConfiguration(2, ()), WeightVector(())).functions == ()

    def test_segment_with_a_monomial_denominator(self):
        config = PointConfiguration(1, [(1,), (2,)])
        system = toric_blending(convex_hull_facets(config), config, WeightVector((1, 2)))
        assert [str(f) for f in system.functions] == ["(-x1 + 2) / (x1)", "(2*x1 - 2) / (x1)"]

    @pytest.mark.parametrize(
        "system",
        [lambda: bernstein_box(2, 2, binomial=False), lambda: seeded_random_weights(3)[1]],
        ids=["unit-box", "random-simplex"],
    )
    def test_equal_denominators_are_one_object(self, system):
        functions = system().functions
        for f in functions:
            for g in functions:
                assert (f.denominator is g.denominator) == (f.denominator == g.denominator)
