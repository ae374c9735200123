"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its assertions hold (run with
``pytest tests/test_acceptance.py -v -s`` to see them); a failing criterion
shows up as an ordinary pytest failure.  All comparisons are exact unless a
tolerance is stated inline.
"""

from fractions import Fraction

import pytest

from toric_precision.blending import (
    toric_blending,
    verify_interior_positivity,
    verify_linear_precision,
    verify_partition_of_unity,
    verify_rational_linear_precision,
    verify_toric_membership,
)
from toric_precision.cli import resolve_input_path
from toric_precision.geometry import (
    PointConfiguration,
    design_matrix,
    sample_interior,
)
from toric_precision.horn import (
    align_horn_to_labels,
    horn_parametrize,
    minimize_horn_pair,
    tfp_horn_pair,
    validate_horn_pair,
)
from toric_precision.mle import (
    birch_residual,
    ips_fit,
    mle_closed_form,
    tfp_marginal_counts,
    tfp_mle_combine,
)
from toric_precision.polynomials import RationalFunction, variables
from toric_precision.serialize import parse_model_file
from toric_precision.tfp import (
    GradedConfiguration,
    tfp_blending,
    validate_multigrading,
    verify_form_agreement,
)

from test_horn import PRODUCT_LAMBDA, PRODUCT_MATRIX
from test_mle import random_data_vectors


def report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_square_strict_linear_precision(square_system):
    x1, x2 = variables("x1 x2")
    expected = (
        (1 - x1) * (1 - x2),
        x1 * (1 - x2),
        x2 * (1 - x1),
        x1 * x2,
    )
    for f, p in zip(square_system.functions, expected):
        assert (f.numerator, f.denominator) == (p, 1)
    result = verify_rational_linear_precision(square_system, samples=50, seed=0)
    assert result.all_pass
    assert square_system.kind == "toric"
    report(1, "square toric functions are the four products and satisfy all four checks exactly")


def test_criterion_2_trapezoid_dichotomy(trapezoid_poly):
    fixture = parse_model_file(resolve_input_path("trapezoid_beta_tilde.json"))
    assert verify_partition_of_unity(fixture)
    assert verify_interior_positivity(fixture, trapezoid_poly, samples=50, seed=0)
    assert verify_linear_precision(fixture)
    assert verify_toric_membership(fixture, samples=50, seed=0)
    toric = toric_blending(trapezoid_poly, fixture.config, fixture.weights)
    assert not verify_linear_precision(toric)
    report(2, "trapezoid family from the fixture passes checks 1,3,4 and membership; "
              "the toric family fails linear precision")


def test_criterion_3_product_blending(square_system, beta_tilde_system, square_trapezoid_grading):
    system, product = tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading)
    x1, x2, y1, y2 = variables("x1 x2 y1 y2")
    index = product.config.labels.index("z[1][2][3]")
    expected = RationalFunction(x1 * (1 - x2) * y1**2 * (1 - y2), (1 - x2) * (2 - y2) ** 2)
    got = system.functions[index]
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
    assert verify_partition_of_unity(system)
    assert verify_linear_precision(system)
    assert verify_form_agreement(
        square_system, beta_tilde_system, square_trapezoid_grading, samples=50, seed=0
    )
    report(3, "product blending functions match the closed form, sum to one, reproduce "
              "linear functions, and the two denominator forms agree exactly on the product's span")


def test_criterion_4_face_sums(beta_tilde_system, trapezoid_graded, trapezoid_poly):
    y1, y2 = variables("y1 y2")
    bottom_sum = sum(
        (f for f, a in zip(beta_tilde_system.functions, trapezoid_graded.assignment) if a == 1),
        RationalFunction(0),
    )
    assert bottom_sum == RationalFunction(1 - y2, 1)
    face_points = PointConfiguration(2, ((0, 0), (1, 0), (2, 0)))
    for point in sample_interior(face_points, 20, 0):
        assert point[1] == 0
        assert bottom_sum.evaluate(point) == 1
    report(4, "bottom-edge class sum equals 1 - y2 and is exactly 1 at 20 face samples")


def test_criterion_5_factor_horn_pairs(square_horn, trapezoid_horn):
    for pair in (square_horn, trapezoid_horn):
        result = validate_horn_pair(pair, trials=100, seed=0)
        assert result.sums_to_one and result.positive
        assert result.symbolic_checked
    report(5, "both factor Horn pairs sum to one (samples and symbolically) and stay positive")


def test_criterion_6_product_horn_pair(square_horn, trapezoid_horn):
    pair = tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
    assert pair.matrix.entries == PRODUCT_MATRIX
    assert pair.coefficients == tuple(Fraction(v) for v in PRODUCT_LAMBDA)
    assert validate_horn_pair(pair, trials=100, seed=0).valid
    report(6, "product Horn pair reproduces the 15x10 matrix and coefficient vector "
              "entry for entry and validates")


def _triple_agreement(system, horn_pair, seed):
    aligned = align_horn_to_labels(horn_pair, system.config.effective_labels())
    dm = design_matrix(system.config)
    for u in random_data_vectors(20, len(system.config.points), seed=seed):
        exact = mle_closed_form(system, u)
        assert exact.probs == horn_parametrize(aligned, u.counts)
        assert all(r == 0 for r in birch_residual(dm, u, exact))
        ips = ips_fit(dm, system.weights, u, tol=1e-10, max_iter=10000)
        gap = max(abs(float(e) - f) for e, f in zip(exact.probs, ips.distribution.probs))
        assert gap < 1e-8


def test_criterion_7_triple_agreement(
    square_system, beta_tilde_system, square_horn, trapezoid_horn, square_trapezoid_grading
):
    _triple_agreement(square_system, square_horn, seed=101)
    _triple_agreement(beta_tilde_system, trapezoid_horn, seed=102)
    product_system, _ = tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading)
    aligned_c = align_horn_to_labels(trapezoid_horn, beta_tilde_system.config.effective_labels())
    product_pair = tfp_horn_pair(square_horn, aligned_c, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
    _triple_agreement(product_system, product_pair, seed=103)
    report(7, "closed form, Horn map, and IPS agree on all fixture models for 20 random "
              "count vectors each (exact / exact / 1e-8)")


def test_criterion_8_product_estimate_formula(
    square_system, beta_tilde_system, square_horn, trapezoid_horn, square_trapezoid_grading
):
    grading = square_trapezoid_grading
    system, _ = tfp_blending(square_system, beta_tilde_system, grading)
    aligned_c = align_horn_to_labels(trapezoid_horn, beta_tilde_system.config.effective_labels())
    pair = tfp_horn_pair(square_horn, aligned_c, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
    for u in random_data_vectors(20, 10, seed=104):
        u_b, u_c = tfp_marginal_counts(grading, u)
        combined = tfp_mle_combine(
            mle_closed_form(square_system, u_b),
            mle_closed_form(beta_tilde_system, u_c),
            grading,
            u,
        )
        assert combined.probs == mle_closed_form(system, u).probs
        assert combined.probs == horn_parametrize(pair, u.counts)
        class_1 = sum(combined.probs[:6])
        class_2 = sum(combined.probs[6:])
        assert class_1 == Fraction(sum(u.counts[:6]), u.total)
        assert class_2 == Fraction(sum(u.counts[6:]), u.total)
    report(8, "marginal product formula, direct product estimate, and product Horn map "
              "coincide exactly; class shares match")


def test_criterion_9_minimization(square_horn, trapezoid_horn):
    import random

    folded = minimize_horn_pair(square_horn)
    assert folded.matrix.n_rows == 5
    assert folded.matrix.entries[4] == (-2, -2, -2, -2)
    assert folded.coefficients == (Fraction(4),) * 4
    product = tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
    smaller = minimize_horn_pair(product)
    assert smaller.matrix.n_rows < product.matrix.n_rows
    rng = random.Random(105)
    for _ in range(100):
        u = [rng.randint(1, 50) for _ in range(10)]
        assert horn_parametrize(smaller, u) == horn_parametrize(product, u)
    for _ in range(100):
        u = [rng.randint(1, 50) for _ in range(4)]
        assert horn_parametrize(folded, u) == horn_parametrize(square_horn, u)
    report(9, "row folding strictly shrinks both the product pair and the square pair "
              "while preserving the map on 100 random positive inputs")


def test_criterion_10_cartesian_special_case(segment_config, segment_system):
    trivial = GradedConfiguration(segment_config, (1, 1))
    grading = validate_multigrading(trivial, trivial, PointConfiguration(1, ((1,),)))
    system, product = tfp_blending(segment_system, segment_system, grading)
    assert product.config.points == ((0, 0), (0, 1), (1, 0), (1, 1))
    x1, y1 = variables("x1 y1")
    assert system.functions == (
        RationalFunction((1 - x1) * (1 - y1), 1),
        RationalFunction((1 - x1) * y1, 1),
        RationalFunction(x1 * (1 - y1), 1),
        RationalFunction(x1 * y1, 1),
    )
    assert verify_rational_linear_precision(system, samples=20, seed=0).all_pass
    report(10, "product of two segments is the unit square with the four bilinear "
               "product functions (remaining property suites run with the module tests)")
