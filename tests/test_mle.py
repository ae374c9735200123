"""Closed-form estimates, Birch residuals, the IPS oracle, and likelihood."""

import math
import operator
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import toric_precision
from toric_precision.blending import BlendingSystem, WeightVector, toric_blending
from toric_precision.errors import BoundaryDataError, DomainError, NotConvergedError, PoleError, ZeroClassTotalError
from toric_precision.geometry import PointConfiguration, convex_hull_facets, design_matrix, sample_interior
from toric_precision.horn import align_horn_to_labels, horn_parametrize, tfp_horn_pair
from toric_precision.mle import (
    DataVector,
    Distribution,
    birch_residual,
    ips_fit,
    log_likelihood,
    mle_closed_form,
    tfp_marginal_counts,
    tfp_mle_combine,
)
from toric_precision.polynomials import RationalFunction, integer_point, variables
from toric_precision.tfp import tfp_blending

from test_geometry import design_product


def F(x):
    return Fraction(x)


def random_data_vectors(count: int, length: int, seed: int, low: int = 1, high: int = 20) -> list[DataVector]:
    """Seeded positive integer data vectors, for agreement sweeps."""
    rng = random.Random(seed)
    return [DataVector(tuple(rng.randint(low, high) for _ in range(length))) for _ in range(count)]


class TestClosedForm:
    def test_independence_counts(self, square_system):
        out = mle_closed_form(square_system, DataVector((3, 1, 1, 1)))
        assert out.probs == (F("4/9"), F("2/9"), F("2/9"), F("1/9"))

    def test_beta_tilde_uniform_counts(self, beta_tilde_system):
        out = mle_closed_form(beta_tilde_system, DataVector((1, 1, 1, 1, 1)))
        assert out.probs == (F("3/20"), F("3/10"), F("3/20"), F("1/5"), F("1/5"))

    def test_uniform_data_symmetric_square(self, square_system):
        out = mle_closed_form(square_system, DataVector((2, 2, 2, 2)))
        assert out.probs == (F("1/4"),) * 4


class TestPoleAtTheBarycenter:
    def test_message_names_the_barycenter_as_rationals(self, square_config):
        x1, x2 = variables("x1 x2")
        functions = (RationalFunction(x1, x1 + x2 - 1),) * 4
        system = BlendingSystem(square_config, WeightVector.ones(4), functions)
        with pytest.raises(PoleError) as info:
            mle_closed_form(system, DataVector((1, 1, 1, 1)))
        assert str(info.value) == (
            "data barycenter (1/2, 1/2) hits a pole: denominator x1 + x2 - 1 vanishes at (1/2, 1/2)"
        )


class TestDistribution:
    def test_exact_sum_over_mixed_denominators(self):
        assert Distribution((F("1/3"), F("1/6"), F("1/2"))).probs == (F("1/3"), F("1/6"), F("1/2"))
        with pytest.raises(ValueError, match="probabilities sum to 5/6, not 1"):
            Distribution((F("1/3"), F("1/3"), F("1/6")))


class TestExactValuesAreKept:
    """A Fraction given to ``Distribution`` or ``integer_point`` is read as
    it is: no Fraction is built, and the distribution holds the given objects."""

    def test_no_fraction_is_built(self, monkeypatch):
        given = (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))
        coordinates = (Fraction(1, 2), 3, Fraction(-1, 3))
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda *a, **k: built.append(a) or new(*a, **k)))
        probs = Distribution(given).probs
        point = integer_point(coordinates)
        monkeypatch.undo()
        assert built == []
        assert all(kept is p for kept, p in zip(probs, given))
        assert point == ([3, 18, -2], 6)

    def test_still_refuses_a_negative_entry_and_a_sum_other_than_one(self):
        with pytest.raises(ValueError, match="negative probability"):
            Distribution((Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(ValueError, match="probabilities sum to 3/2, not 1"):
            Distribution((Fraction(1, 2), 1))


class TestBirchResidual:
    def test_zero_at_estimate(self, square_config, square_system):
        u = DataVector((3, 1, 1, 1))
        estimate = mle_closed_form(square_system, u)
        dm = design_matrix(square_config)
        assert birch_residual(dm, u, estimate) == (F(0), F(0), F(0))

    def test_zero_for_beta_tilde(self, trapezoid_config, beta_tilde_system):
        u = DataVector((1, 1, 1, 1, 1))
        estimate = mle_closed_form(beta_tilde_system, u)
        dm = design_matrix(trapezoid_config)
        assert birch_residual(dm, u, estimate) == (F(0), F(0), F(0))

    def test_nonzero_off_estimate(self, square_config):
        dm = design_matrix(square_config)
        uniform = Distribution((F("1/4"),) * 4)
        residual = birch_residual(dm, DataVector((3, 1, 1, 1)), uniform)
        assert residual == (F(0), F("1/6"), F("1/6"))

    def test_always_zero_on_random_data(self, square_config, square_system):
        dm = design_matrix(square_config)
        for u in random_data_vectors(20, 4, seed=31):
            estimate = mle_closed_form(square_system, u)
            assert all(r == 0 for r in birch_residual(dm, u, estimate))


class TestIps:
    def test_square(self, square_config, square_system):
        dm = design_matrix(square_config)
        result = ips_fit(dm, square_system.weights, DataVector((3, 1, 1, 1)), 1e-10, 10000)
        expected = (4 / 9, 2 / 9, 2 / 9, 1 / 9)
        assert max(abs(a - b) for a, b in zip(result.distribution.probs, expected)) < 1e-8

    def test_trapezoid_weighted(self, trapezoid_config, trapezoid_weights):
        dm = design_matrix(trapezoid_config)
        result = ips_fit(dm, trapezoid_weights, DataVector((1, 1, 1, 1, 1)), 1e-10, 10000)
        expected = (0.15, 0.30, 0.15, 0.20, 0.20)
        assert max(abs(a - b) for a, b in zip(result.distribution.probs, expected)) < 1e-8

    def test_uniform_data_immediate(self, square_config, square_system):
        dm = design_matrix(square_config)
        result = ips_fit(dm, square_system.weights, DataVector((5, 5, 5, 5)), 1e-10, 10)
        assert result.iterations == 0
        assert result.distribution.probs == (0.25, 0.25, 0.25, 0.25)

    def test_not_converged(self, square_config, square_system):
        dm = design_matrix(square_config)
        with pytest.raises(NotConvergedError) as info:
            ips_fit(dm, square_system.weights, DataVector((3, 1, 1, 1)), 1e-12, 2)
        assert info.value.residual > 0

    def test_zero_margin_rejected(self, square_config, square_system):
        dm = design_matrix(square_config)
        with pytest.raises(DomainError):
            ips_fit(dm, square_system.weights, DataVector((3, 0, 1, 0)), 1e-10, 100)

    @pytest.mark.parametrize("counts, face", [((3, 0, 1, 0), (0, 2)), ((0, 0, 0, 5), (3,))])
    def test_boundary_counts_name_their_face(self, square_config, square_system, counts, face):
        # (0, 0, 0, 5) meets the slack row of the scaled design, not a design row
        with pytest.raises(BoundaryDataError, match=re.escape(f"lie on the face of points {face}")) as info:
            ips_fit(design_matrix(square_config), square_system.weights, DataVector(counts), 1e-10, 100)
        assert info.value.face == face

    def test_negative_coordinates(self):
        # a coordinate row that is a negative multiple of ones shifts to zero
        # and must not poison the update
        dm = design_matrix(PointConfiguration(2, ((-2, 0), (-2, 1))))
        result = ips_fit(dm, WeightVector.ones(2), DataVector((3, 1)), 1e-10, 10000)
        assert result.distribution.probs == pytest.approx((0.75, 0.25), abs=1e-9)


def test_import_does_not_load_numpy():
    src = str(Path(toric_precision.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, toric_precision; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestLogLikelihood:
    def test_fair_coin(self):
        value = log_likelihood(DataVector((1, 1)), Distribution((F("1/2"), F("1/2"))))
        assert value == pytest.approx(-1.3862943611, abs=1e-9)

    def test_zero_count_coordinate_ignored(self):
        assert log_likelihood(DataVector((0, 2)), Distribution((F(0), F(1)))) == 0.0

    @pytest.mark.parametrize("counts", [(1, 2, 3), (1,)])
    def test_length_mismatch(self, counts):
        with pytest.raises(ValueError, match=f"data has length {len(counts)}, the distribution has length 2"):
            log_likelihood(DataVector(counts), Distribution((F("1/2"), F("1/2"))))

    def test_zero_probability_with_count(self):
        with pytest.raises(DomainError):
            log_likelihood(DataVector((1, 1)), Distribution((F(0), F(1))))

    def test_estimate_maximizes(self, square_system):
        u = DataVector((3, 1, 1, 1))
        estimate = mle_closed_form(square_system, u)
        best = log_likelihood(u, estimate)
        for seed_point in sample_interior(square_system.config, 20, 5)[1:]:
            q = Distribution(square_system.evaluate(seed_point))
            assert log_likelihood(u, q) <= best

    def test_strictly_better_unless_equal(self, square_system):
        u = DataVector((3, 1, 1, 1))
        estimate = mle_closed_form(square_system, u)
        best = log_likelihood(u, estimate)
        for seed_point in sample_interior(square_system.config, 50, 6)[1:]:
            q = Distribution(square_system.evaluate(seed_point))
            if q.probs != estimate.probs:
                assert log_likelihood(u, q) < best


class TestProductCombination:
    def test_marginals(self, square_trapezoid_grading):
        u = DataVector((1,) * 10)
        u_b, u_c = tfp_marginal_counts(square_trapezoid_grading, u)
        assert u_b.counts == (3, 3, 2, 2)
        assert u_c.counts == (2, 2, 2, 2, 2)

    def test_uniform_counts(self, square_system, beta_tilde_system, square_trapezoid_grading):
        u = DataVector((1,) * 10)
        u_b, u_c = tfp_marginal_counts(square_trapezoid_grading, u)
        p_b = mle_closed_form(square_system, u_b)
        p_c = mle_closed_form(beta_tilde_system, u_c)
        combined = tfp_mle_combine(p_b, p_c, square_trapezoid_grading, u)
        # first coordinate: (3/10)(3/20)/(3/5); class-2 block is constant 1/10
        assert combined[0] == F("3/40")
        assert combined.probs[6:] == (F("1/10"),) * 4
        assert sum(combined.probs) == 1

    def test_combination_equals_direct_estimate(
        self, square_system, beta_tilde_system, square_trapezoid_grading
    ):
        system, _ = tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading)
        for u in random_data_vectors(20, 10, seed=77):
            u_b, u_c = tfp_marginal_counts(square_trapezoid_grading, u)
            p_b = mle_closed_form(square_system, u_b)
            p_c = mle_closed_form(beta_tilde_system, u_c)
            combined = tfp_mle_combine(p_b, p_c, square_trapezoid_grading, u)
            direct = mle_closed_form(system, u)
            assert combined.probs == direct.probs

    def test_class_share_identity(self, square_system, beta_tilde_system, square_trapezoid_grading):
        for u in random_data_vectors(10, 10, seed=13):
            u_b, u_c = tfp_marginal_counts(square_trapezoid_grading, u)
            p_b = mle_closed_form(square_system, u_b)
            p_c = mle_closed_form(beta_tilde_system, u_c)
            combined = tfp_mle_combine(p_b, p_c, square_trapezoid_grading, u)
            class_1 = sum(combined.probs[:6])
            class_2 = sum(combined.probs[6:])
            assert class_1 == Fraction(sum(u.counts[:6]), u.total)
            assert class_2 == Fraction(sum(u.counts[6:]), u.total)

    def test_zero_class_total(self, square_system, beta_tilde_system, square_trapezoid_grading):
        u = DataVector((1, 1, 1, 1, 1, 1, 0, 0, 0, 0))
        u_b, u_c = tfp_marginal_counts(square_trapezoid_grading, u)
        p_b = mle_closed_form(square_system, u_b)
        p_c = mle_closed_form(beta_tilde_system, u_c)
        with pytest.raises(ZeroClassTotalError):
            tfp_mle_combine(p_b, p_c, square_trapezoid_grading, u)

    @pytest.mark.parametrize(
        "factor, size", [("pB", 2), ("pC", 2), ("pB", 8)], ids=["pB-2", "pC-2", "pB-8"]
    )
    def test_factor_length_checked(
        self, square_system, beta_tilde_system, square_trapezoid_grading, factor, size
    ):
        u = DataVector((1,) * 10)
        u_b, u_c = tfp_marginal_counts(square_trapezoid_grading, u)
        given = {
            "pB": mle_closed_form(square_system, u_b),
            "pC": mle_closed_form(beta_tilde_system, u_c),
        }
        given[factor] = Distribution((Fraction(1, size),) * size)
        expected = 4 if factor == "pB" else 5
        with pytest.raises(ValueError, match=f"{factor} has {size} entries, the grading has {expected}"):
            tfp_mle_combine(given["pB"], given["pC"], square_trapezoid_grading, u)


class TestClosedFormMatchesIpsWheneverChecksPass:
    """Any system passing all four checks has a closed-form estimate that the
    numeric oracle reproduces."""

    def _agree(self, system, count=20, seed=55):
        from toric_precision.blending import verify_rational_linear_precision

        assert verify_rational_linear_precision(system, samples=20, seed=0).all_pass
        dm = design_matrix(system.config)
        for u in random_data_vectors(count, len(system.config.points), seed=seed):
            exact = mle_closed_form(system, u)
            ips = ips_fit(dm, system.weights, u, 1e-10, 10000)
            gap = max(abs(float(e) - f) for e, f in zip(exact.probs, ips.distribution.probs))
            assert gap < 1e-8

    def test_square(self, square_system):
        self._agree(square_system)

    def test_beta_tilde(self, beta_tilde_system):
        self._agree(beta_tilde_system)

    def test_segment(self, segment_system):
        self._agree(segment_system)

    @pytest.mark.parametrize(
        "points",
        [((-1, -1), (0, -1), (-1, 0), (0, 0)), ((-3, 2), (-2, 2), (-3, 3), (-2, 3))],
        ids=["square-at-minus-one", "square-at-minus-three-two"],
    )
    def test_translated_square(self, points):
        # IPS shifts the negative rows by a multiple of ones and needs a
        # slack row for the unequal column sums
        config = PointConfiguration(2, points)
        self._agree(toric_blending(convex_hull_facets(config), config, WeightVector.ones(4)))

    def test_cartesian_product(self, segment_system, segment_config):
        from toric_precision.tfp import GradedConfiguration, validate_multigrading

        trivial = GradedConfiguration(segment_config, (1, 1))
        grading = validate_multigrading(trivial, trivial, PointConfiguration(1, ((1,),)))
        system, _ = tfp_blending(segment_system, segment_system, grading)
        self._agree(system)


class TestTripleAgreement:
    """Closed form, Horn map, and IPS must coincide on every fixture model."""

    def _check(self, system, horn_pair, count=20, seed=99, tol=1e-8):
        labels = system.config.effective_labels()
        aligned = align_horn_to_labels(horn_pair, labels)
        dm = design_matrix(system.config)
        for u in random_data_vectors(count, len(labels), seed=seed):
            exact = mle_closed_form(system, u)
            horn = horn_parametrize(aligned, u.counts)
            assert exact.probs == horn
            assert all(r == 0 for r in birch_residual(dm, u, exact))
            ips = ips_fit(dm, system.weights, u, 1e-10, 10000)
            gap = max(abs(float(e) - f) for e, f in zip(exact.probs, ips.distribution.probs))
            assert gap < tol

    def test_square(self, square_system, square_horn):
        self._check(square_system, square_horn)

    def test_trapezoid(self, beta_tilde_system, trapezoid_horn):
        self._check(beta_tilde_system, trapezoid_horn)

    def test_product_model(
        self, square_system, beta_tilde_system, square_trapezoid_grading, square_horn, trapezoid_horn
    ):
        system, product = tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading)
        aligned_c = align_horn_to_labels(
            trapezoid_horn, beta_tilde_system.config.effective_labels()
        )
        pair = tfp_horn_pair(square_horn, aligned_c, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
        dm = design_matrix(system.config)
        for u in random_data_vectors(20, 10, seed=3):
            exact = mle_closed_form(system, u)
            assert exact.probs == horn_parametrize(pair, u.counts)
            assert all(r == 0 for r in birch_residual(dm, u, exact))
            ips = ips_fit(dm, system.weights, u, 1e-10, 10000)
            gap = max(abs(float(e) - f) for e, f in zip(exact.probs, ips.distribution.probs))
            assert gap < 1e-8


# -- References: IPS with a separate product for every row in every step,
# and the closed form and Birch residual in Fractions.


def _reference_ips(dm, w, u, tol, max_iter):
    """IPS multiplying every design row and every scaled row anew each step.

    Returns (p, iterations, residual, converged)."""
    rows = [list(r) for r in dm.rows]
    shifted = []
    for row in rows:
        offset = max(0, -min(row))
        candidate = [x + offset for x in row]
        if any(candidate):
            shifted.append(candidate)
    column_sums = [sum(row[c] for row in shifted) for c in range(dm.n_columns)]
    s = max(column_sums)
    slack = [s - cs for cs in column_sums]
    if any(slack):
        shifted.append(slack)
    columns = list(zip(*shifted))
    u_hat = [c / u.total for c in u.counts]
    target_original = [sum(map(operator.mul, row, u_hat)) for row in rows]
    log_target = [math.log(sum(map(operator.mul, row, u_hat))) for row in shifted]

    def max_residual(p):
        return max(abs(sum(map(operator.mul, row, p)) - t) for row, t in zip(rows, target_original))

    p = [float(x) for x in w.weights]
    norm = sum(p)
    p = [x / norm for x in p]
    residual = max_residual(p)
    iterations = 0
    while residual >= tol:
        if iterations >= max_iter:
            return tuple(p), iterations, residual, False
        step = [lt - math.log(sum(map(operator.mul, row, p))) for lt, row in zip(log_target, shifted)]
        p = [x * math.exp(sum(map(operator.mul, col, step)) / s) for x, col in zip(p, columns)]
        norm = sum(p)
        p = [x / norm for x in p]
        iterations += 1
        residual = max_residual(p)
    return tuple(p), iterations, residual, True


def _reference_closed_form(system, u):
    frequencies = [Fraction(c, u.total) for c in u.counts]
    barycenter = tuple(
        sum((f * p[i] for f, p in zip(frequencies, system.config.points)), Fraction(0))
        for i in range(system.config.dim)
    )
    return system.evaluate(barycenter)


def _reference_birch(dm, u, p):
    model = design_product(dm, [Fraction(x) for x in p.probs])
    empirical = design_product(dm, [Fraction(c, u.total) for c in u.counts])
    return tuple(m - e for m, e in zip(model, empirical))


def _simplex3x2():
    points = tuple((i, j) for i in range(4) for j in range(4 - i))
    weights = [math.factorial(3) // (math.factorial(i) * math.factorial(j) * math.factorial(3 - i - j))
               for i, j in points]
    config = PointConfiguration(2, points)
    return toric_blending(convex_hull_facets(config), config, WeightVector(weights))


def _square_at(points):
    config = PointConfiguration(2, points)
    return toric_blending(convex_hull_facets(config), config, WeightVector.ones(4))


@pytest.fixture(scope="module")
def sweep_systems(square_system, beta_tilde_system, trapezoid_toric_system, square_trapezoid_grading):
    product, _ = tfp_blending(square_system, beta_tilde_system, square_trapezoid_grading)
    return {
        "square": square_system,
        "beta-tilde": beta_tilde_system,
        "trapezoid-toric": trapezoid_toric_system,
        "square-at-minus-one": _square_at(((-1, -1), (0, -1), (-1, 0), (0, 0))),
        "square-at-minus-three-two": _square_at(((-3, 2), (-2, 2), (-3, 3), (-2, 3))),
        "square-x-beta-tilde": product,
        "simplex3x2": _simplex3x2(),
    }


def _square_lifted_to_minus_one():
    """The square at x3 = -1: its third row is constant, so it shifts to zero."""
    config = PointConfiguration(3, ((0, 0, -1), (1, 0, -1), (0, 1, -1), (1, 1, -1)))
    return design_matrix(config), WeightVector.ones(4)


def _dilated_simplex_5():
    """5 Delta_2 with multinomial weights: entries up to 5, slack 5 - i - j."""
    points = tuple((i, j) for i in range(6) for j in range(6 - i))
    weights = [math.factorial(5) // (math.factorial(i) * math.factorial(j) * math.factorial(5 - i - j))
               for i, j in points]
    return design_matrix(PointConfiguration(2, points)), WeightVector(weights)


DESIGNS = {"square-lifted-to-minus-one": _square_lifted_to_minus_one, "dilated-simplex-5": _dilated_simplex_5}


SWEEP = ["square", "beta-tilde", "trapezoid-toric", "square-at-minus-one", "square-at-minus-three-two",
         "square-x-beta-tilde", "simplex3x2"]


class TestIpsMatchesTheReferenceLoop:
    """One margin product per step changes no float: every iterate, the
    iteration count and the residual are bit-identical."""

    @pytest.mark.parametrize("name", SWEEP)
    def test_seeded_fits(self, sweep_systems, name):
        system = sweep_systems[name]
        dm = design_matrix(system.config)
        for u in random_data_vectors(12, len(system.config.points), seed=17):
            result = ips_fit(dm, system.weights, u, 1e-10, 10000)
            p, iterations, residual, converged = _reference_ips(dm, system.weights, u, 1e-10, 10000)
            assert converged
            assert (result.distribution.probs, result.iterations, result.residual) == (p, iterations, residual)

    def test_product_design_repeats_a_row(self, sweep_systems):
        rows = design_matrix(sweep_systems["square-x-beta-tilde"].config).rows
        assert len(set(rows)) < len(rows)

    @pytest.mark.parametrize(
        "name", ["trapezoid-toric", "square-at-minus-three-two", "simplex3x2", "square-x-beta-tilde"]
    )
    def test_random_weights(self, sweep_systems, name):
        config = sweep_systems[name].config
        dm = design_matrix(config)
        rng = random.Random(23)
        for u in random_data_vectors(8, len(config.points), seed=29):
            w = WeightVector(tuple(Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in config.points))
            result = ips_fit(dm, w, u, 1e-10, 10000)
            p, iterations, residual, converged = _reference_ips(dm, w, u, 1e-10, 10000)
            assert converged
            assert (result.distribution.probs, result.iterations, result.residual) == (p, iterations, residual)

    @pytest.mark.parametrize("name", list(DESIGNS))
    def test_designs(self, name):
        """A constant row dropped from M but multiplied on its own in the
        stopping test; entries and slack above 1."""
        dm, w = DESIGNS[name]()
        for u in random_data_vectors(8, dm.n_columns, seed=47):
            result = ips_fit(dm, w, u, 1e-10, 10000)
            p, iterations, residual, converged = _reference_ips(dm, w, u, 1e-10, 10000)
            assert converged
            assert (result.distribution.probs, result.iterations, result.residual) == (p, iterations, residual)
        u = random_data_vectors(1, dm.n_columns, seed=53)[0]
        with pytest.raises(NotConvergedError) as info:
            ips_fit(dm, w, u, 1e-12, 2)
        assert _reference_ips(dm, w, u, 1e-12, 2)[1:] == (2, info.value.residual, False)

    def test_designs_reach_their_paths(self):
        lifted, _ = DESIGNS["square-lifted-to-minus-one"]()
        assert (-1, -1, -1, -1) in lifted.rows and (1, 1, 1, 1) not in lifted.rows
        dilated, _ = DESIGNS["dilated-simplex-5"]()
        assert max(map(max, dilated.rows)) == 5 and (0, 0, 0) not in dilated.rows

    @pytest.mark.parametrize("name", ["square", "square-at-minus-one", "square-x-beta-tilde"])
    def test_not_converged_with_the_same_residual(self, sweep_systems, name):
        system = sweep_systems[name]
        dm = design_matrix(system.config)
        u = random_data_vectors(1, len(system.config.points), seed=31)[0]
        with pytest.raises(NotConvergedError) as info:
            ips_fit(dm, system.weights, u, 1e-12, 3)
        _, iterations, residual, converged = _reference_ips(dm, system.weights, u, 1e-12, 3)
        assert not converged and iterations == 3
        assert (info.value.max_iter, info.value.residual) == (3, residual)


class TestExactEstimatorMatchesTheFractionReference:
    @pytest.mark.parametrize("name", SWEEP)
    def test_closed_form_and_residual(self, sweep_systems, name):
        system = sweep_systems[name]
        dm = design_matrix(system.config)
        for u in random_data_vectors(12, len(system.config.points), seed=37, low=0):
            estimate = mle_closed_form(system, u)
            assert estimate.probs == _reference_closed_form(system, u)
            assert all(type(x) is Fraction for x in estimate.probs)
            residual = birch_residual(dm, u, estimate)
            assert residual == _reference_birch(dm, u, estimate)
            assert all(type(r) is Fraction for r in residual)

    def test_residual_off_the_estimate(self, sweep_systems):
        system = sweep_systems["trapezoid-toric"]
        dm = design_matrix(system.config)
        rng = random.Random(41)
        for u in random_data_vectors(12, 5, seed=43):
            raw = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(5)]
            exact = Distribution(tuple(x / sum(raw) for x in raw))
            floats = ips_fit(dm, system.weights, u, 1e-10, 10000).distribution
            for p in (exact, floats, mle_closed_form(system, u)):
                assert birch_residual(dm, u, p) == _reference_birch(dm, u, p)
