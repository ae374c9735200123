"""Horn pairs: parametrization, validation, product construction, row folding."""

import random
from fractions import Fraction

import pytest

from toric_precision.errors import (
    InconsistentBlockIndexError,
    MergeAbortedError,
    ZeroToNegativePowerError,
)
from toric_precision.horn import (
    HornMatrix,
    HornPair,
    align_horn_to_labels,
    format_horn_matrix,
    horn_parametrize,
    minimize_horn_pair,
    permute_horn_columns,
    simplex_horn_pair,
    tfp_horn_pair,
    validate_horn_pair,
)

# Product pair of the square and trapezoid pairs, column order (i, j, k).
PRODUCT_MATRIX = (
    (1, 1, 1, 0, 0, 0, 1, 1, 0, 0),
    (0, 0, 0, 1, 1, 1, 0, 0, 1, 1),
    (1, 1, 1, 1, 1, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
    (-1, -1, -1, -1, -1, -1, -1, -1, -1, -1),
    (-1, -1, -1, -1, -1, -1, -1, -1, -1, -1),
    (0, 1, 2, 0, 1, 2, 1, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
    (2, 1, 0, 2, 1, 0, 0, 1, 0, 1),
    (1, 1, 1, 1, 1, 1, 0, 0, 0, 0),
    (-1, -1, -1, -1, -1, -1, -1, -1, -1, -1),
    (-2, -2, -2, -2, -2, -2, -1, -1, -1, -1),
    (-1, -1, -1, -1, -1, -1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, -1, -1, -1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
)
PRODUCT_LAMBDA = (1, 2, 1, 1, 2, 1, -1, -1, -1, -1)


class TestHornParametrize:
    def test_two_outcome_proportions(self):
        pair = simplex_horn_pair(2)
        assert horn_parametrize(pair, (3, 5)) == (Fraction(3, 8), Fraction(5, 8))

    def test_independence_pair(self, square_horn):
        assert horn_parametrize(square_horn, (3, 1, 1, 1)) == (
            Fraction(4, 9),
            Fraction(2, 9),
            Fraction(2, 9),
            Fraction(1, 9),
        )

    def test_zero_to_negative_power(self):
        pair = simplex_horn_pair(2)
        with pytest.raises(ZeroToNegativePowerError) as info:
            horn_parametrize(pair, (0, 0))
        assert info.value.row == 2

    def test_zero_count_gives_zero_coordinate(self):
        pair = simplex_horn_pair(3)
        assert horn_parametrize(pair, (0, 1, 1)) == (0, Fraction(1, 2), Fraction(1, 2))


class TestSimplexPair:
    def test_shape_two(self):
        pair = simplex_horn_pair(2)
        assert pair.matrix.entries == ((1, 0), (0, 1), (-1, -1))
        assert pair.coefficients == (Fraction(-1), Fraction(-1))

    def test_point_simplex_constant_one(self):
        pair = simplex_horn_pair(1)
        assert horn_parametrize(pair, (7,)) == (Fraction(1),)

    def test_three_outcomes(self):
        assert horn_parametrize(simplex_horn_pair(3), (1, 2, 3)) == (
            Fraction(1, 6),
            Fraction(2, 6),
            Fraction(3, 6),
        )


class TestValidateHornPair:
    def test_square_pair(self, square_horn):
        report = validate_horn_pair(square_horn, 100, 0)
        assert report.valid and report.symbolic_checked

    def test_trapezoid_pair(self, trapezoid_horn):
        report = validate_horn_pair(trapezoid_horn, 100, 0)
        assert report.valid and report.symbolic_checked

    def test_bad_coefficients_witnessed(self, square_horn):
        bad = HornPair(square_horn.matrix, tuple(Fraction(v) for v in (1, 1, 1, 2)))
        report = validate_horn_pair(bad, 100, 0)
        assert not report.sums_to_one
        assert report.positive
        assert report.witness is not None

    def test_specific_bad_sum(self, square_horn):
        bad = HornPair(square_horn.matrix, tuple(Fraction(v) for v in (1, 1, 1, 2)))
        total = sum(horn_parametrize(bad, (1, 1, 1, 1)))
        assert total == Fraction(5, 4)

    def test_symbolic_catches_nongeneric_identity(self):
        # passes at u1 = u2 only; random trials with a fixed seed may miss it,
        # the symbolic check may not
        matrix = HornMatrix(((1, -1), (-1, 1)))
        pair = HornPair(matrix, (Fraction(1), Fraction(1)))
        report = validate_horn_pair(pair, 5, 0)
        assert not report.sums_to_one


class TestProductHornPair:
    def test_published_matrix(self, square_horn, trapezoid_horn):
        pair = tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
        assert pair.matrix.entries == PRODUCT_MATRIX
        assert pair.coefficients == tuple(Fraction(v) for v in PRODUCT_LAMBDA)

    def test_single_column_stacking(self, square_horn, trapezoid_horn):
        pair = tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
        index = pair.matrix.column_labels.index("z[1][2][3]")
        assert pair.matrix.column(index) == (
            0, 1, 1, 0, -1, -1, 2, 0, 0, 1, -1, -2, -1, 0, 1,
        )
        assert pair.coefficients[index] == 1
        assert pair.coefficients[pair.matrix.column_labels.index("z[1][1][2]")] == 2

    def test_output_validates(self, square_horn, trapezoid_horn):
        products = (
            tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2)),
            # 13 columns, still checked symbolically
            tfp_horn_pair(trapezoid_horn, trapezoid_horn, 2, (1, 1, 1, 2, 2), (1, 1, 1, 2, 2)),
        )
        for pair in products:
            report = validate_horn_pair(pair, 100, 0)
            assert report.valid and report.symbolic_checked
            corrupted = HornPair(pair.matrix, (2 * pair.coefficients[0],) + pair.coefficients[1:])
            rejected = validate_horn_pair(corrupted, 100, 0)
            assert not rejected.valid and rejected.witness

    def test_column_sums_zero(self, square_horn, trapezoid_horn):
        pair = tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
        for c in range(pair.n_columns):
            assert sum(pair.matrix.column(c)) == 0

    def test_matches_marginal_product_formula(self, square_horn, trapezoid_horn):
        pair = tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
        blocks_b, blocks_c = (1, 1, 2, 2), (1, 1, 1, 2, 2)
        rng = random.Random(17)
        from toric_precision.tfp import enumerate_product_indices

        order = enumerate_product_indices(blocks_b, blocks_c)
        for _ in range(50):
            u = [rng.randint(1, 30) for _ in range(10)]
            u_b = [0] * 4
            u_c = [0] * 5
            class_total = {1: 0, 2: 0}
            for count, (i, _, _, bi, ci) in zip(u, order):
                u_b[bi] += count
                u_c[ci] += count
                class_total[i] += count
            p_b = horn_parametrize(square_horn, u_b)
            p_c = horn_parametrize(trapezoid_horn, u_c)
            total = sum(u)
            expected = tuple(
                p_b[bi] * p_c[ci] / Fraction(class_total[i], total)
                for (i, _, _, bi, ci) in order
            )
            assert horn_parametrize(pair, u) == expected

    def test_inconsistent_blocks(self, square_horn, trapezoid_horn):
        with pytest.raises(InconsistentBlockIndexError):
            tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 1, 1), (1, 1, 1, 2, 2))
        with pytest.raises(InconsistentBlockIndexError):
            tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2), (1, 1, 1, 2, 2))


class TestMinimize:
    def test_duplicate_total_rows_fold(self, square_horn):
        minimized = minimize_horn_pair(square_horn)
        assert minimized.matrix.entries == (
            (1, 0, 1, 0),
            (0, 1, 0, 1),
            (1, 1, 0, 0),
            (0, 0, 1, 1),
            (-2, -2, -2, -2),
        )
        assert minimized.coefficients == (Fraction(4),) * 4

    def test_product_pair_shrinks(self, square_horn, trapezoid_horn):
        pair = tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
        minimized = minimize_horn_pair(pair)
        assert minimized.matrix.n_rows < pair.matrix.n_rows
        assert validate_horn_pair(minimized, 50, 1).valid

    def test_folding_is_checked_without_sampling(self, square_horn, trapezoid_horn, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("minimize_horn_pair drew random samples")

        monkeypatch.setattr(random, "Random", no_sampling)
        pair = tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
        assert minimize_horn_pair(pair).matrix.n_rows == 8

    def test_already_minimal_unchanged(self):
        pair = simplex_horn_pair(2)
        minimized = minimize_horn_pair(pair)
        assert minimized.matrix.entries == pair.matrix.entries
        assert minimized.coefficients == pair.coefficients

    def test_pointwise_equality(self, square_horn, trapezoid_horn):
        rng = random.Random(23)
        pair = tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
        minimized = minimize_horn_pair(pair)
        for _ in range(100):
            u = [rng.randint(1, 40) for _ in range(10)]
            assert horn_parametrize(minimized, u) == horn_parametrize(pair, u)

    def test_zero_sum_class_kept(self):
        # rows r and -r cannot fold; non-strict mode keeps them
        matrix = HornMatrix(((1, -1), (-1, 1), (1, -1), (-1, 1)))
        pair = HornPair(matrix, (Fraction(1), Fraction(1)))
        assert minimize_horn_pair(pair).matrix.entries == matrix.entries
        with pytest.raises(MergeAbortedError):
            minimize_horn_pair(pair, strict=True)

    def test_negative_proportionality_constant_folds(self):
        # rows (1,0,-1), (-2,0,2), (2,0,-2) are all proportional; sum (1,0,-1)
        matrix = HornMatrix(
            (
                (1, 0, -1),
                (-2, 0, 2),
                (2, 0, -2),
                (0, 1, -1),
                (-1, -1, 2),
            )
        )
        pair = HornPair(matrix, (Fraction(1), Fraction(2), Fraction(-3)))
        minimized = minimize_horn_pair(pair)
        assert minimized.matrix.n_rows == 3
        rng = random.Random(5)
        compared = 0
        for _ in range(50):
            u = [rng.randint(1, 20) for _ in range(3)]
            try:
                before = horn_parametrize(pair, u)
            except ZeroToNegativePowerError:
                continue  # pole of the unfolded map
            assert horn_parametrize(minimized, u) == before
            compared += 1
        assert compared > 25


class TestColumnPermutation:
    def test_permutes_coordinates_identically(self, trapezoid_horn):
        order = [4, 2, 0, 1, 3]
        permuted = permute_horn_columns(trapezoid_horn, order)
        u = (3, 1, 4, 1, 5)
        permuted_u = [u[i] for i in order]
        original = horn_parametrize(trapezoid_horn, u)
        assert horn_parametrize(permuted, permuted_u) == tuple(original[i] for i in order)

    def test_align_to_labels(self, trapezoid_horn):
        aligned = align_horn_to_labels(
            trapezoid_horn, ("0,0", "1,0", "2,0", "0,1", "1,1")
        )
        assert aligned.matrix.column_labels == ("0,0", "1,0", "2,0", "0,1", "1,1")
        assert aligned.matrix.column(3) == trapezoid_horn.matrix.column(4)

    def test_alignment_requires_matching_labels(self, trapezoid_horn):
        with pytest.raises(ValueError):
            align_horn_to_labels(trapezoid_horn, ("a", "b", "c", "d", "e"))


class TestFormatting:
    def test_aligned_columns(self):
        pair = simplex_horn_pair(2)
        text = format_horn_matrix(pair.matrix)
        assert text.splitlines() == [" 1   0", " 0   1", "-1  -1"]
