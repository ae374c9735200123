"""Horn pairs: parametrization, validation, product construction, row folding."""

import json
import random
from fractions import Fraction

import pytest

from toric_precision import horn
from toric_precision.cli import resolve_input_path
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
from toric_precision.polynomials import RationalFunction, sum_rational_functions, variables
from toric_precision.serialize import horn_pair_from_json, parse_model_file

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


class TestHornMatrix:
    def test_no_columns_are_refused(self):
        with pytest.raises(ValueError, match="^a Horn matrix needs at least one column$"):
            HornMatrix(((),))
        with pytest.raises(ValueError, match="^a Horn matrix needs at least one column$"):
            HornMatrix(((), ()))

    def test_duplicate_column_labels(self):
        with pytest.raises(ValueError, match="column labels must be unique"):
            HornMatrix(((1, 0), (0, 1), (-1, -1)), ("a", "a"))

    def test_non_integer_entries_are_refused(self):
        # int() would truncate both to ((1, 0), (-1, 0)), whose columns still sum to 0
        with pytest.raises(TypeError, match="entry 1.5 is not an exact integer"):
            HornMatrix(((1.5, -0.5), (-1.5, 0.5)))
        with pytest.raises(TypeError, match=r"entry Fraction\(3, 2\) is not an exact integer"):
            HornMatrix(((Fraction(3, 2), 0), (Fraction(-3, 2), 0)))
        assert HornMatrix(((Fraction(2), "1"), (-2, -1))).entries == ((2, 1), (-2, -1))


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
        # both coordinates are -(u1 - u2) / (u1 - u2): the sum is -2 wherever defined
        matrix = HornMatrix(((1, -1), (-1, 1)))
        pair = HornPair(matrix, (Fraction(1), Fraction(1)))
        report = validate_horn_pair(pair, 5, 0)
        assert not report.sums_to_one

    def test_undefined_trial_is_witnessed(self):
        # Both coordinates are (u1 - u2) / (u1 - u2) / 2, undefined where u1 = u2:
        # the mixed row (1, -1) sums to 0, so its zero is u = (1, 1).
        pair = HornPair(HornMatrix(((1, -1), (-1, 1))), (Fraction(-1, 2), Fraction(-1, 2)))
        report = validate_horn_pair(pair, 100, 0)
        assert not report.positive and not report.valid
        assert report.witness == "u=[1, 1]: undefined (row 1 evaluates to 0 and carries a negative exponent)"
        with pytest.raises(ZeroToNegativePowerError):
            horn_parametrize(pair, (1, 1))

    def test_a_mixed_row_fails_positivity_at_its_zero(self):
        # Row 0 becomes (-1, 1, 2, 1, 0), which vanishes at u = (4, 1, 1, 1, 1)
        # and carries exponent -1 in column 0.  None of 50 seeded count
        # vectors in 1..50 lies on its zero, so a sampled check passes it.
        data = json.loads(resolve_input_path("trapezoid.horn.json").read_text(encoding="utf-8"))
        data["H"][0][0], data["H"][2][0] = -1, 3
        pair = horn_pair_from_json(data)
        assert all(_defined_and_positive(pair, u) for u in _old_draws(pair, 50, 0))
        report = validate_horn_pair(pair, 50, 0)
        assert not report.positive and not report.valid
        assert report.witness == (
            "u=[4, 1, 1, 1, 1]: undefined (row 0 evaluates to 0 and carries a negative exponent)"
        )
        with pytest.raises(ZeroToNegativePowerError):
            horn_parametrize(pair, (4, 1, 1, 1, 1))

    def test_a_sum_of_one_at_ones_is_witnessed_symbolically(self):
        # No row mixes signs and each column's sign lambda_c * prod sign(row)**e
        # is positive, so the pair is positive; its map sums to 1 at u = (1, 1)
        # but not at (1, 2), so the witness cannot be a sum at the ones vector.
        pair = HornPair(HornMatrix(((2, 0), (0, 1), (-2, -1))), (Fraction(9, 8), Fraction(-3, 2)))
        assert horn_parametrize(pair, (1, 1)) == (Fraction(1, 2), Fraction(1, 2))
        assert horn_parametrize(pair, (1, 2)) == (Fraction(9, 32), Fraction(3, 4))
        report = validate_horn_pair(pair)
        assert (report.sums_to_one, report.positive) == (False, True)
        assert report.witness == "symbolic sum over the columns is not identically 1"

    def test_a_column_of_the_wrong_sign_is_witnessed_at_ones(self, square_horn):
        bad = HornPair(square_horn.matrix, (1, 1, -1, 1))
        report = validate_horn_pair(bad)
        assert not report.positive and not report.sums_to_one
        assert report.witness == "u=[1, 1, 1, 1]: coordinate 2 is -1/4"

    def test_no_count_vector_is_drawn(self, square_horn, trapezoid_horn, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("validate_horn_pair drew random samples")

        monkeypatch.setattr(random, "Random", no_sampling)
        monkeypatch.setattr(random, "randint", no_sampling)
        pair = tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2, 2), (1, 1, 1, 2, 2))
        assert validate_horn_pair(pair).valid
        assert not validate_horn_pair(HornPair(pair.matrix, (2,) + pair.coefficients[1:])).valid

    def test_float_coefficients_are_refused(self):
        matrix = simplex_horn_pair(2).matrix
        with pytest.raises(TypeError, match="float coefficient -0.1"):
            HornPair(matrix, (-0.1, -0.9))


class TestSumToOneAgreesWithRationalFunctionSum:
    """The Horn check (factored over row forms) and ``sum_rational_functions``
    (over the columns' expanded denominators in u) are two routes through
    ``lcm_sum``; they must agree.  Product pairs stay out: expanded in u they
    take seconds to minutes."""

    @staticmethod
    def columns(pair):
        """Column c as lambda_c * prod_rows (row . u) ** h_rc, over u1..un."""
        u = variables([f"u{i + 1}" for i in range(pair.n_columns)])
        forms = [RationalFunction(sum(e * x for e, x in zip(row, u))) for row in pair.matrix.entries]
        out = []
        for c, coefficient in enumerate(pair.coefficients):
            column = RationalFunction(coefficient)
            for row, form in zip(pair.matrix.entries, forms):
                if row[c]:
                    column = column * form ** row[c]
            out.append(column)
        return out

    @pytest.mark.parametrize("name", ["square.horn.json", "trapezoid.horn.json", "simplex-3"])
    @pytest.mark.parametrize("doubled", [False, True], ids=["as-given", "doubled"])
    def test_agreement(self, name, doubled):
        if name == "simplex-3":
            pair = simplex_horn_pair(3)
        else:
            pair = parse_model_file(resolve_input_path(name))
        if doubled:
            pair = HornPair(pair.matrix, (2 * pair.coefficients[0],) + pair.coefficients[1:])
        summed = sum_rational_functions(self.columns(pair)) == 1
        assert summed == validate_horn_pair(pair, 100, 0).sums_to_one == (not doubled)


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

    @pytest.mark.parametrize("r, blocks_b, blocks_c", [
        (2, (1, 1, 2, 2), (1, 1, 1, 2, 2)), (3, (1, 2, 3, 3), (1, 2, 2, 3, 3)),
    ])
    def test_the_class_block_is_written_without_a_simplex_pair(
        self, square_horn, trapezoid_horn, monkeypatch, r, blocks_b, blocks_c
    ):
        # column (i, j, k) ends in -e_i over +1, the negated class-i column of
        # the simplex pair on the classes, which is never built
        simplex = simplex_horn_pair(r).matrix
        calls = []
        monkeypatch.setattr(horn, "simplex_horn_pair", lambda m: calls.append(m))
        pair = tfp_horn_pair(square_horn, trapezoid_horn, r, blocks_b, blocks_c)
        assert calls == []
        for c, label in enumerate(pair.matrix.column_labels):
            i = int(label[2])
            assert pair.matrix.column(c)[-(r + 1):] == tuple(-x for x in simplex.column(i - 1))

    def test_inconsistent_blocks(self, square_horn, trapezoid_horn):
        with pytest.raises(InconsistentBlockIndexError):
            tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 1, 1), (1, 1, 1, 2, 2))
        with pytest.raises(InconsistentBlockIndexError, match="^first factor has 3 block indices for 4 columns$"):
            tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2), (1, 1, 1, 2, 2))
        with pytest.raises(InconsistentBlockIndexError, match="^second factor has 4 block indices for 5 columns$"):
            tfp_horn_pair(square_horn, trapezoid_horn, 2, (1, 1, 2, 2), (1, 1, 2, 2))


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


def _reference_parametrize(pair, u):
    """The map in Fractions, row values and all, as a reference."""
    values = [Fraction(x) for x in u]
    row_values = [
        sum((Fraction(e) * x for e, x in zip(row, values)), Fraction(0))
        for row in pair.matrix.entries
    ]
    out = []
    for c in range(pair.n_columns):
        coordinate = pair.coefficients[c]
        vanished = False
        for alpha, (row_value, row) in enumerate(zip(row_values, pair.matrix.entries)):
            e = row[c]
            if e == 0:
                continue
            if row_value == 0:
                if e < 0:
                    raise ZeroToNegativePowerError(alpha)
                vanished = True
            elif not vanished:
                coordinate *= row_value**e
        out.append(Fraction(0) if vanished else coordinate)
    return tuple(out)


def _outcome(u, pair, parametrize):
    try:
        return parametrize(pair, u)
    except ZeroToNegativePowerError as exc:
        return ("ZeroToNegativePowerError", exc.row)


class TestHornParametrizeMatchesTheFractionReference:
    @pytest.fixture
    def pairs(self, square_horn, trapezoid_horn):
        rng = random.Random(5)
        scaled = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(5))
        return {
            "square": square_horn,
            "trapezoid-rational-lambda": HornPair(trapezoid_horn.matrix, scaled),
            "product": HornPair(HornMatrix(PRODUCT_MATRIX), PRODUCT_LAMBDA),
            "simplex": simplex_horn_pair(3),
            # mixed signs: row values can be negative, and zero with either sign of exponent
            "mixed": HornPair(HornMatrix(((1, -1, 2), (-1, 2, -1), (0, -1, -1))), (2, Fraction(-1, 3), 5)),
        }

    @pytest.mark.parametrize("kind", ["int", "Fraction"])
    def test_sweep(self, pairs, kind):
        rng = random.Random(13)
        raised = 0
        for name, pair in pairs.items():
            low = -3 if name == "mixed" else 0
            for _ in range(60):
                if kind == "int":
                    u = [rng.randint(low, 5) for _ in range(pair.n_columns)]
                else:
                    u = [Fraction(rng.randint(low, 5), rng.randint(1, 4)) for _ in range(pair.n_columns)]
                want = _outcome(u, pair, _reference_parametrize)
                got = _outcome(u, pair, horn_parametrize)
                assert got == want, (name, u)
                if want[0] == "ZeroToNegativePowerError":
                    raised += 1
                else:
                    assert all(type(x) is Fraction for x in got)
        assert raised > 0

    def test_zero_counts_and_the_named_row(self):
        pair = simplex_horn_pair(3)
        assert horn_parametrize(pair, (0, Fraction(1, 2), 0)) == (0, 1, 0)
        with pytest.raises(ZeroToNegativePowerError) as info:
            horn_parametrize(pair, (0, 0, Fraction(0, 7)))
        assert info.value.row == 3


def _old_draws(pair, trials, seed):
    """The count vectors a sampled check drew: ``trials`` seeded vectors in 1..50."""
    rng = random.Random(seed)
    return [[rng.randint(1, 50) for _ in range(pair.n_columns)] for _ in range(trials)]


def _defined_and_positive(pair, u):
    try:
        return all(x > 0 for x in horn_parametrize(pair, u))
    except ZeroToNegativePowerError:
        return False


def _reproduces(pair, witness):
    """Whether ``horn_parametrize`` at the witness's u shows what it claims."""
    head, _, claim = witness.partition(": ")
    u = json.loads(head.removeprefix("u="))
    try:
        coordinates = horn_parametrize(pair, u)
    except ZeroToNegativePowerError as exc:
        return claim == f"undefined ({exc})"
    return any(claim == f"coordinate {i} is {x}" for i, x in enumerate(coordinates) if x <= 0)


class TestPerturbedPairs:
    """Seeded perturbations of the fixture, simplex and product pairs: d is
    added to one entry of a column and taken from another, so the column
    sums stay 0.  A sampled check at 100 seeded count vectors is the
    reference: every pass must hold at each of them, and every positivity
    FAIL must name a u where ``horn_parametrize`` is undefined or not positive."""

    @staticmethod
    def perturbed(pair, rng):
        rows = [list(row) for row in pair.matrix.entries]
        c = rng.randrange(pair.n_columns)
        a, b = rng.sample(range(len(rows)), 2)
        d = rng.choice((-2, -1, 1, 2))
        rows[a][c] += d
        rows[b][c] -= d
        return HornPair(HornMatrix(rows), pair.coefficients)

    def test_certificate_against_the_sampled_reference(self, square_horn, trapezoid_horn):
        bases = (
            square_horn,
            trapezoid_horn,
            simplex_horn_pair(3),
            HornPair(HornMatrix(PRODUCT_MATRIX), PRODUCT_LAMBDA),
        )
        rng = random.Random(440)
        failed_unsampled = 0
        for base in bases:
            for _ in range(40):
                pair = self.perturbed(base, rng)
                report = validate_horn_pair(pair)
                draws = _old_draws(pair, 100, 0)
                if report.positive:
                    for u in draws:
                        coordinates = horn_parametrize(pair, u)
                        assert all(x > 0 for x in coordinates), (pair, u)
                        assert not report.sums_to_one or sum(coordinates) == 1, (pair, u)
                    if not report.sums_to_one:
                        ones = [1] * pair.n_columns
                        assert report.witness in (
                            f"u={ones}: coordinates sum to {sum(horn_parametrize(pair, ones))}",
                            "symbolic sum over the columns is not identically 1",
                        )
                else:
                    assert _reproduces(pair, report.witness), (pair, report.witness)
                    failed_unsampled += all(_defined_and_positive(pair, u) for u in draws)
                    assert not report.valid
        # pairs whose mixed rows vanish at no drawn vector: the sampled check passed them
        assert failed_unsampled > 0

    @pytest.mark.parametrize("name", ["square", "trapezoid", "simplex-3"])
    def test_sum_to_one_agrees_with_the_rational_function_sum(self, name, square_horn, trapezoid_horn):
        base = {"square": square_horn, "trapezoid": trapezoid_horn, "simplex-3": simplex_horn_pair(3)}[name]
        rng = random.Random(name)
        columns = TestSumToOneAgreesWithRationalFunctionSum.columns
        for _ in range(15):
            pair = self.perturbed(base, rng)
            summed = sum_rational_functions(columns(pair)) == 1
            assert validate_horn_pair(pair).sums_to_one == summed, pair
