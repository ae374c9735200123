"""Exact rational linear algebra."""

import random
from fractions import Fraction

import pytest

from toric_precision import linalg


class TestRankAndSpan:
    def test_rank_small(self):
        assert linalg.rank([[1, 0], [0, 1]]) == 2
        assert linalg.rank([[1, 2], [2, 4]]) == 1
        assert linalg.rank([[0, 0]]) == 0

    def test_ones_in_span(self):
        assert linalg.in_row_span([[1, 0], [0, 1]], [1, 1])
        assert not linalg.in_row_span([[0, 1, 0, 1], [0, 0, 1, 1]], [1, 1, 1, 1])
        assert not linalg.in_row_span([], [0, 1])
        assert linalg.in_row_span([], [0, 0])

    def test_in_row_span_is_one_elimination(self, monkeypatch):
        eliminations = []
        echelon = linalg._echelon
        monkeypatch.setattr(linalg, "_echelon", lambda rows: eliminations.append(rows) or echelon(rows))
        rng = random.Random(5)
        for _ in range(30):
            rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(rng.randint(1, 4))]
            vector = [rng.randint(-1, 1) for _ in range(4)]
            if rng.random() < 0.5:
                vector = [a - 2 * b for a, b in zip(rows[0], rows[-1])]
            del eliminations[:]
            in_span = linalg.in_row_span(rows, vector)
            assert len(eliminations) == 1
            assert in_span == (linalg.rank(rows + [vector]) == linalg.rank(rows))

    def test_independent_rows_are_the_greedy_basis(self):
        assert linalg.independent_rows([[0, 0], [1, 2], [2, 4], [0, 1], [1, 1]]) == [1, 3]
        assert linalg.independent_rows([]) == []
        rng = random.Random(7)
        for _ in range(25):
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(rng.randint(1, 6))]
            greedy = []
            for i, row in enumerate(rows):
                if linalg.rank([rows[j] for j in greedy] + [row]) > len(greedy):
                    greedy.append(i)
            assert linalg.independent_rows(rows) == greedy


class TestSolve:
    def test_unique(self):
        assert linalg.solve([[2, 0], [0, 4]], [1, 1]) == [Fraction(1, 2), Fraction(1, 4)]

    def test_infeasible(self):
        assert linalg.solve([[1, 1], [1, 1]], [1, 2]) is None

    def test_underdetermined_roundtrip(self):
        rng = random.Random(5)
        for _ in range(25):
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(3)]
            x = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
            rhs = [sum(r * v for r, v in zip(row, x)) for row in rows]
            solution = linalg.solve(rows, rhs)
            assert solution is not None
            assert [sum(r * v for r, v in zip(row, solution)) for row in rows] == rhs


class TestKernel:
    def test_square_design_kernel(self):
        rows = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
        basis = linalg.integer_kernel_basis(rows)
        assert basis == [[1, -1, -1, 1]]

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(9)
        for _ in range(25):
            rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(3)]
            for v in linalg.nullspace(rows):
                assert all(
                    sum(Fraction(r) * x for r, x in zip(row, v)) == 0 for row in rows
                )

    def test_kernel_dimension(self):
        rows = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
        assert len(linalg.nullspace(rows)) == 4 - linalg.rank(rows)

    def test_empty_matrix_kernel_is_identity(self):
        assert linalg.nullspace([], 2) == [
            [Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(1)],
        ]


class TestPrimitiveInteger:
    def test_scaling(self):
        assert linalg.primitive_integer([Fraction(2, 3), Fraction(-4, 3)]) == [1, -2]

    def test_leading_sign(self):
        assert linalg.primitive_integer([Fraction(-2), Fraction(4)]) == [1, -2]
        assert linalg.primitive_integer([0, -3, 6]) == [0, 1, -2]

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            linalg.primitive_integer([0, 0])


def _reference_rref(rows):
    """Gauss–Jordan on Fractions: the reduced row echelon form and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _reference_solve(rows, rhs):
    if not rows:
        return []
    reduced, pivots = _reference_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    n_cols = len(rows[0])
    if n_cols in pivots:
        return None
    solution = [Fraction(0)] * n_cols
    for r, c in enumerate(pivots):
        solution[c] = reduced[r][n_cols]
    return solution


def _reference_nullspace(rows, n_cols):
    reduced, pivots = _reference_rref(rows)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(n_cols)]
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(v)
    return basis


class TestEliminationMatchesTheFractionReference:
    """The integer elimination returns what Gauss–Jordan on Fractions returns:
    the same rank, the same solution with free variables at zero, and the
    same kernel basis, vector by vector and sign by sign."""

    @staticmethod
    def matrices(seed, fractions):
        rng = random.Random(seed)

        def entry():
            if fractions and rng.random() < 0.5:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            return rng.choice((0, 0, rng.randint(-5, 5)))

        # empty, wide and tall shapes
        shapes = [(0, 3), (1, 1), (2, 6), (6, 2), (5, 5), (7, 4), (3, 7)]
        for n_rows, n_cols in shapes * 30:
            rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
            if n_rows and rng.random() < 0.3:
                rows[rng.randrange(n_rows)] = [0] * n_cols
            if n_rows >= 2 and rng.random() < 0.3:
                rows[-1] = [Fraction(-3, 2) * x for x in rows[0]]
            yield rows, n_cols, [entry() for _ in range(n_rows)]

    @pytest.mark.parametrize("fractions", [False, True], ids=["int", "Fraction"])
    def test_seeded_matrices(self, fractions):
        for rows, n_cols, rhs in self.matrices(13 + fractions, fractions):
            reduced, pivots = _reference_rref(rows)
            assert linalg.rank(rows) == len(pivots)
            solution = linalg.solve(rows, rhs)
            assert solution == _reference_solve(rows, rhs)
            assert solution is None or all(type(x) is Fraction for x in solution)
            kernel = linalg.nullspace(rows, n_cols)
            assert kernel == _reference_nullspace(rows, n_cols)
            assert all(type(x) is Fraction for v in kernel for x in v)
            assert linalg.integer_kernel_basis(rows, n_cols) == [
                linalg.primitive_integer(v) for v in _reference_nullspace(rows, n_cols)
            ]

    def test_zero_matrix(self):
        rows = [[0, 0, 0], [Fraction(0), 0, 0]]
        assert linalg.rank(rows) == 0
        assert linalg.solve(rows, [0, 0]) == [0, 0, 0]
        assert linalg.solve(rows, [0, Fraction(1, 3)]) is None
        assert linalg.nullspace(rows) == _reference_nullspace(rows, 3)
