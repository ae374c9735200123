"""Horn matrices and Horn pairs: closed-form estimator maps and their algebra.

A Horn matrix is an integer matrix with zero column sums; together with a
nonzero coefficient per column it defines the map sending a data vector u
to ``lambda_c * prod_rows (row . u) ** entry``.  A pair is valid when those
coordinates sum to one and stay positive on positive inputs, both decided
by certificate (no count vector is drawn).  The module also builds the pair
of a fiber product from factor pairs, and folds proportional rows into
single rows without changing the map.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul
from typing import Sequence

from .errors import (
    InconsistentBlockIndexError,
    MergeAbortedError,
    ZeroToNegativePowerError,
)
from .frozen import Frozen
from .linalg import independent_rows, primitive_integer, solve
from .polynomials import Polynomial, exact_integer, exact_rational, integer_point, lcm_sum
from .tfp import PRODUCT_LABEL, enumerate_product_indices


class HornMatrix(Frozen):
    """Integer matrix whose columns each sum to zero."""

    _fields = ("entries", "column_labels")

    def __init__(self, entries: Sequence[Sequence[int]], column_labels: Sequence[str] | None = None):
        entries = tuple(tuple(exact_integer(x) for x in row) for row in entries)
        if not entries:
            raise ValueError("a Horn matrix needs at least one row")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        if not width:
            raise ValueError("a Horn matrix needs at least one column")
        for c in range(width):
            total = sum(row[c] for row in entries)
            if total != 0:
                raise ValueError(f"column {c} sums to {total}, not 0")
        if column_labels is not None:
            column_labels = tuple(str(s) for s in column_labels)
            if len(column_labels) != width:
                raise ValueError("label count does not match column count")
            if len(set(column_labels)) != len(column_labels):
                raise ValueError(f"column labels must be unique: {list(column_labels)}")
        self.__dict__.update(entries=entries, column_labels=column_labels)

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_columns(self) -> int:
        return len(self.entries[0])

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(row[c] for row in self.entries)


class HornPair(Frozen):
    """Horn matrix plus one nonzero rational coefficient per column."""

    _fields = ("matrix", "coefficients")

    def __init__(self, matrix: HornMatrix, coefficients: Sequence[Fraction | int | str]):
        coefficients = tuple(exact_rational(c) for c in coefficients)
        if len(coefficients) != matrix.n_columns:
            raise ValueError("coefficient count does not match column count")
        if any(c == 0 for c in coefficients):
            raise ValueError("coefficients must be nonzero")
        self.__dict__.update(matrix=matrix, coefficients=coefficients)

    @property
    def n_columns(self) -> int:
        return self.matrix.n_columns


def horn_parametrize(pair: HornPair, u: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
    """Exact value of the pair's map at u.

    Conventions: 0 ** 0 = 1 and 0 ** positive = 0; a vanishing row with a
    negative exponent raises ZeroToNegativePowerError naming the row.

    The map runs in integers: with u = xs / q, each row value is R / q for
    the integer R = row . xs, and since every column sums to zero the powers
    of q cancel, leaving lambda * prod_{e > 0} R**e / prod_{e < 0} R**-e.
    """
    if len(u) != pair.n_columns:
        raise ValueError(f"expected {pair.n_columns} counts, got {len(u)}")
    xs, _ = integer_point(u)
    row_values = [sum(map(mul, row, xs)) for row in pair.matrix.entries]
    out = []
    for c, coefficient in enumerate(pair.coefficients):
        numerator, denominator = coefficient.numerator, coefficient.denominator
        vanished = False
        for alpha, (row_value, row) in enumerate(zip(row_values, pair.matrix.entries)):
            e = row[c]
            if e == 0:
                continue
            if row_value == 0:
                if e < 0:
                    raise ZeroToNegativePowerError(alpha)
                vanished = True
            elif vanished:
                continue
            elif e > 0:
                numerator *= row_value**e
            else:
                denominator *= row_value**-e
        out.append(Fraction(0) if vanished else Fraction(numerator, denominator))
    return tuple(out)


def simplex_horn_pair(m: int) -> HornPair:
    """Identity matrix atop a row of -1s, with all coefficients -1.

    This is the minimal pair of the (m-1)-dimensional probability simplex:
    the map sends counts to their proportions.
    """
    if m < 1:
        raise ValueError("need at least one outcome")
    rows = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    rows.append(tuple(-1 for _ in range(m)))
    return HornPair(HornMatrix(tuple(rows)), tuple(Fraction(-1) for _ in range(m)))


class HornValidationReport(Frozen):
    """Outcome of the sum-to-one and positivity checks."""

    _fields = ("sums_to_one", "positive", "witness")

    def __init__(self, sums_to_one: bool, positive: bool, witness: str | None = None):
        self.__dict__.update(sums_to_one=sums_to_one, positive=positive, witness=witness)

    @property
    def symbolic_checked(self) -> bool:
        """Always True: sum-to-one is only ever decided as a symbolic identity."""
        return True

    @property
    def valid(self) -> bool:
        return self.sums_to_one and self.positive

    def as_dict(self) -> dict:
        out = {
            "sums_to_one": self.sums_to_one,
            "positive": self.positive,
            "symbolic_checked": self.symbolic_checked,
            "valid": self.valid,
        }
        if self.witness:
            out["witness"] = self.witness
        return out


def _scaled_form(row: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """A nonzero row as an integer times its primitive form, so proportional
    rows share one form."""
    form = tuple(primitive_integer(row))
    pivot = next(i for i, x in enumerate(form) if x != 0)
    return row[pivot] // form[pivot], form


def _factored_columns(pair: HornPair) -> list[tuple[Fraction, dict[tuple[int, ...], int]]]:
    """Each column's coordinate as a constant times powers of primitive row forms.

    Zero exponents are dropped, so two pairs with equal factored columns
    define the same map as rational functions of the counts.
    """
    scaled = [(_scaled_form(row), row) for row in pair.matrix.entries if any(row)]
    columns = []
    for c, coefficient in enumerate(pair.coefficients):
        constant = coefficient
        exponents: dict[tuple[int, ...], int] = {}
        for (k, form), row in scaled:
            if row[c]:
                constant *= Fraction(k) ** row[c]
                exponents[form] = exponents.get(form, 0) + row[c]
        columns.append((constant, {form: e for form, e in exponents.items() if e}))
    return columns


def _symbolic_sum_to_one(pair: HornPair) -> bool:
    """Exact sum-to-one identity over a basis z1..z_rho of the row forms.

    Each column is a numerator over powers of primitive row forms
    (:func:`_factored_columns`), and :func:`~toric_precision.polynomials.lcm_sum`
    adds them over the exponent-wise lcm.  The identity depends on the counts
    u only through the forms, each written in the basis; u -> z maps onto
    Q^rho, so it holds in u exactly when in z.
    """
    columns = _factored_columns(pair)
    forms = list(dict.fromkeys(form for _, exponents in columns for form in exponents))
    basis = [forms[i] for i in independent_rows(forms)]
    names = tuple(f"z{i + 1}" for i in range(len(basis)))
    units = [tuple(int(i == j) for j in range(len(names))) for i in range(len(names))]
    polys = {form: Polynomial(names, zip(units, solve(list(zip(*basis)), form))) for form in forms}
    terms = []
    for constant, exponents in columns:
        numerator = (polys[form] ** e for form, e in exponents.items() if e > 0)
        terms.append((prod(numerator, start=Polynomial.constant(constant, names)),
                      {polys[form]: -e for form, e in exponents.items() if e < 0}))
    total, common = lcm_sum(terms, names)
    return total == common


def _nonpositive_point(pair: HornPair) -> list[int] | None:
    """A positive integer u where some coordinate is not positive, else None.

    Rows of one sign never vanish on the open orthant.  A mixed row f
    vanishes at u = |f_j| * ones + |s| * e_j, with s = sum(f) and f_j of the
    sign opposite to s (u = ones when s = 0); a column whose lambda_c * prod
    sign(row)**entry is negative is negative everywhere, at u = ones too.
    """
    ones = [1] * pair.n_columns
    for f in pair.matrix.entries:
        if min(f) < 0 < max(f):
            s = sum(f)
            j = next((j for j, x in enumerate(f) if x * s < 0), None)
            return ones if j is None else [abs(f[j]) + abs(s) * (i == j) for i in range(len(f))]
    negative_rows = [row for row in pair.matrix.entries if min(row) < 0]
    signs = (lam * prod(-1 for row in negative_rows if row[c] % 2) for c, lam in enumerate(pair.coefficients))
    return ones if any(sign < 0 for sign in signs) else None


def _worded(pair: HornPair, u: list[int]) -> str:
    """What :func:`horn_parametrize` gives at u that a valid pair would not."""
    try:
        coordinates = horn_parametrize(pair, u)
    except ZeroToNegativePowerError as exc:
        return f"u={u}: undefined ({exc})"
    bad = next((i for i, x in enumerate(coordinates) if x <= 0), None)
    if bad is not None:
        return f"u={u}: coordinate {bad} is {coordinates[bad]}"
    if sum(coordinates) != 1:
        return f"u={u}: coordinates sum to {sum(coordinates)}"
    return "symbolic sum over the columns is not identically 1"


def validate_horn_pair(pair: HornPair, trials: int = 100, seed: int = 0) -> HornValidationReport:
    """Decide sum-to-one and positivity exactly, drawing no count vector
    (``trials`` and ``seed`` are unused; ``trials < 1`` is still an error).

    A failure's witness is what :func:`horn_parametrize` gives at a positive
    integer u: where positivity fails, else at u = ones, where a failed
    identity usually shows as a sum other than 1.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    sums_to_one, u = _symbolic_sum_to_one(pair), _nonpositive_point(pair)
    witness = None if sums_to_one and u is None else _worded(pair, u or [1] * pair.n_columns)
    return HornValidationReport(sums_to_one, u is None, witness)


def tfp_horn_pair(
    pairB: HornPair,
    pairC: HornPair,
    r: int,
    block_index_b: Sequence[int],
    block_index_c: Sequence[int],
) -> HornPair:
    """Horn pair of a fiber product from the factor pairs.

    ``r`` is the number of degree classes, and ``block_index_*`` assigns
    each factor column its 1-based degree class.
    The column for (i, j, k) stacks column j of the first factor, column k
    of the second, and -e_i over +1, the negated class-i column of
    :func:`simplex_horn_pair` on the classes; its coefficient is minus the
    product of the factor coefficients.
    """
    if r < 1:
        raise InconsistentBlockIndexError("need at least one degree class")
    blocks_b = tuple(int(i) for i in block_index_b)
    blocks_c = tuple(int(i) for i in block_index_c)
    for name, blocks, pair in (("first", blocks_b, pairB), ("second", blocks_c, pairC)):
        if len(blocks) != pair.n_columns:
            raise InconsistentBlockIndexError(
                f"{name} factor has {len(blocks)} block indices for {pair.n_columns} columns"
            )
        present = set(blocks)
        if not present <= set(range(1, r + 1)):
            raise InconsistentBlockIndexError(f"{name} factor uses classes {sorted(present)}")
        if present != set(range(1, r + 1)):
            missing = sorted(set(range(1, r + 1)) - present)
            raise InconsistentBlockIndexError(f"{name} factor has empty classes {missing}")
    columns = []
    coefficients = []
    labels = []
    for i, j, k, bi, ci in enumerate_product_indices(blocks_b, blocks_c):
        block = tuple([-(a == i) for a in range(1, r + 1)] + [1])
        columns.append(pairB.matrix.column(bi) + pairC.matrix.column(ci) + block)
        coefficients.append(-pairB.coefficients[bi] * pairC.coefficients[ci])
        labels.append(PRODUCT_LABEL.format(i, j, k))
    rows = tuple(tuple(col[a] for col in columns) for a in range(len(columns[0])))
    return HornPair(HornMatrix(rows, tuple(labels)), tuple(coefficients))


def minimize_horn_pair(pair: HornPair, strict: bool = False) -> HornPair:
    """Fold proportional rows into single rows, compensating the coefficients.

    Rows k_m * f with one primitive form f become K * f, K = sum k_m, and
    column c's coefficient gains rho**f_c, rho = prod k_m**k_m / K**K, so
    the parametrization is unchanged (verified exactly, by comparing the
    factored columns, before returning).  A class whose constants sum to
    zero cannot be folded; it is kept as-is, or raises in strict mode.
    All-zero rows are dropped.
    """
    rows = [row for row in pair.matrix.entries if any(row)]
    if not rows:
        raise ValueError("matrix has no nonzero rows")
    classes: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for row in rows:
        constant, rep = _scaled_form(row)
        classes.setdefault(rep, []).append((constant, row))
    new_rows: list[tuple[int, ...]] = []
    coefficient_factors = [Fraction(1)] * pair.n_columns
    for rep, members in classes.items():
        if len(members) == 1:
            new_rows.append(members[0][1])
            continue
        total = sum(k for k, _ in members)
        if total == 0:
            if strict:
                raise MergeAbortedError(f"rows proportional to {rep} have constants summing to 0")
            new_rows.extend(row for _, row in members)
            continue
        new_rows.append(tuple([total * x for x in rep]))
        rho = prod([Fraction(k) ** k for k, _ in members]) / Fraction(total) ** total
        for c, x in enumerate(rep):
            if x:
                coefficient_factors[c] *= rho**x
    minimized = HornPair(
        HornMatrix(tuple(new_rows), pair.matrix.column_labels),
        tuple(c * f for c, f in zip(pair.coefficients, coefficient_factors)),
    )
    if _factored_columns(minimized) != _factored_columns(pair):
        raise AssertionError("row folding changed the parametrization")
    return minimized


def permute_horn_columns(pair: HornPair, order: Sequence[int]) -> HornPair:
    """Reorder columns (and coefficients, and labels) by the given index list."""
    order = [int(i) for i in order]
    if sorted(order) != list(range(pair.n_columns)):
        raise ValueError(f"not a permutation of 0..{pair.n_columns - 1}: {order}")
    rows = tuple(tuple(row[i] for i in order) for row in pair.matrix.entries)
    labels = pair.matrix.column_labels
    new_labels = tuple(labels[i] for i in order) if labels is not None else None
    return HornPair(HornMatrix(rows, new_labels), tuple(pair.coefficients[i] for i in order))


def align_horn_to_labels(pair: HornPair, labels: Sequence[str]) -> HornPair:
    """Permute the pair's columns into the order of the given labels."""
    if pair.matrix.column_labels is None:
        raise ValueError("pair has no column labels to align by")
    current = list(pair.matrix.column_labels)
    wanted = [str(s) for s in labels]
    if sorted(current) != sorted(wanted):
        raise ValueError(f"labels {wanted} do not match columns {current}")
    return permute_horn_columns(pair, [current.index(s) for s in wanted])


def format_horn_matrix(matrix: HornMatrix) -> str:
    """Row-major text with right-aligned columns, for visual diffing."""
    cells = [[str(x) for x in row] for row in matrix.entries]
    header = list(matrix.column_labels) if matrix.column_labels else None
    widths = [
        max(
            max(len(cells[r][c]) for r in range(matrix.n_rows)),
            len(header[c]) if header else 0,
        )
        for c in range(matrix.n_columns)
    ]
    lines = []
    if header:
        lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in cells:
        lines.append("  ".join(x.rjust(w) for x, w in zip(row, widths)))
    return "\n".join(lines)
