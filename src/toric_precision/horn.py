"""Horn matrices and Horn pairs: closed-form estimator maps and their algebra.

A Horn matrix is an integer matrix with zero column sums; together with a
nonzero coefficient per column it defines the map sending a data vector u
to ``lambda_c * prod_rows (row . u) ** entry``.  A pair is valid when those
coordinates sum to one and stay positive on positive inputs.  The module
also builds the pair of a fiber product from factor pairs, and folds
proportional rows into single rows without changing the map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    InconsistentBlockIndexError,
    MergeAbortedError,
    ZeroToNegativePowerError,
)
from .linalg import primitive_integer
from .polynomials import Polynomial
from .tfp import Multigrading, enumerate_product_indices


@dataclass(frozen=True)
class HornMatrix:
    """Integer matrix whose columns each sum to zero."""

    entries: tuple[tuple[int, ...], ...]
    column_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        entries = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("a Horn matrix needs at least one row")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        for c in range(width):
            total = sum(row[c] for row in entries)
            if total != 0:
                raise ValueError(f"column {c} sums to {total}, not 0")
        if self.column_labels is not None:
            labels = tuple(str(s) for s in self.column_labels)
            object.__setattr__(self, "column_labels", labels)
            if len(labels) != width:
                raise ValueError("label count does not match column count")

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_columns(self) -> int:
        return len(self.entries[0])

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(row[c] for row in self.entries)


@dataclass(frozen=True)
class HornPair:
    """Horn matrix plus one nonzero rational coefficient per column."""

    matrix: HornMatrix
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coefficients = tuple(Fraction(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coefficients)
        if len(coefficients) != self.matrix.n_columns:
            raise ValueError("coefficient count does not match column count")
        if any(c == 0 for c in coefficients):
            raise ValueError("coefficients must be nonzero")

    @property
    def n_columns(self) -> int:
        return self.matrix.n_columns


def horn_parametrize(pair: HornPair, u: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
    """Exact value of the pair's map at u.

    Conventions: 0 ** 0 = 1 and 0 ** positive = 0; a vanishing row with a
    negative exponent raises ZeroToNegativePowerError naming the row.
    """
    if len(u) != pair.n_columns:
        raise ValueError(f"expected {pair.n_columns} counts, got {len(u)}")
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


@dataclass(frozen=True)
class HornValidationReport:
    """Outcome of the sum-to-one and positivity checks."""

    sums_to_one: bool
    positive: bool
    witness: str | None = None

    @property
    def symbolic_checked(self) -> bool:
        """The sum-to-one identity is always also checked symbolically."""
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
    """Exact sum-to-one identity with the counts as polynomial variables.

    Coordinates are kept factored over the distinct primitive row forms:
    columns sharing a denominator are summed first, then the groups are
    combined over the exponent-wise least common multiple of their
    denominators.  Working at the level of form powers keeps the expanded
    polynomials small even for product pairs.
    """
    n = pair.n_columns
    names = tuple(f"u{i + 1}" for i in range(n))
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]

    def poly(form: tuple[int, ...]) -> Polynomial:
        return Polynomial(names, {unit[i]: e for i, e in enumerate(form) if e})

    groups: dict[tuple[tuple[tuple[int, ...], int], ...], Polynomial] = {}
    for constant, exponents in _factored_columns(pair):
        numerator = Polynomial.constant(constant, names)
        for form, e in exponents.items():
            if e > 0:
                numerator = numerator * poly(form) ** e
        key = tuple(sorted((form, -e) for form, e in exponents.items() if e < 0))
        groups[key] = groups.get(key, Polynomial.zero(names)) + numerator

    lcm_exponents: dict[tuple[int, ...], int] = {}
    for key in groups:
        for form, e in key:
            lcm_exponents[form] = max(lcm_exponents.get(form, 0), e)
    total = Polynomial.zero(names)
    for key, numerator in groups.items():
        have = dict(key)
        compensated = numerator
        for form, e in lcm_exponents.items():
            missing = e - have.get(form, 0)
            if missing:
                compensated = compensated * poly(form) ** missing
        total = total + compensated
    rhs = Polynomial.constant(1, names)
    for form, e in lcm_exponents.items():
        rhs = rhs * poly(form) ** e
    return total == rhs


def validate_horn_pair(pair: HornPair, trials: int = 100, seed: int = 0) -> HornValidationReport:
    """Check sum-to-one and positivity on sampled positive integer vectors.

    The sum-to-one identity is additionally verified symbolically, at every
    size.  Failures carry a witness string naming the offending input.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    sums_to_one = True
    positive = True
    witness = None
    for _ in range(trials):
        u = [rng.randint(1, 50) for _ in range(pair.n_columns)]
        try:
            coordinates = horn_parametrize(pair, u)
        except ZeroToNegativePowerError as exc:
            positive = False
            witness = f"u={u}: undefined ({exc})"
            break
        total = sum(coordinates)
        if total != 1 and sums_to_one:
            sums_to_one = False
            witness = witness or f"u={u}: coordinates sum to {total}"
        if any(x <= 0 for x in coordinates) and positive:
            positive = False
            bad = next(i for i, x in enumerate(coordinates) if x <= 0)
            witness = witness or f"u={u}: coordinate {bad} is {coordinates[bad]}"
        if not sums_to_one and not positive:
            break
    if sums_to_one and not _symbolic_sum_to_one(pair):
        sums_to_one = False
        witness = witness or "symbolic sum over the columns is not identically 1"
    return HornValidationReport(sums_to_one, positive, witness)


def tfp_horn_pair(
    pairB: HornPair,
    pairC: HornPair,
    grading: Multigrading | int,
    block_index_b: Sequence[int],
    block_index_c: Sequence[int],
) -> HornPair:
    """Horn pair of a fiber product from the factor pairs.

    ``block_index_*`` assigns each factor column its 1-based degree class.
    The column for (i, j, k) stacks column j of the first factor, column k
    of the second, and the negated class-i column of the simplex pair on the
    classes; its coefficient is minus the product of the factor coefficients.
    """
    r = grading.num_classes if isinstance(grading, Multigrading) else int(grading)
    if r < 1:
        raise InconsistentBlockIndexError("need at least one degree class")
    blocks_b = tuple(int(i) for i in block_index_b)
    blocks_c = tuple(int(i) for i in block_index_c)
    if len(blocks_b) != pairB.n_columns or len(blocks_c) != pairC.n_columns:
        raise InconsistentBlockIndexError("block index length does not match columns")
    for name, blocks in (("first", blocks_b), ("second", blocks_c)):
        present = set(blocks)
        if not present <= set(range(1, r + 1)):
            raise InconsistentBlockIndexError(f"{name} factor uses classes {sorted(present)}")
        if present != set(range(1, r + 1)):
            missing = sorted(set(range(1, r + 1)) - present)
            raise InconsistentBlockIndexError(f"{name} factor has empty classes {missing}")
    simplex = simplex_horn_pair(r).matrix
    columns = []
    coefficients = []
    labels = []
    for i, j, k, bi, ci in enumerate_product_indices(blocks_b, blocks_c):
        stacked = (
            pairB.matrix.column(bi)
            + pairC.matrix.column(ci)
            + tuple(-x for x in simplex.column(i - 1))
        )
        columns.append(stacked)
        coefficients.append(-pairB.coefficients[bi] * pairC.coefficients[ci])
        labels.append(f"z[{i}][{j}][{k}]")
    rows = tuple(tuple(col[a] for col in columns) for a in range(len(columns[0])))
    return HornPair(HornMatrix(rows, tuple(labels)), tuple(coefficients))


def minimize_horn_pair(pair: HornPair, strict: bool = False) -> HornPair:
    """Fold proportional rows into single rows, compensating the coefficients.

    Rows proportional over the rationals to one primitive vector are replaced
    by their sum; the per-column coefficient absorbs the proportionality
    constants so the parametrization is unchanged (verified exactly, by
    comparing the factored columns, before returning).  A class whose constants sum to zero
    cannot be folded; it is kept as-is, or raises in strict mode.  All-zero
    rows are dropped.
    """
    rows = [row for row in pair.matrix.entries if any(row)]
    if not rows:
        raise ValueError("matrix has no nonzero rows")
    class_order: list[tuple[int, ...]] = []
    classes: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for row in rows:
        constant, rep = _scaled_form(row)
        if rep not in classes:
            classes[rep] = []
            class_order.append(rep)
        classes[rep].append((constant, row))
    new_rows: list[tuple[int, ...]] = []
    coefficient_factors = [Fraction(1)] * pair.n_columns
    for rep in class_order:
        members = classes[rep]
        if len(members) == 1:
            new_rows.append(members[0][1])
            continue
        total_constant = sum(constant for constant, _ in members)
        if total_constant == 0:
            if strict:
                raise MergeAbortedError(
                    f"rows proportional to {rep} have constants summing to 0"
                )
            new_rows.extend(row for _, row in members)
            continue
        merged = tuple(sum(row[c] for _, row in members) for c in range(pair.n_columns))
        new_rows.append(merged)
        for c in range(pair.n_columns):
            folded = Fraction(1)
            for constant, row in members:
                if row[c]:
                    folded *= Fraction(constant) ** row[c]
            exponent = merged[c]
            coefficient_factors[c] *= folded / Fraction(total_constant) ** exponent
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


def format_horn_matrix(matrix: HornMatrix, with_labels: bool = True) -> str:
    """Row-major text with right-aligned columns, for visual diffing."""
    cells = [[str(x) for x in row] for row in matrix.entries]
    header = list(matrix.column_labels) if with_labels and matrix.column_labels else None
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
