"""Closed-form maximum likelihood estimation and its numeric cross-check.

The closed form evaluates a linear-precision blending system at the data
barycenter; its output matches the data's sufficient statistics exactly
(zero Birch residual).  Both run in integers over one denominator: the
barycenter is sum u_j * p_j over |u|, handed straight to the system's
evaluation kernel, and the residual is formed over the common denominator
of the estimate and the total count.  Iterative proportional scaling
provides an independent floating-point oracle: the design matrix is
rescaled to a nonnegative matrix with constant column sums and the
classical multiplicative update is iterated until the margins match, with
one product M p per step shared by the update and the stopping test.  The
design matrices are small (a few rows; the fiber product of the fixtures
has 10 columns), so the oracle runs in plain Python floats, on float copies
of the scaled design made once per fit, and the package needs nothing
beyond the standard library.  An exact value that is already a
``Fraction`` is kept, not rebuilt.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .blending import BlendingSystem, WeightVector
from .errors import BoundaryDataError, DomainError, NotConvergedError, PoleError, ZeroClassTotalError
from .frozen import Frozen
from .geometry import DesignMatrix
from .polynomials import integer_point, point_text
from .tfp import Multigrading, enumerate_product_indices


class DataVector(Frozen):
    """Nonnegative integer counts with a positive total."""

    _fields = ("counts",)

    def __init__(self, counts: Sequence[int]):
        counts = tuple(int(c) for c in counts)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        if sum(counts) <= 0:
            raise ValueError("total count must be positive")
        self.__dict__["counts"] = counts

    @property
    def total(self) -> int:
        return sum(self.counts)

    def __len__(self) -> int:
        return len(self.counts)


class Distribution(Frozen):
    """Probability vector, exact (Fractions) or floating point (IPS output).

    An exact entry that is already a ``Fraction`` is kept as it is."""

    _fields = ("probs", "exact")

    def __init__(self, probs: Sequence, exact: bool = True):
        if exact:
            probs = tuple([p if type(p) is Fraction else Fraction(p) for p in probs])
            if any(p < 0 for p in probs):
                raise ValueError("negative probability")
            xs, q = integer_point(probs)
            if sum(xs) != q:
                raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
        else:
            probs = tuple([float(p) for p in probs])
            if any(p < 0 for p in probs):
                raise ValueError("negative probability")
            if abs(sum(probs) - 1.0) > 1e-12:
                raise ValueError(f"probabilities sum to {sum(probs)}")
        self.__dict__.update(probs=probs, exact=exact)

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, index: int):
        return self.probs[index]


def mle_closed_form(sys: BlendingSystem, u: DataVector) -> Distribution:
    """Evaluate the blending system at the data barycenter.

    For a system with rational linear precision this is the exact maximum
    likelihood estimate for counts u on the system's coordinates.
    """
    if len(u) != len(sys.config.points):
        raise ValueError("data length does not match configuration")
    # The barycenter sum_j u_j * p_j / |u| as integers over the total count.
    xs = [sum(map(mul, u.counts, column)) for column in zip(*sys.config.points)]
    try:
        values = sys._values(xs, u.total)
    except PoleError as exc:
        raise PoleError(f"data barycenter {point_text(xs, u.total)} hits a pole: {exc}") from exc
    return Distribution(values, exact=True)


def tfp_marginal_counts(g: Multigrading, u: DataVector) -> tuple[DataVector, DataVector]:
    """Marginalize fiber-product counts onto the two factors."""
    order = enumerate_product_indices(g.assignment_b, g.assignment_c)
    if len(u) != len(order):
        raise ValueError("data length does not match the product configuration")
    counts_b = [0] * len(g.assignment_b)
    counts_c = [0] * len(g.assignment_c)
    for count, (_, _, _, bi, ci) in zip(u.counts, order):
        counts_b[bi] += count
        counts_c[ci] += count
    return DataVector(tuple(counts_b)), DataVector(tuple(counts_c))


def tfp_mle_combine(
    pB: Distribution, pC: Distribution, g: Multigrading, u: DataVector
) -> Distribution:
    """Combine factor estimates into the product estimate.

    Entry (i, j, k) is pB_j * pC_k divided by the class share u_i / total.
    The factor distributions must be the estimates for the marginalized
    counts of u.
    """
    for name, p, assignment in (("pB", pB, g.assignment_b), ("pC", pC, g.assignment_c)):
        if len(p) != len(assignment):
            raise ValueError(f"{name} has {len(p)} entries, the grading has {len(assignment)} points")
    order = enumerate_product_indices(g.assignment_b, g.assignment_c)
    if len(u) != len(order):
        raise ValueError("data length does not match the product configuration")
    class_totals: dict[int, int] = {}
    for count, (i, _, _, _, _) in zip(u.counts, order):
        class_totals[i] = class_totals.get(i, 0) + count
    total = u.total
    probs = []
    for count, (i, _, _, bi, ci) in zip(u.counts, order):
        if class_totals[i] == 0:
            raise ZeroClassTotalError(f"degree class {i} has zero total count")
        share = Fraction(class_totals[i], total)
        probs.append(Fraction(pB[bi]) * Fraction(pC[ci]) / share)
    return Distribution(tuple(probs), exact=True)


def birch_residual(
    dm: DesignMatrix, u: DataVector, p: Distribution
) -> tuple[Fraction, ...]:
    """Exact difference between model margins and empirical margins.

    All zeros certifies that the sufficient statistics match.  With p as
    integers xs over q and n the total count, row a's entry is
    (A_a . xs * n - A_a . u * q) / (q * n).
    """
    if len(u) != dm.n_columns or len(p) != dm.n_columns:
        raise ValueError("dimension mismatch")
    xs, q = integer_point(p.probs)
    n = u.total
    return tuple([
        Fraction(sum(map(mul, row, xs)) * n - sum(map(mul, row, u.counts)) * q, q * n)
        for row in dm.rows
    ])


class IpsResult(Frozen):
    _fields = ("distribution", "iterations", "residual")

    def __init__(self, distribution: Distribution, iterations: int, residual: float):
        self.__dict__.update(distribution=distribution, iterations=iterations, residual=residual)


def ips_fit(
    dm: DesignMatrix,
    w: WeightVector,
    u: DataVector,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> IpsResult:
    """Iterative proportional scaling for the weighted log-linear model.

    The design rows are shifted by multiples of the ones vector (which lies
    in the row span by construction) to become nonnegative, and a slack row
    makes all column sums equal, which is the classical convergence regime
    for the multiplicative update.  Iteration starts at the normalized
    weight vector so every iterate stays in the scaled model's closure, and
    stops when the margins of the original design matrix match the data
    within tol in the max norm.

    Positivity of every scaled margin is checked exactly, in integers, before
    any float is formed; counts on a proper face of the configuration, where
    some margin is 0, raise BoundaryDataError naming that face's points.  A
    tolerance that is not positive and finite and a ``max_iter`` below 1
    raise ValueError.  The iteration then runs in Python floats: with M the
    scaled design, s its column sum and t = M u/|u|, each step is
    p <- p * exp(M^T (log t - log Mp) / s) followed by normalisation.  One
    product Mp per step, over the distinct rows of M, serves both that step
    and the stopping test: a design row that M keeps unchanged reads its
    margin from it, and only the rows the shift changed or dropped get a
    product of their own.  M's columns, its distinct rows and the design rows
    are converted to floats once per call, so each product is float x float;
    an integer entry converts exactly, so every iterate is the one integer
    entries give.  Nothing outlives the call.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if len(u) != dm.n_columns or len(w) != dm.n_columns:
        raise ValueError("dimension mismatch")
    rows = [list(r) for r in dm.rows]
    shifted = []
    for row in rows:
        offset = max(0, -min(row))
        candidate = [x + offset for x in row]
        # rows proportional to the ones vector shift to zero: vacuous constraints
        if any(candidate):
            shifted.append(candidate)
    column_sums = [sum(row[c] for row in shifted) for c in range(dm.n_columns)]
    s = max(column_sums)
    slack = [s - cs for cs in column_sums]
    if any(slack):
        shifted.append(slack)
    # Exact positivity check of the touched margins before going to floats.
    # Each row of M is >= 0 and not 0, so a zero margin puts every count on
    # the points where the row is 0, a proper face.
    for row in shifted:
        if not sum(map(mul, row, u.counts)):
            face = tuple([j for j, e in enumerate(row) if not e])
            raise BoundaryDataError(
                face, f"counts {u.counts} lie on the face of points {face}: row {row} of the scaled design has margin 0"
            )

    # Each distinct row of M is multiplied once per step; rows[i] reads the
    # margin of the equal row of M, or is multiplied itself (slot None).  The
    # rows and columns are held as floats (exact for integers), so every
    # product below is float x float.
    slot_of: dict[tuple[int, ...], int] = {}
    shifted_slots = [slot_of.setdefault(tuple(row), len(slot_of)) for row in shifted]
    margin_rows = [[float(x) for x in row] for row in slot_of]
    columns = [[float(x) for x in column] for column in zip(*shifted)]
    total = u.total
    u_hat = [c / total for c in u.counts]
    stop_rows = [
        (slot_of.get(tuple(row)), [float(x) for x in row], sum(map(mul, row, u_hat))) for row in rows
    ]
    log, exp = math.log, math.exp
    log_target = [log(sum(map(mul, row, u_hat))) for row in shifted]
    s = float(s)
    p = [float(x) for x in w.weights]
    norm = sum(p)
    p = [x / norm for x in p]
    margins, residual = _margins_and_residual(margin_rows, stop_rows, p)
    iterations = 0
    while residual >= tol:
        if iterations >= max_iter:
            raise NotConvergedError(max_iter, residual)
        step = [lt - log(margins[k]) for lt, k in zip(log_target, shifted_slots)]
        p = [x * exp(sum(map(mul, col, step)) / s) for x, col in zip(p, columns)]
        norm = sum(p)
        p = [x / norm for x in p]
        iterations += 1
        margins, residual = _margins_and_residual(margin_rows, stop_rows, p)
    return IpsResult(Distribution(p, exact=False), iterations, residual)


def _margins_and_residual(margin_rows, stop_rows, p) -> tuple[list[float], float]:
    """Margins of the distinct rows of M at p, and the max-norm residual of
    the design rows against their targets."""
    margins = [sum(map(mul, row, p)) for row in margin_rows]
    residual = max([
        abs((sum(map(mul, row, p)) if k is None else margins[k]) - t) for k, row, t in stop_rows
    ])
    return margins, residual


def log_likelihood(u: DataVector, p: Distribution) -> float:
    """sum_i u_i * log(p_i) in double precision, with 0 * log(0) = 0."""
    if len(u) != len(p):
        raise ValueError(f"data has length {len(u)}, the distribution has length {len(p)}")
    total = 0.0
    for count, prob in zip(u.counts, p.probs):
        if count == 0:
            continue
        value = float(prob)
        if value <= 0:
            raise DomainError(f"zero probability with positive count {count}")
        total += count * math.log(value)
    return total
