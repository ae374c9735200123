"""Closed-form maximum likelihood estimation and its numeric cross-check.

The closed form evaluates a linear-precision blending system at the data
barycenter; its output matches the data's sufficient statistics exactly
(zero Birch residual).  Iterative proportional scaling provides an
independent floating-point oracle: the design matrix is rescaled to a
nonnegative matrix with constant column sums and the classical
multiplicative update is iterated until the margins match.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .blending import BlendingSystem, WeightVector
from .errors import DomainError, NotConvergedError, PoleError, ZeroClassTotalError
from .geometry import DesignMatrix
from .tfp import Multigrading, enumerate_product_indices


@dataclass(frozen=True)
class DataVector:
    """Nonnegative integer counts with a positive total."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        if sum(counts) <= 0:
            raise ValueError("total count must be positive")

    @property
    def total(self) -> int:
        return sum(self.counts)

    def frequencies(self) -> tuple[Fraction, ...]:
        total = self.total
        return tuple(Fraction(c, total) for c in self.counts)

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class Distribution:
    """Probability vector, exact (Fractions) or floating point (IPS output)."""

    probs: tuple
    exact: bool = True

    def __post_init__(self):
        if self.exact:
            probs = tuple(Fraction(p) for p in self.probs)
            object.__setattr__(self, "probs", probs)
            if any(p < 0 for p in probs):
                raise ValueError("negative probability")
            if sum(probs) != 1:
                raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
        else:
            probs = tuple(float(p) for p in self.probs)
            object.__setattr__(self, "probs", probs)
            if any(p < 0 for p in probs):
                raise ValueError("negative probability")
            if abs(sum(probs) - 1.0) > 1e-12:
                raise ValueError(f"probabilities sum to {sum(probs)}")

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
    frequencies = u.frequencies()
    barycenter = tuple(
        sum((f * p[i] for f, p in zip(frequencies, sys.config.points)), Fraction(0))
        for i in range(sys.config.dim)
    )
    try:
        values = sys.evaluate(barycenter)
    except PoleError as exc:
        raise PoleError(f"data barycenter {barycenter} hits a pole: {exc}") from exc
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

    All zeros certifies that the sufficient statistics match.
    """
    if len(u) != dm.n_columns or len(p) != dm.n_columns:
        raise ValueError("dimension mismatch")
    model = dm.apply([Fraction(x) for x in p.probs])
    empirical = dm.apply(u.frequencies())
    return tuple(m - e for m, e in zip(model, empirical))


@dataclass(frozen=True)
class IpsResult:
    distribution: Distribution
    iterations: int
    residual: float


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
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
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
    for row in shifted:
        if sum(e * c for e, c in zip(row, u.counts)) <= 0:
            raise DomainError(f"margin of row {row} is not positive for counts {u.counts}")

    A = np.array(rows, dtype=float)
    M = np.array(shifted, dtype=float)
    u_hat = np.array(u.counts, dtype=float) / u.total
    target_original = A @ u_hat
    target = M @ u_hat
    p = np.array([float(x) for x in w.weights], dtype=float)
    p /= p.sum()
    residual = float(np.max(np.abs(A @ p - target_original)))
    iterations = 0
    while residual >= tol:
        if iterations >= max_iter:
            raise NotConvergedError(max_iter, residual)
        current = M @ p
        p = p * np.exp(M.T @ (np.log(target) - np.log(current)) / s)
        p = p / p.sum()
        iterations += 1
        residual = float(np.max(np.abs(A @ p - target_original)))
    return IpsResult(Distribution(tuple(p.tolist()), exact=False), iterations, residual)


def log_likelihood(u: DataVector, p: Distribution) -> float:
    """sum_i u_i * log(p_i) in double precision, with 0 * log(0) = 0."""
    total = 0.0
    for count, prob in zip(u.counts, p.probs):
        if count == 0:
            continue
        value = float(prob)
        if value <= 0:
            raise DomainError(f"zero probability with positive count {count}")
        total += count * math.log(value)
    return total


def random_data_vectors(
    count: int, length: int, seed: int, low: int = 1, high: int = 20
) -> list[DataVector]:
    """Seeded positive integer data vectors, for agreement sweeps."""
    rng = random.Random(seed)
    return [
        DataVector(tuple(rng.randint(low, high) for _ in range(length)))
        for _ in range(count)
    ]
