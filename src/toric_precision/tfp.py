"""Fiber products of multigraded point configurations and their blending systems.

Two configurations are joined along a set of degree vectors: every point of
either factor carries a degree class, the classes must be reachable by an
affine-linear map on each side, and the product configuration concatenates
one point per class-compatible pair.  The blending functions of the product
divide the product of factor functions by the class sum of either factor;
the two choices agree on the interior of the product hull but differ as
global rational functions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .blending import (
    BlendingSystem,
    WeightVector,
    _holds_at_samples,
    verify_linear_precision,
    verify_partition_of_unity,
)
from .errors import DependentDegreesError, EmptyDegreeClassError, NoDegreeMapError, NotAFaceError
from .geometry import LatticePolytope, PointConfiguration
from .polynomials import RationalFunction, sum_rational_functions


class FactorPrecisionWarning(UserWarning):
    """A factor system fed into a fiber product fails a symbolic identity."""


@dataclass(frozen=True)
class GradedConfiguration:
    """Point configuration with a 1-based degree-class index per point."""

    config: PointConfiguration
    assignment: tuple[int, ...]

    def __post_init__(self):
        assignment = tuple(int(a) for a in self.assignment)
        object.__setattr__(self, "assignment", assignment)
        if len(assignment) != len(self.config.points):
            raise ValueError("assignment length does not match configuration")
        if any(a < 1 for a in assignment):
            raise ValueError("degree classes are 1-based")
        present = set(assignment)
        if present != set(range(1, max(present) + 1)):
            raise EmptyDegreeClassError(f"classes {sorted(present)} leave gaps")

    @property
    def num_classes(self) -> int:
        return max(self.assignment)

    def class_positions(self, i: int) -> list[int]:
        """Configuration indices of class i, in configuration order."""
        return [idx for idx, a in enumerate(self.assignment) if a == i]


@dataclass(frozen=True)
class GradedModel:
    """One side of a fiber product as stored on disk: graded points, weights,
    and the degree vectors they are graded by."""

    graded: GradedConfiguration
    weights: "WeightVector"
    degrees: PointConfiguration

    @property
    def config(self) -> PointConfiguration:
        return self.graded.config


@dataclass(frozen=True)
class Multigrading:
    """Validated joint grading of two configurations.

    ``degrees`` holds the degree vectors (one per class), ``omega`` a rational
    covector with omega . a = 1 for every degree a, and the two degree maps
    are affine-linear witnesses stored as rows acting on (1, point).
    """

    degrees: PointConfiguration
    omega: tuple[Fraction, ...]
    assignment_b: tuple[int, ...]
    assignment_c: tuple[int, ...]
    degree_map_b: tuple[tuple[Fraction, ...], ...]
    degree_map_c: tuple[tuple[Fraction, ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.degrees.points)


def _affine_degree_map(
    graded: GradedConfiguration, degrees: PointConfiguration, side: str
) -> tuple[tuple[Fraction, ...], ...]:
    """Solve for an affine map L with L(p) = degree(class of p) for all points.

    Raises NoDegreeMapError with a witness constraint when infeasible.
    """
    rows = [[Fraction(1)] + [Fraction(x) for x in p] for p in graded.config.points]
    map_rows = []
    for t in range(degrees.dim):
        rhs = [Fraction(degrees.points[a - 1][t]) for a in graded.assignment]
        solution = linalg.solve(rows, rhs)
        if solution is None:
            # Re-solve on a maximal independent subset, then name a violated point;
            # one exists, since every row depends on the kept ones.
            kept_rows: list[list[Fraction]] = []
            kept_rhs: list[Fraction] = []
            for row, b in zip(rows, rhs):
                if linalg.rank(kept_rows + [row]) > len(kept_rhs):
                    kept_rows.append(row)
                    kept_rhs.append(b)
            candidate = linalg.solve(kept_rows, kept_rhs)
            for idx, (row, b) in enumerate(zip(rows, rhs)):
                got = sum(r * c for r, c in zip(row, candidate))
                if got != b:
                    point = graded.config.points[idx]
                    raise NoDegreeMapError(
                        f"no affine degree map for {side}: point {point} in class "
                        f"{graded.assignment[idx]} forces coordinate {t + 1} to {got}, "
                        f"expected {b}"
                    )
        map_rows.append(tuple(solution))
    return tuple(map_rows)


def validate_multigrading(
    B: GradedConfiguration, C: GradedConfiguration, A: PointConfiguration
) -> Multigrading:
    """Certify that A grades both configurations.

    Checks, in order: the degree vectors are linearly independent (so a
    covector omega with omega . a = 1 exists), and each side admits an
    affine-linear degree map hitting its assigned degree vector on every point.
    """
    r = len(A.points)
    if B.num_classes != r or C.num_classes != r:
        raise EmptyDegreeClassError(
            f"gradings use {B.num_classes} and {C.num_classes} classes for {r} degrees"
        )
    columns = [[Fraction(a[t]) for a in A.points] for t in range(A.dim)]
    if linalg.rank(columns) != r:
        raise DependentDegreesError(f"degree vectors {A.points} are linearly dependent")
    omega = linalg.solve([list(p) for p in A.points], [Fraction(1)] * r)
    map_b = _affine_degree_map(B, A, "the first factor")
    map_c = _affine_degree_map(C, A, "the second factor")
    return Multigrading(A, tuple(omega), B.assignment, C.assignment, map_b, map_c)


def enumerate_product_indices(
    assignment_b: Sequence[int], assignment_c: Sequence[int]
) -> list[tuple[int, int, int, int, int]]:
    """(class i, j, k, index into B, index into C) in (i, j, k) lexicographic order.

    j and k are 1-based positions inside the class, following configuration order.
    """
    r = max(assignment_b)
    out = []
    for i in range(1, r + 1):
        b_positions = [idx for idx, a in enumerate(assignment_b) if a == i]
        c_positions = [idx for idx, a in enumerate(assignment_c) if a == i]
        for j, bi in enumerate(b_positions, start=1):
            for k, ci in enumerate(c_positions, start=1):
                out.append((i, j, k, bi, ci))
    return out


@dataclass(frozen=True)
class TfpConfiguration:
    """Fiber-product configuration with provenance back into the factors."""

    config: PointConfiguration
    weights: WeightVector
    index: tuple[tuple[int, int, int], ...]
    source_b: tuple[int, ...]
    source_c: tuple[int, ...]
    grading: Multigrading

    def assignment(self) -> tuple[int, ...]:
        """Degree class of each product point."""
        return tuple(i for i, _, _ in self.index)


def tfp_configuration(
    B: GradedConfiguration,
    wB: WeightVector,
    C: GradedConfiguration,
    wC: WeightVector,
    g: Multigrading,
) -> TfpConfiguration:
    """Concatenate class-compatible point pairs, multiplying their weights."""
    if len(wB) != len(B.config.points) or len(wC) != len(C.config.points):
        raise ValueError("weights do not match configurations")
    points = []
    weights = []
    index = []
    source_b = []
    source_c = []
    labels = []
    for i, j, k, bi, ci in enumerate_product_indices(B.assignment, C.assignment):
        points.append(B.config.points[bi] + C.config.points[ci])
        weights.append(wB[bi] * wC[ci])
        index.append((i, j, k))
        source_b.append(bi)
        source_c.append(ci)
        labels.append(f"z[{i}][{j}][{k}]")
    config = PointConfiguration(B.config.dim + C.config.dim, tuple(points), tuple(labels))
    return TfpConfiguration(
        config,
        WeightVector(tuple(weights)),
        tuple(index),
        tuple(source_b),
        tuple(source_c),
        g,
    )


def tfp_blending(
    sysB: BlendingSystem,
    sysC: BlendingSystem,
    g: Multigrading,
    form: str = "B",
    check_factors: bool = True,
) -> tuple[BlendingSystem, TfpConfiguration]:
    """Blending system of the fiber product from the factor systems.

    The function for product point (i, j, k) is f_j * f_k divided by the
    class-i sum of the chosen factor ("B" or "C" denominator).  Factor
    variables are renamed positionally to x1.. and y1.. so the product lives
    over disjoint variables.
    """
    if form not in ("B", "C"):
        raise ValueError(f"form must be 'B' or 'C', got {form!r}")
    if check_factors:
        for name, sys in (("first", sysB), ("second", sysC)):
            if not verify_partition_of_unity(sys):
                warnings.warn(f"{name} factor does not sum to 1", FactorPrecisionWarning)
            elif not verify_linear_precision(sys):
                warnings.warn(f"{name} factor lacks linear precision", FactorPrecisionWarning)
    d1, d2 = sysB.config.dim, sysC.config.dim
    x_names = tuple(f"x{i + 1}" for i in range(d1))
    y_names = tuple(f"y{i + 1}" for i in range(d2))
    gradedB = GradedConfiguration(sysB.config, g.assignment_b)
    gradedC = GradedConfiguration(sysC.config, g.assignment_c)
    fB = [f.renamed(x_names) for f in sysB.functions]
    fC = [f.renamed(y_names) for f in sysC.functions]
    denominators: dict[int, RationalFunction] = {}
    for i in range(1, g.num_classes + 1):
        positions = gradedB.class_positions(i) if form == "B" else gradedC.class_positions(i)
        if not positions:
            raise EmptyDegreeClassError(f"class {i} is empty")
        factor = fB if form == "B" else fC
        denominators[i] = sum_rational_functions(factor[p] for p in positions)
    product = tfp_configuration(gradedB, sysB.weights, gradedC, sysC.weights, g)
    functions = []
    for (i, _, _), bi, ci in zip(product.index, product.source_b, product.source_c):
        functions.append(fB[bi] * fC[ci] / denominators[i])
    system = BlendingSystem(
        product.config,
        product.weights,
        tuple(functions),
        "custom",
        x_names + y_names,
    )
    return system, product


def graded_face(
    B: GradedConfiguration, poly: LatticePolytope, i: int
) -> tuple[PointConfiguration, tuple[int, ...]]:
    """Class-i points together with a facet-subset certificate.

    The certificate is the set of facet indices tight on the whole class;
    the points of the configuration tight on all of them must be exactly the
    class, otherwise the class is not a face of the polytope.
    """
    positions = B.class_positions(i)
    if not positions:
        raise EmptyDegreeClassError(f"class {i} is empty")
    class_points = [B.config.points[p] for p in positions]
    distances = {p: poly.lattice_distances(B.config.points[p]) for p in range(len(B.config.points))}
    certificate = tuple(
        f
        for f in range(len(poly.facets))
        if all(distances[p][f] == 0 for p in positions)
    )
    cut_out = {
        idx
        for idx in range(len(B.config.points))
        if all(distances[idx][f] == 0 for f in certificate)
    }
    if cut_out != set(positions):
        extras = sorted(cut_out - set(positions))
        raise NotAFaceError(
            f"class {i} is not cut out by facets {certificate}; "
            f"extra configuration points {[B.config.points[e] for e in extras]}"
        )
    labels = B.config.labels
    face_labels = tuple(labels[p] for p in positions) if labels is not None else None
    face = PointConfiguration(B.config.dim, tuple(class_points), face_labels)
    return face, certificate


def verify_face_partition(
    sys: BlendingSystem,
    B: GradedConfiguration,
    poly: LatticePolytope,
    i: int,
    samples: int = 50,
    seed: int = 0,
) -> bool:
    """Sampled check that the class-i functions sum to exactly 1 on their face."""
    face, _ = graded_face(B, poly, i)
    positions = B.class_positions(i)
    return _holds_at_samples(
        face,
        samples,
        seed,
        lambda point: sum((sys.functions[p].evaluate(point) for p in positions), Fraction(0)) == 1,
    )


def verify_form_agreement(
    sysB: BlendingSystem,
    sysC: BlendingSystem,
    g: Multigrading,
    samples: int = 50,
    seed: int = 0,
) -> bool:
    """Check both denominator choices agree exactly at interior product samples."""
    system_b, product = tfp_blending(sysB, sysC, g, form="B", check_factors=False)
    system_c, _ = tfp_blending(sysB, sysC, g, form="C", check_factors=False)
    return _holds_at_samples(
        product.config,
        samples,
        seed,
        lambda point: system_b.evaluate(point) == system_c.evaluate(point),
    )
