"""Blending systems on lattice polytopes and their linear-precision checks.

A blending system attaches one rational function to each configuration
point.  The toric construction multiplies lattice-distance forms raised to
the lattice distances of the point and divides by the weighted sum over all
points, so the family sums to one by construction.  Whether the family also
reproduces linear functions (linear precision), stays nonnegative on the
interior, and lands on the weighted toric variety are separate checks:

* partition of unity and linear precision are exact symbolic identities,
* interior nonnegativity is checked on seeded interior samples,
* membership in the variety is checked through binomial identities coming
  from an integer kernel basis of the design matrix, evaluated exactly at
  interior samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import PoleError, PointOutsidePolytopeError
from .geometry import (
    LatticePolytope,
    PointConfiguration,
    design_matrix,
    lattice_distance_forms,
    sample_interior,
)
from .polynomials import Polynomial, RationalFunction, sum_rational_functions


@dataclass(frozen=True)
class WeightVector:
    """Positive rational weight per configuration point."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        weights = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        for i, w in enumerate(weights):
            if w <= 0:
                raise ValueError(f"weight {i} must be positive, got {w}")

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, index: int) -> Fraction:
        return self.weights[index]

    @classmethod
    def ones(cls, count: int) -> "WeightVector":
        return cls((Fraction(1),) * count)


@dataclass(frozen=True)
class BlendingSystem:
    """One rational function per configuration point, plus the weights.

    ``kind`` records provenance: "toric" for systems built by
    :func:`toric_blending`, "custom" for user-supplied or derived families.
    """

    config: PointConfiguration
    weights: WeightVector
    functions: tuple[RationalFunction, ...]
    kind: str = "custom"
    variables: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.weights) != len(self.config.points):
            raise ValueError("weight count does not match configuration")
        if len(self.functions) != len(self.config.points):
            raise ValueError("function count does not match configuration")
        if self.kind not in ("toric", "custom"):
            raise ValueError(f"unknown system kind {self.kind!r}")
        names = tuple(self.variables) or tuple(f"x{i + 1}" for i in range(self.config.dim))
        if len(names) != self.config.dim:
            raise ValueError(f"expected {self.config.dim} variables, got {names}")
        functions = tuple(f.reindexed(names) for f in self.functions)
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "functions", functions)

    def evaluate(self, point: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """All function values at a rational point (PoleError on any pole)."""
        return tuple(f.evaluate(point) for f in self.functions)


def toric_blending(
    poly: LatticePolytope,
    points: PointConfiguration,
    w: WeightVector,
    names: Sequence[str] | None = None,
) -> BlendingSystem:
    """Weighted toric blending functions of (poly, points, w).

    Each point b gets w_b * prod_i h_i ** h_i(b) divided by the weighted sum
    over all points, where h_i are the lattice-distance forms of the facets.
    The shared denominator is stored uncancelled.
    """
    if len(w) != len(points.points):
        raise ValueError("weight count does not match configuration")
    forms = lattice_distance_forms(poly, names)
    numerators: list[Polynomial] = []
    for b in points.points:
        exponents = [int(d) for d in poly.lattice_distances(b)]
        if any(e < 0 for e in exponents):
            raise PointOutsidePolytopeError(f"point {b} lies outside the polytope")
        beta = Polynomial.constant(1, forms[0].variables)
        for h, e in zip(forms, exponents):
            beta = beta * h**e
        numerators.append(beta)
    beta_w = Polynomial.zero(forms[0].variables)
    for w_b, beta in zip(w.weights, numerators):
        beta_w = beta_w + w_b * beta
    functions = tuple(
        RationalFunction(w_b * beta, beta_w) for w_b, beta in zip(w.weights, numerators)
    )
    return BlendingSystem(points, w, functions, "toric", tuple(forms[0].variables))


def verify_partition_of_unity(sys: BlendingSystem) -> bool:
    """Check symbolically that the functions sum to the constant 1."""
    return sum_rational_functions(sys.functions).equals(RationalFunction(1))


def _affine_span_substitution(config: PointConfiguration) -> list[Polynomial] | None:
    """Affine parametrization of the configuration's span, or None when full-dimensional.

    Returns one polynomial per ambient coordinate, in fresh variables
    t1..ts where s is the affine dimension.
    """
    base = config.points[0]
    diffs = [[Fraction(p[i] - base[i]) for i in range(config.dim)] for p in config.points[1:]]
    reduced, pivots = linalg.rref(diffs)
    if len(pivots) == config.dim:
        return None
    basis = [reduced[r] for r in range(len(pivots))]
    t_names = tuple(f"t{i + 1}" for i in range(len(basis)))
    images = []
    for c in range(config.dim):
        poly = Polynomial.constant(base[c], t_names)
        for r, row in enumerate(basis):
            poly = poly + row[c] * Polynomial.variable(t_names[r], t_names)
        images.append(poly)
    return images


def verify_linear_precision(sys: BlendingSystem) -> bool:
    """Check that sum_b f_b * b_c equals the coordinate x_c, all c.

    The identity is tested on the affine hull of the configuration: for a
    full-dimensional configuration that is the plain rational-function
    identity, while configurations spanning a proper affine subspace (such as
    fiber products) are tested after substituting a parametrization of the
    span.  A denominator vanishing identically on the span fails the check.
    """
    span = _affine_span_substitution(sys.config)
    for c, name in enumerate(sys.variables):
        weighted = sum_rational_functions(
            f * Fraction(b[c]) for f, b in zip(sys.functions, sys.config.points)
        )
        coordinate = RationalFunction(Polynomial.variable(name, sys.variables))
        if span is None:
            if not weighted.equals(coordinate):
                return False
            continue
        difference = weighted - coordinate
        num = difference.numerator.reindexed(sys.variables).substitute(span)
        den = difference.denominator.reindexed(sys.variables).substitute(span)
        if den.is_zero or not num.is_zero:
            return False
    return True


def _holds_at_samples(config: PointConfiguration, samples: int, seed: int, holds) -> bool:
    """True when ``holds(point)`` is true at every seeded interior sample.

    This is the one loop behind every sampled check.  No sample is skipped:
    a PoleError at any sample is a failure.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    for point in sample_interior(config, samples, seed):
        try:
            if not holds(point):
                return False
        except PoleError:
            return False
    return True


def verify_interior_positivity(
    sys: BlendingSystem, poly: LatticePolytope | None = None, samples: int = 50, seed: int = 0
) -> bool:
    """Sampled check that every function is defined and >= 0 on the relative interior.

    Samples are strictly positive convex combinations of the configuration
    points.  When the polytope is supplied, each sample is asserted to have
    positive lattice distance to every facet.
    """

    def holds(point) -> bool:
        if poly is not None and any(d <= 0 for d in poly.lattice_distances(point)):
            raise ValueError(f"sample {point} is not interior to the polytope")
        return all(v >= 0 for v in sys.evaluate(point))

    return _holds_at_samples(sys.config, samples, seed, holds)


def verify_toric_membership(sys: BlendingSystem, samples: int = 50, seed: int = 0) -> bool:
    """Sampled binomial-identity check against the weighted toric variety.

    For each integer kernel vector v of the design matrix, split v into its
    positive and negative parts and compare the corresponding products of
    f_b(p)/w_b exactly at interior sample points.  Every point of the variety
    satisfies these binomials, so one failing sample certifies
    non-membership; a pole at a sample also fails.
    """
    dm = design_matrix(sys.config)
    kernel = linalg.integer_kernel_basis([list(r) for r in dm.rows], dm.n_columns)

    def holds(point) -> bool:
        scaled = [v / w for v, w in zip(sys.evaluate(point), sys.weights.weights)]
        for vector in kernel:
            left = Fraction(1)
            right = Fraction(1)
            for x, e in zip(scaled, vector):
                if e > 0:
                    left *= x**e
                elif e < 0:
                    right *= x**-e
            if left != right:
                return False
        return True

    return _holds_at_samples(sys.config, samples, seed, holds)


@dataclass(frozen=True)
class PrecisionReport:
    """Outcome of the four defining checks, with a message per failure."""

    partition_of_unity: bool
    toric_membership: bool
    interior_positivity: bool
    linear_precision: bool
    details: dict[str, str] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return (
            self.partition_of_unity
            and self.toric_membership
            and self.interior_positivity
            and self.linear_precision
        )

    def as_dict(self) -> dict:
        out = {
            "partition_of_unity": self.partition_of_unity,
            "toric_membership": self.toric_membership,
            "interior_positivity": self.interior_positivity,
            "linear_precision": self.linear_precision,
            "all_pass": self.all_pass,
        }
        if self.details:
            out["details"] = dict(self.details)
        return out


def verify_rational_linear_precision(
    sys: BlendingSystem,
    poly: LatticePolytope | None = None,
    samples: int = 50,
    seed: int = 0,
) -> PrecisionReport:
    """Run all four checks.

    The hull is computed from the configuration when omitted; configurations
    that span a proper affine subspace have no facet description here, so
    positivity then runs on relative-interior samples alone.
    """
    from .geometry import convex_hull_facets

    if poly is None and _affine_span_substitution(sys.config) is None:
        poly = convex_hull_facets(sys.config)
    details: dict[str, str] = {}
    partition = verify_partition_of_unity(sys)
    if not partition:
        total = sum_rational_functions(sys.functions)
        details["partition_of_unity"] = f"functions sum to {total}, not 1"
    membership = verify_toric_membership(sys, samples, seed)
    if not membership:
        details["toric_membership"] = (
            "a kernel binomial identity fails, or a function has a pole, at an interior sample"
        )
    positivity = verify_interior_positivity(sys, poly, samples, seed)
    if not positivity:
        details["interior_positivity"] = "a function has a pole or negative value at an interior sample"
    linear = verify_linear_precision(sys)
    if not linear:
        details["linear_precision"] = "sum_b f_b * b does not reproduce the coordinate functions"
    return PrecisionReport(partition, membership, positivity, linear, details)


def toric_patch_eval(
    sys: BlendingSystem,
    control: Sequence[Sequence[Fraction | int]],
    p: Sequence[Fraction | int],
) -> tuple[Fraction, ...]:
    """Exact patch value sum_b f_b(p) * Q_b for control points Q_b."""
    if len(control) != len(sys.config.points):
        raise ValueError("one control point per configuration point required")
    controls = [tuple(Fraction(x) for x in q) for q in control]
    target_dim = len(controls[0])
    if any(len(q) != target_dim for q in controls):
        raise ValueError("control points must share one dimension")
    values = sys.evaluate(p)
    return tuple(
        sum((v * q[i] for v, q in zip(values, controls)), Fraction(0))
        for i in range(target_dim)
    )
