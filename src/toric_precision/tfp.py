"""Fiber products of multigraded point configurations and their blending systems.

Two configurations are joined along a set of degree vectors: every point of
either factor carries a degree class, the classes must be reachable by an
affine-linear map on each side, and the product configuration concatenates
one point per class-compatible pair.  The product is again a graded model
over the same degrees, point (i, j, k) in class i, so it can be a factor of
the next product.  The blending functions of the product divide the product
of factor functions by the class sum of either factor; the two choices
agree on the affine span of the product but differ as global rational
functions.  That agreement is checked as an exact identity on the span,
with no sample drawn.

A product system that :func:`tfp_blending` returns keeps its two factor
systems, the grading and the form, and forms its functions only when they
are first read.  All four of its checks are decided from the factors, each
in its own mode (structural, from its own factors, sampled on its own
configuration, or summed over its own functions), with no product function,
sample or sum when both pass; see
:func:`toric_precision.blending._decide`.  The same factor checks decide
:func:`verify_form_agreement`.  Both functions need the grading validated
on the factors' points, since the certificates need independent degrees
and degree maps that hold there; a grading from :func:`validate_multigrading`
remembers the points it was validated on, and is validated again only on
other points.  A product loaded from JSON, or copied with ``_replace``, has
no factors: it is sampled, and its identities are summed over its functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import linalg
from .blending import (
    IDENTITIES,
    BlendingSystem,
    WeightVector,
    _affine_span_substitution,
    _factors_certify,
    _ProductRecord,
    _vanishes_on,
)
from .errors import (
    DependentDegreesError,
    EmptyDegreeClassError,
    NoDegreeMapError,
    ZeroClassSumError,
)
from .frozen import Frozen
from .geometry import PointConfiguration
from .polynomials import RationalFunction, sum_rational_functions


class GradedConfiguration(Frozen):
    """Point configuration with a 1-based degree-class index per point."""

    _fields = ("config", "assignment")

    def __init__(self, config: PointConfiguration, assignment: Sequence[int]):
        assignment = tuple([int(a) for a in assignment])
        if len(assignment) != len(config.points):
            raise ValueError("assignment length does not match configuration")
        if any(a < 1 for a in assignment):
            raise ValueError("degree classes are 1-based")
        present = set(assignment)
        if present != set(range(1, max(present) + 1)):
            raise EmptyDegreeClassError(f"classes {sorted(present)} leave gaps")
        self.__dict__.update(config=config, assignment=assignment)

    @property
    def num_classes(self) -> int:
        return max(self.assignment)


class GradedModel(Frozen):
    """One side of a fiber product as stored on disk: graded points, weights,
    and the degree vectors they are graded by."""

    _fields = ("graded", "weights", "degrees")

    def __init__(self, graded: GradedConfiguration, weights: WeightVector, degrees: PointConfiguration):
        self.__dict__.update(graded=graded, weights=weights, degrees=degrees)

    @property
    def config(self) -> PointConfiguration:
        return self.graded.config


class Multigrading(Frozen):
    """Validated joint grading of two configurations.

    ``degrees`` holds the degree vectors, one per class, and
    ``assignment_b`` / ``assignment_c`` each factor's 1-based class per
    point.  :func:`validate_multigrading` certifies that the degrees are
    linearly independent, which makes a covector omega with omega . a = 1
    for every degree a exist, and that each factor's points admit an
    affine degree map; it computes neither the covector nor the maps.
    """

    _fields = ("degrees", "assignment_b", "assignment_c")
    # The factors' point tuples validate_multigrading validated this grading
    # on; not a field, so ==, hash and _replace neither see nor copy it.
    _validated = None

    def __init__(self, degrees: PointConfiguration, assignment_b: tuple[int, ...], assignment_c: tuple[int, ...]):
        self.__dict__.update(degrees=degrees, assignment_b=assignment_b, assignment_c=assignment_c)

    @property
    def num_classes(self) -> int:
        return len(self.degrees.points)


def _check_degree_map(graded: GradedConfiguration, degrees: PointConfiguration, side: str) -> None:
    """Check that an affine map L with L(p) = degree(class of p) exists for all points.

    Raises NoDegreeMapError with a witness constraint when infeasible.
    """
    rows = [[Fraction(1)] + [Fraction(x) for x in p] for p in graded.config.points]
    for t in range(degrees.dim):
        rhs = [Fraction(degrees.points[a - 1][t]) for a in graded.assignment]
        if linalg.solve(rows, rhs) is not None:
            continue
        # Re-solve on a maximal independent subset, then name a violated point;
        # one exists, since every row depends on the kept ones.
        kept = linalg.independent_rows(rows)
        candidate = linalg.solve([rows[i] for i in kept], [rhs[i] for i in kept])
        for idx, (row, b) in enumerate(zip(rows, rhs)):
            got = sum(r * c for r, c in zip(row, candidate))
            if got != b:
                point = graded.config.points[idx]
                raise NoDegreeMapError(
                    f"no affine degree map for {side}: point {point} in class "
                    f"{graded.assignment[idx]} forces coordinate {t + 1} to {got}, "
                    f"expected {b}"
                )


def validate_multigrading(
    B: GradedConfiguration, C: GradedConfiguration, A: PointConfiguration
) -> Multigrading:
    """Certify that A grades both configurations.

    Checks, in order: both sides use one class per degree vector, the
    degree vectors are linearly independent (so a covector omega with
    omega . a = 1 exists, which the fiber product needs), and each side
    admits an affine-linear degree map hitting its assigned degree vector
    on every point.  The grading returned remembers both point tuples, so
    :func:`tfp_blending` and :func:`verify_form_agreement` do not validate
    it again on factor systems over the same points.
    """
    r = len(A.points)
    if B.num_classes != r or C.num_classes != r:
        raise EmptyDegreeClassError(
            f"gradings use {B.num_classes} and {C.num_classes} classes for {r} degrees"
        )
    columns = [[Fraction(a[t]) for a in A.points] for t in range(A.dim)]
    if linalg.rank(columns) != r:
        raise DependentDegreesError(f"degree vectors {A.points} are linearly dependent")
    _check_degree_map(B, A, "the first factor")
    _check_degree_map(C, A, "the second factor")
    g = Multigrading(A, B.assignment, C.assignment)
    g.__dict__["_validated"] = (B.config.points, C.config.points)
    return g


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


# The label of product point (i, j, k), and of the Horn column of the same index.
PRODUCT_LABEL = "z[{}][{}][{}]"


def tfp_configuration(
    B: GradedConfiguration,
    wB: WeightVector,
    C: GradedConfiguration,
    wC: WeightVector,
    g: Multigrading,
) -> GradedModel:
    """The product as a graded model: class-compatible point pairs with their
    weight products, point (i, j, k) in class i of the same degrees."""
    if len(wB) != len(B.config.points) or len(wC) != len(C.config.points):
        raise ValueError("weights do not match configurations")
    points = []
    weights = []
    classes = []
    labels = []
    for i, j, k, bi, ci in enumerate_product_indices(B.assignment, C.assignment):
        points.append(B.config.points[bi] + C.config.points[ci])
        weights.append(wB[bi] * wC[ci])
        classes.append(i)
        labels.append(PRODUCT_LABEL.format(i, j, k))
    config = PointConfiguration(B.config.dim + C.config.dim, tuple(points), tuple(labels))
    return GradedModel(GradedConfiguration(config, tuple(classes)), WeightVector(tuple(weights)), g.degrees)


def _product_variables(sysB: BlendingSystem, sysC: BlendingSystem) -> tuple[str, ...]:
    """The product's variables: x1.. for the first factor, y1.. for the second."""
    return tuple([f"x{i + 1}" for i in range(sysB.config.dim)] + [f"y{i + 1}" for i in range(sysC.config.dim)])


def _placed_factors(sysB: BlendingSystem, sysC: BlendingSystem) -> tuple[list, list]:
    """The factors' functions placed into the product's variables x1.., y1..,
    the first factor's at offset 0 and the second's after them."""
    dB, names = sysB.config.dim, _product_variables(sysB, sysC)
    return [f.placed(names, 0) for f in sysB.functions], [f.placed(names, dB) for f in sysC.functions]


def _class_sums(functions: Sequence[RationalFunction], assignment: Sequence[int], r: int) -> list[RationalFunction]:
    """S_i, the sum of the class-i functions, for i = 1..r (every class
    nonempty, once :func:`_graded_factors` has checked the grading)."""
    return [sum_rational_functions(f for f, a in zip(functions, assignment) if a == i) for i in range(1, r + 1)]


def _graded_factors(sysB: BlendingSystem, sysC: BlendingSystem, g: Multigrading) -> tuple[GradedConfiguration, ...]:
    """The factors' points graded by ``g``, validated by :func:`validate_multigrading`
    unless ``g`` was validated on exactly these points."""
    B, C = GradedConfiguration(sysB.config, g.assignment_b), GradedConfiguration(sysC.config, g.assignment_c)
    if g._validated != (B.config.points, C.config.points):
        validate_multigrading(B, C, g.degrees)
    return B, C


def _product_functions(factors: tuple[BlendingSystem, ...], g: Multigrading, form: str) -> tuple[RationalFunction, ...]:
    """The functions of the product :func:`tfp_blending` built from ``factors``
    (its record), each f_j * f_k / S_i over the placed factors."""
    fB, fC = _placed_factors(*factors)
    chosen = (fB, g.assignment_b) if form == "B" else (fC, g.assignment_c)
    denominators = _class_sums(*chosen, g.num_classes)
    return tuple([
        fB[bi] * fC[ci] / denominators[i - 1]
        for i, _, _, bi, ci in enumerate_product_indices(g.assignment_b, g.assignment_c)
    ])


def tfp_blending(
    sysB: BlendingSystem,
    sysC: BlendingSystem,
    g: Multigrading,
    form: str = "B",
) -> tuple[BlendingSystem, GradedModel]:
    """Blending system of the fiber product from the factor systems, and the
    product as a graded model, which can be a factor of the next product.

    The function for product point (i, j, k) is f_j * f_k divided by the
    class-i sum of the chosen factor ("B" or "C" denominator).  No product
    function is formed here: the system keeps both factor systems, the
    grading and the form, from which its checks are decided (see the module
    docstring) and its functions are formed on first read.  Then the
    factors' functions are placed once into the product's variables x1..,
    y1.. by padding exponents, so every product function and class sum is
    built over one variable tuple.  A class sum of 0 in the chosen factor
    raises ZeroClassSumError naming the factor and the class; dependent
    degree vectors raise DependentDegreesError, and classes that admit no
    affine degree map on a factor's points raise NoDegreeMapError.
    """
    if form not in ("B", "C"):
        raise ValueError(f"form must be 'B' or 'C', got {form!r}")
    B, C = _graded_factors(sysB, sysC, g)
    product = tfp_configuration(B, sysB.weights, C, sysC.weights, g)
    # Placing keeps a sum zero or nonzero, so the factor's own functions are summed.
    factor, chosen, assignment = ("first", sysB, g.assignment_b) if form == "B" else ("second", sysC, g.assignment_c)
    for i, total in enumerate(_class_sums(chosen.functions, assignment, g.num_classes), start=1):
        if total.is_zero:
            raise ZeroClassSumError(f"the {factor} factor's class-{i} functions sum to 0")
    # Every field but functions, which only a product leaves to its cached property.
    system = object.__new__(BlendingSystem)
    system.__dict__.update(
        config=product.config,
        weights=product.weights,
        kind="custom",
        variables=_product_variables(sysB, sysC),
        _record=_ProductRecord((sysB, sysC), g, form),
    )
    return system, product


def verify_form_agreement(
    sysB: BlendingSystem,
    sysC: BlendingSystem,
    g: Multigrading,
    samples: int = 50,
    seed: int = 0,
) -> bool:
    """Check that both denominator choices give the same product functions.

    f^B_ijk / f^C_ijk = S^C_i / S^B_i, the ratio of the factors' class-i sums,
    so the forms agree when every S^C_i / S^B_i - 1 vanishes on the product's
    span, an identity.  They do when both factors pass partition of unity
    and linear precision, each decided in its own mode, and no factor
    denominator vanishes on its span, for then S^B_i and S^C_i are one
    affine function on the span (see
    :func:`toric_precision.blending._decide`); otherwise the product's span
    and the class sums are built and compared.  No sample is drawn;
    ``samples < 1`` is still an error.  Dependent degree vectors raise DependentDegreesError, and classes that
    admit no affine degree map on a factor's points raise NoDegreeMapError,
    before the factors are decided.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    B, C = _graded_factors(sysB, sysC, g)
    if _factors_certify((sysB, sysC), samples, seed, IDENTITIES):
        return True
    fB, fC = _placed_factors(sysB, sysC)
    span = _affine_span_substitution(tfp_configuration(B, sysB.weights, C, sysC.weights, g).config)
    sums = zip(_class_sums(fB, g.assignment_b, g.num_classes), _class_sums(fC, g.assignment_c, g.num_classes))
    return all(not s_b.is_zero and _vanishes_on(s_c / s_b - 1, span) for s_b, s_c in sums)
