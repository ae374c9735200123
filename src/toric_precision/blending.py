"""Blending systems on lattice polytopes and their linear-precision checks.

A blending system attaches one rational function to each configuration
point.  The toric construction multiplies lattice-distance forms raised to
the lattice distances of the point and divides by the weighted sum over all
points, so the family sums to one by construction.  Whether the family also
reproduces linear functions (linear precision), stays nonnegative on the
interior, and lands on the weighted toric variety are separate checks:

* partition of unity and linear precision are exact symbolic identities,
  decided from the factors for a fiber product built by
  :func:`~toric_precision.tfp.tfp_blending` and summed over the expanded
  functions for every other system, except that a system built by
  :func:`toric_blending` partitions unity by construction,
* membership in the variety and interior positivity are structural for a
  system built by :func:`toric_blending`, decided from the factors for a
  fiber product built by :func:`~toric_precision.tfp.tfp_blending`, and
  sampled for every other one.

:func:`_decide` is the one rule that picks the mode of every check.

A toric-built system carries the facets (n_i, a_i) and the exponents
E[b][i] = h_i(b) of its factored form.  Confirming in integers that every
E[b][i] is the lattice distance <n_i, b> + a_i >= 0 decides both checks:
each column of E is affine in b, so every binomial of the design matrix's
kernel cancels exponent by exponent, and each factor h_i with E[b][i] > 0
is positive on the relative interior.  A fiber product keeps its two factor
systems.  When both factors pass membership and strict positivity, so does
the product (see :func:`_factors_certify`); when both pass partition of
unity and linear precision and their functions are defined on their spans,
so does the product, the paper's statement that a fiber product of systems
with rational linear precision has it (see :func:`_decide`).  Every other
system, including one loaded from JSON or copied with ``_replace``, and a
product whose factors do not pass, is checked through binomial identities
from an integer kernel basis of the design matrix and through signs,
exactly at seeded interior samples, and its identities are summed with
each denominator keyed by its primitive part.

Sampled checks run in integers from the draw to the verdict: each sample is
an unreduced integer point ``(xs, q)``, evaluated once by the system's
:class:`~toric_precision.polynomials.EvaluationKernel` into integer pairs
``(N_b, D_b)``, and a failing check reports the first sample it failed at.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from . import linalg
from .errors import PoleError, PointOutsidePolytopeError
from .frozen import Frozen
from .geometry import (
    Facet,
    LatticePolytope,
    PointConfiguration,
    _integer_samples,
    design_matrix,
    lattice_distance_forms,
)
from .polynomials import (
    EvaluationKernel,
    Polynomial,
    RationalFunction,
    common_variables,
    exact_rational,
    integer_point,
    lcm_sum,
    point_text,
    power_table,
    primitive_term,
    weighted_quotients,
)


class WeightVector(Frozen):
    """Positive rational weight per configuration point."""

    _fields = ("weights",)

    def __init__(self, weights: Sequence[Fraction | int | str]):
        weights = tuple([exact_rational(w, "weight") for w in weights])
        for i, w in enumerate(weights):
            if w <= 0:
                raise ValueError(f"weight {i} must be positive, got {w}")
        self.__dict__["weights"] = weights

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, index: int) -> Fraction:
        return self.weights[index]

    @classmethod
    def ones(cls, count: int) -> "WeightVector":
        return cls((Fraction(1),) * count)


class BlendingSystem(Frozen):
    """One rational function per configuration point, plus the weights.

    ``kind`` records provenance: "toric" for systems built by
    :func:`toric_blending`, "custom" for user-supplied or derived families.
    Only the systems :func:`toric_blending` and
    :func:`~toric_precision.tfp.tfp_blending` return carry a record of how
    they were built; ``==``, serialization and ``_replace`` neither see nor
    copy it, nor the cached ``_kernel``.  A fiber product's ``functions``
    are formed from its record on first read.
    """

    _fields = ("config", "weights", "functions", "kind", "variables")
    # A _ToricRecord on the systems toric_blending returns, a _ProductRecord
    # on those tfp_blending returns; not a field.
    _record = None

    def __init__(
        self,
        config: PointConfiguration,
        weights: WeightVector,
        functions: Sequence[RationalFunction],
        kind: str = "custom",
        variables: Sequence[str] = (),
    ):
        if len(weights) != len(config.points):
            raise ValueError("weight count does not match configuration")
        if len(functions) != len(config.points):
            raise ValueError("function count does not match configuration")
        if kind not in ("toric", "custom"):
            raise ValueError(f"unknown system kind {kind!r}")
        names = tuple(variables) or tuple(f"x{i + 1}" for i in range(config.dim))
        if len(names) != config.dim:
            raise ValueError(f"expected {config.dim} variables, got {names}")
        # From a list, as in _values: every system would leave one tuple on
        # CPython's free lists otherwise.  A constant over no variables is
        # padded; a function over other variables is refused.
        functions = tuple([
            f if f.variables == names else f.placed(common_variables(names, f.variables), 0) for f in functions
        ])
        self.__dict__.update(config=config, weights=weights, functions=functions, kind=kind, variables=names)

    @cached_property
    def functions(self) -> tuple[RationalFunction, ...]:
        """The functions of a fiber product, formed from its factors on first
        read; every other system sets this field in ``__init__``."""
        from .tfp import _product_functions  # tfp imports this module

        return _product_functions(*self._record)

    def evaluate(self, point: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """All function values at a rational point (PoleError on any pole)."""
        if len(point) != len(self.variables):
            raise ValueError(
                f"expected {len(self.variables)} values for {self.variables}, got {len(point)}"
            )
        xs, q = integer_point(point)
        return self._values(xs, q)

    def _values(self, xs: Sequence[int], q: int) -> tuple[Fraction, ...]:
        """All function values at ``xs / q``; a PoleError names the point as
        ``p/q`` coordinates."""
        # From a list, not a generator: tuple() of a generator allocates for
        # a guessed length and resizes, so every call would leave one more
        # tuple of the system's size on CPython's free lists.
        return tuple([Fraction(n, d) for n, d in self._kernel.pairs(xs, q)])

    @cached_property
    def _kernel(self) -> EvaluationKernel:
        """The shared-monomial kernel of the functions, planned on first use."""
        return EvaluationKernel(self.functions)


class _ToricRecord(NamedTuple):
    """The factored form of a toric system: f_b = w_b * prod_i h_i**E[b][i] / sum."""

    facets: tuple[Facet, ...]  # (n_i, a_i), so that h_i(p) = <p, n_i> + a_i
    exponents: tuple[tuple[int, ...], ...]  # E[b][i] = h_i(b), one row per point


class _ProductRecord(NamedTuple):
    """The factors of a fiber product: f_ijk = f_j * f_k / S_i with weight w_j * w_k."""

    factors: tuple[BlendingSystem, BlendingSystem]
    grading: "Multigrading"  # validated on the factors' points
    form: str  # "B" or "C", the factor whose class sums S_i divide


def toric_blending(poly: LatticePolytope, points: PointConfiguration, w: WeightVector) -> BlendingSystem:
    """Weighted toric blending functions of (poly, points, w), in x1..xd.

    Each point b gets w_b * prod_i h_i ** h_i(b) divided by the weighted sum
    over all points, where h_i are the lattice-distance forms of the facets.
    Every function has the canonical form ``RationalFunction`` gives that
    quotient, found in integers over the weighted sum formed once
    (:func:`~toric_precision.polynomials.weighted_quotients`); functions with
    equal canonical denominators share one denominator object.  The returned
    system keeps the facets and exponents, from which membership and
    positivity are decided without samples.
    """
    if len(w) != len(points.points):
        raise ValueError("weight count does not match configuration")
    forms = lattice_distance_forms(poly)
    names = forms[0].variables
    rows = []
    for b in points.points:
        exponents = tuple([f.distance(b) for f in poly.facets])
        if any(e < 0 for e in exponents):
            raise PointOutsidePolytopeError(f"point {b} lies outside the polytope")
        rows.append(exponents)
    # Each power h_i**e is built once and shared by every point at distance e.
    powers = [power_table(h, max(column)) for h, column in zip(forms, zip(*rows))]
    numerators: list[Polynomial] = []
    for exponents in rows:
        factors = [table[e] for table, e in zip(powers, exponents) if e]
        beta = factors[0] if factors else Polynomial.constant(1, names)
        for factor in factors[1:]:
            beta = beta * factor
        numerators.append(beta)
    functions = weighted_quotients(numerators, w.weights)
    system = BlendingSystem(points, w, functions, "toric", names)
    system.__dict__["_record"] = _ToricRecord(poly.facets, tuple(rows))
    return system


def verify_partition_of_unity(sys: BlendingSystem) -> bool:
    """Check symbolically that the functions sum to the constant 1.

    A fiber product built by :func:`~toric_precision.tfp.tfp_blending`
    passes with no product sum when both factors pass partition of unity and
    linear precision (see :func:`_decide`).
    """
    return _decide(sys, PARTITION)[0] is None


def _affine_span_substitution(config: PointConfiguration) -> list[Polynomial] | None:
    """Affine parametrization of the configuration's span, or None when full-dimensional.

    Returns one polynomial per ambient coordinate, in fresh variables
    t1..ts where s is the affine dimension.
    """
    base = config.points[0]
    basis, _ = linalg._echelon([[x - b for x, b in zip(p, base)] for p in config.points[1:]])
    if len(basis) == config.dim:
        return None
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
    A fiber product built by :func:`~toric_precision.tfp.tfp_blending`
    passes with no product sum when both factors pass partition of unity and
    linear precision (see :func:`_decide`).
    """
    return _decide(sys, LINEAR_PRECISION)[0] is None


def _identities(sys: BlendingSystem, kinds: Sequence[str]) -> tuple[str | None, ...]:
    """Why each identity of ``kinds`` fails on the expanded functions, None where it holds.

    Every function enters each sum as a
    :func:`~toric_precision.polynomials.primitive_term`, so canonical
    denominators equal up to their content are one factor of the
    :func:`~toric_precision.polynomials.lcm_sum`.  Partition of unity sums
    all functions to N / D, which is 1 exactly when N = D.  Linear precision
    sums, for each coordinate c, the numerators times b_c of the b with
    b_c != 0 to N / D; (N - x_c * D) / D must have a zero numerator and a
    nonzero denominator on the span, substituted when it is proper.
    Definition on the span asks that no primitive denominator vanishes
    identically there.
    """
    names = sys.variables
    terms = [primitive_term(f) for f in sys.functions]
    span = _affine_span_substitution(sys.config) if set(kinds) - {PARTITION} else None
    reasons = []
    for kind in kinds:
        if kind == PARTITION:
            total, denominator = lcm_sum(terms, names)
            holds = total == denominator
            reason = None if holds else f"functions sum to {RationalFunction(total, denominator)}, not 1"
        elif kind == LINEAR_PRECISION:
            holds = all(_reproduces(terms, sys.config.points, names, c, span) for c in range(len(names)))
            reason = None if holds else "sum_b f_b * b does not reproduce the coordinate functions"
        else:
            factors = {factor for _, key in terms for factor in key}
            holds = span is None or not any(factor.substitute(span).is_zero for factor in factors)
            reason = None if holds else "a denominator vanishes on the span"
        reasons.append(reason)
    return tuple(reasons)


def _reproduces(
    terms: list, points: Sequence[tuple[int, ...]], names: tuple[str, ...], c: int, span: list[Polynomial] | None
) -> bool:
    """Whether sum_b f_b * b_c is x_c on the span, from the primitive terms of the f_b."""
    weighted = [(numerator * b[c], key) for (numerator, key), b in zip(terms, points) if b[c]]
    total, denominator = lcm_sum(weighted, names)
    difference = RationalFunction(total - Polynomial.variable(names[c], names) * denominator, denominator)
    return _vanishes_on(difference, span)


def _vanishes_on(f: RationalFunction, span: list[Polynomial] | None) -> bool:
    """Whether f, over the coordinates of ``span``'s configuration, has a zero
    numerator and a nonzero denominator on that span (substituted when proper)."""
    num, den = f.numerator, f.denominator
    if span is not None:
        num, den = num.substitute(span), den.substitute(span)
    return num.is_zero and not den.is_zero


class Witness(NamedTuple):
    """The first interior sample at which a sampled check failed."""

    index: int  # position in sample_interior(config, samples, seed)
    xs: tuple[int, ...]
    q: int
    reason: str

    def describe(self, seed: int) -> str:
        return f"interior sample {self.index} (seed {seed}) at {point_text(self.xs, self.q)}: {self.reason}"


# (xs, q, pairs) -> None where the checked property holds at the sample, else the reason it fails
Check = Callable[[list, int, list], "str | None"]


def _holds_at_samples(
    config: PointConfiguration, samples: int, seed: int, kernel: EvaluationKernel, *checks: Check
) -> tuple[Witness | None, ...]:
    """The first failing sample per check; None where it holds at every sample.

    This is the one loop behind every sampled check.  Each seeded interior
    sample is drawn as an integer point ``(xs, q)`` and evaluated once by
    ``kernel`` into pairs ``(N_b, D_b)``; every check that has not failed
    yet gets ``(xs, q, pairs)``.  No sample is skipped: a pole at a sample
    fails every check still open.
    """
    witnesses: list[Witness | None] = [None] * len(checks)
    for index, (xs, q) in enumerate(_integer_samples(config, samples, seed)):
        try:
            pairs = kernel.pairs(xs, q)
            pole = None
        except PoleError as exc:
            pairs, pole = None, str(exc)
        for i, check in enumerate(checks):
            if witnesses[i] is None:
                reason = pole or check(xs, q, pairs)
                if reason is not None:
                    witnesses[i] = Witness(index, tuple(xs), q, reason)
        if None not in witnesses:
            break
    return tuple(witnesses)


def _structural_reason(sys: BlendingSystem) -> str | None:
    """Why the record of a toric-built system certifies nothing, None when it certifies.

    The record certifies membership and positivity when every exponent
    E[b][i] is the lattice distance <n_i, b> + a_i >= 0.  Then each column of
    E is affine in b and every kernel vector v of the design matrix has
    sum_b v_b * E[b][i] = 0 and, because the ones vector lies in the row
    span, sum_b v_b = 0, so prod_b (f_b / w_b)**v_b is 1 exponent by
    exponent, the denominator included.  An affine form that is >= 0 on the
    hull and positive at a configuration point is positive on the hull's
    relative interior.  So every factor h_i**E[b][i] with E[b][i] > 0 and
    every numerator are positive there, and the denominator has no pole.
    """
    facets, exponents = sys._record
    distances = tuple([tuple([f.distance(b) for f in facets]) for b in sys.config.points])
    if distances != exponents or any(e < 0 for row in exponents for e in row):
        return "the recorded exponents are not the lattice distances of the points"
    return None


# The kinds of check _decide decides for any system.  Strict positivity
# (every value > 0) and definition on the span (no denominator vanishes
# identically there) are what a fiber product asks of its factors.
MEMBERSHIP, POSITIVITY, STRICT_POSITIVITY = "membership", "positivity", "strict positivity"
PARTITION, LINEAR_PRECISION, DEFINED = "partition of unity", "linear precision", "defined on the span"
# The symbolic identities; the other kinds are sampled unless a record decides them.
IDENTITIES = (PARTITION, LINEAR_PRECISION, DEFINED)


def _factors_certify(factors: Sequence[BlendingSystem], samples: int, seed: int, kinds: Sequence[str]) -> bool:
    """Whether both factors of a fiber product pass what its checks of ``kinds``,
    all identities or none, need.

    Each factor is decided by :func:`_decide` with the same samples and seed,
    so a factor that is itself a product recurses.  The identities need all
    three identities of both factors; the argument is in :func:`_decide`.
    Take a kernel vector v of the product's design matrix.  Its marginals
    v^B_j = sum_k v_ijk and v^C_k = sum_j v_ijk are kernel vectors of the
    factors, and v sums to 0 over each class, since the class indicator is
    affine in the points (:func:`~toric_precision.tfp.tfp_blending` confirms
    that the degree vectors are independent and that the degree maps hold
    on both factors' points).  So prod (f_ijk / (w_j * w_k))**v_ijk is the
    factor-B binomial of v^B at x times the factor-C binomial of v^C at y,
    every S_i cancelling.  With positive values, a binomial that holds on a
    kernel basis holds on every kernel vector.  The relative interior of the
    product projects onto each factor's relative interior (Rockafellar,
    Convex Analysis, Thm 6.6), so f_j, f_k and S_i are positive there.
    Positivity needs strict positivity of both factors, membership needs
    membership too.
    """
    if kinds[0] in IDENTITIES:
        needed = IDENTITIES
    else:
        needed = (MEMBERSHIP, STRICT_POSITIVITY) if MEMBERSHIP in kinds else (STRICT_POSITIVITY,)
    return all(
        reason is None
        for factor in factors
        for reason in _decide(factor, *needed, samples=samples, seed=seed)
    )


def _decide(
    sys: BlendingSystem, *kinds: str, samples: int = 50, seed: int = 0, poly: LatticePolytope | None = None
) -> tuple[str | None, ...]:
    """Why each check of ``kinds`` fails, None where it holds; the one rule that picks the mode.

    The identities (partition of unity, linear precision, definition on the
    span) and the sampled kinds (membership, positivity, strict positivity)
    are decided as two groups.  A fiber product from
    :func:`~toric_precision.tfp.tfp_blending` passes a group with no product
    sum or sample when its factors certify it (:func:`_factors_certify`); a
    product loaded from JSON carries no record.  Otherwise the identities
    are summed over the expanded functions (:func:`_identities`).  The
    sampled kinds of a system that carries the record of
    :func:`toric_blending` are decided structurally from it, with no sample,
    kernel basis or evaluation; those of every other system, and of a
    product whose factors do not certify them, run in
    :func:`_holds_at_samples`, built only then, and a failure names its first
    failing sample.  ``poly`` is given to the positivity checks of a sampled
    system.

    The identities of a product follow from those of its factors.  Take
    form B, f_ijk = f_j(x) * f_k(y) / S^B_i(x), S^B_i the class-i sum of the
    first factor and S^C_i of the second (form C is symmetric):

    * summing class i over (j, k) gives S^B_i * S^C_i / S^B_i = S^C_i, so the
      product sums to sum_i S^C_i, which is 1 when the second factor
      partitions unity;
    * in the same way sum f_ijk * c_k = sum_k f_k * c_k, which is y on the
      second factor's span, and so on the product's span L, which projects
      onto it;
    * the grading is validated on the factors' points, so the class-i
      indicator is an affine function l_i of the first factor's points and
      m_i of the second's, and l_i(x) = m_i(y) on L, where both are the
      product points' class indicator.  With partition of unity and linear
      precision, S^B_i(x) = sum_j f_j * l_i(b_j) = l_i(x) on the first
      factor's span, and S^C_i(y) = m_i(y) likewise, so S^C_i / S^B_i = 1 on
      L, and sum f_ijk * b_j = sum_j f_j * b_j = x there;
    * every product denominator divides d_j * d_k * (the numerator of S^B_i):
      the factors' denominators do not vanish on their spans, nor on L, and
      S^B_i is l_i there, which is 1 at the class-i points.

    The same fact, S^B_i = S^C_i on L, decides
    :func:`~toric_precision.tfp.verify_form_agreement`.

    A system whose toric record holds (:func:`_structural_reason`) passes
    partition of unity and definition on the span with no sum; its linear
    precision is still summed.  Its functions are
    f_b = w_b * prod_i h_i**E[b][i] / T with T = sum_b w_b * prod_i h_i**E[b][i],
    their own weighted sum, so they sum to T / T = 1.  With E[b][i] the
    lattice distance h_i(b) >= 0, every term of T is >= 0 at every
    configuration point b', and the term of b' itself is
    w_b' * prod_i h_i(b')**h_i(b') > 0 (a zero distance gives the factor
    0**0 = 1), so T(b') > 0.  Every canonical denominator divides T up to a
    constant, so none vanishes at the configuration points, which lie on
    the span, and none vanishes identically there.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    record = sys._record
    toric = isinstance(record, _ToricRecord)
    structural = _structural_reason(sys) if toric else None
    reasons: dict[str, str | None] = {}
    identities = [k for k in kinds if k in IDENTITIES]
    if toric and structural is None:
        reasons.update(dict.fromkeys([k for k in identities if k != LINEAR_PRECISION]))
        identities = [k for k in identities if k == LINEAR_PRECISION]
    for group in (identities, [k for k in kinds if k not in IDENTITIES]):
        if not group:
            continue
        if isinstance(record, _ProductRecord) and _factors_certify(record.factors, samples, seed, group):
            found = (None,) * len(group)
        elif group[0] in IDENTITIES:
            found = _identities(sys, group)
        elif toric:
            found = (structural,) * len(group)
        else:
            checks = [_membership_check(sys) if kind == MEMBERSHIP else _positivity_check(poly, kind) for kind in group]
            witnesses = _holds_at_samples(sys.config, samples, seed, sys._kernel, *checks)
            found = tuple([None if w is None else w.describe(seed) for w in witnesses])
        reasons.update(zip(group, found))
    return tuple([reasons[kind] for kind in kinds])


def _positivity_check(poly: LatticePolytope | None, kind: str) -> Check:
    facets = poly.facets if poly is not None else ()
    strict = kind == STRICT_POSITIVITY

    def check(xs, q, pairs) -> str | None:
        # q > 0, so the lattice distance (<xs, n> + a * q) / q has the sign of its numerator.
        if any(f.distance(xs, q) <= 0 for f in facets):
            raise ValueError(f"sample {point_text(xs, q)} is not interior to the polytope")
        for b, (n, d) in enumerate(pairs):
            if n * d < 0:
                return f"function {b} is negative"
            if strict and not n:
                return f"function {b} is zero"
        return None

    return check


def verify_interior_positivity(
    sys: BlendingSystem, poly: LatticePolytope | None = None, samples: int = 50, seed: int = 0
) -> bool:
    """Check that every function is defined and >= 0 on the relative interior.

    A system built by :func:`toric_blending` is decided structurally from its
    factored form, with no sample drawn.  A fiber product built by
    :func:`~toric_precision.tfp.tfp_blending` passes with no product sample
    when both factors are strictly positive (each decided in its own mode);
    a product loaded from JSON stays sampled.  Every other system, and a
    product whose factors do not pass, is checked at ``samples`` seeded
    interior points, strictly positive convex combinations of the
    configuration points.  When the polytope is supplied, its dimension must
    be the system's, and each sampled point is asserted to have positive
    lattice distance to every facet.
    """
    if poly is not None and poly.dim != sys.config.dim:
        raise ValueError(f"the polytope has dimension {poly.dim}, the samples {sys.config.dim}")
    return _decide(sys, POSITIVITY, samples=samples, seed=seed, poly=poly)[0] is None


def _membership_check(sys: BlendingSystem) -> Check:
    dm = design_matrix(sys.config)
    binomials = []
    for vector in linalg.integer_kernel_basis([list(r) for r in dm.rows], dm.n_columns):
        # The weights' part of each side is a constant: with w_b = a_b/c_b the
        # left side gets c_b**v_b or a_b**-v_b, the right side the other one.
        left = right = 1
        support = []
        for b, e in enumerate(vector):
            if e:
                w = sys.weights[b]
                up, down = (w.denominator, w.numerator) if e > 0 else (w.numerator, w.denominator)
                left *= up ** abs(e)
                right *= down ** abs(e)
                support.append((b, e))
        binomials.append((tuple(vector), left, right, support))

    def check(xs, q, pairs) -> str | None:
        for vector, left, right, support in binomials:
            for b, e in support:
                n, d = pairs[b]
                if e > 0:
                    left *= n**e
                    right *= d**e
                else:
                    left *= d**-e
                    right *= n**-e
            if left != right:
                return f"the binomial of kernel vector {vector} fails"
        return None

    return check


def verify_toric_membership(sys: BlendingSystem, samples: int = 50, seed: int = 0) -> bool:
    """Binomial-identity check against the weighted toric variety.

    A system built by :func:`toric_blending` is decided structurally from its
    factored form, with no sample drawn and no kernel basis built.  A fiber
    product built by :func:`~toric_precision.tfp.tfp_blending` passes with no
    product sample when both factors pass membership and strict positivity,
    each decided in its own mode; a product loaded from JSON stays sampled.
    Every other system, and a product whose factors do not pass, is
    sampled: for each integer kernel vector v of the design
    matrix, split v into its positive and negative parts and compare the
    corresponding products of f_b(p)/w_b exactly at interior sample points.
    Every point of the variety satisfies these binomials, so one failing
    sample certifies non-membership; a pole at a sample also fails.

    The comparison runs in integers.  With f_b(p) = N_b/D_b and
    w_b = a_b/c_b, both sides are multiplied by the nonzero
    prod_b (D_b * a_b)**|v_b|, which leaves
    prod_{v>0} (N_b*c_b)**v_b * prod_{v<0} (D_b*a_b)**-v_b on the left and
    the same with the signs of v swapped on the right.  The pairs need not
    be reduced: scaling one pair (N_b, D_b) by k != 0 multiplies both sides
    by k**|v_b|.
    """
    return _decide(sys, MEMBERSHIP, samples=samples, seed=seed)[0] is None


class PrecisionReport(Frozen):
    """Outcome of the four defining checks, with a message per failure."""

    _fields = ("partition_of_unity", "toric_membership", "interior_positivity", "linear_precision", "details")

    def __init__(
        self,
        partition_of_unity: bool,
        toric_membership: bool,
        interior_positivity: bool,
        linear_precision: bool,
        details: dict[str, str] | None = None,
    ):
        self.__dict__.update(
            partition_of_unity=partition_of_unity,
            toric_membership=toric_membership,
            interior_positivity=interior_positivity,
            linear_precision=linear_precision,
            details={} if details is None else details,
        )

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


def verify_rational_linear_precision(sys: BlendingSystem, samples: int = 50, seed: int = 0) -> PrecisionReport:
    """Run all four checks.

    Partition of unity and linear precision are decided as by
    :func:`verify_partition_of_unity` and :func:`verify_linear_precision`:
    from the factors for a fiber product built by
    :func:`~toric_precision.tfp.tfp_blending`, when both pass both, and
    otherwise as identities of the expanded functions.  A failing partition
    of unity prints the sum as ``+`` forms it.  Membership and positivity
    are decided as by :func:`verify_toric_membership`
    and :func:`verify_interior_positivity`: structurally for a system built by
    :func:`toric_blending`, which then needs no hull; from the factors for a
    fiber product built by :func:`~toric_precision.tfp.tfp_blending`, when
    they pass, with no product sample (a product loaded from JSON stays
    sampled); and otherwise in one sampled loop that reads the same function
    values, so every sample is evaluated once.  Every sample gives each
    configuration point a positive weight, so it lies in the relative
    interior of the hull and needs no facet test.  A sampled failure's
    detail names the first failing sample, reproducible as
    ``sample_interior(sys.config, samples, seed)[index]``.
    """
    names = ("partition_of_unity", "toric_membership", "interior_positivity", "linear_precision")
    reasons = _decide(sys, PARTITION, MEMBERSHIP, POSITIVITY, LINEAR_PRECISION, samples=samples, seed=seed)
    details = {name: reason for name, reason in zip(names, reasons) if reason is not None}
    return PrecisionReport(*[reason is None for reason in reasons], details)


def toric_patch_eval(
    sys: BlendingSystem,
    control: Sequence[Sequence[Fraction | int]],
    p: Sequence[Fraction | int],
) -> tuple[Fraction, ...]:
    """Exact patch value sum_b f_b(p) * Q_b for control points Q_b."""
    n = len(sys.config.points)
    if len(control) != n:
        raise ValueError(f"expected {n} control points, one per configuration point, got {len(control)}")
    controls = [tuple(Fraction(x) for x in q) for q in control]
    target_dim = len(controls[0])
    if any(len(q) != target_dim for q in controls):
        raise ValueError("control points must share one dimension")
    values = sys.evaluate(p)
    return tuple(
        sum((v * q[i] for v, q in zip(values, controls)), Fraction(0))
        for i in range(target_dim)
    )
