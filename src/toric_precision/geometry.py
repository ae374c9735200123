"""Lattice point configurations and their convex hulls.

Facets come from an incremental double-description hull whose time grows
with the output, not with the number of point subsets.  The first facets
are those of the simplex on the input's affine basis (:func:`_affine_basis`,
found by one elimination), each with the primitive normal of the
kernel of its difference vectors, found by the integer elimination of
:mod:`~toric_precision.linalg`; later facets are integer combinations of
two adjacent ones, so hull construction runs in Python integers.
Every facet is stored as a primitive inward normal ``n`` and an integer
offset ``a`` so that the polytope is ``{p : <p, n> + a >= 0 for all facets}``
and ``h(p) = <p, n> + a`` is the lattice distance to the facet.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from . import linalg
from .errors import NotFullDimensionalError
from .frozen import Frozen
from .polynomials import Polynomial, exact_integer

IntVector = tuple[int, ...]


class PointConfiguration(Frozen):
    """Ordered list of integer points in a fixed dimension, optionally labelled."""

    _fields = ("dim", "points", "labels")

    def __init__(self, dim: int, points: Sequence[Sequence[int]], labels: Sequence[str] | None = None):
        # Tuples here are built from lists, which have their length: tuple()
        # of a generator resizes its guess, and CPython keeps the resized
        # tuple on the free list of its final length.
        points = tuple([tuple([exact_integer(x, "coordinate") for x in p]) for p in points])
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        for p in points:
            if len(p) != dim:
                raise ValueError(f"point {p} does not have dimension {dim}")
        if labels is not None:
            labels = tuple([str(s) for s in labels])
            if len(labels) != len(points):
                raise ValueError("label count does not match point count")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be unique")
        self.__dict__.update(dim=dim, points=points, labels=labels)

    def __len__(self) -> int:
        return len(self.points)

    def effective_labels(self) -> tuple[str, ...]:
        """Explicit labels, else comma-joined coordinates, else positional names."""
        if self.labels is not None:
            return self.labels
        coords = tuple(",".join(str(x) for x in p) for p in self.points)
        if len(set(coords)) == len(coords):
            return coords
        return tuple(f"p{i}" for i in range(len(self.points)))


class Facet(NamedTuple):
    normal: IntVector
    offset: int

    def distance(self, point: Sequence[int]) -> int:
        """``<point, n> + a``: the lattice distance of the point."""
        return sum(map(mul, point, self.normal)) + self.offset


class LatticePolytope(Frozen):
    """Full-dimensional lattice polytope given by facets and vertices."""

    _fields = ("dim", "facets", "vertices")

    def __init__(self, dim: int, facets: Sequence[tuple[Sequence[int], int]], vertices: Sequence[Sequence[int]]):
        facets = tuple([
            Facet(tuple([exact_integer(x, "normal entry") for x in n]), exact_integer(a, "offset"))
            for n, a in facets
        ])
        vertices = tuple([tuple([exact_integer(x, "vertex coordinate") for x in v]) for v in vertices])
        for v in vertices:
            if len(v) != dim:
                raise ValueError(f"vertex {v} does not have dimension {dim}")
        for facet in facets:
            if len(facet.normal) != dim:
                raise ValueError(f"normal {facet.normal} does not have dimension {dim}")
            if gcd(*facet.normal) != 1:
                raise ValueError(f"normal {facet.normal} is not primitive")
            tight = sum(1 for v in vertices if facet.distance(v) == 0)
            if tight < dim:
                raise ValueError(f"facet {tuple(facet)} touches only {tight} vertices")
        for v in vertices:
            if any(f.distance(v) < 0 for f in facets):
                raise ValueError(f"vertex {v} lies outside a facet")
        self.__dict__.update(dim=dim, facets=facets, vertices=vertices)


def _differences(points: Sequence[IntVector]) -> list[list[int]]:
    """The vectors from the first point to each later one."""
    return [[x - b for x, b in zip(p, points[0])] for p in points[1:]]


def _affine_basis(points: Sequence[IntVector]) -> list[int]:
    """Indices of an affine basis: the first point, then each point outside
    the affine span of those before it, found by one elimination of the
    d x (n - 1) transposed difference matrix.  No points have the empty basis."""
    if not points:
        return []
    return [0] + [i + 1 for i in linalg.independent_rows(_differences(points))]


def convex_hull_facets(config: PointConfiguration) -> LatticePolytope:
    """Irredundant facet description of the convex hull of a configuration.

    Double description in Python integers (Fukuda & Prodon 1996): start from
    the simplex on the first d+1 affinely independent points and add the
    other points one at a time.  Each facet keeps its primitive inward
    normal, its offset and the set of processed points tight on it.  A point
    with a negative value on some facets replaces them: every adjacent pair
    of a positive facet h+ and a negative facet h- (values v+ > 0 > v-) gives
    the facet v+ * h- - v- * h+ through the point.  Two facets are adjacent
    when their common tight set has at least d-1 points and lies in no third
    facet's tight set.  Requires the configuration to be full-dimensional.
    """
    d = config.dim
    points = list(dict.fromkeys(config.points))
    simplex = [points[i] for i in _affine_basis(points)]
    if len(simplex) <= d:
        raise NotFullDimensionalError(f"points affinely span dimension {len(simplex) - 1} < {d}")
    points = simplex + [p for p in points if p not in simplex]
    # A facet is (Facet, tight) where bit i of tight stands for points[i].
    facets = []
    for i, p in enumerate(simplex):
        others = simplex[:i] + simplex[i + 1:]
        normal = linalg.primitive_integer(linalg.nullspace(_differences(others), d)[0])
        facet = Facet(tuple(normal), -sum(map(mul, others[0], normal)))
        if facet.distance(p) < 0:
            facet = Facet(tuple([-n for n in normal]), -facet.offset)
        facets.append((facet, ((1 << (d + 1)) - 1) ^ (1 << i)))
    for index in range(d + 1, len(points)):
        p, bit = points[index], 1 << index
        values = [facet.distance(p) for facet, _ in facets]
        kept = [
            (facet, tight | bit if v == 0 else tight)
            for (facet, tight), v in zip(facets, values)
            if v >= 0
        ]
        for i, ((n_neg, a_neg), t_neg) in enumerate(facets):
            v_neg = values[i]
            if v_neg >= 0:
                continue
            for j, ((n_pos, a_pos), t_pos) in enumerate(facets):
                v_pos = values[j]
                common = t_pos & t_neg
                if v_pos <= 0 or common.bit_count() < d - 1 or any(
                    k != i and k != j and tight & common == common
                    for k, (_, tight) in enumerate(facets)
                ):
                    continue
                # The new hyperplane passes through the lattice point p, so the
                # gcd of its normal also divides its offset.
                normal = [v_pos * m - v_neg * n for m, n in zip(n_neg, n_pos)]
                g = gcd(*normal)
                facet = Facet(tuple([x // g for x in normal]), (v_pos * a_neg - v_neg * a_pos) // g)
                kept.append((facet, common | bit))
        facets = kept
    # Every point is processed, so each tight set holds every point on its
    # facet: a point tight on a new facet v+ * h- - v- * h+ has h- = h+ = 0.
    # The facets through a point meet in the smallest face holding it, whose
    # vertices are configuration points; so the point is a vertex exactly when
    # the AND of their tight sets is its own bit (an interior point has no
    # facet, and the AND of none is every point).
    facets.sort()
    vertices = []
    for index, p in enumerate(points):
        face = (1 << len(points)) - 1
        for _, mask in facets:
            if mask >> index & 1:
                face &= mask
        if face == 1 << index:
            vertices.append(p)
    return LatticePolytope(d, [facet for facet, _ in facets], sorted(vertices))


def lattice_distance_forms(poly: LatticePolytope) -> list[Polynomial]:
    """Degree-1 polynomials h_i(p) = <p, n_i> + a_i in x1..xd, one per facet, in facet order.

    Normals and offsets are integers, so each form is built directly with
    integer coefficients over the denominator 1; zero entries, such as the
    offset of a facet through the origin, get no term.
    """
    d = poly.dim
    names = tuple(f"x{i + 1}" for i in range(d))
    units = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    forms = []
    for normal, offset in poly.facets:
        coefficients = {unit: n for unit, n in zip(units, normal) if n}
        if offset:
            coefficients[(0,) * d] = offset
        forms.append(Polynomial._make(names, coefficients))
    return forms


def sample_interior(
    config: PointConfiguration, count: int, seed: int
) -> list[tuple[Fraction, ...]]:
    """Strictly positive rational convex combinations of the configuration points.

    Sample 0 is always the barycenter (uniform coefficients); later samples
    draw positive integer weights from a seeded generator.  Output depends
    only on (config, count, seed).
    """
    return [tuple(Fraction(x, q) for x in xs) for xs, q in _integer_samples(config, count, seed)]


def _integer_samples(
    config: PointConfiguration, count: int, seed: int
) -> Iterator[tuple[list[int], int]]:
    """The samples of :func:`sample_interior` as unreduced integer points.

    Each is ``(xs, q)``: the weighted sum of the points and the sum of the
    weights, drawn lazily.  Each weight after the barycenter is the one
    ``random.Random(seed).randint(1, 1000)`` would give at that place in the
    stream, drawn without its call overhead.
    """
    if not config.points:
        raise ValueError("cannot sample from an empty configuration")
    draw = random.Random(seed).getrandbits
    n = len(config.points)
    coordinates = list(zip(*config.points))
    raw = [1] * n
    for index in range(count):
        if index:
            # as randint(1, 1000) draws: 10 bits, again while they read >= 1000
            raw = []
            for _ in range(n):
                r = draw(10)
                while r >= 1000:
                    r = draw(10)
                raw.append(r + 1)
        yield [sum(map(mul, raw, column)) for column in coordinates], sum(raw)


class DesignMatrix(Frozen):
    """Integer matrix whose columns are configuration points, with a row of
    ones prepended whenever the all-ones vector is not already in the row span."""

    _fields = ("rows",)
    # The IPS step that mle.ips_fit compiles for this design on its first
    # step; not a field.
    _ips_update = None

    def __init__(self, rows: tuple[IntVector, ...]):
        self.__dict__.update(rows=rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_columns(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def design_matrix(config: PointConfiguration) -> DesignMatrix:
    """Coordinate rows of the configuration, homogenized with a ones row if needed."""
    n = len(config.points)
    coordinate_rows = [tuple([p[i] for p in config.points]) for i in range(config.dim)]
    ones = (1,) * n
    if linalg.in_row_span(coordinate_rows, ones):
        return DesignMatrix(tuple(coordinate_rows))
    return DesignMatrix((ones, *coordinate_rows))
