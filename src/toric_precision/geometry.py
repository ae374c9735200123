"""Lattice point configurations and their convex hulls.

Facets come from an incremental double-description hull whose time grows
with the output, not with the number of point subsets.  The first facets
are those of a simplex on the input, each with the normal given by the
signed integer minors of its difference vectors; later facets are integer
combinations of two adjacent ones, so hull construction runs in Python
integers.
Every facet is stored as a primitive inward normal ``n`` and an integer
offset ``a`` so that the polytope is ``{p : <p, n> + a >= 0 for all facets}``
and ``h(p) = <p, n> + a`` is the lattice distance to the facet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from . import linalg
from .errors import NotFullDimensionalError
from .polynomials import Polynomial, integer_point

IntVector = tuple[int, ...]


@dataclass(frozen=True)
class PointConfiguration:
    """Ordered list of integer points in a fixed dimension, optionally labelled."""

    dim: int
    points: tuple[IntVector, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        points = tuple(tuple(int(x) for x in p) for p in self.points)
        object.__setattr__(self, "points", points)
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        for p in points:
            if len(p) != self.dim:
                raise ValueError(f"point {p} does not have dimension {self.dim}")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != len(points):
                raise ValueError("label count does not match point count")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be unique")

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


@dataclass(frozen=True)
class LatticePolytope:
    """Full-dimensional lattice polytope given by facets and vertices."""

    dim: int
    facets: tuple[Facet, ...]
    vertices: tuple[IntVector, ...]

    def __post_init__(self):
        facets = tuple(Facet(tuple(int(x) for x in n), int(a)) for n, a in self.facets)
        vertices = tuple(tuple(int(x) for x in v) for v in self.vertices)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "vertices", vertices)
        for v in vertices:
            if len(v) != self.dim:
                raise ValueError(f"vertex {v} does not have dimension {self.dim}")
        for normal, offset in facets:
            if len(normal) != self.dim:
                raise ValueError(f"normal {normal} does not have dimension {self.dim}")
            g = 0
            for x in normal:
                g = gcd(g, abs(x))
            if g != 1:
                raise ValueError(f"normal {normal} is not primitive")
            tight = sum(1 for v in vertices if self._distance(v, normal, offset) == 0)
            if tight < self.dim:
                raise ValueError(f"facet {normal, offset} touches only {tight} vertices")
        for v in vertices:
            if any(self._distance(v, n, a) < 0 for n, a in facets):
                raise ValueError(f"vertex {v} lies outside a facet")

    @staticmethod
    def _distance(point: Sequence[int], normal: IntVector, offset: int) -> int:
        return sum(p * n for p, n in zip(point, normal)) + offset

    def lattice_distances(self, point: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
        """Lattice distance of a (rational) point to each facet, in facet order.

        Raises ValueError when the point's dimension is not the polytope's.
        """
        if len(point) != self.dim:
            raise ValueError(
                f"point {tuple(point)} has dimension {len(point)}, the polytope has dimension {self.dim}"
            )
        xs, q = integer_point(point)
        return tuple(
            Fraction(sum(x * n for x, n in zip(xs, normal)) + offset * q, q)
            for normal, offset in self.facets
        )

    def contains(self, point: Sequence[int | Fraction]) -> bool:
        return all(d >= 0 for d in self.lattice_distances(point))


def _affine_rank(points: Sequence[IntVector]) -> int:
    if len(points) < 2:
        return 0
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    return linalg.rank(diffs)


def _determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss fraction-free elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, previous = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k]
            m[i] = [0] * (k + 1) + [
                (m[i][j] * pivot - factor * m[k][j]) // previous for j in range(k + 1, n)
            ]
        previous = pivot
    return sign * m[-1][-1] if n else 1


def _hyperplane_normal(diffs: Sequence[Sequence[int]], d: int) -> IntVector | None:
    """Primitive integer normal (of either sign) of the span of d-1 vectors in
    Z^d, or None when they span less than a hyperplane.

    The normal is the vector of signed (d-1)-minors divided by its gcd.
    """
    normal = [
        (-1) ** j * _determinant([row[:j] + row[j + 1:] for row in diffs]) for j in range(d)
    ]
    g = 0
    for x in normal:
        g = gcd(g, x)
    if g == 0:
        return None
    return tuple(x // g for x in normal)


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
    simplex = points[:1]
    for p in points[1:]:
        if len(simplex) <= d and _affine_rank(simplex + [p]) == len(simplex):
            simplex.append(p)
    if len(simplex) <= d:
        raise NotFullDimensionalError(
            f"points affinely span dimension {_affine_rank(points)} < {d}"
        )
    points = simplex + [p for p in points if p not in simplex]
    # A facet is (normal, offset, tight) where bit i of tight stands for points[i].
    facets = []
    for i, p in enumerate(simplex):
        others = simplex[:i] + simplex[i + 1:]
        base = others[0]
        normal = _hyperplane_normal([[q[j] - base[j] for j in range(d)] for q in others[1:]], d)
        offset = -sum(b * n for b, n in zip(base, normal))
        if sum(x * n for x, n in zip(p, normal)) + offset < 0:
            normal, offset = tuple(-n for n in normal), -offset
        facets.append((normal, offset, ((1 << (d + 1)) - 1) ^ (1 << i)))
    for index in range(d + 1, len(points)):
        p, bit = points[index], 1 << index
        values = [sum(x * n for x, n in zip(p, normal)) + offset for normal, offset, _ in facets]
        kept = [
            (normal, offset, tight | bit if v == 0 else tight)
            for (normal, offset, tight), v in zip(facets, values)
            if v >= 0
        ]
        for i, (n_neg, a_neg, t_neg) in enumerate(facets):
            v_neg = values[i]
            if v_neg >= 0:
                continue
            for j, (n_pos, a_pos, t_pos) in enumerate(facets):
                v_pos = values[j]
                common = t_pos & t_neg
                if v_pos <= 0 or common.bit_count() < d - 1 or any(
                    k != i and k != j and tight & common == common
                    for k, (_, _, tight) in enumerate(facets)
                ):
                    continue
                # The new hyperplane passes through the lattice point p, so the
                # gcd of its normal also divides its offset.
                normal = [v_pos * m - v_neg * n for m, n in zip(n_neg, n_pos)]
                g = 0
                for x in normal:
                    g = gcd(g, x)
                kept.append((
                    tuple(x // g for x in normal),
                    (v_pos * a_neg - v_neg * a_pos) // g,
                    common | bit,
                ))
        facets = kept
    ordered = tuple(sorted(Facet(normal, offset) for normal, offset, _ in facets))
    vertices = []
    for p in points:
        tight = [f.normal for f in ordered if LatticePolytope._distance(p, f.normal, f.offset) == 0]
        if len(tight) >= d and linalg.rank(tight) == d:
            vertices.append(p)
    vertices = tuple(sorted(set(vertices)))
    return LatticePolytope(d, ordered, vertices)


def lattice_distance_forms(
    poly: LatticePolytope, names: Sequence[str] | None = None
) -> list[Polynomial]:
    """Degree-1 polynomials h_i(p) = <p, n_i> + a_i, one per facet, in facet order."""
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(poly.dim))
    names = tuple(names)
    if len(names) != poly.dim:
        raise ValueError(f"expected {poly.dim} variable names, got {len(names)}")
    forms = []
    zero = (0,) * poly.dim
    for normal, offset in poly.facets:
        terms = {zero: Fraction(offset)}
        for i, coeff in enumerate(normal):
            exp = tuple(1 if j == i else 0 for j in range(poly.dim))
            terms[exp] = Fraction(coeff)
        forms.append(Polynomial(names, terms))
    return forms


def lattice_points(poly: LatticePolytope) -> PointConfiguration:
    """All integer points of the polytope, by bounding-box scan, in lex order."""
    lows = [min(v[i] for v in poly.vertices) for i in range(poly.dim)]
    highs = [max(v[i] for v in poly.vertices) for i in range(poly.dim)]
    found = []
    for candidate in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        if poly.contains(candidate):
            found.append(candidate)
    return PointConfiguration(poly.dim, tuple(sorted(found)))


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
    weights, drawn lazily with the same generator calls.
    """
    if not config.points:
        raise ValueError("cannot sample from an empty configuration")
    rng = random.Random(seed)
    n = len(config.points)
    coordinates = list(zip(*config.points))
    for index in range(count):
        raw = [1] * n if index == 0 else [rng.randint(1, 1000) for _ in range(n)]
        yield [sum(map(mul, raw, column)) for column in coordinates], sum(raw)


@dataclass(frozen=True)
class DesignMatrix:
    """Integer matrix whose columns are configuration points, with a row of
    ones prepended whenever the all-ones vector is not already in the row span."""

    rows: tuple[IntVector, ...]
    ones_row_added: bool

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_columns(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def apply(self, vector: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """Exact matrix-vector product; raises ValueError on a length mismatch."""
        if len(vector) != self.n_columns:
            raise ValueError(
                f"vector of length {len(vector)} does not match the {self.n_columns} columns"
            )
        return tuple(
            sum((Fraction(x) * r for x, r in zip(vector, row)), Fraction(0)) for row in self.rows
        )


def design_matrix(config: PointConfiguration) -> DesignMatrix:
    """Coordinate rows of the configuration, homogenized with a ones row if needed."""
    n = len(config.points)
    coordinate_rows = [tuple(p[i] for p in config.points) for i in range(config.dim)]
    ones = tuple(1 for _ in range(n))
    if linalg.in_row_span(coordinate_rows, ones):
        return DesignMatrix(tuple(coordinate_rows), False)
    return DesignMatrix((ones, *coordinate_rows), True)
