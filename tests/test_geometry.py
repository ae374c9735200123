"""Hull facets, lattice distances, point enumeration, sampling, design matrices."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from toric_precision import linalg
from toric_precision.errors import NotFullDimensionalError
from toric_precision.geometry import (
    DesignMatrix,
    Facet,
    LatticePolytope,
    PointConfiguration,
    convex_hull_facets,
    design_matrix,
    lattice_distance_forms,
    sample_interior,
)
from toric_precision.polynomials import Polynomial, integer_point


def lattice_distances(poly, point):
    """Lattice distance of a rational point to each facet of ``poly``, in facet
    order; ValueError when the point's dimension is not the polytope's."""
    if len(point) != poly.dim:
        raise ValueError(f"point {tuple(point)} has dimension {len(point)}, the polytope has dimension {poly.dim}")
    xs, q = integer_point(point)
    return tuple(Fraction(f.distance(xs, q), q) for f in poly.facets)


def lattice_points(poly):
    """All integer points of the polytope, by bounding-box scan, in lex order."""
    lows = [min(v[i] for v in poly.vertices) for i in range(poly.dim)]
    highs = [max(v[i] for v in poly.vertices) for i in range(poly.dim)]
    box = product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
    return PointConfiguration(poly.dim, tuple(p for p in box if min(lattice_distances(poly, p)) >= 0))


def design_product(dm, vector):
    """The design matrix times a vector, exactly; ValueError on a length mismatch."""
    if len(vector) != dm.n_columns:
        raise ValueError(f"vector of length {len(vector)} does not match the {dm.n_columns} columns")
    return tuple(sum((Fraction(x) * r for x, r in zip(vector, row)), Fraction(0)) for row in dm.rows)


def fraction_forms(poly):
    """The lattice-distance forms built through the validating constructor,
    one Fraction per coefficient, the offset term always given."""
    names = tuple(f"x{i + 1}" for i in range(poly.dim))
    forms = []
    for normal, offset in poly.facets:
        terms = {(0,) * poly.dim: Fraction(offset)}
        for i, n in enumerate(normal):
            terms[tuple(int(j == i) for j in range(poly.dim))] = Fraction(n)
        forms.append(Polynomial(names, terms))
    return forms


def forms_as_strings(poly):
    return {str(f) for f in lattice_distance_forms(poly)}


def reference_hull(points, d):
    """Facets and vertices by rational nullspaces of every d-subset."""
    facets = set()
    for subset in combinations(points, d):
        base = subset[0]
        kernel = linalg.nullspace([[p[i] - base[i] for i in range(d)] for p in subset[1:]], d)
        if len(kernel) != 1:
            continue
        normal = linalg.primitive_integer(kernel[0])
        offset = -sum(b * n for b, n in zip(base, normal))
        values = [sum(p[i] * normal[i] for i in range(d)) + offset for p in points]
        if all(v >= 0 for v in values):
            facets.add(Facet(tuple(normal), offset))
        elif all(v <= 0 for v in values):
            facets.add(Facet(tuple(-n for n in normal), -offset))
    facets = tuple(sorted(facets))
    vertices = set()
    for p in points:
        tight = [n for n, a in facets if sum(x * y for x, y in zip(p, n)) + a == 0]
        if len(tight) >= d and linalg.rank(tight) == d:
            vertices.add(p)
    return facets, tuple(sorted(vertices))


def brute_force_hull(config):
    """Facets and vertices by trying every d-subset of points (the oracle).

    A subset that spans a hyperplane with every point on one side gives a
    facet, with the primitive normal of its kernel oriented inward.
    """
    d, points = config.dim, config.points
    if linalg.rank([[p[i] - points[0][i] for i in range(d)] for p in points]) < d:
        raise NotFullDimensionalError("flat")
    facets = set()
    for subset in combinations(points, d):
        base = subset[0]
        kernel = linalg.nullspace([[p[i] - base[i] for i in range(d)] for p in subset[1:]], d)
        if len(kernel) != 1:
            continue
        normal = tuple(linalg.primitive_integer(kernel[0]))
        offset = -sum(b * n for b, n in zip(base, normal))
        side = 0
        for p in points:
            value = sum(x * n for x, n in zip(p, normal)) + offset
            if value * side < 0:
                break
            if not side:
                side = value
        else:
            if side < 0:
                normal, offset = tuple(-n for n in normal), -offset
            facets.add(Facet(normal, offset))
    facets = tuple(sorted(facets))
    vertices = set()
    for p in points:
        tight = [n for n, a in facets if sum(x * y for x, y in zip(p, n)) + a == 0]
        if len(tight) >= d and linalg.rank(tight) == d:
            vertices.add(p)
    return facets, tuple(sorted(vertices))


def box(k, d):
    return PointConfiguration(d, tuple(product(range(k + 1), repeat=d)))


def simplex(k, d):
    return PointConfiguration(d, tuple(p for p in product(range(k + 1), repeat=d) if sum(p) <= k))


def reference_samples(config, count, seed):
    """Interior samples as weighted sums of Fraction weights."""
    rng = random.Random(seed)
    n = len(config.points)
    samples = []
    for index in range(count):
        if index == 0:
            weights = [Fraction(1, n)] * n
        else:
            raw = [rng.randint(1, 1000) for _ in range(n)]
            weights = [Fraction(r, sum(raw)) for r in raw]
        samples.append(tuple(
            sum((w * p[i] for w, p in zip(weights, config.points)), Fraction(0))
            for i in range(config.dim)
        ))
    return samples


class TestConvexHullFacets:
    def test_square(self, square_poly):
        assert set(square_poly.facets) == {
            Facet((1, 0), 0),
            Facet((0, 1), 0),
            Facet((-1, 0), 1),
            Facet((0, -1), 1),
        }
        assert square_poly.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_trapezoid(self, trapezoid_poly):
        assert set(trapezoid_poly.facets) == {
            Facet((1, 0), 0),
            Facet((0, 1), 0),
            Facet((0, -1), 1),
            Facet((-1, -1), 2),
        }
        assert trapezoid_poly.vertices == ((0, 0), (0, 1), (1, 1), (2, 0))

    def test_segment(self):
        seg = convex_hull_facets(PointConfiguration(1, ((0,), (1,))))
        assert set(seg.facets) == {Facet((1,), 0), Facet((-1,), 1)}

    def test_interior_point_is_not_vertex(self, trapezoid_config):
        poly = convex_hull_facets(trapezoid_config)
        assert (1, 0) not in poly.vertices

    def test_cube(self):
        cube = PointConfiguration(3, tuple(product((0, 1), repeat=3)))
        poly = convex_hull_facets(cube)
        assert len(poly.facets) == 6
        assert len(poly.vertices) == 8

    def test_not_full_dimensional(self):
        flat = PointConfiguration(2, ((0, 0), (1, 1), (2, 2)))
        with pytest.raises(NotFullDimensionalError):
            convex_hull_facets(flat)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_integer_minors_match_rational_nullspace(self, d):
        rng = random.Random(100 + d)
        checked = 0
        for _ in range(12):
            points = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(9))
            config = PointConfiguration(d, points)
            if linalg.rank([[p[i] - points[0][i] for i in range(d)] for p in points]) < d:
                continue
            poly = convex_hull_facets(config)
            assert (poly.facets, poly.vertices) == reference_hull(config.points, d)
            checked += 1
        assert checked >= 10

    def test_normals_primitive(self, trapezoid_poly):
        from math import gcd

        for normal, _ in trapezoid_poly.facets:
            g = 0
            for x in normal:
                g = gcd(g, abs(x))
            assert g == 1

    def test_facet_irredundancy(self, square_poly, trapezoid_poly):
        # dropping any facet admits extra integer points in a grown box
        for poly in (square_poly, trapezoid_poly):
            original = set(lattice_points(poly).points)
            lows = [min(v[i] for v in poly.vertices) - 2 for i in range(poly.dim)]
            highs = [max(v[i] for v in poly.vertices) + 2 for i in range(poly.dim)]
            for drop in range(len(poly.facets)):
                kept = [f for i, f in enumerate(poly.facets) if i != drop]
                admitted = {
                    p
                    for p in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
                    if all(sum(a * b for a, b in zip(p, n)) + off >= 0 for n, off in kept)
                }
                assert admitted > original


class TestHullAgainstBruteForce:
    def assert_matches(self, config):
        poly = convex_hull_facets(config)
        assert (poly.facets, poly.vertices) == brute_force_hull(config)
        return poly

    @pytest.mark.parametrize(
        "config",
        [box(2, 2), box(3, 2), box(4, 2), box(2, 3), box(1, 4), simplex(2, 2), simplex(3, 2),
         simplex(4, 2), simplex(2, 3),
         PointConfiguration(2, ((0, 0), (1, 0), (0, 1), (1, 1))),
         PointConfiguration(2, ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1)))],
        ids=["box2x2", "box3x2", "box4x2", "box2x3", "box1x4", "simplex2x2", "simplex3x2",
             "simplex4x2", "simplex2x3", "square", "trapezoid"],
    )
    def test_ladder_inputs(self, config):
        self.assert_matches(config)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_random_point_sets_in_shuffled_orders(self, d):
        rng = random.Random(700 + d)
        checked = 0
        for _ in range(15):
            points = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d + 1, 14))]
            if linalg.rank([[p[i] - points[0][i] for i in range(d)] for p in points]) < d:
                continue
            for _ in range(3):
                rng.shuffle(points)
                self.assert_matches(PointConfiguration(d, tuple(points)))
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("d", [3, 4])
    def test_random_subsets_of_a_dilated_cube(self, d):
        # collinear points: once d >= 4, two facets can share d-1 points
        # that span only an edge, so the pair is not adjacent
        rng = random.Random(800 + d)
        cube = list(product((0, 1, 2), repeat=d))
        checked = 0
        for _ in range(12):
            points = rng.sample(cube, rng.randint(d + 5, 16))
            if linalg.rank([[p[i] - points[0][i] for i in range(d)] for p in points]) < d:
                continue
            self.assert_matches(PointConfiguration(d, tuple(points)))
            checked += 1
        assert checked >= 10

    def test_duplicate_points(self):
        rng = random.Random(7)
        for config in (box(1, 3), simplex(2, 2), PointConfiguration(1, ((2,), (0,), (2,), (1,)))):
            points = list(config.points) * 2 + [config.points[0]] * 3
            rng.shuffle(points)
            doubled = PointConfiguration(config.dim, tuple(points))
            assert self.assert_matches(doubled) == convex_hull_facets(config)

    @pytest.mark.parametrize(
        "config, on_boundary",
        [
            (box(2, 2), lambda p: 0 in p or 2 in p),
            (box(2, 3), lambda p: 0 in p or 2 in p),
            (simplex(3, 2), lambda p: 0 in p or sum(p) == 3),
            (simplex(2, 3), lambda p: 0 in p or sum(p) == 2),
        ],
        ids=["box2x2", "box2x3", "simplex3x2", "simplex2x3"],
    )
    def test_points_on_facets_get_distance_zero(self, config, on_boundary):
        # lattice points of dilated boxes and simplices inside a facet or a
        # lower face are tight on a facet without being vertices
        poly = self.assert_matches(config)
        assert any(on_boundary(p) and p not in poly.vertices for p in config.points)
        for p in config.points:
            assert (0 in lattice_distances(poly, p)) == on_boundary(p)

    @pytest.mark.parametrize(
        "points, rank",
        [
            (((0, 0), (1, 1), (2, 2), (1, 1)), 1),
            (((3, 1), (3, 1)), 0),
            (((0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2), (2, 0, 2)), 2),
        ],
    )
    def test_flat_inputs_name_their_dimension(self, points, rank):
        d = len(points[0])
        with pytest.raises(NotFullDimensionalError, match=rf"^points affinely span dimension {rank} < {d}$"):
            convex_hull_facets(PointConfiguration(d, points))

    @pytest.mark.parametrize("k, d", [(2, 4), (1, 5), (3, 3)])
    def test_boxes_beyond_the_oracle(self, k, d):
        poly = convex_hull_facets(box(k, d))
        unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        expected = {Facet(e, 0) for e in unit} | {Facet(tuple(-x for x in e), k) for e in unit}
        assert set(poly.facets) == expected
        assert poly.facets == tuple(sorted(expected))
        assert poly.vertices == tuple(product((0, k), repeat=d))


class TestLatticeDistanceForms:
    def test_integer_forms_equal_the_fraction_built_ones(self):
        configurations = (
            [(0, 0), (1, 0), (0, 1), (1, 1)], [(1,), (2,)], list(product(range(3), repeat=3)), [(-1, 0), (1, -1), (0, 2)]
        )
        for points in configurations:
            poly = convex_hull_facets(PointConfiguration(len(points[0]), points))
            forms = lattice_distance_forms(poly)
            plain = fraction_forms(poly)
            assert forms == plain
            for form, expected in zip(forms, plain, strict=True):
                assert form._denominator == 1
                assert form._coefficients == expected._coefficients
                assert all(type(c) is int and c for c in form._coefficients.values())

    def test_a_facet_through_the_origin_has_no_constant_term(self, square_poly):
        forms = lattice_distance_forms(square_poly)
        through_origin = [form for form, facet in zip(forms, square_poly.facets) if facet.offset == 0]
        assert through_origin
        for form in through_origin:
            assert (0, 0) not in form._coefficients

    def test_square_forms(self, square_poly):
        assert forms_as_strings(square_poly) == {"x1", "x2", "-x1 + 1", "-x2 + 1"}

    def test_trapezoid_values_at_top_vertex(self, trapezoid_poly):
        forms = lattice_distance_forms(trapezoid_poly)
        values = sorted(f.evaluate((1, 1)) for f in forms)
        assert values == [0, 0, 1, 1]

    def test_square_vertices_lie_on_two_facets(self, square_poly):
        for v in square_poly.vertices:
            distances = lattice_distances(square_poly, v)
            assert sum(1 for d in distances if d == 0) == 2

    def test_custom_names(self, trapezoid_poly):
        # the forms are in x1..xd; other names come from renaming them
        forms = lattice_distance_forms(trapezoid_poly)
        assert all(f.variables == ("x1", "x2") for f in forms)
        renamed = [f.renamed(("y1", "y2")) for f in forms]
        assert all(g.variables == ("y1", "y2") for g in renamed)
        point = (Fraction(1, 3), Fraction(1, 2))
        assert [g.evaluate(point) for g in renamed] == [f.evaluate(point) for f in forms]


class TestLatticePoints:
    def test_square(self, square_poly):
        assert lattice_points(square_poly).points == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_trapezoid(self, trapezoid_poly):
        assert lattice_points(trapezoid_poly).points == (
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (2, 0),
        )

    def test_long_segment(self):
        seg = convex_hull_facets(PointConfiguration(1, ((0,), (2,))))
        assert lattice_points(seg).points == ((0,), (1,), (2,))

    def test_roundtrip_saturated(self, square_config, trapezoid_config):
        for config in (square_config, trapezoid_config):
            poly = convex_hull_facets(config)
            recovered = set(lattice_points(poly).points)
            assert recovered == set(config.points)

    def test_roundtrip_contains_input(self):
        sparse = PointConfiguration(1, ((0,), (3,)))
        recovered = set(lattice_points(convex_hull_facets(sparse)).points)
        assert recovered >= set(sparse.points)


class TestSampleInterior:
    def test_square_barycenter_first(self, square_config):
        assert sample_interior(square_config, 1, 0) == [(Fraction(1, 2), Fraction(1, 2))]

    def test_trapezoid_barycenter(self, trapezoid_config):
        first = sample_interior(trapezoid_config, 1, 123)[0]
        assert first == (Fraction(4, 5), Fraction(2, 5))

    def test_strictly_inside_square(self, square_config):
        for p in sample_interior(square_config, 25, 4):
            assert all(0 < c < 1 for c in p)

    def test_all_lattice_distances_positive(self, trapezoid_config, trapezoid_poly):
        for p in sample_interior(trapezoid_config, 25, 4):
            assert all(d > 0 for d in lattice_distances(trapezoid_poly, p))

    @pytest.mark.parametrize("dim, seed", [(1, 0), (2, 5), (3, 9)])
    def test_matches_weighted_fraction_formula(self, dim, seed):
        rng = random.Random(seed)
        config = PointConfiguration(
            dim, tuple(tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(7))
        )
        assert sample_interior(config, 20, seed) == reference_samples(config, 20, seed)

    def test_deterministic(self, trapezoid_config):
        a = sample_interior(trapezoid_config, 10, 42)
        b = sample_interior(trapezoid_config, 10, 42)
        c = sample_interior(trapezoid_config, 10, 43)
        assert a == b
        assert a != c


class TestLatticeDistances:
    def test_rational_point(self, trapezoid_poly):
        point = (Fraction(1, 3), Fraction(-1, 2))
        expected = tuple(
            sum(Fraction(x) * n for x, n in zip(point, normal)) + offset
            for normal, offset in trapezoid_poly.facets
        )
        assert lattice_distances(trapezoid_poly, point) == expected

    @pytest.mark.parametrize("point", [(1,), (0, 0, 0), ()])
    def test_wrong_dimension(self, square_poly, point):
        message = f"dimension {len(point)}, the polytope has dimension 2"
        with pytest.raises(ValueError, match=message):
            lattice_distances(square_poly, point)


class TestDesignMatrix:
    def test_square_gets_ones_row(self, square_config):
        dm = design_matrix(square_config)
        assert dm.rows == ((1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1))
        assert DesignMatrix._fields == ("rows",)

    def test_ones_already_spanned(self):
        dm = design_matrix(PointConfiguration(2, ((1, 0), (0, 1))))
        assert dm.rows == ((1, 0), (0, 1))

    def test_trapezoid_shape(self, trapezoid_config):
        dm = design_matrix(trapezoid_config)
        assert len(dm.rows) == 3 and dm.n_columns == 5

    def test_apply(self, square_config):
        dm = design_matrix(square_config)
        assert design_product(dm, (1, 2, 3, 4)) == (10, 6, 7)

    @pytest.mark.parametrize("vector", [(1, 2), (1, 2, 3, 4, 5), ()])
    def test_apply_wrong_length(self, square_config, vector):
        dm = design_matrix(square_config)
        with pytest.raises(ValueError, match=f"length {len(vector)} does not match the 4 columns"):
            design_product(dm, vector)


class TestValidation:
    def test_labels_unique(self):
        with pytest.raises(ValueError):
            PointConfiguration(1, ((0,), (1,)), ("a", "a"))

    def test_point_dimension(self):
        with pytest.raises(ValueError):
            PointConfiguration(2, ((0, 0), (1,)))

    def test_vertex_dimension(self, square_poly):
        vertices = ((0, 0, 5), (1, 0, 5), (0, 1, 5), (1, 1, 5))
        with pytest.raises(ValueError, match=r"vertex \(0, 0, 5\) does not have dimension 2"):
            LatticePolytope(2, square_poly.facets, vertices)

    def test_non_integer_points_are_refused(self):
        # int() would truncate them to ((0,), (1,))
        with pytest.raises(TypeError, match="coordinate 0.7 is not an exact integer"):
            PointConfiguration(1, ((0.7,), (1.2,)))
        with pytest.raises(TypeError, match=r"coordinate Fraction\(1, 2\) is not an exact integer"):
            PointConfiguration(1, ((Fraction(1, 2),),))
        assert PointConfiguration(1, ((Fraction(4, 2),), ("3",))).points == ((2,), (3,))

    def test_non_integer_facets_and_vertices_are_refused(self, square_poly):
        facets = [(n, a) for n, a in square_poly.facets]
        with pytest.raises(TypeError, match="offset 1.0 is not an exact integer"):
            LatticePolytope(2, [(n, float(a) if a else a) for n, a in facets], square_poly.vertices)
        with pytest.raises(TypeError, match="normal entry -1.0 is not an exact integer"):
            LatticePolytope(2, [(tuple(map(float, n)), a) for n, a in facets], square_poly.vertices)
        with pytest.raises(TypeError, match=r"vertex coordinate Fraction\(1, 2\) is not an exact integer"):
            LatticePolytope(2, facets, ((0, 0), (1, 0), (0, 1), (1, Fraction(1, 2))))
        assert LatticePolytope(2, facets, [[Fraction(x) for x in v] for v in square_poly.vertices]) == square_poly

    def test_effective_labels_from_coordinates(self):
        config = PointConfiguration(2, ((0, 0), (2, 1)))
        assert config.effective_labels() == ("0,0", "2,1")
