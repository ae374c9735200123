"""Shared model fixtures.

The two running examples: the unit square with unit weights (the binary
independence model, strict linear precision) and the trapezoid with weights
(1,2,1,1,1) whose precision functions are the hand-entered beta-tilde
family, not the toric one.  Point orders follow the fixture files.
"""

from fractions import Fraction

import pytest

from toric_precision.blending import BlendingSystem, WeightVector, toric_blending
from toric_precision.geometry import PointConfiguration, convex_hull_facets
from toric_precision.horn import HornMatrix, HornPair
from toric_precision.polynomials import RationalFunction, variables
from toric_precision.tfp import GradedConfiguration, validate_multigrading


SQUARE_POINTS = ((0, 0), (1, 0), (0, 1), (1, 1))
SQUARE_LABELS = ("0,0", "1,0", "0,1", "1,1")
TRAPEZOID_POINTS = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1))
TRAPEZOID_LABELS = ("0,0", "1,0", "2,0", "0,1", "1,1")
TRAPEZOID_WEIGHTS = tuple(Fraction(v) for v in (1, 2, 1, 1, 1))


@pytest.fixture(scope="session")
def square_config():
    return PointConfiguration(2, SQUARE_POINTS, SQUARE_LABELS)


@pytest.fixture(scope="session")
def square_poly(square_config):
    return convex_hull_facets(square_config)


@pytest.fixture(scope="session")
def square_system(square_config, square_poly):
    return toric_blending(square_poly, square_config, WeightVector.ones(4))


@pytest.fixture(scope="session")
def trapezoid_config():
    return PointConfiguration(2, TRAPEZOID_POINTS, TRAPEZOID_LABELS)


@pytest.fixture(scope="session")
def trapezoid_poly(trapezoid_config):
    return convex_hull_facets(trapezoid_config)


@pytest.fixture(scope="session")
def trapezoid_weights():
    return WeightVector(TRAPEZOID_WEIGHTS)


@pytest.fixture(scope="session")
def beta_tilde_system(trapezoid_config, trapezoid_weights):
    y1, y2 = variables("y1 y2")
    functions = (
        RationalFunction((1 - y2) * (2 - y1 - y2) ** 2, (2 - y2) ** 2),
        RationalFunction(2 * y1 * (1 - y2) * (2 - y1 - y2), (2 - y2) ** 2),
        RationalFunction(y1**2 * (1 - y2), (2 - y2) ** 2),
        RationalFunction(y2 * (2 - y1 - y2), (2 - y2)),
        RationalFunction(y1 * y2, (2 - y2)),
    )
    return BlendingSystem(
        trapezoid_config, trapezoid_weights, functions, "custom", ("y1", "y2")
    )


@pytest.fixture(scope="session")
def trapezoid_toric_system(trapezoid_config, trapezoid_poly, trapezoid_weights):
    return toric_blending(trapezoid_poly, trapezoid_config, trapezoid_weights)


@pytest.fixture(scope="session")
def square_graded(square_config):
    return GradedConfiguration(square_config, (1, 1, 2, 2))


@pytest.fixture(scope="session")
def trapezoid_graded(trapezoid_config):
    return GradedConfiguration(trapezoid_config, (1, 1, 1, 2, 2))


@pytest.fixture(scope="session")
def degree_pair():
    return PointConfiguration(2, ((1, 0), (0, 1)))


@pytest.fixture(scope="session")
def square_trapezoid_grading(square_graded, trapezoid_graded, degree_pair):
    return validate_multigrading(square_graded, trapezoid_graded, degree_pair)


@pytest.fixture(scope="session")
def segment_config():
    return PointConfiguration(1, ((0,), (1,)), ("0", "1"))


@pytest.fixture(scope="session")
def segment_system(segment_config):
    return toric_blending(convex_hull_facets(segment_config), segment_config, WeightVector.ones(2))


# Published Horn pairs of the two factors.  Columns of the trapezoid pair
# are in the source's order: the class-2 block lists (1,1) before (0,1).
@pytest.fixture(scope="session")
def square_horn():
    return HornPair(
        HornMatrix(
            (
                (1, 0, 1, 0),
                (0, 1, 0, 1),
                (1, 1, 0, 0),
                (0, 0, 1, 1),
                (-1, -1, -1, -1),
                (-1, -1, -1, -1),
            ),
            SQUARE_LABELS,
        ),
        (Fraction(1),) * 4,
    )


@pytest.fixture(scope="session")
def trapezoid_horn():
    return HornPair(
        HornMatrix(
            (
                (0, 1, 2, 1, 0),
                (0, 0, 0, 1, 1),
                (2, 1, 0, 0, 1),
                (1, 1, 1, 0, 0),
                (-1, -1, -1, -1, -1),
                (-2, -2, -2, -1, -1),
            ),
            ("0,0", "1,0", "2,0", "1,1", "0,1"),
        ),
        tuple(Fraction(v) for v in (-1, -2, -1, 1, 1)),
    )
