"""Seeded input generator for the benchmark.

Everything is built in code from the seed: lattice boxes with binomial or
unit weights, dilated simplices with multinomial weights, the Horn pair of a
dilated triangle, count vectors, and the specifications of the fiber
products of the packaged fixture models and Horn pairs.  Documents use the
JSON file formats of the README, so the program under test only ever sees
generated input text.  Nothing here imports the program.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb, factorial, prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "toric_precision" / "fixtures"


def rng_for(seed: int, stream: str) -> random.Random:
    """Independent generator per (seed, stream), stable across Python runs."""
    return random.Random(f"{seed}/{stream}")


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _label(point) -> str:
    return ",".join(str(x) for x in point)


def _shuffled(points, rng: random.Random) -> list:
    points = list(points)
    rng.shuffle(points)
    return points


def _model_doc(points, weights) -> str:
    config = {"dim": len(points[0]), "points": [list(p) for p in points],
              "labels": [_label(p) for p in points]}
    return json.dumps({"config": config, "weights": [str(w) for w in weights]})


def box_points(k: int, d: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(k + 1), repeat=d))


def simplex_points(k: int, d: int) -> list[tuple[int, ...]]:
    return [p for p in itertools.product(range(k + 1), repeat=d) if sum(p) <= k]


def binomial_weight(k: int, point) -> int:
    return prod(comb(k, x) for x in point)


def multinomial_weight(k: int, point) -> int:
    return factorial(k) // (prod(factorial(x) for x in point) * factorial(k - sum(point)))


def box_doc(k: int, d: int, binomial: bool, rng: random.Random) -> str:
    """[0,k]^d in seeded point order, binomial (Bernstein) or unit weights."""
    points = _shuffled(box_points(k, d), rng)
    return _model_doc(points, [binomial_weight(k, p) if binomial else 1 for p in points])


def simplex_doc(k: int, d: int, rng: random.Random) -> str:
    """k times the standard d-simplex in seeded point order, multinomial weights."""
    points = _shuffled(simplex_points(k, d), rng)
    return _model_doc(points, [multinomial_weight(k, p) for p in points])


def simplex_horn_doc(k: int, points) -> str:
    """Horn pair of the Bernstein triangle kDelta_2 on the given point order.

    Column b is multinomial(b) * (u.x1)^i (u.x2)^j (u.(k - x1 - x2))^(k-i-j)
    * (-k|u|)^(-k), so the rows are the three facet forms plus -k times the
    all-ones form, and lambda_b = (-1)^k * multinomial(b).
    """
    rows = [
        [p[0] for p in points],
        [p[1] for p in points],
        [k - p[0] - p[1] for p in points],
        [-k for _ in points],
    ]
    sign = -1 if k % 2 else 1
    return json.dumps({
        "H": rows,
        "lambda": [str(sign * multinomial_weight(k, p)) for p in points],
        "column_labels": [_label(p) for p in points],
    })


def count_vectors(rng: random.Random, count: int, length: int, low: int = 1, high: int = 20):
    """Positive integer count vectors, so every Birch margin is positive."""
    return [tuple(rng.randint(low, high) for _ in range(length)) for _ in range(count)]


def corruption(rng: random.Random, columns: int) -> tuple[int, int]:
    """Column whose coefficient gets multiplied, and the factor (never 1)."""
    return rng.randrange(columns), rng.choice((2, 3, -1))
