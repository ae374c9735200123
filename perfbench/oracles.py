"""Known answers, computed without the program under test.

The closed forms are the classical ones: tensor and simplex Bernstein
polynomials (the independence model is the degree-one box), the
trapezoid's beta-tilde family of the source paper, and the fiber-product
estimate p_ijk = pB_j * pC_k / (u_i / |u|).  Verdicts follow from
linear-precision theory: toric patches with Bernstein weights have strict
linear precision, the unit-weight box [0,2]^2 and the toric trapezoid do
not, and fiber products of systems with linear precision keep it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import comb, factorial, prod

from inputs import fixture_text

# (partition of unity, toric membership, interior positivity, linear precision)
ALL_PASS = (True, True, True, True)
NO_LINEAR_PRECISION = (True, True, True, False)


def barycenter(points, counts) -> tuple[Fraction, ...]:
    total = sum(counts)
    return tuple(
        Fraction(sum(c * p[i] for c, p in zip(counts, points)), total)
        for i in range(len(points[0]))
    )


def box_bernstein(k: int, point, x) -> Fraction:
    """Tensor Bernstein basis function of [0,k]^d at x."""
    return prod(
        (comb(k, b) * (xi / k) ** b * (1 - xi / k) ** (k - b) for b, xi in zip(point, x)),
        start=Fraction(1),
    )


def simplex_bernstein(k: int, point, x) -> Fraction:
    """Bernstein basis function of k times the standard simplex at x."""
    rest = k - sum(point)
    weight = factorial(k) // (prod(factorial(b) for b in point) * factorial(rest))
    value = Fraction(weight) * (1 - sum(x) / Fraction(k)) ** rest
    for b, xi in zip(point, x):
        value *= (xi / k) ** b
    return value


def beta_tilde(point, y) -> Fraction:
    """Blending function of the trapezoid with weights (1,2,1,1,1) at y."""
    y1, y2 = y
    s = 2 - y2
    return {
        (0, 0): (1 - y2) * (2 - y1 - y2) ** 2 / s**2,
        (1, 0): 2 * y1 * (1 - y2) * (2 - y1 - y2) / s**2,
        (2, 0): y1**2 * (1 - y2) / s**2,
        (0, 1): y2 * (2 - y1 - y2) / s,
        (1, 1): y1 * y2 / s,
    }[tuple(point)]


def square_mle(points, counts) -> tuple[Fraction, ...]:
    """Independence model: the degree-one tensor Bernstein family."""
    x = barycenter(points, counts)
    return tuple(box_bernstein(1, p, x) for p in points)


def trapezoid_mle(points, counts) -> tuple[Fraction, ...]:
    y = barycenter(points, counts)
    return tuple(beta_tilde(p, y) for p in points)


def simplex_mle(k: int, points, counts) -> tuple[Fraction, ...]:
    x = barycenter(points, counts)
    return tuple(simplex_bernstein(k, p, x) for p in points)


def product_columns(classes_b, classes_c) -> list[tuple[int, int, int]]:
    """(class, index into B, index into C) for each fiber-product coordinate.

    Coordinates run over classes, then B positions, then C positions, each
    in the factor's own order.
    """
    out = []
    for i in sorted(set(classes_b)):
        for bi in (n for n, a in enumerate(classes_b) if a == i):
            for ci in (n for n, a in enumerate(classes_c) if a == i):
                out.append((i, bi, ci))
    return out


def product_mle(columns, mle_b, mle_c, n_b: int, n_c: int, counts) -> tuple[Fraction, ...]:
    """Fiber-product estimate from the factor estimates of the marginal counts."""
    counts_b, counts_c = [0] * n_b, [0] * n_c
    class_totals: dict[int, int] = {}
    for u, (i, bi, ci) in zip(counts, columns):
        counts_b[bi] += u
        counts_c[ci] += u
        class_totals[i] = class_totals.get(i, 0) + u
    p_b, p_c = mle_b(counts_b), mle_c(counts_c)
    total = sum(counts)
    return tuple(
        p_b[bi] * p_c[ci] / Fraction(class_totals[i], total) for i, bi, ci in columns
    )


def log_likelihood(counts, probs) -> float:
    return math.fsum(u * math.log(p) for u, p in zip(counts, probs))


def parse_label(label: str) -> tuple[int, ...]:
    return tuple(int(x) for x in label.split(","))


# -- README commands: exit codes and key values ------------------------------

def _fixture(name: str) -> dict:
    return json.loads(fixture_text(name))


def _lines(out: str) -> list[str]:
    return out.strip().splitlines()


def _tuple_text(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _floats(line: str) -> list[float]:
    inner = line[line.index("(") + 1:line.index(")")]
    return [float(x) for x in inner.split(",")]


def _poly_value(terms, x) -> Fraction:
    return sum(
        (Fraction(c) * prod((xi**e for xi, e in zip(x, exps)), start=Fraction(1)) for c, exps in terms),
        Fraction(0),
    )


def _check_facets(out: str) -> bool:
    # conv{(0,0),(2,0),(0,1),(1,1)}: four edges, four vertices.
    lines = _lines(out)
    return lines[0] == "dim 2, 4 facets, 4 vertices" and lines[-1] == "vertices: [0, 0] [0, 1] [1, 1] [2, 0]"


def _check_blend_square(out: str) -> bool:
    data = json.loads(out)
    points = [tuple(p) for p in data["config"]["points"]]
    for x in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(3, 7), Fraction(1, 2))):
        for p, f in zip(points, data["functions"]):
            if _poly_value(f["num"], x) / _poly_value(f["den"], x) != box_bernstein(1, p, x):
                return False
    return len(points) == len(data["functions"]) == 4


def _verdicts(out: str) -> tuple[bool, ...]:
    status = dict(line.split(": ", 1) for line in _lines(out))
    names = ("partition_of_unity", "toric_membership", "interior_positivity", "linear_precision")
    return tuple(status[n].startswith("pass") for n in names)


def _check_tfp(out: str) -> bool:
    square, trapezoid = _fixture("square.json"), _fixture("trapezoid.json")
    columns = product_columns(square["grading"]["assignment"], trapezoid["grading"]["assignment"])
    weights = [Fraction(square["weights"][b]) * Fraction(trapezoid["weights"][c]) for _, b, c in columns]
    points = [square["config"]["points"][b] + trapezoid["config"]["points"][c] for _, b, c in columns]
    lines = _lines(out)
    return (
        lines[0] == f"{len(columns)} points, weights {_tuple_text(weights)}"
        and [line.split(" = ", 1)[1].split(":")[0] for line in lines[1:]] == [str(p) for p in points]
    )


def _check_horn_tfp(out: str) -> bool:
    square, trapezoid, grading = _fixture("square.horn.json"), _fixture("trapezoid.horn.json"), _fixture("grading.json")
    columns = product_columns(grading["block_index_B"], grading["block_index_C"])
    lambdas = [-Fraction(square["lambda"][b]) * Fraction(trapezoid["lambda"][c]) for _, b, c in columns]
    rows = len(square["H"]) + len(trapezoid["H"]) + len(grading["A"]) + 1
    lines = _lines(out)
    return lines[-1] == f"lambda: {_tuple_text(lambdas)}" and len(lines) == rows + 2


def _check_mle_square(out: str) -> bool:
    exact = square_mle(((0, 0), (1, 0), (0, 1), (1, 1)), (3, 1, 1, 1))
    lines = _lines(out)
    residual = lines[1][lines[1].index("(") + 1:-1].split(", ")
    return (
        lines[0] == f"exact: {_tuple_text(exact)}"
        and all(r == "0" for r in residual)
        and max(abs(float(e) - f) for e, f in zip(exact, _floats(lines[2]))) < 1e-8
    )


def _check_ips_trapezoid(out: str) -> bool:
    exact = trapezoid_mle(((0, 0), (1, 0), (2, 0), (0, 1), (1, 1)), (1, 1, 1, 1, 1))
    return max(abs(float(e) - f) for e, f in zip(exact, _floats(_lines(out)[0]))) < 1e-8


def _check_patch(out: str) -> bool:
    corner = box_bernstein(1, (1, 1), (Fraction(1, 2), Fraction(1, 2)))
    return _lines(out) == [f"value: {_tuple_text((corner, corner))}"]


# (argv, exit code, check of stdout): every command of the README, in order.
README_COMMANDS = [
    (["facets", "trapezoid.json"], 0, _check_facets),
    (["blend", "square.json", "--output", "json"], 0, _check_blend_square),
    (["verify", "trapezoid_beta_tilde.json", "--samples", "50"], 0, lambda out: _verdicts(out) == ALL_PASS),
    (["verify", "trapezoid_toric.json"], 1, lambda out: _verdicts(out) == NO_LINEAR_PRECISION),
    (["tfp", "square.json", "trapezoid.json", "--system-c", "trapezoid_beta_tilde.json"], 0, _check_tfp),
    (["horn-tfp", "square.horn.json", "trapezoid.horn.json", "grading.json"], 0, _check_horn_tfp),
    (["horn-validate", "trapezoid.horn.json"], 0,
     lambda out: _lines(out) == ["sums_to_one: pass", "positive: pass", "symbolic_checked: True"]),
    # Two copies of the form -|u| fold into -2|u| with lambda scaled by 2^2.
    (["horn-minimize", "square.horn.json"], 0,
     lambda out: _lines(out)[0] == "rows: 6 -> 5" and _lines(out)[-1] == "lambda: (4, 4, 4, 4)"),
    (["mle", "square.json", "--data", "3,1,1,1"], 0, _check_mle_square),
    (["ips", "trapezoid.json", "--data", "1,1,1,1,1", "--tol", "1e-10"], 0, _check_ips_trapezoid),
    (["patch", "square.json", "--controls", "0,0;0,0;0,0;1,1", "--point", "1/2,1/2"], 0, _check_patch),
]
