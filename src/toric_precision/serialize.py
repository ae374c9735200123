"""JSON schemas for every object the CLI reads or writes.

All files are UTF-8 JSON.  Schema violations raise SchemaError with the
path of the offending field; unknown top-level shapes, and any key that an
object's schema does not name, are rejected rather than guessed.
Serialization is deterministic: fixed key order, polynomials in descending
graded-lexicographic term order, rationals as "p/q" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .blending import BlendingSystem, WeightVector
from .errors import EmptyDegreeClassError, SchemaError
from .geometry import LatticePolytope, PointConfiguration
from .horn import HornMatrix, HornPair
from .polynomials import Polynomial, RationalFunction
from .tfp import GradedConfiguration, GradedModel


def rational_str(value: int | Fraction) -> str:
    """Serialize a rational as "p/q", omitting "/q" when the denominator is 1."""
    # An int or a Fraction already prints so; only other values need converting.
    return str(value) if type(value) is int or type(value) is Fraction else str(Fraction(value))


def _require(data: Any, key: str, kind, path: str):
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected an object")
    if key not in data:
        raise SchemaError(f"{path}.{key}: missing")
    value = data[key]
    if kind is not None and (not isinstance(value, kind) or (kind is int and isinstance(value, bool))):
        raise SchemaError(f"{path}.{key}: expected {kind.__name__}")
    return value


def _known_keys(data: dict, allowed: tuple[str, ...], what: str, path: str) -> None:
    """Reject every key of an object that its schema does not name."""
    for key in data:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}: unknown key ({what} has {', '.join(allowed)})")


def _int_matrix(value: Any, path: str) -> list[list[int]]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a nonempty list of integer rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise SchemaError(f"{path}[{i}]: expected a list")
        cleaned = []
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise SchemaError(f"{path}[{i}][{j}]: expected an integer")
            cleaned.append(x)
        rows.append(cleaned)
    return rows


def _rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{path}: expected an integer or 'p/q' string")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{path}: not a rational number: {value!r}") from None


# -- point configurations ------------------------------------------------


def config_to_json(config: PointConfiguration) -> dict:
    out = {"dim": config.dim, "points": [list(p) for p in config.points]}
    if config.labels is not None:
        out["labels"] = list(config.labels)
    return out


def config_from_json(data: Any, path: str = "config") -> PointConfiguration:
    dim = _require(data, "dim", int, path)
    _known_keys(data, ("dim", "points", "labels"), "a configuration", path)
    points = _int_matrix(_require(data, "points", list, path), f"{path}.points")
    labels = data.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or any(not isinstance(s, str) for s in labels)
    ):
        raise SchemaError(f"{path}.labels: expected a list of strings")
    try:
        return PointConfiguration(dim, tuple(tuple(p) for p in points), tuple(labels) if labels is not None else None)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


# -- polytopes -----------------------------------------------------------


def polytope_to_json(poly: LatticePolytope) -> dict:
    return {
        "facets": [{"normal": list(f.normal), "offset": f.offset} for f in poly.facets],
        "vertices": [list(v) for v in poly.vertices],
    }


# -- weights ---------------------------------------------------------------


def weights_from_json(data: Any, count: int, path: str = "weights") -> WeightVector:
    if not isinstance(data, list):
        raise SchemaError(f"{path}: expected a list")
    if len(data) != count:
        raise SchemaError(f"{path}: expected {count} entries, got {len(data)}")
    values = []
    for i, v in enumerate(data):
        value = _rational(v, f"{path}[{i}]")
        if value <= 0:
            raise SchemaError(f"{path}[{i}]: weights must be positive, got {v!r}")
        values.append(value)
    return WeightVector(tuple(values))


# -- polynomials and blending systems ---------------------------------------


def poly_to_json(poly: Polynomial) -> list:
    return [[rational_str(c), list(e)] for e, c in poly.sorted_terms()]


def poly_from_json(data: Any, names: tuple[str, ...], path: str) -> Polynomial:
    if not isinstance(data, list):
        raise SchemaError(f"{path}: expected a list of [coefficient, exponents] pairs")
    terms = []
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}[{i}]: expected [coefficient, exponents]")
        coefficient = _rational(pair[0], f"{path}[{i}][0]")
        exponents = pair[1]
        if not isinstance(exponents, list) or len(exponents) != len(names):
            raise SchemaError(f"{path}[{i}][1]: expected {len(names)} exponents")
        if any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exponents):
            raise SchemaError(f"{path}[{i}][1]: exponents must be nonnegative integers")
        terms.append((tuple(exponents), coefficient))
    return Polynomial(names, terms)


def blending_system_to_json(sys: BlendingSystem) -> dict:
    return {
        "config": config_to_json(sys.config),
        "weights": [rational_str(w) for w in sys.weights.weights],
        "variables": list(sys.variables),
        "functions": [
            {"num": poly_to_json(f.numerator), "den": poly_to_json(f.denominator)}
            for f in sys.functions
        ],
        "kind": sys.kind,
    }


def blending_system_from_json(data: Any, path: str = "system") -> BlendingSystem:
    config = config_from_json(_require(data, "config", dict, path), f"{path}.config")
    _known_keys(data, ("config", "weights", "variables", "functions", "kind"), "a blending system", path)
    weights = weights_from_json(data.get("weights"), len(config.points), f"{path}.weights")
    kind = _require(data, "kind", str, path)
    if kind not in ("toric", "custom"):
        raise SchemaError(f"{path}.kind: expected 'toric' or 'custom', got {kind!r}")
    names = data.get("variables")
    if names is None:
        names = [f"x{i + 1}" for i in range(config.dim)]
    if not isinstance(names, list) or len(names) != config.dim:
        raise SchemaError(f"{path}.variables: expected {config.dim} names")
    for i, name in enumerate(names):
        if not isinstance(name, str) or not name.isidentifier():
            raise SchemaError(f"{path}.variables[{i}]: expected an identifier, got {name!r}")
    names = tuple(names)
    if len(set(names)) != len(names):
        raise SchemaError(f"{path}.variables: duplicate variable names: {names}")
    functions_data = _require(data, "functions", list, path)
    if len(functions_data) != len(config.points):
        raise SchemaError(
            f"{path}.functions: expected {len(config.points)} entries, got {len(functions_data)}"
        )
    functions = []
    for i, f in enumerate(functions_data):
        num = poly_from_json(_require(f, "num", list, f"{path}.functions[{i}]"), names, f"{path}.functions[{i}].num")
        den = poly_from_json(_require(f, "den", list, f"{path}.functions[{i}]"), names, f"{path}.functions[{i}].den")
        _known_keys(f, ("num", "den"), "a function", f"{path}.functions[{i}]")
        if den.is_zero:
            raise SchemaError(f"{path}.functions[{i}].den: zero denominator")
        functions.append(RationalFunction(num, den))
    return BlendingSystem(config, weights, tuple(functions), kind, names)


# -- graded models -----------------------------------------------------------


def graded_model_to_json(model: GradedModel) -> dict:
    return {
        "config": config_to_json(model.config),
        "weights": [rational_str(w) for w in model.weights.weights],
        "grading": {
            "A": [list(a) for a in model.degrees.points],
            "assignment": list(model.graded.assignment),
        },
    }


def graded_model_from_json(data: Any, path: str = "model") -> GradedModel:
    config = config_from_json(_require(data, "config", dict, path), f"{path}.config")
    _known_keys(data, ("config", "weights", "grading"), "a graded model", path)
    weights = weights_from_json(data.get("weights"), len(config.points), f"{path}.weights")
    grading = _require(data, "grading", dict, path)
    _known_keys(grading, ("A", "assignment"), "a grading", f"{path}.grading")
    degrees_points = _int_matrix(_require(grading, "A", list, f"{path}.grading"), f"{path}.grading.A")
    try:
        degrees = PointConfiguration(len(degrees_points[0]), tuple(tuple(a) for a in degrees_points))
    except ValueError as exc:
        raise SchemaError(f"{path}.grading.A: {exc}") from None
    assignment = _require(grading, "assignment", list, f"{path}.grading")
    if len(assignment) != len(config.points):
        raise SchemaError(f"{path}.grading.assignment: expected {len(config.points)} entries")
    for i, a in enumerate(assignment):
        if isinstance(a, bool) or not isinstance(a, int) or not 1 <= a <= len(degrees_points):
            raise SchemaError(
                f"{path}.grading.assignment[{i}]: expected a class index in 1..{len(degrees_points)}"
            )
    try:
        graded = GradedConfiguration(config, tuple(assignment))
    except EmptyDegreeClassError as exc:
        raise SchemaError(f"{path}.grading.assignment: {exc}") from None
    return GradedModel(graded, weights, degrees)


# -- Horn pairs ---------------------------------------------------------------


def horn_pair_to_json(pair: HornPair) -> dict:
    out = {
        "H": [list(row) for row in pair.matrix.entries],
        "lambda": [rational_str(c) for c in pair.coefficients],
    }
    if pair.matrix.column_labels is not None:
        out["column_labels"] = list(pair.matrix.column_labels)
    return out


def horn_pair_from_json(data: Any, path: str = "horn") -> HornPair:
    rows = _int_matrix(_require(data, "H", list, path), f"{path}.H")
    _known_keys(data, ("H", "lambda", "column_labels"), "a Horn pair", path)
    lambdas_data = _require(data, "lambda", list, path)
    lambdas = []
    for i, v in enumerate(lambdas_data):
        value = _rational(v, f"{path}.lambda[{i}]")
        if value == 0:
            raise SchemaError(f"{path}.lambda[{i}]: coefficients must be nonzero")
        lambdas.append(value)
    labels = data.get("column_labels")
    if labels is not None and (
        not isinstance(labels, list) or any(not isinstance(s, str) for s in labels)
    ):
        raise SchemaError(f"{path}.column_labels: expected a list of strings")
    try:
        matrix = HornMatrix(tuple(tuple(r) for r in rows), tuple(labels) if labels is not None else None)
        return HornPair(matrix, tuple(lambdas))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


# -- patch control points ------------------------------------------------------


def controls_from_json(data: Any, path: str = "controls") -> list[tuple[Fraction, ...]]:
    """Control points as a list of coordinate lists (integers or "p/q" strings)."""
    if not isinstance(data, list):
        raise SchemaError(f"{path}: expected a list of control points")
    points = []
    for i, point in enumerate(data):
        if not isinstance(point, list):
            raise SchemaError(f"{path}[{i}]: expected a list of coordinates")
        points.append(tuple(_rational(x, f"{path}[{i}][{j}]") for j, x in enumerate(point)))
    return points


# -- grading spec for horn composition ----------------------------------------


def block_grading_from_json(data: Any, path: str = "grading") -> tuple[int, list[int], list[int]]:
    """Degree count plus the per-column class indices of both factors."""
    degrees = _int_matrix(_require(data, "A", list, path), f"{path}.A")
    _known_keys(data, ("A", "block_index_B", "block_index_C"), "a block grading", path)
    blocks_b = _require(data, "block_index_B", list, path)
    blocks_c = _require(data, "block_index_C", list, path)
    for name, blocks in (("block_index_B", blocks_b), ("block_index_C", blocks_c)):
        for i, a in enumerate(blocks):
            if isinstance(a, bool) or not isinstance(a, int) or a < 1:
                raise SchemaError(f"{path}.{name}[{i}]: expected a 1-based class index")
    return len(degrees), list(blocks_b), list(blocks_c)


# -- data vectors --------------------------------------------------------------


def data_vector_from_json(data: Any, labels: tuple[str, ...], path: str = "data"):
    """Counts as a positional array, or an object keyed by model labels."""
    from .mle import DataVector

    # (key, count) pairs, a key named in a message as path[key!r]
    if isinstance(data, list):
        entries = list(enumerate(data))
    elif isinstance(data, dict):
        missing = [s for s in labels if s not in data]
        if missing:
            raise SchemaError(f"{path}: missing counts for labels {missing}")
        unknown = [s for s in data if s not in labels]
        if unknown:
            raise SchemaError(f"{path}: unknown labels {unknown}")
        entries = [(s, data[s]) for s in labels]
    else:
        raise SchemaError(f"{path}: expected an array or an object keyed by labels")
    for key, c in entries:
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            raise SchemaError(f"{path}[{key!r}]: expected a nonnegative integer")
    if len(entries) != len(labels):
        raise SchemaError(f"{path}: expected {len(labels)} counts, got {len(entries)}")
    try:
        return DataVector(tuple([c for _, c in entries]))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


# -- top-level file handling ----------------------------------------------------


def load_json(path: str | Path) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None


def parse_model_data(data: Any, path: str = "file"):
    """Dispatch a parsed JSON document to its model type by shape."""
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    if "H" in data and "lambda" in data:
        return horn_pair_from_json(data, path)
    if "functions" in data:
        return blending_system_from_json(data, path)
    if "grading" in data and "config" in data:
        return graded_model_from_json(data, path)
    if "dim" in data and "points" in data:
        return config_from_json(data, path)
    raise SchemaError(
        f"{path}: unrecognized document (expected a configuration, graded model, "
        "blending system, or Horn pair)"
    )


def parse_model_file(path: str | Path):
    """Load and validate a model file (configuration, graded model, system, or pair)."""
    return parse_model_data(load_json(path), str(path))


def dump_json(data: Any) -> str:
    return json.dumps(data, indent=2) + "\n"
