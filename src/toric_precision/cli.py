"""Command-line front end.

Every verb loads JSON model files, runs the corresponding library calls,
and prints a text or JSON report.  Exit codes: 0 when the computation
succeeds and every checked property holds, 1 when a property fails (the
report carries a witness), 2 on bad input.  Output is deterministic for a
fixed seed.

Input paths are resolved literally first, then against the fixture
directory (the TORIC_PRECISION_FIXTURES environment variable when set,
otherwise the fixtures shipped with the package), so
``toric-precision verify fixtures/trapezoid_beta_tilde.json`` works from
anywhere.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import serialize
from .blending import BlendingSystem, toric_blending, toric_patch_eval, verify_rational_linear_precision
from .errors import SchemaError, ToricPrecisionError
from .geometry import PointConfiguration, convex_hull_facets, design_matrix
from .horn import (
    HornPair,
    format_horn_matrix,
    minimize_horn_pair,
    tfp_horn_pair,
    validate_horn_pair,
)
from .mle import DataVector, birch_residual, ips_fit, mle_closed_form
from .serialize import rational_str
from .tfp import GradedModel, tfp_blending, validate_multigrading


def _fixture_dir() -> Path | None:
    override = os.environ.get("TORIC_PRECISION_FIXTURES")
    if override:
        return Path(override)
    try:
        return Path(str(resources.files("toric_precision") / "fixtures"))
    except Exception:
        return None


def resolve_input_path(path: str) -> Path:
    """Literal path, else a fixture name (with or without a directory prefix)."""
    candidate = Path(path)
    if candidate.exists():
        return candidate
    base = _fixture_dir()
    if base is not None:
        for alternative in (base / path, base / candidate.name):
            if alternative.exists():
                return alternative
    raise SchemaError(f"cannot read {path}: no such file")


def _load(path: str):
    return serialize.parse_model_file(resolve_input_path(path))


def _as_system(model) -> BlendingSystem:
    """Accept a blending system directly, or build the toric one from a model."""
    if isinstance(model, BlendingSystem):
        return model
    if isinstance(model, GradedModel):
        poly = convex_hull_facets(model.config)
        return toric_blending(poly, model.config, model.weights)
    if isinstance(model, PointConfiguration):
        from .blending import WeightVector

        poly = convex_hull_facets(model)
        return toric_blending(poly, model, WeightVector.ones(len(model.points)))
    raise SchemaError("expected a configuration, graded model, or blending system")


def _parse_data(raw: str, labels) -> DataVector:
    path = None
    try:
        path = resolve_input_path(raw)
    except SchemaError:
        pass
    if path is not None:
        return serialize.data_vector_from_json(serialize.load_json(path), labels, str(path))
    try:
        counts = [int(x) for x in raw.split(",")]
    except ValueError:
        raise SchemaError(f"--data: expected comma-separated integers or a file, got {raw!r}") from None
    return serialize.data_vector_from_json(counts, labels, "--data")


def _parse_point(raw: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(x) for x in raw.split(","))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"expected comma-separated rationals, got {raw!r}") from None


def _emit(args, text_lines, json_data) -> None:
    if args.output == "json":
        sys.stdout.write(serialize.dump_json(json_data))
    else:
        for line in text_lines:
            print(line)


def _cmd_facets(args) -> int:
    model = _load(args.config)
    if isinstance(model, (GradedModel, BlendingSystem)):
        config = model.config
    elif isinstance(model, PointConfiguration):
        config = model
    else:
        raise SchemaError(f"{args.config}: no point configuration in this file")
    poly = convex_hull_facets(config)
    lines = [f"dim {poly.dim}, {len(poly.facets)} facets, {len(poly.vertices)} vertices"]
    for normal, offset in poly.facets:
        terms = " + ".join(f"{n}*x{i + 1}" for i, n in enumerate(normal) if n)
        lines.append(f"  {terms} + {offset} >= 0")
    lines.append("vertices: " + " ".join(str(list(v)) for v in poly.vertices))
    _emit(args, lines, serialize.polytope_to_json(poly))
    return 0


def _cmd_blend(args) -> int:
    system = _as_system(_load(args.model))
    labels = system.config.effective_labels()
    lines = [f"{label}: {f}" for label, f in zip(labels, system.functions)]
    _emit(args, lines, serialize.blending_system_to_json(system))
    return 0


def _cmd_verify(args) -> int:
    system = _as_system(_load(args.system))
    report = verify_rational_linear_precision(system, samples=args.samples, seed=args.seed)
    lines = []
    for name in ("partition_of_unity", "toric_membership", "interior_positivity", "linear_precision"):
        ok = getattr(report, name)
        line = f"{name}: {'pass' if ok else 'FAIL'}"
        if not ok and name in report.details:
            line += f" ({report.details[name]})"
        lines.append(line)
    _emit(args, lines, report.as_dict())
    return 0 if report.all_pass else 1


def _load_graded(path: str) -> GradedModel:
    model = _load(path)
    if not isinstance(model, GradedModel):
        raise SchemaError(f"{path}: expected a graded model (config + weights + grading)")
    return model


def _factor_system(model: GradedModel, override: str | None) -> BlendingSystem:
    """Toric system of the model, or a user-supplied system over the same points."""
    if override is None:
        poly = convex_hull_facets(model.config)
        return toric_blending(poly, model.config, model.weights)
    loaded = _load(override)
    if not isinstance(loaded, BlendingSystem):
        raise SchemaError(f"{override}: expected a blending system file")
    if loaded.config.points != model.config.points:
        raise SchemaError(f"{override}: system points do not match the graded model")
    return loaded


def _cmd_tfp(args) -> int:
    model_b = _load_graded(args.model_b)
    model_c = _load_graded(args.model_c)
    if model_b.degrees.points != model_c.degrees.points:
        raise SchemaError("the two models carry different degree configurations")
    grading = validate_multigrading(model_b.graded, model_c.graded, model_b.degrees)
    sys_b = _factor_system(model_b, args.system_b)
    sys_c = _factor_system(model_c, args.system_c)
    system, product = tfp_blending(sys_b, sys_c, grading, form=args.form)
    labels = product.config.labels
    lines = [f"{len(product.config.points)} points, weights "
             f"({', '.join(rational_str(w) for w in product.weights.weights)})"]
    lines += [
        f"{label} = {list(point)}: {f}"
        for label, point, f in zip(labels, product.config.points, system.functions)
    ]
    json_data = {
        "model": {
            "config": serialize.config_to_json(product.config),
            "weights": [rational_str(w) for w in product.weights.weights],
            "grading": {
                "A": [list(a) for a in model_b.degrees.points],
                "assignment": list(product.assignment()),
            },
        },
        "system": serialize.blending_system_to_json(system),
    }
    _emit(args, lines, json_data)
    return 0


def _load_horn(path: str) -> HornPair:
    model = _load(path)
    if not isinstance(model, HornPair):
        raise SchemaError(f"{path}: expected a Horn pair file")
    return model


def _cmd_horn_tfp(args) -> int:
    pair_b = _load_horn(args.horn_b)
    pair_c = _load_horn(args.horn_c)
    grading_data = serialize.load_json(resolve_input_path(args.grading))
    r, blocks_b, blocks_c = serialize.block_grading_from_json(grading_data, args.grading)
    pair = tfp_horn_pair(pair_b, pair_c, r, blocks_b, blocks_c)
    lines = [format_horn_matrix(pair.matrix)]
    lines.append("lambda: (" + ", ".join(rational_str(c) for c in pair.coefficients) + ")")
    _emit(args, lines, serialize.horn_pair_to_json(pair))
    return 0


def _cmd_horn_validate(args) -> int:
    pair = _load_horn(args.horn)
    report = validate_horn_pair(pair, trials=args.samples, seed=args.seed)
    lines = [
        f"sums_to_one: {'pass' if report.sums_to_one else 'FAIL'}",
        f"positive: {'pass' if report.positive else 'FAIL'}",
        f"symbolic_checked: {report.symbolic_checked}",
    ]
    if report.witness:
        lines.append(f"witness: {report.witness}")
    _emit(args, lines, report.as_dict())
    return 0 if report.valid else 1


def _cmd_horn_minimize(args) -> int:
    pair = _load_horn(args.horn)
    minimized = minimize_horn_pair(pair, strict=args.strict)
    lines = [
        f"rows: {pair.matrix.n_rows} -> {minimized.matrix.n_rows}",
        format_horn_matrix(minimized.matrix),
        "lambda: (" + ", ".join(rational_str(c) for c in minimized.coefficients) + ")",
    ]
    _emit(args, lines, serialize.horn_pair_to_json(minimized))
    return 0


def _cmd_mle(args) -> int:
    model = _load(args.model)
    system = _as_system(model)
    u = _parse_data(args.data, system.config.effective_labels())
    estimate = mle_closed_form(system, u)
    dm = design_matrix(system.config)
    residual = birch_residual(dm, u, estimate)
    ips = ips_fit(dm, system.weights, u, tol=args.tol, max_iter=args.max_iter)
    agreement = max(abs(float(e) - f) for e, f in zip(estimate.probs, ips.distribution.probs))
    lines = [
        "exact: (" + ", ".join(rational_str(p) for p in estimate.probs) + ")",
        "birch_residual: (" + ", ".join(rational_str(r) for r in residual) + ")",
        f"ips: ({', '.join(repr(p) for p in ips.distribution.probs)}) in {ips.iterations} iterations",
        f"ips_agreement: {agreement:.3e}",
    ]
    json_data = {
        "exact": [rational_str(p) for p in estimate.probs],
        "float": list(ips.distribution.probs),
        "birch_residual": [rational_str(r) for r in residual],
        "iterations": ips.iterations,
    }
    _emit(args, lines, json_data)
    return 1 if any(residual) else 0


def _cmd_ips(args) -> int:
    model = _load(args.model)
    system = _as_system(model)
    u = _parse_data(args.data, system.config.effective_labels())
    dm = design_matrix(system.config)
    ips = ips_fit(dm, system.weights, u, tol=args.tol, max_iter=args.max_iter)
    lines = [
        f"fit: ({', '.join(repr(p) for p in ips.distribution.probs)})",
        f"iterations: {ips.iterations}",
        f"residual: {ips.residual:.3e}",
    ]
    json_data = {
        "float": list(ips.distribution.probs),
        "iterations": ips.iterations,
        "residual": ips.residual,
    }
    _emit(args, lines, json_data)
    return 0


def _cmd_patch(args) -> int:
    model = _load(args.system)
    system = _as_system(model)
    point = _parse_point(args.point)
    raw = args.controls
    try:
        control_path = resolve_input_path(raw)
    except SchemaError:
        control_path = None
    if control_path is not None:
        controls = serialize.controls_from_json(serialize.load_json(control_path))
    else:
        controls = [_parse_point(chunk) for chunk in raw.split(";")]
    value = toric_patch_eval(system, controls, point)
    lines = ["value: (" + ", ".join(rational_str(v) for v in value) + ")"]
    _emit(args, lines, {"value": [rational_str(v) for v in value]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json"), default="text")
    common.add_argument("--samples", type=int, default=50, help="sample/trial count for sampled checks")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=float, default=1e-10)
    common.add_argument("--max-iter", type=int, default=10000)
    common.add_argument("--form", choices=("B", "C"), default="B", help="product denominator choice")

    parser = argparse.ArgumentParser(
        prog="toric-precision",
        description="Construct and verify blending systems, fiber products, "
        "Horn pairs, and closed-form maximum likelihood estimators, exactly.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("facets", parents=[common], help="facet description of a configuration's hull")
    p.add_argument("config")
    p.set_defaults(func=_cmd_facets)

    p = sub.add_parser("blend", parents=[common], help="toric blending functions of a model")
    p.add_argument("model")
    p.set_defaults(func=_cmd_blend)

    p = sub.add_parser("verify", parents=[common], help="run the four linear-precision checks")
    p.add_argument("system")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tfp", parents=[common], help="fiber product of two graded models")
    p.add_argument("model_b")
    p.add_argument("model_c")
    p.add_argument("--system-b", default=None, help="blending system file replacing the toric one")
    p.add_argument("--system-c", default=None, help="blending system file replacing the toric one")
    p.set_defaults(func=_cmd_tfp)

    p = sub.add_parser("horn-tfp", parents=[common], help="Horn pair of a fiber product")
    p.add_argument("horn_b")
    p.add_argument("horn_c")
    p.add_argument("grading")
    p.set_defaults(func=_cmd_horn_tfp)

    p = sub.add_parser("horn-validate", parents=[common], help="sum-to-one and positivity of a Horn pair")
    p.add_argument("horn")
    p.set_defaults(func=_cmd_horn_validate)

    p = sub.add_parser("horn-minimize", parents=[common], help="fold proportional rows of a Horn pair")
    p.add_argument("horn")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_horn_minimize)

    p = sub.add_parser("mle", parents=[common], help="closed-form estimate, Birch residual, and IPS cross-check")
    p.add_argument("model")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_mle)

    p = sub.add_parser("ips", parents=[common], help="iterative proportional scaling alone")
    p.add_argument("model")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_ips)

    p = sub.add_parser("patch", parents=[common], help="evaluate a patch at a point for given control points")
    p.add_argument("system")
    p.add_argument("--controls", required=True, help="'a,b;c,d;...' or a JSON file")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_patch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ToricPrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
