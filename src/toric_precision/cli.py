"""Command-line front end.

Every verb loads JSON model files, runs the corresponding library calls,
and prints a text or JSON report.  Exit codes: 0 when the computation
succeeds and every checked property holds, 1 when a property fails (the
report carries a witness), 2 on bad input, 141 when the reader of stdout
closes it early (nothing is printed to stderr).  Output is deterministic
for a fixed seed.

Input paths are resolved literally first, then against the fixture
directory (the TORIC_PRECISION_FIXTURES environment variable when set,
otherwise the fixtures shipped with the package), so
``toric-precision verify fixtures/trapezoid_beta_tilde.json`` works from
anywhere.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from . import serialize
from .blending import (
    BlendingSystem,
    WeightVector,
    toric_blending,
    toric_patch_eval,
    verify_linear_precision,
    verify_partition_of_unity,
    verify_rational_linear_precision,
)
from .errors import (
    BoundaryDataError,
    InconsistentBlockIndexError,
    NotConvergedError,
    NotFullDimensionalError,
    SchemaError,
    ToricPrecisionError,
)
from .geometry import DesignMatrix, LatticePolytope, PointConfiguration, convex_hull_facets, design_matrix
from .horn import (
    HornPair,
    format_horn_matrix,
    minimize_horn_pair,
    tfp_horn_pair,
    validate_horn_pair,
)
from .mle import DataVector, IpsResult, birch_residual, ips_fit, mle_closed_form
from .serialize import rational_str
from .tfp import GradedModel, tfp_blending, validate_multigrading


def _fixture_dir() -> Path:
    # Beside this file rather than through importlib.resources, whose import
    # alone loads inspect on Python 3.12: the package ships as plain files.
    return Path(os.environ.get("TORIC_PRECISION_FIXTURES") or Path(__file__).parent / "fixtures")


def resolve_input_path(path: str) -> Path:
    """Literal file path, else a fixture name (with or without a directory prefix).

    Only regular files count, so ``""`` and directories fall through to the
    SchemaError that lets ``--data`` and ``--controls`` parse inline values.
    """
    candidate = Path(path)
    if candidate.is_file():
        return candidate
    base = _fixture_dir()
    for alternative in (base / path, base / candidate.name):
        if alternative.is_file():
            return alternative
    raise SchemaError(f"cannot read {path}: no such file")


_POINT_MODELS = (GradedModel, BlendingSystem, PointConfiguration)
# What a verb expects in a model file: the model types it accepts and the
# message for a file holding none of them, where {path} is the path as given.
_EXPECTED = {
    "points": (_POINT_MODELS, "{path}: no point configuration in this file"),
    "model": (_POINT_MODELS, "expected a configuration, graded model, or blending system"),
    "graded": (GradedModel, "{path}: expected a graded model (config + weights + grading)"),
    "system": (BlendingSystem, "{path}: expected a blending system file"),
    "horn": (HornPair, "{path}: expected a Horn pair file"),
}


def _load(path: str, expected: str) -> tuple[Any, str]:
    """The model in the file at ``path``, checked against ``_EXPECTED[expected]``,
    and the path it resolved to.  The path is resolved once."""
    kinds, message = _EXPECTED[expected]
    resolved = str(resolve_input_path(path))
    model = serialize.parse_model_file(resolved)
    if not isinstance(model, kinds):
        raise SchemaError(message.format(path=path))
    return model, resolved


def _hull(model, path: str) -> LatticePolytope:
    """Hull of a model's points; points spanning too little are bad input at their field."""
    if isinstance(model, PointConfiguration):
        config, field = model, f"{path}.points"
    else:
        config, field = model.config, f"{path}.config.points"
    try:
        return convex_hull_facets(config)
    except NotFullDimensionalError as exc:
        raise SchemaError(f"{field}: {exc}") from None


def _as_system(model, path: str) -> BlendingSystem:
    """A blending system as given, or the toric one of a model ``_load(..., "model")`` returned."""
    if isinstance(model, BlendingSystem):
        return model
    if isinstance(model, GradedModel):
        return toric_blending(_hull(model, path), model.config, model.weights)
    return toric_blending(_hull(model, path), model, WeightVector.ones(len(model.points)))


def _file_or_inline(raw: str) -> Path | None:
    """The file ``raw`` names, or None when it is an inline value."""
    try:
        return resolve_input_path(raw)
    except SchemaError:
        return None


def _parse_data(raw: str, labels) -> DataVector:
    path = _file_or_inline(raw)
    if path is not None:
        return serialize.data_vector_from_json(serialize.load_json(path), labels, str(path))
    try:
        counts = [int(x) for x in raw.split(",")]
    except ValueError:
        raise SchemaError(f"--data: expected comma-separated integers or a file, got {raw!r}") from None
    return serialize.data_vector_from_json(counts, labels, "--data")


def _fit(args, config: PointConfiguration, dm: DesignMatrix, weights: WeightVector, u: DataVector) -> IpsResult:
    """IPS on the configuration's design matrix ``dm``, with each bad input
    named by its flag; a fit that does not converge names ``--max-iter``."""
    try:
        return ips_fit(dm, weights, u, tol=args.tol, max_iter=args.max_iter)
    except NotConvergedError as exc:
        raise SchemaError(f"--max-iter: {exc}") from None
    except BoundaryDataError as exc:
        labels = config.effective_labels()
        face = [labels[j] for j in exc.face]
        message = f"counts {u.counts} lie on the face of points {face}, so no positive fit exists"
        raise SchemaError(f"--data: {message}") from None
    except ValueError as exc:
        # The counts and weights match the design, so an option is at fault.
        flag = "--tol" if str(exc).startswith("tolerance") else "--max-iter"
        raise SchemaError(f"{flag}: {exc}") from None


def _parse_point(raw: str, flag: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(x) for x in raw.split(","))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{flag}: expected comma-separated rationals, got {raw!r}") from None


def _emit(args, text_lines, json_data) -> None:
    """Print the report in the chosen format.  Each argument is a function of
    no arguments that builds its format (the text as an iterable of lines),
    so only the printed one is built."""
    if args.output == "json":
        sys.stdout.write(serialize.dump_json(json_data()))
    else:
        for line in text_lines():
            print(line)


def _cmd_facets(args) -> int:
    poly = _hull(*_load(args.config, "points"))

    def lines():
        yield f"dim {poly.dim}, {len(poly.facets)} facets, {len(poly.vertices)} vertices"
        for normal, offset in poly.facets:
            terms = " + ".join(f"{n}*x{i + 1}" for i, n in enumerate(normal) if n)
            yield f"  {terms} + {offset} >= 0"
        yield "vertices: " + " ".join(str(list(v)) for v in poly.vertices)

    _emit(args, lines, lambda: serialize.polytope_to_json(poly))
    return 0


def _cmd_blend(args) -> int:
    system = _as_system(*_load(args.model, "model"))
    labels = system.config.effective_labels()
    _emit(
        args,
        lambda: [f"{label}: {f}" for label, f in zip(labels, system.functions)],
        lambda: serialize.blending_system_to_json(system),
    )
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise SchemaError("--samples: need at least one sample")
    system = _as_system(*_load(args.system, "model"))
    report = verify_rational_linear_precision(system, samples=args.samples, seed=args.seed)

    def lines():
        for name in ("partition_of_unity", "toric_membership", "interior_positivity", "linear_precision"):
            ok = getattr(report, name)
            line = f"{name}: {'pass' if ok else 'FAIL'}"
            yield line + f" ({report.details[name]})" if not ok and name in report.details else line

    _emit(args, lines, report.as_dict)
    return 0 if report.all_pass else 1


def _factor_system(model: GradedModel, path: str, override: str | None) -> BlendingSystem:
    """A user-supplied system over the model's points and weights, else the
    toric system, whose hull alone needs the points to span their space."""
    if override is None:
        return _as_system(model, path)
    loaded, _ = _load(override, "system")
    if loaded.config.points != model.config.points:
        raise SchemaError(f"{override}: system points do not match the graded model")
    if loaded.weights.weights != model.weights.weights:
        raise SchemaError(f"{override}.weights: system weights do not match the graded model")
    return loaded


def _cmd_tfp(args) -> int:
    model_b, path_b = _load(args.model_b, "graded")
    model_c, path_c = _load(args.model_c, "graded")
    if model_b.degrees.points != model_c.degrees.points:
        raise SchemaError(f"{args.model_c}.grading.A: the degree vectors differ from those of {args.model_b}")
    # Points a toric system cannot span are named at their field before the
    # grading is checked, whose message could name neither file.
    sys_b = _factor_system(model_b, path_b, args.system_b)
    sys_c = _factor_system(model_c, path_c, args.system_c)
    grading = validate_multigrading(model_b.graded, model_c.graded, model_b.degrees)
    for name, factor in (("first", sys_b), ("second", sys_c)):
        if not verify_partition_of_unity(factor):
            print(f"warning: {name} factor does not sum to 1", file=sys.stderr)
        elif not verify_linear_precision(factor):
            print(f"warning: {name} factor lacks linear precision", file=sys.stderr)
    system, product = tfp_blending(sys_b, sys_c, grading, form=args.form)

    def lines():
        weights = ", ".join(rational_str(w) for w in product.weights.weights)
        yield f"{len(product.config.points)} points, weights ({weights})"
        for label, point, f in zip(product.config.labels, product.config.points, system.functions):
            yield f"{label} = {list(point)}: {f}"

    _emit(args, lines, lambda: {
        "model": serialize.graded_model_to_json(product),
        "system": serialize.blending_system_to_json(system),
    })
    return 0


def _cmd_horn_tfp(args) -> int:
    pair_b = _load(args.horn_b, "horn")[0]
    pair_c = _load(args.horn_c, "horn")[0]
    grading_data = serialize.load_json(resolve_input_path(args.grading))
    r, blocks_b, blocks_c = serialize.block_grading_from_json(grading_data, args.grading)
    try:
        pair = tfp_horn_pair(pair_b, pair_c, r, blocks_b, blocks_c)
    except InconsistentBlockIndexError as exc:
        raise SchemaError(f"{args.grading}: {exc}") from None
    _emit(
        args,
        lambda: [format_horn_matrix(pair.matrix), _coefficients_line(pair)],
        lambda: serialize.horn_pair_to_json(pair),
    )
    return 0


def _coefficients_line(pair: HornPair) -> str:
    return "lambda: (" + ", ".join(rational_str(c) for c in pair.coefficients) + ")"


def _cmd_horn_validate(args) -> int:
    pair = _load(args.horn, "horn")[0]
    report = validate_horn_pair(pair)

    def lines():
        yield f"sums_to_one: {'pass' if report.sums_to_one else 'FAIL'}"
        yield f"positive: {'pass' if report.positive else 'FAIL'}"
        yield f"symbolic_checked: {report.symbolic_checked}"
        if report.witness:
            yield f"witness: {report.witness}"

    _emit(args, lines, report.as_dict)
    return 0 if report.valid else 1


def _cmd_horn_minimize(args) -> int:
    pair = _load(args.horn, "horn")[0]
    minimized = minimize_horn_pair(pair, strict=args.strict)
    _emit(
        args,
        lambda: [
            f"rows: {pair.matrix.n_rows} -> {minimized.matrix.n_rows}",
            format_horn_matrix(minimized.matrix),
            _coefficients_line(minimized),
        ],
        lambda: serialize.horn_pair_to_json(minimized),
    )
    return 0


def _cmd_mle(args) -> int:
    system = _as_system(*_load(args.model, "model"))
    u = _parse_data(args.data, system.config.effective_labels())
    estimate = mle_closed_form(system, u)
    dm = design_matrix(system.config)
    residual = birch_residual(dm, u, estimate)
    ips = _fit(args, system.config, dm, system.weights, u)
    agreement = max(abs(float(e) - f) for e, f in zip(estimate.probs, ips.distribution.probs))
    _emit(
        args,
        lambda: [
            "exact: (" + ", ".join(rational_str(p) for p in estimate.probs) + ")",
            "birch_residual: (" + ", ".join(rational_str(r) for r in residual) + ")",
            f"ips: ({', '.join(repr(p) for p in ips.distribution.probs)}) in {ips.iterations} iterations",
            f"ips_agreement: {agreement:.3e}",
        ],
        lambda: {
            "exact": [rational_str(p) for p in estimate.probs],
            "float": list(ips.distribution.probs),
            "birch_residual": [rational_str(r) for r in residual],
            "iterations": ips.iterations,
        },
    )
    return 1 if any(residual) else 0


def _cmd_ips(args) -> int:
    # IPS reads only the design matrix and the weights, so no hull is built.
    model, _ = _load(args.model, "model")
    config = model if isinstance(model, PointConfiguration) else model.config
    weights = WeightVector.ones(len(config.points)) if config is model else model.weights
    u = _parse_data(args.data, config.effective_labels())
    ips = _fit(args, config, design_matrix(config), weights, u)
    _emit(
        args,
        lambda: [
            f"fit: ({', '.join(repr(p) for p in ips.distribution.probs)})",
            f"iterations: {ips.iterations}",
            f"residual: {ips.residual:.3e}",
        ],
        lambda: {"float": list(ips.distribution.probs), "iterations": ips.iterations, "residual": ips.residual},
    )
    return 0


def _cmd_patch(args) -> int:
    system = _as_system(*_load(args.system, "model"))
    point = _parse_point(args.point, "--point")
    if len(point) != system.config.dim:
        raise SchemaError(f"--point: expected {system.config.dim} coordinates, got {len(point)}")
    control_path = _file_or_inline(args.controls)
    if control_path is not None:
        source = str(control_path)
        controls = serialize.controls_from_json(serialize.load_json(control_path), source)
    else:
        source = "--controls"
        controls = [_parse_point(chunk, source) for chunk in args.controls.split(";")]
    try:
        value = toric_patch_eval(system, controls, point)
    except ValueError as exc:  # the point is checked above, so the controls are at fault
        raise SchemaError(f"{source}: {exc}") from None
    _emit(
        args,
        lambda: ["value: (" + ", ".join(rational_str(v) for v in value) + ")"],
        lambda: {"value": [rational_str(v) for v in value]},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Each verb takes exactly the flags it reads; any other flag is a usage error.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", choices=("text", "json"), default="text")
    fitted = argparse.ArgumentParser(add_help=False, parents=[output])
    fitted.add_argument("model")
    fitted.add_argument("--data", required=True)
    fitted.add_argument("--tol", type=float, default=1e-10)
    fitted.add_argument("--max-iter", type=int, default=10000)

    parser = argparse.ArgumentParser(
        prog="toric-precision",
        description="Construct and verify blending systems, fiber products, "
        "Horn pairs, and closed-form maximum likelihood estimators, exactly.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # Each flag has one spelling: a verb's own parser would read "--sam" as "--samples".
    verb = functools.partial(sub.add_parser, allow_abbrev=False)

    p = verb("facets", parents=[output], help="facet description of a configuration's hull")
    p.add_argument("config")
    p.set_defaults(func=_cmd_facets)

    p = verb("blend", parents=[output], help="toric blending functions of a model")
    p.add_argument("model")
    p.set_defaults(func=_cmd_blend)

    p = verb("verify", parents=[output], help="run the four linear-precision checks")
    p.add_argument("system")
    p.add_argument("--samples", type=int, default=50, help="sample count for sampled checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = verb("tfp", parents=[output], help="fiber product of two graded models")
    p.add_argument("model_b")
    p.add_argument("model_c")
    p.add_argument("--system-b", default=None, help="blending system file replacing the toric one")
    p.add_argument("--system-c", default=None, help="blending system file replacing the toric one")
    p.add_argument("--form", choices=("B", "C"), default="B", help="product denominator choice")
    p.set_defaults(func=_cmd_tfp)

    p = verb("horn-tfp", parents=[output], help="Horn pair of a fiber product")
    p.add_argument("horn_b")
    p.add_argument("horn_c")
    p.add_argument("grading")
    p.set_defaults(func=_cmd_horn_tfp)

    p = verb("horn-validate", parents=[output], help="sum-to-one and positivity of a Horn pair")
    p.add_argument("horn")
    p.set_defaults(func=_cmd_horn_validate)

    p = verb("horn-minimize", parents=[output], help="fold proportional rows of a Horn pair")
    p.add_argument("horn")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_horn_minimize)

    p = verb("mle", parents=[fitted], help="closed-form estimate, Birch residual, and IPS cross-check")
    p.set_defaults(func=_cmd_mle)

    p = verb("ips", parents=[fitted], help="iterative proportional scaling alone")
    p.set_defaults(func=_cmd_ips)

    p = verb("patch", parents=[output], help="evaluate a patch at a point for given control points")
    p.add_argument("system")
    p.add_argument("--controls", required=True, help="'a,b;c,d;...' or a JSON file")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_patch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # os.devnull so the flush at exit cannot fail again, and exit with
        # 141 = 128 + SIGPIPE, as a shell reports a process SIGPIPE ended.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
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
