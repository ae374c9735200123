"""The four workloads: set-up, case lists and known-answer checks.

Each workload builds its inputs from the seed in ``setup`` and yields its
cases from ``cases``: (case id, callable returning None when the verdict or
value matches the known answer, else a message).  ``mode`` is "plain" for
the measured passes, "traced" for traced passes, and, for cli-readme only,
"inproc" for untraced in-process passes.  The program is reached only
through module attributes, so a traced pass sees every call.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import types
from contextlib import redirect_stderr, redirect_stdout

import inputs
import oracles
from inputs import FIXTURES, ROOT

SAMPLES = 50  # interior samples per sampled check, the CLI default
TRIALS = 50  # sampled count vectors per Horn validation, the CLI default
HORN_VECTORS = 8  # count vectors per Horn pair
MLE_VECTORS = 20  # count vectors per model
IPS_TOLERANCE = 1e-8


def program() -> types.SimpleNamespace:
    """The program's modules; the first call imports the package."""
    from toric_precision import blending, cli, geometry, horn, linalg, mle, polynomials, serialize, tfp

    return types.SimpleNamespace(
        blending=blending, cli=cli, geometry=geometry, horn=horn, linalg=linalg,
        mle=mle, polynomials=polynomials, serialize=serialize, tfp=tfp,
    )


def trace_targets(P) -> list:
    """(owner, attribute, span name, result hook) for every traced public call."""

    def counter(key):
        return lambda tr, args, result: tr.count(key)

    def terms(tr, args, result):
        system = result[0] if isinstance(result, tuple) else result
        tr.count("polynomials.terms", sum(
            sum(1 for _ in f.numerator) + sum(1 for _ in f.denominator) for f in system.functions
        ))

    def validation(tr, args, result):
        tr.count("horn.validations")
        tr.count("horn.symbolic_validations", int(bool(result.symbolic_checked)))

    b, g, h, m, s = P.blending, P.geometry, P.horn, P.mle, P.serialize
    return [
        (P.polynomials, "sum_rational_functions", "polynomials.sum_rational_functions", None),
        (P.polynomials.RationalFunction, "equals", "polynomials.equals", None),
        (b.BlendingSystem, "evaluate", "polynomials.evaluate", counter("polynomials.evaluate_calls")),
        (P.linalg, "integer_kernel_basis", "linalg.integer_kernel_basis", None),
        (g, "convex_hull_facets", "geometry.convex_hull_facets",
         lambda tr, args, result: tr.count("geometry.facets", len(result.facets))),
        (g, "sample_interior", "geometry.sample_interior", None),
        (b, "toric_blending", "blending.toric_blending", terms),
        (b, "verify_partition_of_unity", "blending.partition_of_unity", None),
        (b, "verify_toric_membership", "blending.toric_membership", None),
        (b, "verify_interior_positivity", "blending.interior_positivity", None),
        (b, "verify_linear_precision", "blending.linear_precision", None),
        (P.tfp, "validate_multigrading", "tfp.validate_multigrading", None),
        (P.tfp, "tfp_blending", "tfp.tfp_blending", terms),
        (P.tfp, "verify_form_agreement", "tfp.form_agreement", None),
        (m, "tfp_mle_combine", "tfp.mle_combine", None),
        (h, "validate_horn_pair", "horn.validate_horn_pair", validation),
        (h, "tfp_horn_pair", "horn.tfp_horn_pair", None),
        (h, "minimize_horn_pair", "horn.minimize_horn_pair", None),
        (h, "horn_parametrize", "horn.horn_parametrize", counter("horn.horn_parametrize_calls")),
        (m, "mle_closed_form", "mle.mle_closed_form", None),
        (m, "birch_residual", "mle.birch_residual", None),
        (m, "log_likelihood", "mle.log_likelihood", None),
        (m, "ips_fit", "mle.ips_fit", lambda tr, args, result: tr.count("mle.ips_iterations", result.iterations)),
        (s, "parse_model_file", "serialize.parse", None),
        (s, "parse_model_data", "serialize.parse", None),
        (s, "load_json", "serialize.parse",
         lambda tr, args, result: tr.count("serialize.bytes", os.path.getsize(args[0]))),
        (s, "dump_json", "serialize.dump",
         lambda tr, args, result: tr.count("serialize.bytes", len(result.encode("utf-8")))),
        (P.cli, "main", "cli.main", None),
    ]


def parse_fixture(P, name: str):
    return P.serialize.parse_model_file(FIXTURES / name)


def parse_text(P, tr, text: str):
    tr.count("serialize.bytes", len(text.encode("utf-8")))
    with tr.span("serialize.parse"):
        return P.serialize.parse_model_data(json.loads(text))


def toric_system(P, config, weights):
    return P.blending.toric_blending(P.geometry.convex_hull_facets(config), config, weights)


def _mismatch(what, got, want) -> str:
    return f"{what}: got {got}, expected {want}"


class HornProduct:
    """Fiber-product Horn pairs: validation, row folding, the map, a corrupted copy."""

    name = "horn-product"
    in_process = True
    trace_modes = ("plain", "traced")

    def setup(self, seed: int, tr, smoke: bool):
        P = program()
        raw = {n: json.loads(inputs.fixture_text(n)) for n in ("square.horn.json", "trapezoid.horn.json", "grading.json")}
        square, trapezoid = parse_fixture(P, "square.horn.json"), parse_fixture(P, "trapezoid.horn.json")
        with tr.span("serialize.parse"):
            r, blocks_b, blocks_c = P.serialize.block_grading_from_json(P.serialize.load_json(FIXTURES / "grading.json"))
        points = {n: [oracles.parse_label(s) for s in raw[n]["column_labels"]] for n in ("square.horn.json", "trapezoid.horn.json")}
        specs = [("square-x-square", square, square, blocks_b, oracles.square_mle, "square.horn.json")]
        if not smoke:
            specs.insert(0, ("square-x-trapezoid", square, trapezoid, blocks_c, oracles.trapezoid_mle, "trapezoid.horn.json"))
        state = types.SimpleNamespace(P=P, seed=seed, specs=[])
        for name, pair_b, pair_c, blocks_second, mle_c, file_c in specs:
            columns = oracles.product_columns(blocks_b, blocks_second)
            rng = inputs.rng_for(seed, f"{self.name}/{name}")
            vectors = inputs.count_vectors(rng, 1 if smoke else HORN_VECTORS, len(columns))
            pts_b, pts_c = points["square.horn.json"], points[file_c]
            expected = [
                oracles.product_mle(columns, lambda c: oracles.square_mle(pts_b, c),
                                    lambda c: mle_c(pts_c, c), len(pts_b), len(pts_c), u)
                for u in vectors
            ]
            rows = len(raw["square.horn.json"]["H"]) + len(raw[file_c]["H"]) + r + 1
            state.specs.append(types.SimpleNamespace(
                name=name, b=pair_b, c=pair_c, r=r, blocks_b=blocks_b, blocks_c=blocks_second,
                shape=(rows, len(columns)), vectors=vectors, expected=expected,
                corruption=inputs.corruption(rng, len(columns)),
            ))
        return state

    def cases(self, st, mode):
        P = st.P

        def validated(pair):
            report = P.horn.validate_horn_pair(pair, trials=TRIALS, seed=st.seed)
            if not (report.valid and report.symbolic_checked):
                return f"valid pair rejected or not checked symbolically: {report}"
            return None

        for spec in st.specs:
            built = {}

            def build(spec=spec, built=built):
                pair = built["pair"] = P.horn.tfp_horn_pair(spec.b, spec.c, spec.r, spec.blocks_b, spec.blocks_c)
                shape = (pair.matrix.n_rows, pair.n_columns)
                return _mismatch("shape", shape, spec.shape) if shape != spec.shape else validated(pair)

            def fold(spec=spec, built=built):
                folded = built["folded"] = P.horn.minimize_horn_pair(built["pair"])
                if folded.matrix.n_rows >= spec.shape[0]:
                    return f"folding kept {folded.matrix.n_rows} of {spec.shape[0]} rows"
                return validated(folded)

            def evaluate(u, want, built=built):
                for key in ("pair", "folded"):
                    got = P.horn.horn_parametrize(built[key], u)
                    if got != want:
                        return _mismatch(f"{key} map at {u}", got, want)
                return None

            def corrupted(spec=spec, built=built):
                pair = built["pair"]
                column, factor = spec.corruption
                coefficients = list(pair.coefficients)
                coefficients[column] *= factor
                report = P.horn.validate_horn_pair(P.horn.HornPair(pair.matrix, tuple(coefficients)), trials=TRIALS, seed=st.seed)
                if report.valid or not report.witness:
                    return f"corrupted pair (column {column} times {factor}) accepted: {report}"
                return None

            yield f"{spec.name}/validate", build
            yield f"{spec.name}/fold", fold
            for n, (u, want) in enumerate(zip(spec.vectors, spec.expected)):
                yield f"{spec.name}/map{n}", lambda u=u, want=want, evaluate=evaluate: evaluate(u, want)
            yield f"{spec.name}/corrupted", corrupted


class VerifyLadder:
    """Build each system and run the four checks; known verdicts from theory."""

    name = "verify-ladder"
    in_process = True
    trace_modes = ("plain", "traced")

    def setup(self, seed: int, tr, smoke: bool):
        P = program()
        rng = inputs.rng_for(seed, self.name)
        fixtures = {n: parse_fixture(P, n) for n in ("square.json", "trapezoid.json", "trapezoid_toric.json", "trapezoid_beta_tilde.json")}
        generated = [(f"box{k}x2-binomial", inputs.box_doc(k, 2, True, rng), oracles.ALL_PASS) for k in (2, 3, 4)]
        generated.append(("box2x2-unit", inputs.box_doc(2, 2, False, rng), oracles.NO_LINEAR_PRECISION))
        generated += [(f"simplex{k}x2", inputs.simplex_doc(k, 2, rng), oracles.ALL_PASS) for k in (2, 3, 4)]
        generated.append(("simplex2x3", inputs.simplex_doc(2, 3, rng), oracles.ALL_PASS))
        generated.append(("box2x3-binomial", inputs.box_doc(2, 3, True, rng), oracles.ALL_PASS))
        if smoke:
            generated = [g for g in generated if g[0] in ("box2x2-unit", "simplex2x2")]
        models = []
        for name, text, verdict in generated:
            doc = json.loads(text)
            tr.count("serialize.bytes", len(text.encode("utf-8")))
            with tr.span("serialize.parse"):
                config = P.serialize.config_from_json(doc["config"])
                weights = P.serialize.weights_from_json(doc["weights"], len(config.points))
            models.append((name, config, weights, verdict))
        return types.SimpleNamespace(P=P, seed=seed, fixtures=fixtures, models=models, smoke=smoke)

    def _verdicts(self, st, system, full_dimensional: bool, mode) -> tuple[bool, ...]:
        b = st.P.blending
        if mode == "traced":
            poly = st.P.geometry.convex_hull_facets(system.config) if full_dimensional else None
            return (
                b.verify_partition_of_unity(system),
                b.verify_toric_membership(system, SAMPLES, st.seed),
                b.verify_interior_positivity(system, poly, SAMPLES, st.seed),
                b.verify_linear_precision(system),
            )
        report = b.verify_rational_linear_precision(system, samples=SAMPLES, seed=st.seed)
        return (report.partition_of_unity, report.toric_membership, report.interior_positivity, report.linear_precision)

    def cases(self, st, mode):
        P, fx = st.P, st.fixtures
        built = {}

        def check(system, want, full_dimensional=True):
            got = self._verdicts(st, system, full_dimensional, mode)
            return _mismatch("verdicts", got, want) if got != want else None

        def square():
            model = fx["square.json"]
            built["square"] = toric_system(P, model.config, model.weights)
            return check(built["square"], oracles.ALL_PASS)

        def product(form):
            model_b, model_c = fx["square.json"], fx["trapezoid.json"]
            if "grading" not in built:
                built["grading"] = P.tfp.validate_multigrading(model_b.graded, model_c.graded, model_b.degrees)
            system, _ = P.tfp.tfp_blending(built["square"], fx["trapezoid_beta_tilde.json"], built["grading"], form=form)
            return check(system, oracles.ALL_PASS, full_dimensional=False)

        def agreement():
            ok = P.tfp.verify_form_agreement(built["square"], fx["trapezoid_beta_tilde.json"], built["grading"], samples=SAMPLES, seed=st.seed)
            return None if ok else "the two denominator forms disagree"

        yield "square", square
        yield "trapezoid-toric", lambda: check(fx["trapezoid_toric.json"], oracles.NO_LINEAR_PRECISION)
        yield "beta-tilde", lambda: check(fx["trapezoid_beta_tilde.json"], oracles.ALL_PASS)
        if not st.smoke:
            yield "product-B", lambda: product("B")
            yield "product-C", lambda: product("C")
            yield "form-agreement", agreement
        for name, config, weights, want in st.models:
            yield name, lambda c=config, w=weights, want=want: check(toric_system(P, c, w), want)


class MleSweep:
    """Closed-form estimates on seeded counts, cross-checked four ways."""

    name = "mle-sweep"
    in_process = True
    trace_modes = ("plain", "traced")

    def setup(self, seed: int, tr, smoke: bool):
        P = program()
        raw = {n: json.loads(inputs.fixture_text(n)) for n in ("square.json", "trapezoid.json", "trapezoid_beta_tilde.json")}
        square, trapezoid = parse_fixture(P, "square.json"), parse_fixture(P, "trapezoid.json")
        beta = parse_fixture(P, "trapezoid_beta_tilde.json")
        horn_square, horn_trapezoid = parse_fixture(P, "square.horn.json"), parse_fixture(P, "trapezoid.horn.json")
        simplex_text = inputs.simplex_doc(3, 2, inputs.rng_for(seed, f"{self.name}/simplex"))
        simplex_doc = json.loads(simplex_text)
        simplex_points = [tuple(p) for p in simplex_doc["config"]["points"]]
        simplex_horn = parse_text(P, tr, inputs.simplex_horn_doc(3, simplex_points))
        tr.count("serialize.bytes", len(simplex_text.encode("utf-8")))
        with tr.span("serialize.parse"):
            simplex_config = P.serialize.config_from_json(simplex_doc["config"])
            simplex_weights = P.serialize.weights_from_json(simplex_doc["weights"], len(simplex_config.points))

        square_system = toric_system(P, square.config, square.weights)
        grading = P.tfp.validate_multigrading(square.graded, trapezoid.graded, square.degrees)
        product_system, _ = P.tfp.tfp_blending(square_system, beta, grading)
        square_labels, beta_labels = raw["square.json"]["config"]["labels"], raw["trapezoid_beta_tilde.json"]["config"]["labels"]
        aligned_square = P.horn.align_horn_to_labels(horn_square, square_labels)
        aligned_trapezoid = P.horn.align_horn_to_labels(horn_trapezoid, beta_labels)
        assignment_b, assignment_c = raw["square.json"]["grading"]["assignment"], raw["trapezoid.json"]["grading"]["assignment"]
        product_horn = P.horn.tfp_horn_pair(aligned_square, aligned_trapezoid, len(raw["square.json"]["grading"]["A"]), assignment_b, assignment_c)

        square_points = [tuple(p) for p in raw["square.json"]["config"]["points"]]
        trapezoid_points = [tuple(p) for p in raw["trapezoid.json"]["config"]["points"]]
        columns = oracles.product_columns(assignment_b, assignment_c)

        def product_oracle(u):
            return oracles.product_mle(
                columns, lambda c: oracles.square_mle(square_points, c),
                lambda c: oracles.trapezoid_mle(trapezoid_points, c), len(square_points), len(trapezoid_points), u,
            )

        # (name, system, Horn pair, oracle, closed form is the MLE, combine with factors)
        models = [
            ("square", square_system, aligned_square, lambda u: oracles.square_mle(square_points, u), True, None),
            ("beta-tilde", beta, aligned_trapezoid, lambda u: oracles.trapezoid_mle(trapezoid_points, u), True, None),
            ("square-x-beta-tilde", product_system, product_horn, product_oracle, True, (square_system, beta, grading)),
            ("simplex3x2", toric_system(P, simplex_config, simplex_weights),
             P.horn.align_horn_to_labels(simplex_horn, simplex_doc["config"]["labels"]),
             lambda u: oracles.simplex_mle(3, simplex_points, u), True, None),
            # Toric weights on the trapezoid lack linear precision: the closed
            # form is not the MLE, which the residual and IPS must expose.
            ("trapezoid-toric", toric_system(P, trapezoid.config, trapezoid.weights), None,
             lambda u: oracles.trapezoid_mle(trapezoid_points, u), False, None),
        ]
        cases = []
        for name, system, pair, oracle, is_mle, factors in models:
            rng = inputs.rng_for(seed, f"{self.name}/{name}")
            dm = P.geometry.design_matrix(system.config)
            for n, u in enumerate(inputs.count_vectors(rng, 1 if smoke else MLE_VECTORS, len(system.config.points))):
                want = oracle(u)
                cases.append(types.SimpleNamespace(
                    id=f"{name}/{n}", system=system, dm=dm, pair=pair, u=u, data=P.mle.DataVector(u),
                    want=want, want_ll=oracles.log_likelihood(u, want), is_mle=is_mle, factors=factors,
                ))
        return types.SimpleNamespace(P=P, cases=cases)

    def _check(self, P, case):
        m = P.mle
        estimate = m.mle_closed_form(case.system, case.data)
        residual = m.birch_residual(case.dm, case.data, estimate)
        ips = m.ips_fit(case.dm, case.system.weights, case.data, tol=1e-10, max_iter=10000)
        ll = m.log_likelihood(case.data, estimate)
        gap = max(abs(float(e) - f) for e, f in zip(case.want, ips.distribution.probs))
        if gap >= IPS_TOLERANCE:
            return f"IPS is {gap:.3e} from the MLE"
        if not case.is_mle:
            if all(r == 0 for r in residual) or estimate.probs == case.want or not ll < case.want_ll:
                return "closed form of a system without linear precision passed as the MLE"
            return None
        if estimate.probs != case.want:
            return _mismatch("closed form", estimate.probs, case.want)
        if any(r != 0 for r in residual):
            return f"nonzero Birch residual {residual}"
        if case.pair is not None and P.horn.horn_parametrize(case.pair, case.u) != case.want:
            return "Horn map differs from the MLE"
        if case.factors is not None:
            sys_b, sys_c, grading = case.factors
            u_b, u_c = m.tfp_marginal_counts(grading, case.data)
            combined = m.tfp_mle_combine(m.mle_closed_form(sys_b, u_b), m.mle_closed_form(sys_c, u_c), grading, case.data)
            if combined.probs != case.want:
                return "combined factor estimates differ from the MLE"
        if abs(ll - case.want_ll) > 1e-9 * abs(case.want_ll):
            return _mismatch("log-likelihood", ll, case.want_ll)
        return None

    def cases(self, st, mode):
        for case in st.cases:
            yield case.id, lambda case=case: self._check(st.P, case)


ENTRY = "import sys; from toric_precision.cli import main; sys.exit(main())"
IMPORT_PROBE = "import time; t = time.perf_counter(); import toric_precision; print(time.perf_counter() - t)"


class CliReadme:
    """Every README command as a fresh subprocess, one at a time."""

    name = "cli-readme"
    in_process = False
    trace_modes = ("plain", "inproc", "traced")

    def setup(self, seed: int, tr, smoke: bool):
        P = program()
        for argv, _, _ in oracles.README_COMMANDS:
            for arg in argv:
                if arg == "grading.json":
                    P.serialize.block_grading_from_json(P.serialize.load_json(FIXTURES / arg))
                elif arg.endswith(".json"):
                    parse_fixture(P, arg)
        commands = list(oracles.README_COMMANDS)
        inputs.rng_for(seed, self.name).shuffle(commands)
        return types.SimpleNamespace(P=P, commands=commands, env=child_env())

    def cases(self, st, mode):
        for argv, code, check in st.commands:
            yield " ".join(argv[:2]), lambda argv=argv, code=code, check=check: self._run(st, mode, argv, code, check)

    def _run(self, st, mode, argv, code, check):
        if mode == "plain":
            proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=ROOT, env=st.env,
                                  capture_output=True, text=True, timeout=120)
            got, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            out_buffer, err_buffer = io.StringIO(), io.StringIO()
            with redirect_stdout(out_buffer), redirect_stderr(err_buffer):
                got = st.P.cli.main(list(argv))
            out, err = out_buffer.getvalue(), err_buffer.getvalue()
        if got != code:
            return f"exit {got}, expected {code}: {err.strip()[-200:]}"
        return None if check(out) else f"output differs from the known answer: {out[:200]!r}"

    def import_seconds(self, st, repeats: int) -> float:
        """Median time of `import toric_precision` in a fresh interpreter."""
        times = []
        for _ in range(repeats):
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=st.env,
                                  capture_output=True, text=True, timeout=120, check=True)
            times.append(float(proc.stdout.strip()))
        return statistics.median(times)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TORIC_PRECISION_FIXTURES", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (HornProduct(), VerifyLadder(), MleSweep(), CliReadme())}
