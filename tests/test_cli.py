"""Command-line behavior: verbs, exit codes, determinism, fixture resolution."""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import toric_precision
from toric_precision import serialize
from toric_precision.cli import main, resolve_input_path
from toric_precision.errors import SchemaError
from toric_precision.polynomials import RationalFunction
from toric_precision.serialize import blending_system_to_json

from test_mle import perturbed_square


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFixtureResolution:
    def test_packaged_fixture_by_name(self):
        assert resolve_input_path("square.json").exists()

    def test_packaged_fixture_with_prefix(self):
        assert resolve_input_path("fixtures/square.json").exists()

    def test_environment_override(self, tmp_path, monkeypatch):
        special = tmp_path / "square.json"
        special.write_text('{"dim": 1, "points": [[0]]}', encoding="utf-8")
        monkeypatch.setenv("TORIC_PRECISION_FIXTURES", str(tmp_path))
        assert resolve_input_path("square.json") == special

    def test_empty_string_and_directories_are_not_files(self, tmp_path):
        for path in ("", ".", str(tmp_path)):
            with pytest.raises(SchemaError, match="no such file"):
                resolve_input_path(path)

    def test_unknown_path(self, capsys):
        code, _, err = run(capsys, "facets", "no-such-file.json")
        assert code == 2
        assert "no-such-file" in err


class TestFacets:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "facets", "trapezoid.json")
        assert code == 0
        assert "4 facets" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "facets", "square.json", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["facets"]) == 4
        assert data["vertices"] == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_wrong_file_kind(self, capsys):
        code, _, err = run(capsys, "facets", "square.horn.json")
        assert code == 2
        assert "point configuration" in err

    def test_boolean_dim_exits_2(self, capsys, tmp_path):
        # a bool is an int to Python, so a type check alone reads true as dimension 1
        path = tmp_path / "bool_dim.json"
        path.write_text('{"dim": true, "points": [[0], [1]]}', encoding="utf-8")
        for verb in ("facets", "blend"):
            code, out, err = run(capsys, verb, str(path))
            assert (code, out) == (2, "")
            assert err == f"input error: {path}.dim: expected int\n"


class TestVerify:
    def test_beta_tilde_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "trapezoid_beta_tilde.json", "--samples", "20")
        assert code == 0
        assert out.count("pass") == 4

    def test_toric_trapezoid_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "verify", "trapezoid_toric.json", "--samples", "20")
        assert code == 1
        assert "linear_precision: FAIL" in out

    def test_failed_membership_names_a_sample_and_a_kernel_vector(self, capsys, tmp_path):
        data = json.loads(resolve_input_path("trapezoid_beta_tilde.json").read_text(encoding="utf-8"))
        data["weights"] = ["1"] * 5
        path = tmp_path / "unit_weights.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(path), "--samples", "20", "--seed", "2")
        assert code == 1
        line = next(s for s in out.splitlines() if s.startswith("toric_membership"))
        assert line.startswith("toric_membership: FAIL (interior sample ")
        assert "(seed 2) at (" in line and "the binomial of kernel vector (" in line
        assert "interior_positivity: pass" in out

    def test_graded_model_input(self, capsys):
        code, out, _ = run(capsys, "verify", "square.json", "--samples", "20")
        assert code == 0
        assert "linear_precision: pass" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "trapezoid_toric.json", "--samples", "10", "--output", "json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["partition_of_unity"] is True
        assert report["linear_precision"] is False

    @pytest.mark.parametrize(
        "fixture, edit, field",
        [
            ("square.json", lambda d: d["grading"].update(A=[[1, 0], [0]]), ".grading.A: point (0,)"),
            ("trapezoid_beta_tilde.json", lambda d: d.update(variables=["x", "x"]), ".variables: duplicate"),
            ("trapezoid_beta_tilde.json", lambda d: d.update(variables=[7, "y2"]), ".variables[0]: expected an identifier, got 7"),
            ("square.json", lambda d: d["config"].update(labels=[]), ".config: label count does not match"),
        ],
        ids=["ragged-degrees", "duplicate-variables", "non-string-variable", "empty-labels"],
    )
    def test_bad_field_is_named(self, capsys, tmp_path, fixture, edit, field):
        data = json.loads(resolve_input_path(fixture).read_text(encoding="utf-8"))
        edit(data)
        path = tmp_path / fixture
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert f"input error: {path}{field}" in err


    def test_zero_denominator_is_named(self, capsys, tmp_path):
        data = json.loads(resolve_input_path("trapezoid_beta_tilde.json").read_text(encoding="utf-8"))
        data["functions"][2]["den"] = []
        path = tmp_path / "zero_den.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}.functions[2].den: zero denominator\n"

    def test_stray_configuration_key_exits_2(self, capsys, tmp_path):
        # Weights on a bare configuration used to be dropped, and verify
        # passed all four checks for unit weights that were never given.
        path = tmp_path / "stray.json"
        path.write_text(
            '{"dim":2,"points":[[0,0],[1,0],[0,1],[1,1]],"weights":["1","1","1","-1"]}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert f"input error: {path}.weights: unknown key" in err


    def test_no_samples_on_a_toric_built_system(self, capsys):
        # square.json is a graded model, so verify builds a toric system and
        # decides membership and positivity without samples; --samples 0 is
        # still bad input
        code, out, err = run(capsys, "verify", "square.json", "--samples", "0")
        assert code == 2
        assert out == ""
        assert err == "input error: --samples: need at least one sample\n"


class TestLowerDimensionalPoints:
    @pytest.mark.parametrize("verb, extra", [
        ("verify", ()), ("facets", ()), ("blend", ()), ("mle", ("--data", "1,1,1")),
    ])
    @pytest.mark.parametrize("graded", [True, False], ids=["graded-model", "configuration"])
    def test_the_points_field_is_named(self, capsys, tmp_path, verb, extra, graded):
        points = [[0, 0], [1, 1], [2, 2]]
        if graded:
            data = {"config": {"dim": 2, "points": points}, "weights": ["1", "2", "1"],
                    "grading": {"A": [[1]], "assignment": [1, 1, 1]}}
            field = ".config.points"
        else:
            data, field = {"dim": 2, "points": points}, ".points"
        path = tmp_path / "line.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, verb, str(path), *extra)
        assert code == 2
        assert out == ""
        assert err == f"input error: {path}{field}: points affinely span dimension 1 < 2\n"

    @pytest.mark.parametrize("graded, expected", [(True, (0.25, 0.5, 0.25)), (False, (1 / 3,) * 3)],
                             ids=["graded-model", "configuration"])
    def test_ips_needs_no_hull(self, capsys, tmp_path, graded, expected):
        # IPS reads only the design matrix and the weights.
        points = [[0, 0], [1, 1], [2, 2]]
        if graded:
            data = {"config": {"dim": 2, "points": points}, "weights": ["1", "2", "1"],
                    "grading": {"A": [[1]], "assignment": [1, 1, 1]}}
        else:
            data = {"dim": 2, "points": points}
        path = tmp_path / "line.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "ips", str(path), "--data", "1,1,1", "--output", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["float"] == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("factor", [0, 1], ids=["first", "second"])
    def test_tfp_names_the_points_field(self, capsys, tmp_path, factor):
        # The grading check would reject these points too, naming no file.
        data = json.loads(resolve_input_path("square.json").read_text(encoding="utf-8"))
        data["config"]["points"] = [[0, 0], [1, 1], [2, 2], [3, 3]]
        path = tmp_path / "line.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        models = [str(path), "trapezoid.json"] if factor == 0 else ["trapezoid.json", str(path)]
        code, out, err = run(capsys, "tfp", *models)
        assert code == 2
        assert out == ""
        assert err == f"input error: {path}.config.points: points affinely span dimension 1 < 2\n"


class TestStrayKeys:
    def test_renamed_column_labels_exit_2(self, capsys, tmp_path):
        # "labels" is a configuration key; on a Horn pair it used to be
        # ignored, and the columns silently lost their labels.
        data = json.loads(resolve_input_path("square.horn.json").read_text(encoding="utf-8"))
        data["labels"] = data.pop("column_labels")
        path = tmp_path / "square.horn.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "horn-validate", str(path))
        assert code == 2
        assert out == ""
        assert f"input error: {path}.labels: unknown key" in err

    @pytest.mark.parametrize(
        "verb, fixture, edit, field",
        [
            ("verify", "square.json", lambda d: d.update(extra=1), ".extra"),
            ("verify", "square.json", lambda d: d["grading"].update(B=[[1]]), ".grading.B"),
            ("verify", "trapezoid_beta_tilde.json", lambda d: d.update(name="b"), ".name"),
            ("verify", "trapezoid_beta_tilde.json", lambda d: d["functions"][2].update(numerator=[]),
             ".functions[2].numerator"),
            ("horn-validate", "trapezoid.horn.json", lambda d: d.update(kind="horn"), ".kind"),
        ],
        ids=["model", "grading", "system", "function", "horn"],
    )
    def test_every_object_level(self, capsys, tmp_path, verb, fixture, edit, field):
        data = json.loads(resolve_input_path(fixture).read_text(encoding="utf-8"))
        edit(data)
        path = tmp_path / fixture
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run(capsys, verb, str(path))
        assert code == 2
        assert f"input error: {path}{field}: unknown key" in err

    def test_block_grading(self, capsys, tmp_path):
        data = json.loads(resolve_input_path("grading.json").read_text(encoding="utf-8"))
        data["block_index_D"] = [1]
        path = tmp_path / "grading.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run(capsys, "horn-tfp", "square.horn.json", "trapezoid.horn.json", str(path))
        assert code == 2
        assert "grading.json.block_index_D: unknown key (a block grading has A, block_index_B, block_index_C)" in err


class TestBlendAndPatch:
    def test_blend_json_is_loadable_system(self, capsys, tmp_path):
        code, out, _ = run(capsys, "blend", "square.json", "--output", "json")
        assert code == 0
        from toric_precision.serialize import blending_system_from_json

        system = blending_system_from_json(json.loads(out))
        assert len(system.functions) == 4

    def test_patch(self, capsys):
        code, out, _ = run(
            capsys,
            "patch",
            "square.json",
            "--controls",
            "0,0;0,0;0,0;1,1",
            "--point",
            "1/2,1/2",
        )
        assert code == 0
        assert "(1/4, 1/4)" in out

    @pytest.mark.parametrize(
        "controls,field",
        [
            ([1, 2, 3, 4], "[0]: expected a list"),
            ([[1, "a"], [0, 0], [0, 0], [1, 1]], "[0][1]: not a rational number"),
            ([[0.5, 0], [0, 0], [0, 0], [1, 1]], "[0][0]: expected an integer or 'p/q' string"),
        ],
        ids=["point-not-a-list", "bad-coordinate", "float-coordinate"],
    )
    def test_patch_bad_controls_file(self, capsys, tmp_path, controls, field):
        path = tmp_path / "controls.json"
        path.write_text(json.dumps(controls), encoding="utf-8")
        code, out, err = run(
            capsys, "patch", "square.json", "--controls", str(path), "--point", "1/2,1/2"
        )
        assert code == 2
        assert out == ""
        # the message names the controls file, then the field inside it
        assert f"input error: {path}{field}" in err

    def test_patch_empty_or_directory_controls(self, capsys, tmp_path):
        for controls in ("", str(tmp_path)):
            code, out, err = run(
                capsys, "patch", "square.json", "--controls", controls, "--point", "1/2,1/2"
            )
            assert code == 2
            assert out == ""
            assert f"expected comma-separated rationals, got {controls!r}" in err

    @pytest.mark.parametrize(
        "controls,point,message",
        [
            ("0,0;0,0;0,0;1,1", "1/2", "--point: expected 2 coordinates, got 1"),
            ("0,0;0,0;0,0;1,1", "1/2,y", "--point: expected comma-separated rationals, got '1/2,y'"),
            ("0,0;0,0;1,1", "1/2,1/2", "--controls: expected 4 control points, one per configuration point, got 3"),
            ("0,0;0;0,0;1,1", "1/2,1/2", "--controls: control points must share one dimension"),
        ],
        ids=["point-length", "point-syntax", "control-count", "control-dimension"],
    )
    def test_patch_wrong_length_names_the_flag(self, capsys, controls, point, message):
        code, out, err = run(capsys, "patch", "square.json", "--controls", controls, "--point", point)
        assert (code, out) == (2, "")
        assert err == f"input error: {message}\n"

    def test_patch_wrong_control_count_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "controls.json"
        path.write_text(json.dumps([[0, 0], [0, 0], [1, 1]]), encoding="utf-8")
        code, out, err = run(capsys, "patch", "square.json", "--controls", str(path), "--point", "1/2,1/2")
        assert (code, out) == (2, "")
        assert err == f"input error: {path}: expected 4 control points, one per configuration point, got 3\n"

    def test_patch_controls_file(self, capsys, tmp_path):
        path = tmp_path / "controls.json"
        path.write_text(json.dumps([[0, 0], [0, 0], [0, 0], ["1/2", 1]]), encoding="utf-8")
        code, out, _ = run(
            capsys, "patch", "square.json", "--controls", str(path), "--point", "1/2,1/2"
        )
        assert code == 0
        assert "value: (1/8, 1/4)" in out

    def test_patch_at_a_pole_names_the_point_as_rationals(self, capsys):
        code, out, err = run(
            capsys, "patch", "trapezoid_beta_tilde.json", "--controls", "0,0;0,0;0,0;0,0;1,1", "--point", "2,2"
        )
        assert code == 2
        assert out == ""
        assert err == "error: denominator y2^2 - 4*y2 + 4 vanishes at (2, 2)\n"


class TestTfp:
    def test_product_with_system_override(self, capsys):
        code, out, _ = run(
            capsys,
            "tfp",
            "square.json",
            "trapezoid.json",
            "--system-c",
            "trapezoid_beta_tilde.json",
            "--output",
            "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["model"]["config"]["points"]) == 10
        assert data["model"]["weights"] == ["1", "2", "1", "1", "2", "1", "1", "1", "1", "1"]

    @pytest.mark.parametrize("argv", [
        ("tfp", "square.json", "trapezoid.json", "--system-c", "trapezoid_beta_tilde.json"),
        ("blend", "trapezoid.json"),
    ], ids=["tfp", "blend"])
    def test_only_the_printed_output_is_formatted(self, capsys, monkeypatch, argv):
        calls = []
        to_json, to_text = serialize.blending_system_to_json, RationalFunction.__str__
        monkeypatch.setattr(serialize, "blending_system_to_json", lambda s: calls.append("json") or to_json(s))
        monkeypatch.setattr(RationalFunction, "__str__", lambda f: calls.append("text") or to_text(f))
        for output in ("text", "json"):
            code, out, _ = run(capsys, *argv, "--output", output)
            assert code == 0 and out
            assert set(calls) == {output}
            calls.clear()

    def test_factor_warnings_in_the_cli_format(self, capsys):
        code, out, err = run(capsys, "tfp", "square.json", "trapezoid.json")
        assert code == 0
        assert out.startswith("10 points, weights (1, 2, 1, 1, 2, 1, 1, 1, 1, 1)\n")
        assert err == "warning: second factor lacks linear precision\n"
        assert "FactorPrecisionWarning" not in err and ".py:" not in err

    def test_factor_that_does_not_sum_to_one(self, capsys, tmp_path, square_system):
        doubled = square_system._replace(functions=tuple(2 * f for f in square_system.functions))
        path = tmp_path / "doubled.json"
        path.write_text(json.dumps(blending_system_to_json(doubled)), encoding="utf-8")
        code, _, err = run(
            capsys, "tfp", "square.json", "trapezoid.json", "--system-b", str(path),
            "--system-c", "trapezoid_beta_tilde.json",
        )
        assert code == 0
        assert err == "warning: first factor does not sum to 1\n"

    @pytest.mark.parametrize("form", ["B", "C"])
    def test_factor_with_a_zero_class_sum(self, capsys, tmp_path, square_system, beta_tilde_system, form):
        # Replace one function of a class by minus another: square class 1 is
        # points 0 and 1, trapezoid class 2 is points 3 and 4.
        system, cancelled, factor, i = {
            "B": (square_system, (0, 1), "first", 1),
            "C": (beta_tilde_system, (3, 4), "second", 2),
        }[form]
        functions = list(system.functions)
        functions[cancelled[1]] = -functions[cancelled[0]]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(blending_system_to_json(system._replace(functions=tuple(functions)))), encoding="utf-8")
        systems = {"B": ("--system-b", str(path), "--system-c", "trapezoid_beta_tilde.json"), "C": ("--system-c", str(path))}
        code, out, err = run(capsys, "tfp", "square.json", "trapezoid.json", *systems[form], "--form", form)
        assert code == 2
        assert out == ""
        assert err == (
            f"warning: {factor} factor does not sum to 1\n"
            f"error: the {factor} factor's class-{i} functions sum to 0\n"
        )

    def test_system_weights_must_match_the_model(self, capsys, tmp_path):
        data = json.loads(resolve_input_path("trapezoid_beta_tilde.json").read_text(encoding="utf-8"))
        data["weights"][0] = "3"
        path = tmp_path / "beta_weights.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "tfp", "square.json", "trapezoid.json", "--system-c", str(path))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}.weights: system weights do not match the graded model\n"

    def test_system_points_must_match_the_model(self, capsys, tmp_path):
        data = json.loads(resolve_input_path("trapezoid_beta_tilde.json").read_text(encoding="utf-8"))
        data["config"]["points"][:2] = data["config"]["points"][1::-1]  # the same points, two swapped
        path = tmp_path / "beta_points.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "tfp", "square.json", "trapezoid.json", "--system-c", str(path))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}: system points do not match the graded model\n"

    def test_gap_in_the_assignment(self, capsys, tmp_path):
        data = json.loads(resolve_input_path("square.json").read_text(encoding="utf-8"))
        data["grading"] = {"A": [[1, 0], [0, 1], [1, 1]], "assignment": [1, 1, 3, 3]}
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "tfp", str(path), "trapezoid.json")
        assert code == 2
        assert out == ""
        assert err == f"input error: {path}.grading.assignment: classes [1, 3] leave gaps\n"

    def test_mismatched_degrees(self, capsys, tmp_path, monkeypatch):
        other = {
            "config": {"dim": 1, "points": [[0], [1]]},
            "weights": ["1", "1"],
            "grading": {"A": [[2]], "assignment": [1, 1]},
        }
        path = tmp_path / "other.json"
        path.write_text(json.dumps(other), encoding="utf-8")
        code, _, err = run(capsys, "tfp", "segment.json", str(path))
        assert code == 2
        assert "degree" in err

    def test_different_degree_vectors_name_the_second_file(self, capsys, tmp_path):
        data = json.loads(resolve_input_path("trapezoid.json").read_text(encoding="utf-8"))
        data["grading"]["A"] = [[1], [3]]
        path = tmp_path / "trap_A.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "tfp", "square.json", str(path))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}.grading.A: the degree vectors differ from those of square.json\n"

    @staticmethod
    def first_product(capsys, tmp_path):
        """Model and system files of square x beta-tilde, written by `tfp`."""
        code, out, _ = run(
            capsys, "tfp", "square.json", "trapezoid.json", "--system-c", "trapezoid_beta_tilde.json",
            "--output", "json",
        )
        assert code == 0
        data = json.loads(out)
        model, system = tmp_path / "product_model.json", tmp_path / "product_system.json"
        model.write_text(json.dumps(data["model"]), encoding="utf-8")
        system.write_text(json.dumps(data["system"]), encoding="utf-8")
        return model, system

    def test_product_is_a_factor(self, capsys, tmp_path):
        model, system = self.first_product(capsys, tmp_path)
        code, out, err = run(
            capsys, "tfp", str(model), "square.json", "--system-b", str(system), "--output", "json"
        )
        assert code == 0
        assert err == ""
        data = json.loads(out)
        assert len(data["model"]["config"]["points"]) == 20
        path = tmp_path / "chain_system.json"
        path.write_text(json.dumps(data["system"]), encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 0
        assert out.count(": pass\n") == 4

    def test_product_without_a_system_names_its_points(self, capsys, tmp_path):
        # A toric system needs a hull, and a product's points span a proper
        # subspace; with its system the same model is a factor.
        model, system = self.first_product(capsys, tmp_path)
        code, out, err = run(capsys, "tfp", str(model), "square.json")
        assert code == 2
        assert out == ""
        assert err == f"input error: {model}.config.points: points affinely span dimension 3 < 4\n"
        assert run(capsys, "tfp", str(model), "square.json", "--system-b", str(system))[0] == 0

    def test_ips_on_a_product_model(self, capsys, tmp_path):
        # IPS reads only the design matrix and the weights, so points that
        # span a proper subspace are fine without a system.
        model, system = self.first_product(capsys, tmp_path)
        data = "3,1,4,1,5,9,2,6,5,3"
        code, out, err = run(capsys, "ips", str(model), "--data", data, "--output", "json")
        assert (code, err) == (0, "")
        fit = json.loads(out)["float"]
        code, out, _ = run(capsys, "mle", str(system), "--data", data, "--output", "json")
        assert code == 0
        exact = [Fraction(p) for p in json.loads(out)["exact"]]
        assert max(abs(f - float(e)) for f, e in zip(fit, exact)) < 1e-8


class TestHornVerbs:
    def test_horn_tfp_prints_product_matrix(self, capsys):
        code, out, _ = run(
            capsys, "horn-tfp", "square.horn.json", "trapezoid.horn.json", "grading.json"
        )
        assert code == 0
        assert "lambda: (1, 2, 1, 1, 2, 1, -1, -1, -1, -1)" in out
        assert len(out.splitlines()) == 17  # header + 15 rows + lambda

    def test_horn_tfp_json_roundtrip(self, capsys):
        code, out, _ = run(
            capsys,
            "horn-tfp",
            "square.horn.json",
            "trapezoid.horn.json",
            "grading.json",
            "--output",
            "json",
        )
        assert code == 0
        from toric_precision.serialize import horn_pair_from_json
        from toric_precision.horn import validate_horn_pair

        pair = horn_pair_from_json(json.loads(out))
        assert pair.matrix.n_rows == 15 and pair.n_columns == 10
        assert validate_horn_pair(pair, 25, 0).valid

    def test_horn_validate_pass(self, capsys):
        code, out, _ = run(capsys, "horn-validate", "trapezoid.horn.json")
        assert code == 0
        assert "sums_to_one: pass" in out

    def test_horn_validate_failure_witness(self, capsys, tmp_path):
        bad = {
            "H": [[1, 0], [0, 1], [-1, -1]],
            "lambda": ["-1", "-2"],
        }
        path = tmp_path / "bad.horn.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, out, _ = run(capsys, "horn-validate", str(path))
        assert code == 1
        assert "witness" in out

    def test_horn_validate_duplicate_labels(self, capsys, tmp_path):
        bad = {"H": [[1, 0], [0, 1], [-1, -1]], "lambda": ["-1", "-1"], "column_labels": ["a", "a"]}
        path = tmp_path / "labels.horn.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, out, err = run(capsys, "horn-validate", str(path))
        assert code == 2 and out == ""
        assert f"{path}: column labels must be unique" in err

    def test_horn_validate_empty_labels(self, capsys, tmp_path):
        bad = {"H": [[1, 0], [0, 1], [-1, -1]], "lambda": ["-1", "-1"], "column_labels": []}
        path = tmp_path / "labels.horn.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, out, err = run(capsys, "horn-validate", str(path))
        assert code == 2 and out == ""
        assert f"{path}: label count does not match column count" in err

    def test_horn_validate_no_columns(self, capsys, tmp_path):
        path = tmp_path / "empty.horn.json"
        path.write_text('{"H": [[]], "lambda": []}', encoding="utf-8")
        code, out, err = run(capsys, "horn-validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}: a Horn matrix needs at least one column\n"

    @pytest.mark.parametrize(
        "grading,message",
        [
            ({"A": [[1]], "block_index_B": [], "block_index_C": []}, "first factor has 0 block indices for 4 columns"),
            (
                {"A": [[1, 0], [0, 1]], "block_index_B": [1, 1, 2, 2], "block_index_C": [1, 1, 3, 3]},
                "second factor uses classes [1, 3]",
            ),
        ],
        ids=["length", "class"],
    )
    def test_horn_tfp_bad_block_indices_name_the_grading(self, capsys, tmp_path, grading, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(grading), encoding="utf-8")
        code, out, err = run(capsys, "horn-tfp", "square.horn.json", "square.horn.json", str(path))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}: {message}\n"

    def test_horn_minimize(self, capsys):
        code, out, _ = run(capsys, "horn-minimize", "square.horn.json")
        assert code == 0
        assert "rows: 6 -> 5" in out
        assert "lambda: (4, 4, 4, 4)" in out


class TestMleVerbs:
    def test_mle_square(self, capsys):
        code, out, _ = run(capsys, "mle", "square.json", "--data", "3,1,1,1")
        assert code == 0
        assert "exact: (4/9, 2/9, 2/9, 1/9)" in out
        assert "birch_residual: (0, 0, 0)" in out

    def test_mle_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "mle", "square.json", "--data", "3,1,1,1", "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"exact", "float", "birch_residual", "iterations", "certificate"}
        assert data["exact"] == ["4/9", "2/9", "2/9", "1/9"]
        assert data["certificate"] == "pass"

    def test_mle_custom_system(self, capsys):
        code, out, _ = run(capsys, "mle", "trapezoid_beta_tilde.json", "--data", "1,1,1,1,1")
        assert code == 0
        assert "exact: (3/20, 3/10, 3/20, 1/5, 1/5)" in out

    def test_mle_nonzero_residual_exits_1(self, capsys):
        code, out, _ = run(capsys, "mle", "trapezoid_toric.json", "--data", "1,2,3,4,5")
        assert code == 1
        assert "birch_residual: (0, 52/1015, -12/145)" in out

    def test_mle_estimate_off_the_variety_exits_1(self, capsys, tmp_path, square_system):
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(blending_system_to_json(perturbed_square(square_system))))
        code, out, _ = run(capsys, "mle", str(path), "--data", "3,1,1,1")
        assert code == 1
        lines = out.splitlines()
        assert lines[:2] == ["exact: (38/81, 16/81, 16/81, 11/81)", "birch_residual: (0, 0, 0)"]
        assert lines[-1] == "certificate: FAIL (the binomial of kernel vector (1, -1, -1, 1) fails)"
        code, out, _ = run(capsys, "mle", str(path), "--data", "3,1,1,1", "--output", "json")
        assert (code, json.loads(out)["certificate"]) == (1, "FAIL (the binomial of kernel vector (1, -1, -1, 1) fails)")

    @pytest.mark.parametrize(
        "edit, exact, certificate",
        [
            (lambda f: (f[0] + 1, f[1] - 1, *f[2:]), "(13/9, -7/9, 2/9, 1/9)", "FAIL (entry 1 is -7/9, not positive)"),
            (lambda f: (2 * f[0], *f[1:]), "(8/9, 2/9, 2/9, 1/9)", "FAIL (entries sum to 13/9, not 1)"),
        ],
        ids=["negative-entry", "sum-not-one"],
    )
    def test_values_that_are_no_distribution_fail_the_certificate(
        self, capsys, tmp_path, square_system, edit, exact, certificate
    ):
        # Both systems are valid models that fail verify; their values at the
        # barycenter of (3, 1, 1, 1) are no probability vector.
        path = tmp_path / "system.json"
        path.write_text(json.dumps(blending_system_to_json(square_system._replace(functions=edit(square_system.functions)))))
        assert run(capsys, "verify", str(path))[0] == 1
        code, out, err = run(capsys, "mle", str(path), "--data", "3,1,1,1")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert (lines[0], lines[-1]) == (f"exact: {exact}", f"certificate: {certificate}")
        code, out, err = run(capsys, "mle", str(path), "--data", "3,1,1,1", "--output", "json")
        assert (code, err, json.loads(out)["certificate"]) == (1, "", certificate)

    def test_ips(self, capsys):
        code, out, _ = run(capsys, "ips", "trapezoid.json", "--data", "1,1,1,1,1")
        assert code == 0
        assert "iterations:" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_ips_rejects_bad_tolerance(self, capsys, tol):
        code, out, err = run(capsys, "ips", "trapezoid.json", "--data", "1,2,3,4,5", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tolerance" in err

    @pytest.mark.parametrize("max_iter", ["-1", "0"])
    def test_ips_rejects_max_iter_below_one(self, capsys, max_iter):
        code, out, err = run(
            capsys, "ips", "trapezoid.json", "--data", "1,1,1,1,1", "--max-iter", max_iter
        )
        assert code == 2
        assert out == ""
        assert f"max_iter must be at least 1, got {max_iter}" in err

    @pytest.mark.parametrize("verb", ["mle", "ips"])
    @pytest.mark.parametrize(
        "model, counts, face",
        [("square.json", "0,0,0,5", "['1,1']"), ("trapezoid.json", "1,1,0,0,0", "['0,0', '1,0', '2,0']")],
    )
    def test_boundary_counts_name_the_flag_and_the_face(self, capsys, verb, model, counts, face):
        code, out, err = run(capsys, verb, model, "--data", counts)
        assert (code, out) == (2, "")
        assert err == (
            f"input error: --data: counts ({counts.replace(',', ', ')}) lie on the face of points {face}, "
            "so no positive fit exists\n"
        )

    @pytest.mark.parametrize("verb", ["mle", "ips"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tol", "nan", "tolerance must be positive and finite, got nan"),
            ("--max-iter", "0", "max_iter must be at least 1, got 0"),
        ],
    )
    def test_bad_options_name_their_flag(self, capsys, verb, flag, value, message):
        code, out, err = run(capsys, verb, "trapezoid.json", "--data", "1,1,1,1,1", flag, value)
        assert (code, out) == (2, "")
        assert err == f"input error: {flag}: {message}\n"

    @pytest.mark.parametrize("verb", ["mle", "ips"])
    def test_no_convergence_names_max_iter(self, capsys, verb):
        code, out, err = run(capsys, verb, "square.json", "--data", "3,1,1,1", "--max-iter", "1")
        assert (code, out) == (2, "")
        assert err == "input error: --max-iter: no convergence after 1 iterations (residual 1.092e-01)\n"

    @pytest.mark.parametrize("verb", ["mle", "ips"])
    def test_empty_or_directory_data_reaches_inline_parser(self, capsys, tmp_path, verb):
        for data in ("", str(tmp_path)):
            code, out, err = run(capsys, verb, "square.json", "--data", data)
            assert code == 2
            assert out == ""
            assert f"--data: expected comma-separated integers or a file, got {data!r}" in err

    @pytest.mark.parametrize(
        "counts", [[3, 1, 1, 1], {"1,1": 1, "0,0": 3, "1,0": 1, "0,1": 1}], ids=["array", "object"]
    )
    def test_data_file(self, capsys, tmp_path, counts):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(counts), encoding="utf-8")
        assert run(capsys, "mle", "square.json", "--data", str(path)) == run(capsys, "mle", "square.json", "--data", "3,1,1,1")

    def test_data_file_with_an_unknown_label(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"0,0": 3, "1,0": 1, "0,1": 1, "1,1": 1, "2,2": 1}), encoding="utf-8")
        code, out, err = run(capsys, "mle", "square.json", "--data", str(path))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}: unknown labels ['2,2']\n"

    def test_bad_data_length(self, capsys):
        code, _, err = run(capsys, "mle", "square.json", "--data", "1,2,3")
        assert code == 2
        assert "counts" in err


# Arguments that make each verb run, and a value for each flag.
VERB_ARGS = {
    "facets": ["trapezoid.json"],
    "blend": ["square.json"],
    "verify": ["trapezoid_beta_tilde.json"],
    "tfp": ["square.json", "trapezoid.json", "--system-c", "trapezoid_beta_tilde.json"],
    "horn-tfp": ["square.horn.json", "trapezoid.horn.json", "grading.json"],
    "horn-validate": ["trapezoid.horn.json"],
    "horn-minimize": ["square.horn.json"],
    "mle": ["square.json", "--data", "3,1,1,1"],
    "ips": ["trapezoid.json", "--data", "1,1,1,1,1"],
    "patch": ["square.json", "--controls", "0,0;0,0;0,0;1,1", "--point", "1/2,1/2"],
}
FLAG_VALUES = {
    "--output": "json", "--samples": "7", "--seed": "3", "--tol": "1e-8", "--max-iter": "500", "--form": "C",
}
READ_FLAGS = {
    "verify": {"--samples", "--seed"},
    "mle": {"--tol", "--max-iter"},
    "ips": {"--tol", "--max-iter"},
    "tfp": {"--form"},
}
PAIRS = [(verb, flag) for verb in VERB_ARGS for flag in FLAG_VALUES]
READ_PAIRS = [(verb, flag) for verb, flag in PAIRS if flag == "--output" or flag in READ_FLAGS.get(verb, ())]
UNREAD_PAIRS = [pair for pair in PAIRS if pair not in READ_PAIRS]


class TestFlagsPerVerb:
    def test_counts(self):
        assert (len(READ_PAIRS), len(UNREAD_PAIRS)) == (17, 43)

    @pytest.mark.parametrize("verb, flag", READ_PAIRS, ids=[f"{v}{f}" for v, f in READ_PAIRS])
    def test_read_flag_is_accepted(self, capsys, verb, flag):
        code, out, _ = run(capsys, verb, *VERB_ARGS[verb], flag, FLAG_VALUES[flag])
        assert code == 0
        assert out

    @pytest.mark.parametrize("verb, flag", UNREAD_PAIRS, ids=[f"{v}{f}" for v, f in UNREAD_PAIRS])
    def test_unread_flag_is_a_usage_error(self, capsys, verb, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, *VERB_ARGS[verb], flag, FLAG_VALUES[flag]])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in captured.err

    @pytest.mark.parametrize("argv", [
        ("verify", "trapezoid_beta_tilde.json", "--sam", "5"),
        ("verify", "trapezoid_beta_tilde.json", "--se", "2", "--out", "json"),
        ("ips", "trapezoid.json", "--d", "1", "--max", "3", "--t", "1e-3"),
    ], ids=["verify--sam", "verify--se--out", "ips--d--max--t"])
    def test_abbreviated_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ("verify", "trapezoid_beta_tilde.json", "--samples=5"),
        ("ips", "trapezoid.json", "--data=1,1,1,1,1", "--max-iter=500"),
    ], ids=["verify--samples=", "ips--data=--max-iter="])
    def test_flag_with_its_value_after_an_equals_sign(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "trapezoid_beta_tilde.json", "--samples", "15", "--output", "json"),
            ("mle", "square.json", "--data", "3,1,1,1", "--output", "json"),
            ("horn-tfp", "square.horn.json", "trapezoid.horn.json", "grading.json", "--output", "json"),
            ("blend", "trapezoid.json", "--output", "json"),
        ],
    )
    def test_byte_identical_output(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


def test_closed_pipe_exits_quietly(tmp_path):
    # blend on Bernstein [0,5]^3 prints about 208 KB, well past a pipe
    # buffer, so the writer is still writing when the reader closes its end.
    points = [list(p) for p in itertools.product(range(6), repeat=3)]
    weights = [str(math.prod(math.comb(5, x) for x in p)) for p in points]
    model = {"config": {"dim": 3, "points": points}, "weights": weights,
             "grading": {"A": [[1]], "assignment": [1] * len(points)}}
    path = tmp_path / "bernstein5x3.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    src = str(Path(toric_precision.__file__).resolve().parents[1])
    process = subprocess.Popen(
        [sys.executable, "-m", "toric_precision.cli", "blend", str(path)],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert process.stdout.readline().startswith(b"0,0,0: ")
    process.stdout.close()
    err = process.stderr.read()
    process.stderr.close()
    assert process.wait(timeout=60) == 141
    assert err == b""
