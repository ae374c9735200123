"""Command-line behavior: verbs, exit codes, determinism, fixture resolution."""

import json

import pytest

from toric_precision.cli import main, resolve_input_path


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


class TestVerify:
    def test_beta_tilde_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "trapezoid_beta_tilde.json", "--samples", "20")
        assert code == 0
        assert out.count("pass") == 4

    def test_toric_trapezoid_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "verify", "trapezoid_toric.json", "--samples", "20")
        assert code == 1
        assert "linear_precision: FAIL" in out

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
            ([1, 2, 3, 4], "controls[0]: expected a list"),
            ([[1, "a"], [0, 0], [0, 0], [1, 1]], "controls[0][1]: not a rational number"),
            ([[0.5, 0], [0, 0], [0, 0], [1, 1]], "controls[0][0]: expected an integer or 'p/q' string"),
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
        assert field in err

    def test_patch_controls_file(self, capsys, tmp_path):
        path = tmp_path / "controls.json"
        path.write_text(json.dumps([[0, 0], [0, 0], [0, 0], ["1/2", 1]]), encoding="utf-8")
        code, out, _ = run(
            capsys, "patch", "square.json", "--controls", str(path), "--point", "1/2,1/2"
        )
        assert code == 0
        assert "value: (1/8, 1/4)" in out


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
        code, out, _ = run(capsys, "horn-validate", "trapezoid.horn.json", "--samples", "50")
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
        assert set(data) == {"exact", "float", "birch_residual", "iterations"}
        assert data["exact"] == ["4/9", "2/9", "2/9", "1/9"]

    def test_mle_custom_system(self, capsys):
        code, out, _ = run(capsys, "mle", "trapezoid_beta_tilde.json", "--data", "1,1,1,1,1")
        assert code == 0
        assert "exact: (3/20, 3/10, 3/20, 1/5, 1/5)" in out

    def test_mle_nonzero_residual_exits_1(self, capsys):
        code, out, _ = run(capsys, "mle", "trapezoid_toric.json", "--data", "1,2,3,4,5")
        assert code == 1
        assert "birch_residual: (0, 52/1015, -12/145)" in out

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

    def test_bad_data_length(self, capsys):
        code, _, err = run(capsys, "mle", "square.json", "--data", "1,2,3")
        assert code == 2
        assert "counts" in err


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
