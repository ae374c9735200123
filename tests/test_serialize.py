"""JSON schemas: round trips, dispatch, and field-path error messages."""

import json
import re

import pytest

from toric_precision import serialize
from toric_precision.blending import BlendingSystem, WeightVector
from toric_precision.errors import SchemaError
from toric_precision.geometry import PointConfiguration
from toric_precision.horn import HornPair
from toric_precision.mle import DataVector
from toric_precision.tfp import GradedModel


class TestConfigRoundTrip:
    def test_roundtrip(self, square_config):
        data = serialize.config_to_json(square_config)
        back = serialize.config_from_json(data)
        assert back == square_config

    def test_missing_dim(self):
        with pytest.raises(SchemaError, match="config.dim"):
            serialize.config_from_json({"points": [[0]]})

    def test_bad_point_entry(self):
        with pytest.raises(SchemaError, match=r"points\[1\]\[0\]"):
            serialize.config_from_json({"dim": 1, "points": [[0], ["x"]]})

    @pytest.mark.parametrize("labels", [[], ["a"]])
    def test_label_count_checked(self, labels):
        with pytest.raises(SchemaError, match="^config: label count does not match"):
            serialize.config_from_json({"dim": 1, "points": [[0], [1]], "labels": labels})

    def test_stray_key_rejected(self):
        data = {"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]], "weights": ["1", "1", "1", "-1"]}
        with pytest.raises(SchemaError, match=r"^config\.weights: unknown key"):
            serialize.config_from_json(data)
        with pytest.raises(SchemaError, match=r"^file\.weights: unknown key"):
            serialize.parse_model_data(data)

    @pytest.mark.parametrize("key", ["weights", "Labels", "dimension"])
    def test_stray_key_under_config_rejected(self, square_graded, degree_pair, beta_tilde_system, key):
        model = GradedModel(square_graded, WeightVector.ones(4), degree_pair)
        documents = {
            "model": serialize.graded_model_to_json(model),
            "system": serialize.blending_system_to_json(beta_tilde_system),
        }
        for path, data in documents.items():
            data["config"][key] = 1
            with pytest.raises(SchemaError, match=rf"^{path}\.config\.{key}: unknown key"):
                serialize.parse_model_data(data, path)

    def test_writer_and_fixtures_use_known_keys(self, square_config):
        from toric_precision.cli import resolve_input_path

        labelled = PointConfiguration(2, square_config.points, ("a", "b", "c", "d"))
        for config in (square_config, labelled):
            assert set(serialize.config_to_json(config)) <= {"dim", "points", "labels"}
        for name in ("square.json", "trapezoid.json", "trapezoid_toric.json", "trapezoid_beta_tilde.json", "segment.json"):
            serialize.parse_model_file(resolve_input_path(name))


class TestBlendingSystemRoundTrip:
    def test_roundtrip(self, beta_tilde_system):
        data = serialize.blending_system_to_json(beta_tilde_system)
        back = serialize.blending_system_from_json(data)
        assert back.config == beta_tilde_system.config
        assert back.weights == beta_tilde_system.weights
        assert [(f.numerator, f.denominator) for f in back.functions] == [
            (f.numerator, f.denominator) for f in beta_tilde_system.functions
        ]
        assert back.kind == beta_tilde_system.kind

    def test_nonpositive_weight(self, beta_tilde_system):
        data = serialize.blending_system_to_json(beta_tilde_system)
        data["weights"][2] = "0/3"
        with pytest.raises(SchemaError, match=r"weights\[2\].*positive"):
            serialize.blending_system_from_json(data)

    def test_function_count_mismatch(self, beta_tilde_system):
        data = serialize.blending_system_to_json(beta_tilde_system)
        data["functions"].pop()
        with pytest.raises(SchemaError, match="functions"):
            serialize.blending_system_from_json(data)

    def test_bad_kind(self, beta_tilde_system):
        data = serialize.blending_system_to_json(beta_tilde_system)
        data["kind"] = "fancy"
        with pytest.raises(SchemaError, match="kind"):
            serialize.blending_system_from_json(data)

    def test_duplicate_variables_name_the_field(self, beta_tilde_system):
        data = serialize.blending_system_to_json(beta_tilde_system)
        data["variables"] = ["x", "x"]
        with pytest.raises(SchemaError, match=r"^system\.variables: duplicate variable names"):
            serialize.blending_system_from_json(data)

    def test_missing_variables_take_the_default_names(self, beta_tilde_system):
        data = serialize.blending_system_to_json(beta_tilde_system)
        assert data.pop("variables") == ["y1", "y2"]
        back = serialize.blending_system_from_json(data)
        assert back.variables == ("x1", "x2")
        assert back.functions == tuple(f.placed(("x1", "x2"), 0) for f in beta_tilde_system.functions)

    @pytest.mark.parametrize(
        "names, field",
        [([7, "y"], "[0]: expected an identifier, got 7"), (["y", True], "[1]: expected an identifier, got True"),
         (["x 1", "y"], "[0]: expected an identifier, got 'x 1'"), (["y", "1x"], "[1]: expected an identifier, got '1x'")],
    )
    def test_variables_must_be_identifiers(self, beta_tilde_system, names, field):
        data = serialize.blending_system_to_json(beta_tilde_system)
        data["variables"] = names
        with pytest.raises(SchemaError, match=f"^{re.escape('system.variables' + field)}$"):
            serialize.blending_system_from_json(data)

    def test_polynomial_order_deterministic(self, beta_tilde_system):
        once = serialize.blending_system_to_json(beta_tilde_system)
        again = serialize.blending_system_to_json(beta_tilde_system)
        assert json.dumps(once) == json.dumps(again)


class TestGradedModelRoundTrip:
    def test_roundtrip(self, square_graded, degree_pair):
        from toric_precision.blending import WeightVector

        model = GradedModel(square_graded, WeightVector.ones(4), degree_pair)
        back = serialize.graded_model_from_json(serialize.graded_model_to_json(model))
        assert back.graded == square_graded
        assert back.degrees == degree_pair

    def test_assignment_range(self, square_graded, degree_pair):
        from toric_precision.blending import WeightVector

        model = GradedModel(square_graded, WeightVector.ones(4), degree_pair)
        data = serialize.graded_model_to_json(model)
        data["grading"]["assignment"][0] = 7
        with pytest.raises(SchemaError, match=r"assignment\[0\]"):
            serialize.graded_model_from_json(data)

    def test_ragged_degrees_name_the_field(self, square_graded, degree_pair):
        from toric_precision.blending import WeightVector

        model = GradedModel(square_graded, WeightVector.ones(4), degree_pair)
        data = serialize.graded_model_to_json(model)
        data["grading"]["A"] = [[1, 0], [0]]
        with pytest.raises(
            SchemaError, match=r"^model\.grading\.A: point \(0,\) does not have dimension 2"
        ):
            serialize.graded_model_from_json(data)


class TestHornRoundTrip:
    def test_roundtrip(self, trapezoid_horn):
        back = serialize.horn_pair_from_json(serialize.horn_pair_to_json(trapezoid_horn))
        assert back == trapezoid_horn

    def test_zero_lambda(self, trapezoid_horn):
        data = serialize.horn_pair_to_json(trapezoid_horn)
        data["lambda"][1] = "0"
        with pytest.raises(SchemaError, match=r"lambda\[1\]"):
            serialize.horn_pair_from_json(data)

    def test_duplicate_column_labels(self):
        data = {"H": [[1, 0], [0, 1], [-1, -1]], "lambda": ["-1", "-1"], "column_labels": ["a", "a"]}
        with pytest.raises(SchemaError, match="^horn: column labels must be unique"):
            serialize.horn_pair_from_json(data)

    @pytest.mark.parametrize("labels", [[], ["a"]])
    def test_column_label_count_checked(self, labels):
        data = {"H": [[1, 0], [0, 1], [-1, -1]], "lambda": ["-1", "-1"], "column_labels": labels}
        with pytest.raises(SchemaError, match="^horn: label count does not match column count"):
            serialize.horn_pair_from_json(data)

    def test_nonzero_column_sum(self):
        with pytest.raises(SchemaError, match="column 0"):
            serialize.horn_pair_from_json({"H": [[1, 0], [0, 1]], "lambda": ["1", "1"]})


class TestDataVector:
    def test_positional(self):
        u = serialize.data_vector_from_json([3, 1, 1, 1], ("a", "b", "c", "d"))
        assert u == DataVector((3, 1, 1, 1))

    def test_keyed(self):
        u = serialize.data_vector_from_json(
            {"b": 1, "a": 3, "d": 1, "c": 1}, ("a", "b", "c", "d")
        )
        assert u.counts == (3, 1, 1, 1)

    def test_missing_label(self):
        with pytest.raises(SchemaError, match="missing counts"):
            serialize.data_vector_from_json({"a": 1}, ("a", "b"))

    def test_negative_count(self):
        with pytest.raises(SchemaError):
            serialize.data_vector_from_json([1, -2], ("a", "b"))


class TestDispatch:
    def test_kinds(self, beta_tilde_system, square_graded, degree_pair, trapezoid_horn):
        from toric_precision.blending import WeightVector

        assert isinstance(
            serialize.parse_model_data(serialize.blending_system_to_json(beta_tilde_system)),
            BlendingSystem,
        )
        model = GradedModel(square_graded, WeightVector.ones(4), degree_pair)
        assert isinstance(
            serialize.parse_model_data(serialize.graded_model_to_json(model)), GradedModel
        )
        assert isinstance(
            serialize.parse_model_data(serialize.horn_pair_to_json(trapezoid_horn)), HornPair
        )
        assert isinstance(
            serialize.parse_model_data({"dim": 1, "points": [[0], [1]]}), PointConfiguration
        )

    def test_unknown_shape(self):
        with pytest.raises(SchemaError, match="unrecognized"):
            serialize.parse_model_data({"mystery": 1})

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError, match="invalid JSON"):
            serialize.parse_model_file(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            serialize.parse_model_file(tmp_path / "absent.json")
