"""The immutable value classes: record semantics and a light import path."""

import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from toric_precision.blending import BlendingSystem, PrecisionReport, WeightVector
from toric_precision.frozen import Frozen
from toric_precision.geometry import DesignMatrix, LatticePolytope, PointConfiguration
from toric_precision.horn import HornMatrix, HornPair, HornValidationReport
from toric_precision.mle import DataVector, Distribution, IpsResult
from toric_precision.tfp import GradedConfiguration, GradedModel, Multigrading

CLASSES = (
    PointConfiguration, LatticePolytope, DesignMatrix,
    WeightVector, BlendingSystem, PrecisionReport,
    HornMatrix, HornPair, HornValidationReport,
    DataVector, Distribution, IpsResult,
    GradedConfiguration, GradedModel, Multigrading,
)


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, toric_precision.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_are_the_constructor_parameters(cls):
    assert issubclass(cls, Frozen)
    assert tuple(inspect.signature(cls.__init__).parameters)[1:] == cls._fields


def field_names(record):
    """The names of the constructor's parameters."""
    return tuple(inspect.signature(type(record).__init__).parameters)[1:]


@pytest.fixture
def records(square_system, square_poly, square_trapezoid_grading):
    """One hashable record of most classes."""
    horn = HornPair(HornMatrix(((1, 1), (-1, -1))), (1, 1))
    return [
        square_system.config, square_poly, square_system.weights,
        horn, horn.matrix, HornValidationReport(True, False, "u = (1, 1)"),
        DataVector((1, 2)), Distribution((Fraction(1, 3), Fraction(2, 3))),
        GradedConfiguration(square_system.config, (1, 1, 2, 2)), square_trapezoid_grading,
    ]


def test_hash_is_the_hash_of_the_fields(records, square_system):
    for record in records:
        assert hash(record) == hash(tuple(getattr(record, name) for name in field_names(record)))
    with pytest.raises(TypeError, match="unhashable"):
        hash(square_system)  # rational functions are not hashable


def test_equal_values_of_different_classes_are_unequal():
    counts, weights = DataVector((1, 2)), WeightVector((1, 2))
    assert counts.counts == weights.weights
    assert counts != weights and not counts == weights
    assert DataVector((1, 2)) == DataVector([1, 2])


def test_repr():
    assert repr(HornValidationReport(True, True)) == "HornValidationReport(sums_to_one=True, positive=True, witness=None)"
    assert repr(DataVector((1, 2))) == "DataVector(counts=(1, 2))"


def test_assignment_and_deletion_raise(records, square_system):
    for record in [*records, square_system]:
        name = field_names(record)[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_reports_do_not_share_details():
    first, second = PrecisionReport(True, True, True, True), PrecisionReport(True, True, True, True)
    first.details["linear_precision"] = "changed"
    assert second.details == {}


def test_replace_validates_again():
    weights = WeightVector((1, 2))
    assert weights._replace(weights=(3, 4)) == WeightVector((3, 4))
    assert weights._replace() == weights
    with pytest.raises(ValueError, match="weight 1 must be positive"):
        weights._replace(weights=(1, -1))
    with pytest.raises(TypeError):
        weights._replace(counts=(1, 2))
