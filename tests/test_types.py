import numpy as np
import pytest

from perturbpred.errors import DimensionError
from perturbpred.types import (
    A_FORM,
    W_FORM,
    ConditionMatrix,
    EdgeMask,
    InteractionMatrix,
    PredictionResult,
    RegressionCoefficients,
    ResponseMatrix,
    TargetMap,
    check_paired,
    duplicate_labels,
)


class TestConditionMatrix:
    def test_basic_construction(self):
        D = ConditionMatrix([[1.0, 0.0], [0.0, 2.0]], ["a", "b"])
        assert D.n_conditions == 2
        assert D.n_drugs == 2
        assert D.drug_names == ("a", "b")

    def test_negative_dose_rejected(self):
        with pytest.raises(ValueError):
            ConditionMatrix([[-1.0, 0.0]])

    def test_duplicate_drug_names_rejected(self):
        with pytest.raises(ValueError):
            ConditionMatrix([[1.0, 0.0]], ["a", "a"])

    def test_first_repeated_name_is_reported(self):
        with pytest.raises(ValueError, match="duplicate drug label: 'b'"):
            ConditionMatrix([[1.0, 0.0, 0.0, 0.0]], ["a", "b", "b", "a"])

    def test_name_count_mismatch(self):
        with pytest.raises(DimensionError):
            ConditionMatrix([[1.0, 0.0]], ["a"])

    def test_default_names(self):
        D = ConditionMatrix(np.ones((2, 3)))
        assert len(D.drug_names) == 3
        assert len(set(D.drug_names)) == 3

    def test_values_read_only(self):
        D = ConditionMatrix([[1.0, 0.0]])
        with pytest.raises(ValueError):
            D.values[0, 0] = 5.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ConditionMatrix([[np.nan, 0.0]])

    def test_wrong_ndim(self):
        with pytest.raises(DimensionError):
            ConditionMatrix([1.0, 2.0])


class TestResponseMatrix:
    def test_basic(self):
        X = ResponseMatrix([[0.1, -0.2]], ["p1", "p2"])
        assert X.n_responses == 2
        assert X.n_conditions == 1

    def test_negative_values_fine(self):
        # responses are log-changes and may be negative
        X = ResponseMatrix([[-3.0, 0.0]])
        assert X.values[0, 0] == -3.0

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            ResponseMatrix([[1.0, 2.0]], ["p", "p"])


class TestInteractionMatrix:
    def test_forms(self):
        W = InteractionMatrix(-np.eye(3))
        assert W.form == W_FORM
        A = InteractionMatrix(np.zeros((3, 3)), form=A_FORM)
        assert A.form == A_FORM
        assert A.size == 3

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            InteractionMatrix(np.zeros((2, 3)))

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            InteractionMatrix(np.zeros((2, 2)), form="banana")


class TestEdgeMask:
    def test_diagonal_forced_free(self):
        mask = EdgeMask(np.zeros((3, 3), dtype=bool))
        assert np.all(np.diag(mask.allowed))
        assert not mask.allowed[0, 1]

    def test_nonsquare(self):
        with pytest.raises(DimensionError):
            EdgeMask(np.zeros((2, 3), dtype=bool))


class TestPredictionResult:
    def test_tags(self):
        for tag in ("regression", "causal-linear", "causal-ode"):
            r = PredictionResult(np.zeros((2, 2)), tag)
            assert r.model_tag == tag

    def test_bad_tag(self):
        with pytest.raises(ValueError):
            PredictionResult(np.zeros((2, 2)), "oracle")

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            PredictionResult([[np.inf]], "regression")


def test_target_map_shape_properties():
    B = TargetMap(np.ones((5, 15)))
    assert B.n_responses == 5
    assert B.n_drugs == 15


def test_regression_coefficients_read_only():
    R = RegressionCoefficients(np.ones((3, 2)))
    with pytest.raises(ValueError):
        R.values[0, 0] = 2.0


def test_check_paired():
    D = ConditionMatrix(np.ones((3, 2)))
    X_ok = ResponseMatrix(np.ones((3, 4)))
    X_bad = ResponseMatrix(np.ones((2, 4)))
    check_paired(D, X_ok)
    with pytest.raises(DimensionError):
        check_paired(D, X_bad)


def test_duplicate_labels_each_once_in_order_of_first_repeat():
    assert duplicate_labels(["c", "a", "b", "a", "c", "a"]) == ["a", "c"]
    assert duplicate_labels(["x", "y"]) == []
    assert duplicate_labels([f"r{i}" for i in range(5000)] + ["r17"]) == ["r17"]


# the six matrix types that build their values through one constructor check
MATRIX_TYPES = {
    "ConditionMatrix": ConditionMatrix,
    "ResponseMatrix": ResponseMatrix,
    "TargetMap": TargetMap,
    "InteractionMatrix": InteractionMatrix,
    "RegressionCoefficients": RegressionCoefficients,
    "PredictionResult": lambda values: PredictionResult(values, "regression"),
}


@pytest.mark.parametrize("values, error, message", [
    ([[1.0, np.nan], [0.0, 1.0]], ValueError, "contains non-finite entries"),
    ([1.0, 2.0], DimensionError, r"must be 2-dimensional, got shape \(2,\)"),
    (np.ones((2, 2, 2)), DimensionError, r"must be 2-dimensional, got shape \(2, 2, 2\)"),
], ids=["nan", "1-D", "3-D"])
@pytest.mark.parametrize("name", MATRIX_TYPES)
def test_every_matrix_type_refuses_nan_and_other_dimensions(name, values, error, message):
    with pytest.raises(error, match=f"^{name} {message}"):
        MATRIX_TYPES[name](values)
