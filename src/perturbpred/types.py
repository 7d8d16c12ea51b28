"""Core matrix types for perturbation-response modeling.

Orientation conventions used throughout the package:

* Condition matrix ``D`` is n x q: one row per experimental condition, one
  column per drug, entries are (nonnegative) doses.
* Response matrix ``X`` is n x p: one row per condition, one column per
  measured response (protein or phenotype), log-normalized change.
* Target map ``B`` is p x q: ``B[i, j]`` is the direct effect of one unit of
  drug j on response i.
* Interaction matrix comes in two forms.  A-form ``A`` is the structural
  equation parameterization: ``A[i, j]`` is the causal effect of response j
  on response i, and noise-free responses solve ``x = A x + B d``.  W-form
  ``W`` is the dynamical parameterization with decay on the diagonal; the
  two are related by ``W = (A - I)^T``.  Under W-form the predicted response
  row is ``d @ B.T @ (-inv(W))``.

All types are frozen dataclasses wrapping read-only numpy arrays; instances
are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError

# Reject W-form matrices with reciprocal condition number below this when
# inverting for prediction: near-singular solves corrupt downstream fits.
RCOND_MIN = 1e-10

W_FORM = "W-form"
A_FORM = "A-form"


def _as_readonly(values, name, ndim=2):
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _check_finite(arr, name):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")


def duplicate_labels(labels):
    """The labels that occur more than once, in the order they first repeat."""
    seen = set()
    repeated = {}
    for lab in labels:
        if lab in seen:
            repeated[lab] = None
        seen.add(lab)
    return list(repeated)


def _check_unique(labels, what):
    repeated = duplicate_labels(labels)
    if repeated:
        raise ValueError(f"duplicate {what} label: {repeated[0]!r}")


@dataclass(frozen=True)
class ConditionMatrix:
    """n x q matrix of drug doses, one row per experimental condition."""

    values: np.ndarray
    drug_names: tuple

    def __init__(self, values, drug_names: Optional[Sequence[str]] = None):
        arr = _as_readonly(values, "ConditionMatrix")
        _check_finite(arr, "ConditionMatrix")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"ConditionMatrix needs n >= 1 and q >= 1, got {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("drug doses must be nonnegative")
        if drug_names is None:
            drug_names = tuple(f"drug_{j + 1}" for j in range(arr.shape[1]))
        else:
            drug_names = tuple(drug_names)
        if len(drug_names) != arr.shape[1]:
            raise DimensionError(
                f"{len(drug_names)} drug names for {arr.shape[1]} columns"
            )
        _check_unique(drug_names, "drug")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "drug_names", drug_names)

    @property
    def n_conditions(self):
        return self.values.shape[0]

    @property
    def n_drugs(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class ResponseMatrix:
    """n x p matrix of measured responses, aligned row-wise with a ConditionMatrix."""

    values: np.ndarray
    response_names: tuple

    def __init__(self, values, response_names: Optional[Sequence[str]] = None):
        arr = _as_readonly(values, "ResponseMatrix")
        _check_finite(arr, "ResponseMatrix")
        if response_names is None:
            response_names = tuple(f"resp_{j + 1}" for j in range(arr.shape[1]))
        else:
            response_names = tuple(response_names)
        if len(response_names) != arr.shape[1]:
            raise DimensionError(
                f"{len(response_names)} response names for {arr.shape[1]} columns"
            )
        _check_unique(response_names, "response")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "response_names", response_names)

    @property
    def n_conditions(self):
        return self.values.shape[0]

    @property
    def n_responses(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class TargetMap:
    """p x q matrix of known direct drug-on-response effects (row = response)."""

    values: np.ndarray

    def __init__(self, values):
        arr = _as_readonly(values, "TargetMap")
        _check_finite(arr, "TargetMap")
        object.__setattr__(self, "values", arr)

    @property
    def n_responses(self):
        return self.values.shape[0]

    @property
    def n_drugs(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class InteractionMatrix:
    """p x p causal interaction parameters, tagged W-form or A-form."""

    values: np.ndarray
    form: str = W_FORM

    def __init__(self, values, form: str = W_FORM):
        arr = _as_readonly(values, "InteractionMatrix")
        _check_finite(arr, "InteractionMatrix")
        if arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"InteractionMatrix must be square, got {arr.shape}")
        if form not in (W_FORM, A_FORM):
            raise ValueError(f"unknown form {form!r}")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "form", form)

    @property
    def size(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class RegressionCoefficients:
    """q x p matrix R; R[i, j] is the total effect of drug i on response j."""

    values: np.ndarray

    def __init__(self, values):
        arr = _as_readonly(values, "RegressionCoefficients")
        _check_finite(arr, "RegressionCoefficients")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class EdgeMask:
    """p x p boolean mask; True = interaction parameter is free to vary.

    The diagonal is always free in W-form fits (decay must stay estimable),
    so construction forces it to True.
    """

    allowed: np.ndarray

    def __init__(self, allowed):
        arr = np.array(allowed, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"EdgeMask must be square, got {arr.shape}")
        np.fill_diagonal(arr, True)
        arr.setflags(write=False)
        object.__setattr__(self, "allowed", arr)


@dataclass(frozen=True)
class PredictionResult:
    """n x p predicted responses plus a tag naming the producing model family."""

    predicted: np.ndarray
    model_tag: str

    def __init__(self, predicted, model_tag):
        arr = _as_readonly(predicted, "PredictionResult")
        _check_finite(arr, "PredictionResult")
        if model_tag not in ("regression", "causal-linear", "causal-ode"):
            raise ValueError(f"unknown model tag {model_tag!r}")
        object.__setattr__(self, "predicted", arr)
        object.__setattr__(self, "model_tag", model_tag)


def check_paired(D: ConditionMatrix, X: ResponseMatrix):
    """Raise DimensionError unless D and X describe the same conditions."""
    if D.n_conditions != X.n_conditions:
        raise DimensionError(
            f"condition matrix has {D.n_conditions} rows but response matrix "
            f"has {X.n_conditions}"
        )


def check_targets(B: TargetMap, D: ConditionMatrix, X: ResponseMatrix, mask=None):
    """Raise DimensionError unless B maps D's drugs onto X's responses and
    the EdgeMask mask, if given, covers W's p x p entries."""
    if B.values.shape != (X.n_responses, D.n_drugs):
        raise DimensionError(
            f"target map has shape {B.values.shape}, but the data have "
            f"{X.n_responses} responses and {D.n_drugs} drugs"
        )
    p = X.n_responses
    if mask is not None and mask.allowed.shape != (p, p):
        raise DimensionError(f"edge mask has shape {mask.allowed.shape}, but the data's "
                             f"{p} responses give W the shape {(p, p)}")
