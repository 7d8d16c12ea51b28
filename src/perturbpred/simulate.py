"""Synthetic benchmark: a 5-response, 15-drug system with a known network.

Five drugs hit a single response at strength 1, ten drugs hit a pair of
responses at strength 0.5 each, and every unordered pair of drugs is applied
once (105 conditions).  The true network has three edges: response 1 drives
response 2 (1.6) and response 3 (1.2), and response 3 drives response 4
(2.0).  Gaussian noise (sd 0.2 by default) is added to the noise-free
structural-equation responses.

Three scenarios compare the regression and causal estimators: random-fold
splits, random-fold with a misspecified target map (pair-drug strengths
reported as 1 instead of 0.5), and leave-one-drug-out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fit import FitConfig
from .linear import w_to_dag
from .types import A_FORM, ConditionMatrix, InteractionMatrix, ResponseMatrix, TargetMap
from .validate import CausalLinearFamily, RegressionFamily, mae, pearson

N_RESPONSES = 5
N_DRUGS = 15
N_CONDITIONS = 105  # C(15, 2)

RF = "RF"
RF_MISSPECIFIED_B = "RF-misspecified-B"
LODO = "LODO"

# Display cutoff for fitted networks: edges smaller than this in absolute
# value are treated as absent.
EDGE_DISPLAY_THRESHOLD = 0.2


@dataclass(frozen=True)
class SimSpec:
    """Benchmark dimensions are fixed; only noise level and seed vary."""

    noise_sd: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class Scenario:
    kind: str
    lodo_drug: Optional[int] = None  # 0-based drug index, required for LODO

    def __post_init__(self):
        if self.kind not in (RF, RF_MISSPECIFIED_B, LODO):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == LODO:
            if self.lodo_drug is None or not 0 <= self.lodo_drug < N_DRUGS:
                raise ValueError(f"LODO needs a drug index in [0, {N_DRUGS})")


def build_design() -> ConditionMatrix:
    """105 x 15 binary design: all unordered drug pairs in lexicographic order."""
    D = np.zeros((N_CONDITIONS, N_DRUGS))
    for row, (i, j) in enumerate(itertools.combinations(range(N_DRUGS), 2)):
        D[row, i] = 1.0
        D[row, j] = 1.0
    return ConditionMatrix(D)


def build_targets(misspecified: bool = False) -> TargetMap:
    """5 x 15 target map: 5 single-target drugs then 10 pair-target drugs.

    Pair-target strengths are 0.5, or 1.0 in the misspecified variant.
    """
    B = np.zeros((N_RESPONSES, N_DRUGS))
    B[:, :N_RESPONSES] = np.eye(N_RESPONSES)
    strength = 1.0 if misspecified else 0.5
    for col, (i, j) in enumerate(itertools.combinations(range(N_RESPONSES), 2)):
        B[i, N_RESPONSES + col] = strength
        B[j, N_RESPONSES + col] = strength
    return TargetMap(B)


def build_dag() -> InteractionMatrix:
    """The true A-form network: 1 -> 2 (1.6), 1 -> 3 (1.2), 3 -> 4 (2.0)."""
    A = np.zeros((N_RESPONSES, N_RESPONSES))
    A[1, 0] = 1.6
    A[2, 0] = 1.2
    A[3, 2] = 2.0
    return InteractionMatrix(A, form=A_FORM)


def noiseless_responses(D: Optional[ConditionMatrix] = None) -> np.ndarray:
    """Structural-equation responses D B^T inv(I - A)^T without noise."""
    if D is None:
        D = build_design()
    B = build_targets()
    A = build_dag().values
    inv = np.linalg.inv(np.eye(N_RESPONSES) - A)
    return D.values @ B.values.T @ inv.T


def simulate_responses(spec: SimSpec, D: Optional[ConditionMatrix] = None) -> ResponseMatrix:
    """Noise-free responses plus i.i.d. N(0, noise_sd^2), seeded by spec.seed."""
    if D is None:
        D = build_design()
    mean = noiseless_responses(D)
    rng = np.random.default_rng(spec.seed)
    noise = rng.normal(0.0, spec.noise_sd, size=mean.shape) if spec.noise_sd > 0 else 0.0
    return ResponseMatrix(mean + noise)


@dataclass(frozen=True)
class ModelScore:
    pearson_r: float
    mae: float
    observed: np.ndarray
    predicted: np.ndarray


@dataclass(frozen=True)
class ScenarioReport:
    scenario: Scenario
    spec: SimSpec
    train_rows: np.ndarray
    test_rows: np.ndarray
    regression: ModelScore
    causal: ModelScore
    fitted_network: np.ndarray  # A-form estimate from the causal fit


def _rf_split(n, rng):
    # 2/3 training, 1/3 test, training size floor(2n/3)
    n_train = (2 * n) // 3
    perm = rng.permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def run_scenario(scenario: Scenario, spec: SimSpec) -> ScenarioReport:
    """Simulate, split, fit both estimators with lambda = 0, and score on test.

    The simulated responses and (for the RF kinds) the split depend only on
    spec.seed, so RF and RF-misspecified-B see identical data and splits and
    the regression arm of the two scenarios is bitwise identical.
    """
    D = build_design()
    X = simulate_responses(spec, D)
    B_fit = build_targets(misspecified=(scenario.kind == RF_MISSPECIFIED_B))

    if scenario.kind == LODO:
        j = scenario.lodo_drug
        used = D.values[:, j] != 0.0
        train = np.flatnonzero(~used)
        test = np.flatnonzero(used)
    else:
        rng = np.random.default_rng(spec.seed + 1)  # split stream, shared by RF kinds
        train, test = _rf_split(N_CONDITIONS, rng)

    D_train = ConditionMatrix(D.values[train], D.drug_names)
    X_train = ResponseMatrix(X.values[train], X.response_names)
    D_test = ConditionMatrix(D.values[test], D.drug_names)
    X_test = X.values[test]

    # regression arm (never uses B)
    held_out = scenario.lodo_drug if scenario.kind == LODO else None
    regression = RegressionFamily()
    R_hat, _ = regression.fit(D_train, X_train, held_out)
    reg_pred = regression.predict(R_hat, D_test)

    # causal arm, warm-started from the least-squares solution when available
    causal = CausalLinearFamily(B_fit, FitConfig(max_iter=5000, tol=1e-12))
    W_hat, _ = causal.fit(D_train, X_train)
    causal_pred = causal.predict(W_hat, D_test)

    return ScenarioReport(
        scenario=scenario,
        spec=spec,
        train_rows=train,
        test_rows=test,
        regression=ModelScore(
            pearson(X_test, reg_pred), mae(X_test, reg_pred), X_test, reg_pred
        ),
        causal=ModelScore(
            pearson(X_test, causal_pred), mae(X_test, causal_pred), X_test, causal_pred
        ),
        fitted_network=w_to_dag(W_hat).values,
    )
