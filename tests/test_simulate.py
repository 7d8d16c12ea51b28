import itertools

import numpy as np
import pytest

from perturbpred.io import export_network
from perturbpred.simulate import (
    EDGE_DISPLAY_THRESHOLD,
    LODO,
    N_CONDITIONS,
    N_DRUGS,
    N_RESPONSES,
    RF,
    RF_MISSPECIFIED_B,
    Scenario,
    ScenarioReport,
    SimSpec,
    build_dag,
    build_design,
    build_targets,
    noiseless_responses,
    run_scenario,
    simulate_responses,
)

from conftest import neumann_propagate, strongest_offdiagonal

TRUE_EDGES = {(1, 0): 1.6, (2, 0): 1.2, (3, 2): 2.0}


class TestBuildDesign:
    def test_dimensions_and_row_sums(self):
        D = build_design()
        assert D.values.shape == (105, 15)
        assert np.all(D.values.sum(axis=1) == 2.0)

    def test_column_sums(self):
        # each drug pairs with each of the other 14 exactly once
        D = build_design()
        assert np.all(D.values.sum(axis=0) == 14.0)

    def test_lexicographic_order(self):
        D = build_design()
        for row, (i, j) in enumerate(itertools.combinations(range(15), 2)):
            assert D.values[row, i] == 1.0 and D.values[row, j] == 1.0

    def test_all_rows_distinct(self):
        D = build_design()
        assert len({tuple(r) for r in D.values}) == 105


class TestBuildTargets:
    def test_single_target_columns(self):
        B = build_targets().values
        assert np.array_equal(B[:, 0], [1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(B[:, :5], np.eye(5))

    def test_pair_column(self):
        B = build_targets().values
        assert np.array_equal(B[:, 5], [0.5, 0.5, 0.0, 0.0, 0.0])

    def test_misspecified_pair_column(self):
        B = build_targets(misspecified=True).values
        assert np.array_equal(B[:, 5], [1.0, 1.0, 0.0, 0.0, 0.0])
        # single-target columns unchanged
        assert np.array_equal(B[:, :5], np.eye(5))


class TestBuildDag:
    def test_edges(self):
        A = build_dag().values
        assert np.count_nonzero(A) == 3
        for (i, j), v in TRUE_EDGES.items():
            assert A[i, j] == v

    def test_acyclic(self):
        # strictly lower triangular, so powers vanish
        A = build_dag().values
        assert np.array_equal(A, np.tril(A, k=-1))
        assert np.all(np.linalg.matrix_power(A, 5) == 0.0)

    def test_propagation_column(self):
        A = build_dag().values
        col = np.linalg.inv(np.eye(5) - A)[:, 0]
        expected = np.array([1.0, 1.6, 1.2, 2.4, 0.0])  # frozen
        assert np.allclose(col, expected, atol=1e-12)
        assert np.allclose(neumann_propagate(A, np.eye(5)[0]), expected, atol=1e-12)


class TestSimulateResponses:
    def test_noiseless_pair_row(self):
        X = simulate_responses(SimSpec(noise_sd=0.0, seed=0))
        # first design row applies drugs 1 and 2 together
        expected = np.array([1.0, 2.6, 1.2, 2.4, 0.0])  # frozen
        u = build_targets().values @ build_design().values[0]
        assert np.allclose(neumann_propagate(build_dag().values, u), expected, atol=1e-12)
        assert np.allclose(X.values[0], expected, atol=1e-12)

    def test_deterministic_per_seed(self):
        a = simulate_responses(SimSpec(seed=7)).values
        b = simulate_responses(SimSpec(seed=7)).values
        c = simulate_responses(SimSpec(seed=8)).values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_scale(self):
        X = simulate_responses(SimSpec(seed=0))
        noise = X.values - noiseless_responses()
        assert abs(np.std(noise) - 0.2) < 0.02

    def test_negative_noise_sd_rejected(self):
        with pytest.raises(ValueError):
            SimSpec(noise_sd=-0.1)


class TestScenario:
    def test_kinds(self):
        Scenario(RF)
        Scenario(RF_MISSPECIFIED_B)
        Scenario(LODO, lodo_drug=3)
        with pytest.raises(ValueError):
            Scenario("holdout")
        with pytest.raises(ValueError):
            Scenario(LODO)
        with pytest.raises(ValueError):
            Scenario(LODO, lodo_drug=15)


class TestRunScenario:
    def test_rf_both_models_accurate(self):
        report = run_scenario(Scenario(RF), SimSpec(seed=0))
        assert report.regression.pearson_r >= 0.95
        assert report.causal.pearson_r >= 0.95
        assert len(report.train_rows) == (2 * N_CONDITIONS) // 3
        assert len(report.test_rows) == N_CONDITIONS - len(report.train_rows)

    def test_misspecified_b_leaves_regression_untouched(self):
        spec = SimSpec(seed=1)
        rf = run_scenario(Scenario(RF), spec)
        mis = run_scenario(Scenario(RF_MISSPECIFIED_B), spec)
        # regression never sees B: identical split, data, and predictions
        assert np.array_equal(rf.train_rows, mis.train_rows)
        assert np.array_equal(rf.regression.predicted, mis.regression.predicted)
        assert rf.regression.pearson_r == mis.regression.pearson_r

    def test_misspecified_b_hurts_causal(self):
        spec = SimSpec(seed=1)
        rf = run_scenario(Scenario(RF), spec)
        mis = run_scenario(Scenario(RF_MISSPECIFIED_B), spec)
        assert mis.causal.pearson_r < rf.causal.pearson_r

    def test_lodo_split_structure(self):
        report = run_scenario(Scenario(LODO, lodo_drug=4), SimSpec(seed=0))
        D = build_design()
        assert np.all(D.values[report.train_rows, 4] == 0.0)
        assert np.all(D.values[report.test_rows, 4] != 0.0)
        assert len(report.test_rows) == 14

    def test_lodo_regression_below_causal(self):
        report = run_scenario(Scenario(LODO, lodo_drug=0), SimSpec(seed=0))
        assert report.regression.pearson_r < report.causal.pearson_r

    def test_network_recovery_flagged_not_forced(self):
        # every seed must find the right support: the three true edges are
        # the three strongest off-diagonal entries.  Exact edge weights are
        # noise-limited at sd 0.2, so they are not asserted per seed
        for seed in range(4):
            A_hat = run_scenario(Scenario(RF), SimSpec(seed=seed)).fitted_network
            assert strongest_offdiagonal(A_hat, len(TRUE_EDGES)) == set(TRUE_EDGES)

    def test_misspecified_b_produces_false_edges(self):
        report = run_scenario(Scenario(RF_MISSPECIFIED_B), SimSpec(seed=0))
        A_hat = report.fitted_network
        false_edges = [
            (i, j)
            for i in range(N_RESPONSES)
            for j in range(N_RESPONSES)
            if i != j
            and (i, j) not in TRUE_EDGES
            and abs(A_hat[i, j]) >= EDGE_DISPLAY_THRESHOLD
        ]
        assert len(false_edges) >= 1

    def test_thresholded_edges_helper(self):
        A = np.zeros((3, 3))
        A[1, 0] = 0.5
        A[0, 2] = 0.1  # below display threshold
        report = ScenarioReport(
            scenario=Scenario(RF),
            spec=SimSpec(),
            train_rows=np.array([0]),
            test_rows=np.array([1]),
            regression=None,
            causal=None,
            fitted_network=A,
        )
        exported = export_network(report.fitted_network, [0, 1, 2], EDGE_DISPLAY_THRESHOLD)
        assert exported.edges == ((0, 1, 0.5),)
