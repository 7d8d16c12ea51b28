import itertools

import numpy as np
import pytest

from perturbpred.ode import ENVELOPES, OdeModel
from perturbpred.types import A_FORM, InteractionMatrix, TargetMap

# scorecard lines recorded by the acceptance tests, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def bench_dag():
    # three-edge network: 1 -> 2 (1.6), 1 -> 3 (1.2), 3 -> 4 (2.0)
    A = np.zeros((5, 5))
    A[1, 0] = 1.6
    A[2, 0] = 1.2
    A[3, 2] = 2.0
    return InteractionMatrix(A, form=A_FORM)


@pytest.fixture
def bench_targets():
    B = np.zeros((5, 15))
    B[:, :5] = np.eye(5)
    for col, (i, j) in enumerate(itertools.combinations(range(5), 2)):
        B[i, 5 + col] = 0.5
        B[j, 5 + col] = 0.5
    return TargetMap(B)


def neumann_propagate(A, u):
    """Independent oracle: solve x = A x + u for nilpotent/contractive A by
    summing the Neumann series term by term."""
    x = np.array(u, dtype=float)
    term = np.array(u, dtype=float)
    for _ in range(60):
        term = A @ term
        x = x + term
        if np.max(np.abs(term)) < 1e-15:
            break
    return x


def random_stable_w(rng, p, off_scale=0.3):
    """Random W-form matrix with all eigenvalue real parts safely negative."""
    while True:
        W = -np.eye(p) - np.diag(rng.uniform(0.0, 1.0, p))
        W += off_scale * rng.normal(size=(p, p)) * (~np.eye(p, dtype=bool))
        if np.max(np.linalg.eigvals(W).real) < -0.2:
            return W


def continuation_instance(seed):
    """A random steady-state continuation problem drawn from seed.

    Returns (model_at, W, W_near, D): model_at(W) builds the model, W is a
    strongly coupled stable matrix (off-diagonal sd 0.8), W_near = W +
    0.05 N(0, 1), and D holds 1-8 conditions of 1-3 drugs with doses up to
    4.  p is 2-6, epsilon 0.5-2, the clip bound 1.5, and the envelope
    cycles with the seed.
    """
    rng = np.random.default_rng(seed)
    envelope = ENVELOPES[seed % 3]
    p, q, n = int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
    W = random_stable_w(rng, p, off_scale=0.8)
    B = TargetMap(rng.normal(size=(p, q)))
    eps = rng.uniform(0.5, 2.0, p)
    D = rng.uniform(0.0, 4.0, (n, q))
    W_near = W + 0.05 * rng.normal(size=(p, p))

    def model_at(Wv):
        return OdeModel(InteractionMatrix(Wv), B, eps, envelope=envelope, clip_bound=1.5)

    return model_at, W, W_near, D


def random_negdef_w(rng, p):
    """Random symmetric negative definite matrix."""
    Q = rng.normal(size=(p, p))
    return -(Q @ Q.T + np.eye(p))


def strongest_offdiagonal(A, k):
    """The k (row, col) positions with the largest off-diagonal |A|."""
    p = A.shape[0]
    mag = np.where(np.eye(p, dtype=bool), -np.inf, np.abs(A))
    flat = np.argsort(mag, axis=None, kind="stable")[::-1][:k]
    return {(int(i), int(j)) for i, j in zip(*np.unravel_index(flat, A.shape))}
