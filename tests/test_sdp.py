import numpy as np
import pytest

from cutplane import sdp


def random_problem(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    nc = int(rng.integers(1, 3))
    C = rng.standard_normal((m, m))
    C = (C + C.T) / 2
    A = []
    for _ in range(nc):
        Ai = rng.standard_normal((m, m))
        A.append((Ai + Ai.T) / 2)
    b = rng.standard_normal(nc)
    return sdp.SdpProblem(C=C, A=A, b=b)


def grid_dual(prob, lo=-3.0, hi=3.0, steps=61):
    """brute-force dual optimum on a grid, only workable for ncons <= 2"""
    axes = [np.linspace(lo, hi, steps)] * prob.ncons
    best = np.inf
    for y in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, prob.ncons):
        S = prob.slack(y)
        val = float(prob.b @ y) + prob.K * max(np.linalg.eigvalsh(S)[-1], 0.0) \
            + 0.0
        # dual objective: b^T y + K * max(lambda_max(C - sum y_i A_i), 0)
        best = min(best, val)
    return best


def _symmetric_matrices():
    rng = np.random.default_rng(0)
    for m in range(1, 9):
        Y = rng.standard_normal((m, m))
        yield (Y + Y.T) / 2
    # a top eigenvalue of multiplicity two
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    yield Q @ np.diag([2.0, 2.0, 0.5, -1.0, -3.0]) @ Q.T


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = int(rng.integers(2, 7))
        Y = rng.standard_normal((m, m))
        Y = (Y + Y.T) / 2
        v, lam = sdp.jacobi_max_eig(Y)
        want = np.linalg.eigvalsh(Y)[-1]
        assert abs(lam - want) < 1e-8
        assert abs(float(v @ Y @ v) - want) < 1e-8
        assert abs(np.linalg.norm(v) - 1.0) < 1e-10


def test_max_eigvec_certifies():
    for Y in _symmetric_matrices():
        v, lam = sdp.max_eigvec(Y)
        want = np.linalg.eigvalsh(Y)[-1]
        assert abs(lam - want) < 1e-8
        assert abs(float(v @ Y @ v) - want) < 1e-8
        assert abs(np.linalg.norm(v) - 1.0) < 1e-10
        # the Rayleigh quotient of the returned vector is a certified
        # lower bound and must be close to the true top eigenvalue
        assert float(v @ Y @ v) <= want + 1e-9
        assert lam >= want - 1e-5


def test_scalar_problem_reproduces_lambda_max():
    # one 1x1 constraint forcing y = 0 leaves b^T y + K lambda_max(C)^+
    C = np.array([[2.0, 1.0], [1.0, -1.0]])
    A = [np.zeros((2, 2))]
    b = np.array([0.0])
    prob = sdp.SdpProblem(C=C, A=A, b=b)
    y, val, wit, res = sdp.solve_dual(prob, eps_total=1e-3, seed=0)
    want = prob.K * max(np.linalg.eigvalsh(C)[-1], 0.0)
    assert abs(val - want) < 1e-3 * max(1.0, abs(want))


def test_solve_dual_ignores_seed():
    prob = random_problem(1)
    y0, val0, wit0, _ = sdp.solve_dual(prob, eps_total=1e-2, seed=0)
    y7, val7, wit7, _ = sdp.solve_dual(prob, eps_total=1e-2, seed=7)
    assert np.array_equal(y0, y7)
    assert val0 == val7
    assert len(wit0) == len(wit7)
    assert all(np.array_equal(u, v) for u, v in zip(wit0, wit7))


def test_dual_close_to_grid():
    for seed in (1, 2):
        prob = random_problem(seed)
        if prob.ncons > 2:
            continue
        y, val, wit, res = sdp.solve_dual(prob, eps_total=1e-2, seed=0)
        want = grid_dual(prob)
        assert val <= want + 1e-2 * max(1.0, abs(want)) + 1e-2
        # our y is itself a grid point candidate, so the sandwich holds
        assert val >= want - 1e-2 * max(1.0, abs(want)) - 1e-2


def test_primal_recovery_psd_and_feasible():
    prob = random_problem(1)
    y, val, wit, res = sdp.solve_dual(prob, eps_total=1e-2, seed=0)
    X, g = sdp.recover_primal(prob, wit, y_best=y)
    eig = np.linalg.eigvalsh(X)
    assert eig[0] >= -1e-12  # PSD by construction
    assert np.trace(X) <= prob.K + 1e-9
    feas = sum(abs(prob.b[i] - np.trace(prob.A[i] @ X))
               for i in range(prob.ncons))
    assert feas <= 1e-2
    assert float(np.trace(prob.C @ X)) <= val + 2e-2


def test_project_simplex():
    rng = np.random.default_rng(3)
    for _ in range(30):
        v = rng.standard_normal(int(rng.integers(1, 12)))
        p = sdp._project_simplex(v)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-9
        # projection property: no feasible point is closer
        for _ in range(10):
            q = rng.dirichlet(np.ones(v.size))
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-9
