import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cutplane import linalg
from cutplane.errors import NotPositiveDefinite
from oracles_gaussjordan import reference_leverage


def random_instance(rng, m, n):
    A = rng.standard_normal((m, n))
    s = rng.uniform(0.1, 3.0, size=m)
    lam = float(rng.uniform(0.0, 2.0))
    return A, s, lam


def test_cholesky_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 15))
        B = rng.standard_normal((n + 2, n))
        M = B.T @ B + 0.1 * np.eye(n)
        L, jit = linalg.cholesky_jittered(M)
        assert jit == 0.0
        assert np.allclose(L @ L.T, M, atol=1e-10)


def test_cholesky_rejects_indefinite():
    M = np.diag([1.0, -5.0])
    with pytest.raises(NotPositiveDefinite):
        linalg.cholesky_jittered(M)


def test_cholesky_jitter_rescues_semidefinite():
    # rank deficient but PSD; jitter should kick in rather than raise
    v = np.array([1.0, 2.0, 3.0])
    M = np.outer(v, v)
    L, jit = linalg.cholesky_jittered(M)
    assert jit > 0.0
    assert np.all(np.isfinite(L))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 50), st.integers(1, 20))
def test_leverage_range_and_sum(seed, m, n):
    rng = np.random.default_rng(seed)
    A, s, lam = random_instance(rng, m, n)
    psi = linalg.leverage_exact(A, s, lam)
    assert np.all(psi >= 0.0)
    assert np.all(psi <= 1.0)
    assert np.sum(psi) <= n + 1e-9


def test_leverage_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(15):
        m = int(rng.integers(3, 25))
        n = int(rng.integers(1, min(m, 8) + 1))
        A, s, lam = random_instance(rng, m, n)
        lam = max(lam, 1e-3)
        psi = linalg.leverage_exact(A, s, lam)
        assert np.allclose(psi, reference_leverage(A, s, lam), atol=1e-9)


def test_leverage_permutation_equivariant():
    rng = np.random.default_rng(4)
    A, s, lam = random_instance(rng, 12, 5)
    perm = rng.permutation(12)
    psi = linalg.leverage_exact(A, s, lam)
    psi_p = linalg.leverage_exact(A[perm], s[perm], lam)
    assert np.allclose(psi_p, psi[perm], atol=1e-12)


def test_logdet_pd():
    rng = np.random.default_rng(6)
    B = rng.standard_normal((9, 6))
    M = B.T @ B + 0.2 * np.eye(6)
    sign, want = np.linalg.slogdet(M)
    assert sign > 0
    assert abs(linalg.logdet_pd(M) - want) < 1e-10
