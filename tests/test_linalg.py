import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cutplane import linalg
from cutplane.errors import NotPositiveDefinite
from oracles_gaussjordan import gauss_jordan_inverse, reference_leverage


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
    psi = linalg.leverage_exact(A, s, lam)[0]
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
        psi = linalg.leverage_exact(A, s, lam)[0]
        assert np.allclose(psi, reference_leverage(A, s, lam), atol=1e-9)


def test_leverage_kernel_factors_match_gauss_jordan():
    # slacks spread over 1e-6 .. 3, so G = B^T B + lam I is as badly
    # conditioned as near the certificate; the normal equations lose about
    # cond(G) ulps in psi and cond(L) ulps in the inverse factor
    ulp = np.finfo(float).eps
    rng = np.random.default_rng(8)
    for _ in range(60):
        m = int(rng.integers(3, 30))
        n = int(rng.integers(1, min(m, 8) + 1))
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=1)[:, None]
        s = 10.0 ** rng.uniform(-6.0, 0.5, size=m)
        s[0] = 1e-6
        lam = float(rng.uniform(1e-3, 2.0))
        psi, B, L, Linv = linalg.leverage_exact(A, s, lam)
        G = B.T @ B + lam * np.eye(n)
        assert np.array_equal(B, A / s[:, None])
        assert np.allclose(L @ L.T, G, rtol=0.0, atol=1e-14 * np.max(np.abs(G)))
        ref = gauss_jordan_inverse(L)
        assert np.max(np.abs(Linv - ref)) <= (
            8 * ulp * np.linalg.cond(L) * np.max(np.abs(ref)))
        assert np.max(np.abs(psi - reference_leverage(A, s, lam))) <= (
            8 * ulp * np.linalg.cond(G))


def test_leverage_permutation_equivariant():
    rng = np.random.default_rng(4)
    A, s, lam = random_instance(rng, 12, 5)
    perm = rng.permutation(12)
    psi = linalg.leverage_exact(A, s, lam)[0]
    psi_p = linalg.leverage_exact(A[perm], s[perm], lam)[0]
    assert np.allclose(psi_p, psi[perm], atol=1e-12)
