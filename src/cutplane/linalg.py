"""Dense symmetric linear algebra used by every solver in the package.

The only factorization in play is Cholesky.  When a matrix that should be
positive definite is numerically on the fence we add an escalating diagonal
jitter rather than give up; genuinely indefinite input still raises.

All arithmetic is float64.  Tolerances are explicit, there is no bit
complexity model here.
"""

import numpy as np

from .errors import NotPositiveDefinite

# jitter starts at this multiple of the mean diagonal scale and is multiplied
# by 100 on each retry (3 retries total)
_JITTER0 = 1e-12
_JITTER_GROWTH = 100.0
_JITTER_RETRIES = 3


def cholesky_jittered(M):
    """Lower Cholesky factor of M, with escalating jitter on failure.

    Returns (L, jitter_used).  Raises NotPositiveDefinite after 3 retries.
    """
    M = np.asarray(M, dtype=float)
    base = _JITTER0 * np.trace(M) / max(M.shape[0], 1)
    if base <= 0:
        base = _JITTER0
    jitter = 0.0
    for attempt in range(_JITTER_RETRIES + 1):
        try:
            L = np.linalg.cholesky(M + jitter * np.eye(M.shape[0]) if jitter else M)
            return L, jitter
        except np.linalg.LinAlgError:
            jitter = base if jitter == 0.0 else jitter * _JITTER_GROWTH
    raise NotPositiveDefinite(
        "matrix not positive definite after jitter escalation (last jitter %g)" % jitter
    )


def leverage_exact(A, s, lam):
    """Regularized leverage scores psi_i = (a_i/s_i)^T G^-1 (a_i/s_i).

    G = A^T S^-2 A + lambda I.  Computed via n solves against G (the factor
    is reused), never an explicit inverse.
    """
    A = np.asarray(A, dtype=float)
    s = np.asarray(s, dtype=float)
    As = A / s[:, None]
    G = As.T @ As + lam * np.eye(A.shape[1])
    L, _ = cholesky_jittered(G)
    # psi_i = || L^-1 (a_i/s_i) ||^2, row-wise
    W = np.linalg.solve(L, As.T)  # n x m
    psi = np.einsum("ij,ij->j", W, W)
    # clamp tiny float drift back into [0, 1]
    return np.clip(psi, 0.0, 1.0)


def logdet_pd(M):
    """log det of a symmetric PD matrix via its Cholesky factor."""
    L, _ = cholesky_jittered(M)
    return 2.0 * float(np.sum(np.log(np.diag(L))))
