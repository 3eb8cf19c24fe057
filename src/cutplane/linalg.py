"""Dense symmetric linear algebra used by every solver in the package.

The only factorization in play is Cholesky.  When a matrix that should be
positive definite is numerically on the fence we add an escalating diagonal
jitter rather than give up; genuinely indefinite input still raises.  The
leverage kernel inverts its factor explicitly, so that a solve is a product.

All arithmetic is float64.  Tolerances are explicit, there is no bit
complexity model here.  numpy is the only run-time dependency.
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

    G = B^T B + lambda I with the scaled rows B = A/s.  Returns
    (psi, B, L, Linv): L is the jittered lower Cholesky factor of G and
    Linv its explicit inverse, so G^-1 = Linv^T Linv and psi holds the
    squared row norms of the one product B Linv^T.  Callers keep B, L and
    Linv for the rank-one updates and Newton steps at the same point.
    """
    A = np.asarray(A, dtype=float)
    s = np.asarray(s, dtype=float)
    B = A / s[:, None]
    L, _ = cholesky_jittered(B.T @ B + lam * np.eye(A.shape[1]))
    Linv = np.linalg.inv(L)
    W = B @ Linv.T
    # clamp tiny float drift back into [0, 1]
    psi = np.clip(np.sum(W * W, axis=1), 0.0, 1.0)
    return psi, B, L, Linv
