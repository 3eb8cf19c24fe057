"""Dual semidefinite programming through the cutting plane stack.

The dual objective is penalized with a trace cap K:

    fK(y) = b^T y + K * max(lambda_max(C - sum_i y_i A_i), 0)

which is convex, and whose subgradient needs one top eigenvector of the
slack matrix; numpy.linalg.eigh gives it exactly.  Primal recovery
maximizes a concave piecewise-linear program over the simplex spanned by
the rank-one witnesses collected along the dual run, together with the
eigenbasis of the slack at the best dual point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .convopt import minimize
from .oracles import Oracle, subgrad_to_separation


@dataclass
class SdpProblem:
    """The data C, A, b, and the scales derived from them: M bounds every
    norm of the data, K = M + 1 is the trace cap and L = M + 2 the radius
    of the dual box."""
    C: np.ndarray
    A: list                  # list of symmetric m x m matrices
    b: np.ndarray

    def __post_init__(self):
        self.C = np.asarray(self.C, float)
        self.A = [np.asarray(Ai, float) for Ai in self.A]
        self.b = np.asarray(self.b, float)
        self.M = max(1.0, float(np.linalg.norm(self.b)),
                     float(np.linalg.norm(self.C)),
                     *[float(np.linalg.norm(Ai)) for Ai in self.A])
        self.K = self.M + 1.0
        self.L = self.M + 2.0

    @property
    def side(self):
        return self.C.shape[0]

    @property
    def ncons(self):
        return len(self.A)

    def slack(self, y):
        S = self.C.copy()
        for yi, Ai in zip(y, self.A):
            S -= yi * Ai
        return S


def max_eigvec(Y):
    """Top eigenpair (u, lambda_max) of symmetric Y, u of unit length."""
    w, U = np.linalg.eigh(Y)
    return U[:, -1], float(w[-1])


# perfbench/spans.py traces both names
jacobi_max_eig = max_eigvec


def fK_separation(y, problem, eps):
    """Value, separation response and rank-one witness for fK at y."""
    u, lmax = max_eigvec(problem.slack(y))
    n = problem.ncons
    if lmax > 0:
        v = math.sqrt(problem.K) * u
        g = problem.b - np.array([float(v @ Ai @ v) for Ai in problem.A])
        value = float(problem.b @ y) + problem.K * lmax
    else:
        g = problem.b.copy()
        value = float(problem.b @ y)
    D = problem.L * math.sqrt(n)
    return value, subgrad_to_separation(g, D, eps), u


def solve_dual(problem, eps_total=1e-2, seed=0):
    """Minimize fK over the L-box; returns (y, value, witness list, result).

    The eigenvector oracle is exact, so the run is deterministic; seed is
    accepted for interface compatibility and has no effect.
    """
    n = problem.ncons
    witnesses = []
    eig_eps = eps_total / 10.0

    def fn(y):
        value, resp, u = fK_separation(y, problem, eig_eps)
        witnesses.append(u)
        return value, resp

    alpha = eps_total / (7.0 * max(n, 1) * problem.M * problem.K * problem.L)
    alpha = min(max(alpha, 1e-6), 0.5)
    res = minimize(Oracle(fn), n, problem.L, alpha)
    return res.best_x, res.best_value, witnesses, res


def recover_primal(problem, witnesses, y_best=None):
    """X = sum_j alpha_j v_j v_j^T maximizing the penalized primal

        g(alpha) = -L sum_i |b_i - sum_j alpha_j v_j^T A_i v_j|
                   + sum_j alpha_j v_j^T C v_j

    over the simplex scaled by the trace cap.  Concave piecewise linear; it
    is solved as an LP, with subgradient ascent when scipy is missing.
    The witnesses are the unit vectors passed in, preceded, when y_best is
    given, by the eigenvectors of the slack at y_best from the top down.

    A slack coordinate (the zero matrix) joins the simplex so the recovered
    trace can land anywhere in [0, K]; forcing the full cap breaks the
    instances whose optimum does not saturate it.
    """
    V = [np.asarray(v, float) / max(np.linalg.norm(v), 1e-300)
         for v in witnesses]
    # the whole eigenbasis of the slack at the best y leads, top vector
    # first: X* lies in the top eigenspace of S(y*), which may have more
    # than one dimension, and y_best is only near y*
    if y_best is not None:
        _, U = np.linalg.eigh(problem.slack(y_best))
        V = list(U[:, ::-1].T) + V
    # drop near-parallel witnesses, they only slow the ascent down
    kept = []
    for v in V:
        if all(abs(v @ u) < 0.995 for u in kept):
            kept.append(v)
    V = kept
    p = len(V)
    # per-witness quadratic forms, scaled by the trace cap; the trailing
    # zero row is the slack coordinate
    K = problem.K
    W = np.array([[K * float(v @ Ai @ v) for Ai in problem.A]
                  for v in V] + [[0.0] * problem.ncons])     # (p+1) x n
    cw = np.array([K * float(v @ problem.C @ v) for v in V] + [0.0])

    def g_val_grad(a):
        r = problem.b - W.T @ a
        val = -problem.L * float(np.sum(np.abs(r))) + float(cw @ a)
        grad = problem.L * (W @ np.sign(r)) + cw
        return val, grad

    alphas = _lp_simplex_l1(W, cw, problem.b, problem.L)
    if alphas is None:
        # no LP solver around; projected subgradient ascent over the simplex
        a = np.ones(p + 1) / (p + 1)
        best_a, best_val = a.copy(), g_val_grad(a)[0]
        iters = 60000
        for it in range(iters):
            val, grad = g_val_grad(a)
            if val > best_val:
                best_val, best_a = val, a.copy()
            # geometric decay reaches much finer resolution than 1/sqrt(t)
            step = 0.7 ** (it // (iters // 30))
            a = _project_simplex(a + step * grad /
                                 max(np.linalg.norm(grad), 1e-12))
        alphas = best_a
    best_val = g_val_grad(alphas)[0]
    X = np.zeros((problem.side, problem.side))
    for aj, v in zip(alphas[:p], V):
        X += K * aj * np.outer(v, v)
    return X, best_val


def _lp_simplex_l1(W, cw, b, L):
    """Exact maximizer of cw.a - L ||b - W^T a||_1 over the simplex.

    The absolute values unfold into an LP with auxiliary variables t_i;
    subgradient ascent on the same objective stalls around 1e-2 residuals
    on some witness sets, which is not good enough for primal recovery.
    Returns None when scipy is unavailable.
    """
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    q, n = W.shape
    c = np.concatenate([-cw, L * np.ones(n)])
    A_ub = np.block([[W.T, -np.eye(n)], [-W.T, -np.eye(n)]])
    b_ub = np.concatenate([b, -b])
    A_eq = np.concatenate([np.ones(q), np.zeros(n)])[None, :]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (q + n))
    if not res.success:
        return None
    return res.x[:q]


def _project_simplex(v):
    """Euclidean projection onto {a >= 0, sum a = 1}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > (css - 1))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)
