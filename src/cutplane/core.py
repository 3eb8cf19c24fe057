"""Cutting plane method with a hybrid barrier.

The barrier mixes a weighted log-slack term, a regularized log det volume
term and a quadratic anchor:

    p_e(x) = -sum_i (c_e + e_i) log s_i(x)
             + 1/2 log det(A^T S^-2 A + lam I) + (lam/2) ||x||^2

where e = tau - psi(x) is the error of the maintained leverage estimates.
The solver keeps a polytope A x >= b around the target set, recenters with
damped Newton steps against an approximate Hessian, and adds shifted oracle
cuts or drops constraints whose leverage has decayed.  Leverage scores are
computed exactly at every size.  Termination is either a point of the target
set or a certificate that the polytope is thin.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IterationCapExceeded,
    NotUnitVector,
    PreconditionViolated,
    SlackNonpositive,
)
from .linalg import cholesky_jittered, leverage_exact, logdet_pd
from .oracles import Halfspace, Inside


@dataclass(frozen=True)
class CpmParams:
    c_a: float
    c_d: float
    c_e: float
    lam: float
    R: float
    eps: float

    @staticmethod
    def practical(n, R=1.0, eps=1e-4):
        c_a, c_d = 0.1, 0.01
        c_e = c_d / (6.0 * math.log(17.0 * n * R / eps))
        return CpmParams(c_a, c_d, c_e, 1.0 / (c_a * R * R), R, eps)

    def __post_init__(self):
        # ordering constraints that the analysis actually leans on
        if not (self.c_e <= self.c_d <= self.c_a):
            raise PreconditionViolated("need c_e <= c_d <= c_a")


@dataclass
class CpmState:
    A: np.ndarray          # unit rows
    b: np.ndarray
    x: np.ndarray
    tau: np.ndarray
    params: CpmParams
    origin: list = field(default_factory=list)  # "box" | "cut" per row
    k: int = 0

    @property
    def s(self):
        return self.A @ self.x - self.b

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    def check_slack(self):
        s = self.s
        if np.min(s) <= 0:
            raise SlackNonpositive("min slack %g at m=%d" % (np.min(s), self.m))
        return s

    def psi(self):
        return leverage_exact(self.A, self.check_slack(), self.params.lam)

    def copy(self):
        return CpmState(self.A.copy(), self.b.copy(), self.x.copy(),
                        self.tau.copy(), self.params, list(self.origin), self.k)


def initial_state(n, params):
    """Box polytope |x_i| <= R with exact initial leverage estimates."""
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = -params.R * np.ones(2 * n)
    st = CpmState(A, b, np.zeros(n), np.zeros(2 * n), params,
                  origin=["box"] * (2 * n))
    st.tau = st.psi()
    return st


def _gram_chol(st, s=None):
    s = st.check_slack() if s is None else s
    B = st.A / s[:, None]
    G = B.T @ B + st.params.lam * np.eye(st.n)
    L, _ = cholesky_jittered(G)
    return B, L


def potential(st, psi=None):
    s = st.check_slack()
    psi = st.psi() if psi is None else psi
    e = st.tau - psi
    B = st.A / s[:, None]
    G = B.T @ B + st.params.lam * np.eye(st.n)
    return (-np.sum((st.params.c_e + e) * np.log(s))
            + 0.5 * logdet_pd(G)
            + 0.5 * st.params.lam * float(st.x @ st.x))


def gradient(st):
    """Gradient of the potential at (x, tau) with e = tau - psi(x) frozen.

    The log det term's gradient is -A_x^T psi, which cancels against the
    psi hidden inside e, leaving only tau.  No leverage solve needed.
    """
    s = st.check_slack()
    return -st.A.T @ ((st.params.c_e + st.tau) / s) + st.params.lam * st.x


def hessian_weights(st, w):
    """Q(x, w) = A_x^T (c_e I + W) A_x + lam I."""
    s = st.check_slack()
    B = st.A / s[:, None]
    return B.T @ ((st.params.c_e + w)[:, None] * B) + st.params.lam * np.eye(st.n)


def centrality(st, psi=None):
    psi = st.psi() if psi is None else psi
    H = hessian_weights(st, psi)
    g = gradient(st)
    L, _ = cholesky_jittered(H)
    y = np.linalg.solve(L, g)
    return float(np.sqrt(y @ y))


def centering(st, r=200, full_steps=False, exit_floor=None):
    """Damped Newton recentering with a frozen approximate Hessian.

    Runs r steps x <- x - (1/8) Q^-1 grad, updating tau after each step by
    the exact leverage change so e stays put.  Unless full_steps is set,
    stops early once the centrality is far below the entry threshold of
    every downstream consumer.
    """
    p = st.params
    psi0 = st.psi()
    e0 = st.tau - psi0
    if np.max(np.abs(e0)) > p.c_e / 3 + 1e-12:
        warnings.warn("centering entered with ||e||_inf = %g > c_e/3"
                      % np.max(np.abs(e0)))
    # Q is the Hessian at entry, so the first Newton solve is also the
    # entry centrality
    Q = hessian_weights(st, psi0)
    LQ, _ = cholesky_jittered(Q)
    z = np.linalg.solve(LQ, gradient(st))
    delta0 = float(np.sqrt(z @ z))
    thresh = 0.01 * math.sqrt(p.c_e + float(np.min(psi0)))
    if delta0 > thresh * (1 + 1e-9):
        warnings.warn("centering entered with centrality %g > %g"
                      % (delta0, thresh))
    if exit_floor is None:
        exit_floor = 0.3 * 0.01 * math.sqrt(p.c_e + float(np.min(psi0)))

    psi_prev = psi0
    for _ in range(r):
        if not full_steps and float(np.sqrt(z @ z)) <= exit_floor:
            # centrality in the frozen-Q metric; Q tracks the true Hessian
            # closely enough for a stop test
            break
        st.x = st.x - np.linalg.solve(LQ.T, z) / 8.0
        psi_new = st.psi()
        st.tau = st.tau + (psi_new - psi_prev)
        psi_prev = psi_new
        z = np.linalg.solve(LQ, gradient(st))
    return st


def select_refresh_index(st, w):
    return int(np.argmax(np.abs(np.asarray(w) - st.tau)))


def add_cut(st, a):
    """Append the shifted oracle cut a^T x >= a^T x_k - s_new.

    The shift is chosen so the new row's leverage at the current point is
    exactly c_a; tau is patched by the matching rank-one update.
    """
    a = np.asarray(a, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-9:
        raise NotUnitVector("cut direction must be unit norm")
    p = st.params
    s = st.check_slack()
    B, L = _gram_chol(st, s)
    w = np.linalg.solve(L, a)
    s_new = math.sqrt(float(w @ w) / p.c_a)
    psi_a = p.c_a  # by construction

    Ginv_a = np.linalg.solve(L.T, np.linalg.solve(L, a / s_new))
    u = B @ Ginv_a  # m-vector of cross terms
    tau_new = st.tau - (u * u) / (1.0 + psi_a)
    st.A = np.vstack([st.A, a])
    st.b = np.append(st.b, a @ st.x - s_new)
    st.tau = np.append(tau_new, psi_a / (1.0 + psi_a))
    st.origin.append("cut")
    budget = 1 + int(2 * st.n / p.c_d)
    if st.m > budget:
        raise PreconditionViolated("row budget exceeded: %d > %d" % (st.m, budget))
    return st


def remove_cut(st, i, w=None):
    """Drop row i (which must carry the minimum estimate) and patch tau."""
    w = st.tau if w is None else np.asarray(w)
    if i != int(np.argmin(w)):
        raise PreconditionViolated("row %d is not the argmin of w" % i)
    psi = st.psi()
    psi_d = float(psi[i])
    mu_x = float(np.min(psi))
    if not (psi_d <= 1.1 * mu_x + 1e-12 and 1.1 * mu_x <= 0.1 + 1e-12):
        raise PreconditionViolated(
            "removal needs psi_i <= 1.1 mu <= 0.1 (psi_i=%g, mu=%g)" % (psi_d, mu_x))

    s = st.check_slack()
    B, L = _gram_chol(st, s)
    Ginv_a = np.linalg.solve(L.T, np.linalg.solve(L, st.A[i] / s[i]))
    u = B @ Ginv_a
    tau_new = st.tau + (u * u) / (1.0 - psi_d)
    keep = np.arange(st.m) != i
    st.A = st.A[keep]
    st.b = st.b[keep]
    st.tau = tau_new[keep]
    st.origin = [o for j, o in enumerate(st.origin) if keep[j]]
    return st


@dataclass
class Found:
    x: np.ndarray
    iterations: int = 0
    oracle_calls: int = 0
    trace: list = field(default_factory=list)


@dataclass
class ThinCertificate:
    A: np.ndarray
    b: np.ndarray
    pivot: int
    t: np.ndarray              # weights for rows != pivot, aligned with rows
    x: np.ndarray
    residual_norm: float       # || a_pivot + sum t_j a_j ||
    slack_combination: float   # sum t_j s_j
    min_slack: float
    origins: list = field(default_factory=list)  # per-row cut provenance
    iterations: int = 0
    oracle_calls: int = 0
    trace: list = field(default_factory=list)

    def declared_residual_bound(self, params, n):
        return 8.0 * math.sqrt(n) * params.eps / (params.c_a * params.c_e * params.R)

    def declared_slack_bound(self, params, n):
        return (3.0 * n / params.c_e) * self.min_slack


def certificate(st):
    """Thin-width certificate: the pivot row is nearly the negation of a
    nonnegative combination of the others, with small combined slack.
    A burst of centering steps first tightens the point."""
    p = st.params
    burst = int(math.ceil(64.0 * math.log(2.0 * p.R / p.eps)))
    centering(st, r=burst, exit_floor=1e-14)
    s = st.check_slack()
    i = int(np.argmin(s))
    t = (s[i] / s) * (p.c_e + st.tau) / (p.c_e + st.tau[i])
    t[i] = 0.0
    resid = st.A[i] + t @ st.A
    return ThinCertificate(
        A=st.A.copy(), b=st.b.copy(), pivot=i, t=t, x=st.x.copy(),
        residual_norm=float(np.linalg.norm(resid)),
        slack_combination=float(t @ s),
        min_slack=float(s[i]),
        origins=[o[1] if isinstance(o, tuple) else o for o in st.origin],
    )


def run_feasibility(oracle, n, params=None, trace=None):
    """Main loop: refresh one leverage estimate, add or drop a cut, recenter.

    oracle must answer Inside or a (normalized) Halfspace for the target
    set, which the caller promises lives inside the R-box.  Returns Found
    or a ThinCertificate; raises IterationCapExceeded past the hard cap.
    A list passed as trace receives one record per iteration.
    """
    if params is None:
        params = CpmParams.practical(n)
    p = params
    st = initial_state(n, p)
    cap = int(math.ceil(5000 * n * math.log(n * p.R / p.eps)))
    records = [] if trace is None else trace

    for k in range(1, cap + 1):
        st.k = k
        s = st.check_slack()
        if np.min(s) < p.eps:
            cert = certificate(st)
            cert.iterations = k
            cert.oracle_calls = oracle.calls
            cert.trace = records
            return cert

        w = st.psi()
        i_star = select_refresh_index(st, w)
        st.tau[i_star] = w[i_star]

        if float(np.min(w)) <= p.c_d and st.m > st.n + 1:
            i_min = int(np.argmin(w))
            remove_cut(st, i_min, w)
            action = "remove"
        else:
            resp = oracle.query(st.x)
            if isinstance(resp, Inside):
                return Found(st.x.copy(), iterations=k,
                             oracle_calls=oracle.calls, trace=records)
            if not isinstance(resp, Halfspace):
                raise PreconditionViolated("oracle returned %r" % (resp,))
            add_cut(st, -resp.c)
            if resp.meta is not None:
                st.origin[-1] = ("cut", resp.meta)
            action = "add"

        centering(st)
        if trace is not None:
            psi_now = st.psi()
            trace.append({
                "k": k, "m": st.m, "potential": potential(st, psi_now),
                "min_slack": float(np.min(st.s)),
                "centrality": centrality(st, psi_now), "action": action,
                "oracle_calls": oracle.calls,
            })

    raise IterationCapExceeded("no termination within %d iterations" % cap, records)


@dataclass
class Infeasible:
    iterations: int = 0
    oracle_calls: int = 0


def ellipsoid_baseline(oracle, n, R, eps, cap=None):
    """Classical central-cut ellipsoid method, used as a cross-check."""
    x = np.zeros(n)
    P = (R * R * n) * np.eye(n)
    if cap is None:
        cap = int(2 * n * n * math.log(max(R * math.sqrt(n) / eps, 2.0))) + 10 * n * n
    for k in range(1, cap + 1):
        resp = oracle.query(x)
        if isinstance(resp, Inside):
            return Found(x.copy(), iterations=k, oracle_calls=oracle.calls)
        g = resp.c
        Pg = P @ g
        width = math.sqrt(max(float(g @ Pg), 0.0))
        if width <= eps:
            return Infeasible(iterations=k, oracle_calls=oracle.calls)
        x = x - Pg / ((n + 1) * width)
        P = (n * n / (n * n - 1.0)) * (P - (2.0 / (n + 1)) * np.outer(Pg, Pg) / (g @ Pg))
        P = 0.5 * (P + P.T)
    raise IterationCapExceeded("ellipsoid cap %d hit" % cap)
