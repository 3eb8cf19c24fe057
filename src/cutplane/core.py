"""Cutting plane method with a hybrid barrier.

The barrier mixes a weighted log-slack term, a regularized log det volume
term and a quadratic anchor:

    p_e(x) = -sum_i (c_e + e_i) log s_i(x)
             + 1/2 log det(A^T S^-2 A + lam I) + (lam/2) ||x||^2

where e = tau - psi(x) is the error of the maintained leverage estimates.
The solver keeps a polytope A x >= b around the target set, recenters with
damped Newton steps against an approximate Hessian, and adds shifted oracle
cuts or drops constraints whose leverage has decayed.  Leverage scores are
computed exactly at every size, once per point; CpmState keeps them with the
slacks and Gram factors for every step and update at that point.
Termination is a point of the target set or a thin-polytope certificate.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IterationCapExceeded,
    NotUnitVector,
    PreconditionViolated,
    SlackNonpositive,
)
from .linalg import cholesky_jittered, leverage_exact
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
    entry_misses: int = 0      # see centering
    max_entry_ratio: float = 0.0
    _at: tuple = field(default=(None,) * 3, init=False, repr=False, compare=False)
    _point: tuple = field(default=None, init=False, repr=False, compare=False)

    def point(self):
        """(s, B, L, Linv, psi) at the current point, from one leverage solve.

        Kept until x, A or b is reassigned.  Nothing in the package or its
        tests writes into those arrays in place, so an identity check on the
        three of them is enough to tell when the kept values are stale.
        """
        at = (self.A, self.b, self.x)
        if any(u is not v for u, v in zip(at, self._at)):
            s = self.A @ self.x - self.b
            if np.min(s) <= 0:
                raise SlackNonpositive("min slack %g at m=%d" % (np.min(s), self.m))
            psi, B, L, Linv = leverage_exact(self.A, s, self.params.lam)
            psi.flags.writeable = False
            self._at, self._point = at, (s, B, L, Linv, psi)
        return self._point

    @property
    def s(self):
        return self.point()[0]

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    def psi(self):
        return self.point()[4]

    def copy(self):
        return CpmState(self.A.copy(), self.b.copy(), self.x.copy(),
                        self.tau.copy(), self.params, list(self.origin),
                        self.entry_misses, self.max_entry_ratio)


def initial_state(n, params):
    """Box polytope |x_i| <= R with exact initial leverage estimates."""
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = -params.R * np.ones(2 * n)
    st = CpmState(A, b, np.zeros(n), np.zeros(2 * n), params,
                  origin=["box"] * (2 * n))
    st.tau = st.psi().copy()
    return st


def potential(st):
    s, _, L, _, psi = st.point()
    e = st.tau - psi
    return (-np.sum((st.params.c_e + e) * np.log(s))
            + float(np.sum(np.log(np.diag(L))))
            + 0.5 * st.params.lam * float(st.x @ st.x))


def gradient(st):
    """Gradient of the potential at (x, tau) with e = tau - psi(x) frozen.

    The log det term's gradient is -A_x^T psi, which cancels against the
    psi hidden inside e, leaving only tau.  Reads the kept slacks.
    """
    s = st.s
    return -st.A.T @ ((st.params.c_e + st.tau) / s) + st.params.lam * st.x


def hessian_weights(st):
    """Q(x, psi) = A_x^T (c_e I + Psi) A_x + lam I at the kept point."""
    _, B, _, _, psi = st.point()
    return B.T @ ((st.params.c_e + psi)[:, None] * B) + st.params.lam * np.eye(st.n)


def centrality(st):
    H = hessian_weights(st)
    g = gradient(st)
    L, _ = cholesky_jittered(H)
    y = np.linalg.solve(L, g)
    return float(np.sqrt(y @ y))


def centering(st, r=200, full_steps=False, exit_floor=None):
    """Damped Newton recentering with a frozen approximate Hessian.

    Runs r steps x <- x - (1/8) Q^-1 grad, updating tau after each step by
    the exact leverage change so e stays put.  Q is factored and its factor
    inverted once, so a step costs two matrix-vector products and the
    leverage solve at the new point.  Unless full_steps is set, stops early
    once the centrality is far below the entry threshold of every
    downstream consumer.  An entry with ||e||_inf above c_e/3 or a
    centrality above the entry threshold counts in st.entry_misses, and
    st.max_entry_ratio keeps the largest ratio of either to its threshold.
    """
    p = st.params
    psi0 = st.psi()
    # Q is the Hessian at entry, so the first Newton solve is also the
    # entry centrality
    LQ, _ = cholesky_jittered(hessian_weights(st))
    LQinv = np.linalg.inv(LQ)
    z = LQinv @ gradient(st)
    delta0 = float(np.sqrt(z @ z))
    thresh = 0.01 * math.sqrt(p.c_e + float(np.min(psi0)))
    e0 = float(np.max(np.abs(st.tau - psi0)))
    if e0 > p.c_e / 3 + 1e-12 or delta0 > thresh * (1 + 1e-9):
        st.entry_misses += 1
    st.max_entry_ratio = max(st.max_entry_ratio, e0 / (p.c_e / 3),
                             delta0 / thresh)
    if exit_floor is None:
        exit_floor = 0.3 * 0.01 * math.sqrt(p.c_e + float(np.min(psi0)))

    psi_prev = psi0
    for _ in range(r):
        if not full_steps and float(np.sqrt(z @ z)) <= exit_floor:
            # centrality in the frozen-Q metric; Q tracks the true Hessian
            # closely enough for a stop test
            break
        st.x = st.x - (LQinv.T @ z) / 8.0
        psi_new = st.psi()
        st.tau = st.tau + (psi_new - psi_prev)
        psi_prev = psi_new
        z = LQinv @ gradient(st)
    return st


def add_cut(st, a):
    """Append the shifted oracle cut a^T x >= a^T x_k - s_new.

    The shift is chosen so the new row's leverage at the current point is
    exactly c_a; tau is patched by the matching rank-one update.
    """
    a = np.asarray(a, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-9:
        raise NotUnitVector("cut direction must be unit norm")
    p = st.params
    _, B, _, Linv, _ = st.point()
    w = Linv @ a
    s_new = math.sqrt(float(w @ w) / p.c_a)
    psi_a = p.c_a  # by construction

    u = B @ (Linv.T @ (w / s_new))  # m-vector of cross terms
    tau_new = st.tau - (u * u) / (1.0 + psi_a)
    st.A = np.vstack([st.A, a])
    st.b = np.append(st.b, a @ st.x - s_new)
    st.tau = np.append(tau_new, psi_a / (1.0 + psi_a))
    st.origin.append("cut")
    budget = 1 + int(2 * st.n / p.c_d)
    if st.m > budget:
        raise PreconditionViolated("row budget exceeded: %d > %d" % (st.m, budget))
    return st


def remove_cut(st, i, w):
    """Drop row i (which must carry the minimum of w) and patch tau."""
    if i != int(np.argmin(w)):
        raise PreconditionViolated("row %d is not the argmin of w" % i)
    _, B, _, Linv, psi = st.point()
    psi_d = float(psi[i])
    mu_x = float(np.min(psi))
    if not (psi_d <= 1.1 * mu_x + 1e-12 and 1.1 * mu_x <= 0.1 + 1e-12):
        raise PreconditionViolated(
            "removal needs psi_i <= 1.1 mu <= 0.1 (psi_i=%g, mu=%g)" % (psi_d, mu_x))

    u = B @ (Linv.T @ (Linv @ B[i]))
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
    entry_misses: int = 0      # see centering
    max_entry_ratio: float = 0.0


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
    entry_misses: int = 0
    max_entry_ratio: float = 0.0

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
    s = st.s
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
        entry_misses=st.entry_misses, max_entry_ratio=st.max_entry_ratio,
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

    for k in range(1, cap + 1):
        if np.min(st.s) < p.eps:
            cert = certificate(st)
            cert.iterations = k
            cert.oracle_calls = oracle.calls
            return cert

        w = st.psi()
        i_star = int(np.argmax(np.abs(w - st.tau)))
        st.tau[i_star] = w[i_star]

        if float(np.min(w)) <= p.c_d and st.m > st.n + 1:
            i_min = int(np.argmin(w))
            remove_cut(st, i_min, w)
            action = "remove"
        else:
            resp = oracle.query(st.x)
            if isinstance(resp, Inside):
                return Found(st.x.copy(), iterations=k,
                             oracle_calls=oracle.calls,
                             entry_misses=st.entry_misses,
                             max_entry_ratio=st.max_entry_ratio)
            if not isinstance(resp, Halfspace):
                raise PreconditionViolated("oracle returned %r" % (resp,))
            add_cut(st, -resp.c)
            if resp.meta is not None:
                st.origin[-1] = ("cut", resp.meta)
            action = "add"

        centering(st)
        if trace is not None:
            trace.append({
                "k": k, "m": st.m, "potential": potential(st),
                "min_slack": float(np.min(st.s)),
                "centrality": centrality(st), "action": action,
                "oracle_calls": oracle.calls,
            })

    raise IterationCapExceeded("no termination within %d iterations" % cap)


@dataclass
class Infeasible:
    iterations: int = 0
    oracle_calls: int = 0


def ellipsoid_baseline(oracle, n, R, eps):
    """Classical central-cut ellipsoid method, used as a cross-check."""
    x = np.zeros(n)
    P = (R * R * n) * np.eye(n)
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
