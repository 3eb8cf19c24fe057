"""Answer checks computed apart from the package.

Every check returns None when the answer holds and a one-line reason when
it does not.  References come from scipy or from scans written here; the
package's own oracles and matroid classes are never consulted.
"""

import math

import numpy as np

from cutplane.core import Found, ThinCertificate

POINT_TOL = 1e-12


# ---------------------------------------------------------------------------
# feasibility

def check_in_box(out, center, radius):
    if not isinstance(out, Found):
        return "expected Found, got %s" % type(out).__name__
    viol = float(np.max(np.abs(out.x - center))) - radius
    if viol > POINT_TOL:
        return "point lies %.3g outside the box" % viol
    return None


def check_in_halfspaces(out, A, b):
    if not isinstance(out, Found):
        return "expected Found, got %s" % type(out).__name__
    viol = float(np.max(A @ out.x - b))
    if viol > POINT_TOL:
        return "point violates a constraint by %.3g" % viol
    return None


def check_thin_certificate(out, params, n):
    """Recompute residual and slack combination from A, b, x and t."""
    if not isinstance(out, ThinCertificate):
        return "expected ThinCertificate, got %s" % type(out).__name__
    t = np.asarray(out.t, float)
    if np.any(t < 0):
        return "negative certificate weight %.3g" % float(np.min(t))
    if t[out.pivot] != 0.0:
        return "pivot row carries weight %.3g" % float(t[out.pivot])
    residual = float(np.linalg.norm(out.A[out.pivot] + t @ out.A))
    slack = out.A @ out.x - out.b
    if np.min(slack) <= 0:
        return "certificate point is not interior (min slack %.3g)" % np.min(slack)
    combination = float(t @ slack)
    if residual > out.declared_residual_bound(params, n):
        return "residual %.3g above declared bound %.3g" % (
            residual, out.declared_residual_bound(params, n))
    if combination > out.declared_slack_bound(params, n):
        return "slack combination %.3g above declared bound %.3g" % (
            combination, out.declared_slack_bound(params, n))
    return None


# ---------------------------------------------------------------------------
# submodular: graph cut plus modular charge

def cut_charge_value(S, edges, charge):
    cut = sum(w for u, v, w in edges if (u in S) != (v in S))
    return cut + sum(int(charge[i]) for i in S)


def min_cut_charge(n, edges, charge):
    """min_S cut(S) + sum_{i in S} charge_i as an s-t minimum cut.

    Source side is S.  A positive charge is an arc i -> t, a negative one
    an arc s -> i with the constant sum of negative charges added back.
    """
    # scipy is imported on first use, after the timed set-up, so that
    # setup_s counts only what the package itself loads
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    s, t = n, n + 1
    cap = np.zeros((n + 2, n + 2), dtype=np.int64)
    for u, v, w in edges:
        cap[u, v] += w
        cap[v, u] += w
    base = 0
    for i, c in enumerate(charge):
        c = int(c)
        if c > 0:
            cap[i, t] += c
        elif c < 0:
            cap[s, i] += -c
            base += c
    flow = maximum_flow(csr_matrix(cap), s, t)
    return base + int(flow.flow_value)


def check_sfm(S, value, edges, charge, want):
    if value != want:
        return "minimum %r differs from the min-cut value %r" % (value, want)
    got = cut_charge_value(frozenset(S), edges, charge)
    if got != value:
        return "returned set evaluates to %r, not the reported %r" % (got, value)
    return None


# ---------------------------------------------------------------------------
# matroid intersection

def is_matching(S, edges):
    left = [edges[e][0] for e in S]
    right = [edges[e][1] for e in S]
    return len(set(left)) == len(left) and len(set(right)) == len(right)


def is_forest(S, edges):
    """Acyclic edge set, by repeated leaf stripping."""
    adj = {}
    for e in S:
        u, v = edges[e]
        if u == v:
            return False
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    degree = {u: len(vs) for u, vs in adj.items()}
    leaves = [u for u, d in degree.items() if d <= 1]
    removed = 0
    while leaves:
        u = leaves.pop()
        removed += 1
        for v in adj[u]:
            degree[v] -= 1
            if degree[v] == 1:
                leaves.append(v)
    # a forest strips down completely; a cycle leaves degree >= 2 behind
    return removed == len(adj)


def within_caps(S, blocks, caps):
    return all(len(set(S) & set(b)) <= c for b, c in zip(blocks, caps))


def max_weight_matching(side, edges, w):
    from scipy.optimize import linear_sum_assignment

    W = np.zeros((side, side))
    for e, (u, v) in enumerate(edges):
        W[u, v] = max(W[u, v], w[e])
    rows, cols = linear_sum_assignment(W, maximize=True)
    return int(round(W[rows, cols].sum()))


def exhaustive_max(n, independent, w):
    best = 0
    for bits in range(1 << n):
        S = [i for i in range(n) if bits >> i & 1]
        if independent(S):
            best = max(best, sum(int(w[i]) for i in S))
    return best


def check_common_set(S, independent, w, want):
    if len(set(S)) != len(S):
        return "repeated element in %r" % (S,)
    if not independent(S):
        return "set %r is not independent in both matroids" % (sorted(S),)
    got = sum(int(w[i]) for i in S)
    if got != want:
        return "weight %d differs from the optimum %d" % (got, want)
    return None


# ---------------------------------------------------------------------------
# SDP

def sdp_tol(value):
    return 2e-2 * max(1.0, abs(value)) + 2e-2


def dual_1d(C, A1, b1, K, L):
    """min over |y| <= L of b y + K max(lambda_max(C - y A), 0), by golden
    section: the objective is convex in y."""
    def phi(y):
        return b1 * y + K * max(float(np.linalg.eigvalsh(C - y * A1)[-1]), 0.0)

    g = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -L, L
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = phi(x1), phi(x2)
    for _ in range(120):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = phi(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = phi(x2)
    return min(f1, f2, phi(-L), phi(L))


def check_sdp(C, A, b, dual_value, X, reference=None):
    tol = sdp_tol(dual_value)
    X = np.asarray(X, float)
    if float(np.linalg.eigvalsh(X)[0]) < -1e-9:
        return "X has eigenvalue %.3g" % float(np.linalg.eigvalsh(X)[0])
    for i, Ai in enumerate(A):
        r = abs(float(np.trace(Ai @ X)) - float(b[i]))
        if r > tol:
            return "constraint %d residual %.3g above %.3g" % (i, r, tol)
    gap = abs(dual_value - float(np.trace(C @ X)))
    if gap > tol:
        return "duality gap %.3g above %.3g" % (gap, tol)
    if reference is not None and abs(dual_value - reference) > sdp_tol(reference):
        return "dual value %.6g differs from the 1-D minimum %.6g" % (
            dual_value, reference)
    return None
