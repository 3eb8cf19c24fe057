"""Linear optimization over an intersection of two convex bodies, given
only an optimization oracle for each body.

The saddle trick: maximizing <c, x> over K1 cap K2 is relaxed to a
regularized two-copy objective f_lambda(x, y), whose dual h_lambda(theta)
is a minimization the feasibility solver can handle (each evaluation costs
one oracle call per body).  Averaging the theta blocks of a near-minimizer
recovers a near-optimal, near-feasible point.

Matroid intersection rides on top: greedy is an exact optimization oracle
for a matroid polytope, and a random isolation perturbation makes the
optimum vertex unique so that rounding is safe.
"""

import math
from dataclasses import dataclass

import numpy as np

from .convopt import OptimizeSpec, minimize
from .errors import OutsideOmega, OracleInconsistent, RoundingFailed
from .oracles import FunctionOracle, Halfspace, subgrad_to_separation

# schedule caps keeping float64 conditioning sane; accuracy downgrades are
# surfaced through RoundingFailed retries, not silently
_LAMBDA_CAP = 1e6
_EPS_FLOOR = 1e-10


@dataclass
class IntersectProblem:
    c: np.ndarray
    oracle1: object
    oracle2: object
    M: float
    lam: float = 2.0
    delta: float = 1e-2


def f_lambda(x, y, problem):
    c, lam = np.asarray(problem.c, float), problem.lam
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return (0.5 * c @ x + 0.5 * c @ y
            - 0.5 * lam * float((x - y) @ (x - y))
            - float(x @ x) / (2 * lam) - float(y @ y) / (2 * lam))


def _split(theta, d):
    return theta[:d], theta[d:2 * d], theta[2 * d:]


def h_lambda(theta, problem):
    """Dual objective value plus the two oracle witnesses."""
    c, lam = np.asarray(problem.c, float), problem.lam
    d = c.size
    t1, t2, t3 = _split(np.asarray(theta, float), d)
    if (np.linalg.norm(t1) > 2 * problem.M + 1e-9
            or np.linalg.norm(t2) > problem.M + 1e-9
            or np.linalg.norm(t3) > problem.M + 1e-9):
        raise OutsideOmega("theta outside the dual domain")
    c1 = c / 2 + lam * t1 + t2 / lam
    c2 = c / 2 - lam * t1 + t3 / lam
    x = problem.oracle1.query(c1)
    y = problem.oracle2.query(c2)
    val = (float(c1 @ x) + float(c2 @ y)
           + 0.5 * lam * float(t1 @ t1)
           + (float(t2 @ t2) + float(t3 @ t3)) / (2 * lam))
    return val, (x, y)


def _dual_oracle(problem):
    """Function separation oracle for h_lambda over the 2M box, with
    explicit ball cuts when theta leaves Omega."""
    c = np.asarray(problem.c, float)
    d = c.size
    lam = problem.lam
    M = problem.M
    D = 2 * M * math.sqrt(3 * d)
    sub_delta = getattr(problem.oracle1, "delta", 0.0) + \
        getattr(problem.oracle2, "delta", 0.0)

    def fn(theta):
        t1, t2, t3 = _split(theta, d)
        for blk, radius, lo in ((t1, 2 * M, 0), (t2, M, d), (t3, M, 2 * d)):
            nrm = np.linalg.norm(blk)
            if nrm > radius:
                g = np.zeros(3 * d)
                g[lo:lo + d] = blk / nrm
                # big value: outside the domain, cut back toward the ball
                return 1e30, Halfspace(g, 0.0)
        val, (x, y) = h_lambda(theta, problem)
        fo.witnesses.append((x, y))
        g = np.concatenate([lam * (x - y) + lam * t1,
                            x / lam + t2 / lam,
                            y / lam + t3 / lam])
        return val, subgrad_to_separation(theta, g, D, sub_delta)

    fo = FunctionOracle(fn)
    fo.witnesses = []
    return fo


def solve_intersection(problem, alpha=None):
    """Near-maximizer z of <c, .> over K1 cap K2 (up to the delta budget)."""
    c = np.asarray(problem.c, float)
    d = c.size
    fo = _dual_oracle(problem)
    spec = OptimizeSpec(oracle=fo, n=3 * d, R=2 * problem.M,
                        alpha=alpha if alpha is not None else 0.01)
    res = minimize(spec)
    t1, t2, t3 = _split(res.best_x, d)
    z = 0.5 * (t2 + t3)
    res.witnesses = fo.witnesses
    return z, res


def schedule(M, delta):
    """lambda and dual accuracy for a target additive error delta, with
    float64 caps."""
    lam = min(40.0 * M * M / (delta * delta), _LAMBDA_CAP)
    eps = max(delta ** 7 / (1e7 * M ** 6), _EPS_FLOOR)
    return lam, eps


def isolation_perturb(c, n, M, seed):
    """Integer perturbation z = 100 n^2 M^2 c + r with small random r.

    Any z-minimizer (or maximizer) over an integral polytope stays optimal
    for c, and is unique with constant probability.
    """
    c = np.asarray(c)
    rng = np.random.default_rng(seed)
    r = rng.integers(0, 10 * n * M + 1, size=c.size)
    return 100 * n * n * M * M * c + r


# ---------------------------------------------------------------------------
# matroids

class PartitionMatroid:
    def __init__(self, blocks, capacities, n=None):
        self.blocks = [list(b) for b in blocks]
        self.capacities = list(capacities)
        self.n = n if n is not None else 1 + max(e for b in blocks for e in b)
        self._block_of = {}
        for bi, b in enumerate(self.blocks):
            for e in b:
                self._block_of[e] = bi

    def independent(self, S):
        counts = [0] * len(self.blocks)
        for e in S:
            bi = self._block_of.get(e)
            if bi is None:
                continue  # elements outside all blocks are free
            counts[bi] += 1
            if counts[bi] > self.capacities[bi]:
                return False
        return True


class UniformMatroid:
    def __init__(self, rank, n):
        self.rank_cap = rank
        self.n = n

    def independent(self, S):
        return len(S) <= self.rank_cap


class FreeMatroid:
    def __init__(self, n):
        self.n = n

    def independent(self, S):
        return True


class GraphicMatroid:
    """Elements are edges; independent = acyclic (union-find check)."""

    def __init__(self, edges):
        self.edges = [tuple(e) for e in edges]
        self.n = len(self.edges)

    def independent(self, S):
        parent = {}

        def find(u):
            while parent.get(u, u) != u:
                parent[u] = parent.get(parent[u], parent[u])
                u = parent[u]
            return u

        for ei in S:
            u, v = self.edges[ei]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True


class RankOracle:
    """Wraps an independence matroid as a rank oracle (for the greedy
    variant that only sees ranks)."""

    def __init__(self, matroid):
        self.m = matroid
        self.n = matroid.n

    def rank(self, S):
        r = 0
        cur = []
        for e in S:
            cur.append(e)
            if self.m.independent(cur):
                r += 1
            else:
                cur.pop()
        return r


def matroid_greedy(oracle, weights):
    """Maximum-weight independent set by greedy on positive weights.

    Accepts either an independence oracle (.independent) or a rank oracle
    (.rank); the rank variant locates each next addable element through
    rank increments.
    """
    weights = np.asarray(weights, float)
    order = sorted((i for i in range(len(weights)) if weights[i] > 0),
                   key=lambda i: (-weights[i], i))
    chosen = []
    if hasattr(oracle, "independent"):
        for e in order:
            if oracle.independent(chosen + [e]):
                # opportunistic sanity check on the way: prefixes must stay
                # independent if the whole set is
                if not oracle.independent(chosen):
                    raise OracleInconsistent("subset of accepted set rejected")
                chosen.append(e)
    else:
        r = 0
        for e in order:
            if oracle.rank(chosen + [e]) > r:
                chosen.append(e)
                r += 1
    return chosen


def matroid_polytope_oracle(matroid, n):
    """Optimization oracle over the independent-set polytope: greedy on the
    positive part of the cost, returned as an indicator vector."""
    from .oracles import OptOracle

    def fn(cvec):
        S = matroid_greedy(matroid, cvec)
        x = np.zeros(n)
        x[S] = 1.0
        return x

    return OptOracle(fn)


class _CertifiedStop(Exception):
    """Internal: the incumbent rounded set is provably optimal."""


def _greedy_value(matroid, w):
    S = matroid_greedy(matroid, w)
    return float(sum(w[i] for i in S)), S


def _split_bound(m1, m2, z, w1, target, iters=150):
    """Lagrangian weight-splitting upper bound on max common weight.

    For any real split w1 + w2 = z, greedy-max of w1 over m1 plus
    greedy-max of w2 over m2 dominates z(S) for every common independent
    set S.  Polyak subgradient steps toward the target tighten the split;
    with integer z the minimum over splits is attained, so an incumbent of
    weight target is optimal once the bound drops below target + 1.
    """
    zf = np.asarray(z, float)
    w = np.asarray(w1, float).copy()
    best_ub, best_w = np.inf, w.copy()
    for _ in range(iters):
        v1, S1 = _greedy_value(m1, w)
        v2, S2 = _greedy_value(m2, zf - w)
        ub = v1 + v2
        if ub < best_ub:
            best_ub, best_w = ub, w.copy()
        if best_ub < target + 1.0 - 1e-6:
            break
        g = np.zeros(zf.size)
        g[S1] += 1.0
        g[S2] -= 1.0
        gn = float(g @ g)
        if gn == 0.0:
            break
        w -= ((ub - target) / gn) * g
    return best_ub, best_w


def _round_candidates(xw, yw, z, m1, m2):
    """Candidate common independent sets from one witness pair: the plain
    coordinatewise-min rounding plus a greedy repair of it."""
    n = z.size
    common = np.minimum(xw, yw)
    plain = [i for i in range(n) if common[i] > 0.5]
    # greedy repair: witness agreement first, then raw weight; elements the
    # witnesses disagree on still enter by weight, which covers runs whose
    # two oracle answers oscillate without ever coinciding
    order = sorted(range(n), key=lambda i: (-common[i], -z[i]))
    repaired = []
    for i in order:
        if m1.independent(repaired + [i]) and m2.independent(repaired + [i]):
            repaired.append(i)
    return plain, repaired


def matroid_intersection(m1, m2, weights, Mbound, seed=0, max_retries=3):
    """Maximum-weight common independent set of two matroids.

    Perturbs the weights for uniqueness and solves the two-body relaxation;
    every oracle witness pair along the run is a pair of polytope vertices,
    so the coordinatewise min of any pair rounds to a common independent
    set.  A weight-splitting bound checked on the fly stops the solve as
    soon as the incumbent is provably optimal.
    """
    weights = np.asarray(weights)
    n = weights.size
    if np.max(np.abs(weights)) > Mbound:
        raise ValueError("weights exceed the declared bound")
    z = isolation_perturb(weights, n, max(int(Mbound), 1), seed)
    zscale = max(np.linalg.norm(z.astype(float)), 1.0)
    znorm = z / zscale

    o1 = matroid_polytope_oracle(m1, n)
    o2 = matroid_polytope_oracle(m2, n)
    state = {"best_S": None, "best_w": -1.0, "c1": None, "x": None,
             "queries": 0}

    def consider(S):
        S = list(S)
        if m1.independent(S) and m2.independent(S):
            wgt = float(sum(z[i] for i in S))
            if wgt > state["best_w"]:
                state["best_S"], state["best_w"] = S, wgt

    class _Spy1:
        delta = 0.0
        calls = 0

        def query(self, c):
            self.calls += 1
            state["c1"] = np.asarray(c, float)
            state["x"] = o1.query(c)
            return state["x"]

    class _Spy2:
        delta = 0.0
        calls = 0

        def query(self, c):
            self.calls += 1
            y = o2.query(c)
            for S in _round_candidates(state["x"], y, z, m1, m2):
                consider(S)
            state["queries"] += 1
            if state["queries"] % 5 == 0 and state["best_S"] is not None:
                # split implied by the current dual point: the theta_2/3
                # blocks contribute O(M/lambda) here, which the bound
                # absorbs since any split is valid
                w1 = z / 2.0 + zscale * (state["c1"] - np.asarray(c, float)) / 2.0
                starts = [w1]
                if state.get("w_best") is not None:
                    starts.append(state["w_best"])
                for w_start in starts:
                    ub, w_out = _split_bound(m1, m2, z, w_start,
                                             state["best_w"])
                    if state.get("ub_best", np.inf) > ub:
                        state["ub_best"], state["w_best"] = ub, w_out
                    if ub < state["best_w"] + 1.0 - 1e-6:
                        raise _CertifiedStop()
            return y

    M = math.sqrt(n) + 1.0
    delta = 1.0 / (6.0 * n * n * max(int(Mbound), 1) ** 2)
    for attempt in range(max_retries):
        lam, _ = schedule(M, max(delta / (2 ** attempt), 1e-4))
        prob = IntersectProblem(c=znorm, oracle1=_Spy1(), oracle2=_Spy2(),
                                M=M, lam=lam)
        try:
            solve_intersection(prob, alpha=0.01 / (2 ** attempt))
        except _CertifiedStop:
            return state["best_S"]
        # attempt finished without certifying; one deep polish before
        # deciding whether the next rung is worth paying for
        if state["best_S"] is not None:
            start = state.get("w_best")
            start = z / 2.0 if start is None else start
            ub, _ = _split_bound(m1, m2, z, start, state["best_w"],
                                 iters=3000)
            if ub < state["best_w"] + 1.0 - 1e-6:
                return state["best_S"]
    if state["best_S"] is not None:
        return state["best_S"]
    raise RoundingFailed("rounded set failed an independence check "
                         "after %d attempts" % max_retries)
