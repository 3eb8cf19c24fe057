"""Linear optimization over an intersection of two convex bodies, given
only an optimization oracle for each body.

The saddle trick: maximizing <c, x> over K1 cap K2 is relaxed to a
regularized two-copy objective f_lambda(x, y), whose dual h_lambda(theta)
is a minimization the feasibility solver can handle (each evaluation costs
one oracle call per body).  Averaging the theta blocks of a near-minimizer
recovers a near-optimal, near-feasible point.

Matroid intersection rides on top: greedy is an exact optimization oracle
for a matroid polytope, and a random isolation perturbation of the integer
weights makes the optimum vertex unique so that rounding is safe.  The
perturbed weights drive the relaxation and rank the rounded sets; the
optimality certificate is a weight-splitting bound on the raw weights,
whose greedy sets are offered as rounded sets too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .convopt import OptimizeSpec, minimize
from .errors import OutsideOmega, RoundingFailed
from .oracles import (FunctionOracle, Halfspace, OptOracle,
                      subgrad_to_separation)

# schedule cap keeping float64 conditioning sane; accuracy downgrades are
# surfaced through RoundingFailed retries, not silently
_LAMBDA_CAP = 1e6
# relaxation attempts of matroid_intersection, each halving the error target
# of the last
_ATTEMPTS = 3


@dataclass
class IntersectProblem:
    c: np.ndarray
    oracle1: object
    oracle2: object
    M: float
    lam: float = 2.0


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
        g = np.concatenate([lam * (x - y) + lam * t1,
                            x / lam + t2 / lam,
                            y / lam + t3 / lam])
        return val, subgrad_to_separation(g, D, 0.0)

    return FunctionOracle(fn)


def solve_intersection(problem, alpha=None):
    """Near-maximizer z of <c, .> over K1 cap K2, to the accuracy that
    problem.lam sets (see schedule)."""
    c = np.asarray(problem.c, float)
    d = c.size
    fo = _dual_oracle(problem)
    spec = OptimizeSpec(oracle=fo, n=3 * d, R=2 * problem.M,
                        alpha=alpha if alpha is not None else 0.01)
    res = minimize(spec)
    t1, t2, t3 = _split(res.best_x, d)
    z = 0.5 * (t2 + t3)
    return z, res


def schedule(M, delta):
    """lambda for a target additive error delta, capped for float64."""
    return min(40.0 * M * M / (delta * delta), _LAMBDA_CAP)


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


def matroid_greedy(matroid, weights):
    """Maximum-weight independent set by greedy on the positive weights,
    with one independence query per candidate element."""
    weights = np.asarray(weights, float)
    order = sorted((i for i in range(len(weights)) if weights[i] > 0),
                   key=lambda i: (-weights[i], i))
    chosen = []
    for e in order:
        if matroid.independent(chosen + [e]):
            chosen.append(e)
    return chosen


def matroid_polytope_oracle(matroid, n):
    """Optimization oracle over the independent-set polytope: greedy on the
    positive part of the cost, returned as an indicator vector."""
    def fn(cvec):
        S = matroid_greedy(matroid, cvec)
        x = np.zeros(n)
        x[S] = 1.0
        return x

    return OptOracle(fn)


class _CertifiedStop(Exception):
    """Internal: the incumbent rounded set is provably optimal."""


class _Incumbent:
    """Best common independent set offered so far.

    Offers are ranked by the isolated weights z, which also ranks them by
    the raw weights c: the perturbation terms of a set sum to less than the
    multiplier of c.  `value` is the raw weight c(S) of the incumbent.
    """

    def __init__(self, c, z):
        self.c, self.z = c, z
        self.S, self.zval, self.value = None, None, None

    def offer(self, S, *matroids):
        """S becomes the incumbent if it beats it on z and every matroid in
        `matroids` accepts it (the caller leaves out those known to)."""
        zval = int(self.z[S].sum())
        if self.S is not None and zval <= self.zval:
            return
        if all(m.independent(S) for m in matroids):
            self.S, self.zval, self.value = list(S), zval, int(self.c[S].sum())

    def certified(self, ub):
        # c is integral, so a bound below c(S) + 1 leaves no better set
        return ub < self.value + 1.0 - 1e-6


def _greedy_value(matroid, w):
    S = matroid_greedy(matroid, w)
    return float(sum(w[i] for i in S)), S


def _split_bound(m1, m2, c, w1, inc, iters=150):
    """Lagrangian weight-splitting upper bound on max common weight.

    For any real split w1 + w2 = c, greedy-max of w1 over m1 plus
    greedy-max of w2 over m2 dominates c(S) for every common independent
    set S.  Polyak subgradient steps toward the incumbent's weight tighten
    the split, and the loop stops once `inc` is certified.  Each greedy set
    that the other matroid accepts is offered to `inc`: by Frank's
    weight-splitting theorem the greedy sets of a tight split are optimal
    common independent sets, so this rounds where the witnesses do not.
    """
    cf = np.asarray(c, float)
    w = np.asarray(w1, float).copy()
    best_ub, best_w = np.inf, w.copy()
    for _ in range(iters):
        v1, S1 = _greedy_value(m1, w)
        v2, S2 = _greedy_value(m2, cf - w)
        inc.offer(S1, m2)
        inc.offer(S2, m1)
        ub = v1 + v2
        if ub < best_ub:
            best_ub, best_w = ub, w.copy()
        if inc.certified(best_ub):
            break
        g = np.zeros(cf.size)
        g[S1] += 1.0
        g[S2] -= 1.0
        gn = float(g @ g)
        if gn == 0.0:
            break
        w -= ((ub - inc.value) / gn) * g
    return best_ub, best_w


def _round_candidates(xw, yw, z, m1, m2):
    """Candidate common independent sets from one witness pair: the plain
    coordinatewise-min rounding, which the matroids must still check, and a
    greedy repair of it, which is common independent by construction."""
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


def matroid_intersection(m1, m2, weights, Mbound, seed=0):
    """Maximum-weight common independent set of two matroids.

    The weights must be integers (ValueError otherwise): the isolation
    perturbation and the optimality certificate both rely on it.  The
    perturbed weights z drive the two-body relaxation; every oracle witness
    pair along the run is a pair of polytope vertices, so the
    coordinatewise min of any pair rounds to a common independent set.  A
    weight-splitting bound on the raw weights, checked on the fly, stops
    the solve as soon as the incumbent is provably optimal.
    """
    c = np.asarray(weights)
    if (c.dtype.kind not in "iuf"
            or not np.all(np.isfinite(c) & (c == np.round(c)))):
        raise ValueError("weights must be integers")
    c = c.astype(np.int64)
    n = c.size
    if np.max(np.abs(c)) > Mbound:
        raise ValueError("weights exceed the declared bound")
    z = isolation_perturb(c, n, max(int(Mbound), 1), seed)
    zscale = max(np.linalg.norm(z.astype(float)), 1.0)
    znorm = z / zscale
    cscale = np.linalg.norm(c.astype(float))

    o1 = matroid_polytope_oracle(m1, n)
    o2 = matroid_polytope_oracle(m2, n)
    inc = _Incumbent(c, z)
    state = {"c1": None, "x": None, "queries": 0, "w_best": None,
             "ub_best": np.inf}

    def bound(w_start, iters=150):
        ub, w_out = _split_bound(m1, m2, c, w_start, inc, iters)
        if ub < state["ub_best"]:
            state["ub_best"], state["w_best"] = ub, w_out
        return inc.certified(ub)

    def query1(cq):
        state["c1"], state["x"] = cq, o1.query(cq)
        return state["x"]

    def query2(cq):
        y = o2.query(cq)
        plain, repaired = _round_candidates(state["x"], y, z, m1, m2)
        inc.offer(plain, m1, m2)
        inc.offer(repaired)
        state["queries"] += 1
        if state["queries"] % 5 == 0 and inc.S is not None:
            # split of c implied by the current dual point, rescaled from
            # the normalized weights; the theta_2/3 blocks contribute
            # O(M/lambda) here, which the bound absorbs since any split
            # is valid
            starts = [c / 2.0 + cscale * (state["c1"] - cq) / 2.0]
            if state["w_best"] is not None:
                starts.append(state["w_best"])
            for w_start in starts:
                if bound(w_start):
                    raise _CertifiedStop()
        return y

    M = math.sqrt(n) + 1.0
    delta = 1.0 / (6.0 * n * n * max(int(Mbound), 1) ** 2)
    for attempt in range(_ATTEMPTS):
        lam = schedule(M, max(delta / (2 ** attempt), 1e-4))
        prob = IntersectProblem(c=znorm, oracle1=OptOracle(query1),
                                oracle2=OptOracle(query2), M=M, lam=lam)
        try:
            solve_intersection(prob, alpha=0.01 / (2 ** attempt))
        except _CertifiedStop:
            return inc.S
        # attempt finished without certifying; one deep polish before
        # deciding whether the next rung is worth paying for
        if inc.S is not None:
            start = state["w_best"]
            if bound(c / 2.0 if start is None else start, iters=3000):
                return inc.S
    if inc.S is not None:
        return inc.S
    raise RoundingFailed("rounded set failed an independence check "
                         "after %d attempts" % _ATTEMPTS)
