"""The three workloads: fixed instance templates, the seed's part in them,
and how each instance is solved and checked.

Solve cost varies by an order of magnitude between random instances of one
size (box feasibility at n=16 took 3.3 to 7.6 s over six random centres;
cut functions and matchings have tails of minutes), so a freshly drawn
instance set would move every end-to-end number from seed to seed.  The
templates are therefore drawn once from TEMPLATE_SEED.  Where a symmetry
of the problem leaves the solver's work unchanged, the workload seed moves
each template by it: a signed coordinate permutation for feasibility (the
method's starting box is invariant under it) and an orthogonal congruence
for SDPs (the dual objective is invariant under it).  Cut functions and
matchings have no such symmetry and do not depend on the seed.
"""

from dataclasses import dataclass

import numpy as np

from cutplane import convopt, core, intersect, sdp, sfm
from cutplane.oracles import box_oracle, halfspace_set_oracle

from checks import (
    check_common_set,
    check_in_box,
    check_in_halfspaces,
    check_sdp,
    check_sfm,
    check_thin_certificate,
    cut_charge_value,
    dual_1d,
    exhaustive_max,
    is_forest,
    is_matching,
    max_weight_matching,
    min_cut_charge,
    within_caps,
)

TEMPLATE_SEED = 150804874


def no_span(fn, name):
    return fn


@dataclass
class Instance:
    """One solve.  run() returns (answer, user oracle calls); check(answer)
    returns None or the reason the answer is wrong."""
    name: str
    run: object
    check: object


class SeparationCounter:
    """Counts queries the cutting-plane loop sends to its separation oracle,
    by handing run_feasibility a counting proxy of whatever oracle its
    caller built."""

    def __init__(self):
        self.calls = 0

    def install(self):
        orig = core.run_feasibility
        counter = self

        class Proxy:
            def __init__(self, inner):
                self.inner = inner

            @property
            def calls(self):
                return self.inner.calls

            def query(self, x):
                counter.calls += 1
                return self.inner.query(x)

        def counted(oracle, n, *args, **kwargs):
            return orig(Proxy(oracle), n, *args, **kwargs)

        for module in (core, convopt, sfm):
            module.run_feasibility = counted


# ---------------------------------------------------------------------------
# feasibility

def _signed_permutation(rng, n):
    perm = rng.permutation(n)
    signs = rng.choice([-1.0, 1.0], n)
    return lambda v: signs * np.asarray(v, float)[perm]


def _feasibility_instance(name, kind, n, data, span):
    params = core.CpmParams.practical(n)
    if kind == "box":
        center, radius = data

        def make():
            return box_oracle(center, radius)

        def check(out):
            return check_in_box(out, center, radius)
    else:
        A, b = data

        def make():
            return halfspace_set_oracle(list(zip(A, b)))

        if kind == "halfspaces":
            def check(out):
                return check_in_halfspaces(out, A, b)
        else:
            def check(out):
                return check_thin_certificate(out, params, n)

    def run():
        oracle = make()
        oracle.fn = span(oracle.fn, "oracle.set")
        return core.run_feasibility(oracle, n, params), oracle.calls

    return Instance(name, run, check)


# (kind, n): feasible boxes and halfspace systems, and empty systems made of
# two antiparallel halfspaces with a gap between them
FEASIBILITY = [("box", 8), ("box", 12), ("halfspaces", 10), ("halfspaces", 16),
               ("empty", 8), ("empty", 16), ("empty", 32)]


def feasibility(seed, span=no_span):
    base = np.random.default_rng(TEMPLATE_SEED)
    rng = np.random.default_rng(seed)
    out = []
    for kind, n in FEASIBILITY:
        move = _signed_permutation(rng, n)
        if kind == "box":
            data = (move(base.uniform(-0.5, 0.5, n)), 0.1)
        elif kind == "halfspaces":
            center = base.uniform(-0.4, 0.4, n)
            A = base.standard_normal((2 * n, n))
            A /= np.linalg.norm(A, axis=1)[:, None]
            b = A @ center + 0.1
            data = (np.array([move(a) for a in A]), b)
        else:
            a = base.standard_normal(n)
            a = move(a / np.linalg.norm(a))
            gap, offset = base.uniform(0.05, 0.3), base.uniform(-0.3, 0.3)
            data = (np.array([a, -a]),
                    np.array([offset - gap / 2, -offset - gap / 2]))
        out.append(_feasibility_instance("%s-%d" % (kind, n), kind, n, data,
                                         span))
    return out


def feasibility_warmup():
    return [_feasibility_instance("warm-box", "box", 2,
                                  (np.full(2, 0.3), 0.1), no_span),
            _feasibility_instance("warm-empty", "empty", 2,
                                  (np.array([[1.0, 0], [-1.0, 0]]),
                                   np.array([-0.1, -0.1])), no_span)]


# ---------------------------------------------------------------------------
# submodular: graph cut plus a modular charge

def cut_charge_template(base, n, degree):
    """Random graph with integer weights 1..5 and a charge of 0.7 times
    the weighted degree, with a random sign per vertex, plus -2..2.

    At this scale the cutting-plane loop runs 5 to 24 steps per solve (4 to
    6 at scale 1.0) and each of the benchmark's functions solves in under
    0.2 s; random functions of the family still have a tail of minutes."""
    p = degree / (n - 1)
    edges, wdeg = [], np.zeros(n)
    for u in range(n):
        for v in range(u + 1, n):
            if base.random() < p:
                w = int(base.integers(1, 6))
                edges.append((u, v, w))
                wdeg[u] += w
                wdeg[v] += w
    sign = base.choice([-1, 1], n)
    charge = (sign * np.round(0.7 * wdeg) + base.integers(-2, 3, n)).astype(int)
    return edges, charge


def _sfm_instance(name, n, edges, charge, solver, span):
    want = []

    def raw(S):
        return cut_charge_value(S, edges, charge)

    def run():
        f = sfm.SubmodularFn(n, span(raw, "sfm.eval"))
        return solver(f, seed=0), f.eo_calls

    def check(out):
        if not want:
            want.append(min_cut_charge(n, edges, charge))
        S, value = out
        return check_sfm(S, value, edges, charge, want[0])

    return Instance(name, run, check)


# (n, mean degree); each function is solved by both solvers
SUBMODULAR = [(n, d) for n in (20, 24, 28, 32, 36, 40) for d in (3, 3, 8, 8)]


def submodular(seed, span=no_span):
    """The functions are the same on every seed.  Relabelling their ground
    sets by the seed moved solves_per_s by 43% and separation calls by 25%
    between seeds 1 to 3: the solvers break ties by element index, and a
    few functions decide the total."""
    base = np.random.default_rng(TEMPLATE_SEED)
    out = []
    for k, (n, degree) in enumerate(SUBMODULAR):
        edges, charge = cut_charge_template(base, n, degree)
        for solver in (sfm.sfm_weakly, sfm.sfm_strongly):
            out.append(_sfm_instance(
                "%s-%d-n%d-d%d" % (solver.__name__, k, n, degree), n, edges,
                charge, solver, span))
    return out


def submodular_warmup():
    base = np.random.default_rng(TEMPLATE_SEED + 1)
    edges, charge = cut_charge_template(base, 10, 3)
    return [_sfm_instance("warm-" + s.__name__, 10, edges, charge, s, no_span)
            for s in (sfm.sfm_weakly, sfm.sfm_strongly)]


# ---------------------------------------------------------------------------
# matroid intersection and SDP

class CountingMatroid:
    """Independence oracle handed to the solver: counts its calls."""

    def __init__(self, matroid, span):
        self.n = matroid.n
        self.calls = 0
        self._independent = span(matroid.independent, "intersect.independent")

    def independent(self, S):
        self.calls += 1
        return self._independent(S)


def _matroid_instance(name, make, weights, wmax, independent, want, span):
    def run():
        m1, m2 = (CountingMatroid(m, span) for m in make())
        S = intersect.matroid_intersection(m1, m2, weights, Mbound=wmax, seed=0)
        return list(S), m1.calls + m2.calls

    def check(S):
        return check_common_set(S, independent, weights, want())

    return Instance(name, run, check)


def matching_instance(name, side, edges, weights, span=no_span):
    """Bipartite matching as the intersection of two partition matroids."""
    n = len(edges)

    def make():
        return [intersect.PartitionMatroid(
            [[e for e in range(n) if edges[e][k] == v] for v in range(side)],
            [1] * side, n) for k in (0, 1)]

    return _matroid_instance(
        name, make, np.asarray(weights), int(max(weights)),
        lambda S: is_matching(S, edges),
        lambda: max_weight_matching(side, edges, weights), span)


def graphic_partition_instance(span=no_span):
    """Spanning forest of a small graph under per-colour caps."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (2, 4), (3, 4)]
    blocks, caps = [[0, 1], [2, 3], [4, 5], [6, 7]], [1, 1, 1, 2]
    w = np.array([5, 3, 7, 2, 6, 4, 8, 1])

    def indep(S):
        return is_forest(S, edges) and within_caps(S, blocks, caps)

    def make():
        return [intersect.PartitionMatroid(blocks, caps, n=8),
                intersect.GraphicMatroid(edges)]

    return _matroid_instance("graphic-partition", make, w, 8, indep,
                             lambda: exhaustive_max(8, indep, w), span)


# The matchings are the same on every seed: relabelling the edges of a
# matching that solves in 0.03 s sends it to a solve of more than 5 s in
# about one case in ten, which no run could absorb.  The last one has two
# optimal matchings; it takes the slow path on every seed (see CHANGES.md).
MATCHINGS = [
    (3, [(0, 0), (0, 1), (0, 2), (1, 1), (2, 0), (2, 2)], [7, 5, 14, 5, 7, 11]),
    (3, [(0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2)], [4, 8, 6, 2, 5, 3]),
    (4, [(0, 0), (0, 1), (0, 2), (1, 3), (2, 1), (2, 3), (3, 0), (3, 1)],
     [2, 6, 6, 1, 1, 4, 4, 8]),
    (4, [(0, 1), (0, 2), (1, 0), (1, 3), (2, 1), (2, 3), (3, 0), (3, 2)],
     [3, 7, 8, 2, 6, 5, 1, 4]),
    (2, [(0, 0), (0, 1), (1, 1)], [2, 3, 1]),
]

# (side, constraints) of each SDP template
SDPS = [(m, 1) for m in (4, 5, 6, 7, 8)] + [(m, 2) for m in (4, 5, 7)]


def sdp_template(base, m, nc):
    """Random symmetric C and A_i with b taken from a PSD matrix of trace
    1/2, so the primal is feasible under the solver's trace cap."""
    C = base.standard_normal((m, m))
    A = [base.standard_normal((m, m)) for _ in range(nc)]
    V = base.standard_normal((m, m))
    alpha = base.dirichlet(np.ones(m)) * 0.5
    X0 = sum(a * np.outer(v, v) / (v @ v) for a, v in zip(alpha, V))
    C = (C + C.T) / 2
    A = [(Ai + Ai.T) / 2 for Ai in A]
    b = np.array([float(np.trace(Ai @ X0)) for Ai in A])
    return C, A, b


def _sdp_instance(name, C, A, b):
    prob = sdp.SdpProblem(C=C, A=A, b=b)
    ref = []

    def run():
        y, value, witnesses, _ = sdp.solve_dual(prob, eps_total=1e-2, seed=0)
        X, _ = sdp.recover_primal(prob, witnesses, y_best=y)
        return (value, X), 0

    def check(out):
        value, X = out
        if len(A) == 1 and not ref:
            ref.append(dual_1d(C, A[0], float(b[0]), prob.K, prob.L))
        return check_sdp(C, A, b, value, X, ref[0] if ref else None)

    return Instance(name, run, check)


def _orthogonal(rng, m):
    Q, R = np.linalg.qr(rng.standard_normal((m, m)))
    return Q * np.sign(np.diag(R))


def matroid_sdp(seed, span=no_span):
    out = [matching_instance("matching-%d" % k, side, edges, w, span)
           for k, (side, edges, w) in enumerate(MATCHINGS)]
    out.append(graphic_partition_instance(span))
    base = np.random.default_rng(TEMPLATE_SEED)
    rng = np.random.default_rng(seed)
    for m, nc in SDPS:
        C, A, b = sdp_template(base, m, nc)
        Q = _orthogonal(rng, m)
        out.append(_sdp_instance("sdp-%dx%d-%d" % (m, m, nc), Q @ C @ Q.T,
                                 [Q @ Ai @ Q.T for Ai in A], b))
    return out


def matroid_sdp_warmup():
    C, A, b = sdp_template(np.random.default_rng(TEMPLATE_SEED + 1), 3, 1)
    return [matching_instance("warm-matching", 2, [(0, 0), (0, 1), (1, 1)],
                              [3, 2, 4]),
            _sdp_instance("warm-sdp", C, A, b)]


WORKLOADS = {
    "feasibility": (feasibility, feasibility_warmup),
    "submodular": (submodular, submodular_warmup),
    "matroid-sdp": (matroid_sdp, matroid_sdp_warmup),
}
