"""End-to-end acceptance gate.

Ten criteria, one test each.  These are deliberately heavier than the unit
suites; sizes, draw counts and tolerances are fixed here and should not be
reduced without touching the corresponding unit coverage first.
"""

import itertools
import math
import time

import numpy as np
import pytest

from cutplane import chasing, core, intersect, leverage, linalg, sdp, sfm
from cutplane.convopt import feasibility_eps, minimize
from cutplane.oracles import (
    Inside,
    Oracle,
    box_oracle,
    halfspace_set_oracle,
    subgrad_to_separation,
)


def all_subsets(n):
    for bits in range(2 ** n):
        yield frozenset(i for i in range(n) if bits & (1 << i))


# ---------------------------------------------------------------------------
# instance builders shared by several criteria

def _cut_instance(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(n)), int(rng.integers(n)),
              int(rng.integers(1, 8))) for _ in range(2 * n)]
    edges = [(u, v, w) for u, v, w in edges if u != v]
    off = rng.integers(-5, 6, size=n)

    def fn(S):
        c = sum(w for u, v, w in edges if (u in S) != (v in S))
        return c + sum(int(off[i]) for i in S)

    return sfm.SubmodularFn(n, fn)


def _coverage_instance(n, seed):
    rng = np.random.default_rng(seed)
    universe = 2 * n
    sets = [list(rng.choice(universe, size=rng.integers(1, 5), replace=False))
            for _ in range(n)]
    weights = rng.integers(1, 6, size=universe).astype(float)
    off = rng.integers(1, 7, size=n)

    def fn(S):
        covered = set()
        for i in S:
            covered.update(sets[i])
        return sum(weights[u] for u in covered) - sum(int(off[i]) for i in S)

    return sfm.SubmodularFn(n, fn)


def _table_instance(n, seed):
    # concave-of-cardinality plus a modular shift, materialized as a table
    # so the solver exercises the table-backed access path
    rng = np.random.default_rng(seed)
    conc = [0] + list(np.cumsum(sorted(rng.integers(1, 9, size=n))[::-1]))
    shift = rng.integers(-3, 4, size=n)
    values = []
    for bits in range(2 ** n):
        S = [i for i in range(n) if bits & (1 << i)]
        values.append(int(conc[len(S)] + sum(int(shift[i]) for i in S)))
    return sfm.table_function(n, values, check=False)


def _brute_min(builder, n, seed):
    f = builder(n, seed)
    best = 0
    for S in all_subsets(n):
        best = min(best, f(S))
    return best


# ---------------------------------------------------------------------------

def test_criterion_01_sfm_exactness_corpus():
    t0 = time.time()
    builders = [_cut_instance, _coverage_instance, _table_instance]
    count = 0
    for i in range(70):
        builder = builders[i % 3]
        n = 4 + (i % 9)  # 4..12
        if builder is _table_instance:
            n = min(n, 10)  # table materializes 2^n values
        seed = 1000 + i
        want = _brute_min(builder, n, seed)
        fw = builder(n, seed)
        Sw, vw = sfm.sfm_weakly(fw, seed=0)
        fs = builder(n, seed)
        Ss, vs = sfm.sfm_strongly(fs, seed=0)
        assert vw == want, "weak solver missed on instance %d" % i
        assert vs == want, "strong solver missed on instance %d" % i
        assert fw(Sw) == vw and fs(Ss) == vs
        count += 3  # weak, strong, and the exhaustive reference
    assert count >= 200
    assert time.time() - t0 < 600


def test_criterion_02_lovasz_and_bfs_validity():
    # every emitted BFS is a valid base-polytope point, exhaustively
    for seed in range(5):
        n = 6 + (seed % 3)
        f = _cut_instance(n, seed)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x = rng.uniform(0, 1, size=n)
            h, fhat = sfm.separation_hyperplane(f, x)
            for S in all_subsets(n):
                assert sum(h.h[i] for i in S) <= f(S) + 1e-9
    # extension values against the threshold-integral oracle
    f = _cut_instance(7, 99)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(0, 1, size=7)
        levels = sorted(set(x.tolist()) | {0.0})
        want = 0.0
        for lo, hi in zip(levels, levels[1:]):
            S = frozenset(i for i in range(7) if x[i] >= hi)
            want += f(S) * (hi - lo)
        assert abs(sfm.lovasz_eval(f, x) - want) <= 1e-9


def test_criterion_03_leverage_change_estimator():
    draws_per_instance = 10 ** 4
    bad_instances = 0
    for inst in range(20):
        rng = np.random.default_rng(500 + inst)
        m = int(rng.integers(6, 14))
        n = int(rng.integers(2, 5))
        A = rng.standard_normal((m, n))
        v = rng.uniform(0.7, 1.6, size=m)
        d = rng.standard_normal(m)
        d *= rng.uniform(0.03, 0.095) / np.linalg.norm(d / v)
        w = v + d
        eps = 0.25
        q0 = leverage.LeverageChangeQuery(A, v, w, eps, 0)
        alpha = q0.alpha
        truth = leverage.sigma_exact(A, w) - leverage.sigma_exact(A, v)
        draws = np.array([
            leverage.leverage_change(
                leverage.LeverageChangeQuery(A, v, w, eps, 10 ** 6 * inst + s))
            for s in range(draws_per_instance)
        ])
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws_per_instance)
        # aggregate z-test per instance; a per-coordinate 3-sigma check over
        # the whole corpus (~200 coordinates) trips on chance alone
        bias = float(np.linalg.norm(mean - truth))
        assert bias <= 3.0 * float(np.linalg.norm(se)) + 1e-12, \
            "bias beyond 3 standard errors on instance %d" % inst
        err = np.linalg.norm(draws - truth, axis=1)
        frac = float(np.mean(err > 10.0 * alpha * eps))
        if frac > 0.05:
            bad_instances += 1
    assert bad_instances == 0


def test_criterion_04_chasing_envelope():
    t0 = time.time()
    m, c, R, rounds, seeds = 64, 1.0, 1.0, 10 ** 5, 100
    ks = np.arange(1, rounds + 1)
    envs = {p: chasing.envelope(m, ks, c, R, p) for p in (0.5, 0.1, 0.01)}
    violations = {p: 0 for p in envs}
    for seed in range(seeds):
        sup = chasing.simulate_dense_fast(rounds, m, c, R, seed)
        for p, env in envs.items():
            if np.any(sup > env):
                violations[p] += 1
    for p, count in violations.items():
        assert count / seeds <= p + 0.02, \
            "envelope violated too often at p=%g (%d/%d)" % (p, count, seeds)
    assert time.time() - t0 < 120


def _random_feasibility_instance(idx):
    rng = np.random.default_rng(3000 + idx)
    n = int(rng.integers(2, 21))
    if idx % 2 == 0:
        # nonempty: small box around a random interior point
        center = rng.uniform(-0.6, 0.6, size=n)
        radius = float(rng.uniform(0.02, 0.1))
        make = lambda: box_oracle(center, radius)
        witness = center
        feasible = True
    else:
        # empty: two antiparallel halfspaces with a gap
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        gap = float(rng.uniform(0.05, 0.3))
        cons = [(a, -gap / 2), (-a, -gap / 2)]
        make = lambda: halfspace_set_oracle(cons)
        witness = None
        feasible = False
    return n, make, witness, feasible


def test_criterion_05_cpm_vs_ellipsoid():
    for idx in range(50):
        n, make, witness, feasible = _random_feasibility_instance(idx)
        params = core.CpmParams.practical(n)
        out = core.run_feasibility(make(), n, params)
        ell = core.ellipsoid_baseline(make(), n, R=1.0, eps=params.eps)
        if feasible:
            assert isinstance(out, core.Found), "cpm missed on %d" % idx
            assert isinstance(ell, core.Found), "ellipsoid missed on %d" % idx
            # membership of the returned point
            assert isinstance(make().query(out.x), Inside)
        else:
            assert isinstance(out, core.ThinCertificate)
            assert isinstance(ell, core.Infeasible)
            assert np.all(out.t >= 0)
            assert out.residual_norm <= out.declared_residual_bound(params, n)
            assert out.slack_combination <= out.declared_slack_bound(params, n)


def test_criterion_06_centering_contraction():
    factor = 2.0 * (1.0 - 1.0 / 64.0) ** 200
    checked = 0
    attempt = 0
    while checked < 30:
        attempt += 1
        rng = np.random.default_rng(7000 + attempt)
        n = int(rng.integers(2, 7))
        st = core.initial_state(n, core.CpmParams.practical(n))
        for _ in range(int(rng.integers(0, 4))):
            a = rng.standard_normal(n)
            core.add_cut(st, a / np.linalg.norm(a))
            core.centering(st, exit_floor=1e-13)
        st.tau = st.psi()
        thresh = 0.01 * math.sqrt(st.params.c_e + float(np.min(st.psi())))
        dx = rng.standard_normal(n)
        dx /= np.linalg.norm(dx)
        trial = None
        for scale in (1e-4, 1e-5, 1e-6):
            cand = st.copy()
            cand.x = cand.x + scale * dx
            cand.tau = cand.psi()
            if core.centrality(cand) <= thresh:
                trial = cand
                break
        if trial is None:
            continue
        d0 = core.centrality(trial)
        if d0 < 1e-13:
            continue
        core.centering(trial, r=200, exit_floor=0.0)
        assert core.centrality(trial) <= factor * d0 + 1e-12
        checked += 1


def test_criterion_07_rank_one_bookkeeping():
    rng = np.random.default_rng(11)
    mutations = 0
    st = core.initial_state(6, core.CpmParams.practical(6))
    while mutations < 100:
        removable = False
        if st.m > st.n + 2:
            w = st.psi()
            i = int(np.argmin(w))
            mu_x = float(np.min(w))
            removable = w[i] <= 1.1 * mu_x + 1e-12 and 1.1 * mu_x <= 0.1
        if removable and rng.random() < 0.45:
            st.tau = st.psi()
            core.remove_cut(st, i, st.tau)
        else:
            a = rng.standard_normal(6)
            core.add_cut(st, a / np.linalg.norm(a))
        mutations += 1
        exact = linalg.leverage_exact(st.A, st.s, st.params.lam)[0]
        assert np.max(np.abs(st.tau - exact)) <= 1e-8, \
            "tau drifted at mutation %d" % mutations
        core.centering(st, exit_floor=1e-12)
        st.tau = st.psi()


def _mi_instance(trial):
    rng = np.random.default_rng(4000 + trial)
    n = int(rng.integers(4, 11))
    blocks, rem = [], list(range(n))
    while rem:
        k = int(rng.integers(1, 4))
        blocks.append(rem[:k])
        rem = rem[k:]
    caps = [int(rng.integers(1, 3)) for _ in blocks]
    m1 = intersect.PartitionMatroid(blocks, caps, n)
    kind = trial % 3
    if kind == 0:
        edges = [(int(rng.integers(0, 5)), int(rng.integers(0, 5)))
                 for _ in range(n)]
        m2 = intersect.GraphicMatroid(edges)
    elif kind == 1:
        m2 = intersect.UniformMatroid(int(rng.integers(1, n)), n)
    else:
        blocks2, rem = [], list(range(n))
        while rem:
            k = int(rng.integers(1, 3))
            blocks2.append(rem[:k])
            rem = rem[k:]
        m2 = intersect.PartitionMatroid(blocks2, [1] * len(blocks2), n)
    w = rng.integers(1, 17, size=n)
    return n, m1, m2, w


def _exhaustive_common(m1, m2, w, n):
    best = 0
    for r in range(n + 1):
        for S in itertools.combinations(range(n), r):
            S = list(S)
            if m1.independent(S) and m2.independent(S):
                best = max(best, sum(w[i] for i in S))
    return best


def test_criterion_08_matroid_intersection():
    for trial in range(100):
        n, m1, m2, w = _mi_instance(trial)
        want = _exhaustive_common(m1, m2, w, n)
        S = intersect.matroid_intersection(m1, m2, w, Mbound=16, seed=trial)
        got = sum(w[i] for i in S)
        assert m1.independent(list(S)) and m2.independent(list(S))
        assert got == want, "instance %d: %d != %d" % (trial, got, want)

    # isolation uniqueness rate on a fixed degenerate family
    n = 6
    m1 = intersect.PartitionMatroid([[0, 1], [2, 3], [4, 5]], [1, 1, 1], n)
    m2 = intersect.UniformMatroid(2, n)
    c = np.ones(n, dtype=int)
    unique = 0
    for seed in range(100):
        z = intersect.isolation_perturb(c, n, 1, seed)
        best_z, count = -1, 0
        for r in range(n + 1):
            for S in itertools.combinations(range(n), r):
                S = list(S)
                if not (m1.independent(S) and m2.independent(S)):
                    continue
                zw = sum(z[i] for i in S)
                if zw > best_z:
                    best_z, count = zw, 1
                elif zw == best_z:
                    count += 1
        if count == 1:
            unique += 1
    assert unique >= 40


def _sdp_instance(seed):
    rng = np.random.default_rng(9000 + seed)
    m = int(rng.integers(2, 7))
    nc = int(rng.integers(1, 4))
    C = rng.standard_normal((m, m))
    C = (C + C.T) / 2
    A = []
    for _ in range(nc):
        Ai = rng.standard_normal((m, m))
        A.append((Ai + Ai.T) / 2)
    # b comes from an actual PSD matrix of small trace so the primal side
    # is feasible under the solver's trace cap
    V = rng.standard_normal((m, m))
    alpha = rng.dirichlet(np.ones(m)) * 0.5
    X0 = sum(a * np.outer(v, v) / (v @ v) for a, v in zip(alpha, V))
    b = np.array([float(np.trace(Ai @ X0)) for Ai in A])
    return sdp.SdpProblem(C=C, A=A, b=b)


def _grid_dual(prob):
    # staged grid refinement over the same L-box the solver searches; the
    # dual objective is convex in y, so zooming in around the grid argmin
    # converges to the box-constrained optimum
    def value(y):
        S = prob.slack(y)
        return float(prob.b @ y) + prob.K * max(np.linalg.eigvalsh(S)[-1], 0.0)

    steps = 41 if prob.ncons <= 2 else 13
    stages = 10 if prob.ncons <= 2 else 30
    center = np.zeros(prob.ncons)
    half = prob.L
    best = np.inf
    for _ in range(stages):
        axes = [np.clip(np.linspace(c - half, c + half, steps),
                        -prob.L, prob.L) for c in center]
        grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, prob.ncons)
        vals = [value(y) for y in grid]
        j = int(np.argmin(vals))
        best = min(best, vals[j])
        center = grid[j]
        # keep the new window wider than the old spacing so the true
        # minimizer cannot fall between grid points
        half = 4.0 * (2.0 * half / (steps - 1))
    return best


def test_criterion_09_sdp_sandwich():
    for seed in range(30):
        prob = _sdp_instance(seed)
        y, val, wit, _ = sdp.solve_dual(prob, eps_total=1e-2, seed=0)
        want = _grid_dual(prob)
        scale = max(1.0, abs(want))
        assert abs(val - want) <= 1e-2 * scale + 1e-2, \
            "dual off on seed %d: %g vs grid %g" % (seed, val, want)
        X, _ = sdp.recover_primal(prob, wit, y_best=y)
        feas = sum(abs(prob.b[i] - np.trace(prob.A[i] @ X))
                   for i in range(prob.ncons))
        assert feas <= 1e-2, "primal residual %g on seed %d" % (feas, seed)
        gap = val - float(np.trace(prob.C @ X))
        assert gap <= 2e-2 * scale + 2e-2
        assert np.linalg.eigvalsh(X)[0] >= -1e-12

    # the one-dimensional instance recovers the top eigenvalue exactly
    # (dual value is the trace cap times lambda_max for a positive matrix)
    prob = sdp.SdpProblem(C=np.array([[1.7]]),
                          A=[np.zeros((1, 1))], b=np.zeros(1))
    y, val, wit, _ = sdp.solve_dual(prob, eps_total=1e-4, seed=0)
    assert abs(val / prob.K - 1.7) <= 1e-3


def _affine_max_oracle(n, seed):
    rng = np.random.default_rng(seed)
    k = 2 * n
    slopes = rng.standard_normal((k, n))
    offsets = rng.uniform(0, 0.5, size=k)
    D = 2 * math.sqrt(n)

    def fn(x):
        vals = slopes @ x + offsets
        j = int(np.argmax(vals))
        return float(vals[j]), subgrad_to_separation(slopes[j], D, 0.0)

    return fn


def _ellipsoid_calls(fn, n, eps):
    class _Cuts:
        def query(self, x):
            return fn(np.asarray(x, float))[1]

    return core.ellipsoid_baseline(_Cuts(), n, R=1.0, eps=eps).oracle_calls


def test_criterion_10_scaling_trend():
    # the cutting-plane solver runs once per size on the fixed seed-0
    # instance; the ellipsoid count is a geometric mean over 8 instance
    # seeds because its stopping rule (thin in the current cut direction)
    # makes per-instance counts swing by almost an order of magnitude
    ns = [2, 4, 8, 16]
    cp_calls, el_calls = [], []
    for n in ns:
        fn = _affine_max_oracle(n, 0)
        fo = Oracle(fn)
        minimize(fo, n, 1.0, 0.1)
        cp_calls.append(fo.calls)

        eps = feasibility_eps(n, 1.0, 0.1)
        counts = [_ellipsoid_calls(_affine_max_oracle(n, s), n, eps)
                  for s in range(8)]
        el_calls.append(float(np.exp(np.mean(np.log(counts)))))

    lx = np.log(ns)
    cp_fit = float(np.polyfit(lx, np.log(cp_calls), 1)[0])
    el_fit = float(np.polyfit(lx, np.log(el_calls), 1)[0])
    assert 0.8 <= cp_fit <= 1.6, "oracle-call exponent %g" % cp_fit
    assert el_fit > 1.7, "ellipsoid exponent %g" % el_fit
