import itertools

import numpy as np
import pytest

from cutplane import intersect as ii


def exhaustive_common(m1, m2, w, n):
    best = 0
    for r in range(n + 1):
        for S in itertools.combinations(range(n), r):
            S = list(S)
            if m1.independent(S) and m2.independent(S):
                best = max(best, sum(w[i] for i in S))
    return best


# ---------------------------------------------------------------------------
# matroid classes

def test_partition_matroid():
    m = ii.PartitionMatroid([[0, 1], [2, 3, 4]], [1, 2], 5)
    assert m.independent([0, 2, 3])
    assert not m.independent([0, 1])
    assert not m.independent([2, 3, 4])


def test_uniform_matroid():
    m = ii.UniformMatroid(2, 4)
    assert m.independent([0, 3])
    assert not m.independent([0, 1, 2])


def test_graphic_matroid_detects_cycles():
    # triangle 0-1, 1-2, 2-0 plus a pendant edge
    m = ii.GraphicMatroid([(0, 1), (1, 2), (2, 0), (2, 3)])
    assert m.independent([0, 1, 3])
    assert not m.independent([0, 1, 2])


def test_matroid_greedy_is_exhaustive_max():
    rng = np.random.default_rng(0)
    for trial in range(10):
        n = 6
        m = ii.PartitionMatroid([[0, 1, 2], [3, 4, 5]], [2, 1], n)
        w = rng.integers(1, 16, size=n)
        S = ii.matroid_greedy(m, w)
        best = 0
        for r in range(n + 1):
            for T in itertools.combinations(range(n), r):
                if m.independent(list(T)):
                    best = max(best, sum(w[i] for i in T))
        assert sum(w[i] for i in S) == best


def test_matroid_polytope_oracle_returns_vertices():
    m = ii.UniformMatroid(2, 4)
    oo = ii.matroid_polytope_oracle(m, 4)
    y = oo.query(np.array([3.0, 1.0, 2.0, -1.0]))
    assert set(np.flatnonzero(y > 0.5)) == {0, 2}


# ---------------------------------------------------------------------------
# isolation perturbation

def test_isolation_preserves_optimal_set():
    # z-optimal vertices must all be c-optimal (exhaustive over a small
    # family of independent sets)
    rng = np.random.default_rng(1)
    n = 6
    m1 = ii.PartitionMatroid([[0, 1, 2], [3, 4, 5]], [1, 2], n)
    m2 = ii.UniformMatroid(3, n)
    for seed in range(10):
        c = rng.integers(1, 16, size=n)
        z = ii.isolation_perturb(c, n, 16, seed)
        copt = exhaustive_common(m1, m2, c, n)
        best_z, best_z_sets = -1, []
        for r in range(n + 1):
            for S in itertools.combinations(range(n), r):
                S = list(S)
                if not (m1.independent(S) and m2.independent(S)):
                    continue
                zw = sum(z[i] for i in S)
                if zw > best_z:
                    best_z, best_z_sets = zw, [S]
                elif zw == best_z:
                    best_z_sets.append(S)
        for S in best_z_sets:
            assert sum(c[i] for i in S) == copt


def test_isolation_uniqueness_rate():
    # the perturbed optimum should be unique in a decent fraction of seeds
    n = 6
    m1 = ii.PartitionMatroid([[0, 1], [2, 3], [4, 5]], [1, 1, 1], n)
    m2 = ii.UniformMatroid(2, n)
    c = np.ones(n, dtype=int)  # maximally degenerate costs
    unique = 0
    seeds = 25
    for seed in range(seeds):
        z = ii.isolation_perturb(c, n, 1, seed)
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
    assert unique >= 0.4 * seeds


def test_schedule_caps():
    lam = ii.schedule(10.0, 1e-6)
    assert lam <= 1e6


# ---------------------------------------------------------------------------
# saddle consistency and end-to-end solves

def test_dual_dominates_primal_everywhere():
    # weak duality: h_lambda(theta) >= f_lambda(x, y) for every feasible
    # vertex pair, checked exhaustively at the solver's final theta
    n = 4
    m1 = ii.PartitionMatroid([[0, 1], [2, 3]], [1, 1], n)
    m2 = ii.UniformMatroid(2, n)
    c = np.array([3.0, 1.0, 2.0, 2.0])
    c = c / np.linalg.norm(c)
    o1 = ii.matroid_polytope_oracle(m1, n)
    o2 = ii.matroid_polytope_oracle(m2, n)
    M = np.sqrt(n) + 1.0
    lam = ii.schedule(M, 1e-1)
    prob = ii.IntersectProblem(c=c, oracle1=o1, oracle2=o2, M=M, lam=lam)
    z, res = ii.solve_intersection(prob, alpha=0.05)
    h_best = ii.h_lambda(res.best_x, prob)[0]
    f_best = -np.inf
    for Sx in itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(n + 1)):
        if not m1.independent(list(Sx)):
            continue
        x = np.zeros(n)
        x[list(Sx)] = 1.0
        for Sy in itertools.chain.from_iterable(
                itertools.combinations(range(n), r) for r in range(n + 1)):
            if not m2.independent(list(Sy)):
                continue
            y = np.zeros(n)
            y[list(Sy)] = 1.0
            f_best = max(f_best, ii.f_lambda(x, y, prob))
    assert h_best >= f_best - 1e-6
    assert np.all(np.isfinite(z))


def small_instances():
    rng = np.random.default_rng(7)
    out = []
    for trial in range(6):
        n = int(rng.integers(4, 7))
        blocks, rem = [], list(range(n))
        while rem:
            k = int(rng.integers(1, 4))
            blocks.append(rem[:k])
            rem = rem[k:]
        caps = [int(rng.integers(1, 3)) for _ in blocks]
        m1 = ii.PartitionMatroid(blocks, caps, n)
        if trial % 2:
            m2 = ii.UniformMatroid(int(rng.integers(1, n)), n)
        else:
            blocks2, rem = [], list(range(n))
            while rem:
                k = int(rng.integers(1, 3))
                blocks2.append(rem[:k])
                rem = rem[k:]
            m2 = ii.PartitionMatroid(blocks2, [1] * len(blocks2), n)
        w = rng.integers(1, 16, size=n)
        out.append((n, m1, m2, w))
    return out


@pytest.mark.parametrize("idx", range(6))
def test_matroid_intersection_exact(idx):
    n, m1, m2, w = small_instances()[idx]
    want = exhaustive_common(m1, m2, w, n)
    S = ii.matroid_intersection(m1, m2, w, Mbound=16, seed=idx)
    S = list(S)
    assert m1.independent(S) and m2.independent(S)
    assert sum(w[i] for i in S) == want


def test_matroid_intersection_seventeen_elements():
    # 17 elements give the dual 3 * 17 = 51 variables, a size above 50
    n = 17
    w = np.random.default_rng(0).integers(1, 10, n)
    m1 = ii.UniformMatroid(4, n)
    m2 = ii.PartitionMatroid([list(range(i, min(i + 4, n)))
                              for i in range(0, n, 4)], [1] * 5, n)
    S = list(ii.matroid_intersection(m1, m2, w, Mbound=int(w.max())))
    assert m1.independent(S) and m2.independent(S)
    assert sum(w[i] for i in S) == exhaustive_common(m1, m2, w, n)


def test_matroid_intersection_rejects_non_integer_weights():
    m1 = ii.UniformMatroid(1, 3)
    m2 = ii.FreeMatroid(3)
    with pytest.raises(ValueError, match="integer"):
        ii.matroid_intersection(m1, m2, [1.5, 2.0, 1.0], Mbound=2)
    # integral values in a float array are integer weights
    S = ii.matroid_intersection(m1, m2, [1.0, 2.0, 1.0], Mbound=2)
    assert list(S) == [1]


# ---------------------------------------------------------------------------
# oracle-call budgets: counted independent() calls, not wall-clock limits

class OracleBudgetExceeded(Exception):
    pass


class BudgetedMatroid:
    """Independence oracle that counts its calls against a budget shared
    with its sibling, and stops the solve once the budget is spent."""

    def __init__(self, matroid, spent, budget):
        self.m, self.n = matroid, matroid.n
        self.spent, self.budget = spent, budget

    def independent(self, S):
        self.spent[0] += 1
        if self.spent[0] > self.budget:
            raise OracleBudgetExceeded("over %d independent() calls"
                                       % self.budget)
        return self.m.independent(S)


def solve_matching(side, edges, w, budget):
    """Max-weight bipartite matching through matroid_intersection with a
    budget of independent() calls; returns the weight and the calls."""
    n = len(edges)
    spent = [0]
    m1, m2 = (BudgetedMatroid(ii.PartitionMatroid(
        [[e for e in range(n) if edges[e][k] == v] for v in range(side)],
        [1] * side, n), spent, budget) for k in (0, 1))
    S = list(ii.matroid_intersection(m1, m2, np.asarray(w),
                                     Mbound=int(max(w))))
    for k in (0, 1):
        assert len({edges[e][k] for e in S}) == len(S)
    return sum(w[e] for e in S), spent[0]


def assignment_value(side, edges, w):
    from scipy.optimize import linear_sum_assignment
    W = np.zeros((side, side))
    for (a, b), x in zip(edges, w):
        W[a, b] = x
    rows, cols = linear_sum_assignment(W, maximize=True)
    return W[rows, cols].sum()


def test_matching_4_within_oracle_budget():
    # two optimal matchings of weight 3: the optimum is not unique, so the
    # certificate has to close on the raw weights (about 60 calls)
    edges, w = [(0, 0), (0, 1), (1, 1)], [2, 3, 1]
    value, _ = solve_matching(2, edges, w, budget=1000)
    assert value == 3


def test_random_matchings_within_oracle_budget():
    rng = np.random.default_rng(7)
    for _ in range(40):
        side = int(rng.integers(2, 5))
        pairs = [(a, b) for a in range(side) for b in range(side)]
        keep = rng.random(len(pairs)) < 0.5
        edges = [p for p, k in zip(pairs, keep) if k] or pairs[:1]
        w = [int(x) for x in rng.integers(1, 9, size=len(edges))]
        value, _ = solve_matching(side, edges, w, budget=20000)
        assert value == assignment_value(side, edges, w), (side, edges, w)
