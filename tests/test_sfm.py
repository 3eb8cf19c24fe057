import itertools

import numpy as np
import pytest

from cutplane import sfm
from cutplane.errors import OutOfBox


def all_subsets(n):
    for bits in range(2 ** n):
        yield frozenset(i for i in range(n) if bits & (1 << i))


def brute_min(f):
    best, bs = 0, frozenset()
    for S in all_subsets(f.n):
        v = f(S)
        if v < best:
            best, bs = v, S
    return bs, best


def demo_cut(n=5, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(1, 6)))
             for _ in range(2 * n)]
    edges = [(u, v, w) for u, v, w in edges if u != v]
    return sfm.cut_function(n, edges)


def cut_minus_modular(n, seed):
    """cut function shifted by a modular term so the minimum is nontrivial"""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(1, 5)))
             for _ in range(2 * n)]
    edges = [(u, v, w) for u, v, w in edges if u != v]
    off = rng.integers(-4, 5, size=n)

    def fn(S):
        cut = sum(w for u, v, w in edges if (u in S) != (v in S))
        return cut + sum(int(off[i]) for i in S)

    return sfm.SubmodularFn(n, fn)


# ---------------------------------------------------------------------------
# extension and BFS basics

def test_lovasz_matches_threshold_integral():
    # L(x) = integral over t of f({i : x_i > t}); for sorted distinct
    # levels the integral is a finite sum
    f = demo_cut(5, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.uniform(0, 1, size=5)
        # integral over t in [0,1] of f({i : x_i > t}), piecewise constant
        # between consecutive distinct levels
        levels = sorted(set(x.tolist()) | {0.0})
        want = 0.0
        for lo, hi in zip(levels, levels[1:]):
            S = frozenset(i for i in range(5) if x[i] >= hi)
            want += f(S) * (hi - lo)
        got = sfm.lovasz_eval(f, x)
        assert abs(got - want) < 1e-9


def test_lovasz_rejects_outside_cube():
    f = demo_cut(3)
    with pytest.raises(OutOfBox):
        sfm.lovasz_eval(f, [1.5, 0.0, 0.0])
    with pytest.raises(OutOfBox):
        sfm.lovasz_eval(f, [-0.2, 0.0, 0.0])


def test_lovasz_agrees_on_indicator_points():
    f = cut_minus_modular(5, 3)
    for S in all_subsets(5):
        x = np.zeros(5)
        for i in S:
            x[i] = 1.0
        assert abs(sfm.lovasz_eval(f, x) - f(S)) < 1e-9


def test_bfs_validity_exhaustive():
    # h^T 1_S <= f(S) for every set and a bag of random permutations
    for seed in range(6):
        f = cut_minus_modular(6, seed)
        rng = np.random.default_rng(seed)
        perms = [list(rng.permutation(6)) for _ in range(8)]
        for perm in perms:
            h = sfm.bfs_from_order(f, perm).h
            for S in all_subsets(6):
                assert sum(h[i] for i in S) <= f(S) + 1e-9
        # BFS coordinates sum to f(V)
        h = sfm.bfs_from_order(f, list(range(6))).h
        assert abs(h.sum() - f(frozenset(range(6)))) < 1e-9


def test_separation_hyperplane_supports_lovasz():
    f = demo_cut(5, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(0, 1, size=5)
        h, fhat = sfm.separation_hyperplane(f, x)
        assert abs(fhat - sfm.lovasz_eval(f, x)) < 1e-9
        # the BFS hyperplane minorizes the extension everywhere
        y = rng.uniform(0, 1, size=5)
        assert h.h @ y <= sfm.lovasz_eval(f, y) + 1e-9


def test_degenerate_shortcut():
    assert sfm.degenerate_shortcut([0.5, 0.0, 1.0]) == "empty"
    assert sfm.degenerate_shortcut([-0.5, 0.0, -1.0]) == "full"
    assert sfm.degenerate_shortcut([0.5, -1.0]) is None


# ---------------------------------------------------------------------------
# arcs, bounds, deductions

def test_arcset_transitive_closure():
    arcs = sfm.ArcSet(4)
    arcs.add(0, 1)
    arcs.add(1, 2)
    assert arcs.has(0, 2)
    assert sorted(arcs.R(0)) == [0, 1, 2]
    assert sorted(arcs.Q(2)) == [0, 1, 2]


def test_bounds_envelope_contains_ring_bfs():
    # an arc-consistent BFS coordinate h_i is a marginal f(S + i) - f(S)
    # with R(i) - i inside S and S inside V - Q(i); submodularity puts it
    # between the marginal at V - Q(i) and the marginal at R(i) - i
    V = frozenset(range(5))
    for seed in range(4):
        f = cut_minus_modular(5, seed + 10)
        arcs = sfm.ArcSet(5)
        arcs.add(0, 1)
        upper = np.zeros(5)
        lower = np.zeros(5)
        for i in range(5):
            R = frozenset(arcs.R(i))
            Q = frozenset(arcs.Q(i))
            upper[i] = f(R) - f(R - {i})
            lower[i] = f((V - Q) | {i}) - f(V - Q)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            x = rng.uniform(0, 1, size=5)
            resp = sfm.ring_oracle(f, arcs, x)
            if resp.meta[0] != "bfs":
                continue
            h = resp.meta[1].h
            assert np.all(h <= upper + 1e-9)
            assert np.all(h >= lower - 1e-9)


def test_ring_oracle_respects_arcs():
    f = cut_minus_modular(5, 20)
    arcs = sfm.ArcSet(5)
    arcs.add(2, 0)
    # query points violating the arc must get the arc facet back
    x = np.array([0.1, 0.5, 0.9, 0.5, 0.5])
    resp = sfm.ring_oracle(f, arcs, x)
    assert resp.meta[0] == "arc"
    assert (resp.meta[1], resp.meta[2]) == (2, 0)


def test_ring_oracle_facets_out_of_box():
    f = demo_cut(4, seed=6)
    r = sfm.ring_oracle(f, None, np.array([-0.2, 0.5, 0.5, 0.5]))
    assert r.meta == ("lo", 0)
    r = sfm.ring_oracle(f, None, np.array([0.5, 1.2, 0.5, 0.5]))
    assert r.meta == ("hi", 1)


# ---------------------------------------------------------------------------
# solvers vs exhaustive scan

CORPUS = (
    [("cutmod", n, s) for n in (4, 5, 6) for s in range(3)]
    + [("cut", n, s) for n in (4, 5) for s in range(2)]
)


def build(kind, n, seed):
    if kind == "cut":
        return demo_cut(n, seed)
    return cut_minus_modular(n, seed)


@pytest.mark.parametrize("kind,n,seed", CORPUS)
def test_weak_matches_exhaustive(kind, n, seed):
    f = build(kind, n, seed)
    _, want = brute_min(build(kind, n, seed))
    S, got = sfm.sfm_weakly(f, seed=0)
    assert got == want
    assert f(S) == got


@pytest.mark.parametrize("kind,n,seed", CORPUS)
def test_strong_matches_exhaustive(kind, n, seed):
    f = build(kind, n, seed)
    _, want = brute_min(build(kind, n, seed))
    S, got = sfm.sfm_strongly(f, seed=0)
    assert got == want
    assert f(S) == got


def test_strong_arc_path_without_shortcut():
    # full certificate/deduction machinery, dual shortcut disabled
    for seed in (0, 1):
        f = cut_minus_modular(5, seed)
        _, want = brute_min(cut_minus_modular(5, seed))
        S, got = sfm.sfm_strongly(f, seed=0, dual_shortcut=False)
        assert got == want


def test_trivial_inputs():
    # one-signed modular functions: every BFS is one-signed, so each
    # solver stops at its first BFS with the empty or the full set
    f = sfm.SubmodularFn(3, lambda S: len(S))
    assert sfm.sfm_weakly(f) == (frozenset(), 0)
    f = sfm.SubmodularFn(3, lambda S: len(S))
    assert sfm.sfm_strongly(f) == (frozenset(), 0)
    g = sfm.SubmodularFn(3, lambda S: -len(S))
    assert sfm.sfm_weakly(g) == (frozenset({0, 1, 2}), -3)
    g = sfm.SubmodularFn(3, lambda S: -len(S))
    S, v = sfm.sfm_strongly(g)
    assert (S, v) == (frozenset({0, 1, 2}), -3)


def test_eo_accounting():
    f = cut_minus_modular(6, 42)
    assert f.eo_calls > 0  # M discovery already queried
    before = f.eo_calls
    sfm.sfm_weakly(f)
    assert f.eo_calls > before
    # cache prevents double counting
    c0 = f.eo_calls
    f(frozenset([0]))
    f(frozenset([0]))
    assert f.eo_calls == c0


# ---------------------------------------------------------------------------
# builders

def test_table_function_checks_submodularity():
    with pytest.raises(ValueError):
        sfm.table_function(2, [0, 1, 1, 5])  # supermodular corner
    f = sfm.table_function(2, [0, 1, 1, 1])
    assert f(frozenset([0, 1])) == 1


def test_coverage_function():
    f = sfm.coverage_function(3, [[0, 1], [1, 2], [0]], [2.0, 3.0, 5.0])
    assert f(frozenset([0])) == 5.0
    assert f(frozenset([0, 2])) == 5.0
    assert f(frozenset([0, 1])) == 10.0


def test_cut_function_symmetry():
    f = demo_cut(5, seed=9)
    V = frozenset(range(5))
    for S in all_subsets(5):
        assert f(S) == f(V - S)
