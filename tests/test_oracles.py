import numpy as np
import pytest

from cutplane import oracles
from cutplane.oracles import Halfspace, Inside, NearOptimal


def test_halfspace_normalization_preserves_meta():
    h = Halfspace(np.array([3.0, 4.0]), offset=10.0, meta=("tag", 1))
    hn = h.normalized()
    assert np.allclose(hn.c, [0.6, 0.8])
    assert abs(hn.offset - 2.0) < 1e-12
    assert hn.meta == ("tag", 1)


def test_degenerate_direction_rejected():
    with pytest.raises(ValueError):
        Halfspace(np.zeros(3)).normalized()


def test_oracle_counts_calls():
    seen = []

    def fn(x):
        seen.append(x)
        return Halfspace(np.array([2.0, 0.0]))

    o = oracles.Oracle(fn)
    for k in range(1, 4):
        r = o.query([0, k])
        assert o.calls == k
    # the query reaches fn as a float array, and the cut comes back as fn
    # built it: the cutting-plane loop normalizes it
    assert all(x.dtype == float for x in seen)
    assert np.array_equal(seen[-1], [0.0, 3.0])
    assert np.array_equal(r.c, [2.0, 0.0])


def test_box_oracle():
    so = oracles.box_oracle(np.zeros(2), 1.0)
    assert isinstance(so.query([0.5, -0.5]), Inside)
    r = so.query([3.0, 0.0])
    assert isinstance(r, Halfspace)
    # box must satisfy the returned inequality everywhere
    x = np.array([3.0, 0.0])
    for corner in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        z = np.asarray(corner, float)
        assert r.c @ z <= r.c @ x + r.offset + 1e-12


def test_halfspace_set_oracle():
    cons = [(np.array([1.0, 0.0]), 0.5), (np.array([0.0, 1.0]), 0.5)]
    so = oracles.halfspace_set_oracle(cons)
    assert isinstance(so.query([0.0, 0.0]), Inside)
    r = so.query([2.0, 0.0])
    assert isinstance(r, Halfspace)
    assert np.allclose(r.c, [1.0, 0.0])


def test_subgrad_separation_contains_level_set():
    # f(y) = ||y||^2 on the ball of radius D; any point with f(y) <= f(x)
    # must satisfy the returned halfspace
    rng = np.random.default_rng(0)
    D = 2.0
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, size=3)
        g = 2.0 * x
        r = oracles.subgrad_to_separation(g, D, delta=0.0)
        if isinstance(r, NearOptimal):
            continue
        fx = x @ x
        for _ in range(40):
            y = rng.uniform(-D, D, size=3)
            if y @ y <= fx:
                assert r.c @ y <= r.c @ x + r.offset + 1e-9


def test_subgrad_small_gradient_is_near_optimal():
    r = oracles.subgrad_to_separation(np.zeros(2), D=1.0, delta=0.01)
    assert isinstance(r, NearOptimal)
    assert r.eta == pytest.approx(2 * np.sqrt(0.01))


def test_vertex_opt_oracle_exact():
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    oo = oracles.vertex_opt_oracle(V)
    rng = np.random.default_rng(1)
    for _ in range(25):
        c = rng.standard_normal(2)
        y = oo.query(c)
        assert c @ y >= np.max(V @ c) - 1e-12
    assert oo.calls == 25
