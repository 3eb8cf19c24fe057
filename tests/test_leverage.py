import numpy as np
import pytest

from cutplane import leverage
from cutplane.errors import PreconditionViolated


def make_query(seed, m=12, n=4, eps=0.2):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    v = rng.uniform(0.5, 2.0, size=m)
    # perturb within the allowed relative radius 1/10
    d = rng.standard_normal(m)
    d *= 0.09 / np.linalg.norm(d / v) / 1.0
    w = v + d
    return leverage.LeverageChangeQuery(A, v, w, eps, seed)


def test_sketch_config_validation():
    with pytest.raises(PreconditionViolated):
        leverage.SketchConfig(eps=0.0)
    with pytest.raises(PreconditionViolated):
        leverage.SketchConfig(eps=0.7)
    with pytest.raises(PreconditionViolated):
        leverage.SketchConfig(rows_constant=0.5)


def test_sketch_leverage_close_to_exact():
    from cutplane.linalg import leverage_exact
    rng = np.random.default_rng(7)
    for trial in range(5):
        m, n = 30, 6
        A = rng.standard_normal((m, n))
        s = rng.uniform(0.2, 2.0, size=m)
        lam = 0.3
        exact = leverage_exact(A, s, lam)[0]
        cfg = leverage.SketchConfig(eps=0.1, seed=trial)
        approx = leverage.sketch_leverage(A, s, lam, cfg)
        # multiplicative JL-style accuracy, loose factor for finite k
        assert np.all(approx >= (1 - 3 * cfg.eps) * exact - 1e-9)
        assert np.all(approx <= (1 + 3 * cfg.eps) * exact + 1e-9)


def test_query_rejects_large_perturbation():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((10, 3))
    v = np.ones(10)
    w = v + 0.2  # alpha > 1/10
    q = leverage.LeverageChangeQuery(A, v, w, 0.2, 0)
    with pytest.raises(PreconditionViolated):
        q.validate()
    with pytest.raises(PreconditionViolated):
        leverage.leverage_change(q)


def test_estimator_deterministic_given_seed():
    q = make_query(11)
    h1 = leverage.leverage_change(q)
    h2 = leverage.leverage_change(q)
    assert np.array_equal(h1, h2)


def test_estimator_seed_sensitivity():
    q1 = make_query(12)
    q2 = leverage.LeverageChangeQuery(q1.A, q1.v, q1.w, q1.eps, seed=999)
    assert not np.array_equal(leverage.leverage_change(q1),
                              leverage.leverage_change(q2))


def test_estimator_mean_tracks_truth():
    # a quick version of the unbiasedness acceptance check: fewer draws,
    # one instance, generous tolerance
    rng = np.random.default_rng(13)
    m, n = 10, 3
    A = rng.standard_normal((m, n))
    v = rng.uniform(0.8, 1.5, size=m)
    d = rng.standard_normal(m)
    d *= 0.08 / np.linalg.norm(d / v)
    w = v + d
    truth = leverage.sigma_exact(A, w) - leverage.sigma_exact(A, v)
    draws = np.array([
        leverage.leverage_change(leverage.LeverageChangeQuery(A, v, w, 0.25, s))
        for s in range(800)
    ])
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    # 4 sigma per coordinate, small floor for coordinates with tiny spread
    assert np.all(np.abs(mean - truth) <= 4.0 * se + 1e-9)


def test_sigma_exact_sums_to_rank():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((15, 4))
    v = rng.uniform(0.5, 2.0, size=15)
    assert abs(np.sum(leverage.sigma_exact(A, v)) - 4.0) < 1e-9
