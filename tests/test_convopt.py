import numpy as np

from cutplane import convopt
from cutplane.convopt import feasibility_eps, minimize
from cutplane.errors import IterationCapExceeded
from cutplane.oracles import NearOptimal, Oracle, subgrad_to_separation


def quadratic_oracle(center, D, queries=None):
    """Function oracle for ||x - center||^2; appends (x, value) to queries."""
    center = np.asarray(center, float)

    def fn(x):
        g = 2.0 * (x - center)
        val = float((x - center) @ (x - center))
        if queries is not None:
            queries.append((x.copy(), val))
        return val, subgrad_to_separation(g, D, delta=0.0)

    return Oracle(fn)


def test_minimizes_quadratic():
    for n in (2, 3, 5):
        center = 0.3 * np.ones(n) / np.sqrt(n)
        fo = quadratic_oracle(center, D=1.0)
        res = minimize(fo, n, 1.0, 0.01)
        assert res.best_value < 1e-2
        assert np.linalg.norm(res.best_x - center) < 0.15


def test_returns_best_queried_point():
    queries = []
    fo = quadratic_oracle([0.2, -0.1], D=1.0, queries=queries)
    res = minimize(fo, 2, 1.0, 0.05)
    vals = [v for _, v in queries]
    assert res.best_value == min(vals)
    # the answer is literally one of the queried points
    hits = [np.array_equal(res.best_x, x) for x, _ in queries]
    assert any(hits)


def test_best_value_monotone_in_call_index():
    queries = []
    fo = quadratic_oracle([0.1, 0.25, -0.3], D=1.0, queries=queries)
    minimize(fo, 3, 1.0, 0.02)
    best = float("inf")
    running = []
    for _, v in queries:
        best = min(best, v)
        running.append(best)
    assert all(a >= b for a, b in zip(running, running[1:]))


def test_near_optimal_response_stops_early():
    calls = []

    def fn(x):
        calls.append(x)
        return float(x @ x), NearOptimal()

    res = minimize(Oracle(fn), 2, 1.0, 0.01)
    assert len(calls) == 1
    assert res.termination == "NearOptimalFlag"


def test_feasibility_eps_shrinks_with_alpha_and_n():
    e1 = feasibility_eps(4, 1.0, 0.1)
    assert feasibility_eps(4, 1.0, 0.01) < e1
    assert feasibility_eps(16, 1.0, 0.1) < e1


def test_oracle_calls_reported():
    fo = quadratic_oracle([0.0, 0.0], D=1.0)
    res = minimize(fo, 2, 1.0, 0.05)
    assert res.oracle_calls == fo.calls
    assert res.oracle_calls > 0


def test_oracle_calls_count_this_run_only():
    # a reused Oracle keeps its own running total; each result reports
    # the queries of its own run
    fo = quadratic_oracle([0.1, -0.2], D=1.0)
    first = minimize(fo, 2, 1.0, 0.05)
    second = minimize(fo, 2, 1.0, 0.05)
    assert first.oracle_calls > 0
    assert second.oracle_calls == first.oracle_calls
    assert fo.calls == first.oracle_calls + second.oracle_calls


def test_query_only_oracle_is_counted():
    # an object with query() and no calls attribute
    base = quadratic_oracle([0.2, 0.1], D=1.0)
    queries = []

    class QueryOnly:
        def query(self, x):
            queries.append(x)
            return base.fn(np.asarray(x, float))

    res = minimize(QueryOnly(), 2, 1.0, 0.05)
    assert res.oracle_calls == len(queries) > 0


def test_oracle_calls_counted_past_the_iteration_cap(monkeypatch):
    # the cap's exception carries no count; the result still reports
    # every query the run made, and only those
    queries = []
    base = quadratic_oracle([0.2, 0.1], D=1.0)
    base.query(np.zeros(2))

    def capped(oracle, n, params):
        for _ in range(5):
            oracle.query(np.full(n, 0.1 * len(queries)))
            queries.append(None)
        raise IterationCapExceeded("cap")

    monkeypatch.setattr(convopt, "run_feasibility", capped)
    res = minimize(base, 2, 1.0, 0.05)
    assert res.termination == "WidthExhausted"
    assert res.oracle_calls == len(queries) == 5
