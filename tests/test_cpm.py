import copy
import math

import numpy as np
import pytest

from cutplane import core
from cutplane.core import (
    CpmParams, Found, ThinCertificate, add_cut, centering, centrality,
    certificate, gradient, initial_state, potential, remove_cut,
    run_feasibility,
)
from cutplane.errors import NotUnitVector, PreconditionViolated
from cutplane.linalg import leverage_exact
from cutplane.oracles import Halfspace, Inside, box_oracle, halfspace_set_oracle


def test_params_ordering_enforced():
    with pytest.raises(PreconditionViolated):
        CpmParams(c_a=0.01, c_d=0.1, c_e=0.001, lam=1.0, R=1.0, eps=1e-4)
    p = CpmParams.practical(8)
    assert p.c_e <= p.c_d <= p.c_a


def test_initial_state_centered():
    st = initial_state(4, CpmParams.practical(4))
    assert np.all(st.s > 0)
    assert np.allclose(st.tau, st.psi())
    # the box center is the exact minimizer of the potential
    assert centrality(st) < 1e-10


def _rand_unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _grown_state(seed, n=4, cuts=3):
    """initial box plus a few shifted cuts, recentered, e reset to zero."""
    rng = np.random.default_rng(seed)
    st = initial_state(n, CpmParams.practical(n))
    for _ in range(cuts):
        add_cut(st, _rand_unit(rng, n))
        centering(st, exit_floor=1e-13)
    st.tau = st.psi()
    return st, rng


def test_gradient_matches_finite_differences():
    # freeze e = tau - psi at the base point and difference the potential
    for seed in range(6):
        st, rng = _grown_state(seed)
        p = st.params
        e0 = st.tau - st.psi()

        def pot_frozen(x):
            s = st.A @ x - st.b
            B = st.A / s[:, None]
            G = B.T @ B + p.lam * np.eye(st.n)
            return (-np.sum((p.c_e + e0) * np.log(s))
                    + 0.5 * np.linalg.slogdet(G)[1]
                    + 0.5 * p.lam * float(x @ x))

        assert abs(potential(st) - pot_frozen(st.x)) <= 1e-9
        g = gradient(st)
        h = 1e-6
        for i in range(st.n):
            dx = np.zeros(st.n)
            dx[i] = h
            fd = (pot_frozen(st.x + dx) - pot_frozen(st.x - dx)) / (2 * h)
            assert abs(fd - g[i]) <= 1e-5 * max(1.0, abs(g[i]))


def test_add_cut_leverage_is_ca_and_tau_tracks():
    for seed in range(8):
        st, rng = _grown_state(seed, n=5, cuts=2)
        a = _rand_unit(rng, 5)
        add_cut(st, a)
        psi = leverage_exact(st.A, st.s, st.params.lam)[0]
        # leverage c_a against the pre-add Gram matrix turns into
        # c_a/(1+c_a) once the row itself joins the system
        ca = st.params.c_a
        assert abs(psi[-1] - ca / (1.0 + ca)) < 1e-10
        assert np.max(np.abs(st.tau - psi)) < 1e-8


def test_add_cut_requires_unit_direction():
    st, _ = _grown_state(0)
    with pytest.raises(NotUnitVector):
        add_cut(st, np.array([2.0, 0.0, 0.0, 0.0]))


def test_remove_cut_guards():
    st, _ = _grown_state(1)
    w = st.tau.copy()
    bad = int(np.argmax(w))
    with pytest.raises(PreconditionViolated):
        remove_cut(st, bad, w)


def test_rank_one_bookkeeping_random_mutations():
    # alternate adds and (guard-permitting) removes, tau must track exact
    # leverage through every mutation
    rng = np.random.default_rng(99)
    st = initial_state(5, CpmParams.practical(5))
    mutations = 0
    while mutations < 25:
        if rng.random() < 0.6 or st.m <= st.n + 2:
            add_cut(st, _rand_unit(rng, 5))
        else:
            w = st.psi()
            st.tau = w.copy()
            i = int(np.argmin(w))
            mu_x = float(np.min(w))
            if not (w[i] <= 1.1 * mu_x + 1e-12 and 1.1 * mu_x <= 0.1):
                continue
            remove_cut(st, i, w)
        mutations += 1
        psi = leverage_exact(st.A, st.s, st.params.lam)[0]
        assert np.max(np.abs(st.tau - psi)) < 1e-8
        centering(st, exit_floor=1e-12)
        st.tau = st.psi()


def test_centering_contracts():
    factor = 2.0 * (1.0 - 1.0 / 64.0) ** 200
    for seed in range(5):
        st, rng = _grown_state(seed, n=4, cuts=2)
        p = st.params
        thresh = 0.01 * math.sqrt(p.c_e + float(np.min(st.psi())))
        dx = _rand_unit(rng, 4)
        # scale the kick so the entry precondition still holds
        for scale in (1e-4, 1e-5, 1e-6, 1e-7):
            trial = copy.deepcopy(st)
            trial.x = trial.x + scale * dx
            trial.tau = trial.psi()
            if centrality(trial) <= thresh:
                break
        d0 = centrality(trial)
        if d0 < 1e-13:
            continue
        centering(trial, r=200, exit_floor=0.0)
        assert centrality(trial) <= factor * d0 + 1e-12


def test_run_feasibility_found_in_target():
    target = np.array([0.42, -0.17, 0.3])
    oracle = box_oracle(target, 0.05)
    res = run_feasibility(oracle, 3)
    assert isinstance(res, Found)
    assert np.max(np.abs(res.x - target)) <= 0.05 + 1e-9


def test_run_feasibility_slack_positive_throughout():
    trace = []
    oracle = box_oracle(np.array([0.3, 0.3]), 0.02)
    res = run_feasibility(oracle, 2, trace=trace)
    assert isinstance(res, Found)
    for rec in trace:
        assert rec["min_slack"] > 0
        assert rec["m"] <= 1 + int(2 * 2 / 0.01)
        assert rec["action"] in ("add", "remove")


def test_empty_system_yields_certificate():
    # x_1 <= -0.1 and x_1 >= 0.1 cannot both hold
    cons = [(np.array([1.0, 0.0]), -0.1), (np.array([-1.0, 0.0]), -0.1)]
    oracle = halfspace_set_oracle(cons)
    res = run_feasibility(oracle, 2)
    assert isinstance(res, ThinCertificate)
    assert np.all(res.t >= 0)
    assert res.t[res.pivot] == 0.0
    p = CpmParams.practical(2)
    assert res.residual_norm <= res.declared_residual_bound(p, 2)
    assert res.slack_combination <= res.declared_slack_bound(p, 2)
    assert len(res.origins) == res.A.shape[0]
    assert all(o in ("box", None) or isinstance(o, object) for o in res.origins)


def test_soundness_no_target_point_cut():
    # every polytope the solver ever holds must contain the target set;
    # spy on the oracle and check the witness against each added cut
    witness = np.array([0.25, -0.4])
    base = box_oracle(witness, 0.03)
    seen = []

    class Spy:
        def query(self, x):
            r = base.fn(np.asarray(x, float))
            if isinstance(r, Halfspace):
                # K lives in c^T z <= c^T x + offset
                assert r.c @ witness <= r.c @ x + r.offset + 1e-9
                seen.append(r)
            return r

    res = run_feasibility(Spy(), 2)
    assert isinstance(res, Found)
    assert len(seen) > 0


@pytest.mark.parametrize("make", [
    lambda: box_oracle(np.array([0.3, -0.2]), 0.05),
    lambda: halfspace_set_oracle([(np.array([1.0, 0.0]), -0.1),
                                  (np.array([-1.0, 0.0]), -0.1)]),
], ids=["found", "certificate"])
def test_loop_counts_queries_and_normalizes_cuts(make):
    # a bare object with only query(), answering cuts of norm 2: the loop
    # counts its queries itself and normalizes each cut, so the run is the
    # unit-cut oracle's run bit for bit (scaling by 2 is exact)
    base = make()
    queries = []

    class Doubled:
        def query(self, x):
            queries.append(x)
            r = base.fn(np.asarray(x, float))
            return r if isinstance(r, Inside) else Halfspace(2 * r.c, 2 * r.offset)

    res = run_feasibility(Doubled(), 2)
    ref = run_feasibility(make(), 2)
    assert type(res) is type(ref)
    assert res.oracle_calls == len(queries) == ref.oracle_calls
    assert res.iterations == ref.iterations
    assert np.array_equal(res.x, ref.x)


def test_potential_decreases_under_centering():
    st, rng = _grown_state(3, n=4, cuts=3)
    st.x = st.x + 1e-5 * _rand_unit(rng, 4)
    st.tau = st.psi()
    before = potential(st)
    centering(st, r=50, exit_floor=0.0)
    assert potential(st) <= before + 1e-12


def test_run_feasibility_found_above_fifty_dims():
    # sizes above 50 take the same exact-leverage path as small ones
    n = 51
    c = np.zeros(n)
    c[0] = 0.15
    res = run_feasibility(box_oracle(c, 0.1), n)
    assert isinstance(res, Found)
    assert np.max(np.abs(res.x - c)) <= 0.1 + 1e-9


def _assert_point_is_fresh(st):
    s = st.A @ st.x - st.b
    psi, B, L, Linv = leverage_exact(st.A, s, st.params.lam)
    s_kept, B_kept, L_kept, Linv_kept, psi_kept = st.point()
    assert np.array_equal(s_kept, s)
    assert np.array_equal(B_kept, B)
    assert np.array_equal(L_kept, L)
    assert np.array_equal(Linv_kept, Linv)
    assert np.array_equal(psi_kept, psi)


def test_kept_point_refreshes_on_reassignment():
    st, rng = _grown_state(2, n=4, cuts=4)
    _assert_point_is_fresh(st)
    add_cut(st, _rand_unit(rng, 4))
    _assert_point_is_fresh(st)
    centering(st, exit_floor=1e-12)
    st.tau = st.psi().copy()
    i = int(np.argmin(st.tau))
    remove_cut(st, i, st.tau)
    _assert_point_is_fresh(st)
    st.x = st.x + 1e-3 * _rand_unit(rng, 4)
    _assert_point_is_fresh(st)


def _count_calls(monkeypatch, counts, name):
    """Replace core.<name> by a wrapper that counts its calls in counts."""
    fn = getattr(core, name)
    counts[name] = 0

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(core, name, wrapper)


def test_one_leverage_solve_per_point(monkeypatch):
    # the initial box, each centering entry after a cut is added or
    # dropped, and each Newton step are the distinct points of a solve
    seen = []
    counts = {}

    def leverage_spy(A, s, lam):
        seen.append((A.tobytes(), s.tobytes()))
        return leverage_exact(A, s, lam)

    monkeypatch.setattr(core, "leverage_exact", leverage_spy)
    _count_calls(monkeypatch, counts, "centering")
    _count_calls(monkeypatch, counts, "gradient")
    res = run_feasibility(box_oracle(np.array([0.3, -0.2, 0.1]), 0.02), 3)
    assert isinstance(res, Found)
    # centering takes one gradient at entry and one after each Newton step
    newton_steps = counts["gradient"] - counts["centering"]
    assert counts["centering"] > 0 and newton_steps > 0
    assert len(seen) == len(set(seen))
    assert len(seen) == 1 + counts["centering"] + newton_steps


def test_centering_counts_entry_misses():
    st = initial_state(3, CpmParams.practical(3))
    centering(st)
    assert st.entry_misses == 0
    assert st.max_entry_ratio < 1.0
    # a fresh cut leaves the point off-center: a counted miss
    add_cut(st, _rand_unit(np.random.default_rng(1), 3))
    centering(st)
    assert st.entry_misses == 1
    assert st.max_entry_ratio > 1.0


def test_results_report_entry_misses(monkeypatch):
    calls = {}
    _count_calls(monkeypatch, calls, "centering")
    found = run_feasibility(box_oracle(np.array([0.3, 0.3]), 0.02), 2)
    cons = [(np.array([1.0, 0.0]), -0.1), (np.array([-1.0, 0.0]), -0.1)]
    cert = run_feasibility(halfspace_set_oracle(cons), 2)
    assert isinstance(found, Found) and isinstance(cert, ThinCertificate)
    for res in (found, cert):
        assert 0 < res.entry_misses
        assert res.max_entry_ratio > 1.0
    assert found.entry_misses + cert.entry_misses <= calls["centering"]


@pytest.mark.parametrize("make,n,want", [
    (lambda: box_oracle(np.array([0.3, -0.2, 0.1, 0.25]), 0.02), 4, Found),
    (lambda: halfspace_set_oracle([(np.array([1.0, 0.0, 0.0]), -0.1),
                                   (np.array([-1.0, 0.0, 0.0]), -0.1)]), 3,
     ThinCertificate),
], ids=["box", "empty"])
def test_few_newton_steps_per_centering(monkeypatch, make, n, want):
    # one gradient at entry and one per Newton step: a full Newton step
    # against a Hessian rebuilt at each point recenters in a few steps,
    # the certificate burst included
    counts = {}
    _count_calls(monkeypatch, counts, "centering")
    _count_calls(monkeypatch, counts, "gradient")
    assert isinstance(run_feasibility(make(), n), want)
    assert counts["gradient"] <= 6 * counts["centering"]
