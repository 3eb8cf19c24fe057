"""Tests of the benchmark's answer checks: each accepts a right answer and
rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import itertools
import json
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
warnings.filterwarnings("ignore", message="centering entered")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from cutplane import core, sdp  # noqa: E402
from cutplane.core import Found  # noqa: E402
from cutplane.oracles import halfspace_set_oracle  # noqa: E402
from spans import Tracer  # noqa: E402


def test_box_rejects_point_outside():
    center = np.array([0.2, -0.1, 0.4])
    assert checks.check_in_box(Found(center.copy()), center, 0.1) is None
    x = center.copy()
    x[1] += 0.1 + 1e-6
    assert checks.check_in_box(Found(x), center, 0.1) is not None


def test_halfspaces_reject_violated_constraint():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([0.5, 0.5])
    assert checks.check_in_halfspaces(Found(np.array([0.5, 0.0])), A, b) is None
    assert checks.check_in_halfspaces(Found(np.array([0.5, 0.6])), A, b) is not None


def _empty_certificate(n=3):
    a = np.zeros(n)
    a[0] = 1.0
    params = core.CpmParams.practical(n)
    out = core.run_feasibility(halfspace_set_oracle([(a, -0.1), (-a, -0.1)]),
                               n, params)
    return out, params


def test_thin_certificate_accepts_solver_output_and_rejects_tampering():
    out, params = _empty_certificate()
    assert checks.check_thin_certificate(out, params, 3) is None
    assert checks.check_in_box(out, np.zeros(3), 1.0) is not None

    negative = _empty_certificate()[0]
    j = next(j for j in range(len(negative.t)) if j != negative.pivot)
    negative.t[j] = -1e-3
    assert checks.check_thin_certificate(negative, params, 3) is not None

    inflated = _empty_certificate()[0]
    inflated.t = inflated.t * 1e9
    assert checks.check_thin_certificate(inflated, params, 3) is not None


def _brute_min(n, edges, charge):
    return min(checks.cut_charge_value(frozenset(S), edges, charge)
               for r in range(n + 1)
               for S in itertools.combinations(range(n), r))


def test_min_cut_reference_matches_exhaustive_scan():
    base = np.random.default_rng(5)
    for n, degree in [(6, 2), (8, 3), (9, 5), (10, 3)]:
        edges, charge = workloads.cut_charge_template(base, n, degree)
        assert checks.min_cut_charge(n, edges, charge) == _brute_min(n, edges, charge)


def test_sfm_check_rejects_off_by_one_and_perturbed_set():
    base = np.random.default_rng(11)
    n = 9
    edges, charge = workloads.cut_charge_template(base, n, 3)
    want = checks.min_cut_charge(n, edges, charge)
    best = min((frozenset(S) for r in range(n + 1)
                for S in itertools.combinations(range(n), r)),
               key=lambda S: checks.cut_charge_value(S, edges, charge))
    assert checks.check_sfm(best, want, edges, charge, want) is None
    assert checks.check_sfm(best, want + 1, edges, charge, want) is not None
    assert checks.check_sfm(best, want - 1, edges, charge, want) is not None
    flipped = next(best ^ {i} for i in range(n)
                   if checks.cut_charge_value(best ^ {i}, edges, charge) != want)
    assert checks.check_sfm(flipped, want, edges, charge, want) is not None


def test_matching_reference_and_rejections():
    side, edges, w = workloads.MATCHINGS[2]
    w = np.asarray(w)
    n = len(edges)
    want = checks.max_weight_matching(side, edges, w)
    assert want == checks.exhaustive_max(n, lambda S: checks.is_matching(S, edges), w)
    best = max((list(S) for r in range(n + 1)
                for S in itertools.combinations(range(n), r)
                if checks.is_matching(S, edges)),
               key=lambda S: sum(int(w[i]) for i in S))

    def indep(S):
        return checks.is_matching(S, edges)

    assert checks.check_common_set(best, indep, w, want) is None
    assert checks.check_common_set(best, indep, w, want + 1) is not None
    clash = next(e for e in range(n) if e not in best)
    assert checks.check_common_set(best + [clash], indep, w, want) is not None
    assert checks.check_common_set(best[1:], indep, w, want) is not None


def test_forest_and_caps():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    assert checks.is_forest([0, 1, 3], edges)
    assert not checks.is_forest([0, 1, 2], edges)
    assert not checks.is_forest([0, 1], [(0, 1), (0, 1)])
    assert checks.within_caps([0, 2], [[0, 1], [2, 3]], [1, 1])
    assert not checks.within_caps([0, 1], [[0, 1], [2, 3]], [1, 1])


def test_sdp_check_accepts_solve_and_rejects_perturbed_answers():
    C, A, b = workloads.sdp_template(np.random.default_rng(3), 4, 1)
    prob = sdp.SdpProblem(C=C, A=A, b=b)
    y, value, witnesses, _ = sdp.solve_dual(prob, eps_total=1e-2, seed=0)
    X, _ = sdp.recover_primal(prob, witnesses, y_best=y)
    ref = checks.dual_1d(C, A[0], float(b[0]), prob.K, prob.L)
    assert checks.check_sdp(C, A, b, value, X, ref) is None
    assert checks.check_sdp(C, A, b, value + 1.0, X, ref) is not None
    assert checks.check_sdp(C, A, b, value, X, ref + 1.0) is not None
    assert checks.check_sdp(C, A, b, value, X + 0.5 * np.eye(4), ref) is not None
    assert checks.check_sdp(C, A, b, value, X - 0.5 * np.eye(4), ref) is not None


def test_dual_1d_matches_grid():
    C, A, b = workloads.sdp_template(np.random.default_rng(8), 5, 1)
    prob = sdp.SdpProblem(C=C, A=A, b=b)

    def phi(y):
        return float(b[0]) * y + prob.K * max(np.linalg.eigvalsh(C - y * A[0])[-1], 0)

    grid = min(phi(y) for y in np.linspace(-prob.L, prob.L, 20001))
    ref = checks.dual_1d(C, A[0], float(b[0]), prob.K, prob.L)
    assert ref <= grid + 1e-12
    assert grid - ref < 1e-3


def test_traced_warmups_report_every_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    tracer = Tracer()
    tracer.install()
    try:
        for _, warmup in workloads.WORKLOADS.values():
            for inst in warmup():
                inst.run()
    finally:
        tracer.uninstall()
    produced = tracer.metrics(1)
    assert [n for n in names if n not in produced] == []
