import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "cutplane.cli"]


def run_cli(args, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + args, capture_output=True, text=True, env=env)


@pytest.fixture
def specs(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)
    return write


def test_feas_found(specs):
    path = specs("box.json", {
        "n": 2, "eps": 1e-4,
        "set": {"type": "box", "center": [0.3, -0.2], "radius": 0.1},
    })
    r = run_cli(["feas", "--spec", path])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["verdict"] == "found"
    assert abs(out["x"][0] - 0.3) <= 0.1 + 1e-9


def test_feas_certificate_exit_code(specs):
    path = specs("empty.json", {
        "n": 2, "eps": 1e-4,
        "set": {"type": "halfspaces",
                "A": [[1.0, 0.0], [-1.0, 0.0]], "b": [-0.1, -0.1]},
    })
    r = run_cli(["feas", "--spec", path])
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert out["verdict"] == "certificate"
    assert out["min_slack"] >= 0


def test_feas_trace_is_jsonl(specs, tmp_path):
    path = specs("box2.json", {
        "n": 2,
        "set": {"type": "box", "center": [0.4, 0.4], "radius": 0.05},
    })
    tr = str(tmp_path / "trace.jsonl")
    r = run_cli(["feas", "--spec", path, "--trace", tr])
    assert r.returncode == 0
    lines = open(tr).read().splitlines()
    assert len(lines) > 0
    for line in lines:
        rec = json.loads(line)
        for key in ("k", "m", "potential", "min_slack", "centrality",
                    "action", "oracle_calls"):
            assert key in rec


def test_stdout_byte_identical_across_runs(specs):
    path = specs("box3.json", {
        "n": 3,
        "set": {"type": "box", "center": [0.1, 0.2, -0.3], "radius": 0.08},
    })
    r1 = run_cli(["feas", "--spec", path, "--seed", "5"])
    r2 = run_cli(["feas", "--spec", path, "--seed", "5"])
    assert r1.stdout == r2.stdout
    assert r1.returncode == r2.returncode == 0


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli(["feas", "--spec", str(bad)])
    assert r.returncode == 3
    err = json.loads(r.stderr)
    assert "line" in err["error"]

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"set": {"type": "box"}}))
    r = run_cli(["feas", "--spec", str(missing)])
    assert r.returncode == 3


def test_sfm_weak_and_strong(specs):
    spec = {"type": "cut", "n": 4,
            "edges": [[0, 1, 2], [1, 2, 3], [2, 3, 1], [0, 3, 2]]}
    path = specs("cut.json", spec)
    for mode in ("weak", "strong"):
        r = run_cli(["sfm", "--spec", path, "--mode", mode])
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)
        assert out["min_value"] == 0  # a cut function minimizes at 0
        assert out["eo_calls"] > 0


def test_matroid_subcommand(specs):
    path = specs("mi.json", {
        "m1": {"type": "partition", "blocks": [[0, 1], [2, 3]],
               "capacities": [1, 1], "n": 4},
        "m2": {"type": "uniform", "rank": 2, "n": 4},
        "weights": [5, 4, 3, 2],
    })
    r = run_cli(["matroid", "--spec", path])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["weight"] == 8.0  # one of {0,1} plus one of {2,3}: 5+3


def test_matroid_rejects_fractional_weights(specs):
    path = specs("mi.json", {
        "m1": {"type": "uniform", "rank": 1, "n": 2},
        "m2": {"type": "free", "n": 2},
        "weights": [1.5, 2],
    })
    r = run_cli(["matroid", "--spec", path])
    assert r.returncode == 3
    assert "integer" in json.loads(r.stderr)["error"]


def test_sdp_subcommand(specs):
    path = specs("sdp.json", {
        "C": [[2.0, 1.0], [1.0, -1.0]],
        "A": [[[0.0, 0.0], [0.0, 0.0]]],
        "b": [0.0],
    })
    r = run_cli(["sdp", "--spec", path, "--eps", "1e-3"])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    import numpy as np
    C = np.array([[2.0, 1.0], [1.0, -1.0]])
    lam = np.linalg.eigvalsh(C)[-1]
    K = float(np.linalg.norm(C)) + 1.0  # trace cap M+1, M = ||C||_F here
    assert out["dual_value"] == pytest.approx(K * lam, rel=1e-2)


def test_chase_emits_jsonl():
    r = run_cli(["chase", "--m", "8", "--rounds", "20", "--seed", "1"])
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 20
    recs = [json.loads(l) for l in lines]
    assert [rec["k"] for rec in recs] == list(range(1, 21))
    assert all(rec["supnorm"] >= 0 for rec in recs)


def test_env_seed_fallback(specs):
    path = specs("box4.json", {
        "n": 2,
        "set": {"type": "box", "center": [0.25, 0.25], "radius": 0.1},
    })
    r1 = run_cli(["feas", "--spec", path], env_extra={"CUTPLANE_SEED": "7"})
    r2 = run_cli(["feas", "--spec", path, "--seed", "7"])
    assert r1.stdout == r2.stdout


def _assert_input_error(r):
    assert r.returncode == 3, (r.returncode, r.stderr)
    assert json.loads(r.stderr)["error"]


@pytest.mark.parametrize("args", [
    ["feas", "--spec", "SPEC", "--bogus"],          # unknown flag
    ["feas"],                                        # missing --spec
    ["feas", "--spec", "SPEC", "--profile", "theoretical"],
    ["bench", "--corpus", "DIR", "--out", "DIR"],   # no such subcommand
    ["feas", "--spec", "SPEC", "--seed", "x"],
    [],
    ["sfm", "--spec", "TABLE_N"],                    # non-integer n
    ["sfm", "--spec", "TABLE_LEN"],                  # 3 values for n = 2
    ["matroid", "--spec", "WEIGHTS"],                # non-numeric weight
])
def test_usage_errors_exit_3(specs, tmp_path, args):
    fill = {"DIR": str(tmp_path)}
    for name, spec in {
        "SPEC": {"n": 2, "set": {"type": "box", "center": [0.2, 0.2],
                                 "radius": 0.1}},
        "TABLE_N": {"type": "table", "n": "x", "values": [0, 1]},
        "TABLE_LEN": {"type": "table", "n": 2, "values": [0, 1, 1]},
        "WEIGHTS": {"m1": {"type": "uniform", "rank": 1, "n": 2},
                    "m2": {"type": "free", "n": 2}, "weights": ["a", 2]},
    }.items():
        fill[name] = specs(name + ".json", spec)
    _assert_input_error(run_cli([fill.get(a, a) for a in args]))


def test_opt_writes_only_json_to_stderr(specs):
    path = specs("opt2.json", {"type": "affine_max", "n": 2,
                               "slopes": [[1.0, 0.5], [-1.0, 0.25]],
                               "offsets": [0.0, 0.1]})
    r = run_cli(["opt", "--spec", path])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["oracle_calls"] > 0
    for line in r.stderr.splitlines():
        json.loads(line)


def test_non_integer_env_seed_is_input_error(specs):
    path = specs("box5.json", {
        "n": 2, "set": {"type": "box", "center": [0.2, 0.2], "radius": 0.1},
    })
    _assert_input_error(run_cli(["feas", "--spec", path],
                                env_extra={"CUTPLANE_SEED": "x"}))


def test_non_numeric_spec_value_is_input_error(specs):
    path = specs("box6.json", {
        "n": "x", "set": {"type": "box", "center": [0.2, 0.2], "radius": 0.1},
    })
    r = run_cli(["feas", "--spec", path])
    _assert_input_error(r)
    assert "'n'" in json.loads(r.stderr)["error"]


@pytest.mark.parametrize("body", [
    {"type": "box", "center": [0.3], "radius": 0.1},
    {"type": "box", "center": [0.3, 0.3, 0.3], "radius": 0.1},
    {"type": "halfspaces", "A": [[1.0, 0.0], [0.0]], "b": [0.5, 0.5]},
    {"type": "halfspaces", "A": [[1.0, 0.0, 0.0]], "b": [0.5]},
    {"type": "halfspaces", "A": [[1.0, 0.0]], "b": [0.5, 0.5]},
])
def test_feas_rejects_set_of_wrong_dimension(specs, body):
    path = specs("dim.json", {"n": 2, "set": body})
    r = run_cli(["feas", "--spec", path])
    _assert_input_error(r)
    assert r.stdout == ""


@pytest.mark.parametrize("spec", [
    {"type": "cut", "n": "x", "edges": [[0, 1, 1]]},
    {"type": "cut", "n": 2, "edges": [[0, 1]]},
    {"type": "cut", "edges": []},
    {"type": "cut", "n": 2, "edges": [[0, 1, "a"]]},
    {"type": "cut", "n": 2, "edges": [[0, 5, 1]]},
    {"type": "cut", "n": -1, "edges": []},
    {"type": "coverage", "sets": [[0], [5]], "weights": [1, 2]},
])
def test_sfm_rejects_malformed_function(specs, spec):
    path = specs("fn.json", spec)
    r = run_cli(["sfm", "--spec", path])
    _assert_input_error(r)
    assert r.stdout == ""


@pytest.mark.parametrize("slopes, offsets", [
    ([[1.0, 0.0, 0.0]], [0.0]),
    ([[1.0, 0.0]], [0.0, 1.0]),
])
def test_opt_rejects_affine_pieces_of_wrong_dimension(specs, slopes, offsets):
    path = specs("opt.json", {"type": "affine_max", "n": 2,
                              "slopes": slopes, "offsets": offsets})
    _assert_input_error(run_cli(["opt", "--spec", path]))
