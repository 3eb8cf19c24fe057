"""Command line front-end.

One solve per invocation; results go to stdout as JSON, per-iteration
traces to --trace as JSONL.  Exit codes are the machine interface:
0 solved, 2 infeasible / thin certificate, 3 input error, 4 solver
diagnostic (NoProgress, IterationCapExceeded, RoundingFailed).
"""

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import chasing, core, intersect, sdp, sfm
from .convopt import OptimizeSpec, minimize
from .errors import (
    CutplaneError,
    InputError,
    IterationCapExceeded,
    NoProgress,
    RoundingFailed,
)
from .oracles import FunctionOracle, subgrad_to_separation

EXIT_OK = 0
EXIT_CERT = 2
EXIT_INPUT = 3
EXIT_DIAG = 4


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise InputError("malformed JSON in %s: line %d column %d: %s"
                         % (path, e.lineno, e.colno, e.msg))


def _require(d, key, path):
    if key not in d:
        raise InputError("missing key %r in %s" % (key, path))
    return d[key]


def _write_trace(path, records):
    if not path:
        return
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_function(d, path="<spec>"):
    kind = _require(d, "type", path)
    if kind == "cut":
        edges = _require(d, "edges", path)
        n = d.get("n", 1 + max(max(u, v) for u, v, _ in edges))
        return sfm.cut_function(n, edges)
    if kind == "table":
        n = _require(d, "n", path)
        return sfm.table_function(n, _require(d, "values", path))
    if kind == "coverage":
        sets = _require(d, "sets", path)
        return sfm.coverage_function(len(sets), sets, _require(d, "weights", path))
    raise InputError("unknown function type %r in %s" % (kind, path))


def load_matroid(d, path="<spec>"):
    kind = _require(d, "type", path)
    if kind == "partition":
        return intersect.PartitionMatroid(_require(d, "blocks", path),
                                          _require(d, "capacities", path),
                                          d.get("n"))
    if kind == "uniform":
        return intersect.UniformMatroid(_require(d, "rank", path),
                                        _require(d, "n", path))
    if kind == "graphic":
        return intersect.GraphicMatroid(_require(d, "edges", path))
    if kind == "free":
        return intersect.FreeMatroid(_require(d, "n", path))
    raise InputError("unknown matroid type %r in %s" % (kind, path))


def _load_set_oracle(d, path):
    kind = _require(d, "type", path)
    if kind == "box":
        from .oracles import box_oracle
        return box_oracle(np.asarray(_require(d, "center", path), float),
                          float(_require(d, "radius", path)))
    if kind == "halfspaces":
        from .oracles import halfspace_set_oracle
        A = _require(d, "A", path)
        b = _require(d, "b", path)
        return halfspace_set_oracle(list(zip(A, b)))
    raise InputError("unknown set type %r in %s" % (kind, path))


def _params_for(args, n, R, eps):
    if args.profile == "theoretical":
        return core.CpmParams.theoretical(n, R=R, eps=eps)
    return core.CpmParams.practical(n, R=R, eps=eps)


def cmd_feas(args):
    spec = _load_json(args.spec)
    n = int(_require(spec, "n", args.spec))
    R = float(spec.get("R", 1.0))
    eps = float(spec.get("eps", 1e-4))
    oracle = _load_set_oracle(_require(spec, "set", args.spec), args.spec)
    trace = [] if args.trace else None
    out = core.run_feasibility(oracle, n, _params_for(args, n, R, eps),
                               trace=trace)
    _write_trace(args.trace, trace)
    if isinstance(out, core.Found):
        _emit({"verdict": "found", "x": out.x.tolist(),
               "iterations": out.iterations, "oracle_calls": out.oracle_calls})
        return EXIT_OK
    _emit({"verdict": "certificate", "min_slack": out.min_slack,
           "residual_norm": out.residual_norm,
           "slack_combination": out.slack_combination,
           "iterations": out.iterations, "oracle_calls": out.oracle_calls})
    return EXIT_CERT


def cmd_opt(args):
    spec = _load_json(args.spec)
    kind = _require(spec, "type", args.spec)
    n = int(_require(spec, "n", args.spec))
    R = float(spec.get("R", 1.0))
    if kind != "affine_max":
        raise InputError("unknown objective type %r" % kind)
    slopes = np.asarray(_require(spec, "slopes", args.spec), float)
    offsets = np.asarray(_require(spec, "offsets", args.spec), float)
    D = 2 * R * math.sqrt(n)

    def fn(x):
        vals = slopes @ x + offsets
        j = int(np.argmax(vals))
        return float(vals[j]), subgrad_to_separation(x, slopes[j], D, 0.0)

    fo = FunctionOracle(fn)
    res = minimize(OptimizeSpec(oracle=fo, n=n, R=R,
                                alpha=float(spec.get("alpha", 0.01))))
    _emit({"best_value": res.best_value, "best_x": res.best_x.tolist(),
           "oracle_calls": res.oracle_calls, "termination": res.termination})
    return EXIT_OK


def cmd_sfm(args):
    spec = _load_json(args.spec)
    f = load_function(spec, args.spec)
    if args.mode == "weak":
        S, val = sfm.sfm_weakly(f, seed=args.seed)
    else:
        S, val = sfm.sfm_strongly(f, seed=args.seed)
    _emit({"min_value": val, "set": sorted(int(i) for i in S),
           "eo_calls": f.eo_calls})
    return EXIT_OK


def cmd_matroid(args):
    spec = _load_json(args.spec)
    m1 = load_matroid(_require(spec, "m1", args.spec), args.spec)
    m2 = load_matroid(_require(spec, "m2", args.spec), args.spec)
    weights = np.asarray(_require(spec, "weights", args.spec))
    Mbound = spec.get("Mbound", int(np.max(np.abs(weights))) + 1)
    try:
        S = intersect.matroid_intersection(m1, m2, weights, Mbound,
                                           seed=args.seed)
    except ValueError as e:
        raise InputError("%s in %s" % (e, args.spec))
    _emit({"set": sorted(int(i) for i in S),
           "weight": float(sum(weights[i] for i in S))})
    return EXIT_OK


def _load_opt_body(d, path):
    kind = _require(d, "type", path)
    if kind == "vertices":
        from .oracles import vertex_opt_oracle
        return vertex_opt_oracle(_require(d, "points", path))
    if kind in ("partition", "uniform", "graphic", "free"):
        m = load_matroid(d, path)
        return intersect.matroid_polytope_oracle(m, m.n)
    raise InputError("unknown body type %r in %s" % (kind, path))


def cmd_intersect(args):
    spec = _load_json(args.spec)
    c = np.asarray(_require(spec, "c", args.spec), float)
    M = float(_require(spec, "M", args.spec))
    o1 = _load_opt_body(_require(spec, "body1", args.spec), args.spec)
    o2 = _load_opt_body(_require(spec, "body2", args.spec), args.spec)
    delta = float(spec.get("delta", 1e-2))
    lam, _ = intersect.schedule(M, delta)
    prob = intersect.IntersectProblem(c=c, oracle1=o1, oracle2=o2, M=M,
                                      lam=lam, delta=delta)
    z, res = intersect.solve_intersection(prob)
    _emit({"z": z.tolist(), "objective": float(c @ z),
           "oracle_calls": res.oracle_calls})
    return EXIT_OK


def cmd_sdp(args):
    spec = _load_json(args.spec)
    prob = sdp.SdpProblem(C=np.asarray(_require(spec, "C", args.spec), float),
                          A=[np.asarray(Ai, float)
                             for Ai in _require(spec, "A", args.spec)],
                          b=np.asarray(_require(spec, "b", args.spec), float))
    y, val, witnesses, _ = sdp.solve_dual(prob, eps_total=args.eps,
                                          seed=args.seed)
    out = {"y": y.tolist(), "dual_value": val}
    if args.primal:
        X, pval = sdp.recover_primal(prob, witnesses, eps=args.eps, y_best=y)
        out["X"] = X.tolist()
        out["primal_value"] = pval
    _emit(out)
    return EXIT_OK


def cmd_chase(args):
    sup = chasing.simulate(args.adversary, args.rounds, args.c, args.R,
                           args.seed, m=args.m)
    for k in range(args.rounds):
        print(json.dumps({"k": k + 1, "supnorm": float(sup[k])},
                         sort_keys=True))
    return EXIT_OK


def cmd_bench(args):
    files = sorted(f for f in os.listdir(args.corpus) if f.endswith(".json"))
    rows = []
    for name in files:
        path = os.path.join(args.corpus, name)
        spec = _load_json(path)
        cmd = spec.get("command", "sfm")
        t0 = time.perf_counter()
        verdict, n, calls = "ok", spec.get("n", ""), ""
        try:
            if cmd == "sfm":
                f = load_function(spec, path)
                n = f.n
                _, val = sfm.sfm_weakly(f, seed=args.seed)
                calls = f.eo_calls
                verdict = "min=%s" % val
            elif cmd == "feas":
                oracle = _load_set_oracle(spec["set"], path)
                n = int(spec["n"])
                params = core.CpmParams.practical(n, R=spec.get("R", 1.0),
                                                  eps=spec.get("eps", 1e-4))
                out = core.run_feasibility(oracle, n, params)
                calls = out.oracle_calls
                verdict = "found" if isinstance(out, core.Found) else "certificate"
            else:
                verdict = "skipped"
        except CutplaneError as e:
            verdict = "diagnostic:%s" % type(e).__name__
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        rows.append((name, n, calls, "%.1f" % wall_ms, verdict))
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "n", "oracle_calls", "wall_ms", "verdict"])
        w.writerows(rows)
    _emit({"instances": len(rows), "out": args.out})
    return EXIT_OK


def _build_parser():
    p = argparse.ArgumentParser(prog="cutplane")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("feas")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--profile", choices=["practical", "theoretical"],
                    default="practical")
    sp.add_argument("--trace", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_feas)

    sp = sub.add_parser("opt")
    sp.add_argument("--spec", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_opt)

    sp = sub.add_parser("sfm")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--mode", choices=["weak", "strong"], default="weak")
    common(sp)
    sp.set_defaults(fn=cmd_sfm)

    sp = sub.add_parser("matroid")
    sp.add_argument("--spec", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_matroid)

    sp = sub.add_parser("intersect")
    sp.add_argument("--spec", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_intersect)

    sp = sub.add_parser("sdp")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--eps", type=float, default=1e-3)
    sp.add_argument("--primal", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_sdp)

    sp = sub.add_parser("chase")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--rounds", type=int, required=True)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--adversary", default="dense",
                    choices=["zero", "sparse", "dense", "adaptive"])
    common(sp)
    sp.set_defaults(fn=cmd_chase)

    sp = sub.add_parser("bench")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_bench)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = int(os.environ.get("CUTPLANE_SEED", "0"))
    try:
        return args.fn(args)
    except InputError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_INPUT
    except (NoProgress, IterationCapExceeded, RoundingFailed) as e:
        print(json.dumps({"diagnostic": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return EXIT_DIAG


if __name__ == "__main__":
    sys.exit(main())
