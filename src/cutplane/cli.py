"""Command line front-end.

One solve per invocation; results go to stdout as JSON, per-iteration
traces to --trace as JSONL.  Exit codes are the machine interface:
0 solved, 2 infeasible / thin certificate, 3 input or usage error, 4
solver diagnostic (NoProgress, IterationCapExceeded, RoundingFailed).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import chasing, core, intersect, sdp, sfm
from .convopt import minimize
from .errors import (
    InputError,
    IterationCapExceeded,
    NoProgress,
    RoundingFailed,
)
from .oracles import (
    Oracle,
    box_oracle,
    halfspace_set_oracle,
    subgrad_to_separation,
    vertex_opt_oracle,
)

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


def _field(d, key, path, conv, default=None):
    """conv(d[key]), or conv(default) when the key is absent and a default
    is given.  A missing key or a value conv rejects is an InputError."""
    value = _require(d, key, path) if default is None else d.get(key, default)
    try:
        return conv(value)
    except (TypeError, ValueError) as e:
        raise InputError("bad value for %r in %s: %s" % (key, path, e))


def _floats(value):
    return np.asarray(value, float)


def _write_trace(path, records):
    if not path:
        return
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_function(d, path="<spec>"):
    kind = _require(d, "type", path)
    try:
        if kind == "cut":
            edges = _require(d, "edges", path)
            if "n" in d or not edges:
                n = _field(d, "n", path, int)
            else:
                n = 1 + max(max(e[:2]) for e in edges)
            return sfm.cut_function(n, edges)
        if kind == "table":
            n = _field(d, "n", path, int)
            return sfm.table_function(n, _require(d, "values", path))
        if kind == "coverage":
            return sfm.coverage_function(_require(d, "sets", path),
                                         _require(d, "weights", path))
    except (TypeError, ValueError) as e:
        # malformed edges, sets or weights
        raise InputError("%s in %s" % (e, path))
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


def _load_set_oracle(d, path, n):
    kind = _require(d, "type", path)
    if kind == "box":
        center = _field(d, "center", path, _floats)
        if center.shape != (n,):
            raise InputError("box center in %s has shape %s, need (%d,)"
                             % (path, center.shape, n))
        return box_oracle(center, _field(d, "radius", path, float))
    if kind == "halfspaces":
        A = _field(d, "A", path, _floats)
        b = _field(d, "b", path, _floats)
        if A.ndim != 2 or A.shape[1] != n:
            raise InputError("halfspace matrix A in %s has shape %s, need "
                             "rows of length %d" % (path, A.shape, n))
        if b.shape != (A.shape[0],):
            raise InputError("halfspace bounds b in %s have shape %s, need "
                             "(%d,)" % (path, b.shape, A.shape[0]))
        return halfspace_set_oracle(list(zip(A, b)))
    raise InputError("unknown set type %r in %s" % (kind, path))


def cmd_feas(args):
    spec = _load_json(args.spec)
    n = _field(spec, "n", args.spec, int)
    R = _field(spec, "R", args.spec, float, 1.0)
    eps = _field(spec, "eps", args.spec, float, 1e-4)
    oracle = _load_set_oracle(_require(spec, "set", args.spec), args.spec, n)
    trace = [] if args.trace else None
    out = core.run_feasibility(oracle, n,
                               core.CpmParams.practical(n, R=R, eps=eps),
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
    n = _field(spec, "n", args.spec, int)
    R = _field(spec, "R", args.spec, float, 1.0)
    if kind != "affine_max":
        raise InputError("unknown objective type %r" % kind)
    slopes = _field(spec, "slopes", args.spec, _floats)
    offsets = _field(spec, "offsets", args.spec, _floats)
    if slopes.ndim != 2 or slopes.shape[1] != n:
        raise InputError("slopes in %s have shape %s, need rows of length %d"
                         % (args.spec, slopes.shape, n))
    if offsets.shape != (slopes.shape[0],):
        raise InputError("offsets in %s have shape %s, need (%d,)"
                         % (args.spec, offsets.shape, slopes.shape[0]))
    D = 2 * R * math.sqrt(n)

    def fn(x):
        vals = slopes @ x + offsets
        j = int(np.argmax(vals))
        return float(vals[j]), subgrad_to_separation(slopes[j], D, 0.0)

    res = minimize(Oracle(fn), n, R,
                   _field(spec, "alpha", args.spec, float, 0.01))
    _emit({"best_value": res.best_value, "best_x": res.best_x.tolist(),
           "oracle_calls": res.oracle_calls, "termination": res.termination})
    return EXIT_OK


def cmd_sfm(args):
    spec = _load_json(args.spec)
    f = load_function(spec, args.spec)
    solve = sfm.sfm_weakly if args.mode == "weak" else sfm.sfm_strongly
    S, val = solve(f)
    _emit({"min_value": val, "set": sorted(int(i) for i in S),
           "eo_calls": f.eo_calls})
    return EXIT_OK


def cmd_matroid(args):
    spec = _load_json(args.spec)
    m1 = load_matroid(_require(spec, "m1", args.spec), args.spec)
    m2 = load_matroid(_require(spec, "m2", args.spec), args.spec)
    weights = _field(spec, "weights", args.spec, _floats)
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
        return vertex_opt_oracle(_require(d, "points", path))
    if kind in ("partition", "uniform", "graphic", "free"):
        m = load_matroid(d, path)
        return intersect.matroid_polytope_oracle(m, m.n)
    raise InputError("unknown body type %r in %s" % (kind, path))


def cmd_intersect(args):
    spec = _load_json(args.spec)
    c = _field(spec, "c", args.spec, _floats)
    M = _field(spec, "M", args.spec, float)
    o1 = _load_opt_body(_require(spec, "body1", args.spec), args.spec)
    o2 = _load_opt_body(_require(spec, "body2", args.spec), args.spec)
    delta = _field(spec, "delta", args.spec, float, 1e-2)
    prob = intersect.IntersectProblem(c=c, oracle1=o1, oracle2=o2, M=M,
                                      lam=intersect.schedule(M, delta))
    z, res = intersect.solve_intersection(prob)
    _emit({"z": z.tolist(), "objective": float(c @ z),
           "oracle_calls": res.oracle_calls})
    return EXIT_OK


def cmd_sdp(args):
    spec = _load_json(args.spec)
    prob = sdp.SdpProblem(C=_field(spec, "C", args.spec, _floats),
                          A=_field(spec, "A", args.spec,
                                   lambda A: [_floats(Ai) for Ai in A]),
                          b=_field(spec, "b", args.spec, _floats))
    y, val, witnesses, _ = sdp.solve_dual(prob, eps_total=args.eps)
    out = {"y": y.tolist(), "dual_value": val}
    if args.primal:
        X, pval = sdp.recover_primal(prob, witnesses, y_best=y)
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit through InputError (exit 3): argparse's own exit
    status 2 is this CLI's thin-certificate code."""

    def error(self, message):
        raise InputError("%s: %s" % (self.prog, message))


def _build_parser():
    p = _Parser(prog="cutplane")
    sub = p.add_subparsers(dest="command", required=True)

    def seeded(sp):
        # only the randomized solvers take a seed
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("feas")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--trace", default=None)
    sp.set_defaults(fn=cmd_feas)

    sp = sub.add_parser("opt")
    sp.add_argument("--spec", required=True)
    sp.set_defaults(fn=cmd_opt)

    sp = sub.add_parser("sfm")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--mode", choices=["weak", "strong"], default="weak")
    sp.set_defaults(fn=cmd_sfm)

    sp = sub.add_parser("matroid")
    sp.add_argument("--spec", required=True)
    seeded(sp)
    sp.set_defaults(fn=cmd_matroid)

    sp = sub.add_parser("intersect")
    sp.add_argument("--spec", required=True)
    sp.set_defaults(fn=cmd_intersect)

    sp = sub.add_parser("sdp")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--eps", type=float, default=1e-3)
    sp.add_argument("--primal", action="store_true")
    sp.set_defaults(fn=cmd_sdp)

    sp = sub.add_parser("chase")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--rounds", type=int, required=True)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--adversary", default="dense",
                    choices=["zero", "sparse", "dense", "adaptive"])
    seeded(sp)
    sp.set_defaults(fn=cmd_chase)
    return p


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        if "seed" in args and args.seed is None:
            args.seed = _field(os.environ, "CUTPLANE_SEED", "the environment",
                               int, "0")
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
