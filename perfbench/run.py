"""Benchmark of the cutplane solvers.

    python3 perfbench/run.py --workload feasibility --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Solves the workload's instance set in
whole passes, at least three and until --seconds are spent, checks every
answer, and prints one JSON object as the last line of stdout: the
end-to-end metrics with --trace 0, the per-layer span metrics with
--trace 1.  Metric names and units come from BENCHMARK.json.  A per-pass
summary goes to stderr.
"""

import time

# cold set-up is timed from here, plus the interpreter's start-up before
# this line, which is CPU-bound and so read off the process's CPU clock
T_START = time.perf_counter()
STARTUP_S = time.process_time()

import argparse
import gc
import json
import os
import resource
import sys
import warnings

# one BLAS thread: the solvers factor small matrices, where threads only
# add scheduling noise
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def _import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import cutplane
    if not os.path.abspath(cutplane.__file__).startswith(src + os.sep):
        raise SystemExit("cutplane was not imported from %s" % src)


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


MIN_PASSES = 3


def run_passes(instances, counter, seconds):
    """Solve every instance once per pass, at least MIN_PASSES times and
    until the next pass would not end within `seconds`.  Returns the
    per-run tallies."""
    tally = {"attempted": 0, "failed": 0, "solved": 0, "solve_s": 0.0,
             "passes": 0, "faults": [], "wrong": [], "counts": None,
             "instances": {inst.name: [] for inst in instances}}
    if len(tally["instances"]) != len(instances):
        raise ValueError("instance names are not unique")
    t_begin = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        separation = user = 0
        for inst in instances:
            tally["attempted"] += 1
            gc.collect()
            counter.calls = 0
            t0 = time.perf_counter()
            try:
                answer, user_calls = inst.run()
            except Exception as exc:  # a solver fault is a failed operation
                tally["solve_s"] += time.perf_counter() - t0
                tally["failed"] += 1
                tally["faults"].append("%s: %s: %s" % (
                    inst.name, type(exc).__name__, exc))
                continue
            dt = time.perf_counter() - t0
            tally["solve_s"] += dt
            tally["solved"] += 1
            tally["instances"][inst.name].append(
                [dt, counter.calls, user_calls])
            separation += counter.calls
            user += user_calls
            reason = inst.check(answer)
            if reason is not None:
                tally["wrong"].append("%s: %s" % (inst.name, reason))
        counts = (separation, user)
        if tally["counts"] is None:
            tally["counts"] = counts
        elif counts != tally["counts"]:
            tally["wrong"].append("call counts %r differ from the first pass %r"
                                  % (counts, tally["counts"]))
        tally["passes"] += 1
        now = time.perf_counter()
        print("pass %d: %.3f s, %d separation calls, %d user oracle calls"
              % (tally["passes"], now - t_pass, separation, user),
              file=sys.stderr, flush=True)
        if (tally["passes"] >= MIN_PASSES
                and now - t_begin + (now - t_pass) > seconds):
            return tally


def solves_per_s(per_instance):
    """Instances solved over the sum of their solve times, each instance's
    time being its fastest pass.  The host only ever adds time, in stalls
    of seconds that hit one pass at a time: over five seeds of matroid-sdp
    the spread of this rate was 9% with the fastest pass, 13% with the
    median pass and 18% with the mean."""
    times = [min(r[0] for r in runs) for runs in per_instance.values() if runs]
    return len(times) / max(sum(times), 1e-12)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = _load_spec()
    _import_package()
    warnings.filterwarnings("ignore", message="centering entered")
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r" % args.workload)
    build, warmup = workloads.WORKLOADS[args.workload]
    counter = workloads.SeparationCounter()
    counter.install()
    tracer = Tracer() if args.trace else None
    instances = build(args.seed, tracer.wrap if tracer else workloads.no_span)
    for inst in warmup():
        inst.run()
    setup_s = time.perf_counter() - T_START + STARTUP_S

    if tracer:
        tracer.install()
    tally = run_passes(instances, counter, args.seconds)
    if tracer:
        tracer.uninstall()

    for line in tally["faults"]:
        print("FAILED " + line, file=sys.stderr)
    for line in tally["wrong"]:
        print("WRONG " + line, file=sys.stderr)
    if args.trace:
        wanted = spec["per_layer"]
        values = tracer.metrics(tally["passes"])
    else:
        wanted = spec["end_to_end"]
        values = {
            "solves_per_s": solves_per_s(tally["instances"]),
            "separation_calls": tally["counts"][0],
            "user_oracle_calls": tally["counts"][1],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print("%s: %d passes, %d solves in %.3f s of solve time"
          % (args.workload, tally["passes"], tally["solved"], tally["solve_s"]),
          file=sys.stderr)
    result = {
        "correct": not tally["wrong"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]} for m in wanted},
    }
    _write_out(args, result, tally, tracer)
    print(json.dumps(result))


def _write_out(args, result, tally, tracer):
    """Keep the run's detail next to the checkout: per-instance solve times
    and counts, and with --trace 1 every span, per pass."""
    out_dir = os.path.join(ROOT, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    detail = {"result": result, "passes": tally["passes"],
              "instances": tally["instances"]}
    if tracer:
        detail["spans"] = tracer.metrics(tally["passes"])
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(detail, fh, indent=1)


if __name__ == "__main__":
    main()
