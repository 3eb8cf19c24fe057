"""Span tracing installed from outside the package.

Each public function is replaced, under every name its callers look it up
by, with a wrapper that records a span: call count, total time and self
time (the span's duration minus the time covered by its child spans).
Spans are kept in memory as per-name totals; nothing is written while the
workload runs.
"""

import functools
import time

from cutplane import convopt, core, intersect, leverage, linalg, sdp, sfm

# (module, attribute, span name).  A function imported by name into another
# module is listed once per module that looks it up.
SPANS = [
    (core, "centering", "core.centering"),
    (core, "add_cut", "core.add_cut"),
    (core, "remove_cut", "core.remove_cut"),
    (core, "gradient", "core.gradient"),
    (core, "certificate", "core.certificate"),
    (core, "potential", "core.potential"),
    (core, "centrality", "core.centrality"),
    (core, "run_feasibility", "core.run_feasibility"),
    (convopt, "run_feasibility", "core.run_feasibility"),
    (sfm, "run_feasibility", "core.run_feasibility"),
    (core, "leverage_exact", "linalg.leverage_exact"),
    (linalg, "leverage_exact", "linalg.leverage_exact"),
    (core, "cholesky_jittered", "linalg.cholesky_jittered"),
    (linalg, "cholesky_jittered", "linalg.cholesky_jittered"),
    (leverage, "cholesky_jittered", "linalg.cholesky_jittered"),
    (convopt, "minimize", "convopt.minimize"),
    (sfm, "minimize", "convopt.minimize"),
    (intersect, "minimize", "convopt.minimize"),
    (sdp, "minimize", "convopt.minimize"),
    (sfm, "ring_oracle", "sfm.ring_oracle"),
    (sfm, "bfs_from_order", "sfm.bfs_from_order"),
    (sfm.DualBound, "update", "sfm.DualBound.update"),
    (intersect, "matroid_greedy", "intersect.matroid_greedy"),
    (intersect, "solve_intersection", "intersect.solve_intersection"),
    (sdp, "max_eigvec", "sdp.max_eigvec"),
    (sdp, "fK_separation", "sdp.fK_separation"),
    (sdp, "recover_primal", "sdp.recover_primal"),
    (sdp, "jacobi_max_eig", "sdp.jacobi_max_eig"),
]

# spans around the oracles the benchmark itself hands to the solvers
ORACLE_SPANS = ("oracle.set", "sfm.eval", "intersect.independent")


class Tracer:
    """Per-name span totals, plus the patches that record them."""

    def __init__(self):
        self.calls = dict.fromkeys(ORACLE_SPANS, 0)
        self.self_s = dict.fromkeys(ORACLE_SPANS, 0.0)
        self.counts = {"sfm.lookups": 0, "linalg.cholesky_jittered.jittered": 0}
        self._stack = []     # child time accumulated by each open span
        self._undo = []

    def wrap(self, fn, name):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[name] += 1
                self_s[name] += dt - child

        return span

    def install(self):
        """Wrap every function in SPANS; undone by uninstall()."""
        for owner, attr, name in SPANS:
            orig = getattr(owner, attr)
            self._undo.append((owner, attr, orig))
            wrapped = self.wrap(orig, name)
            if attr == "cholesky_jittered":
                wrapped = self._count_jitter(wrapped)
            setattr(owner, attr, wrapped)
        orig_call = sfm.SubmodularFn.__call__
        counts = self.counts

        def lookup(fn_self, S):
            counts["sfm.lookups"] += 1
            return orig_call(fn_self, S)

        self._undo.append((sfm.SubmodularFn, "__call__", orig_call))
        sfm.SubmodularFn.__call__ = lookup

    def _count_jitter(self, chol):
        counts = self.counts

        def counted(M):
            L, jitter = chol(M)
            if jitter:
                counts["linalg.cholesky_jittered.jittered"] += 1
            return L, jitter

        return counted

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def metrics(self, passes):
        """Per-layer values per pass, keyed by the names in BENCHMARK.json."""
        out = {}
        for name in self.calls:
            out[name + ".calls"] = self.calls[name] / passes
            out[name + ".self_s"] = self.self_s[name] / passes
        for name, count in self.counts.items():
            out[name] = count / passes
        out["oracle.self_s"] = sum(self.self_s.get(n, 0.0)
                                   for n in ORACLE_SPANS) / passes
        lookups = self.counts["sfm.lookups"]
        evals = self.calls.get("sfm.eval", 0)
        out["sfm.cache_hit_ratio"] = 1.0 - evals / lookups if lookups else 0.0
        return out
