"""Submodular function minimization.

One cube phase, two drivers.  The phase runs the cutting plane method on
the unit cube (or the ring-family polytope of some arcs) against BFS
hyperplanes, feeding every BFS to a running dual bound: it stops once the
bound proves the incumbent optimal, or on a one-signed BFS, and otherwise
returns a thin certificate.

 * sfm_weakly: one phase per rung of an eps ladder over the whole cube;
   the answer is the best set the evaluation oracle ever saw.  Exact for
   integer valued functions.
 * sfm_strongly: the arc-deduction driver.  Each phase's thin certificate
   is decomposed into facet weights, from which one of the facts x_i=0 /
   x_j=1 / x_i=x_j / x_i<=x_j is extracted, shrinking the problem.  Facts
   are only emitted with a proof in hand (a base polytope point satisfying
   the relevant inequality), so tolerance trouble can cause retries but
   never wrong answers.

Set functions are wrapped in SubmodularFn, which normalizes f(empty)=0,
caches, counts oracle calls and remembers the best set it has ever been
asked to evaluate (every candidate the solvers produce passes through it).
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# minimize is not called here; perfbench/spans.py wraps it under this module
# and needs the name to resolve
from .convopt import feasibility_eps, minimize
from .core import CpmParams, run_feasibility
from .errors import (
    IterationCapExceeded,
    NoProgress,
    OutOfBox,
    PreconditionViolated,
    TriggerNotMet,
)
from .oracles import Halfspace


class SubmodularFn:
    def __init__(self, n, eval_fn, check=False):
        self.n = n
        self._raw = eval_fn
        self.eo_calls = 0
        self.cache = {}
        self._offset = eval_fn(frozenset())
        self.best_set = frozenset()
        self.best_value = 0
        if check:
            self._spot_check()
        self.M = self._discover_m()

    def __call__(self, S):
        S = frozenset(S)
        if S in self.cache:
            v = self.cache[S]
        else:
            self.eo_calls += 1
            v = self._raw(S) - self._offset
            self.cache[S] = v
        if v < self.best_value:
            self.best_value, self.best_set = v, S
        return v

    def _discover_m(self):
        V = frozenset(range(self.n))
        vals = [abs(self(frozenset([i]))) for i in range(self.n)]
        vals += [abs(self(V - {i})) for i in range(self.n)]
        vals.append(abs(self(V)))
        return max(max(vals), 1)

    def _spot_check(self):
        if self.n > 12:
            return
        for i, j in itertools.combinations(range(self.n), 2):
            for bits in range(2 ** self.n):
                if bits & (1 << i) or bits & (1 << j):
                    continue
                S = frozenset(k for k in range(self.n) if bits & (1 << k))
                lhs = self(S | {i}) + self(S | {j})
                rhs = self(S | {i, j}) + self(S)
                if lhs < rhs - 1e-9:
                    raise ValueError("function is not submodular at %r" % (S,))


@dataclass
class Bfs:
    h: np.ndarray
    perm: list

    def __post_init__(self):
        self.h = np.asarray(self.h, float)


def lovasz_eval(f, x):
    """Sorted-telescoping evaluation of the Lovasz extension."""
    x = np.asarray(x, float)
    if np.any(x < -1e-12) or np.any(x > 1 + 1e-12):
        raise OutOfBox("point leaves the unit cube")
    order = sorted(range(f.n), key=lambda i: (-x[i], i))
    val = 0.0
    chain = []
    for pos, i in enumerate(order):
        chain.append(i)
        nxt = x[order[pos + 1]] if pos + 1 < f.n else 0.0
        val += f(frozenset(chain)) * (x[i] - nxt)
    return val


def bfs_from_order(f, perm):
    h = np.zeros(f.n)
    prev_v = 0.0
    chain = []
    for i in perm:
        chain.append(i)
        v = f(frozenset(chain))
        h[i] = v - prev_v
        prev_v = v
    return Bfs(h, list(perm))


def separation_hyperplane(f, xbar, arcs=None):
    """BFS hyperplane h^T x <= lovasz(xbar) through xbar.

    Sort is descending by value; ties ranked by fewer arc descendants
    first (so arc-consistent) then by index.
    """
    xbar = np.asarray(xbar, float)
    if arcs is None:
        key = lambda i: (-xbar[i], i)
    else:
        key = lambda i: (-xbar[i], len(arcs.R(i)), i)
    perm = sorted(range(f.n), key=key)
    h = bfs_from_order(f, perm)
    fhat = float(h.h @ xbar)
    return h, fhat


def degenerate_shortcut(h):
    """Any base-polytope point of one sign certifies an extreme set."""
    h = np.asarray(h, float)
    if np.all(h >= 0):
        return "empty"
    if np.all(h <= 0):
        return "full"
    return None


class ArcSet:
    """DAG of implications i in S => j in S, kept transitively closed."""

    def __init__(self, n):
        self.n = n
        self.reach = np.eye(n, dtype=bool)

    def add(self, i, j):
        if self.reach[i, j]:
            return
        # close: everything reaching i now reaches everything j reaches
        src = np.nonzero(self.reach[:, i])[0]
        dst = np.nonzero(self.reach[j, :])[0]
        self.reach[np.ix_(src, dst)] = True

    def has(self, i, j):
        return bool(self.reach[i, j]) and i != j

    def R(self, i):
        return set(np.nonzero(self.reach[i, :])[0].tolist())

    def Q(self, i):
        return set(np.nonzero(self.reach[:, i])[0].tolist())

    def arcs(self):
        return [(i, j) for i in range(self.n) for j in range(self.n)
                if i != j and self.reach[i, j]]

    def cycle_class(self, i):
        return {j for j in self.R(i) if self.reach[j, i]}

    def closed(self, S):
        return all(self.R(i) <= S for i in S)


def sandwich_pick(h, hp, lam):
    """Element with certified large |marginal| from two near-cancelling
    base points."""
    h = np.asarray(h, float)
    hp = np.asarray(hp, float)
    n = h.size
    hpp = lam * h + (1 - lam) * hp
    bound = min(lam * np.linalg.norm(h), (1 - lam) * np.linalg.norm(hp))
    if np.linalg.norm(hpp) > bound / (2 * math.sqrt(n)) + 1e-15:
        raise PreconditionViolated("combination does not cancel enough")
    return int(np.argmax(np.maximum(lam * np.abs(h), (1 - lam) * np.abs(hp))))


def _rebased_perm(perm, Rp):
    front = [v for v in perm if v in Rp]
    rest = [v for v in perm if v not in Rp]
    return front + rest


def deduce_arc(f, arcs, decomposition, p, direction="FromUpper"):
    """Find q such that the arc (p, q) (FromUpper) or (q, p) (FromLower)
    is valid, certifying the defining inequality directly.

    decomposition: list of (weight, Bfs) summing to a point of B(f), all
    BFS consistent with arcs.  Costs O(n) evaluations: one re-based BFS.
    """
    if direction == "FromLower":
        return _deduce_arc_lower(f, arcs, decomposition, p)
    n = f.n
    if n <= 1:
        raise TriggerNotMet("no candidate q exists")
    Rp = arcs.R(p)
    R = frozenset(Rp)
    up_p = f(R) - f(R - {p})
    y = sum(lam * b.h for lam, b in decomposition)
    maxy = float(np.max(y))
    if maxy < 0:
        raise TriggerNotMet("combination is degenerate negative")
    l = min(range(len(decomposition)),
            key=lambda k: decomposition[k][0] * (decomposition[k][1].h[p] - up_p))
    lam_l, bfs_l = decomposition[l]
    rebased = bfs_from_order(f, _rebased_perm(bfs_l.perm, Rp))
    ypp = y + lam_l * (rebased.h - bfs_l.h)
    outside = [j for j in range(n) if j not in Rp]
    if not outside:
        raise TriggerNotMet("R(p) is the whole ground set")
    q = min(outside, key=lambda j: ypp[j])
    scale = max(1.0, float(np.max(np.abs(y))), abs(up_p))
    if not ypp[q] < -n * maxy - 1e-9 * scale:
        raise TriggerNotMet("certifying inequality failed (y''_q=%g, need < %g)"
                            % (ypp[q], -n * maxy))
    return p, q


def _deduce_arc_lower(f, arcs, decomposition, p):
    """Reduction through g(S) = f(V \\ S): reversed arcs, negated BFS with
    reversed permutations."""
    n = f.n
    V = frozenset(range(n))

    class _G:
        def __init__(self):
            self.n = n

        def __call__(self, S):
            return f(V - frozenset(S)) - f(V)

    g = _G()
    arcs_g = ArcSet(n)
    arcs_g.reach = arcs.reach.T.copy()
    deco_g = [(lam, Bfs(-b.h, list(reversed(b.perm)))) for lam, b in decomposition]
    p2, q = deduce_arc(g, arcs_g, deco_g, p)
    return q, p2


# ---------------------------------------------------------------------------
# separation oracles over the cube (z-coordinates: x = z + 1/2)

def ring_oracle(f, arcs, xbar):
    """Priority separation for the ring polytope at a cube point.

    Returns a Halfspace in x-coordinates with .meta identifying the facet,
    or the BFS hyperplane with its Bfs attached.
    """
    xbar = np.asarray(xbar, float)
    n = f.n
    # the loop may drop a box row (remove_cut picks by leverage alone), and
    # its next query can then leave the cube; these facets cut it back
    for i in range(n):
        if xbar[i] < 0:
            e = np.zeros(n)
            e[i] = -1.0
            return Halfspace(e, 0.0, meta=("lo", i))
    for j in range(n):
        if xbar[j] > 1:
            e = np.zeros(n)
            e[j] = 1.0
            return Halfspace(e, 0.0, meta=("hi", j))
    if arcs is not None:
        for i, j in arcs.arcs():
            if xbar[i] > xbar[j]:
                e = np.zeros(n)
                e[i] = 1.0
                e[j] = -1.0
                return Halfspace(e, 0.0, meta=("arc", i, j))
    bfs, fhat = separation_hyperplane(f, np.clip(xbar, 0, 1), arcs)
    return Halfspace(bfs.h.copy(), 0.0, meta=("bfs", bfs, fhat))


def _negative_part(y):
    return float(np.sum(np.minimum(y, 0.0)))


def _blend_dual(y, h):
    """Best convex combination of two base polytope points under the
    negative-part lower bound.  Piecewise linear in the mixing weight, so
    checking the sign-crossing breakpoints, all at once, is exact."""
    d = y - h
    with np.errstate(divide="ignore", invalid="ignore"):
        g = y / d
    g = g[(np.abs(d) > 1e-15) & (g > 0.0) & (g < 1.0)]
    t = np.concatenate(([0.0, 1.0], g))
    Y = (1.0 - t[:, None]) * y + t[:, None] * h
    return Y[int(np.argmax(np.minimum(Y, 0.0).sum(axis=1)))]


def _blend_pool(y, P):
    """Best blend of y with any row of P under the negative-part bound.

    Along y + t (p - y) the bound is concave and piecewise linear in t, and
    its slope falls by |p_i - y_i| where coordinate i changes sign, so the
    best t is the first sign crossing past which the slope is no longer
    positive (0 or 1 if there is none).  All rows are searched at once.
    """
    k = P.shape[0]
    D = P - y
    with np.errstate(divide="ignore", invalid="ignore"):
        T = -y / D
    cross = (np.abs(D) > 1e-15) & (T > 0.0) & (T < 1.0)
    T = np.where(cross, T, 1.0)
    order = np.argsort(T, axis=1)
    drop = np.take_along_axis(np.where(cross, np.abs(D), 0.0), order, axis=1)
    slope0 = np.where((y < 0) | ((y == 0) & (D < 0)), D, 0.0).sum(axis=1)
    T = np.hstack([np.zeros((k, 1)), np.take_along_axis(T, order, axis=1),
                   np.ones((k, 1))])
    slope = slope0[:, None] - np.cumsum(drop, axis=1)
    after = np.hstack([slope0[:, None], slope, np.full((k, 1), -np.inf)])
    t = T[np.arange(k), np.argmax(after <= 0, axis=1)]
    Y = y + t[:, None] * D
    return Y[int(np.argmax(np.minimum(Y, 0.0).sum(axis=1)))]


class DualBound:
    """Running lower bound max over B(f) combinations of sum min(y_i, 0).

    Feeds on the BFS stream of a solver run and keeps the last POOL_CAP
    vertices in a pool.  Two combinations are kept.  y blends each new
    vertex, then one pool member, round robin.  y2 blends each new vertex,
    then the best line search against every pool member.  value is the
    running max of both bounds, so on a given stream it is never below
    y's alone and a phase closes at the same query or sooner.  The bound
    equals min f at the Fujishige dual optimum."""

    POOL_CAP = 64

    def __init__(self):
        self.y = self.y2 = None
        self.pool = []
        self._k = 0
        self._best = -float("inf")

    def update(self, h):
        h = np.asarray(h, float)
        self._k += 1
        if len(self.pool) < self.POOL_CAP:
            self.pool.append(h)
        else:
            self.pool[self._k % self.POOL_CAP] = h
        if self.y is None:
            self.y, self.y2 = h.copy(), h.copy()
        else:
            self.y = _blend_dual(self.y, h)
            self.y2 = _blend_dual(self.y2, h)
        self.y = _blend_dual(self.y, self.pool[self._k % len(self.pool)])
        self.y2 = _blend_pool(self.y2, np.array(self.pool))
        self._best = max(self._best, _negative_part(self.y),
                         _negative_part(self.y2))
        return self.value

    @property
    def value(self):
        return self._best


class _DegenerateBfs(Exception):
    def __init__(self, sign):
        self.sign = sign


class _BoundClosed(Exception):
    pass


def _phase_certificate(fr, arcs, eps, bound, closed):
    """One cutting plane run over the cube (the ring polytope of arcs, if
    given) in z = x - 1/2 coordinates; returns the thin certificate, or
    raises _DegenerateBfs if a one-signed BFS shows up.  A dual bound, if
    given, is fed every emitted BFS and aborts the phase through
    _BoundClosed once closed() says the incumbent is provably optimal."""
    d = fr.n

    class _O:
        def query(self, z):
            resp = ring_oracle(fr, arcs, np.asarray(z) + 0.5)
            if resp.meta[0] == "bfs":
                sign = degenerate_shortcut(resp.meta[1].h)
                if sign:
                    raise _DegenerateBfs(sign)
                if bound is not None:
                    bound.update(resp.meta[1].h)
                    if closed():
                        raise _BoundClosed()
            return resp

    params = CpmParams.practical(d, R=0.5, eps=eps)
    return run_feasibility(_O(), d, params)


def sfm_weakly(f, seed=0):
    """Exact minimizer for integer-valued f through the Lovasz extension.

    Cube phases drive the query points; the returned set is the best one
    the evaluation oracle ever saw, which dominates the usual threshold
    rounding of the best query point.  The phase's dual bound stops the
    run the moment the incumbent is provably optimal, and a one-signed BFS
    stops it with the empty or full set already evaluated.  An eps ladder
    keeps the common case cheap while the last rung provides the
    contractual accuracy alpha = 1/(4M).  The solver is deterministic;
    seed is accepted for interface compatibility and has no effect.
    """
    n = f.n
    if n == 0:
        return frozenset(), 0
    bound = DualBound()

    def closed():
        return f.best_value - bound.value < 1.0 - 1e-9

    # the rungs coincide when M = 1, and dict.fromkeys drops the repeat
    for alpha in dict.fromkeys((0.25, 1.0 / (4.0 * f.M))):
        eps = feasibility_eps(n, 0.5, alpha)
        try:
            _phase_certificate(f, None, eps, bound, closed)
        except (_BoundClosed, _DegenerateBfs):
            break
        except IterationCapExceeded:
            pass  # on to the next rung, as after a thin certificate
    return f.best_set, f.best_value


# ---------------------------------------------------------------------------
# strongly polynomial driver

@dataclass
class Fact:
    kind: str          # Zero | One | Equal | Arc
    i: int
    j: int = -1


class ReducedProblem:
    """Ground set of element groups with forced-in bookkeeping.

    f_red(S) = f(union of chosen groups + forced) - f(forced); minimizing
    f_red and adding the forced elements back minimizes f over the sets
    compatible with all consolidated facts.
    """

    def __init__(self, f):
        self.f = f
        self.groups = [frozenset([i]) for i in range(f.n)]
        self.forced = frozenset()
        self.arcs = ArcSet(f.n)

    @property
    def size(self):
        return len(self.groups)

    def expand(self, idxs):
        out = set(self.forced)
        for i in idxs:
            out |= self.groups[i]
        return frozenset(out)

    def f_red(self):
        parent = self

        class _F:
            n = parent.size

            def __init__(self):
                self.base = parent.f(parent.forced)

            def __call__(self, S):
                return parent.f(parent.expand(S)) - self.base

        return _F()

    def apply(self, fact):
        if fact.kind == "Zero":
            drop = self.arcs.Q(fact.i)
            self._drop(drop, force_in=False)
        elif fact.kind == "One":
            take = self.arcs.R(fact.i)
            self._drop(take, force_in=True)
        elif fact.kind == "Equal":
            self._merge({fact.i, fact.j})
        elif fact.kind == "Arc":
            self.arcs.add(fact.i, fact.j)
            cyc = self.arcs.cycle_class(fact.i)
            if len(cyc) > 1:
                self._merge(cyc)
        else:
            raise ValueError(fact.kind)

    def _drop(self, idxs, force_in):
        if force_in:
            add = frozenset().union(*[self.groups[g] for g in idxs])
            self.forced = self.forced | add
        keep = [g for g in range(self.size) if g not in idxs]
        self.groups = [self.groups[g] for g in keep]
        old = self.arcs
        self.arcs = ArcSet(len(keep))
        remap = {g: k for k, g in enumerate(keep)}
        for i, j in old.arcs():
            if i in remap and j in remap:
                self.arcs.add(remap[i], remap[j])

    def _merge(self, idxs):
        idxs = sorted(idxs)
        tgt = idxs[0]
        merged = frozenset().union(*[self.groups[g] for g in idxs])
        keep = [g for g in range(self.size) if g == tgt or g not in idxs]
        old = self.arcs
        remap = {}
        for k, g in enumerate(keep):
            remap[g] = k
        for g in idxs:
            remap[g] = remap[tgt]
        newgroups = []
        for g in keep:
            newgroups.append(merged if g == tgt else self.groups[g])
        self.groups = newgroups
        self.arcs = ArcSet(len(keep))
        for i, j in old.arcs():
            ni, nj = remap[i], remap[j]
            if ni != nj:
                self.arcs.add(ni, nj)

    def solve_exhaustive(self):
        """Direct scan over arc-closed subsets; only used at tiny sizes."""
        d = self.size
        best_v, best_S = None, None
        for bits in range(2 ** d):
            S = {g for g in range(d) if bits & (1 << g)}
            if not self.arcs.closed(S):
                continue
            v = self.f(self.expand(S))
            if best_v is None or v < best_v:
                best_v, best_S = v, S
        return self.expand(best_S), best_v


def _decompose_certificate(cert, d):
    """Split the thin certificate into nonnegative facet weights per type.

    Returns (alpha, beta, gamma, lambdas, gap), or None when no BFS facet
    carries weight, after the usual scaling that makes the BFS weights sum
    to one: alpha and beta weigh the x_i >= 0 and x_j <= 1 facets per
    element, gamma maps an arc (i, j) to the weight on x_i <= x_j, lambdas
    lists [weight, side, Bfs, fhat] per BFS facet, and gap is the measured
    residual scale.
    """
    rows = []
    for j in range(cert.A.shape[0]):
        meta = cert.origins[j]
        weight = 1.0 if j == cert.pivot else float(cert.t[j])
        if weight <= 0 and j != cert.pivot:
            continue
        side = 0 if j == cert.pivot else 1
        if not isinstance(meta, tuple):
            a = cert.A[j]
            i = int(np.argmax(np.abs(a)))
            meta = ("lo", i) if a[i] > 0 else ("hi", i)
        rows.append((weight, side, meta))

    alpha = np.zeros(d)
    beta = np.zeros(d)
    gamma = {}
    lambdas = []
    M_sum = 0.0
    for weight, side, meta in rows:
        kind = meta[0]
        if kind == "lo":
            alpha[meta[1]] += weight
        elif kind == "hi":
            beta[meta[1]] += weight
            M_sum += weight
        elif kind == "arc":
            key = (meta[1], meta[2])
            gamma[key] = gamma.get(key, 0.0) + weight / math.sqrt(2.0)
        elif kind == "bfs":
            bfs, fhat = meta[1], meta[2]
            lam = weight / max(np.linalg.norm(bfs.h), 1e-300)
            lambdas.append([lam, side, bfs, fhat])
            M_sum += lam * fhat
    resid = cert.residual_norm
    Mpair = M_sum  # r_pivot + sum t_j r_j in x-space units
    Lam = sum(l[0] for l in lambdas)
    if Lam <= 1e-300:
        return None
    scale = 1.0 / Lam
    alpha *= scale
    beta *= scale
    gamma = {k: v * scale for k, v in gamma.items()}
    for l in lambdas:
        l[0] *= scale
    gap = max(resid, abs(Mpair)) * scale
    return alpha, beta, gamma, lambdas, gap


def _fact_from_certificate(fr, arcs, cert):
    d = fr.n
    deco = _decompose_certificate(cert, d)
    if deco is None:
        return None
    alpha, beta, gamma, lambdas, gap = deco
    thresh = 2.0 * math.sqrt(d) * gap
    i = int(np.argmax(alpha))
    if alpha[i] > thresh:
        return Fact("Zero", i)
    j = int(np.argmax(beta))
    if beta[j] > thresh:
        return Fact("One", j)
    for (i, j), g in gamma.items():
        if g > thresh:
            return Fact("Equal", i, j)

    # all facet weights small: the aggregated BFS combination is a base
    # polytope point near zero
    deco_pairs = [(lam, bfs) for lam, side, bfs, _ in lambdas]
    y = sum(lam * b.h for lam, b in deco_pairs)
    sign = degenerate_shortcut(y)
    if sign:
        raise _DegenerateBfs(sign)
    # no one-sided inclusion/exclusion test here: those are about
    # unrestricted minimizers, which a ring-family restriction can break;
    # arc deduction is restriction-aware

    yF = sum(l[0] * l[2].h for l in lambdas if l[1] == 0)
    yFp = sum(l[0] * l[2].h for l in lambdas if l[1] == 1)
    cands = []
    if np.isscalar(yF) or np.isscalar(yFp):
        cands = [int(np.argmax(np.abs(y)))]
    else:
        try:
            lam_bar = sum(l[0] for l in lambdas if l[1] == 0)
            if 0 < lam_bar < 1:
                p = sandwich_pick(yF / lam_bar, yFp / (1 - lam_bar), lam_bar)
                cands.append(p)
        except PreconditionViolated:
            pass
        cands += [int(k) for k in np.argsort(-np.abs(y))[:3]]
    seen = set()
    for p in cands:
        if p in seen:
            continue
        seen.add(p)
        for direction in ("FromUpper", "FromLower"):
            try:
                a, b = deduce_arc(fr, arcs, deco_pairs, p, direction)
                if a != b and not arcs.has(a, b):
                    return Fact("Arc", a, b)
            except TriggerNotMet:
                continue
    return None


def sfm_strongly(f, seed=0, dual_shortcut=True):
    """Minimize integer f by repeated consolidation of deduced facts.

    dual_shortcut lets a phase return as soon as a running dual bound
    (built from its own BFS stream, offset by the forced-in elements)
    proves the incumbent set optimal; the arc machinery is unchanged
    otherwise and fully exercised with the flag off.  The solver is
    deterministic; seed is accepted for interface compatibility and has no
    effect.
    """
    P = ReducedProblem(f)
    max_phases = f.n * f.n + f.n + 2
    for phase in range(max_phases):
        if P.size <= 2:
            S, _ = P.solve_exhaustive()
            return S, f(S)
        fr = P.f_red()
        bound = DualBound() if dual_shortcut else None

        def closed():
            return f.best_value - (bound.value + fr.base) < 1.0 - 1e-9

        fact = None
        try:
            # cheap degenerate probe first
            perm = sorted(range(fr.n), key=lambda i: (len(P.arcs.R(i)), i))
            h = bfs_from_order(fr, perm).h
            sign = degenerate_shortcut(h)
            if sign:
                raise _DegenerateBfs(sign)
            if bound is not None:
                bound.update(h)
                if closed():
                    return f.best_set, f.best_value
            for eps in (1e-5, 1e-7):
                try:
                    cert = _phase_certificate(fr, P.arcs, eps, bound, closed)
                except IterationCapExceeded:
                    continue
                except _BoundClosed:
                    return f.best_set, f.best_value
                fact = _fact_from_certificate(fr, P.arcs, cert)
                if fact is not None:
                    break
        except _DegenerateBfs as dg:
            if dg.sign == "empty":
                S = P.expand(set())
            else:
                S = P.expand(set(range(P.size)))
            return S, f(S)
        if fact is None:
            raise NoProgress("no fact extractable at phase %d" % phase)
        P.apply(fact)
    raise NoProgress("phase budget exhausted")


# ---------------------------------------------------------------------------
# function builders

def _check_weight(w):
    if not isinstance(w, numbers.Real):
        raise ValueError("weight %r is not a number" % (w,))


def cut_function(n, edges):
    """f(S) = total weight of edges crossing S.

    edges holds (u, v, weight) triples over the vertices range(n); anything
    else raises ValueError.
    """
    if n < 0:
        raise ValueError("a cut function needs n >= 0, not %d" % n)
    triples = []
    for e in edges:
        if len(e) != 3:
            raise ValueError("edge %r is not a (u, v, weight) triple" % (e,))
        u, v, w = int(e[0]), int(e[1]), e[2]
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("edge (%d, %d) leaves the vertices range(%d)"
                             % (u, v, n))
        _check_weight(w)
        triples.append((u, v, w))
    edges = triples

    def fn(S):
        return sum(w for u, v, w in edges if (u in S) != (v in S))

    return SubmodularFn(n, fn)


def coverage_function(sets, weights):
    """f(S) = total weight of the universe elements the sets in S cover.

    The ground set is range(len(sets)) and the universe range(len(weights));
    a set naming anything else raises ValueError.
    """
    sets = [frozenset(s) for s in sets]
    for w in weights:
        _check_weight(w)
    universe = range(len(weights))
    for s in sets:
        for u in s:
            if u not in universe:
                raise ValueError("set element %r is outside the universe "
                                 "range(%d)" % (u, len(weights)))

    def fn(S):
        covered = set()
        for i in S:
            covered |= sets[i]
        return sum(weights[u] for u in covered)

    return SubmodularFn(len(sets), fn)


def table_function(n, values, check=True):
    values = list(values)
    if len(values) != 2 ** n:
        raise ValueError("table needs 2^n values")

    def fn(S):
        bits = 0
        for i in S:
            bits |= 1 << i
        return values[bits]

    return SubmodularFn(n, fn, check=check)
