"""Minimize a convex function given only a separation oracle for it.

Runs the feasibility solver against the oracle's level-set halfspaces and
keeps the best function value ever seen at a query point.  The final answer
is always one of the queried points, never something synthesized from the
polytope.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import CpmParams, run_feasibility
from .errors import IterationCapExceeded
from .oracles import Inside, NearOptimal


@dataclass
class OptimizeSpec:
    oracle: object           # FunctionOracle
    n: int
    R: float = 1.0
    alpha: float = 0.01


@dataclass
class OptimizeResult:
    best_x: np.ndarray
    best_value: float
    termination: str = "WidthExhausted"
    oracle_calls: int = 0


def feasibility_eps(spec):
    """Stopping width delta = alpha * MinWidth / (n^{3/2} ln kappa).

    MinWidth is folded into kappa: with kappa = R/MinWidth the width is
    R/kappa, and kappa is taken as n^{3/2}.
    """
    n = spec.n
    kappa = max(n, 2) ** 1.5
    minwidth = spec.R / kappa
    return spec.alpha * minwidth / (n ** 1.5 * math.log(max(kappa, math.e)))


def minimize(spec):
    """Best queried point of the oracle's function over the R-box."""
    fo = spec.oracle
    state = {"best": None, "stop": False}

    class _Wrapped:
        calls = 0

        def query(self, x):
            self.calls += 1
            value, resp = fo.query(x)
            if state["best"] is None or value < state["best"][1]:
                state["best"] = (np.array(x, dtype=float), float(value))
            if isinstance(resp, NearOptimal):
                state["stop"] = True
                return Inside()
            return resp

    params = CpmParams.practical(spec.n, R=spec.R, eps=feasibility_eps(spec))
    wrapped = _Wrapped()
    try:
        run_feasibility(wrapped, spec.n, params)
    except IterationCapExceeded:
        if state["best"] is None:
            raise
    termination = "NearOptimalFlag" if state["stop"] else "WidthExhausted"
    bx, bv = state["best"]
    return OptimizeResult(best_x=bx, best_value=bv, termination=termination,
                          oracle_calls=fo.calls)
