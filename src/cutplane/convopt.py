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
class OptimizeResult:
    best_x: np.ndarray
    best_value: float
    termination: str         # "NearOptimalFlag" or "WidthExhausted"
    oracle_calls: int


def feasibility_eps(n, R, alpha):
    """Stopping width delta = alpha * MinWidth / (n^{3/2} ln kappa).

    MinWidth is folded into kappa: with kappa = R/MinWidth the width is
    R/kappa, and kappa is taken as n^{3/2}.
    """
    kappa = max(n, 2) ** 1.5
    minwidth = R / kappa
    return alpha * minwidth / (n ** 1.5 * math.log(max(kappa, math.e)))


def minimize(oracle, n, R, alpha):
    """Best queried point of the function over the R-box.

    oracle is any object whose query(x) answers (value, NearOptimal |
    Halfspace), such as an oracles.Oracle; alpha sets the stopping width
    through feasibility_eps.  oracle_calls counts the queries of this run
    alone, also when the iteration cap ends it.
    """
    state = {"best": None, "stop": False, "calls": 0}

    class _Wrapped:
        def query(self, x):
            state["calls"] += 1
            value, resp = oracle.query(x)
            if state["best"] is None or value < state["best"][1]:
                state["best"] = (np.array(x, dtype=float), float(value))
            if isinstance(resp, NearOptimal):
                state["stop"] = True
                return Inside()
            return resp

    params = CpmParams.practical(n, R=R, eps=feasibility_eps(n, R, alpha))
    try:
        run_feasibility(_Wrapped(), n, params)
    except IterationCapExceeded:
        if state["best"] is None:
            raise
    termination = "NearOptimalFlag" if state["stop"] else "WidthExhausted"
    bx, bv = state["best"]
    return OptimizeResult(best_x=bx, best_value=bv, termination=termination,
                          oracle_calls=state["calls"])
