"""Cutting plane toolkit: feasibility, convex optimization, submodular
minimization, matroid intersection and dual SDP, all driven by separation
or optimization oracles."""

from .core import (
    CpmParams,
    CpmState,
    Found,
    ThinCertificate,
    certificate,
    run_feasibility,
)
from .convopt import OptimizeResult, minimize
from .oracles import Halfspace, Inside, NearOptimal, Oracle

__all__ = [
    "CpmParams", "CpmState", "Found", "ThinCertificate", "certificate",
    "run_feasibility", "OptimizeResult", "minimize",
    "Halfspace", "Inside", "NearOptimal", "Oracle",
]

__version__ = "0.1.0"
