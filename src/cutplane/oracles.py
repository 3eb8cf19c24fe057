"""Oracle vocabulary shared by all solvers.

Two currencies circulate here: separation responses (inside, or a valid
halfspace) and optimization oracles (near-argmax of a linear functional).
The adapter from subgradients to separation responses lives here too, so
each solver only has to speak one language.
"""

from dataclasses import dataclass

import numpy as np

_DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class Inside:
    pass


@dataclass(frozen=True)
class NearOptimal:
    eta: float = 0.0


@dataclass(frozen=True)
class Halfspace:
    """Valid inequality c^T z <= c^T x + offset for the queried point x."""

    c: np.ndarray
    offset: float = 0.0
    meta: object = None    # opaque tag describing where the cut came from

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)

    def normalized(self):
        nrm = np.linalg.norm(self.c)
        if nrm < _DEGENERATE_NORM:
            raise ValueError("degenerate halfspace direction (norm %g)" % nrm)
        return Halfspace(self.c / nrm, self.offset / nrm, self.meta)


@dataclass
class Oracle:
    """A caller's oracle, with call counting: query(x) is fn(x) for x as a
    float array.  Separation oracles answer Inside or a Halfspace, function
    oracles (value, NearOptimal | Halfspace), optimization oracles a point
    of K near the maximizer of <x, .>.  Cuts pass as fn returns them;
    run_feasibility normalizes each one."""

    fn: object
    calls: int = 0

    def query(self, x):
        self.calls += 1
        return self.fn(np.asarray(x, dtype=float))


def subgrad_to_separation(g, D, delta):
    """Turn a delta-subgradient g at the query point x into a separation
    response.

    Small gradients certify near-optimality with slack 2*sqrt(delta*D);
    otherwise the normalized gradient cuts off x up to the same slack.
    """
    g = np.asarray(g, dtype=float)
    eta = 2.0 * np.sqrt(max(delta, 0.0) * D)
    nrm = np.linalg.norm(g)
    if nrm <= 0.5 * np.sqrt(max(delta, 0.0) / D):
        return NearOptimal(eta=eta)
    return Halfspace(g / nrm, eta)


def vertex_opt_oracle(vertices):
    """Exact optimization oracle for a polytope given by its vertex list."""
    V = np.asarray(vertices, dtype=float)

    def fn(c):
        return V[int(np.argmax(V @ c))]

    return Oracle(fn)


def box_oracle(center, radius):
    """Set separation oracle for the axis box |x_i - center_i| <= radius."""
    center = np.asarray(center, dtype=float)

    def fn(x):
        d = x - center
        i = int(np.argmax(np.abs(d)))
        if abs(d[i]) <= radius:
            return Inside()
        e = np.zeros_like(x)
        e[i] = np.sign(d[i])
        # K sits in {z : e^T z <= e^T x - (|d_i| - radius)}
        return Halfspace(e, -(abs(d[i]) - radius))

    return Oracle(fn)


def halfspace_set_oracle(constraints):
    """Oracle for {x : a_j^T x <= b_j for all j} given rows (a_j, b_j)."""
    A = np.asarray([a for a, _ in constraints], dtype=float)
    b = np.asarray([v for _, v in constraints], dtype=float)

    def fn(x):
        viol = A @ x - b
        j = int(np.argmax(viol))
        if viol[j] <= 0:
            return Inside()
        return Halfspace(A[j], -viol[j])

    return Oracle(fn)
