"""Stochastic chasing-to-zero game.

The player sees a noisy observation of an error vector that an adversary
perturbs each round, and may zero out one coordinate per round.  The
argmax-of-|y| strategy keeps the sup norm logarithmically bounded with high
probability; the simulation harness here exists to measure that envelope.
"""

import numpy as np

from .errors import BudgetViolated, EmptyVector


def player_pick(y):
    """Smallest index attaining max_i |y_i|."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise EmptyVector("observation vector is empty")
    return int(np.argmax(np.abs(y)))


def envelope(m, k, c, R, p):
    """High-probability sup-norm bound at round k (1-indexed)."""
    return 2.0 * (c + R) * np.log(4.0 * m * k ** 2 / p)


class _Adversary:
    """Built-in adversaries.  All draws are mean zero with l2 norm <= c."""

    def __init__(self, kind, m, c, rng):
        self.kind = kind
        self.m = m
        self.c = c
        self.rng = rng

    def draw(self, x):
        if self.kind == "zero":
            return np.zeros(self.m)
        if self.kind == "sparse":
            d = np.zeros(self.m)
            i = self.rng.integers(self.m)
            d[i] = self.c * (2.0 * self.rng.integers(0, 2) - 1.0)
            return d
        if self.kind == "dense":
            signs = 2.0 * self.rng.integers(0, 2, size=self.m) - 1.0
            return self.c / np.sqrt(self.m) * signs
        if self.kind == "adaptive":
            # dump the whole budget on whichever coordinate is largest
            d = np.zeros(self.m)
            i = int(np.argmax(np.abs(x)))
            d[i] = self.c * (2.0 * self.rng.integers(0, 2) - 1.0)
            return d
        raise ValueError("unknown adversary kind %r" % self.kind)


def simulate(adversary, rounds, c, R, seed, m=None):
    """Play the game and return the per-round sup norm trajectory.

    adversary: one of the built-in kind strings, or a callable
    (x, rng) -> delta.  Callables are checked against the budget c; the
    built-ins respect it by construction.
    """
    rng = np.random.default_rng(seed)
    if isinstance(adversary, str):
        if m is None:
            raise ValueError("m required with a named adversary")
        adv = _Adversary(adversary, m, c, rng).draw
    else:
        if m is None:
            raise ValueError("m required with a callable adversary")

        def adv(x):
            delta = np.asarray(adversary(x, rng), dtype=float)
            if np.linalg.norm(delta) > c + 1e-9:
                raise BudgetViolated("adversary draw has l2 norm %g > c=%g"
                                     % (np.linalg.norm(delta), c))
            return delta

    x = np.zeros(m)
    sup = np.empty(rounds)
    for k in range(rounds):
        delta = adv(x)
        noise = rng.uniform(-R, R, size=m)
        i = player_pick(x + noise)
        x += delta
        x[i] = 0.0
        sup[k] = np.max(np.abs(x))
    return sup


def simulate_dense_fast(rounds, m, c, R, seed):
    """Dense-adversary simulation with draws precomputed in bulk.

    Same trajectory semantics as simulate(..., "dense", ...) but not the
    same stream; used where 100 seeds x 1e5 rounds must finish in minutes.
    """
    rng = np.random.default_rng(seed)
    scale = c / np.sqrt(m)
    deltas = (rng.integers(0, 2, size=(rounds, m)) * 2.0 - 1.0) * scale
    noises = rng.uniform(-R, R, size=(rounds, m))
    x = np.zeros(m)
    sup = np.empty(rounds)
    for k in range(rounds):
        i = np.argmax(np.abs(x + noises[k]))
        x += deltas[k]
        x[i] = 0.0
        sup[k] = np.max(np.abs(x))
    return sup
