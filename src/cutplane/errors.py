"""Exception taxonomy shared across the toolkit.

Everything raised on purpose derives from CutplaneError so the CLI can map
failures onto its exit codes without guessing.
"""


class CutplaneError(Exception):
    pass


class NotPositiveDefinite(CutplaneError):
    """Cholesky failed even after jitter escalation."""


class PreconditionViolated(CutplaneError):
    """A documented entry condition of an operation does not hold."""


class SlackNonpositive(CutplaneError):
    """Queried point sits on or outside the current polytope."""


class NotUnitVector(CutplaneError):
    pass


class EmptyVector(CutplaneError):
    pass


class BudgetViolated(CutplaneError):
    """An adversary draw exceeded its declared l2 budget (harness misuse)."""


class IterationCapExceeded(CutplaneError):
    """Solver diagnostic: the hard iteration cap fired.  Carries the trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class OutsideOmega(CutplaneError):
    pass


class RoundingFailed(CutplaneError):
    """Rounded matroid-intersection output failed an independence check."""


class OutOfBox(CutplaneError):
    pass


class TriggerNotMet(CutplaneError):
    """Arc deduction was attempted but its certifying inequality failed."""


class NoProgress(CutplaneError):
    """Strongly polynomial driver could not extract any fact.

    Carries the offending certificate for post-mortem.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class InputError(CutplaneError):
    """Bad problem file / bad CLI arguments."""
