"""Exception hierarchy shared by all modules, and the two rules for named
numeric inputs: grid sizes, and the ranges of rates, tolerances and bounds."""

import math
import numbers


class TwoStrainError(Exception):
    """Base class for errors raised by this package."""


class DomainError(TwoStrainError):
    """Input outside the mathematical domain of an operation."""


class UnsupportedLimitError(DomainError):
    """A custom incidence rate has no usable F(S,I)/I limit at I=0."""


class ConfigError(TwoStrainError):
    """Invalid scenario configuration. The message lists every offending key."""


class PreconditionError(TwoStrainError):
    """A documented precondition was violated, e.g. a stale equilibrium."""


class SolverError(TwoStrainError):
    """A root or fixed-point solve failed in a way theory says it should not."""


class IntegrationError(TwoStrainError):
    """Adaptive step size underflowed. Carries the last good state."""

    def __init__(self, message, last_time=None, last_state=None):
        super().__init__(message)
        self.last_time = last_time
        self.last_state = last_state


def _require_grid(n, name: str, minimum: int) -> None:
    """Refuse a grid size ``name`` that is not an integer >= ``minimum``;
    numpy integers count, bools and floats do not."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < minimum:
        raise ValueError("%s must be an integer >= %d, not %r" % (name, minimum, n))


def _require_positive(what: str, values: dict, zero_ok=(), inf_ok=()) -> None:
    """Refuse, by name and in order, every entry of ``values`` that is not
    finite and > 0; a name in ``zero_ok`` may be 0, one in ``inf_ok`` +inf."""
    bad = [
        name
        for name, v in values.items()
        if not ((v > 0.0 or (v == 0.0 and name in zero_ok)) and (math.isfinite(v) or name in inf_ok))
    ]
    if bad:
        raise ValueError("invalid %s: %s" % (what, ", ".join(bad)))
