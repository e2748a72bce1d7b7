"""Model parameters, state, vector field, Jacobian, and reproduction numbers.

The reduced four-dimensional system in (S, V1, I1, I2) is

    S'  = Lambda - F1(S, I1) - F2(S, I2) - lam*S
    V1' = r*S - (mu + k*I2)*V1
    I1' = F1(S, I1) - alpha1*I1
    I2' = F2(S, I2) + k*I2*V1 - alpha2*I2

with lam = r + mu, alpha1 = gamma1 + v1 + mu, alpha2 = gamma2 + v2 + mu.
The recovered class R' = gamma1*I1 + gamma2*I2 - mu*R is decoupled and is
carried only when a state tracks it.

The right-hand side is written once, in ``bound_field``. The integrator
runs it on unchecked rates; ``vector_field``, ``field_norms`` and
``residual``, which certifies every equilibrium, run it on checked ones.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, PreconditionError
from .incidence import IncidenceSpec

#: residual bound below which an equilibrium is accepted as certified
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class ModelParams:
    """Demographic and epidemiological rates. All nonnegative, mu and Lambda positive."""

    Lambda: float
    mu: float
    r: float
    k: float
    gamma1: float
    gamma2: float
    v1: float
    v2: float

    def __post_init__(self):
        bad = []
        for name in PARAM_NAMES:
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                bad.append(name)
        if self.Lambda <= 0.0 and "Lambda" not in bad:
            bad.append("Lambda")
        if self.mu <= 0.0 and "mu" not in bad:
            bad.append("mu")
        if bad:
            raise ValueError("invalid model parameters: " + ", ".join(bad))

    @property
    def lam(self) -> float:
        """Total loss rate of susceptibles to vaccination and death."""
        return self.r + self.mu

    @property
    def alpha1(self) -> float:
        return self.gamma1 + self.v1 + self.mu

    @property
    def alpha2(self) -> float:
        return self.gamma2 + self.v2 + self.mu

    @property
    def population_cap(self) -> float:
        """Upper bound Lambda/mu on the total population N."""
        return self.Lambda / self.mu

    @property
    def susceptible_cap(self) -> float:
        """Disease-free susceptible level Lambda/lam."""
        return self.Lambda / self.lam

    @property
    def vaccinated_cap(self) -> float:
        """Disease-free vaccinated level r*Lambda/(mu*lam)."""
        return self.r * self.Lambda / (self.mu * self.lam)


#: the ModelParams field names, in order: scenario keys, sweep keys and report order
PARAM_NAMES = tuple(f.name for f in fields(ModelParams))


@dataclass(frozen=True)
class State:
    """Point in state space. R is carried only when not None."""

    S: float
    V1: float
    I1: float
    I2: float
    R: Optional[float] = None

    @property
    def total(self) -> float:
        """N = S + V1 + I1 + I2 (the recovered class is excluded)."""
        return self.S + self.V1 + self.I1 + self.I2

    def as_array(self) -> np.ndarray:
        if self.R is None:
            return np.array([self.S, self.V1, self.I1, self.I2], float)
        return np.array([self.S, self.V1, self.I1, self.I2, self.R], float)

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "State":
        values = tuple(float(v) for v in values)
        if len(values) == 4:
            return cls(*values)
        if len(values) == 5:
            return cls(*values[:4], R=values[4])
        raise ValueError("state vector must have 4 or 5 components")


StateLike = Union[State, Sequence[float], np.ndarray]


def _as_array(x: StateLike) -> np.ndarray:
    """A State or a length-4/5 vector as a float array."""
    return x.as_array() if isinstance(x, State) else np.asarray(x, float)


@dataclass(frozen=True)
class Thresholds:
    """Reproduction numbers, each a ``reproduction_number``.

    R1 and R2 are taken at the disease-free state. ``R2_invasion`` is the
    strain-2 number at the strain-1-only equilibrium and ``R1_invasion`` the
    converse; both are None until that equilibrium is available.
    """

    R1: float
    R2: float
    R0: float
    R2_invasion: Optional[float] = None
    R1_invasion: Optional[float] = None


def bound_field(p: ModelParams, rate1, rate2):
    """The system's right-hand side f(t, y), with p and the rates F1(S, I1)
    and F2(S, I2) bound.

    y is (S, V1, I1, I2) or (S, V1, I1, I2, R), and f(t, y) is its
    derivative as a tuple of the same length: floats for floats, arrays for
    component arrays (rows of a transposed state matrix broadcast
    elementwise). f neither checks its input nor catches errors.
    """
    Lam, lam, mu, r, k = p.Lambda, p.lam, p.mu, p.r, p.k
    a1, a2, g1, g2 = p.alpha1, p.alpha2, p.gamma1, p.gamma2

    def field(t, y):
        if len(y) == 5:  # the decoupled recovered class
            S, V1, I1, I2, R = y
            return field(t, (S, V1, I1, I2)) + (g1 * I1 + g2 * I2 - mu * R,)
        S, V1, I1, I2 = y
        F1 = rate1(S, I1)
        F2 = rate2(S, I2)
        return (
            Lam - F1 - F2 - lam * S,
            r * S - (mu + k * I2) * V1,
            F1 - a1 * I1,
            F2 + k * I2 * V1 - a2 * I2,
        )

    return field


def _no_infection(S, I):
    """The rate of a strain left out: F = 0, the model's F(S, 0) = 0 at the
    equilibria without that strain."""
    return 0.0


def _checked_field(p: ModelParams, inc1: Optional[IncidenceSpec], inc2: Optional[IncidenceSpec]):
    """``bound_field`` on the checked rates; an incidence of None is F = 0."""
    return bound_field(p, inc1.rate if inc1 else _no_infection, inc2.rate if inc2 else _no_infection)


def vector_field(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, x: StateLike) -> np.ndarray:
    """Evaluate the system derivative at a state.

    Accepts a State or a length-4/5 vector; a fifth component is treated as
    the recovered class and its decoupled derivative is appended.
    """
    y = _as_array(x)
    if not np.all(np.isfinite(y)):
        raise DomainError("vector field evaluated at a non-finite state")
    return np.array(_checked_field(p, inc1, inc2)(0.0, y), float)


def field_norms(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, states: np.ndarray) -> np.ndarray:
    """Max-norm of the 4-D field along rows of an (n, 4+) state matrix."""
    parts = _checked_field(p, inc1, inc2)(0.0, states[:, :4].T)
    return np.max(np.abs(np.column_stack(parts)), axis=1)


def residual(
    p: ModelParams, inc1: Optional[IncidenceSpec], inc2: Optional[IncidenceSpec], x: StateLike
) -> float:
    """Max-norm of the 4-D field at a point; the equilibrium certificate.
    A strain given as None has F = 0, so an equilibrium without it can be
    certified without its incidence."""
    y = _as_array(x)
    parts = _checked_field(p, inc1, inc2)(0.0, y[:4])
    return float(max(abs(v) for v in parts))


def jacobian(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, x: StateLike) -> np.ndarray:
    """4x4 Jacobian of the reduced field, rows and columns ordered (S, V1, I1, I2)."""
    y = _as_array(x)
    if not np.all(np.isfinite(y)):
        raise DomainError("jacobian evaluated at a non-finite state")
    S, V1, I1, I2 = y[0], y[1], y[2], y[3]
    dF1_dS = inc1.d_rate_dS(S, I1)
    dF1_dI = inc1.d_rate_dI(S, I1)
    dF2_dS = inc2.d_rate_dS(S, I2)
    dF2_dI = inc2.d_rate_dI(S, I2)
    return np.array(
        [
            [-dF1_dS - dF2_dS - p.lam, 0.0, -dF1_dI, -dF2_dI],
            [p.r, -p.mu - p.k * I2, 0.0, -p.k * V1],
            [dF1_dS, 0.0, dF1_dI - p.alpha1, 0.0],
            [dF2_dS, p.k * I2, 0.0, dF2_dI + p.k * V1 - p.alpha2],
        ],
        float,
    )


def reproduction_number(p: ModelParams, inc: IncidenceSpec, strain: int, S, V1):
    """Reproduction number of ``strain`` where it is absent, at (S, V1).

    It is the strain's growth rate per infective at I = 0, dF/dI(S, 0) plus
    the vaccinated-class route k*V1 for strain 2, over its alpha. So the
    decoupled I row there has eigenvalue alpha*(R - 1) (van den Driessche
    and Watmough 2002). At (S0, V10) it is R1 or R2; at the other strain's
    equilibrium it is an invasion number. Given parameter columns and forms
    bound to coefficient columns, it gives each row's value in one array
    evaluation.
    """
    route, alpha = (0.0, p.alpha1) if strain == 1 else (p.k * V1, p.alpha2)
    return _real((inc.d_rate_dI(S, 0.0) + route) / alpha)


def thresholds(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec) -> Thresholds:
    """R1, R2 and R0 = max(R1, R2): each strain's ``reproduction_number`` at
    the disease-free state (S0, V10), on scalars or on parameter columns."""
    R1 = reproduction_number(p, inc1, 1, p.susceptible_cap, p.vaccinated_cap)
    R2 = reproduction_number(p, inc2, 2, p.susceptible_cap, p.vaccinated_cap)
    return Thresholds(R1, R2, _real(np.maximum(R1, R2)))


def _real(x):
    """A Python float for a scalar, arrays unchanged."""
    return float(x) if np.ndim(x) == 0 else x


def invasion_numbers(
    p: ModelParams,
    inc1: IncidenceSpec,
    inc2: IncidenceSpec,
    e1=None,
    e2=None,
) -> tuple:
    """(R2_invasion, R1_invasion): the ``reproduction_number`` of strain 2 at
    the strain-1-only equilibrium e1, and of strain 1 at the strain-2-only
    equilibrium e2.

    Each entry is None when its equilibrium is not supplied. Supplied
    equilibria must carry a residual below RESIDUAL_TOL.
    """

    def at(eq, inc, strain):
        if eq is None:
            return None
        require_certified(eq)
        return reproduction_number(p, inc, strain, eq.point.S, eq.point.V1)

    return at(e1, inc2, 2), at(e2, inc1, 1)


def require_certified(equilibrium) -> None:
    if equilibrium.residual >= RESIDUAL_TOL:
        raise PreconditionError(
            "equilibrium %s has residual %.3e, not certified below %.0e"
            % (equilibrium.kind, equilibrium.residual, RESIDUAL_TOL)
        )
