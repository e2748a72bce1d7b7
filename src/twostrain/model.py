"""Model parameters, state, vector field, Jacobian, and threshold numbers.

The reduced four-dimensional system in (S, V1, I1, I2) is

    S'  = Lambda - F1(S, I1) - F2(S, I2) - lam*S
    V1' = r*S - (mu + k*I2)*V1
    I1' = F1(S, I1) - alpha1*I1
    I2' = F2(S, I2) + k*I2*V1 - alpha2*I2

with lam = r + mu, alpha1 = gamma1 + v1 + mu, alpha2 = gamma2 + v2 + mu.
The recovered class R' = gamma1*I1 + gamma2*I2 - mu*R is decoupled and is
carried only when a state tracks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

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
        for name in ("Lambda", "mu", "r", "k", "gamma1", "gamma2", "v1", "v2"):
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


@dataclass(frozen=True)
class Thresholds:
    """Reproduction numbers and the force derivatives they come from.

    ``R2_invasion`` is the strain-2 number evaluated at the strain-1-only
    equilibrium and ``R1_invasion`` the converse; both are None until the
    corresponding equilibrium is available.
    """

    sigma1: float
    sigma2: float
    R1: float
    R2: float
    R0: float
    R2_invasion: Optional[float] = None
    R1_invasion: Optional[float] = None


def field_components(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, S, V1, I1, I2):
    """Right-hand side of the 4-D system; broadcasts over array inputs."""
    F1 = inc1.rate(S, I1)
    F2 = inc2.rate(S, I2)
    dS = p.Lambda - F1 - F2 - p.lam * S
    dV1 = p.r * S - (p.mu + p.k * I2) * V1
    dI1 = F1 - p.alpha1 * I1
    dI2 = F2 + p.k * I2 * V1 - p.alpha2 * I2
    return dS, dV1, dI1, dI2


def vector_field(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, x: StateLike) -> np.ndarray:
    """Evaluate the system derivative at a state.

    Accepts a State or a length-4/5 vector; a fifth component is treated as
    the recovered class and its decoupled derivative is appended.
    """
    y = x.as_array() if isinstance(x, State) else np.asarray(x, float)
    if not np.all(np.isfinite(y)):
        raise DomainError("vector field evaluated at a non-finite state")
    dS, dV1, dI1, dI2 = field_components(p, inc1, inc2, y[0], y[1], y[2], y[3])
    if y.shape[0] == 5:
        dR = p.gamma1 * y[2] + p.gamma2 * y[3] - p.mu * y[4]
        return np.array([dS, dV1, dI1, dI2, dR], float)
    return np.array([dS, dV1, dI1, dI2], float)


def field_norms(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, states: np.ndarray) -> np.ndarray:
    """Max-norm of the 4-D field along rows of an (n, 4+) state matrix."""
    S, V1, I1, I2 = (states[:, j] for j in range(4))
    parts = field_components(p, inc1, inc2, S, V1, I1, I2)
    return np.max(np.abs(np.column_stack(parts)), axis=1)


def residual(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, x: StateLike) -> float:
    """Max-norm of the 4-D field at a point; the equilibrium certificate."""
    y = x.as_array() if isinstance(x, State) else np.asarray(x, float)
    parts = field_components(p, inc1, inc2, y[0], y[1], y[2], y[3])
    return float(max(abs(v) for v in parts))


def jacobian(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, x: StateLike) -> np.ndarray:
    """4x4 Jacobian of the reduced field, rows and columns ordered (S, V1, I1, I2)."""
    y = x.as_array() if isinstance(x, State) else np.asarray(x, float)
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


def strain1_threshold(p: ModelParams, inc1: IncidenceSpec) -> Tuple[float, float]:
    """(sigma1, R1): sigma1 = dF1/dI1 at the disease-free state (S0, 0), R1 = sigma1/alpha1."""
    sigma1 = _real(inc1.d_rate_dI(p.susceptible_cap, 0.0))
    return sigma1, sigma1 / p.alpha1


def strain2_threshold(p: ModelParams, inc2: IncidenceSpec) -> Tuple[float, float]:
    """(sigma2, R2): sigma2 = dF2/dI2 at (S0, 0), and R2 = sigma2/alpha2 plus the
    vaccinated-class route k*V1_0/alpha2 with V1_0 = r*Lambda/(mu*lam)."""
    sigma2 = _real(inc2.d_rate_dI(p.susceptible_cap, 0.0))
    return sigma2, sigma2 / p.alpha2 + p.k * p.r * p.Lambda / (p.alpha2 * p.mu * p.lam)


def thresholds(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec) -> Thresholds:
    """Strain reproduction numbers at the disease-free state.

    sigma_i is dF_i/dI_i at (S0, 0). Strain 2 picks up the vaccinated-class
    route k*V1_0 = k*r*Lambda/(mu*lam) on top of sigma2/alpha2.
    Given parameter columns and forms bound to coefficient columns, it gives
    each row's values in one array evaluation.
    """
    sigma1, R1 = strain1_threshold(p, inc1)
    sigma2, R2 = strain2_threshold(p, inc2)
    return Thresholds(sigma1, sigma2, R1, R2, _real(np.maximum(R1, R2)))


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
    """Invasion numbers (R2 at the strain-1 equilibrium, R1 at the strain-2 one).

    Each entry is None when the corresponding equilibrium is not supplied.
    Supplied equilibria must carry a residual below RESIDUAL_TOL.
    """
    R2_invasion = None
    R1_invasion = None
    if e1 is not None:
        require_certified(e1)
        pt = e1.point
        R2_invasion = float(inc2.d_rate_dI(pt.S, 0.0) + p.k * pt.V1) / p.alpha2
    if e2 is not None:
        require_certified(e2)
        R1_invasion = float(inc1.d_rate_dI(e2.point.S, 0.0)) / p.alpha1
    return R2_invasion, R1_invasion


def require_certified(equilibrium) -> None:
    if equilibrium.residual >= RESIDUAL_TOL:
        raise PreconditionError(
            "equilibrium %s has residual %.3e, not certified below %.0e"
            % (equilibrium.kind, equilibrium.residual, RESIDUAL_TOL)
        )
