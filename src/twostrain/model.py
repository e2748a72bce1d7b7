"""Model parameters, state, vector field, Jacobian, and reproduction numbers.

The reduced four-dimensional system in (S, V1, I1, I2) is

    S'  = Lambda - F1(S, I1) - F2(S, I2) - lam*S
    V1' = r*S - (mu + k*I2)*V1
    I1' = F1(S, I1) - alpha1*I1
    I2' = F2(S, I2) + k*I2*V1 - alpha2*I2

with lam = r + mu, alpha1 = gamma1 + v1 + mu, alpha2 = gamma2 + v2 + mu.
The recovered class R' = gamma1*I1 + gamma2*I2 - mu*R is decoupled and is
carried only when a state tracks it.

The right-hand side is written once, as text: one expression per
component in ``_FIELD``. ``_field`` compiles it once per pair of rate texts,
and the integrator writes it into each of its stages (``simulate._kernel``),
both with one binding of the coefficients and rates. The integrator runs it
on unchecked rates; ``vector_field``, ``field_norms`` and ``residual``,
which certifies every equilibrium, run ``bound_field`` on checked ones.
``jacobians`` is its complex step, so no derivative of the field is written
by hand.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, PreconditionError, _require_positive
from .incidence import _RATE_TEXTS, _STEP, IncidenceSpec

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
        # every rate but Lambda and mu may be 0
        values = {name: getattr(self, name) for name in PARAM_NAMES}
        _require_positive("model parameters", values, zero_ok=PARAM_NAMES[2:])

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
        """Disease-free vaccinated level r*S0/mu = r*Lambda/(mu*lam)."""
        return self.r * self.susceptible_cap / self.mu


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
    y = x.as_array() if isinstance(x, State) else np.asarray(x, float)
    if y.shape not in ((4,), (5,)):
        raise ValueError("state vector must have 4 or 5 components")
    return y


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


# The field as text: the rates F1 = F1(S, I1) and F2 = F2(S, I2), then one
# expression per component of (S, V1, I1, I2, R), over the ModelParams
# names in _COEFFICIENTS.
_STATE = ("S", "V1", "I1", "I2", "R")
_COEFFICIENTS = ("Lambda", "lam", "mu", "r", "k", "alpha1", "alpha2", "gamma1", "gamma2")
_FIELD = (
    "Lambda - F1 - F2 - lam * S",
    "r * S - (mu + k * I2) * V1",
    "F1 - alpha1 * I1",
    "F2 + k * I2 * V1 - alpha2 * I2",
    "gamma1 * I1 + gamma2 * I2 - mu * R",  # the decoupled recovered class
)
# a strain's rate written as a call of the bound rate F(S, I)
_RATE_CALL = "rate(S, I)"


def _rate_text(inc: IncidenceSpec) -> str:
    """A strain's rate as ``_field_lines`` takes it: its built-in family's
    text, or ``_RATE_CALL`` for a custom rate."""
    return _RATE_TEXTS.get(inc.family, _RATE_CALL)


def _field_lines(n: int, rates=(_RATE_CALL, _RATE_CALL), out: str = "f_{i}") -> list:
    """The field of n = 4 or 5 components as source lines over locals named
    as in ``_STATE``: F1 and F2 from ``rates``, each a text over (b, z, S, I)
    or ``_RATE_CALL`` in which strain j's b, z, I and rate become bj, zj, Ij
    and ratej, then component i into ``out.format(i=i)``."""
    lines = []
    for j, text in enumerate(rates, 1):
        names = {"b": "b%d" % j, "z": "z%d" % j, "I": "I%d" % j, "rate": "rate%d" % j}
        lines.append("F%d = %s" % (j, re.sub(r"\b\w+", lambda m: names.get(m[0], m[0]), text)))
    return lines + ["%s = %s" % (out.format(i=i), _FIELD[i]) for i in range(n)]


def _compiled(name: str, lines: list, filename: str, namespace: dict):
    """The function ``name`` defined by the source ``lines``, compiled with
    ``namespace`` as its globals, with the text as its ``source``."""
    source = "\n".join(lines) + "\n"
    scope = {}
    exec(compile(source, filename, "exec"), namespace, scope)
    fn = scope[name]
    fn.source = source
    return fn


@functools.lru_cache(maxsize=None)
def _field(rates: tuple):
    """The binder of the field with the two strains' rate texts ``rates``
    written in by ``_field_lines``, compiled once per rate pair:
    ``bind(*_COEFFICIENTS, b1, z1, b2, z2, rate1, rate2)`` returns f(t, y)
    for y of 4 or 5 components, the binding of ``simulate._kernel(n,
    rates)``. ``print(model._field(rates).source)`` shows the text."""
    return _compiled(
        "_bind_field",
        [
            "def _bind_field(%s, b1, z1, b2, z2, rate1, rate2):" % ", ".join(_COEFFICIENTS),
            "    def field(t, y):",
            "        if len(y) == 5:",
            "            S, V1, I1, I2, R = y",
            *("            " + line for line in _field_lines(5, rates)),
            "            return (f_0, f_1, f_2, f_3, f_4)",
            "        S, V1, I1, I2 = y",
            *("        " + line for line in _field_lines(4, rates)),
            "        return (f_0, f_1, f_2, f_3)",
            "    return field",
        ],
        "<model field, F1 = %s, F2 = %s>" % rates,
        {},
    )


_coefficients = operator.attrgetter(*_COEFFICIENTS)


def bound_field(p: ModelParams, rate1, rate2):
    """The system's right-hand side f(t, y), with p and the rates F1(S, I1)
    and F2(S, I2) bound, compiled from the field's text.

    y is (S, V1, I1, I2) or (S, V1, I1, I2, R), and f(t, y) is its
    derivative as a tuple of the same length: floats for floats, arrays for
    component arrays (rows of a transposed state matrix broadcast
    elementwise), expressions for sympy symbols. f neither checks its input
    nor catches errors. It is the binding of ``_field`` with both rates
    called; ``print(model._field((model._RATE_CALL,) * 2).source)`` shows
    the text.
    """
    return _field((_RATE_CALL, _RATE_CALL))(*_coefficients(p), None, None, None, None, rate1, rate2)


def vector_field(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, x: StateLike) -> np.ndarray:
    """Evaluate the system derivative at a state.

    Accepts a State or a length-4/5 vector; a fifth component is treated as
    the recovered class and its decoupled derivative is appended.
    """
    y = _as_array(x)
    if not np.all(np.isfinite(y)):
        raise DomainError("vector field evaluated at a non-finite state")
    return np.array(bound_field(p, inc1.rate, inc2.rate)(0.0, y), float)


def field_norms(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, states: np.ndarray) -> np.ndarray:
    """Max-norm of the 4-D field along rows of an (n, 4+) state matrix."""
    parts = bound_field(p, inc1.rate, inc2.rate)(0.0, states[:, :4].T)
    return np.max(np.abs(np.column_stack(parts)), axis=1)


def residual(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, x: StateLike) -> float:
    """Max-norm of the 4-D field at a point; the equilibrium certificate.
    The field runs on Python floats."""
    parts = bound_field(p, inc1.rate, inc2.rate)(0.0, _as_array(x)[:4].tolist())
    return float(max(abs(v) for v in parts))


def jacobian(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, x: StateLike) -> np.ndarray:
    """4x4 Jacobian of the reduced field, rows and columns ordered (S, V1, I1, I2):
    the one-row case of ``jacobians``."""
    return jacobians([(p, inc1, inc2, x)])[0]


def jacobians(rows) -> np.ndarray:
    """The ``jacobian`` of each (p, inc1, inc2, x) row, as an (m, 4, 4) array.

    Column j of row i's matrix is the complex step Im f(y_i + i*h*e_j)/h of
    the field's text. Each row binds ``_field`` of its own strains' rate
    texts (``_rate_text``) and steps it on Python floats and complex
    numbers, so each entry is bit for bit the scalar complex step of
    ``bound_field``; numpy's complex128 loops would round some entries
    differently (a fused multiply-add, and a quotient through a
    reciprocal). A built-in rate's text is stepped through. A custom rate
    enters by its linearisation at each row's point,
    ``IncidenceSpec.complex_rate``, so its evaluator sees no complex input.
    """
    points = np.array([_as_array(x)[:4] for *_, x in rows]).reshape(len(rows), 4)
    if not np.isfinite(points).all():
        raise DomainError("jacobian evaluated at a non-finite state")
    points = points.tolist()
    fields = [
        _field((_rate_text(a), _rate_text(b)))(
            *_coefficients(p), a.beta, a.zeta, b.beta, b.zeta, a.complex_rate(S, I1), b.complex_rate(S, I2)
        )
        for (p, a, b, _), (S, _, I1, I2) in zip(rows, points)
    ]
    # [i, j, c]: component c of row i's field, stepped in component j. A
    # non-finite entry is returned as is, as by the scalar step; classify
    # refuses it.
    with np.errstate(all="ignore"):
        steps = [
            field(0.0, point[:j] + [complex(point[j], _STEP)] + point[j + 1 :])
            for field, point in zip(fields, points)
            for j in range(4)
        ]
        J = np.array(steps, complex).imag.reshape(len(rows), 4, 4) / _STEP
    return np.ascontiguousarray(J.transpose(0, 2, 1))


def reproduction_number(p: ModelParams, inc: IncidenceSpec, strain: int, S, V1) -> float:
    """Reproduction number of ``strain`` where it is absent, at (S, V1).

    It is a Python float: the strain's growth rate per infective at I = 0,
    ``inc.force(S, 0)`` plus the vaccinated-class route k*V1 for strain 2,
    over its alpha. So the decoupled I row there has eigenvalue alpha*(R - 1)
    (van den Driessche and Watmough 2002), and the E1 and E2 balances start
    from the same force. At (S0, V10) it is R1 or R2; at the other strain's
    equilibrium it is an invasion number.
    """
    route, alpha = (0.0, p.alpha1) if strain == 1 else (p.k * V1, p.alpha2)
    return float((inc.force(S, 0.0) + route) / alpha)


def thresholds(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec) -> Thresholds:
    """R1, R2 and R0 = max(R1, R2): each strain's ``reproduction_number`` at
    the disease-free state (S0, V10)."""
    R1 = reproduction_number(p, inc1, 1, p.susceptible_cap, p.vaccinated_cap)
    R2 = reproduction_number(p, inc2, 2, p.susceptible_cap, p.vaccinated_cap)
    return Thresholds(R1, R2, max(R1, R2))


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
    if not equilibrium.residual < RESIDUAL_TOL:  # a NaN residual is not certified
        raise PreconditionError(
            "equilibrium %s has residual %.3e, not certified below %.0e"
            % (equilibrium.kind, equilibrium.residual, RESIDUAL_TOL)
        )
