"""Incidence rate families and numerical checks of their structural hypotheses.

An incidence rate F(S, I) gives the number of new infections per unit time.
Three built-in families are supported:

    bilinear       F = beta * S * I
    saturated_s    F = beta * S * I / (1 + zeta * S)
    saturated_i2   F = beta * S * I / (1 + zeta * I**2)

plus a ``custom`` family defined by a user-supplied evaluator. Derived
quantities are the per-infective force f(S, I) = F/I (extended to I = 0 by
its limit) and the contact factor g(S, I) = f/S.

All evaluators accept scalars or numpy arrays and broadcast elementwise.
Nonnegative inputs are a documented precondition, not a checked one: the
adaptive integrator may probe slightly negative stage values, and the closed
forms remain finite there. Only non-finite inputs raise.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UnsupportedLimitError

# Step scale for one-coordinate central differences on custom rates.
_FD_EPS = math.sqrt(np.finfo(float).eps)

# Probe size for the F(S, I)/I limit of custom rates at I = 0.
_LIMIT_DELTA = 1e-8
_LIMIT_RTOL = 1e-4


def _require_finite(*values) -> None:
    for v in values:
        # math.isfinite on a scalar is about a hundred times cheaper than numpy
        ok = math.isfinite(v) if isinstance(v, (float, np.floating)) else np.all(np.isfinite(v))
        if not ok:
            raise DomainError("incidence evaluated at a non-finite input")


# Each built-in family's formulas, each a function of (beta, zeta, S, I).
# Terms like 0.0 * I broadcast a result that is constant in one argument
# against it, so array shapes survive.
_ClosedForms = namedtuple("_ClosedForms", "rate force contact_factor d_rate_dS d_rate_dI")
_CLOSED_FORMS = {
    "bilinear": _ClosedForms(
        rate=lambda b, z, S, I: b * S * I,
        force=lambda b, z, S, I: b * S + 0.0 * I,
        contact_factor=lambda b, z, S, I: b + 0.0 * S + 0.0 * I,
        d_rate_dS=lambda b, z, S, I: b * I,
        d_rate_dI=lambda b, z, S, I: b * S,
    ),
    "saturated_s": _ClosedForms(
        rate=lambda b, z, S, I: b * S * I / (1.0 + z * S),
        force=lambda b, z, S, I: b * S / (1.0 + z * S) + 0.0 * I,
        contact_factor=lambda b, z, S, I: b / (1.0 + z * S) + 0.0 * I,
        d_rate_dS=lambda b, z, S, I: b * I / ((1.0 + z * S) * (1.0 + z * S)),
        d_rate_dI=lambda b, z, S, I: b * S / (1.0 + z * S),
    ),
    "saturated_i2": _ClosedForms(
        rate=lambda b, z, S, I: b * S * I / (1.0 + z * I * I),
        force=lambda b, z, S, I: b * S / (1.0 + z * I * I),
        contact_factor=lambda b, z, S, I: b / (1.0 + z * I * I) + 0.0 * S,
        d_rate_dS=lambda b, z, S, I: b * I / (1.0 + z * I * I),
        d_rate_dI=lambda b, z, S, I: b * S * (1.0 - z * I * I) / ((1.0 + z * I * I) * (1.0 + z * I * I)),
    ),
}
BUILT_IN_FAMILIES = tuple(_CLOSED_FORMS)


@dataclass(frozen=True)
class IncidenceSpec:
    """Immutable description of one strain's incidence rate.

    Use the classmethod constructors; the raw constructor validates the
    coefficients of built-in families but not custom callables.
    """

    family: str
    beta: float = 0.0
    zeta: float = 0.0
    rate_fn: Optional[Callable] = field(default=None, repr=False)
    d_rate_dS_fn: Optional[Callable] = field(default=None, repr=False)
    d_rate_dI_fn: Optional[Callable] = field(default=None, repr=False)
    label: str = ""

    def __post_init__(self):
        if self.family in _CLOSED_FORMS:
            _check_coefficients(self.beta, self.zeta)

    @classmethod
    def bilinear(cls, beta: float) -> "IncidenceSpec":
        return cls("bilinear", float(beta), 0.0, label="bilinear")

    @classmethod
    def saturated_s(cls, beta: float, zeta: float) -> "IncidenceSpec":
        """Saturation in S: F = beta*S*I / (1 + zeta*S)."""
        return cls("saturated_s", float(beta), float(zeta), label="saturated_s")

    @classmethod
    def saturated_i2(cls, beta: float, zeta: float) -> "IncidenceSpec":
        """Inhibition by infectives: F = beta*S*I / (1 + zeta*I**2)."""
        return cls("saturated_i2", float(beta), float(zeta), label="saturated_i2")

    @classmethod
    def custom(
        cls,
        rate_fn: Callable,
        label: str = "custom",
        d_rate_dS: Optional[Callable] = None,
        d_rate_dI: Optional[Callable] = None,
    ) -> "IncidenceSpec":
        """Wrap an arbitrary rate evaluator F(S, I).

        The evaluator must broadcast over numpy arrays. Partials default to
        central finite differences; the force at I = 0 is estimated
        numerically and must pass a step-halving consistency check.
        """
        return cls(
            "custom",
            rate_fn=rate_fn,
            d_rate_dS_fn=d_rate_dS,
            d_rate_dI_fn=d_rate_dI,
            label=label,
        )

    # -- evaluators ---------------------------------------------------------
    # The public evaluators are the checked boundary: each rejects non-finite
    # inputs, then evaluates its entry of the family's closed forms.

    def _checked_forms(self, S, I) -> Optional[_ClosedForms]:
        _require_finite(S, I)
        return _CLOSED_FORMS.get(self.family)

    def rate(self, S, I):
        """F(S, I). Exactly 0.0 whenever S = 0 or I = 0 for built-ins."""
        forms = self._checked_forms(S, I)
        return self.rate_fn(S, I) if forms is None else forms.rate(self.beta, self.zeta, S, I)

    def force(self, S, I):
        """f(S, I) = F/I, extended to I = 0 by the one-sided limit."""
        forms = self._checked_forms(S, I)
        return self._custom_force(S, I) if forms is None else forms.force(self.beta, self.zeta, S, I)

    def contact_factor(self, S, I):
        """g(S, I) = f(S, I)/S. Requires S > 0; the S = 0 limit is not defined."""
        forms = self._checked_forms(S, I)
        if np.any(np.asarray(S) <= 0.0):
            raise DomainError("contact factor requires S > 0")
        if forms is None:
            return self._custom_force(S, I) / S
        return forms.contact_factor(self.beta, self.zeta, S, I)

    def d_rate_dS(self, S, I):
        """dF/dS, analytic for built-ins and central-difference for custom."""
        forms = self._checked_forms(S, I)
        if forms is not None:
            return forms.d_rate_dS(self.beta, self.zeta, S, I)
        if self.d_rate_dS_fn is not None:
            return self.d_rate_dS_fn(S, I)
        h = _FD_EPS * np.maximum(1.0, np.abs(S))
        return (self.rate_fn(S + h, I) - self.rate_fn(S - h, I)) / (2.0 * h)

    def d_rate_dI(self, S, I):
        """dF/dI; at I = 0 this is the force limit for the built-in families."""
        forms = self._checked_forms(S, I)
        if forms is not None:
            return forms.d_rate_dI(self.beta, self.zeta, S, I)
        if self.d_rate_dI_fn is not None:
            return self.d_rate_dI_fn(S, I)
        h = _FD_EPS * np.maximum(1.0, np.abs(I))
        return (self.rate_fn(S, I + h) - self.rate_fn(S, I - h)) / (2.0 * h)

    def bound_forms(self, beta=None, zeta=None) -> _ClosedForms:
        """The family's closed forms as functions of (S, I) with no input check,
        for loops that check their outputs. ``beta`` and ``zeta`` replace the
        spec's own, e.g. by (n, 1) columns that give each row of an (n, m)
        argument its own. A custom spec gets its checked evaluators back.
        """
        forms = _CLOSED_FORMS.get(self.family)
        if forms is None:
            return _ClosedForms(self.rate, self.force, self.contact_factor, self.d_rate_dS, self.d_rate_dI)
        b = self.beta if beta is None else beta
        z = self.zeta if zeta is None else zeta
        return _ClosedForms._make(partial(form, b, z) for form in forms)

    def scalar_rate(self) -> Callable:
        """F(S, I) on Python floats: the scalar case of ``bound_forms``. A custom
        rate gets numpy scalars, as from array code, so a user evaluator sees
        no input it would not see otherwise."""
        rate = self.bound_forms().rate
        return rate if self.family in _CLOSED_FORMS else lambda S, I: rate(np.float64(S), np.float64(I))

    # -- custom-family helpers ----------------------------------------------

    def _custom_force(self, S, I):
        if np.ndim(I) == 0 and np.ndim(S) == 0:
            if I > 0.0:
                return self.rate_fn(S, I) / I
            return self._force_limit(S)
        S_b, I_b = np.broadcast_arrays(np.asarray(S, float), np.asarray(I, float))
        out = np.empty(I_b.shape, float)
        pos = I_b > 0.0
        out[pos] = self.rate_fn(S_b[pos], I_b[pos]) / I_b[pos]
        if np.any(~pos):
            out[~pos] = self._force_limit(S_b[~pos])
        return out

    def _force_limit(self, S):
        """Estimate lim F(S, I)/I for I -> 0+ and verify it is stable."""
        q1 = self.rate_fn(S, _LIMIT_DELTA) / _LIMIT_DELTA
        q2 = self.rate_fn(S, _LIMIT_DELTA / 2.0) / (_LIMIT_DELTA / 2.0)
        gap = np.abs(q1 - q2) / np.maximum(1.0, np.abs(q2))
        if np.any(gap > _LIMIT_RTOL) or not np.all(np.isfinite(q1)):
            raise UnsupportedLimitError(
                "force limit at I=0 did not stabilize under step halving "
                "for custom rate %r" % (self.label,)
            )
        return q1

    # -- hypothesis checking --------------------------------------------------

    def check_hypotheses(self, S_max: float, I_max: float, n_grid: int = 64) -> "HypothesisReport":
        """Certify the structural hypotheses on an n_grid x n_grid lattice.

        This is a necessary-condition check on finitely many points of
        [0, S_max] x [0, I_max], not a proof over the continuum. Checks:

          boundary_zero           F(S, 0) = 0 and F(0, I) = 0
          force_monotone          f nondecreasing in S, nonincreasing in I
                                  (``strict`` flags a strict increase in S)
          force_limit_positive    f(S, 0) finite and > 0 for S > 0
          contact_factorization   f = S * g on interior points
        """
        if not (S_max > 0.0 and I_max > 0.0):
            raise ValueError("S_max and I_max must be positive")
        if n_grid < 8:
            raise ValueError("n_grid must be at least 8")

        S_axis = np.linspace(0.0, float(S_max), n_grid)
        I_axis = np.linspace(0.0, float(I_max), n_grid)
        checks = {}

        # boundary_zero: exact zeros on both axes
        viol = None
        for s in S_axis:
            if self.rate(s, 0.0) != 0.0:
                viol = (float(s), 0.0)
                break
        if viol is None:
            for i in I_axis:
                if self.rate(0.0, i) != 0.0:
                    viol = (0.0, float(i))
                    break
        checks["boundary_zero"] = HypothesisCheck(
            "boundary_zero", viol is None, first_violation=viol
        )

        # interior lattice for the force-based checks
        S_pos = S_axis[1:]
        I_grid, S_grid = np.meshgrid(I_axis, S_pos)  # rows vary S, cols vary I
        try:
            f_grid = np.broadcast_to(
                np.asarray(self.force(S_grid, I_grid), float), S_grid.shape
            )
        except UnsupportedLimitError as exc:
            report_checks = dict(checks)
            for name in ("force_monotone", "force_limit_positive", "contact_factorization"):
                report_checks[name] = HypothesisCheck(name, False, detail=str(exc))
            return HypothesisReport(self.label, n_grid, float(S_max), float(I_max), report_checks)

        # force_monotone: nondecreasing along S, nonincreasing along I
        tol = 1e-12 * np.maximum(1.0, np.abs(f_grid))
        dS_steps = np.diff(f_grid, axis=0)
        dI_steps = np.diff(f_grid, axis=1)
        viol = None
        bad_S = dS_steps < -tol[1:, :]
        bad_I = dI_steps > tol[:, :-1]
        if np.any(bad_S):
            r, c = np.argwhere(bad_S)[0]
            viol = (float(S_pos[r + 1]), float(I_axis[c]))
        elif np.any(bad_I):
            r, c = np.argwhere(bad_I)[0]
            viol = (float(S_pos[r]), float(I_axis[c + 1]))
        strict = bool(np.all(dS_steps > 0.0))
        checks["force_monotone"] = HypothesisCheck(
            "force_monotone", viol is None, strict=strict, first_violation=viol
        )

        # force_limit_positive: f(S, 0) > 0 off the S = 0 corner
        f_at_zero = f_grid[:, 0]
        viol = None
        bad = ~(np.isfinite(f_at_zero) & (f_at_zero > 0.0))
        if np.any(bad):
            viol = (float(S_pos[np.argmax(bad)]), 0.0)
        checks["force_limit_positive"] = HypothesisCheck(
            "force_limit_positive", viol is None, first_violation=viol
        )

        # contact_factorization: f = S*g within roundoff on interior points
        g_grid = np.broadcast_to(
            np.asarray(self.contact_factor(S_grid, I_grid), float), S_grid.shape
        )
        gap = np.abs(f_grid - S_grid * g_grid)
        bad = gap > 1e-12 * np.maximum(1.0, np.abs(f_grid))
        viol = None
        if np.any(bad):
            r, c = np.argwhere(bad)[0]
            viol = (float(S_pos[r]), float(I_axis[c]))
        checks["contact_factorization"] = HypothesisCheck(
            "contact_factorization", viol is None, first_violation=viol
        )

        return HypothesisReport(self.label, n_grid, float(S_max), float(I_max), checks)


def _check_coefficients(beta: float, zeta: float) -> None:
    if not (np.isfinite(beta) and beta > 0.0):
        raise ValueError("beta must be finite and > 0")
    if not (np.isfinite(zeta) and zeta >= 0.0):
        raise ValueError("zeta must be finite and >= 0")


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    strict: Optional[bool] = None
    first_violation: Optional[tuple] = None
    detail: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    """Per-hypothesis outcomes of a lattice check."""

    spec_label: str
    n_grid: int
    S_max: float
    I_max: float
    checks: dict

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks.values())
