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

Stage states dip below 0 once a strain dies out, since a stage input is an
extrapolation and not an accepted state. A custom rate that raises
``DomainError`` for I < 0 fails every such stage, and each failed stage
rejects its step and cuts the step size fivefold. The run still completes
and lands on the same state, but it takes many more steps: example 6.1 with
a strain-1 rate that refuses I < 0 takes 2257 accepted and 1957 rejected
steps, against 395 and 2 with the built-in rate. Its finite-difference
partials never probe I < 0, so that example also analyzes with such a rate.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UnsupportedLimitError, _require_grid, _require_positive

# Step scale for one-coordinate finite differences on custom rates.
_FD_EPS = math.sqrt(np.finfo(float).eps)

# Probe size for the F(S, I)/I limit at I = 0, of custom rates and in the limit check.
_LIMIT_DELTA = 1e-8
_LIMIT_RTOL = 1e-4


def _require_finite(*values) -> None:
    for v in values:
        # math.isfinite on a scalar is about a hundred times cheaper than numpy
        ok = math.isfinite(v) if isinstance(v, (float, np.floating)) else np.all(np.isfinite(v))
        if not ok:
            raise DomainError("incidence evaluated at a non-finite input")


def _difference(g, x):
    """g'(x) by the central difference with step h = _FD_EPS*max(1, |x|), or where x < h
    (it would probe below 0) by the second-order one-sided difference on [x, x + 2h]."""
    h = _FD_EPS * np.maximum(1.0, np.abs(x))
    low = x < h
    up = g(x + h)
    down = g(np.where(low, x, x - h)[()])  # [()] makes a scalar of a 0-d result
    return np.where(low, 4.0 * up - 3.0 * down - g(x + 2.0 * h), up - down)[()] / (2.0 * h)


# One formula serves Python floats, with no numpy call, and numpy arrays: these
# two go by the argument's type, and IEEE + - * / and sqrt round alike on both.
def _choose(cond, a, b):
    """a where cond holds, else b: the one taken for a scalar bool, np.where
    elementwise otherwise, a scalar for a 0-d result."""
    return (a if cond else b) if isinstance(cond, (bool, np.bool_)) else np.where(cond, a, b)[()]


def _sqrt(x):
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _saturated_s_susceptible(b, z, I, target, c):
    """The positive root of c*z*S**2 + lin*S - target = 0, lin = b + c - target*z,
    in the form that subtracts no nearly equal terms for the sign of lin."""
    a, lin = c * z, b + c - target * z + 0.0 * I
    root = _sqrt(lin * lin + 4.0 * a * target)
    positive = lin >= 0.0
    num, den = _choose(positive, 2.0 * target, root - lin), _choose(positive, lin + root, 2.0 * a)
    # num > 0, so den = 0 means no root: inf, without a division by 0
    none = den == 0.0
    return _choose(none, math.inf, num) / _choose(none, 1.0, den)


# Each built-in family's saturation, as text over (b, z, S, I) for (beta,
# zeta, S, I): it divides the rate b*S*I, the force b*S and the contact
# factor b alike. The integrator's kernel writes the rate into its stages.
_SATURATION = {
    "bilinear": "",
    "saturated_s": " / (1.0 + z * S)",
    "saturated_i2": " / (1.0 + z * I * I)",
}
_RATE_TEXTS = {family: "b * S * I" + saturation for family, saturation in _SATURATION.items()}


# The complex step h: Im F(x + i*h)/h is dF/dx exact to rounding for a text of +, -, * and /
# (Squire and Trapp 1998). A power of two divides exactly, and h*h underflows to 0. Both
# arguments are complex128 for every input: float32 gives complex64, in which h underflows.
_STEP = 2.0 ** -600

# Each built-in family's closed forms, each a function of (beta, zeta, S, I),
# and ``susceptible`` of (beta, zeta, I, target, c): the S > 0 with
# force(S, I) + c*S = target (c >= 0, target > 0), inf where none exists.
_ClosedForms = namedtuple("_ClosedForms", "rate d_rate_dS d_rate_dI force contact_factor susceptible")


def _forms(family, susceptible) -> _ClosedForms:
    """The family's rate, force and contact factor compiled from their texts,
    the complex-step dF/dS and dF/dI of its rate, and ``susceptible``. A term
    0.0 * S or 0.0 * I broadcasts a form that is constant in that argument
    against it, so array shapes survive."""
    saturation = _SATURATION[family]
    texts = dict(rate=_RATE_TEXTS[family], force="b * S" + saturation, contact_factor="b" + saturation)
    forms = {
        name: eval("lambda b, z, S, I: " + text + "".join(" + 0.0 * " + x for x in "SI" if x not in text))
        for name, text in texts.items()
    }
    rate = forms["rate"]
    return _ClosedForms(
        d_rate_dS=lambda b, z, S, I: rate(b, z, np.complex128(S) + 1j * _STEP, np.complex128(I)).imag / _STEP,
        d_rate_dI=lambda b, z, S, I: rate(b, z, np.complex128(S), np.complex128(I) + 1j * _STEP).imag / _STEP,
        susceptible=susceptible,
        **forms,
    )


# A new family needs its saturation text and ``susceptible``.
_CLOSED_FORMS = {
    "bilinear": _forms("bilinear", lambda b, z, I, target, c: target / (b + c + 0.0 * I)),
    "saturated_s": _forms("saturated_s", _saturated_s_susceptible),
    "saturated_i2": _forms("saturated_i2", lambda b, z, I, target, c: target / (b / (1.0 + z * I * I) + c)),
}
BUILT_IN_FAMILIES = tuple(_CLOSED_FORMS)


@dataclass(frozen=True)
class IncidenceSpec:
    """Immutable description of one strain's incidence rate.

    Use the classmethod constructors; the raw constructor validates the
    family, a built-in family's coefficients (bilinear takes no zeta) and
    that a custom rate is callable and its partials None or callable.
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
            _require_positive("incidence coefficients", dict(beta=self.beta, zeta=self.zeta), zero_ok=("zeta",))
            if self.family == "bilinear" and self.zeta != 0.0:
                raise ValueError("bilinear incidence takes no zeta")
        elif self.family != "custom":
            raise ValueError("unknown incidence family %r" % (self.family,))
        elif not callable(self.rate_fn):
            raise ValueError("a custom incidence rate needs a callable rate_fn")
        else:
            partials = dict(d_rate_dS_fn=self.d_rate_dS_fn, d_rate_dI_fn=self.d_rate_dI_fn)
            bad = [name for name, fn in partials.items() if not (fn is None or callable(fn))]
            if bad:
                raise ValueError("a custom incidence partial must be None or callable: " + ", ".join(bad))

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
        finite differences that probe no negative argument. The force at
        I = 0, which R reads, is 2*q(d/2) - q(d) for q(d) = F(S, d)/d at
        d = 1e-8, or ``UnsupportedLimitError`` where the probes disagree.

        The integrator's stage inputs can be slightly negative once a strain
        dies out. An evaluator that raises ``DomainError`` there rejects each
        such stage; the run completes but takes many more steps (see the
        module docstring), so prefer one that stays finite for small I < 0.
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
        """dF/dS: for a built-in family the complex step of its rate text,
        else the given partial or ``_difference``."""
        forms = self._checked_forms(S, I)
        if forms is not None:
            return forms.d_rate_dS(self.beta, self.zeta, S, I)
        if self.d_rate_dS_fn is not None:
            return self.d_rate_dS_fn(S, I)
        return _difference(lambda v: self.rate_fn(v, I), S)

    def d_rate_dI(self, S, I):
        """dF/dI, as ``d_rate_dS``; at I = 0 this is the force limit for the
        built-in families."""
        forms = self._checked_forms(S, I)
        if forms is not None:
            return forms.d_rate_dI(self.beta, self.zeta, S, I)
        if self.d_rate_dI_fn is not None:
            return self.d_rate_dI_fn(S, I)
        return _difference(partial(self.rate_fn, S), I)

    def complex_rate(self, S, I) -> Callable:
        """F(s, i) for complex (s, i) near (S, I): a built-in family's text, unchecked, or a custom
        rate's linearisation there, so that its evaluator sees no complex input."""
        if self.family in _CLOSED_FORMS:
            return partial(_CLOSED_FORMS[self.family].rate, self.beta, self.zeta)
        F, dS, dI = self.rate(S, I), self.d_rate_dS(S, I), self.d_rate_dI(S, I)
        return lambda s, i: F + dS * (s - S) + dI * (i - I)

    def bound_forms(self) -> _ClosedForms:
        """The family's closed forms as functions of (S, I) with no input check,
        for loops that check their outputs. A custom spec gets its checked
        evaluators back and no ``susceptible``.
        """
        forms = _CLOSED_FORMS.get(self.family)
        if forms is None:
            checked = (self.rate, self.d_rate_dS, self.d_rate_dI, self.force, self.contact_factor)
            return _ClosedForms(*checked, None)
        return _ClosedForms._make(partial(form, self.beta, self.zeta) for form in forms)

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
        """lim F(S, I)/I as I -> 0+: the extrapolate 2*q(d/2) - q(d) of the probes,
        exact for F quadratic in I, where they agree under the halving."""
        q1, q2 = self._limit_probes(S)
        gap = np.abs(q1 - q2) / np.maximum(1.0, np.abs(q2))
        if np.any(gap > _LIMIT_RTOL) or not np.all(np.isfinite(q1)):
            raise UnsupportedLimitError(
                "force limit at I=0 did not stabilize under step halving "
                "for custom rate %r" % (self.label,)
            )
        return 2.0 * q2 - q1

    def _limit_probes(self, S):
        """F(S, d)/d at d = _LIMIT_DELTA and d/2, the probes of the I -> 0+ force limit."""
        return tuple(self.rate(S, d) / d for d in (_LIMIT_DELTA, _LIMIT_DELTA / 2.0))

    # -- hypothesis checking --------------------------------------------------

    def check_hypotheses(self, S_max: float, I_max: float, n_grid: int = 64) -> "HypothesisReport":
        """Certify the structural hypotheses on an n_grid x n_grid lattice,
        n_grid an integer >= 8.

        This is a necessary-condition check on finitely many points of
        [0, S_max] x [0, I_max], not a proof over the continuum. Checks:

          boundary_zero           F(S, 0) = 0 and F(0, I) = 0
          force_monotone          f nondecreasing in S, nonincreasing in I
                                  (``strict`` flags a strict increase in S)
          force_limit_positive    lim f(S, I) as I -> 0+ finite and > 0 for S > 0
          contact_factorization   f = S * g on interior points
        """
        _require_positive("hypothesis-check bounds", dict(S_max=S_max, I_max=I_max))
        _require_grid(n_grid, "n_grid", 8)

        S_axis = np.linspace(0.0, float(S_max), n_grid)
        I_axis = np.linspace(0.0, float(I_max), n_grid)
        checks = {}

        # boundary_zero: exact zeros on both axes
        axes = [(s, 0.0) for s in S_axis] + [(0.0, i) for i in I_axis]
        viol = next((tuple(map(float, pt)) for pt in axes if self.rate(*pt) != 0.0), None)
        checks["boundary_zero"] = HypothesisCheck("boundary_zero", viol is None, first_violation=viol)

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
        viol = _first_violation(dS_steps < -tol[1:, :], S_pos[1:], I_axis)
        if viol is None:
            viol = _first_violation(dI_steps > tol[:, :-1], S_pos, I_axis[1:])
        strict = bool(np.all(dS_steps > 0.0))
        checks["force_monotone"] = HypothesisCheck(
            "force_monotone", viol is None, strict=strict, first_violation=viol
        )

        # force_limit_positive: off the S = 0 corner the force at I = 0 must exceed
        # the step-halving change; for F = S*I**2, whose limit is 0, q(d) reads S*d.
        q1, q2 = self._limit_probes(S_pos)
        not_positive = ~(f_grid[:, 0] > np.abs(q1 - q2))
        viol = _first_violation(not_positive[:, None], S_pos, I_axis[:1])
        checks["force_limit_positive"] = HypothesisCheck(
            "force_limit_positive", viol is None, first_violation=viol
        )

        # contact_factorization: f = S*g within roundoff on interior points
        g_grid = np.broadcast_to(
            np.asarray(self.contact_factor(S_grid, I_grid), float), S_grid.shape
        )
        gap = np.abs(f_grid - S_grid * g_grid)
        viol = _first_violation(gap > 1e-12 * np.maximum(1.0, np.abs(f_grid)), S_pos, I_axis)
        checks["contact_factorization"] = HypothesisCheck(
            "contact_factorization", viol is None, first_violation=viol
        )

        return HypothesisReport(self.label, n_grid, float(S_max), float(I_max), checks)


def _first_violation(bad, S_values, I_values) -> Optional[tuple]:
    """(S, I) at the first True of ``bad`` (rows S_values, columns I_values), or None."""
    hits = np.argwhere(bad)
    if hits.size == 0:
        return None
    r, c = hits[0]
    return (float(S_values[r]), float(I_values[c]))


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
