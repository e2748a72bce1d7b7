"""Equilibrium solvers with residual certificates.

Four equilibrium kinds exist:

    E0  disease free, closed form
    E1  strain 1 only, root of a scalar balance G(I1) on (0, Lambda/alpha1]
    E2  strain 2 only, roots of a scalar balance H(I2) on (0, Lambda/alpha2]
    E3  coexistence, roots of a scalar balance psi(I2) on (0, Lambda/alpha2]

E1, E2 and E3 share one root finder. It evaluates the balance on SCAN_NODES
cells at once and brackets every sign change between neighbouring finite
values. It then narrows all brackets together, each round cutting every
bracket into SECTIONS parts, to a width of BISECT_WIDTH times the scan
range, and polishes each root with a secant step through its bracket ends.

For E3 the strain-2 balance f2(S, I2) + k*r*S/(mu + k*I2) = alpha2 fixes S
at each I2 (its left side rises strictly in S from -alpha2 at S = 0),
V1 = r*S/(mu + k*I2) follows, and the summed balance gives I1 linearly.
psi(I2) = f1(S, I1) - alpha1 then vanishes exactly at interior equilibria.
I1 reaches 0 at the E2 levels; psi is continued past them with I1 held at
0, so that roots next to them are bracketed, and roots with I1 <= 0 are
dropped.
The reduction is in I2 rather than S because with r*k = 0 and an f2 that
ignores I2, the strain-2 balance no longer depends on I2.

``solve_all`` runs every solver once and fills in the invasion numbers.
Every returned equilibrium is certified: the max-norm of the vector field at
the returned point must be below RESIDUAL_TOL or the solver raises instead of
returning a bad point.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import SolverError
from .incidence import IncidenceSpec
from .model import (
    RESIDUAL_TOL,
    ModelParams,
    State,
    Thresholds,
    invasion_numbers,
    residual as field_residual,
    strain1_threshold,
    strain2_threshold,
    thresholds,
)

#: relative lower end of the scan; the E1 and E2 balances vanish at 0
BRACKET_EPSILON = 1e-9

#: relative bracket width at which narrowing stops and the secant polish runs
BISECT_WIDTH = 1e-12

#: sign-change scan resolution shared by every balance
SCAN_NODES = 4096

#: equal parts each bracket is cut into per narrowing round
SECTIONS = 64

#: iteration cap of the safeguarded Newton solve for S in the E3 reduction
_S_ITERATIONS = 100


@dataclass(frozen=True)
class ExistenceCondition:
    """One threshold condition backing an equilibrium's existence."""

    name: str
    value: float
    satisfied: bool


@dataclass(frozen=True)
class Equilibrium:
    kind: str  # one of E0, E1, E2, E3
    point: State
    residual: float
    existence: tuple = ()
    multiplicity_note: str = ""


def disease_free(
    p: ModelParams,
    inc1: Optional[IncidenceSpec] = None,
    inc2: Optional[IncidenceSpec] = None,
) -> Equilibrium:
    """Closed-form disease-free equilibrium (Lambda/lam, r*Lambda/(mu*lam), 0, 0).

    When the incidence specs are supplied the residual is the full vector
    field norm; otherwise it uses the closed form, which is exact because
    F(S, 0) = 0.
    """
    point = State(p.susceptible_cap, p.vaccinated_cap, 0.0, 0.0)
    if inc1 is not None and inc2 is not None:
        res = field_residual(p, inc1, inc2, point)
    else:
        res = max(
            abs(p.Lambda - p.lam * point.S),
            abs(p.r * point.S - p.mu * point.V1),
        )
    return _certified(Equilibrium("E0", point, float(res)))


# -- strain 1 ----------------------------------------------------------------


def strain1_balance(p: ModelParams, inc1: IncidenceSpec, I1):
    """G(I1) = F1(S(I1), I1) - alpha1*I1 with S(I1) = (Lambda - alpha1*I1)/lam.

    Positive roots of G are the strain-1-only equilibria. G(0) = 0 exactly
    and G(Lambda/alpha1) = -Lambda.
    """
    S = (p.Lambda - p.alpha1 * I1) / p.lam
    return inc1.rate(S, I1) - p.alpha1 * I1


def solve_strain1(p: ModelParams, inc1: IncidenceSpec) -> Optional[Equilibrium]:
    """Unique strain-1-only equilibrium, present if and only if R1 > 1."""
    _, R1 = strain1_threshold(p, inc1)
    condition = ExistenceCondition("R1 > 1", R1, R1 > 1.0)
    if R1 <= 1.0:
        return None

    roots = _roots(lambda x: strain1_balance(p, inc1, x), p.Lambda / p.alpha1)
    if not roots.size:
        raise SolverError(
            "strain-1 balance shows no sign change at scan resolution %d although "
            "R1 = %.6g > 1" % (SCAN_NODES, R1)
        )
    I1 = float(roots[0])
    S = (p.Lambda - p.alpha1 * I1) / p.lam
    V1 = p.r * S / p.mu
    point = State(S, V1, I1, 0.0)
    F1 = float(inc1.rate(S, I1))
    res = max(
        abs(p.Lambda - F1 - p.lam * S),  # F2(S, 0) = 0
        abs(p.r * S - p.mu * V1),
        abs(F1 - p.alpha1 * I1),
    )
    return _certified(Equilibrium("E1", point, res, (condition,)))


# -- strain 2 ----------------------------------------------------------------


def strain2_coordinates(p: ModelParams, I2):
    """(S, V1) consistent with a strain-2-only equilibrium at infection level I2."""
    S = (p.Lambda - p.alpha2 * I2) * (p.mu + p.k * I2) / (p.lam * p.mu + p.mu * p.k * I2)
    V1 = p.r * S / (p.mu + p.k * I2)
    return S, V1


def strain2_balance(p: ModelParams, inc2: IncidenceSpec, I2):
    """H(I2) = F2(S(I2), I2) + k*I2*V1(I2) - alpha2*I2, vanishing at equilibria."""
    S, V1 = strain2_coordinates(p, I2)
    return inc2.rate(S, I2) + p.k * I2 * V1 - p.alpha2 * I2


def strain2_discriminant(p: ModelParams) -> float:
    """Sign classifier for the root structure of the strain-2 balance.

    Negative values mean a unique positive root is expected when R2 > 1;
    positive values confine multiple roots to an explicit interval.
    """
    return -p.alpha2 * p.r * p.mu - p.alpha2 * p.mu * p.mu + p.k * p.Lambda * p.r


def solve_strain2(p: ModelParams, inc2: IncidenceSpec) -> List[Equilibrium]:
    """All strain-2-only equilibria, found by the shared scan-bracket-polish pass.

    Returns an empty list when R2 <= 1. Raises SolverError when R2 > 1 but
    the scan resolution shows no sign change, since a root must exist.
    """
    _, R2 = strain2_threshold(p, inc2)
    condition = ExistenceCondition("R2 > 1", R2, R2 > 1.0)
    if R2 <= 1.0:
        return []

    hi = p.Lambda / p.alpha2
    roots = _roots(lambda x: strain2_balance(p, inc2, x), hi)
    if not roots.size:
        raise SolverError(
            "strain-2 balance shows no sign change at scan resolution %d "
            "although R2 = %.6g > 1" % (SCAN_NODES, R2)
        )

    d = strain2_discriminant(p)
    if d < 0.0:
        structure = "discriminant %.6g < 0: unique positive root expected" % d
    elif d > 0.0:
        L = (
            -p.r * p.alpha2
            - p.alpha2 * p.mu
            + math.sqrt(p.r * p.alpha2 * (p.r * p.alpha2 + p.alpha2 * p.mu + p.k * p.Lambda))
        ) / (p.alpha2 * p.k)
        structure = (
            "discriminant %.6g > 0: at most one root expected in [%.6g, %.6g]"
            % (d, L, hi)
        )
    else:
        structure = "discriminant is exactly 0"

    out = []
    for I2 in roots.tolist():
        S, V1 = strain2_coordinates(p, I2)
        point = State(S, V1, 0.0, I2)
        F2 = float(inc2.rate(S, I2))
        res = max(
            abs(p.Lambda - F2 - p.lam * S),  # F1(S, 0) = 0
            abs(p.r * S - (p.mu + p.k * I2) * V1),
            abs(F2 + p.k * I2 * V1 - p.alpha2 * I2),
        )
        dF2_dS = float(inc2.d_rate_dS(S, I2))
        note = "%s; found %d root(s) at scan resolution %d; " % (
            structure,
            roots.size,
            SCAN_NODES,
        )
        note += "auxiliary uniqueness flag dF2/dS <= I2 %s (dF2/dS = %.6g, I2 = %.6g)" % (
            "holds" if dF2_dS <= I2 else "fails",
            dF2_dS,
            I2,
        )
        out.append(_certified(Equilibrium("E2", point, res, (condition,), note)))
    return out


# -- coexistence -------------------------------------------------------------


def coexistence_coordinates(p: ModelParams, inc2: IncidenceSpec, I2):
    """(S, V1, I1) of the interior equilibrium candidate at infection level I2.

    S solves f2(S, I2) + k*r*S/(mu + k*I2) = alpha2 on [0, S0] by Newton's
    method from S = 0, safeguarded by the bracket that each iterate updates;
    S is NaN where the left side stays below alpha2 up to S0, since every
    equilibrium has S <= S0. I1 comes from the summed S, I1 and I2 balances
    and may be negative.
    """
    I2 = np.asarray(I2, float)
    c = p.k * p.r / (p.mu + p.k * I2)

    def g(S):
        return inc2.force(S, I2) + c * S - p.alpha2

    lo = np.zeros_like(I2)
    hi = np.full_like(I2, p.susceptible_cap)
    feasible = g(hi) >= 0.0
    S = np.where(feasible, lo, hi)  # an infeasible node stays at S0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_S_ITERATIONS):
            gs = g(S)
            lo = np.where(gs < 0.0, S, lo)
            hi = np.where(gs > 0.0, S, hi)
            step = S - gs / (inc2.d_rate_dS(S, I2) / I2 + c)
            new = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
            moved = np.max(np.abs(new - S), initial=0.0)
            S = new
            if moved <= 4.0 * np.finfo(float).eps * p.susceptible_cap:
                break
    S = np.where(feasible, S, np.nan)
    V1 = p.r * S / (p.mu + p.k * I2)
    I1 = (p.Lambda - p.lam * S - p.alpha2 * I2 + p.k * I2 * V1) / p.alpha1
    return S, V1, I1


def solve_coexistence(
    p: ModelParams,
    inc1: IncidenceSpec,
    inc2: IncidenceSpec,
    th: Thresholds,
) -> List[Equilibrium]:
    """All interior equilibria with both strains present, by increasing I2.

    Roots of psi(I2) = f1(S, I1) - alpha1 with (S, V1, I1) from
    ``coexistence_coordinates`` and I1 > 0; psi is undefined where no S
    exists. I1 falls to 0 exactly at an E2 level, where psi equals
    alpha1*(R1_invasion - 1); past it psi is continued with I1 held at 0, so
    a root next to that boundary is still bracketed by the scan, and roots
    with I1 <= 0 are then dropped. ``th`` carries the invasion numbers, as
    ``solve_all`` fills them in; each root records the known ones as
    existence conditions. When both exceed 1 an interior root must exist, so
    finding none raises SolverError.
    """

    def psi(I2):
        S, _, I1 = coexistence_coordinates(p, inc2, I2)
        feasible = np.isfinite(S)
        S, I1 = np.where(feasible, S, 0.0), np.where(feasible, np.maximum(I1, 0.0), 0.0)
        return np.where(feasible, inc1.force(S, I1) - p.alpha1, np.nan)

    r2_inv, r1_inv = th.R2_invasion, th.R1_invasion
    conditions = tuple(
        ExistenceCondition(name, value, value > 1.0)
        for name, value in (("R2_invasion > 1", r2_inv), ("R1_invasion > 1", r1_inv))
        if value is not None
    )

    # every equilibrium has S <= S0, and the strain-2 balance at S0 falls in
    # I2 from alpha2*(R2 - 1); past its last root no S solves it, so the scan
    # ends there and spends its nodes where psi is defined
    S0 = p.susceptible_cap
    hi = p.Lambda / p.alpha2
    cap = _roots(lambda x: inc2.force(S0, x) + p.k * p.r * S0 / (p.mu + p.k * x) - p.alpha2, hi)
    roots = _roots(psi, cap[-1] if cap.size else hi)
    S, V1, I1 = coexistence_coordinates(p, inc2, roots)
    interior = I1 > 0.0
    if not interior.any() and len(conditions) == 2 and all(c.satisfied for c in conditions):
        raise SolverError(
            "coexistence balance shows no sign change with I1 > 0 at scan resolution %d "
            "although R2_invasion = %.6g > 1 and R1_invasion = %.6g > 1"
            % (SCAN_NODES, r2_inv, r1_inv)
        )
    out = []
    for point in map(State, *(x[interior].tolist() for x in (S, V1, I1, roots))):
        res = field_residual(p, inc1, inc2, point)
        out.append(_certified(Equilibrium("E3", point, res, conditions)))
    return out


# -- every equilibrium at once -----------------------------------------------


@dataclass(frozen=True)
class EquilibriumSet:
    """Every equilibrium of one parameter set and the thresholds behind them.

    ``thresholds`` carries the invasion numbers, taken at E1 and at the
    E2 root of smallest I2. ``coexistence_error`` holds the message of a
    failed E3 solve, which leaves ``E3`` empty.
    """

    thresholds: Thresholds
    E0: Equilibrium
    E1: Optional[Equilibrium]
    E2: Tuple[Equilibrium, ...]
    E3: Tuple[Equilibrium, ...]
    coexistence_error: str = ""

    @property
    def all(self) -> Tuple[Equilibrium, ...]:
        """E0, E1 when present, then the E2 and E3 roots."""
        return (self.E0,) + ((self.E1,) if self.E1 is not None else ()) + self.E2 + self.E3


def solve_all(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec) -> EquilibriumSet:
    """Solve for every equilibrium kind once and fill in the invasion numbers."""
    e1 = solve_strain1(p, inc1)
    e2 = tuple(solve_strain2(p, inc2))
    r2_inv, r1_inv = invasion_numbers(p, inc1, inc2, e1, e2[0] if e2 else None)
    th = dataclasses.replace(thresholds(p, inc1, inc2), R2_invasion=r2_inv, R1_invasion=r1_inv)
    try:
        e3, error = tuple(solve_coexistence(p, inc1, inc2, th)), ""
    except SolverError as exc:
        e3, error = (), str(exc)
    return EquilibriumSet(th, disease_free(p, inc1, inc2), e1, e2, e3, error)


# -- shared helpers ----------------------------------------------------------


def _roots(fn, hi: float) -> np.ndarray:
    """Every root of fn on (0, hi] that the scan brackets, in increasing order.

    fn maps an array of abscissae to balance values, NaN where the balance
    is undefined. The scan starts at BRACKET_EPSILON*hi and has SCAN_NODES
    cells; a cell brackets a root when both ends are finite and exactly one
    is positive. Each round cuts every bracket into SECTIONS equal parts in
    one call of fn and keeps the first part with a sign change, until the
    brackets are narrower than BISECT_WIDTH*hi (bisection with SECTIONS
    parts in place of two).
    Then the secant point of each final bracket replaces its midpoint where
    it gives the smaller |fn|.
    """
    x = np.linspace(0.0, hi, SCAN_NODES + 1)
    x[0] = BRACKET_EPSILON * hi
    f = fn(x)
    finite = np.isfinite(f)
    cells = np.nonzero(finite[:-1] & finite[1:] & ((f[:-1] > 0.0) != (f[1:] > 0.0)))[0]
    a, b, fa, fb = x[cells], x[cells + 1], f[cells], f[cells + 1]
    width = BISECT_WIDTH * hi
    cuts = np.linspace(0.0, 1.0, SECTIONS + 1)
    rows = np.arange(a.size)
    while a.size and np.max(b - a) > width:
        t = a[:, None] + (b - a)[:, None] * cuts
        ft = fn(t)
        # first cut whose sign differs from the bracket's left end
        j = np.argmax((ft[:, 1:] > 0.0) != (ft[:, :1] > 0.0), axis=1)
        a, b, fa, fb = t[rows, j], t[rows, j + 1], ft[rows, j], ft[rows, j + 1]

    mid = 0.5 * (a + b)
    secant = a - fa * (b - a) / (fb - fa)
    f_both = fn(np.concatenate([mid, secant]))
    f_mid, f_secant = f_both[: a.size], f_both[a.size:]
    use_secant = np.abs(f_secant) <= np.abs(f_mid)
    roots = np.where(use_secant, secant, mid)
    found = np.isfinite(np.where(use_secant, f_secant, f_mid))
    roots = roots[found]
    # a root on a scan node can close two neighbouring brackets
    return roots[np.diff(roots, prepend=-np.inf) > 10.0 * width]


def _certified(eq: Equilibrium) -> Equilibrium:
    if not (eq.residual < RESIDUAL_TOL):
        raise SolverError(
            "%s solve produced residual %.3e, above the %.0e certificate"
            % (eq.kind, eq.residual, RESIDUAL_TOL)
        )
    return eq
