"""Equilibrium solvers with residual certificates.

Four equilibrium kinds exist:

    E0  disease free, closed form
    E1  strain 1 only, roots of a scalar balance G(I1) on (0, Lambda/alpha1]
    E2  strain 2 only, roots of a scalar balance H(I2) on (0, Lambda/alpha2]
    E3  coexistence, roots of a scalar balance psi(I2) on (0, Lambda/alpha2]

E1, E2 and E3 share one root finder, ``_roots``. It brackets every sign
change of a balance between finite values at the nodes of a scan, and
solves each bracket alone by Brent's zeroin on Python floats (``_zero``;
Brent 1973, Algorithms for Minimization without Derivatives, ch. 4), to
machine precision. The balances evaluate the closed forms unchecked
(``IncidenceSpec.bound_forms``); the certified outputs are checked instead.
One text of each balance runs on Python floats for ``_zero``, with no numpy
call for a built-in row, and on numpy columns for a custom rate's scan: its
branch choices and square roots go by the argument's type
(``incidence._choose``, ``incidence._sqrt``).

For E3 the strain-2 balance f2(S, I2) + k*r*S/(mu + k*I2) = alpha2 fixes S
at each I2 (its left side rises strictly in S from 0 at S = 0; see
``coexistence_coordinates``), V1 = r*S/(mu + k*I2) follows, and the summed
balance gives I1 linearly.
psi(I2) = f1(S, I1) - alpha1 then vanishes exactly at interior equilibria.
I1 reaches 0 at the E2 levels; psi is continued past them with I1 held at
0, so that roots next to them are bracketed, and roots with I1 <= 0 are
dropped. Where no S <= S0 solves the strain-2 balance, S is held at S0:
there lam*S0 = Lambda and k*V1 < alpha2 - f2(S0, I2) leave I1 <= 0, held
at 0, so psi is f1(S0, 0) - alpha1 = alpha1*(R1 - 1), and psi is finite
on the whole range [0, Lambda/alpha2].
The reduction is in I2 rather than S because with r*k = 0 and an f2 that
ignores I2, the strain-2 balance no longer depends on I2.

Where both forces f = F/I are nondecreasing in S and nonincreasing in I
(``force_monotone`` of ``IncidenceSpec.check_hypotheses``; the algebra
proves it for every built-in family), each balance changes sign at most
once on its range (Korobeinikov and Maini 2005, Math. Med. Biol. 22):

- E1: G(I1)/I1 = f1(S, I1) - alpha1 falls, as S = (Lambda - alpha1*I1)/lam
  falls.
- E2: H(I2)/I2 = f2(S, I2) + k*V1 - alpha2, with ``strain2_coordinates``.
  d log S/dI2 = -alpha2/(Lambda - alpha2*I2) + k*r/((mu + k*I2)*(lam + k*I2))
  decreases from the sign of ``strain2_discriminant``, so S rises on (0, L)
  and falls on [L, hi] (L = 0 if the discriminant is <= 0). On (0, L)
  S > S0, where no equilibrium lies (lam*S = Lambda - F1 - F2 <= Lambda),
  so H has no root; on [L, hi] S and V1 = r*S/(mu + k*I2) fall, so H/I2 does.
- psi: the strain-2 balance's left side rises in S and falls in I2, so
  some S <= S0 solves it on an interval of I2 from 0, and S rises with I2
  there. In the summed balance alpha1*I1 = Lambda - lam*S - alpha2*I2 +
  k*r*S*I2/(mu + k*I2), S has a coefficient below -mu, and alpha2 >=
  k*r*S/(mu + k*I2) makes the I2 slope at fixed S <= 0, so I1 falls and
  psi = f1(S, max(I1, 0)) - alpha1 rises. At the interval's end S = S0 and
  I1 <= 0, so psi meets its constant alpha1*(R1 - 1) past the interval
  continuously, and stays nondecreasing.

So a built-in balance needs no scan: the two ends of its range are its
one cell. E1 and E2 take G/I and H/I from I = 0, where they are
alpha*(R - 1) > 0 from the force at (S0, V10) that R reads, so a root
however close to 0, as for R just above 1, is bracketed; where R <= 1
they start at alpha*(R - 1) <= 0 and fall, so they have no root and are
not run. Custom rates, whose monotonicity is not proved
(``check_hypotheses`` checks a grid), are scanned on SCAN_NODES cells, E1
and E2 in the same form from I = 0, whatever R is: a force that rises in
I can give roots below the threshold (a backward bifurcation). A root at
I = 0, which is E0, is dropped.
The E3 scan starts at I2 = 0 too: E3 branches off E1 there as
R2_invasion passes 1, so a root however close to 0 is bracketed, and a
root at I2 = 0, which is E1, is dropped.

The hypothesis also gives S <= S0 and V1 <= V10 at every equilibrium, so
psi <= alpha1*(R1 - 1) and the strain-2 balance's left side minus alpha2
is at most alpha2*(R2 - 1): R1 <= 1 or R2 <= 1 leaves no interior
equilibrium, and built-in rows skip the E3 scan there. Custom rates
always scan it.

``solve_all``, the one entry point, solves every kind of one row and
fills in the invasion numbers; ``EquilibriumSet`` gives every root of a
kind by increasing I1 or I2. Every returned equilibrium is certified: the
max-norm of the vector field at the returned point (``model.residual``)
must be below RESIDUAL_TOL or the solver raises instead of returning a
bad point.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import SolverError
from .incidence import BUILT_IN_FAMILIES, IncidenceSpec, _choose
from .model import (
    RESIDUAL_TOL,
    ModelParams,
    State,
    Thresholds,
    invasion_numbers,
    residual as field_residual,
    thresholds,
)

#: scan resolution of custom rates, whose balances may change sign more than once
SCAN_NODES = 4096
_NODES = np.arange(SCAN_NODES + 1.0)

#: halvings of [0, S0] that solve for S in E3 with a custom strain-2 rate
_S_HALVINGS = 52

_EPS = math.ulp(1.0)


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


class ScanStats(NamedTuple):
    """One pass of ``_roots`` on one balance: nodes 0 means the balance never
    ran. Otherwise it is 2, the ends of a built-in balance's range, or
    SCAN_NODES + 1 for a custom rate. ``evaluations`` counts the other
    points, the steps back from a non-finite last node and the ``_zero``
    trials, so the balance ran at nodes + evaluations points."""

    nodes: int = 0
    brackets: int = 0
    evaluations: int = 0


@dataclass(frozen=True)
class SolveStats:
    """Each balance's pass in one solve: G/I1 for E1, H/I2 for E2 and psi
    for E3. For built-in families E1 is (0, 0, 0) where R1 <= 1, E2 where
    R2 <= 1, and E3 where either is."""

    E1: ScanStats
    E2: ScanStats
    E3: ScanStats


class _Row:
    """One (p, inc1, inc2) row, as ``case``: p's values as Python floats under
    the ModelParams names, which the balances read as they would p, and f1
    and f2, the strains' closed forms bound to their coefficients."""

    def __init__(self, p: ModelParams, inc1, inc2):
        self.case = (p, inc1, inc2)
        self.Lambda, self.mu, self.r, self.k = map(float, (p.Lambda, p.mu, p.r, p.k))
        self.lam, self.alpha1, self.alpha2 = map(float, (p.lam, p.alpha1, p.alpha2))
        self.susceptible_cap = float(p.susceptible_cap)
        self.f1, self.f2 = inc1.bound_forms(), inc2.bound_forms()


def _scan_cells(*incs) -> int:
    """The cells of a scan of these strains' balances: one for built-in
    families, whose balances change sign at most once (see the module
    docstring), and SCAN_NODES for custom rates."""
    return 1 if all(inc.family in BUILT_IN_FAMILIES for inc in incs) else SCAN_NODES


def _searched(cells: int) -> str:
    """Where a pass on ``cells`` cells looked for sign changes, as notes and
    messages say it."""
    if cells == 1:
        return "between its range ends (monotone forces allow one sign change)"
    return "at scan resolution %d" % cells


def disease_free(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec) -> Equilibrium:
    """Closed-form disease-free equilibrium (Lambda/lam, r*Lambda/(mu*lam), 0, 0),
    with the vector field norm there as its residual."""
    point = State(p.susceptible_cap, p.vaccinated_cap, 0.0, 0.0)
    return _certified(Equilibrium("E0", point, field_residual(p, inc1, inc2, point)))


# -- one strain only --------------------------------------------------------


def strain1_balance(p: ModelParams, inc1: IncidenceSpec, I1):
    """G(I1) = F1(S(I1), I1) - alpha1*I1 with S(I1) = (Lambda - alpha1*I1)/lam.

    Positive roots of G are the strain-1-only equilibria. G(0) = 0 exactly
    and G(Lambda/alpha1) = -Lambda.
    """
    S = (p.Lambda - p.alpha1 * I1) / p.lam
    return inc1.rate(S, I1) - p.alpha1 * I1


def strain2_coordinates(p: ModelParams, I2):
    """(S, V1) of a strain-2-only equilibrium at infection level I2; (S0, V10) at I2 = 0."""
    S = (p.Lambda - p.alpha2 * I2) / (p.lam + p.k * I2) * ((p.mu + p.k * I2) / p.mu)
    return S, p.r * S / (p.mu + p.k * I2)


def strain2_balance(p: ModelParams, inc2: IncidenceSpec, I2):
    """H(I2) = F2(S(I2), I2) + k*I2*V1(I2) - alpha2*I2, vanishing at equilibria."""
    S, V1 = strain2_coordinates(p, I2)
    return inc2.rate(S, I2) + p.k * I2 * V1 - p.alpha2 * I2


def strain2_discriminant(p: ModelParams) -> float:
    """Sign classifier for the root structure of the strain-2 balance.

    It has the sign of d log S/dI2 at I2 = 0. Negative values mean a unique
    positive root is expected when R2 > 1; positive values confine the roots
    to [L, Lambda/alpha2], where S falls from its maximum at L. Where the
    force is monotone, as for every built-in family, there is at most one
    root in either case (see the module docstring).
    """
    return -p.alpha2 * p.r * p.mu - p.alpha2 * p.mu * p.mu + p.k * p.Lambda * p.r


def _strain_only(row: _Row, R: float, strain: int) -> tuple:
    """The roots of the row's ``strain``-only balance, as a list of
    Equilibrium by increasing I, and the ScanStats of its pass. A built-in
    family has exactly one where R > 1, whatever the sign of
    ``strain2_discriminant``, and none where R <= 1, where it runs no pass;
    a custom rate is scanned whatever R is and may have several, also
    where R <= 1. A root must exist where R > 1, so a pass without one
    raises SolverError there."""
    p, inc1, inc2 = row.case
    cells = _scan_cells(row.case[strain])
    if cells == 1 and not R > 1.0:
        return [], ScanStats()
    hi = row.Lambda / (row.alpha1 if strain == 1 else row.alpha2)
    roots, stats = _roots(lambda I: _per_infective(row, strain, I), 0.0, hi, cells)
    roots = [I for I in roots if I > 0.0]  # a root at I = 0 is E0
    if not roots and R > 1.0:
        raise SolverError(
            "strain-%d balance shows no sign change %s although R%d = %r > 1"
            % (strain, _searched(cells), strain, R)
        )
    condition = ExistenceCondition("R%d > 1" % strain, R, R > 1.0)
    points = [_strain_point(p, strain, I) for I in roots]
    notes = _strain2_notes(p, inc2, points, cells) if strain == 2 else [""] * len(points)
    found = [
        _certified(Equilibrium("E%d" % strain, point, field_residual(p, inc1, inc2, point), (condition,), note))
        for point, note in zip(points, notes)
    ]
    return found, stats


def _per_infective(c: _Row, strain: int, I):
    """The ``strain``-only balance over I, from the force f = F/I: G(I1)/I1 =
    f1(S, I1) - alpha1 or H(I2)/I2 = f2(S, I2) + k*V1 - alpha2, which is
    alpha*(R - 1) at I = 0."""
    if strain == 1:
        return c.f1.force((c.Lambda - c.alpha1 * I) / c.lam, I) - c.alpha1
    S, V1 = strain2_coordinates(c, I)
    return c.f2.force(S, I) + c.k * V1 - c.alpha2


def _strain_point(p: ModelParams, strain: int, I: float) -> State:
    """The strain-only equilibrium of ``strain`` at its infection level I."""
    if strain == 1:
        S = (p.Lambda - p.alpha1 * I) / p.lam
        return State(S, p.r * S / p.mu, I, 0.0)
    S, V1 = strain2_coordinates(p, I)
    return State(S, V1, 0.0, I)


def _strain2_notes(p: ModelParams, inc2: IncidenceSpec, points, cells: int) -> list:
    """Each E2 root's note: the root structure that ``strain2_discriminant``
    predicts, the root count and where the pass on ``cells`` cells looked
    for it, and the auxiliary uniqueness flag dF2/dS <= I2.
    Where the roots break the predicted uniqueness, the note says so in
    place of the flag."""
    d = strain2_discriminant(p)
    if d < 0.0:
        structure, covered = "discriminant %.6g < 0: unique positive root expected" % d, len(points)
    elif d > 0.0:
        L = (
            -p.r * p.alpha2
            - p.alpha2 * p.mu
            + math.sqrt(p.r * p.alpha2 * (p.r * p.alpha2 + p.alpha2 * p.mu + p.k * p.Lambda))
        ) / (p.alpha2 * p.k)
        hi = p.Lambda / p.alpha2
        structure = "discriminant %.6g > 0: at most one root expected in [%.6g, %.6g]" % (d, L, hi)
        covered = sum(L <= pt.I2 <= hi for pt in points)
    else:
        structure, covered = "discriminant is exactly 0", 0
    found = "found %d root(s) %s" % (len(points), _searched(cells))
    notes = []
    for pt in points:
        dF2_dS = float(inc2.d_rate_dS(pt.S, pt.I2))
        values = "(dF2/dS = %.6g, I2 = %.6g)" % (dF2_dS, pt.I2)
        if covered > 1:
            note = "%s, which does not hold for this rate; %s %s" % (structure, found, values)
        else:
            flag = "holds" if dF2_dS <= pt.I2 else "fails"
            note = "%s; %s; auxiliary uniqueness flag dF2/dS <= I2 %s %s" % (structure, found, flag, values)
        notes.append(note)
    return notes


# -- coexistence -------------------------------------------------------------


def coexistence_coordinates(p: _Row, I2):
    """(S, V1, I1) of the interior equilibrium candidates of the row p at
    infection levels I2, a float or an array.

    S solves f2(S, I2) + k*r*S/(mu + k*I2) = alpha2: by the family's closed
    form ``susceptible``, or for a custom rate by _S_HALVINGS halvings of
    [0, S0]. S is held at S0 where no S <= S0 solves it, since every
    equilibrium has S <= S0. I1 comes from the summed S, I1 and I2 balances
    and may be negative; it is <= 0 where S is held.
    """
    c = p.k * p.r / (p.mu + p.k * I2)
    S0 = p.susceptible_cap
    if p.f2.susceptible is not None:
        S = p.f2.susceptible(I2, p.alpha2, c)
        feasible = S <= S0
    else:
        # [S, S + width] holds the root wherever one exists on [0, S0]
        feasible = p.f2.force(S0, I2) + c * S0 >= p.alpha2
        S, width = 0.0 * I2, S0
        for _ in range(_S_HALVINGS):
            width = 0.5 * width
            mid = S + width
            S = _choose(p.f2.force(mid, I2) + c * mid < p.alpha2, mid, S)
        S = S + 0.5 * width
    S = _choose(feasible, S, S0)
    V1 = p.r * S / (p.mu + p.k * I2)
    I1 = (p.Lambda - p.lam * S - p.alpha2 * I2 + p.k * I2 * V1) / p.alpha1
    return S, V1, I1


def _psi(c: _Row, I2):
    """psi(I2) = f1(S, max(I1, 0)) - alpha1 with (S, I1) from
    ``coexistence_coordinates``: alpha1*(R1 - 1) where S is held at S0."""
    S, _, I1 = coexistence_coordinates(c, I2)
    return c.f1.force(S, _choose(I1 > 0.0, I1, 0.0)) - c.alpha1


def _coexistence(row: _Row, th: Thresholds) -> tuple:
    """The row's E3 roots as a tuple of Equilibrium by increasing I2, the
    message of its SolverError or "", and the ScanStats of psi's pass on
    [0, Lambda/alpha2]; the module docstring says which rows skip it.

    A root with I1 <= 0 or at I2 = 0 is dropped. ``th`` carries the
    invasion numbers, and each root records the known ones as existence
    conditions. Where both exceed 1 an interior root must exist, so a pass
    that finds none fails."""
    p, inc1, inc2 = row.case
    cells = _scan_cells(inc1, inc2)
    I2, stats = [], ScanStats()
    if cells > 1 or (th.R1 > 1.0 and th.R2 > 1.0):
        I2, stats = _roots(lambda x: _psi(row, x), 0.0, row.Lambda / row.alpha2, cells)
    points = []
    for x in I2:
        S, V1, I1 = coexistence_coordinates(row, x)
        if I1 > 0.0 and x > 0.0:  # a root at I2 = 0 is E1
            points.append(State(float(S), float(V1), float(I1), x))
    r2_inv, r1_inv = th.R2_invasion, th.R1_invasion
    conditions = tuple(
        ExistenceCondition(name, value, value > 1.0)
        for name, value in (("R2_invasion > 1", r2_inv), ("R1_invasion > 1", r1_inv))
        if value is not None
    )
    try:
        if not points and len(conditions) == 2 and all(c.satisfied for c in conditions):
            raise SolverError(
                "coexistence balance shows no sign change with I1 > 0 %s "
                "although R2_invasion = %.6g > 1 and R1_invasion = %.6g > 1"
                % (_searched(cells), r2_inv, r1_inv)
            )
        e3 = tuple(
            _certified(Equilibrium("E3", point, field_residual(p, inc1, inc2, point), conditions))
            for point in points
        )
    except SolverError as exc:
        return (), str(exc), stats
    return e3, "", stats


# -- every equilibrium at once -----------------------------------------------


@dataclass(frozen=True)
class EquilibriumSet:
    """Every equilibrium of one parameter set and the thresholds behind them.

    E1, E2 and E3 hold every root of their kind, by increasing I1 or I2.
    ``thresholds`` carries the invasion numbers, taken at the first E1 and
    E2 roots. ``coexistence_error`` holds the message of a failed E3 solve,
    which leaves ``E3`` empty. ``stats`` records what the solve did; it
    takes no part in comparisons.
    """

    thresholds: Thresholds
    E0: Equilibrium
    E1: Tuple[Equilibrium, ...]
    E2: Tuple[Equilibrium, ...]
    E3: Tuple[Equilibrium, ...]
    coexistence_error: str = ""
    stats: Optional[SolveStats] = field(default=None, compare=False, repr=False)

    @property
    def all(self) -> Tuple[Equilibrium, ...]:
        """E0, then the E1, E2 and E3 roots."""
        return (self.E0, *self.E1, *self.E2, *self.E3)


def solve_all(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec) -> EquilibriumSet:
    """Solve for every equilibrium kind once and fill in the invasion numbers.
    An E1 or E2 SolverError raises; a failed E3 solve is the set's
    ``coexistence_error``."""
    row = _Row(p, inc1, inc2)
    th = thresholds(p, inc1, inc2)
    e1, e1_stats = _strain_only(row, th.R1, 1)
    e2, e2_stats = _strain_only(row, th.R2, 2)
    r2_inv, r1_inv = invasion_numbers(p, inc1, inc2, *(roots[0] if roots else None for roots in (e1, e2)))
    th = dataclasses.replace(th, R2_invasion=r2_inv, R1_invasion=r1_inv)
    e3, error, e3_stats = _coexistence(row, th)
    stats = SolveStats(e1_stats, e2_stats, e3_stats)
    return EquilibriumSet(th, disease_free(p, inc1, inc2), tuple(e1), tuple(e2), e3, error, stats)


# -- shared helpers ----------------------------------------------------------


def _roots(fn, lo: float, hi: float, cells: int) -> tuple:
    """Every root of fn on [lo, hi] that a scan of ``cells`` cells brackets,
    by increasing x, and the ScanStats of the pass.

    fn maps a float, and for more than one cell an array, to balance values.
    One cell is the two ends of the range, evaluated on floats. More are
    evaluated in one array call, at the nodes j*hi/cells with the first
    moved to lo. The built-in balances are finite on their whole range; a
    custom rate can be NaN or infinite at some nodes, so a non-finite last
    node is stepped back by 2**-52, 2**-51, ... of the range while it stays
    past the node before it (steps from coarse to fine, halving from half
    the range, would pass over the roots next to the end), and a cell
    brackets a root when both ends are finite and exactly one is positive.
    ``_zero`` solves each bracket alone, and a root on a node that ends two
    brackets is returned once.
    """
    evaluations = 0

    def at(x):
        nonlocal evaluations
        evaluations += 1
        return float(fn(x))

    if cells == 1:
        x, f = [lo, hi], [float(fn(lo)), float(fn(hi))]
    else:
        x = (hi / cells) * _NODES[: cells + 1]
        x[0], x[-1] = lo, hi
        f = fn(x)
    for k in range(52, 0, -1):
        end = hi - (hi - lo) * 2.0**-k
        if math.isfinite(f[-1]) or end <= x[-2]:
            break
        x[-1], f[-1] = end, at(end)
    # the cells whose ends differ in sign, found in one array pass on a scan
    changes = [0] if cells == 1 else np.flatnonzero((f[:-1] > 0.0) != (f[1:] > 0.0)).tolist()
    brackets = [
        (float(x[i]), float(x[i + 1]), float(f[i]), float(f[i + 1]))
        for i in changes
        if (f[i] > 0.0) != (f[i + 1] > 0.0) and math.isfinite(f[i]) and math.isfinite(f[i + 1])
    ]
    roots = list(dict.fromkeys([_zero(at, *bracket) for bracket in brackets]))
    return roots, ScanStats(len(x), len(brackets), evaluations)


def _zero(fn, a: float, b: float, fa: float, fb: float) -> float:
    """A root of fn between a and b, whose finite values fa and fb have
    exactly one positive: Brent's zeroin on Python floats.

    It keeps a bracket [b, c] whose end b has the smaller |f|, and takes an
    inverse quadratic or secant step from b where that step stays well
    inside the bracket and shrinks fast enough, and bisects otherwise. It
    stops once the half-width is at most 2*eps*|b|, machine precision, and
    returns the secant point of that final bracket. A custom rate can be
    non-finite inside a bracket whose ends are finite, so a trial whose
    value is not finite is retried halfway back to the last finite point;
    once that is the point itself, the retries look past the failed trial
    instead, halfway on toward the bracket's other end each time. Once that
    is the other end, the bracket can narrow no further and it stops.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 2.0 * _EPS * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            break
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        step = d if abs(d) > tol else math.copysign(tol, m)
        base, trial = a, a + step
        b, fb = trial, fn(trial)
        while not math.isfinite(fb):
            step *= 0.5
            if base + step == a:
                base, step = c, 0.5 * (trial - c)
            b = base + step
            fb = fn(b)
        if b == c:
            b, fb = a, fa
        if b == a:
            break
    return b + fb / (fb - fc) * (c - b)


def _certified(eq: Equilibrium) -> Equilibrium:
    if not (eq.residual < RESIDUAL_TOL):
        raise SolverError(
            "%s solve produced residual %.3e, above the %.0e certificate"
            % (eq.kind, eq.residual, RESIDUAL_TOL)
        )
    return eq
