"""Equilibrium solvers with residual certificates.

Four equilibrium kinds exist:

    E0  disease free, closed form
    E1  strain 1 only, roots of a scalar balance G(I1) on (0, Lambda/alpha1]
    E2  strain 2 only, roots of a scalar balance H(I2) on (0, Lambda/alpha2]
    E3  coexistence, roots of a scalar balance psi(I2) on (0, Lambda/alpha2]

E1, E2 and E3 share one root finder, run on a block of parameter rows at
once. It evaluates each row's balance on SCAN_NODES cells, one row at a
time in arrays of SCAN_NODES + 1 floats (32 KiB, which malloc reuses from
row to row), and brackets every sign change between neighbouring finite
values. It then narrows the brackets of all rows together. Each round cuts
every bracket at its secant point, at cuts that close in on that point by
halvings and at even cuts that leave no part wider than 1/SECTIONS, and
keeps the first part with a sign change; a bracket stops once it is
narrower than BISECT_WIDTH*hi, mostly after two rounds and at the latest
after _ROUNDS. Each root is the secant point of its final bracket, with no
further evaluation. The scans evaluate the closed forms unchecked
(``IncidenceSpec.bound_forms``); the certified outputs are checked instead.

For E3 the strain-2 balance f2(S, I2) + k*r*S/(mu + k*I2) = alpha2 fixes S
at each I2 (its left side rises strictly in S from 0 at S = 0; see
``coexistence_coordinates``), V1 = r*S/(mu + k*I2) follows, and the summed
balance gives I1 linearly.
psi(I2) = f1(S, I1) - alpha1 then vanishes exactly at interior equilibria.
I1 reaches 0 at the E2 levels; psi is continued past them with I1 held at
0, so that roots next to them are bracketed, and roots with I1 <= 0 are
dropped.
The reduction is in I2 rather than S because with r*k = 0 and an f2 that
ignores I2, the strain-2 balance no longer depends on I2.

Every equilibrium has S <= S0 and V1 <= V10. Where both forces f = F/I are
nondecreasing in S and nonincreasing in I (``force_monotone`` of
``IncidenceSpec.check_hypotheses``; the algebra proves it for every built-in
family), this bounds psi by f1(S0, 0) - alpha1 = alpha1*(R1 - 1) and the
strain-2 balance's left side minus alpha2 by alpha2*(R2 - 1), so R1 <= 1 or
R2 <= 1 leaves no interior equilibrium (Korobeinikov and Maini 2005, Math.
Med. Biol. 22). It also makes the strain-2 balance at S0, which ends the E3
scan, nonincreasing in I2 from alpha2*(R2 - 1). So for built-in rows the E3
scans are skipped where R1 <= 1 or R2 <= 1, and the end of the E3 range is
Lambda/alpha2 without a scan where that balance is still positive there.
Custom rates, whose monotonicity is not proved, are always scanned.

``solve_batch`` solves rows in blocks of at most BLOCK_ROWS and fills in the
invasion numbers; each row's result is bit for bit its own one-row batch,
``solve_all``. The per-kind solvers run the same block passes on one row
and, like ``EquilibriumSet``, give every root of a kind by increasing I1
or I2. Every returned equilibrium is certified: the max-norm of the vector
field at the returned point (``model.residual``, with F = 0 for a strain
the solve was not given) must be below RESIDUAL_TOL or the solver raises
instead of returning a bad point.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import SolverError
from .incidence import BUILT_IN_FAMILIES, IncidenceSpec
from .model import (
    RESIDUAL_TOL,
    ModelParams,
    State,
    Thresholds,
    invasion_numbers,
    reproduction_number,
    residual as field_residual,
    thresholds,
)

#: relative lower end of the scan; the E1 and E2 balances vanish at 0
BRACKET_EPSILON = 1e-9

#: relative bracket width below which narrowing stops; fixes _ROUNDS and _FINEST
BISECT_WIDTH = 1e-12

#: sign-change scan resolution shared by every balance
SCAN_NODES = 4096
_NODES = np.arange(SCAN_NODES + 1.0)

#: most rows solved in one pass; bounds the brackets narrowed together
BLOCK_ROWS = 16

#: each narrowing round cuts a bracket into parts at most 1/SECTIONS as wide
SECTIONS = 64

#: narrowing rounds at most: a bracket starts as one scan cell and each round
#: keeps one part of it, so after these it is below BISECT_WIDTH*hi wide
_ROUNDS = next(r for r in itertools.count() if SCAN_NODES * SECTIONS**r * BISECT_WIDTH >= 1)

#: the finest cut beside the secant point lies 2**-_FINEST of the way to a
#: bracket end: a secant point that close takes one scan cell below
#: BISECT_WIDTH*hi in one round
_FINEST = next(k for k in itertools.count() if SCAN_NODES * 2**k * BISECT_WIDTH >= 1)
_SHIFTS = 2.0 ** -np.arange(_FINEST, math.log2(SECTIONS), -1.0)

#: a round cuts a bracket at the fractions t*_SLOPE + _STEP of its width, for
#: the secant point's fraction t: the even cuts j/SECTIONS, then the secant
#: point shifted 2**-k of the way to the left end, itself, and shifted 2**-k
#: of the way to the right end, for k from _FINEST to log2(SECTIONS) + 1;
#: every cut lies in [0, 1] for t in [0, 1]
_SLOPE = np.concatenate([np.zeros(SECTIONS - 1), 1.0 - _SHIFTS[::-1], [1.0], 1.0 - _SHIFTS])
_STEP = np.concatenate([np.arange(1.0, SECTIONS) / SECTIONS, np.zeros(_SHIFTS.size + 1), _SHIFTS])

#: halvings of [0, S0] that solve for S in E3 with a custom strain-2 rate
_S_HALVINGS = 52


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
    """One row's pass on one balance: nodes 0 means the balance never ran,
    and nodes 1 that it ran only at the scan end (E3_cap, positive there).
    ``rounds`` sums over the row's brackets the narrowing rounds of its
    pass, the rounds until the last bracket of the pass is narrow; each
    takes _SLOPE.size points, so the balance ran at nodes +
    rounds*_SLOPE.size points."""

    nodes: int = 0
    brackets: int = 0
    rounds: int = 0


@dataclass(frozen=True)
class SolveStats:
    """What solving one row did: its block's rows and each balance's pass.
    E3_cap finds the end of the E3 range; for built-in families E3_cap and
    E3 are (0, 0, 0) where R1 <= 1 or R2 <= 1, and E3_cap is (1, 0, 0)
    where its end value rules out a root."""

    rows: int
    E1: ScanStats
    E2: ScanStats
    E3_cap: ScanStats
    E3: ScanStats


class _Rows:
    """A block of (p, inc1, inc2) rows as (n, 1) columns named as in
    ModelParams, so the balances broadcast over (n, m) abscissae unchanged;
    f1 and f2 are the strains' closed forms bound to coefficient columns.
    One row keeps Python floats, which broadcast faster than (1, 1) columns.
    ``row`` labels each entry with its block row. Shared by every ``take``:
    ``scans`` holds each block row's ScanStats of E1, E2, E3_cap and E3, and
    ``views`` each block row alone, with its bound forms (a view has none)."""

    def __init__(self, block, data, row, scans, views):
        self.block, self.data, self.row, self.scans, self.views = block, data, row, scans, views
        (self.Lambda, self.mu, self.r, self.k, self.lam, self.alpha1, self.alpha2,
         self.susceptible_cap, self.vaccinated_cap) = data[:9]

    @classmethod
    def of(cls, block) -> "_Rows":
        """The rows must share one incidence family pair: the same built-in
        families, or the same custom specs. A strain may be None."""
        def family(inc):
            return inc.family if inc is not None and inc.family in BUILT_IN_FAMILIES else inc

        if len({(family(inc1), family(inc2)) for _, inc1, inc2 in block}) > 1:
            raise ValueError("batched rows must share one incidence family pair")
        data = [_row_data(*row) for row in block]
        n = len(block)
        scans = np.zeros((n, 4, 3), int)
        views = [cls(block, columns, np.array([i]), scans, None) for i, columns in enumerate(data)]
        columns = data[0] if n == 1 else np.array(data).T.reshape(13, n, 1)
        return cls(block, columns, np.arange(n), scans, views)

    def take(self, idx) -> "_Rows":
        """The entries at ``idx``, repeats allowed."""
        data = self.data if isinstance(self.data, tuple) else self.data[:, idx]
        return _Rows(self.block, data, self.row[idx], self.scans, self.views)

    def one(self, e) -> "_Rows":
        """Entry ``e`` alone: its block row's view, with the Python floats
        that ``of`` gives that row."""
        return self.views[self.row[e]]

    def each(self, column) -> np.ndarray:
        """A column expression's value for each entry, as an (n,) array."""
        return np.broadcast_to(column, (self.row.size, 1))[:, 0]

    @functools.cached_property
    def f1(self):
        return self.block[0][1].bound_forms(self.data[9], self.data[10])

    @functools.cached_property
    def f2(self):
        return self.block[0][2].bound_forms(self.data[11], self.data[12])


def _row_data(p: ModelParams, inc1, inc2) -> tuple:
    """One row's _Rows columns; a strain that is None has coefficients 0."""
    b1, z1 = (0.0, 0.0) if inc1 is None else (inc1.beta, inc1.zeta)
    b2, z2 = (0.0, 0.0) if inc2 is None else (inc2.beta, inc2.zeta)
    return (p.Lambda, p.mu, p.r, p.k, p.lam, p.alpha1, p.alpha2, p.susceptible_cap,
            p.vaccinated_cap, b1, z1, b2, z2)


def disease_free(
    p: ModelParams,
    inc1: Optional[IncidenceSpec] = None,
    inc2: Optional[IncidenceSpec] = None,
) -> Equilibrium:
    """Closed-form disease-free equilibrium (Lambda/lam, r*Lambda/(mu*lam), 0, 0).

    The residual is the vector field norm; a strain whose incidence is not
    supplied has F = 0 there, as F(S, 0) = 0.
    """
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


def solve_strain1(p: ModelParams, inc1: IncidenceSpec) -> List[Equilibrium]:
    """All strain-1-only equilibria, by increasing I1; see ``solve_strain2``.
    Each built-in family gives exactly one when R1 > 1, as G(I1)/I1 falls
    strictly."""
    R1 = reproduction_number(p, inc1, 1, p.susceptible_cap, p.vaccinated_cap)
    return _strain_only(_Rows.of([(p, inc1, None)]), [R1], 1)[0]


def solve_strain2(p: ModelParams, inc2: IncidenceSpec) -> List[Equilibrium]:
    """All strain-2-only equilibria, by increasing I2, found by the shared
    scan-and-narrow pass (``_roots``).

    Returns an empty list when R2 <= 1. Raises SolverError when R2 > 1 but
    the scan resolution shows no sign change, since a root must exist.
    """
    R2 = reproduction_number(p, inc2, 2, p.susceptible_cap, p.vaccinated_cap)
    return _strain_only(_Rows.of([(p, None, inc2)]), [R2], 2)[0]


def _strain_only(rows: _Rows, Rs, strain: int) -> list:
    """The roots of each block row's ``strain``-only balance, as Equilibrium
    lists by increasing I; empty where R = ``Rs[i]`` <= 1. A root must exist
    where R > 1, so a row without one raises."""
    out = [[] for _ in Rs]
    todo = [i for i, R in enumerate(Rs) if R > 1.0]
    if not todo:
        return out
    sub = rows.take(todo)
    balance, alpha = (strain1_balance, sub.alpha1) if strain == 1 else (strain2_balance, sub.alpha2)
    found = _roots(
        lambda c, x: balance(c, getattr(c, "f%d" % strain), x), sub, sub.each(sub.Lambda / alpha), strain - 1
    )
    for i, roots in zip(todo, found):
        (p, inc1, inc2), R = rows.block[i], Rs[i]
        if not roots.size:
            raise SolverError(
                "strain-%d balance shows no sign change at scan resolution %d although "
                "R%d = %.6g > 1" % (strain, SCAN_NODES, strain, R)
            )
        condition = ExistenceCondition("R%d > 1" % strain, R, R > 1.0)
        points = [_strain_point(p, strain, I) for I in roots.tolist()]
        notes = _strain2_notes(p, inc2, points) if strain == 2 else [""] * len(points)
        for point, note in zip(points, notes):
            res = field_residual(p, inc1, inc2, point)
            out[i].append(_certified(Equilibrium("E%d" % strain, point, res, (condition,), note)))
    return out


def _strain_point(p: ModelParams, strain: int, I: float) -> State:
    """The strain-only equilibrium of ``strain`` at its infection level I."""
    if strain == 1:
        S = (p.Lambda - p.alpha1 * I) / p.lam
        return State(S, p.r * S / p.mu, I, 0.0)
    S, V1 = strain2_coordinates(p, I)
    return State(S, V1, 0.0, I)


def _strain2_notes(p: ModelParams, inc2: IncidenceSpec, points) -> list:
    """Each E2 root's note: the root structure that ``strain2_discriminant``
    predicts, the root count and the auxiliary uniqueness flag dF2/dS <= I2.
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
    found = "found %d root(s) at scan resolution %d" % (len(points), SCAN_NODES)
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


def coexistence_coordinates(p: _Rows, I2):
    """(S, V1, I1) of the interior equilibrium candidates at infection levels
    I2, one row of I2 per entry of the block p.

    S solves f2(S, I2) + k*r*S/(mu + k*I2) = alpha2: by the family's closed
    form ``susceptible``, or for a custom rate by _S_HALVINGS halvings of
    [0, S0], the same number for every entry, so a block row is bit for bit
    its one-row solve. S is NaN where no S <= S0 solves it, since every
    equilibrium has S <= S0. I1 comes from the summed S, I1 and I2 balances
    and may be negative.
    """
    c = p.k * p.r / (p.mu + p.k * I2)
    S0 = p.susceptible_cap
    if p.f2.susceptible is not None:
        S = p.f2.susceptible(I2, p.alpha2, c)
        feasible = S <= S0
    else:
        # [S, S + width] holds the root wherever one exists on [0, S0]
        feasible = p.f2.force(S0, I2) + c * S0 >= p.alpha2
        S, width = np.zeros_like(I2), S0
        for _ in range(_S_HALVINGS):
            width = 0.5 * width
            mid = S + width
            S = np.where(p.f2.force(mid, I2) + c * mid < p.alpha2, mid, S)
        S = S + 0.5 * width
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
    (e3, error), = _coexistence(_Rows.of([(p, inc1, inc2)]), [th])
    if error:
        raise SolverError(error)
    return list(e3)


def _psi(c: _Rows, I2):
    S, _, I1 = coexistence_coordinates(c, I2)
    feasible = np.isfinite(S)
    S, I1 = np.where(feasible, S, 0.0), np.where(feasible, np.maximum(I1, 0.0), 0.0)
    return np.where(feasible, c.f1.force(S, I1) - c.alpha1, np.nan)


def _cap(c: _Rows, I2):
    """The strain-2 balance at S = S0, f2(S0, I2) + k*r*S0/(mu + k*I2) - alpha2,
    which is alpha2*(R2 - 1) at I2 = 0: where it is negative no S <= S0
    solves the strain-2 balance."""
    S0 = c.susceptible_cap
    return c.f2.force(S0, I2) + c.k * c.r * S0 / (c.mu + c.k * I2) - c.alpha2


def _coexistence(rows: _Rows, ths) -> list:
    """Each block row's E3 roots and the message of its SolverError or "".
    The psi scan ends at the cap balance's last root, or else at
    Lambda/alpha2; the module docstring says which scans built-in rows skip."""
    monotone = all(inc.family in BUILT_IN_FAMILIES for inc in rows.block[0][1:])
    hi = rows.each(rows.Lambda / rows.alpha2)
    ends = hi.copy()
    todo = [i for i, th in enumerate(ths) if not monotone or (th.R1 > 1.0 and th.R2 > 1.0)]
    capped = []
    for i in todo:
        # the end value as the scan's last node gives it
        if monotone and _cap(rows.one(i), hi[i : i + 1])[0] > 0.0:
            rows.scans[i, 2, 0] = 1
        else:
            capped.append(i)
    for i, cap in zip(capped, _roots(_cap, rows.take(capped), hi[capped], 2) if capped else ()):
        if cap.size:
            ends[i] = cap[-1]
    roots = dict(zip(todo, _roots(_psi, rows.take(todo), ends[todo], 3) if todo else ()))
    out = []
    for i, th in enumerate(ths):
        p, inc1, inc2 = rows.block[i]
        r2_inv, r1_inv = th.R2_invasion, th.R1_invasion
        conditions = tuple(
            ExistenceCondition(name, value, value > 1.0)
            for name, value in (("R2_invasion > 1", r2_inv), ("R1_invasion > 1", r1_inv))
            if value is not None
        )
        I2, points = roots.get(i, np.empty(0)), []
        if I2.size:
            S, V1, I1 = (x[0] for x in coexistence_coordinates(rows.one(i), I2[None, :]))
            interior = I1 > 0.0
            points = list(map(State, *(x[interior].tolist() for x in (S, V1, I1, I2))))
        try:
            if not points and len(conditions) == 2 and all(c.satisfied for c in conditions):
                raise SolverError(
                    "coexistence balance shows no sign change with I1 > 0 at scan resolution %d "
                    "although R2_invasion = %.6g > 1 and R1_invasion = %.6g > 1"
                    % (SCAN_NODES, r2_inv, r1_inv)
                )
            e3 = []
            for point in points:
                res = field_residual(p, inc1, inc2, point)
                e3.append(_certified(Equilibrium("E3", point, res, conditions)))
            out.append((tuple(e3), ""))
        except SolverError as exc:
            out.append(((), str(exc)))
    return out


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
    """Solve for every equilibrium kind once and fill in the invasion numbers."""
    return solve_batch([(p, inc1, inc2)])[0]


def solve_batch(rows) -> List[EquilibriumSet]:
    """``solve_all`` of each (p, inc1, inc2) row, bit for bit, with one pass
    per kind for each block of BLOCK_ROWS rows. The rows share one incidence
    family pair (and a custom spec). An E1 or E2 SolverError raises for the
    batch; a failed E3 solve is the row's ``coexistence_error``.
    """
    rows = list(rows)
    return [eqs for at in range(0, len(rows), BLOCK_ROWS) for eqs in _solve_block(rows[at : at + BLOCK_ROWS])]


def _solve_block(block) -> List[EquilibriumSet]:
    rows = _Rows.of(block)
    ths = [thresholds(p, inc1, inc2) for p, inc1, inc2 in block]
    e1s = _strain_only(rows, [th.R1 for th in ths], 1)
    e2s = _strain_only(rows, [th.R2 for th in ths], 2)
    for i, ((p, inc1, inc2), e1, e2) in enumerate(zip(block, e1s, e2s)):
        first = [roots[0] if roots else None for roots in (e1, e2)]
        r2_inv, r1_inv = invasion_numbers(p, inc1, inc2, *first)
        ths[i] = dataclasses.replace(ths[i], R2_invasion=r2_inv, R1_invasion=r1_inv)
    e3s = _coexistence(rows, ths)
    return [
        EquilibriumSet(
            th, disease_free(p, inc1, inc2), tuple(e1), tuple(e2), e3, error,
            SolveStats(len(block), *map(ScanStats._make, scans)),
        )
        for (p, inc1, inc2), th, e1, e2, (e3, error), scans in zip(
            block, ths, e1s, e2s, e3s, rows.scans.tolist()
        )
    ]


# -- shared helpers ----------------------------------------------------------


def _roots(fn, rows: _Rows, hi: np.ndarray, kind: int) -> List[np.ndarray]:
    """Every root of each row's balance on (0, hi] that the scan brackets.

    ``hi`` holds one scan end per row of ``rows``. fn(c, x) maps the
    columns c of some rows and abscissae x, one row of x per entry of c, to
    balance values, NaN where the balance is undefined. Each row's scan
    starts at BRACKET_EPSILON*hi and has SCAN_NODES cells, evaluated in one
    call of fn on that row alone (``_Rows.one``); a cell brackets a root
    when both ends are finite and exactly one is positive. Each round then
    cuts every bracket that is not yet narrower than BISECT_WIDTH*hi, all in
    one call of fn (see ``_narrowed``), and freezes the others in place, so
    each row's roots are those of its one-row pass. Where the balance is
    finite a round keeps a part at most 1/SECTIONS as wide, so the _ROUNDS
    rounds that take one scan cell below BISECT_WIDTH*hi bound the loop;
    most brackets need two. Each root is the secant point of its final
    bracket.

    Returns each row's roots in increasing order and records its pass in
    ``rows.scans[:, kind]``.
    """
    n = hi.size
    brackets = []
    for e in range(n):
        # one row at a time: a (rows x nodes) array passes glibc's 128 KiB
        # mmap threshold from 4 rows on, and each of its temporaries would
        # fault in fresh pages; one row's 32 KiB arrays reuse the same memory
        x = (hi[e : e + 1] / SCAN_NODES)[:, None] * _NODES  # np.linspace's arithmetic
        x[:, 0], x[:, -1] = BRACKET_EPSILON * hi[e], hi[e]
        (x,), (f,) = x, fn(rows.one(e), x)
        finite, positive = np.isfinite(f), f > 0.0
        cell = np.flatnonzero(finite[:-1] & finite[1:] & (positive[:-1] != positive[1:]))
        brackets.append((x[cell], x[cell + 1], f[cell], f[cell + 1]))
    counts = [a.size for a, *_ in brackets]
    row = np.repeat(np.arange(n), counts)
    a, b, fa, fb = map(np.concatenate, zip(*brackets))
    rows.scans[rows.row, kind, 0], rows.scans[rows.row, kind, 1] = SCAN_NODES + 1, counts
    if not row.size:
        return [a] * n

    # every scan cell is wider than BISECT_WIDTH*hi; a narrow bracket is
    # frozen while the others narrow on, so each row's roots are its own
    at, width, live = rows.take(row), (BISECT_WIDTH * hi)[row], np.ones(row.size, bool)
    for ran in range(1, _ROUNDS + 1):
        a, b, fa, fb = _narrowed(fn, at, a, b, fa, fb, live)
        live = b - a >= width
        if not live.any():
            break
    rows.scans[rows.row, kind, 2] = np.multiply(counts, ran)
    roots = np.clip(a + fa / (fa - fb) * (b - a), a, b)
    # a root on a scan node can close two neighbouring brackets of a row
    keep = np.ones(row.size, bool)
    keep[1:] = (row[1:] != row[:-1]) | (roots[1:] - roots[:-1] > 10.0 * width[1:])
    row, roots = row[keep], roots[keep]
    return [roots[row == i] for i in range(n)]


def _narrowed(fn, c: _Rows, a, b, fa, fb, live):
    """One narrowing round of the brackets [a, b], whose finite ends fa and fb
    have exactly one positive: cut each at _SLOPE and _STEP, all in one call
    of fn, and keep the first part between finite values with a sign change.
    Its right end is the least finite point whose sign differs from fa's,
    its left end the greatest finite point below that, so the cuts need no
    sort. A bracket that is not ``live`` keeps its ends."""
    t = fa / (fa - fb)  # the secant point's fraction of [a, b], in [0, 1]
    cuts = a[:, None] + (b - a)[:, None] * (t[:, None] * _SLOPE + _STEP)
    x = np.concatenate((a[:, None], cuts, b[:, None]), axis=1)
    f = np.concatenate((fa[:, None], fn(c, cuts), fb[:, None]), axis=1)
    finite, i = np.isfinite(f), np.arange(a.size)
    j = np.where(finite & ((f > 0.0) != (fa > 0.0)[:, None]), x, np.inf).argmin(axis=1)
    j = np.where(live, j, -1)
    b, fb = x[i, j], f[i, j]
    j = np.where(live, np.where(finite & (x < b[:, None]), x, -np.inf).argmax(axis=1), 0)
    return x[i, j], b, f[i, j], fb


def _certified(eq: Equilibrium) -> Equilibrium:
    if not (eq.residual < RESIDUAL_TOL):
        raise SolverError(
            "%s solve produced residual %.3e, above the %.0e certificate"
            % (eq.kind, eq.residual, RESIDUAL_TOL)
        )
    return eq
