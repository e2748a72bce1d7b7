"""Local stability classification and numerical Lyapunov-condition scans.

Every equilibrium kind is classified by one rule, from the Jacobian block
that ``KINDS`` names for it: the Routh-Hurwitz sign conditions on the
block's characteristic polynomial, then the negated diagonal entry of each
row outside the block. Outside the block each row is decoupled, so its
diagonal entry is an eigenvalue; at E0 the block is empty and all four
rows are. ``classify_batch`` classifies a block of equilibria of any kinds
and incidence families in one pass, and ``classify`` is its one-row case.
Each kind's coefficients of det(x*I - M) and its Hurwitz minors are
written out term by term as text from a Leibniz table, and compiled once
per kind on first use (``_quantities``). Every verdict is cross-checked
against a dense eigensolver. The two routes are kept independent on
purpose: an error in either one shows up as a cross-validation
disagreement instead of a silent wrong answer.

Both routes sign their quantities by one rule, ``_verdict``: one within
1e-10*max(1, scale) of zero, with scale 1 for an eigenvalue or a decoupled
row's diagonal entry and the sum of the absolute values of its terms for a
Routh-Hurwitz sum, yields Inconclusive rather than a guess.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .equilibria import disease_free
from .errors import DomainError, SolverError, _require_grid
from .incidence import IncidenceSpec
from .model import ModelParams, _compiled, jacobians, reproduction_number, require_certified

#: half-width of the zero dead-band on eigenvalue real parts
EIGEN_DEADBAND = 1e-10

#: rounded operations along the longest chain behind one value of the E3
#: Lyapunov expression with a built-in incidence: 4 in each contact factor, 6
#: in an equilibrium rate, 3 more in the product that combines them with S
#: and S*, 1 to apply the group factor and 8 additions
LYAPUNOV_OPS = 26


class Verdict(enum.Enum):
    LOCALLY_STABLE = "locally_stable"
    UNSTABLE = "unstable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GridScanSummary:
    """Outcome of evaluating a Lyapunov-condition expression over many points."""

    max_value: float
    argmax: tuple
    n_points: int
    nonpositive_everywhere: bool
    # (S_values, V1_values, surface) of a product-grid scan
    grid: Optional[tuple] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class StabilityReport:
    kind: str
    eigenvalues: np.ndarray
    coefficients: dict
    conditions: dict
    verdict: Verdict
    eigen_verdict: Verdict
    notes: tuple = ()


def eigen_classify(J: np.ndarray) -> tuple:
    """Dense-eigensolver classification of a real matrix.

    Returns (eigenvalues sorted by descending real part, verdict). The
    eigenvalues are complex128 even when the spectrum is real. This is the
    generic oracle the Routh-Hurwitz route is validated against, and the
    one-matrix case of ``_spectra``.
    """
    J = np.asarray(J, float)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.size == 0:
        raise ValueError("eigen_classify needs a square 2-D matrix of size >= 1, not shape %s" % (J.shape,))
    eigs = _spectra(J[None])[0]
    return eigs, _verdict((-eigs.real).tolist(), _UNIT)


def _spectra(J: np.ndarray) -> np.ndarray:
    """The eigenvalues of each matrix of an (m, n, n) stack, from one
    eigensolve, as complex numbers sorted by descending real part."""
    if not np.isfinite(J).all():
        raise DomainError("eigen_classify requires finite matrix entries")
    try:
        eigs = np.linalg.eigvals(J).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise SolverError("eigensolver failed to converge") from exc
    return eigs[np.arange(len(eigs))[:, None], np.argsort(-eigs.real, axis=-1)]


#: unit scales, the bare EIGEN_DEADBAND, for any number of quantities
_UNIT = itertools.repeat(1.0)


def _verdict(tested, scales) -> Verdict:
    """The verdict on quantities that a stable point makes positive, each
    with the scale of its dead-band EIGEN_DEADBAND*max(1, scale); a NaN
    scale gives the bare EIGEN_DEADBAND.

    The quantities are negated eigenvalues, or Routh-Hurwitz coefficients and
    minors. A single one below its band already certifies instability: every
    one of them is positive when all eigenvalues have negative real part.
    Otherwise one that is not above its band, NaN included, is marginal.
    """
    verdict = Verdict.LOCALLY_STABLE
    for q, scale in zip(tested, scales):
        # EIGEN_DEADBAND*max(1, scale), NaN scale included, without the call
        band = EIGEN_DEADBAND * scale if scale > 1.0 else EIGEN_DEADBAND
        if q < -band:
            return Verdict.UNSTABLE
        if not q > band:
            verdict = Verdict.INCONCLUSIVE
    return verdict


class Kind(NamedTuple):
    """How one equilibrium kind is classified and reported.

    ``block`` indexes the Jacobian rows and columns whose characteristic
    polynomial the Routh-Hurwitz test reads; ``names`` are the report names
    of its coefficients c1..cn and of the Hurwitz minors D2..D(n-1). A
    boundary kind has one ``strain`` present. ``absent`` pairs each strain
    j missing from the kind with the name of its reproduction number N
    there: the I row of strain j, Jacobian row 1 + j, lies outside the
    block, and its eigenvalue is alpha_j*(N - 1).
    """

    block: tuple
    names: tuple
    strain: Optional[int] = None
    absent: tuple = ()


#: every equilibrium kind, in the order of ``EquilibriumSet.all``
KINDS = {
    "E0": Kind((), (), absent=((1, "R1"), (2, "R2"))),
    "E1": Kind((0, 1, 2), ("a2", "a1", "a0", "a2*a1 - a0"), 1, ((2, "R2_invasion"),)),
    "E2": Kind((0, 1, 3), ("b2", "b1", "b0", "b2*b1 - b0"), 2, ((1, "R1_invasion"),)),
    "E3": Kind(
        (0, 1, 2, 3), ("c1", "c2", "c3", "c4", "c1*c2 - c3", "c1*c2*c3 - c3^2 - c1^2*c4")
    ),
}


# -- the Routh-Hurwitz quantities, as text compiled once per kind -------------


def _leibniz_terms(n: int) -> list:
    """Terms of det(x*I - M) for an n x n matrix M, as (k, sign, factors) triples.

    A term takes either x or -M[i][perm[i]] in every row i, and may take x
    only where perm[i] == i. A term with k matrix factors belongs to the
    coefficient c_k of x^(n-k); ``factors`` are their entries (i, perm[i]).
    """
    terms = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for takes_x in itertools.product((False, True), repeat=n):
            rows = [i for i in range(n) if not takes_x[i]]
            if rows and all(perm[i] == i for i in range(n) if takes_x[i]):
                sign = (-1) ** (inversions + len(rows))
                terms.append((len(rows), sign, [(i, perm[i]) for i in rows]))
    return terms


_LEIBNIZ = {n: _leibniz_terms(n) for n in (2, 3, 4)}


def _sums(kind: Kind) -> tuple:
    """One kind's sums, each an (outer sign, terms) pair with its terms as
    (sign, factor texts) in Leibniz order: the coefficients c1..cn of
    det(x*I - B) for its block B of J, over J's 16 entries j0..j15, and the
    leading Hurwitz minors D2..D(n-1), over the coefficients and the
    Hurwitz matrix's literals 1 and 0. D1 = c1, and Dn = cn*D(n-1) adds no
    condition once cn > 0. The k x k minor is (-1)^k times the constant
    coefficient of its characteristic polynomial, so it comes with its
    scale."""
    n, b = len(kind.block), kind.block

    def hurwitz(i, j):
        # H[i][j] = c_(2j-i+1) with c_0 = 1; out-of-range indices read 0
        q = 2 * j - i + 1
        return "1" if q == 0 else "c%d" % q if 0 < q <= n else "0"

    def terms(size, k, entry):
        """The terms with k factors of det(x*I - M), M of ``size``, over ``entry``."""
        return [(sign, [entry(*f) for f in factors]) for order, sign, factors in _LEIBNIZ[size] if order == k]

    coefficients = [(1, terms(n, k, lambda i, j: "j%d" % (4 * b[i] + b[j]))) for k in range(1, n + 1)]
    return coefficients, [((-1) ** k, terms(k, k, hurwitz)) for k in range(2, n)]


@functools.lru_cache(maxsize=None)
def _quantities(kind: str):
    """``quantities(j) -> (values, scales)`` for the ``KINDS`` entry
    ``kind``, compiled from ``_sums`` on first use: over the 16 entries
    ``j`` of J in row-major order, the coefficients c1..cn and then the
    Hurwitz minors D2..D(n-1), which read the coefficients.

    Each value is outer*(0 + t1 + t2 + ...) with its factors multiplied
    left to right and its terms in Leibniz order, so it is bit for bit the
    Python sum of the same products, on floats or on sympy objects. Its
    scale, 0 + |t1| + |t2| + ..., is the width of its sign dead-band; a
    structural zero of J adds nothing to it.
    ``print(stability._quantities("E3").source)`` shows the text.
    """
    coefficients, minors = _sums(KINDS[kind])
    names = ["c%d" % k for k in range(1, len(coefficients) + 1)]
    names += ["D%d" % k for k in range(2, len(minors) + 2)]
    lines = ["def quantities(j):", "    %s = j" % ", ".join("j%d" % i for i in range(16))]
    for name, (outer, terms) in zip(names, coefficients + minors):
        products = ["*".join(factors) for _, factors in terms]
        value = "0" + "".join(" %s %s" % ("-" if sign < 0 else "+", t) for (sign, _), t in zip(terms, products))
        lines.append("    %s = %s" % (name, value if outer > 0 else "-(%s)" % value))
        lines.append("    %s_scale = 0%s" % (name, "".join(" + abs(%s)" % t for t in products)))
    scales = [name + "_scale" for name in names]
    lines.append("    return (%s), (%s)" % (", ".join(names), ", ".join(scales)))
    return _compiled("quantities", lines, "<stability quantities, %s>" % kind, {})


# -- classification -----------------------------------------------------------


def classify(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, eq) -> StabilityReport:
    """Local classification of any certified equilibrium, by its kind: the
    one-row case of ``classify_batch``.

    It is stable when the coefficients and Hurwitz minors of its block's
    characteristic polynomial (``KINDS``) are all positive, each tested
    with its own dead-band scale, and every row outside the block, whose
    diagonal entry is an eigenvalue, has that entry negative:

    - E0: no block; the eigenvalues -lam, -mu and, for each strain j,
      alpha_j*(R_j - 1);
    - E1: x^3 + a2*x^2 + a1*x + a0 on (S, V1, I1), and the I2 row with
      eigenvalue alpha2*(R2_invasion - 1);
    - E2: x^3 + b2*x^2 + b1*x + b0 on (S, V1, I2), and the I1 row with
      eigenvalue alpha1*(R1_invasion - 1). When dF2/dI2 > 0 the sign
      structure of the block is not automatic; the arithmetic is the same
      either way and a note records the path;
    - E3: the full quartic x^4 + c1*x^3 + c2*x^2 + c3*x + c4, with the
      composite conditions c1*c2 - c3 > 0 and c1*c2*c3 - c3^2 - c1^2*c4 > 0.
    """
    return classify_batch([(p, inc1, inc2, eq)])[0]


def classify_disease_free(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec) -> StabilityReport:
    """``classify`` of the disease-free equilibrium."""
    return classify(p, inc1, inc2, disease_free(p, inc1, inc2))


def classify_batch(rows) -> list:
    """``classify`` of each (p, inc1, inc2, eq) row, bit for bit, in one pass.

    The rows may mix incidence family pairs: each row's Jacobian binds its
    own rate texts. One ``model.jacobians`` call and one stacked eigensolve
    serve every row. Each row is then signed on Python floats, by one rule
    (``_verdict``) for both routes: the eigen route tests the negated real
    parts of its spectrum; the Routh-Hurwitz route tests its kind's
    coefficients and minors from the compiled ``_quantities``, then the
    negated diagonal entry of each row outside its kind's block.
    """
    rows = list(rows)
    if not rows:
        return []
    for *_, eq in rows:
        require_certified(eq)
    J = jacobians([(p, inc1, inc2, eq.point) for p, inc1, inc2, eq in rows])
    eigs = _spectra(J)
    reports = []
    # each row's 16 entries of J and negated eigenvalue real parts, as Python floats
    entries, negated = J.reshape(len(rows), 16).tolist(), (-eigs.real).tolist()
    for row, j, eigenvalues, minus_real in zip(rows, entries, eigs, negated):
        tested, scales, fields = _fields(row, j)
        verdict, eigen_verdict = _verdict(tested, scales), _verdict(minus_real, _UNIT)
        reports.append(
            StabilityReport(**fields, eigenvalues=eigenvalues, verdict=verdict, eigen_verdict=eigen_verdict)
        )
    return reports


def _fields(row, j: list) -> tuple:
    """A row's tested quantities and their scales, and the kind,
    coefficients, conditions and notes of its report, from the 16 entries
    ``j`` of its Jacobian in row-major order.

    The quantities are its kind's ``_quantities``, then the negated diagonal
    entry of each Jacobian row outside the kind's block, with scale 1. The
    I row of each absent strain adds its condition and its note.
    """
    p, inc1, inc2, eq = row
    kind = KINDS[eq.kind]
    values, scales = _quantities(eq.kind)(j)
    tested = values + tuple(-j[5 * i] for i in range(4) if i not in kind.block)
    conditions = {name + " > 0": v > 0.0 for name, v in zip(kind.names, values)}
    notes = []
    if eq.kind == "E2":
        dF2_dI2 = -j[3]  # the S row holds -F2(S, I2)
        path = (
            "dF2/dI2 = %.6g > 0 at the equilibrium: explicit coefficient test"
            if dF2_dI2 > 0.0
            else "dF2/dI2 = %.6g <= 0 at the equilibrium: sign structure applies"
        )
        notes.append(path % dF2_dI2)
    for strain, number in kind.absent:
        eigenvalue = j[5 * (1 + strain)]  # the diagonal entry of the strain's I row
        conditions[number + " < 1"] = eigenvalue < 0.0
        value = reproduction_number(p, (inc1, inc2)[strain - 1], strain, eq.point.S, eq.point.V1)
        notes.append(
            "invasion eigenvalue alpha%d*(%s - 1) = %.6g (%s = %.6g)"
            % (strain, number, eigenvalue, number, value)
        )
    return tested, itertools.chain(scales, _UNIT), dict(
        kind=eq.kind, coefficients=dict(zip(kind.names, values)), conditions=conditions, notes=tuple(notes)
    )


# -- Lyapunov-condition scans -------------------------------------------------


def strain2_lyapunov_surface(p: ModelParams, inc2: IncidenceSpec, e2, S_values, V1_values) -> np.ndarray:
    """Global-stability surface for E2 on a (S, V1) product grid.

    Entry [i, j] is

        2 - F2~/F2(S_i, I2~) + S_i*F2~/(S~*F2(S_i, I2~))
          - V1_j/V1~ - S_i*V1~/(S~*V1_j)

    where tilde quantities are taken at the equilibrium. Nonpositivity of
    this surface (with R1 < 1) is the numerical global-stability condition.
    """
    S_values = np.asarray(S_values, float)
    V1_values = np.asarray(V1_values, float)
    if np.any(S_values <= 0.0) or np.any(V1_values <= 0.0):
        raise DomainError("the E2 surface requires S > 0 and V1 > 0")
    pt = e2.point
    F2_eq = float(inc2.rate(pt.S, pt.I2))
    F2_S = np.asarray(inc2.rate(S_values, pt.I2), float)
    S_col = S_values[:, None]
    F2_col = F2_S[:, None]
    V1_row = V1_values[None, :]
    return (
        2.0
        - F2_eq / F2_col
        + S_col * F2_eq / (pt.S * F2_col)
        - V1_row / pt.V1
        - S_col * pt.V1 / (pt.S * V1_row)
    )


def _empty_scan_range(p: ModelParams) -> str:
    """The empty string when the scan's S and V1 ranges both have a positive
    lower end and a finite upper end; else which input leaves which range
    empty. 1e-6*S0 underflows at a tiny Lambda, and S0 = Lambda/lam
    overflows at a huge Lambda over a tiny lam; 1e-6*V10 is 0 at r = 0 and
    underflows at a subnormal r, and V10 = r*S0/mu overflows at a huge r
    over a tiny mu."""
    S0, V10 = p.susceptible_cap, p.vaccinated_cap
    if not 1e-6 * S0 > 0.0:
        return "Lambda = %r leaves no S range (1e-6*S0 = 0)" % p.Lambda
    if not S0 < np.inf:
        return "Lambda = %r over lam = %r leaves no finite S range (S0 = inf)" % (p.Lambda, p.lam)
    if not 1e-6 * V10 > 0.0:
        return "r = %r leaves no V1 range (1e-6*V10 = 0)" % p.r
    if not V10 < np.inf:
        return "r = %r over mu = %r leaves no finite V1 range (V10 = inf)" % (p.r, p.mu)
    return ""


def lyapunov_scan_grid(p: ModelParams, n_grid: int = 200):
    """Default log-spaced (S, V1) scan grids inside the invariant box.

    Ranges are (1e-6*S0, S0] and (1e-6*V10, V10]; the lower ends stay off
    the singular boundary where the surface diverges to -inf. A range with a
    lower end of 0 or an infinite upper end (see ``_empty_scan_range``) is a
    DomainError that names its input.
    """
    _require_grid(n_grid, "n_grid", 1)
    empty = _empty_scan_range(p)
    if empty:
        raise DomainError("the scan needs 0 < 1e-6*S0, S0 < inf, 0 < 1e-6*V10 and V10 < inf, but " + empty)
    S_values = np.geomspace(1e-6 * p.susceptible_cap, p.susceptible_cap, n_grid)
    V1_values = np.geomspace(1e-6 * p.vaccinated_cap, p.vaccinated_cap, n_grid)
    return S_values, V1_values


def strain2_lyapunov_scan(
    p: ModelParams,
    inc2: IncidenceSpec,
    e2,
    n_grid: int = 200,
) -> GridScanSummary:
    """Scan the E2 surface over the log-spaced grids of ``lyapunov_scan_grid``."""
    require_certified(e2)
    S_values, V1_values = lyapunov_scan_grid(p, n_grid)
    surface = strain2_lyapunov_surface(p, inc2, e2, S_values, V1_values)
    flat = int(np.argmax(surface))
    i, j = np.unravel_index(flat, surface.shape)
    max_value = float(surface[i, j])
    return GridScanSummary(
        max_value=max_value,
        argmax=(float(S_values[i]), float(V1_values[j])),
        n_points=surface.size,
        nonpositive_everywhere=max_value <= 0.0,
        grid=(S_values, V1_values, surface),
    )


def coexistence_lyapunov_values(
    p: ModelParams,
    inc1: IncidenceSpec,
    inc2: IncidenceSpec,
    e3,
    states,
) -> np.ndarray:
    """Lyapunov-derivative expression for E3 at interior evaluation points.

    ``states`` is an (n, 4) array (extra columns ignored) or an object with
    a ``states`` attribute such as a Trajectory. The expression vanishes at
    E3 itself; nonpositivity along trajectories supports global stability.
    """
    return _coexistence_lyapunov(p, inc1, inc2, e3, _points(states))[0]


def _points(states) -> np.ndarray:
    """(n, >= 4) array of states from an array, one state, or an object with ``states``."""
    pts = np.asarray(getattr(states, "states", states), float)
    return pts[None, :] if pts.ndim == 1 else pts


def _coexistence_lyapunov(p, inc1, inc2, e3, pts):
    """(values, error bounds) of the E3 expression at each row of ``pts``.

    The value is a sum of products; computed with n rounded operations along
    its longest chain, it is within n*eps/2 of exact times the same sum over
    absolute products (first order). The E3 point itself is only certified
    to its residual: there the value is the sum of the V1, I1 and I2 field
    components, so 3*residual is added.
    """
    S, V1, I1, I2 = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    if np.any(pts[:, :4] <= 0.0):
        raise DomainError("the E3 expression requires interior points (all > 0)")

    star = e3.point
    F1_eq = float(inc1.rate(star.S, star.I1))
    F2_eq = float(inc2.rate(star.S, star.I2))
    g1_eq = float(inc1.contact_factor(star.S, star.I1))
    g2_eq = float(inc2.contact_factor(star.S, star.I2))
    g1 = inc1.contact_factor(S, I1)
    g2 = inc2.contact_factor(S, I2)

    ratio = star.S / S
    # (factor, parts): the value is the sum of factor*sum(parts). The V1 part
    # r*S*(3 - ratio - V1/V1* - S*V1*/(S*V1)) uses r*S*/V1* = mu + k*I2* at
    # E3, which stays finite when r = 0 and so V1* = 0.
    groups = (
        (F1_eq, (2.0, -ratio, -S * g1 / (star.S * g1_eq))),
        (F2_eq, (2.0, -ratio, -S * g2 / (star.S * g2_eq))),
        (p.r * star.S, (3.0, -ratio, -S * star.V1 / (star.S * V1))),
        (p.mu + p.k * star.I2, (-V1,)),
        (p.mu * star.S, (2.0, -ratio, -S / star.S)),
        (I1, (star.S * g1, -p.alpha1)),
        (I2, (star.S * g2, p.k * star.V1, -p.alpha2)),
    )
    values = sum(f * sum(parts) for f, parts in groups)
    magnitude = sum(np.abs(f) * sum(np.abs(x) for x in parts) for f, parts in groups)
    bound = LYAPUNOV_OPS * 0.5 * np.finfo(float).eps * magnitude + 3.0 * e3.residual
    return values, bound


def coexistence_lyapunov_scan(
    p: ModelParams,
    inc1: IncidenceSpec,
    inc2: IncidenceSpec,
    e3,
    trajectory_or_grid,
) -> GridScanSummary:
    """Evaluate the E3 expression over trajectory states or an explicit grid.

    A value no larger in size than its error bound (``_coexistence_lyapunov``)
    carries no sign: near E3 the expression falls below its own rounding
    error. Such states count as nonpositive, and ``max_value`` is the largest
    value over the other states, or over all states when every one is
    unresolved.
    """
    require_certified(e3)
    pts = _points(trajectory_or_grid)
    if len(pts) == 0:
        raise ValueError("coexistence_lyapunov_scan needs at least one state")
    values, bound = _coexistence_lyapunov(p, inc1, inc2, e3, pts)
    resolved = np.flatnonzero(np.abs(values) > bound)
    pick = resolved if resolved.size else np.arange(values.size)
    idx = int(pick[np.argmax(values[pick])])
    return GridScanSummary(
        max_value=float(values[idx]),
        argmax=tuple(float(v) for v in pts[idx, :4]),
        n_points=values.size,
        nonpositive_everywhere=bool(np.all(values <= bound)),
    )
