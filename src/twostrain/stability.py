"""Local stability classification and numerical Lyapunov-condition scans.

E0 is classified from its closed-form spectrum. E1, E2 and E3 are classified
by the Routh-Hurwitz sign conditions on the characteristic polynomial of the
Jacobian block that ``KINDS`` names for each. ``classify_batch`` classifies
a block of equilibria of any kinds and incidence families in one pass, and
``classify`` is its one-row case. One routine, ``_expand``, expands
det(x*I - M) term by term from signed-product tables built at import from a
Leibniz table; the Hurwitz minors come from the same routine over the
leading blocks of the Hurwitz matrix. Every verdict is cross-checked
against a dense eigensolver. The two routes are kept independent on
purpose: an error in either one shows up as a cross-validation disagreement
instead of a silent wrong answer.

Verdicts use a dead-band: eigenvalue real parts within 1e-10 of zero, and
coefficients within 1e-10 of the sum of the absolute values of their
terms, yield Inconclusive rather than a guess.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .equilibria import disease_free
from .errors import DomainError, SolverError
from .incidence import IncidenceSpec
from .model import (
    ModelParams,
    jacobians,
    reproduction_number,
    require_certified,
    thresholds,
)

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
    eigs, signs = _spectra(J[None])
    return eigs[0], _combine(signs)[0]


def _spectra(J: np.ndarray) -> tuple:
    """The eigenvalues of each matrix of an (m, n, n) stack, from one
    eigensolve, as complex numbers sorted by descending real part, and the
    banded signs of their negated real parts."""
    if not np.isfinite(J).all():
        raise DomainError("eigen_classify requires finite matrix entries")
    try:
        eigs = np.linalg.eigvals(J).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise SolverError("eigensolver failed to converge") from exc
    eigs = eigs[np.arange(len(eigs))[:, None], np.argsort(-eigs.real, axis=-1)]
    return eigs, _sign_banded(-eigs.real, 1.0)


def _sign_banded(value, scale) -> np.ndarray:
    """Sign of each quantity with a relative dead-band: +1, -1, or 0 (marginal)."""
    band = EIGEN_DEADBAND * np.fmax(1.0, scale)
    return (value > band).astype(int) - (value < -band)


def _combine(signs) -> list:
    """The verdict of each row of banded signs of quantities that a stable
    point makes positive.

    The quantities are negated eigenvalues, or Routh-Hurwitz coefficients and
    minors. A single strictly negative one already certifies instability:
    every one of them is positive when all eigenvalues have negative real part.
    """
    verdicts = (Verdict.UNSTABLE, Verdict.INCONCLUSIVE, Verdict.LOCALLY_STABLE)
    return [verdicts[sign + 1] for sign in np.min(signs, axis=-1).tolist()]


class Kind(NamedTuple):
    """How one equilibrium kind is classified and reported.

    ``block`` indexes the Jacobian rows and columns whose characteristic
    polynomial the Routh-Hurwitz test reads; ``names`` are the report names
    of its coefficients c1..cn and of the Hurwitz minors D2..D(n-1). A
    boundary kind has one ``strain`` present and exists when that strain's
    R exceeds 1. The I row of the ``absent`` strain j, Jacobian row 1 + j,
    lies outside the block; its eigenvalue is alpha_j*(Rj_invasion - 1).
    """

    block: tuple
    names: tuple
    strain: Optional[int] = None

    @property
    def absent(self) -> int:
        """The strain missing from a boundary kind."""
        return 3 - self.strain


#: every equilibrium kind classified by Routh-Hurwitz; E0 has a closed form
KINDS = {
    "E1": Kind((0, 1, 2), ("a2", "a1", "a0", "a2*a1 - a0"), 1),
    "E2": Kind((0, 1, 3), ("b2", "b1", "b0", "b2*b1 - b0"), 2),
    "E3": Kind(
        (0, 1, 2, 3), ("c1", "c2", "c3", "c4", "c1*c2 - c3", "c1*c2*c3 - c3^2 - c1^2*c4")
    ),
}


# -- the Routh-Hurwitz quantities, from tables built at import ----------------


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

# the constants 1 and 0, which ``_expand`` appends to each source row
_ONE, _ZERO = -2, -1


def _sums(kind: Kind) -> tuple:
    """One kind's sums, each an (outer sign, terms) pair with its terms as
    (sign, factor indices) in Leibniz order: the coefficients c1..cn of
    det(x*I - B) for its block B of J, over J's 16 entries, and the leading
    Hurwitz minors D2..D(n-1), over the coefficients. D1 = c1, and Dn =
    cn*D(n-1) adds no condition once cn > 0. The k x k minor is (-1)^k
    times the constant coefficient of its characteristic polynomial, so it
    comes with its scale."""
    n, b = len(kind.block), kind.block

    def hurwitz(i, j):
        # H[i][j] = c_(2j-i+1) with c_0 = 1; out-of-range indices read 0
        q = 2 * j - i + 1
        return _ONE if q == 0 else q - 1 if 0 < q <= n else _ZERO

    def terms(size, k, entry):
        """The terms with k factors of det(x*I - M), M of ``size``, over ``entry``."""
        return [(sign, [entry(*f) for f in factors]) for order, sign, factors in _LEIBNIZ[size] if order == k]

    coefficients = [(1, terms(n, k, lambda i, j: 4 * b[i] + b[j])) for k in range(1, n + 1)]
    return coefficients, [((-1) ** k, terms(k, k, hurwitz)) for k in range(2, n)]


def _table(tables, width: int) -> tuple:
    """(factors, signs, outer signs) arrays of shapes (kinds, K, T, F),
    (kinds, K, T) and (kinds, K): each kind's sums, over a source row of
    ``width`` entries followed by the constants 1 and 0.

    Each sum starts with a zero term, as a Python sum starts from 0; zero
    terms and factors of one pad it to T terms of F factors, which changes
    no value or scale. Sums of 1 pad a kind to K sums, so that a padded
    quantity reads as positive.
    """
    K = max(len(sums) for sums in tables)
    T = 1 + max(len(terms) for sums in tables for _, terms in sums)
    F = max(len(f) for sums in tables for _, terms in sums for _, f in terms)
    zero = (1, [_ZERO])
    factors, signs, outer = [], [], []
    for sums in tables:
        sums = sums + [(1, [(1, [_ONE])])] * (K - len(sums))
        padded = [[zero, *terms] + [zero] * (T - 1 - len(terms)) for _, terms in sums]
        factors.append([[f + [_ONE] * (F - len(f)) for _, f in terms] for terms in padded])
        signs.append([[s for s, _ in terms] for terms in padded])
        outer.append([s for s, _ in sums])
    return np.array(factors) % (width + 2), np.array(signs), np.array(outer)


# every kind's coefficients over J's 16 entries, and its minors over the coefficients
_COEFFICIENTS, _MINORS = (
    _table(sums, width) for sums, width in zip(zip(*map(_sums, KINDS.values())), (16, 4))
)
_CODE = {kind: code for code, kind in enumerate(KINDS)}


def _expand(source, tables, kinds) -> tuple:
    """(values, scales) of each row's sums in ``tables`` (``_COEFFICIENTS``
    or ``_MINORS``) for its kind in ``kinds``, over its row of ``source``:
    an (m, N) array of floats or of sympy expressions. Padded sums read 1.

    Factors multiply left to right and terms add in order, so each value is
    bit for bit the Python sum of the same products, and no row depends on
    another. The scale of a sum is the sum of the absolute values of its
    terms, the width of its sign dead-band; a structural zero of the source
    adds nothing to it.
    """
    m, n = source.shape
    factors, signs, outer = (a[[_CODE[kind] for kind in kinds]] for a in tables)
    row = np.empty((m, n + 2), source.dtype)
    row[:, :n], row[:, n], row[:, n + 1] = source, 1, 0
    gathered = row.ravel()[factors + (n + 2) * np.arange(m).reshape(m, 1, 1, 1)]
    terms = gathered[..., 0]
    for f in range(1, gathered.shape[-1]):
        terms = terms * gathered[..., f]
    terms = signs * terms
    return outer * np.cumsum(terms, axis=-1)[..., -1], np.cumsum(abs(terms), axis=-1)[..., -1]


# -- classification -----------------------------------------------------------


def classify(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, eq) -> StabilityReport:
    """Local classification of any equilibrium, by its kind: the one-row
    case of ``classify_batch``.

    E0 is classified from its closed-form spectrum. E1, E2 and E3 must be
    certified; each is stable when the coefficients and Hurwitz minors of
    its block's characteristic polynomial (``KINDS``) are all positive, each
    tested with its own dead-band scale, and the decoupled row's eigenvalue
    is negative:

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
    serve every row. One ``_expand`` pass gives the coefficients of the E1,
    E2 and E3 rows and one their minors, and the closed-form spectra of the
    E0 rows are one array, whose banded signs are taken with the rest.
    """
    rows = list(rows)
    if not rows:
        return []
    for *_, eq in rows:
        if eq.kind != "E0":
            require_certified(eq)
    J = jacobians([(p, inc1, inc2, eq.point) for p, inc1, inc2, eq in rows])
    eigs, eigen_signs = _spectra(J)
    e0 = [i for i, row in enumerate(rows) if row[3].kind == "E0"]
    rh = [i for i, row in enumerate(rows) if row[3].kind != "E0"]
    # each row's quantities that a stable point makes positive, with their
    # dead-band scales: E0's negated eigenvalues, or a kind's coefficients,
    # minors and negated invasion eigenvalue; 1 fills the unused columns
    tested, scales = np.ones((len(rows), 7)), np.ones((len(rows), 7))
    fields = {}
    if e0:
        closed, e0_fields = _closed_form_fields([rows[i][:3] for i in e0])
        tested[e0, :4] = -closed
        fields.update(zip(e0, e0_fields))
    if rh:
        kinds = [rows[i][3].kind for i in rh]
        c, c_scales = _expand(J[rh].reshape(len(rh), 16), _COEFFICIENTS, kinds)
        minors, minor_scales = _expand(c, _MINORS, kinds)
        tested[rh, :6], scales[rh, :6] = np.hstack([c, minors]), np.hstack([c_scales, minor_scales])
        invaded = [i for i in rh if KINDS[rows[i][3].kind].strain is not None]
        diagonal = [1 + KINDS[rows[i][3].kind].absent for i in invaded]
        tested[invaded, 6] = -J[invaded, diagonal, diagonal]
        values = tested.tolist()
        fields.update((i, _coefficient_fields(rows[i], values[i], J[i], eigs[i])) for i in rh)
    verdicts = zip(_combine(_sign_banded(tested, scales)), _combine(eigen_signs))
    return [
        StabilityReport(row[3].kind, verdict=verdict, eigen_verdict=eigen_verdict, **fields[i])
        for i, (row, (verdict, eigen_verdict)) in enumerate(zip(rows, verdicts))
    ]


def _closed_form_fields(cases) -> tuple:
    """E0's spectrum for each (p, inc1, inc2) case, as one (k, 4) array,
    and the eigenvalues, coefficients, conditions and notes of its report.

    The Jacobian at E0 is block triangular, so the eigenvalues are exactly
    -lam, -mu, alpha1*(R1 - 1) and alpha2*(R2 - 1), from the case's
    parameters and thresholds.
    """
    ths = [thresholds(*case) for case in cases]
    closed = np.array([
        (-p.lam, -p.mu, p.alpha1 * (th.R1 - 1.0), p.alpha2 * (th.R2 - 1.0))
        for (p, *_), th in zip(cases, ths)
    ])
    spectra = np.sort(closed, axis=1)[:, ::-1].astype(complex)
    fields = [
        dict(
            eigenvalues=eigenvalues,
            coefficients={},
            conditions={"R1 < 1": th.R1 < 1.0, "R2 < 1": th.R2 < 1.0},
            notes=(
                "closed-form eigenvalues: -lam = %.6g, -mu = %.6g, "
                "alpha1*(R1-1) = %.6g, alpha2*(R2-1) = %.6g" % tuple(values),
            ),
        )
        for eigenvalues, values, th in zip(spectra, closed.tolist(), ths)
    ]
    return closed, fields


def _coefficient_fields(row, tested: list, J: np.ndarray, eigenvalues: np.ndarray) -> dict:
    """The eigenvalues, coefficients, conditions and notes of the report of
    an E1, E2 or E3 row, from its tested quantities and its Jacobian."""
    p, inc1, inc2, eq = row
    kind = KINDS[eq.kind]
    n = len(kind.block)
    values = tested[:n] + tested[4 : n + 2]
    conditions = {name + " > 0": v > 0.0 for name, v in zip(kind.names, values)}
    notes = []
    if eq.kind == "E2":
        dF2_dI2 = -J[0, 3]  # the S row holds -F2(S, I2)
        path = (
            "dF2/dI2 = %.6g > 0 at the equilibrium: explicit coefficient test"
            if dF2_dI2 > 0.0
            else "dF2/dI2 = %.6g <= 0 at the equilibrium: sign structure applies"
        )
        notes.append(path % dF2_dI2)
    if kind.strain is not None:
        absent, pt = kind.absent, eq.point
        eigenvalue = J[1 + absent, 1 + absent]
        invasion = "R%d_invasion" % absent
        conditions[invasion + " < 1"] = bool(eigenvalue < 0.0)
        number = reproduction_number(p, (inc1, inc2)[absent - 1], absent, pt.S, pt.V1)
        notes.append(
            "invasion eigenvalue alpha%d*(%s - 1) = %.6g (%s = %.6g)"
            % (absent, invasion, eigenvalue, invasion, number)
        )
    return dict(
        eigenvalues=eigenvalues,
        coefficients=dict(zip(kind.names, values)),
        conditions=conditions,
        notes=tuple(notes),
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


def lyapunov_scan_grid(p: ModelParams, n_grid: int = 200):
    """Default log-spaced (S, V1) scan grids inside the invariant box.

    Ranges are (1e-6*S0, S0] and (1e-6*V10, V10]; the lower ends stay off
    the singular boundary where the surface diverges to -inf.
    """
    _require_grid(n_grid, "n_grid")
    S_values = np.geomspace(1e-6 * p.susceptible_cap, p.susceptible_cap, n_grid)
    V1_values = np.geomspace(1e-6 * p.vaccinated_cap, p.vaccinated_cap, n_grid)
    return S_values, V1_values


def _require_grid(n, name: str) -> None:
    """Refuse a grid size ``name`` that is not an integer >= 1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("%s must be an integer >= 1, not %r" % (name, n))


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
