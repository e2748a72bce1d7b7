"""Local stability classification and numerical Lyapunov-condition scans.

Each equilibrium kind has a dedicated classifier that builds the Jacobian
there, forms the characteristic-polynomial coefficients of the relevant
block in closed form, applies the Routh-Hurwitz sign conditions, and
cross-checks the verdict against a dense eigensolver. The two routes are
kept independent on purpose: a transcription error in either one shows up
as a cross-validation disagreement instead of a silent wrong answer.

Verdicts use a dead-band: eigenvalue real parts (and scaled coefficient
signs) within 1e-10 of zero yield Inconclusive rather than a guess.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, SolverError
from .incidence import IncidenceSpec
from .model import (
    ModelParams,
    State,
    jacobian,
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
    global_check: Optional[GridScanSummary] = field(default=None)


def eigen_classify(J: np.ndarray) -> tuple:
    """Dense-eigensolver classification of a real matrix.

    Returns (eigenvalues sorted by descending real part, verdict). This is
    the generic oracle the closed-form routines are validated against.
    """
    J = np.asarray(J, float)
    if not np.all(np.isfinite(J)):
        raise DomainError("eigen_classify requires finite matrix entries")
    try:
        eigs = np.linalg.eigvals(J)
    except np.linalg.LinAlgError as exc:
        raise SolverError("eigensolver failed to converge") from exc
    eigs = eigs[np.argsort(-eigs.real)]
    return eigs, _verdict_from_reals(eigs.real)


def _verdict_from_reals(reals) -> Verdict:
    top = float(np.max(reals))
    if top > EIGEN_DEADBAND:
        return Verdict.UNSTABLE
    if top < -EIGEN_DEADBAND:
        return Verdict.LOCALLY_STABLE
    return Verdict.INCONCLUSIVE


def _sign_banded(value: float, scale: float) -> int:
    """Sign of a coefficient with a relative dead-band: +1, -1, or 0 (marginal)."""
    band = EIGEN_DEADBAND * max(1.0, scale)
    if value > band:
        return 1
    if value < -band:
        return -1
    return 0


def _sum_with_scale(terms) -> tuple:
    return float(sum(terms)), float(sum(abs(t) for t in terms))


def _combine(signs) -> Verdict:
    """Routh-Hurwitz verdict from banded signs of all required quantities.

    A single strictly negative quantity already certifies instability
    because every coefficient and composite is positive for a Hurwitz
    polynomial of this size.
    """
    if any(s < 0 for s in signs):
        return Verdict.UNSTABLE
    if all(s > 0 for s in signs):
        return Verdict.LOCALLY_STABLE
    return Verdict.INCONCLUSIVE


# -- per-kind classifiers -----------------------------------------------------


def classify_disease_free(
    p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec
) -> StabilityReport:
    """E0 classification from the closed-form spectrum.

    The Jacobian at E0 is block triangular, so the eigenvalues are exactly
    -lam, -mu, alpha1*(R1 - 1), alpha2*(R2 - 1).
    """
    th = thresholds(p, inc1, inc2)
    closed = np.array(
        [
            -p.lam,
            -p.mu,
            p.alpha1 * (th.R1 - 1.0),
            p.alpha2 * (th.R2 - 1.0),
        ]
    )
    verdict = _verdict_from_reals(closed)
    point = State(p.susceptible_cap, p.vaccinated_cap, 0.0, 0.0)
    eigs, eigen_verdict = eigen_classify(jacobian(p, inc1, inc2, point))
    return StabilityReport(
        kind="E0",
        eigenvalues=np.sort_complex(closed.astype(complex))[::-1],
        coefficients={},
        conditions={"R1 < 1": th.R1 < 1.0, "R2 < 1": th.R2 < 1.0},
        verdict=verdict,
        eigen_verdict=eigen_verdict,
        notes=(
            "closed-form eigenvalues: -lam = %.6g, -mu = %.6g, "
            "alpha1*(R1-1) = %.6g, alpha2*(R2-1) = %.6g"
            % (-p.lam, -p.mu, closed[2], closed[3]),
        ),
    )


def classify_strain1(
    p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, e1
) -> StabilityReport:
    """E1 classification: a decoupled invasion eigenvalue plus a 3x3 block cubic.

    The I2 row decouples with eigenvalue alpha2*(R2_invasion - 1); the
    remaining (S, V1, I1) block has characteristic cubic
    x^3 + a2*x^2 + a1*x + a0.
    """
    require_certified(e1)
    J = jacobian(p, inc1, inc2, e1.point)
    A11, A13 = J[0, 0], J[0, 2]
    A31, A33 = J[2, 0], J[2, 2]
    A44 = J[3, 3]  # equals alpha2*(R2_invasion - 1)
    mu = p.mu

    a2, s2 = _sum_with_scale([-A11, mu, -A33])
    a1, s1 = _sum_with_scale([-mu * A11, -mu * A33, A11 * A33, -A13 * A31])
    a0, s0 = _sum_with_scale([mu * A11 * A33, -mu * A13 * A31])
    comp, sc = _sum_with_scale([a2 * a1, -a0])

    signs = [
        _sign_banded(a2, s2),
        _sign_banded(a1, s1),
        _sign_banded(a0, s0),
        _sign_banded(comp, sc),
        _sign_banded(-A44, 1.0),  # block is stable only with A44 < 0
    ]
    verdict = _combine(signs)
    eigs, eigen_verdict = eigen_classify(J)
    R2_invasion = A44 / p.alpha2 + 1.0
    return StabilityReport(
        kind="E1",
        eigenvalues=eigs,
        coefficients={"a2": a2, "a1": a1, "a0": a0, "a2*a1 - a0": comp},
        conditions={
            "a2 > 0": a2 > 0.0,
            "a1 > 0": a1 > 0.0,
            "a0 > 0": a0 > 0.0,
            "a2*a1 - a0 > 0": comp > 0.0,
            "R2_invasion < 1": bool(A44 < 0.0),
        },
        verdict=verdict,
        eigen_verdict=eigen_verdict,
        notes=(
            "invasion eigenvalue alpha2*(R2_invasion - 1) = %.6g "
            "(R2_invasion = %.6g)" % (A44, R2_invasion),
        ),
    )


def classify_strain2(
    p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, e2
) -> StabilityReport:
    """E2 classification: decoupled strain-1 eigenvalue plus a 3x3 block cubic.

    The I1 row decouples with eigenvalue alpha1*(R1_invasion - 1). When
    dF2/dI2 > 0 at the equilibrium the sign structure of the block is not
    automatic, so the coefficient conditions are tested explicitly; the
    outcome is the same arithmetic either way and the note records the path.
    """
    require_certified(e2)
    pt = e2.point
    J = jacobian(p, inc1, inc2, pt)
    B11, B14 = J[0, 0], J[0, 3]
    B22, B24 = J[1, 1], J[1, 3]
    B41, B42, B44 = J[3, 0], J[3, 1], J[3, 3]
    B33 = J[2, 2]  # equals alpha1*(R1_invasion - 1)
    r = p.r

    b2, s2 = _sum_with_scale([-B11, -B22, -B44])
    b1, s1 = _sum_with_scale(
        [B22 * B11, B22 * B44, B11 * B44, -B14 * B41, -B24 * B42]
    )
    b0, s0 = _sum_with_scale(
        [-B22 * B11 * B44, -r * B14 * B42, B14 * B22 * B41, B11 * B24 * B42]
    )
    comp, sc = _sum_with_scale([b2 * b1, -b0])

    signs = [
        _sign_banded(b2, s2),
        _sign_banded(b1, s1),
        _sign_banded(b0, s0),
        _sign_banded(comp, sc),
        _sign_banded(-B33, 1.0),
    ]
    verdict = _combine(signs)
    eigs, eigen_verdict = eigen_classify(J)
    dF2_dI2 = float(inc2.d_rate_dI(pt.S, pt.I2))
    path = (
        "dF2/dI2 = %.6g > 0 at the equilibrium: explicit coefficient test"
        if dF2_dI2 > 0.0
        else "dF2/dI2 = %.6g <= 0 at the equilibrium: sign structure applies"
    )
    R1_invasion = B33 / p.alpha1 + 1.0
    return StabilityReport(
        kind="E2",
        eigenvalues=eigs,
        coefficients={"b2": b2, "b1": b1, "b0": b0, "b2*b1 - b0": comp},
        conditions={
            "b2 > 0": b2 > 0.0,
            "b1 > 0": b1 > 0.0,
            "b0 > 0": b0 > 0.0,
            "b2*b1 - b0 > 0": comp > 0.0,
            "R1_invasion < 1": bool(B33 < 0.0),
        },
        verdict=verdict,
        eigen_verdict=eigen_verdict,
        notes=(
            path % dF2_dI2,
            "invasion eigenvalue alpha1*(R1_invasion - 1) = %.6g "
            "(R1_invasion = %.6g)" % (B33, R1_invasion),
        ),
    )


def classify_coexistence(
    p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, e3
) -> StabilityReport:
    """E3 classification via the full quartic x^4 + c1 x^3 + c2 x^2 + c3 x + c4.

    Locally stable when c1..c4 > 0 together with the two composite
    conditions c1*c2 - c3 > 0 and c1*c2*c3 - c3^2 - c1^2*c4 > 0.
    """
    require_certified(e3)
    J = jacobian(p, inc1, inc2, e3.point)
    C11, C13, C14 = J[0, 0], J[0, 2], J[0, 3]
    C22, C24 = J[1, 1], J[1, 3]
    C31, C33 = J[2, 0], J[2, 2]
    C41, C42, C44 = J[3, 0], J[3, 1], J[3, 3]
    r = p.r

    c1, s1 = _sum_with_scale([-C44, -C33, -C22, -C11])
    c2, s2 = _sum_with_scale(
        [
            -C41 * C14,
            -C42 * C24,
            C44 * C33,
            C44 * C22,
            C44 * C11,
            -C31 * C13,
            C33 * C22,
            C33 * C11,
            C22 * C11,
        ]
    )
    c3, s3 = _sum_with_scale(
        [
            -r * C42 * C14,
            C41 * C14 * C33,
            C41 * C14 * C22,
            C42 * C24 * C33,
            C42 * C24 * C11,
            C44 * C31 * C13,
            -C44 * C33 * C22,
            -C44 * C33 * C11,
            -C44 * C22 * C11,
            C31 * C13 * C22,
            -C33 * C22 * C11,
        ]
    )
    c4, s4 = _sum_with_scale(
        [
            r * C42 * C14 * C33,
            -C41 * C14 * C33 * C22,
            C42 * C24 * C31 * C13,
            -C42 * C24 * C33 * C11,
            -C44 * C31 * C13 * C22,
            C44 * C33 * C22 * C11,
        ]
    )
    compA, scA = _sum_with_scale([c1 * c2, -c3])
    compB, scB = _sum_with_scale([c1 * c2 * c3, -c3 * c3, -c1 * c1 * c4])

    signs = [
        _sign_banded(c1, s1),
        _sign_banded(c2, s2),
        _sign_banded(c3, s3),
        _sign_banded(c4, s4),
        _sign_banded(compA, scA),
        _sign_banded(compB, scB),
    ]
    verdict = _combine(signs)
    eigs, eigen_verdict = eigen_classify(J)
    return StabilityReport(
        kind="E3",
        eigenvalues=eigs,
        coefficients={
            "c1": c1,
            "c2": c2,
            "c3": c3,
            "c4": c4,
            "c1*c2 - c3": compA,
            "c1*c2*c3 - c3^2 - c1^2*c4": compB,
        },
        conditions={
            "c1 > 0": c1 > 0.0,
            "c2 > 0": c2 > 0.0,
            "c3 > 0": c3 > 0.0,
            "c4 > 0": c4 > 0.0,
            "c1*c2 - c3 > 0": compA > 0.0,
            "c1*c2*c3 - c3^2 - c1^2*c4 > 0": compB > 0.0,
        },
        verdict=verdict,
        eigen_verdict=eigen_verdict,
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
    S_values = np.geomspace(1e-6 * p.susceptible_cap, p.susceptible_cap, n_grid)
    V1_values = np.geomspace(1e-6 * p.vaccinated_cap, p.vaccinated_cap, n_grid)
    return S_values, V1_values


def strain2_lyapunov_scan(
    p: ModelParams,
    inc2: IncidenceSpec,
    e2,
    S_range: Optional[tuple] = None,
    V1_range: Optional[tuple] = None,
    n_grid: int = 200,
) -> GridScanSummary:
    """Scan the E2 surface over log-spaced grids inside the invariant box."""
    require_certified(e2)
    if S_range is None and V1_range is None:
        S_values, V1_values = lyapunov_scan_grid(p, n_grid)
    else:
        if S_range is None:
            S_range = (1e-6 * p.susceptible_cap, p.susceptible_cap)
        if V1_range is None:
            V1_range = (1e-6 * p.vaccinated_cap, p.vaccinated_cap)
        S_values = np.geomspace(S_range[0], S_range[1], n_grid)
        V1_values = np.geomspace(V1_range[0], V1_range[1], n_grid)
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
    return _coexistence_lyapunov(p, inc1, inc2, e3, states)[0]


def _coexistence_lyapunov(p, inc1, inc2, e3, states):
    """(values, error bounds) of the E3 expression at each state.

    The value is a sum of products; computed with n rounded operations along
    its longest chain, it is within n*eps/2 of exact times the same sum over
    absolute products (first order). The E3 point itself is only certified
    to its residual: there the value is the sum of the V1, I1 and I2 field
    components, so 3*residual is added.
    """
    if hasattr(states, "states"):
        states = states.states
    pts = np.asarray(states, float)
    if pts.ndim == 1:
        pts = pts[None, :]
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
    if hasattr(trajectory_or_grid, "states"):
        pts = np.asarray(trajectory_or_grid.states, float)
    else:
        pts = np.asarray(trajectory_or_grid, float)
        if pts.ndim == 1:
            pts = pts[None, :]
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
