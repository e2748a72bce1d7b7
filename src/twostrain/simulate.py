"""Adaptive time integration and trajectory diagnostics.

The stepper is an embedded Dormand-Prince 4(5) pair with FSAL and a PI
step-size controller. It is hand-rolled rather than delegated because the
surrounding contracts are not standard solver behavior: accepted states are
clamped at zero within an atol-sized band, a component falling below -atol
is a hard tolerance failure that stops the run, the final time is landed
exactly, and entry into the invariant box is recorded as an event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import DomainError, IntegrationError
from .incidence import IncidenceSpec
from .model import (
    ModelParams,
    State,
    field_norms as _field_norms,
    require_certified,
)

# Dormand-Prince 5(4) tableau. Row 7 of the A matrix equals the 5th-order
# weights, so the last stage of an accepted step is the first of the next.
_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_A = tuple(
    np.array(row)
    for row in (
        (0.2,),
        (3.0 / 40.0, 9.0 / 40.0),
        (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
        (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
        (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
        (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
    )
)
_ERR = np.array(
    [
        71.0 / 57600.0,
        0.0,
        -71.0 / 16695.0,
        71.0 / 1920.0,
        -17253.0 / 339200.0,
        22.0 / 525.0,
        -1.0 / 40.0,
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class IntegratorOptions:
    """Tolerances and horizon for a run. Defaults suit the model's scales."""

    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float = math.inf
    t_end: float = 5000.0
    convergence_tol: float = 1e-6
    tail_window: float = 500.0
    sample_times: Optional[tuple] = None

    def __post_init__(self):
        names = ("rtol", "atol", "t_end", "max_step", "convergence_tol", "tail_window")
        bad = [name for name in names if not getattr(self, name) > 0.0]
        if bad:
            raise ValueError("invalid integrator options: " + ", ".join(bad))


@dataclass(frozen=True)
class TrajectoryEvent:
    time: float
    kind: str  # entered_omega1 | converged_to | tolerance_failure
    detail: str = ""


@dataclass(frozen=True)
class IntegratorStats:
    """What one stepper run did. A step attempt evaluates the right-hand side
    6 times unless a stage fails first, 2 evaluations precede the first step
    and each clamp adds one. A step is rejected by a failed stage or error
    test; a negative retry halves a step that would reach -atol or below."""

    rhs_evals: int
    accepted_steps: int
    rejected_steps: int
    clamps: int
    negative_retries: int


@dataclass
class Trajectory:
    """Recorded solution samples plus events observed along the way."""

    times: np.ndarray
    states: np.ndarray
    field_norms: np.ndarray
    events: List[TrajectoryEvent]
    tracks_recovered: bool = False
    stats: Optional[IntegratorStats] = field(default=None, compare=False)

    @property
    def final_state(self) -> State:
        return State.from_array(self.states[-1])


@dataclass
class RawIntegration:
    """Low-level stepper output, before model-specific bookkeeping."""

    times: np.ndarray
    states: np.ndarray
    negative_abort: Optional[tuple] = None  # (time, component index)
    stats: Optional[IntegratorStats] = None


def adaptive_rk45(
    rhs,
    y0: Sequence[float],
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float = math.inf,
    sample_times: Optional[Sequence[float]] = None,
    nonnegative: bool = True,
) -> RawIntegration:
    """Integrate y' = rhs(t, y) from t = 0 to t_end.

    With ``nonnegative`` set, accepted components inside (-atol, 0) are
    clamped to zero. A candidate step that would put a component at or
    below -atol is rejected and retried with a smaller step, since large
    steps can amplify an already-decayed mode through the stability
    boundary; if the violation persists down to the minimal step size the
    run stops and reports it through ``negative_abort`` rather than an
    exception. Step size underflow raises IntegrationError carrying the
    last good state.

    When ``sample_times`` is given, states are stored at those times using
    cubic Hermite interpolation on each accepted step; otherwise every
    accepted step is stored.
    """
    y = np.array(y0, float)
    t = 0.0
    if sample_times is not None:
        samples = np.asarray(sample_times, float)
        if samples.ndim != 1 or np.any(samples < 0.0) or np.any(samples > t_end):
            raise ValueError("sample_times must lie within [0, t_end]")
        samples = np.unique(samples)
    else:
        samples = None

    times: List[float] = []
    states: List[np.ndarray] = []
    sample_ptr = 0
    if samples is None:
        times.append(0.0)
        states.append(y.copy())
    else:
        while sample_ptr < len(samples) and samples[sample_ptr] <= 0.0:
            times.append(0.0)
            states.append(y.copy())
            sample_ptr += 1

    f = _eval_rhs(rhs, t, y)
    if f is None:
        raise IntegrationError("right-hand side failed at the initial state", t, y.copy())
    h = _initial_step(rhs, y, f, t_end, rtol, atol, max_step)

    err_prev = 1.0
    negative_abort = None
    n = len(y)
    k = np.empty((7, n))
    evals, accepted, rejected, clamps, retries = 2, 0, 0, 0, 0

    for _ in range(_MAX_STEPS):
        if t >= t_end:
            break
        h = min(h, max_step, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError("step size underflow at t = %g" % t, t, y.copy())

        k[0] = f
        failed = False
        for i in range(6):
            yi = y + h * _A[i].dot(k[: i + 1])
            fi = _eval_rhs(rhs, t + _C[i] * h, yi)
            if fi is None:
                failed = True
                break
            k[i + 1] = fi
        evals += i + 1
        if failed:
            rejected += 1
            h *= _MIN_FACTOR
            continue

        # the last stage was evaluated at y_new (row 6 equals the weights)
        y_new, f_new = yi, k[6]
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        z = h * _ERR.dot(k) / scale
        err = math.sqrt((z * z).sum() / n)

        if not math.isfinite(err) or err > 1.0:
            rejected += 1
            factor = _MIN_FACTOR
            if math.isfinite(err):
                factor = max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            h *= min(1.0, factor)
            continue

        # accepted by the error test; now enforce feasibility
        t_new = t + h
        if nonnegative:
            floor = y_new.min()
            if floor <= -atol:
                j = int(y_new.argmin())
                # a component pinned at zero with outward flow cannot be
                # rescued by a smaller step: the continuous solution leaves
                # the orthant, so the violation is real; otherwise retry,
                # aborting only if it survives down to the minimal step
                if (y[j] <= 0.0 and k[0, j] < 0.0) or h < 1e-13 * max(1.0, abs(t)):
                    negative_abort = (t_new, j)
                    break
                retries += 1
                h *= 0.5
                continue
            if floor < 0.0:
                clamps += 1
                evals += 1
                y_new = np.maximum(y_new, 0.0)
                f_new = _eval_rhs(rhs, t_new, y_new)
                if f_new is None:
                    raise IntegrationError(
                        "right-hand side failed after clamping at t = %g" % t_new,
                        t,
                        y.copy(),
                    )

        accepted += 1
        if samples is None:
            times.append(t_new)
            states.append(y_new)
        else:
            eps = 1e-12 * max(1.0, abs(t_new))
            while sample_ptr < len(samples) and samples[sample_ptr] <= t_new + eps:
                ts = samples[sample_ptr]
                times.append(float(ts))
                states.append(_hermite(t, y, k[0], t_new, y_new, f_new, ts))
                sample_ptr += 1

        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev = max(err, 1e-10)
        t, y, f = t_new, y_new, f_new
        h *= factor
    else:
        raise IntegrationError("step limit exceeded", t, y.copy())

    return RawIntegration(
        times=np.asarray(times),
        states=np.asarray(states),
        negative_abort=negative_abort,
        stats=IntegratorStats(evals, accepted, rejected, clamps, retries),
    )


def _eval_rhs(rhs, t, y):
    """rhs(t, y) as an array, or None if it raised an arithmetic or domain
    error or any component is not finite."""
    try:
        f = np.array(rhs(t, y), float, ndmin=1)
    except (ArithmeticError, DomainError):
        return None
    if not all(map(math.isfinite, f.tolist())):
        return None
    return f


def _initial_step(rhs, y0, f0, t_end, rtol, atol, max_step):
    """Starting step from the standard two-probe heuristic."""
    scale = atol + rtol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    f1 = _eval_rhs(rhs, h0, y0 + h0 * f0)
    if f1 is None:
        return min(h0 * 1e-3, max_step, t_end)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, max_step, t_end)


def _hermite(t0, y0, f0, t1, y1, f1, ts):
    """Cubic Hermite interpolant on one accepted step."""
    h = t1 - t0
    if h == 0.0:
        return y1.copy()
    theta = (ts - t0) / h
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * y0
        + (t3 - 2.0 * t2 + theta) * h * f0
        + (-2.0 * t3 + 3.0 * t2) * y1
        + (t3 - t2) * h * f1
    )


# -- model-level integration ---------------------------------------------------


def integrate(
    p: ModelParams,
    inc1: IncidenceSpec,
    inc2: IncidenceSpec,
    x0,
    opts: Optional[IntegratorOptions] = None,
) -> Trajectory:
    """Run the model from a nonnegative initial state.

    Tracks the recovered class exactly when the initial state carries one.
    Events recorded: entry into the box {S <= S0, V1 <= V10} and a
    tolerance failure if a component leaves the nonnegative band.
    """
    opts = opts or IntegratorOptions()
    y0 = x0.as_array() if isinstance(x0, State) else np.asarray(x0, float)
    if not np.all(np.isfinite(y0)) or np.any(y0 < 0.0):
        raise DomainError("initial state must be finite and componentwise >= 0")
    track_r = y0.shape[0] == 5

    # stage inputs go in as Python floats; finiteness is checked on every
    # stage output, not on every rate call
    rate1, rate2 = inc1.scalar_rate(), inc2.scalar_rate()
    Lam, lam, mu, r, k = p.Lambda, p.lam, p.mu, p.r, p.k
    a1, a2, g1, g2 = p.alpha1, p.alpha2, p.gamma1, p.gamma2

    def rhs(t, y):
        S, V1, I1, I2, *R = y.tolist()
        F1 = rate1(S, I1)
        F2 = rate2(S, I2)
        dx = (
            Lam - F1 - F2 - lam * S,
            r * S - (mu + k * I2) * V1,
            F1 - a1 * I1,
            F2 + k * I2 * V1 - a2 * I2,
        )
        return dx + (g1 * I1 + g2 * I2 - mu * R[0],) if R else dx

    raw = adaptive_rk45(
        rhs,
        y0,
        opts.t_end,
        rtol=opts.rtol,
        atol=opts.atol,
        max_step=opts.max_step,
        sample_times=opts.sample_times,
    )

    events: List[TrajectoryEvent] = []
    S0, V10 = p.susceptible_cap, p.vaccinated_cap
    inside = (raw.states[:, 0] <= S0) & (raw.states[:, 1] <= V10)
    hits = np.nonzero(inside)[0]
    if hits.size:
        events.append(
            TrajectoryEvent(
                float(raw.times[hits[0]]),
                "entered_omega1",
                "S <= %.6g and V1 <= %.6g" % (S0, V10),
            )
        )
    if raw.negative_abort is not None:
        t_abort, comp = raw.negative_abort
        names = ("S", "V1", "I1", "I2", "R")
        events.append(
            TrajectoryEvent(
                float(t_abort),
                "tolerance_failure",
                "component %s fell below -atol" % names[comp],
            )
        )

    return Trajectory(
        times=raw.times,
        states=raw.states,
        field_norms=_field_norms(p, inc1, inc2, raw.states),
        events=events,
        tracks_recovered=track_r,
        stats=raw.stats,
    )


@dataclass(frozen=True)
class InvarianceReport:
    """Monitoring outcome for the invariant sets along one trajectory."""

    population_cap: float
    entered_omega_at: Optional[float]
    entered_omega1_at: Optional[float]
    first_omega_violation: Optional[tuple]  # (time, N)
    first_omega1_violation: Optional[tuple]  # (time, component name, value)
    final_total: float
    final_total_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.first_omega_violation is None
            and self.first_omega1_violation is None
            and self.final_total_ok
        )


def monitor_invariance(traj: Trajectory, p: ModelParams) -> InvarianceReport:
    """Check the trapping-box properties along a recorded trajectory.

    Once N = S+V1+I1+I2 drops to Lambda/mu it must stay there (1e-6 slack),
    the final N must satisfy the asymptotic bound with 1e-3 slack, and once
    (S, V1) enters the sub-box bounded by the disease-free coordinates it
    must remain inside (1e-6 slack).
    """
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    N = traj.states[:, :4].sum(axis=1)
    cap = p.population_cap

    entered_omega_at = None
    first_omega_violation = None
    inside = np.nonzero(N <= cap)[0]
    if inside.size:
        i0 = inside[0]
        entered_omega_at = float(traj.times[i0])
        bad = np.nonzero(N[i0:] > cap * (1.0 + 1e-6))[0]
        if bad.size:
            j = i0 + bad[0]
            first_omega_violation = (float(traj.times[j]), float(N[j]))

    S0, V10 = p.susceptible_cap, p.vaccinated_cap
    entered_omega1_at = None
    first_omega1_violation = None
    inside1 = np.nonzero((traj.states[:, 0] <= S0) & (traj.states[:, 1] <= V10))[0]
    if inside1.size:
        i0 = inside1[0]
        entered_omega1_at = float(traj.times[i0])
        S_bad = traj.states[i0:, 0] > S0 * (1.0 + 1e-6)
        V_bad = traj.states[i0:, 1] > V10 * (1.0 + 1e-6)
        bad = np.nonzero(S_bad | V_bad)[0]
        if bad.size:
            j = i0 + bad[0]
            name = "S" if S_bad[bad[0]] else "V1"
            value = float(traj.states[j, 0 if name == "S" else 1])
            first_omega1_violation = (float(traj.times[j]), name, value)

    final_total = float(N[-1])
    return InvarianceReport(
        population_cap=cap,
        entered_omega_at=entered_omega_at,
        entered_omega1_at=entered_omega1_at,
        first_omega_violation=first_omega_violation,
        first_omega1_violation=first_omega1_violation,
        final_total=final_total,
        final_total_ok=final_total <= cap * (1.0 + 1e-3),
    )


def detect_convergence(
    traj: Trajectory, candidates, opts: Optional[IntegratorOptions] = None
) -> Optional[TrajectoryEvent]:
    """Declare convergence to the nearest certified equilibrium, if any.

    Requires the vector-field norm to stay below convergence_tol over the
    whole tail window and the final state to sit within relative 1e-3 of a
    candidate. On success the event is appended to the trajectory and
    returned.
    """
    opts = opts or IntegratorOptions()
    if not candidates:
        return None
    for c in candidates:
        require_certified(c)
    t_last = float(traj.times[-1])
    tail = traj.times >= t_last - opts.tail_window
    if not np.all(traj.field_norms[tail] < opts.convergence_tol):
        return None
    final = traj.states[-1, :4]
    best = None
    best_dist = math.inf
    for c in candidates:
        target = c.point.as_array()[:4]
        dist = float(
            np.linalg.norm(final - target) / max(1.0, float(np.linalg.norm(target)))
        )
        if dist < best_dist:
            best, best_dist = c, dist
    if best is None or best_dist >= 1e-3:
        return None
    event = TrajectoryEvent(
        t_last, "converged_to", "%s (relative distance %.3e)" % (best.kind, best_dist)
    )
    traj.events.append(event)
    return event


@dataclass(frozen=True)
class PersistenceSummary:
    min_I1_tail: float
    min_I2_tail: float


def persistence_proxy(traj: Trajectory, burn_in_fraction: float = 0.5) -> PersistenceSummary:
    """Tail minima of both infective classes after discarding a burn-in.

    Values bounded away from zero are consistent with uniform persistence;
    this is a numeric proxy, not a proof.
    """
    if not 0.0 < burn_in_fraction <= 0.5:
        raise ValueError("burn_in_fraction must be in (0, 0.5] so the tail spans the burn-in")
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    cutoff = t0 + burn_in_fraction * (t1 - t0)
    tail = traj.times >= cutoff
    return PersistenceSummary(
        min_I1_tail=float(np.min(traj.states[tail, 2])),
        min_I2_tail=float(np.min(traj.states[tail, 3])),
    )
