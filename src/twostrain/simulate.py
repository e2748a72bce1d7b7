"""Adaptive time integration and trajectory diagnostics.

The stepper is an embedded Dormand-Prince 5(4) pair with FSAL and a PI
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

# Dormand-Prince 5(4) tableau (Dormand & Prince 1980, J. Comput. Appl. Math.
# 6). The 7th stage is taken at the 5th-order solution (its A row equals the
# weights B; B1 = 0), so the last stage of an accepted step is the first of
# the next. E = B - B*, the embedded error weights (E1 = 0).
_C1, _C2, _C3, _C4 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A10 = 0.2
_A20, _A21 = 3.0 / 40.0, 9.0 / 40.0
_A30, _A31, _A32 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A40, _A41, _A42, _A43 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A50, _A51, _A52, _A53, _A54 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0,
)
_B0, _B2, _B3, _B4, _B5 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E0, _E2, _E3, _E4, _E5, _E6 = (
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
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

    ``rhs`` gets the state as a 1-D array and returns the derivative as any
    sequence of the same length. A stage whose evaluation raises an
    arithmetic or domain error, or has a non-finite component, is rejected
    and the step shrinks.

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
    n = len(y0)

    def fun(t, y):
        try:
            f = np.array(rhs(t, np.array(y)), float, ndmin=1).tolist()
        except (ArithmeticError, DomainError):
            return None
        if len(f) != n:
            raise ValueError("rhs returned %d components for a state of %d" % (len(f), n))
        return f if all(map(math.isfinite, f)) else None

    return _dp5(fun, y0, t_end, rtol, atol, max_step, sample_times, nonnegative)


def _dp5(fun, y0, t_end, rtol, atol, max_step, sample_times, nonnegative=True) -> RawIntegration:
    """The stepper behind ``adaptive_rk45``, on Python floats.

    ``fun(t, y)`` takes the state as a sequence of floats and returns the
    derivative as one, or None when the stage fails. States, stages and the
    FSAL derivative are never written in place, so a rejected trial leaves
    f(t, y) as the first stage of the retry.
    """
    y = tuple(float(v) for v in y0)
    n = len(y)
    t = 0.0
    if sample_times is not None:
        samples = np.asarray(sample_times, float)
        if samples.ndim != 1 or np.any(samples < 0.0) or np.any(samples > t_end):
            raise ValueError("sample_times must lie within [0, t_end]")
        samples = np.unique(samples).tolist()
    else:
        samples = None

    times: List[float] = []
    states: list = []
    sample_ptr = 0
    if samples is None:
        times.append(0.0)
        states.append(y)
    else:
        while sample_ptr < len(samples) and samples[sample_ptr] <= 0.0:
            times.append(0.0)
            states.append(y)
            sample_ptr += 1

    f = fun(t, y)
    if f is None:
        raise IntegrationError("right-hand side failed at the initial state", t, np.array(y))
    h = _initial_step(fun, y, f, t_end, rtol, atol, max_step)

    err_prev = 1.0
    negative_abort = None
    evals, accepted, rejected, clamps, retries = 2, 0, 0, 0, 0

    for _ in range(_MAX_STEPS):
        if t >= t_end:
            break
        h = min(h, max_step, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError("step size underflow at t = %g" % t, t, np.array(y))

        trial = _trial(fun, t, y, f, h)
        if type(trial) is int:
            evals += trial
            rejected += 1
            h *= _MIN_FACTOR
            continue
        evals += 6
        y_new, f_new, k2, k3, k4, k5 = trial

        acc = 0.0
        for a, b, d0, d2, d3, d4, d5, d6 in zip(y, y_new, f, k2, k3, k4, k5, f_new):
            z = h * (_E0 * d0 + _E2 * d2 + _E3 * d3 + _E4 * d4 + _E5 * d5 + _E6 * d6)
            z /= atol + rtol * max(abs(a), abs(b))
            acc += z * z
        err = math.sqrt(acc / n)

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
            floor = min(y_new)
            if floor <= -atol:
                j = y_new.index(floor)
                # a component pinned at zero with outward flow cannot be
                # rescued by a smaller step: the continuous solution leaves
                # the orthant, so the violation is real; otherwise retry,
                # aborting only if it survives down to the minimal step
                if (y[j] <= 0.0 and f[j] < 0.0) or h < 1e-13 * max(1.0, abs(t)):
                    negative_abort = (t_new, j)
                    break
                retries += 1
                h *= 0.5
                continue
            if floor < 0.0:
                clamps += 1
                evals += 1
                y_new = [0.0 if v < 0.0 else v for v in y_new]
                f_new = fun(t_new, y_new)
                if f_new is None:
                    raise IntegrationError(
                        "right-hand side failed after clamping at t = %g" % t_new,
                        t,
                        np.array(y),
                    )

        accepted += 1
        if samples is None:
            times.append(t_new)
            states.append(y_new)
        else:
            eps = 1e-12 * max(1.0, abs(t_new))
            while sample_ptr < len(samples) and samples[sample_ptr] <= t_new + eps:
                ts = samples[sample_ptr]
                times.append(ts)
                states.append(_hermite(t, y, f, t_new, y_new, f_new, ts))
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
        raise IntegrationError("step limit exceeded", t, np.array(y))

    return RawIntegration(
        times=np.array(times, float),
        states=np.array(states, float).reshape(len(states), n),
        negative_abort=negative_abort,
        stats=IntegratorStats(evals, accepted, rejected, clamps, retries),
    )


def _trial(fun, t, y, k0, h):
    """The stages of one trial step of size h from (t, y), with k0 = f(t, y).

    Returns (y_new, k6, k2, k3, k4, k5), where y_new is the 5th-order
    solution and k6 = f(t + h, y_new), or, when a stage fails, the number of
    right-hand-side evaluations made (an int).
    """
    k1 = fun(t + _C1 * h, [a + h * (_A10 * b) for a, b in zip(y, k0)])
    if k1 is None:
        return 1
    k2 = fun(t + _C2 * h, [a + h * (_A20 * b + _A21 * c) for a, b, c in zip(y, k0, k1)])
    if k2 is None:
        return 2
    k3 = fun(
        t + _C3 * h,
        [a + h * (_A30 * b + _A31 * c + _A32 * d) for a, b, c, d in zip(y, k0, k1, k2)],
    )
    if k3 is None:
        return 3
    k4 = fun(
        t + _C4 * h,
        [
            a + h * (_A40 * b + _A41 * c + _A42 * d + _A43 * e)
            for a, b, c, d, e in zip(y, k0, k1, k2, k3)
        ],
    )
    if k4 is None:
        return 4
    k5 = fun(
        t + h,
        [
            a + h * (_A50 * b + _A51 * c + _A52 * d + _A53 * e + _A54 * g)
            for a, b, c, d, e, g in zip(y, k0, k1, k2, k3, k4)
        ],
    )
    if k5 is None:
        return 5
    y_new = [
        a + h * (_B0 * b + _B2 * d + _B3 * e + _B4 * g + _B5 * q)
        for a, b, d, e, g, q in zip(y, k0, k2, k3, k4, k5)
    ]
    k6 = fun(t + h, y_new)
    if k6 is None:
        return 6
    return y_new, k6, k2, k3, k4, k5


def _initial_step(fun, y0, f0, t_end, rtol, atol, max_step):
    """Starting step from the standard two-probe heuristic."""
    n = len(y0)
    scale = [atol + rtol * abs(a) for a in y0]
    d0 = math.sqrt(sum((a / s) ** 2 for a, s in zip(y0, scale)) / n)
    d1 = math.sqrt(sum((b / s) ** 2 for b, s in zip(f0, scale)) / n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    f1 = fun(h0, [a + h0 * b for a, b in zip(y0, f0)])
    if f1 is None:
        return min(h0 * 1e-3, max_step, t_end)
    d2 = math.sqrt(sum(((c - b) / s) ** 2 for b, c, s in zip(f0, f1, scale)) / n) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, max_step, t_end)


def _hermite(t0, y0, f0, t1, y1, f1, ts):
    """Cubic Hermite interpolant on one accepted step."""
    h = t1 - t0
    if h == 0.0:
        return y1
    theta = (ts - t0) / h
    t2 = theta * theta
    t3 = t2 * theta
    w0 = 2.0 * t3 - 3.0 * t2 + 1.0
    w1 = (t3 - 2.0 * t2 + theta) * h
    w2 = -2.0 * t3 + 3.0 * t2
    w3 = (t3 - t2) * h
    return [w0 * a + w1 * b + w2 * c + w3 * d for a, b, c, d in zip(y0, f0, y1, f1)]


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

    raw = _dp5(
        _field_closure(p, inc1, inc2, track_r),
        y0.tolist(),
        opts.t_end,
        opts.rtol,
        opts.atol,
        opts.max_step,
        opts.sample_times,
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


def _field_closure(p: ModelParams, inc1: IncidenceSpec, inc2: IncidenceSpec, track_r: bool):
    """The model's field for the stepper: floats in, a tuple of floats out, or
    None when a rate raises or a component is not finite. Each built-in rate
    is bound once and runs unchecked, so finiteness is checked once per stage
    output; the elementwise test runs only when the sum is not finite, which
    an overflowing sum of finite parts can also be."""
    rate1, rate2 = inc1.scalar_rate(), inc2.scalar_rate()
    Lam, lam, mu, r, k = p.Lambda, p.lam, p.mu, p.r, p.k
    a1, a2, g1, g2 = p.alpha1, p.alpha2, p.gamma1, p.gamma2
    isfinite = math.isfinite

    def field4(t, y):
        S, V1, I1, I2 = y
        try:
            F1 = rate1(S, I1)
            F2 = rate2(S, I2)
        except (ArithmeticError, DomainError):
            return None
        dx = (
            Lam - F1 - F2 - lam * S,
            r * S - (mu + k * I2) * V1,
            F1 - a1 * I1,
            F2 + k * I2 * V1 - a2 * I2,
        )
        return dx if isfinite(sum(dx)) or all(map(isfinite, dx)) else None

    def field5(t, y):
        S, V1, I1, I2, R = y
        try:
            F1 = rate1(S, I1)
            F2 = rate2(S, I2)
        except (ArithmeticError, DomainError):
            return None
        dx = (
            Lam - F1 - F2 - lam * S,
            r * S - (mu + k * I2) * V1,
            F1 - a1 * I1,
            F2 + k * I2 * V1 - a2 * I2,
            g1 * I1 + g2 * I2 - mu * R,
        )
        return dx if isfinite(sum(dx)) or all(map(isfinite, dx)) else None

    return field5 if track_r else field4


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
