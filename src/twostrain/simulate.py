"""Adaptive time integration and trajectory diagnostics.

The stepper is an embedded Dormand-Prince 5(4) pair with FSAL and a PI
step-size controller. It is hand-rolled rather than delegated because the
surrounding contracts are not standard solver behavior: accepted states are
clamped at zero within an atol-sized band, a component falling below -atol
is a hard tolerance failure that stops the run, the final time is landed
exactly, and entry into the invariant box is recorded as an event.

The step loop runs on Python floats. Its right-hand side and its trial
step are generated together for the state's number of components (see
``_kernel``): ``adaptive_rk45`` binds them to its ``rhs``, and
``integrate`` to the model's field, written into every stage.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from math import isfinite  # used by the generated stage code
from typing import List, Optional, Sequence

import numpy as np

from .errors import DomainError, IntegrationError
from .incidence import _RATE_TEXTS, IncidenceSpec
from .model import ModelParams, State, field_norms, require_certified
from .model import _COEFFICIENTS, _RATE_CALL, _STATE, _as_array, _compiled, _field_lines

# Dormand-Prince 5(4) tableau (Dormand & Prince 1980, J. Comput. Appl. Math.
# 6): the nodes C1-C4 (C5 = C6 = 1), the rows of A, the weights B and
# E = B - B*, the embedded error weights. The 7th stage is taken at the
# 5th-order solution (its A row equals B; B1 = 0), so the last stage of an
# accepted step is the first of the next.
_C = (0.2, 0.3, 0.8, 8.0 / 9.0)
_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
_E = (
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
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
        values = {name: getattr(self, name) for name in names}
        # every option is positive, and every one but max_step finite
        bad = [name for name, v in values.items() if not (v > 0.0 and (math.isfinite(v) or name == "max_step"))]
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
    """Recorded solution samples plus events observed along the way.
    ``model`` is the (p, inc1, inc2) that ``integrate`` ran, from which
    ``detect_convergence`` evaluates the field."""

    times: np.ndarray
    states: np.ndarray
    events: List[TrajectoryEvent]
    tracks_recovered: bool = False
    stats: Optional[IntegratorStats] = field(default=None, compare=False)
    model: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def final_state(self) -> State:
        return State.from_array(self.states[-1])


@dataclass
class RawIntegration:
    """Low-level stepper output, before model-specific bookkeeping. ``steps``
    is the (times, states) of the start and every accepted step: the arrays
    ``times`` and ``states`` themselves unless the run was sampled."""

    times: np.ndarray
    states: np.ndarray
    negative_abort: Optional[tuple] = None  # (time, component index)
    stats: Optional[IntegratorStats] = None
    steps: Optional[tuple] = field(default=None, repr=False)


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

    Every accepted step is stored; given ``sample_times``, the run returns
    instead the states at those times, sorted and unique, interpolated over
    the stored steps after the run by ``_hermite``, which sets the edge rules.
    """
    n = len(y0)
    if n == 0:
        raise ValueError("the state needs at least one component")

    def fun(t, y):
        f = np.array(rhs(t, np.array(y)), float, ndmin=1).tolist()
        if len(f) != n:
            raise ValueError("rhs returned %d components for a state of %d" % (len(f), n))
        return f

    return _dp5(*_kernel(n)(fun), y0, t_end, rtol, atol, max_step, sample_times, nonnegative)


def _dp5(stage, step, y0, t_end, rtol, atol, max_step, sample_times, nonnegative=True) -> RawIntegration:
    """The stepper behind ``adaptive_rk45`` and ``integrate``, on Python floats.

    ``stage`` and ``step`` are one binding of ``_kernel(len(y0), ...)``:
    ``stage(t, y)`` gives f(t, y) at the start, for the first-step probe
    and after each clamp, and each trial step is one call to ``step``.
    States, stages and the FSAL derivative are never written in place, so a
    rejected trial leaves f(t, y) as the first stage of the retry. Each
    accepted step's (t, y, f) is kept; ``_hermite`` maps them to
    ``sample_times`` after the loop.
    """
    y = tuple(float(v) for v in y0)
    n = len(y)
    t = 0.0
    if sample_times is not None:
        samples = np.asarray(sample_times, float)
        if samples.ndim != 1 or not np.all((samples >= 0.0) & (samples <= t_end)):
            raise ValueError("sample_times must lie within [0, t_end]")

    f = stage(t, y)
    if f is None:
        raise IntegrationError("right-hand side failed at the initial state", t, np.array(y))
    h = _initial_step(stage, y, f, t_end, rtol, atol, max_step)
    # every accepted step's end point and FSAL derivative, the start first
    times, states, slopes = [t], [y], [f]

    err_prev = 1.0
    negative_abort = None
    evals, accepted, rejected, clamps, retries = 2, 0, 0, 0, 0

    for _ in range(_MAX_STEPS):
        if t >= t_end:
            break
        h = min(h, max_step, t_end - t)
        # a step under the floor underflows only if it falls short of t_end:
        # a horizon nearer than the floor is reached in one clipped step
        if h < 1e-14 * max(1.0, abs(t)) and h < t_end - t:
            raise IntegrationError("step size underflow at t = %g" % t, t, np.array(y))

        trial = step(t, y, f, h, atol, rtol)
        if type(trial) is int:
            evals += trial
            rejected += 1
            h *= _MIN_FACTOR
            continue
        evals += 6
        y_new, f_new, acc = trial
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
                y_new = tuple(0.0 if v < 0.0 else v for v in y_new)
                f_new = stage(t_new, y_new)
                if f_new is None:
                    raise IntegrationError(
                        "right-hand side failed after clamping at t = %g" % t_new,
                        t,
                        np.array(y),
                    )

        accepted += 1
        times.append(t_new)
        states.append(y_new)
        slopes.append(f_new)

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

    steps = np.array(times, float), np.array(states, float)
    sampled = steps if sample_times is None else _hermite(*steps, slopes, np.unique(samples))
    return RawIntegration(
        times=sampled[0],
        states=sampled[1],
        negative_abort=negative_abort,
        stats=IntegratorStats(evals, accepted, rejected, clamps, retries),
        steps=steps,
    )


# One stage as indented source: {body} sets the stage output, and the stage
# fails when it raises an arithmetic or domain error or a component is not
# finite. The elementwise test runs only when the sum {total} is not
# finite, which an overflowing sum of finite parts can also be. ``_kernel``
# writes it into each stage of a trial step and into ``stage``, the
# evaluation outside a trial step.
_STAGE = """\
    try:
{body}
    except (ArithmeticError, DomainError):
        return {fail}
    if not (isfinite({total}) or all(map(isfinite, {parts}))):
        return {fail}"""


@functools.lru_cache(maxsize=None)
def _kernel(n: int, rates: Optional[tuple] = None):
    """The binder of ``_dp5``'s right-hand side and trial step for states of
    n components, built on first use. It returns ``(stage, step)``.

    ``stage(t, y)`` is f(t, y) as a tuple, or None when the stage fails
    (see ``_STAGE``). ``step(t, y, k0, h, atol, rtol)`` makes one trial
    step of size h from (t, y), with k0 = f(t, y). It returns (y_new, k6,
    acc): the 5th-order solution, k6 = f(t + h, y_new) and the sum of
    squares of the scaled error components. When a stage fails it returns
    instead the number of right-hand-side evaluations made (an int).

    With ``rates`` None, the cache key is n, the binder is ``bind(fun)``
    and each stage calls fun(t, y). With ``rates``, the two strains' rate
    texts (``incidence._RATE_TEXTS`` or ``model._RATE_CALL``) and n = 4 or
    5, the binder is ``bind(*model._COEFFICIENTS, b1, z1, b2, z2, rate1,
    rate2)`` and each stage assigns the model's field
    (``model._field_lines``) to its output locals, so it makes no Python
    call for a built-in rate and calls ``rate<j>`` for a custom strain j.
    The bound values are closure cells, so one cached binder serves every
    parameter value, and it gives the bits of ``bind(fun)`` with fun =
    ``bound_field`` of the same rates.

    The source is generated from the tableau with every component written
    out and each weight a float literal, whose repr reads back exactly. y
    and each stage output are unpacked into locals (``y_i`` and
    ``k<s>_i``), each stage input is a per-component sum with the terms in
    tableau order, and the error sum adds the components in order.
    max(|y_i|, |z_i|) is written as a conditional that keeps max's rule
    (the first argument unless the second is greater).
    ``print(_kernel(4).source)`` and ``print(_kernel(4, rates).source)``
    show the generated text. The source grows linearly with n: building
    takes about 2 ms for n = 4 and 0.17 s for n = 500, and about 3 ms for
    n = 4 or 5 with rates (2-core Xeon, Python 3.11), once per key and
    process, on first use.
    """

    def listed(pattern):
        # the trailing comma makes a 1-component tuple or unpacking
        return ", ".join(pattern.format(i=i) for i in range(n)) + ("," if n == 1 else "")

    def weighted(row):
        # a zero weight (B1, E1) leaves its stage out
        return " + ".join("%r * k%d_{i}" % (w, s) for s, w in enumerate(row) if w)

    def evaluate(out, t, inputs, fail):
        # lines setting the locals <out>_i to f(t, x), where ``inputs`` is
        # the pattern of x's component {i}; a failed stage returns ``fail``
        outputs = listed(out + "_{i}")
        if rates is None:
            body = "        k = fun(%s, (%s))" % (t, listed(inputs))
            return [_STAGE.format(body=body, total="sum(k)", parts="k", fail=fail), "    %s = k" % outputs]
        # the field reads the stage input from the model's state names
        lines = ["    %s = %s" % (_STATE[i], inputs.format(i=i)) for i in range(n)]
        body = "\n".join("        " + line for line in _field_lines(n, rates, out + "_{i}"))
        total = " + ".join("%s_%d" % (out, i) for i in range(n))
        return lines + [_STAGE.format(body=body, total=total, parts="(%s)" % outputs, fail=fail)]

    stage = ["def stage(t, y):", "    %s = y" % listed("y_{i}")]
    stage += evaluate("k", "t", "y_{i}", None)
    stage.append("    return (%s)" % listed("k_{i}"))
    step = [
        "def step(t, y, k0, h, atol, rtol):",
        "    %s = y" % listed("y_{i}"),
        "    %s = k0" % listed("k0_{i}"),
    ]
    for s in range(1, 6):
        inputs = "y_{i} + h * (%s)" % weighted(_A[s - 1])
        step += evaluate("k%d" % s, "t + %r * h" % _C[s - 1] if s < 5 else "t + h", inputs, s)
    z = "    z_{i} = y_{i} + h * (%s)" % weighted(_B)
    step += [z.format(i=i) for i in range(n)]
    step.append("    y_new = (%s)" % listed("z_{i}"))
    step += evaluate("k6", "t + h", "z_{i}", 6)
    e = "    e_{i} = h * (%s) / (atol + rtol * (w if w > u else u))" % weighted(_E)
    for i in range(n):
        step += ["    u = abs(y_%d)" % i, "    w = abs(z_%d)" % i, e.format(i=i)]
    # one statement per component: a chained sum nests n deep, and the
    # compiler's recursion limit caps that at a few thousand
    step.append("    acc = e_0 * e_0")
    step += ["    acc += e_%d * e_%d" % (i, i) for i in range(1, n)]
    step.append("    return y_new, (%s), acc" % listed("k6_{i}"))

    if rates is None:
        args, filename = "fun", "<dp5 kernel, n = %d>" % n
    else:
        args = ", ".join(_COEFFICIENTS + ("b1", "z1", "b2", "z2", "rate1", "rate2"))
        filename = "<dp5 kernel, n = %d, F1 = %s, F2 = %s>" % ((n,) + rates)
    body = "\n".join(stage + step + ["return stage, step"]).split("\n")
    lines = ["def _bind_kernel(%s):" % args] + ["    " + line for line in body]
    return _compiled("_bind_kernel", lines, filename, globals())


def _initial_step(stage, y0, f0, t_end, rtol, atol, max_step):
    """Starting step from the standard two-probe heuristic."""
    n = len(y0)
    scale = [atol + rtol * abs(a) for a in y0]
    d0 = math.sqrt(sum((a / s) ** 2 for a, s in zip(y0, scale)) / n)
    d1 = math.sqrt(sum((b / s) ** 2 for b, s in zip(f0, scale)) / n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    f1 = stage(h0, [a + h0 * b for a, b in zip(y0, f0)])
    if f1 is None:
        return min(h0 * 1e-3, max_step, t_end)
    d2 = math.sqrt(sum(((c - b) / s) ** 2 for b, c, s in zip(f0, f1, scale)) / n) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, max_step, t_end)


def _hermite(times, states, slopes, samples):
    """Cubic Hermite dense output at sorted, unique ``samples`` over each
    accepted step's (t, y, f), the start first: a sample reads the first step
    ending at or within 1e-12*max(1, |t|) past it, a sample at 0 the start,
    and samples past the last step are dropped. Returns (times, states)."""
    t = np.array(times, float)
    y = np.array(states, float)
    f = np.array(slopes, float)
    first = np.count_nonzero(samples <= 0.0)  # at most one, as samples are unique
    ends = t[1:] + 1e-12 * np.maximum(1.0, np.abs(t[1:]))
    ts = samples[first:]
    k = np.searchsorted(ends, ts)
    ts, k = ts[k < ends.size], k[k < ends.size]
    # keep this operation order: regrouping the weights moves samples in their last bits
    h = t[k + 1] - t[k]
    theta = (ts - t[k]) / h
    t2 = theta * theta
    t3 = t2 * theta
    w0 = (2.0 * t3 - 3.0 * t2 + 1.0)[:, None]
    w1 = ((t3 - 2.0 * t2 + theta) * h)[:, None]
    w2 = (-2.0 * t3 + 3.0 * t2)[:, None]
    w3 = ((t3 - t2) * h)[:, None]
    dense = w0 * y[k] + w1 * f[k] + w2 * y[k + 1] + w3 * f[k + 1]
    return np.concatenate([t[:first], ts]), np.concatenate([y[:first], dense])


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
    Events recorded: entry into the box {S <= S0, V1 <= V10}, read off the
    accepted steps whether or not the run is sampled, and a tolerance
    failure if a component leaves the nonnegative band.

    The stepper runs the binding of ``_kernel(n, rates)``, whose stage and
    trial step have the model's field and the built-in rates written in; a
    custom rate is called as its ``scalar_rate()``. It gives the bits of
    the generic binding on ``bound_field`` of the same rates.
    """
    opts = opts or IntegratorOptions()
    y0 = _as_array(x0)
    if y0.ndim != 1 or len(y0) not in (4, 5):
        raise ValueError("state vector must have 4 or 5 components")
    if not np.all(np.isfinite(y0)) or np.any(y0 < 0.0):
        raise DomainError("initial state must be finite and componentwise >= 0")
    track_r = y0.shape[0] == 5

    rates = tuple(_RATE_TEXTS.get(inc.family, _RATE_CALL) for inc in (inc1, inc2))
    stage, step = _kernel(len(y0), rates)(
        *(getattr(p, name) for name in _COEFFICIENTS),
        inc1.beta, inc1.zeta, inc2.beta, inc2.zeta, inc1.scalar_rate(), inc2.scalar_rate(),
    )
    raw = _dp5(
        stage, step, y0.tolist(), opts.t_end, opts.rtol, opts.atol, opts.max_step, opts.sample_times
    )

    events: List[TrajectoryEvent] = []
    step_times, step_states = raw.steps
    i0 = _omega1_entry(step_states, p)
    if i0 is not None:
        events.append(
            TrajectoryEvent(
                float(step_times[i0]),
                "entered_omega1",
                "S <= %.6g and V1 <= %.6g" % (p.susceptible_cap, p.vaccinated_cap),
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
        events=events,
        tracks_recovered=track_r,
        stats=raw.stats,
        model=(p, inc1, inc2),
    )


def _first(mask: np.ndarray, start: int = 0) -> Optional[int]:
    """Index of the first True in ``mask`` at or after ``start``, or None."""
    hits = np.nonzero(mask[start:])[0]  # np.flatnonzero wraps this at ~60% more per short scan
    return start + int(hits[0]) if hits.size else None


def _omega1_entry(states: np.ndarray, p: ModelParams) -> Optional[int]:
    """Index of the first state in the box {S <= S0, V1 <= V10}, or None."""
    return _first((states[:, 0] <= p.susceptible_cap) & (states[:, 1] <= p.vaccinated_cap))


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

    Only the states of ``traj`` are checked: for a sampled run, entry times
    read the first sample inside, and an exit and return between two
    samples goes unseen.
    """
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    N = traj.states[:, :4].sum(axis=1)
    S, V1 = traj.states[:, 0], traj.states[:, 1]
    cap = p.population_cap

    i0 = _first(N <= cap)
    j = None if i0 is None else _first(N > cap * (1.0 + 1e-6), i0)
    first_omega_violation = None if j is None else (float(traj.times[j]), float(N[j]))

    i1 = _omega1_entry(traj.states, p)
    S_bad = S > p.susceptible_cap * (1.0 + 1e-6)
    j = None if i1 is None else _first(S_bad | (V1 > p.vaccinated_cap * (1.0 + 1e-6)), i1)
    first_omega1_violation = None
    if j is not None:
        name, value = ("S", S[j]) if S_bad[j] else ("V1", V1[j])
        first_omega1_violation = (float(traj.times[j]), name, float(value))

    final_total = float(N[-1])
    return InvarianceReport(
        population_cap=cap,
        entered_omega_at=None if i0 is None else float(traj.times[i0]),
        entered_omega1_at=None if i1 is None else float(traj.times[i1]),
        first_omega_violation=first_omega_violation,
        first_omega1_violation=first_omega1_violation,
        final_total=final_total,
        final_total_ok=final_total <= cap * (1.0 + 1e-3),
    )


def detect_convergence(
    traj: Trajectory, candidates, opts: Optional[IntegratorOptions] = None
) -> Optional[TrajectoryEvent]:
    """Declare convergence to the nearest certified equilibrium, if any.

    Requires the vector-field norm, evaluated at the stored states of the
    tail window of a trajectory from ``integrate``, to stay below
    convergence_tol there, and the final state to sit within relative 1e-3
    of a candidate. On success the event is appended to the trajectory and
    returned.
    """
    opts = opts or IntegratorOptions()
    if not candidates:
        return None
    for c in candidates:
        require_certified(c)
    if traj.model is None:
        raise ValueError("convergence needs the model of a trajectory from integrate")
    t_last = float(traj.times[-1])
    tail = traj.times >= t_last - opts.tail_window
    if not np.all(field_norms(*traj.model, traj.states[tail]) < opts.convergence_tol):
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
