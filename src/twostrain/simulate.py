"""Adaptive time integration and trajectory diagnostics.

The stepper is an embedded Dormand-Prince 5(4) pair with FSAL and a PI
step-size controller. It is hand-rolled rather than delegated because the
surrounding contracts are not standard solver behavior: accepted states are
clamped at zero within an atol-sized band, a component falling below -atol
is a hard tolerance failure that stops the run, the final time is landed
exactly, and entry into the invariant box is recorded as an event.

The whole step loop is one function on Python floats, generated with its
right-hand side for the state's number of components (see ``_kernel``):
``adaptive_rk45`` binds it to its ``rhs``, and ``integrate`` to the
model's field, written into every stage.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from math import isfinite, sqrt  # used by the generated code
from typing import List, Optional, Sequence

import numpy as np

from .errors import DomainError, IntegrationError, _require_positive
from .incidence import IncidenceSpec
from .model import ModelParams, State, field_norms, require_certified
from .model import _COEFFICIENTS, _STATE, _as_array, _compiled, _field_lines, _rate_text

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
        _require_positive("integrator options", {n: getattr(self, n) for n in names}, inf_ok=("max_step",))


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

    ``t_end`` must be finite and >= 0, ``atol`` finite and > 0, ``rtol``
    finite and >= 0 and ``max_step`` > 0, possibly infinite; a ValueError
    names every input that is not, before any evaluation.

    Every accepted step is stored; given ``sample_times``, the run returns
    instead the states at those times, sorted and unique, interpolated over
    the stored steps after the run by ``_hermite``, which sets the edge rules.
    """
    options = dict(t_end=t_end, rtol=rtol, atol=atol, max_step=max_step)
    _require_positive("integrator options", options, zero_ok=("t_end", "rtol"), inf_ok=("max_step",))
    n = len(y0)
    if n == 0:
        raise ValueError("the state needs at least one component")

    def fun(t, y):
        f = np.array(rhs(t, np.array(y)), float, ndmin=1).tolist()
        if len(f) != n:
            raise ValueError("rhs returned %d components for a state of %d" % (len(f), n))
        return f

    return _dp5(*_kernel(n)(fun), y0, t_end, rtol, atol, max_step, sample_times, nonnegative)


def _dp5(stage, run, y0, t_end, rtol, atol, max_step, sample_times, nonnegative=True) -> RawIntegration:
    """The stepper behind ``adaptive_rk45`` and ``integrate``, on Python floats.

    ``stage`` and ``run`` are one binding of ``_kernel(len(y0), ...)``:
    ``stage(t, y)`` gives f(t, y) at the start and for the first-step probe,
    and ``run`` takes every step from there. Each accepted step's (t, y, f)
    is kept; ``_hermite`` maps them to ``sample_times`` after the run.
    """
    y = tuple(float(v) for v in y0)
    n = len(y)
    if sample_times is not None:
        samples = np.asarray(sample_times, float)
        if samples.ndim != 1 or not np.all((samples >= 0.0) & (samples <= t_end)):
            raise ValueError("sample_times must lie within [0, t_end]")

    f = stage(0.0, y)
    if f is None:
        raise IntegrationError("right-hand side failed at the initial state", 0.0, np.array(y))
    h = _initial_step(stage, y, f, t_end, rtol, atol, max_step)
    times, states, slopes, negative_abort, (evals, *counts) = run(
        y, f, h, t_end, rtol, atol, max_step, nonnegative
    )
    steps = np.array(times, float), np.array(states, float).reshape(-1, n)
    sampled = steps if sample_times is None else _hermite(*steps, slopes, np.unique(samples))
    return RawIntegration(
        times=sampled[0],
        states=sampled[1],
        negative_abort=negative_abort,
        stats=IntegratorStats(2 + evals, *counts),
        steps=steps,
    )


# One stage as indented source: {body} sets the stage output, and the stage
# fails when it raises an arithmetic or domain error or a component is not
# finite. The elementwise test runs only when the sum {total} is not
# finite, which an overflowing sum of finite parts can also be. ``_kernel``
# writes it into ``stage``, where a failed stage runs {fail} = ``return
# None``, and into each stage of the step loop, where it rejects the step.
_STAGE = """\
    try:
{body}
    except (ArithmeticError, DomainError):
        {fail}
    if not (isfinite({total}) or all(map(isfinite, {parts}))):
        {fail}"""


@functools.lru_cache(maxsize=None)
def _kernel(n: int, rates: Optional[tuple] = None):
    """The binder of ``_dp5``'s right-hand side and step loop for states of
    n components, built on first use. It returns ``(stage, run)``.

    ``stage(t, y)`` is f(t, y) as a tuple, or None when the stage fails
    (see ``_STAGE``). ``run(y, k0, h, t_end, rtol, atol, max_step,
    nonnegative)`` is the whole step loop from t = 0, with k0 = f(0, y) and
    h the first trial step: the trial stages, the error test, the PI
    controller, the negative retry and abort, the clamp band (whose
    re-evaluation calls ``stage``), and the step-size underflow and step
    limit, which raise IntegrationError with the last accepted state. It
    returns (times, states, slopes, negative_abort, (evals, accepted,
    rejected, clamps, retries)): the accepted steps' t, and their y and f
    as flat lists of n values per step, the start first; evals leaves out
    the two evaluations that precede the first step.

    With ``rates`` None, the cache key is n, the binder is ``bind(fun)``
    and each stage calls fun(t, y). With ``rates``, the two strains' rate
    texts (``model._rate_text``) and n = 4 or 5, the binder is
    ``bind(*model._COEFFICIENTS, b1, z1, b2, z2, rate1, rate2)``, as for
    ``model._field(rates)``, and each stage assigns the model's field
    (``model._field_lines``) to its output locals, so it makes no Python
    call for a built-in rate and calls ``rate<j>`` for a custom strain j.
    The bound values are closure cells, so one cached binder serves every
    parameter value, and it gives the bits of ``bind(fun)`` with fun =
    ``bound_field`` of the same rates.

    The source is generated from the tableau with every component written
    out and each weight a float literal, whose repr reads back exactly. y
    and each stage output are locals (``y_i`` and ``k<s>_i``) for the whole
    run, the last stage becoming the first of the next; each stage input is
    a per-component sum with the terms in tableau order, and the error sum
    adds the components in order. The loop's only builtin calls are
    ``sqrt`` once per attempt and the stage rule's ``isfinite``: min, max
    and abs are written as conditionals with their tie rules (the first
    argument unless a later one is strictly smaller or greater), and the
    error test ``not err <= 1.0`` is ``not isfinite(err) or err > 1.0``, as
    err = sqrt(acc/n) is >= 0 or NaN. ``print(_kernel(4).source)`` and
    ``print(_kernel(4, rates).source)`` show the generated text. The source
    grows linearly with n: building takes about 1.9 ms for n = 4 or 5 and
    0.13 s for n = 500, and 2.2-2.6 ms for n = 4 or 5 with rates (2-core
    Xeon, Python 3.11), once per key and process, on first use.
    """

    def listed(pattern):
        # the trailing comma makes a 1-component tuple or unpacking
        return ", ".join(pattern.format(i=i) for i in range(n)) + ("," if n == 1 else "")

    def weighted(row):
        # a zero weight (B1, E1) leaves its stage out
        return " + ".join("%r * k%d_{i}" % (w, s) for s, w in enumerate(row) if w)

    def evaluate(out, t, inputs, fail):
        # lines setting the locals <out>_i to f(t, x), where ``inputs`` is
        # the pattern of x's component {i}; a failed stage runs ``fail``
        outputs = listed(out + "_{i}")
        if rates is None:
            body = "        k = fun(%s, (%s))" % (t, listed(inputs))
            return [_STAGE.format(body=body, total="sum(k)", parts="k", fail=fail), "    %s = k" % outputs]
        # the field reads the stage input from the model's state names
        lines = ["    %s = %s" % (_STATE[i], inputs.format(i=i)) for i in range(n)]
        body = "\n".join("        " + line for line in _field_lines(n, rates, out + "_{i}"))
        total = " + ".join("%s_%d" % (out, i) for i in range(n))
        return lines + [_STAGE.format(body=body, total=total, parts="(%s)" % outputs, fail=fail)]

    def each(*lines):
        # the lines for each component in turn
        return [line.format(i=i) for i in range(n) for line in lines]

    y, z = "(%s)" % listed("y_{i}"), "(%s)" % listed("z_{i}")
    # max(1.0, abs(t)), as t >= 0
    t_scale = "(t if t > 1.0 else 1.0)"
    stage = ["def stage(t, y):", "    %s = y" % listed("y_{i}")]
    stage += evaluate("k", "t", "y_{i}", "return None")
    stage.append("    return (%s)" % listed("k_{i}"))

    # the loop body, indented one level less than it runs
    loop = [
        "    if t >= t_end:",
        "        break",
        # h = min(h, max_step, t_end - t)
        "    if max_step < h:",
        "        h = max_step",
        "    if t_end - t < h:",
        "        h = t_end - t",
        # a step under the floor underflows only if it falls short of t_end:
        # a horizon nearer than the floor is reached in one clipped step
        "    if h < 1e-14 * %s and h < t_end - t:" % t_scale,
        '        raise IntegrationError("step size underflow at t = %%g" %% t, t, np.array(%s))' % y,
    ]
    # a failed stage s rejects the step after s evaluations
    fail = "evals += {}; rejected += 1; h *= %r; continue" % _MIN_FACTOR
    for s in range(1, 6):
        inputs = "y_{i} + h * (%s)" % weighted(_A[s - 1])
        loop += evaluate("k%d" % s, "t + %r * h" % _C[s - 1] if s < 5 else "t + h", inputs, fail.format(s))
    loop += each("    z_{i} = y_{i} + h * (%s)" % weighted(_B))
    loop += evaluate("k6", "t + h", "z_{i}", fail.format(6))
    # u, w = abs(y_i), abs(z_i)
    e = "    e_{i} = h * (%s) / (atol + rtol * (w if w > u else u))" % weighted(_E)
    loop += each("    u = -y_{i} if y_{i} < 0.0 else y_{i}", "    w = -z_{i} if z_{i} < 0.0 else z_{i}", e)
    # one statement per component: a chained sum nests n deep, and the
    # compiler's recursion limit caps that at a few thousand
    loop.append("    acc = e_0 * e_0")
    loop += ["    acc += e_%d * e_%d" % (i, i) for i in range(1, n)]
    loop += [
        "    evals += 6",
        "    err = sqrt(acc / %d)" % n,
        "    if not err <= 1.0:",
        "        rejected += 1",
        # min(1.0, max(_MIN_FACTOR, factor)), and _MIN_FACTOR for a non-finite err
        "        factor = %r * err ** %r" % (_SAFETY, -0.2),
        "        h *= factor if factor > %r else %r" % (_MIN_FACTOR, _MIN_FACTOR),
        "        continue",
        # accepted by the error test; now enforce feasibility
        "    t_new = t + h",
        "    if nonnegative:",
        # floor, j = min(y_new), y_new.index(floor)
        "        floor = z_0",
        "        j = 0",
    ]
    loop += ["        if z_%d < floor: floor = z_%d; j = %d" % (i, i, i) for i in range(1, n)]
    loop += [
        "        if floor <= -atol:",
        # a component pinned at zero with outward flow cannot be rescued by
        # a smaller step: the continuous solution leaves the orthant, so the
        # violation is real; otherwise retry, aborting only if it survives
        # down to the minimal step
        "            if (%s[j] <= 0.0 and (%s)[j] < 0.0) or h < 1e-13 * %s:" % (y, listed("k0_{i}"), t_scale),
        "                negative_abort = (t_new, j)",
        "                break",
        "            retries += 1",
        "            h *= 0.5",
        "            continue",
        "        if floor < 0.0:",
        "            clamps += 1",
        "            evals += 1",
    ]
    loop += each("            if z_{i} < 0.0: z_{i} = 0.0")
    loop += [
        "            f_new = stage(t_new, %s)" % z,
        "            if f_new is None:",
        '                raise IntegrationError("right-hand side failed after clamping at t = %%g" %% t_new, t, np.array(%s))'
        % y,
        "            %s = f_new" % listed("k6_{i}"),
        "    accepted += 1",
        "    times += (t_new,)",
        "    states += %s" % z,
        "    slopes += (%s)" % listed("k6_{i}"),
        "    if err == 0.0:",
        "        factor = %r" % _MAX_FACTOR,
        "    else:",
        "        factor = %r * err ** %r * err_prev ** %r" % (_SAFETY, -_PI_ALPHA, _PI_BETA),
        # min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        "        if not factor > %r:" % _MIN_FACTOR,
        "            factor = %r" % _MIN_FACTOR,
        "        elif not factor < %r:" % _MAX_FACTOR,
        "            factor = %r" % _MAX_FACTOR,
        # max(err, 1e-10)
        "    err_prev = 1e-10 if 1e-10 > err else err",
        "    t = t_new",
    ]
    loop += each("    y_{i} = z_{i}") + each("    k0_{i} = k6_{i}") + ["    h *= factor"]
    run = [
        "def run(y, k0, h, t_end, rtol, atol, max_step, nonnegative):",
        "    %s = y" % listed("y_{i}"),
        "    %s = k0" % listed("k0_{i}"),
        "    t = 0.0",
        "    times, states, slopes = [t], list(y), list(k0)",
        "    err_prev = 1.0",
        "    negative_abort = None",
        "    evals = accepted = rejected = clamps = retries = 0",
        "    for _ in range(%d):" % _MAX_STEPS,
    ]
    run += ["    " + line for line in "\n".join(loop).split("\n")]
    run += [
        "    else:",
        '        raise IntegrationError("step limit exceeded", t, np.array(%s))' % y,
        "    return times, states, slopes, negative_abort, (evals, accepted, rejected, clamps, retries)",
    ]

    if rates is None:
        args, filename = "fun", "<dp5 kernel, n = %d>" % n
    else:
        args = ", ".join(_COEFFICIENTS + ("b1", "z1", "b2", "z2", "rate1", "rate2"))
        filename = "<dp5 kernel, n = %d, F1 = %s, F2 = %s>" % ((n,) + rates)
    body = "\n".join(stage + run + ["return stage, run"]).split("\n")
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
    accepted step's (t, y, f), the start first, the f in one flat sequence:
    a sample reads the first step ending at or within 1e-12*max(1, |t|) past
    it, a sample at 0 the start, and samples past the last step are dropped.
    Returns (times, states)."""
    t = np.array(times, float)
    y = np.array(states, float)
    f = np.array(slopes, float).reshape(y.shape)
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
    step loop have the model's field and the built-in rates written in; a
    custom rate is called as its ``scalar_rate()``. It gives the bits of
    the generic binding on ``bound_field`` of the same rates.
    """
    opts = opts or IntegratorOptions()
    y0 = _as_array(x0)
    if not np.all(np.isfinite(y0)) or np.any(y0 < 0.0):
        raise DomainError("initial state must be finite and componentwise >= 0")
    track_r = y0.shape[0] == 5

    stage, run = _kernel(len(y0), (_rate_text(inc1), _rate_text(inc2)))(
        *(getattr(p, name) for name in _COEFFICIENTS),
        inc1.beta, inc1.zeta, inc2.beta, inc2.zeta, inc1.scalar_rate(), inc2.scalar_rate(),
    )
    raw = _dp5(
        stage, run, y0.tolist(), opts.t_end, opts.rtol, opts.atol, opts.max_step, opts.sample_times
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
        events.append(
            TrajectoryEvent(
                float(t_abort),
                "tolerance_failure",
                "component %s fell below -atol" % _STATE[comp],
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
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
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
