"""The generated step loop against a reference stepper.

``reference_dp5`` is the DP5 loop written out in Python: one trial step per
attempt, every stage through the binding's ``stage``, the controller with
the builtins min, max, abs and isfinite. ``simulate._kernel`` generates the
same loop as one function, ``run``, with the stages inlined and those
builtins written as conditionals. Every run below goes through both, and
they must agree bit for bit: times, states, stored slopes, samples, stats,
the negative abort, and the message and state of an IntegrationError.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import same_bits
from twostrain import simulate
from twostrain.benchmarks import EXAMPLE_IDS, build_scenario
from twostrain.errors import DomainError, IntegrationError
from twostrain.incidence import IncidenceSpec
from twostrain.model import ModelParams, State, vector_field
from twostrain.simulate import IntegratorOptions, IntegratorStats, RawIntegration, adaptive_rk45, integrate


def weighted(row, stages, i):
    """The sum of w * k[i] over the nonzero weights of ``row``, in order."""
    total = None
    for w, k in zip(row, stages):
        if w:
            total = w * k[i] if total is None else total + w * k[i]
    return total


def reference_step(stage, t, y, k0, h, atol, rtol):
    """One trial step of size h from (t, y), with k0 = f(t, y): (y_new, k6,
    acc), acc the sum of squares of the scaled error components, or the
    number of evaluations made when a stage fails."""
    n = len(y)
    stages = [k0]
    for s in range(1, 7):
        row = simulate._A[s - 1] if s < 6 else simulate._B
        x = tuple(y[i] + h * weighted(row, stages, i) for i in range(n))
        k = stage(t + simulate._C[s - 1] * h if s < 5 else t + h, x)
        if k is None:
            return s
        stages.append(k)
    acc = None
    for i in range(n):
        e = h * weighted(simulate._E, stages, i) / (atol + rtol * max(abs(y[i]), abs(x[i])))
        acc = e * e if acc is None else acc + e * e
    return x, stages[6], acc


def reference_dp5(stage, y0, t_end, rtol, atol, max_step, sample_times, nonnegative=True):
    """``simulate._dp5`` with its step loop written out, one attempt at a time."""
    y = tuple(float(v) for v in y0)
    n = len(y)
    t = 0.0
    f = stage(t, y)
    if f is None:
        raise IntegrationError("right-hand side failed at the initial state", t, np.array(y))
    h = simulate._initial_step(stage, y, f, t_end, rtol, atol, max_step)
    times, states, slopes = [t], [y], [f]
    err_prev = 1.0
    negative_abort = None
    evals, accepted, rejected, clamps, retries = 2, 0, 0, 0, 0

    for _ in range(simulate._MAX_STEPS):
        if t >= t_end:
            break
        h = min(h, max_step, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)) and h < t_end - t:
            raise IntegrationError("step size underflow at t = %g" % t, t, np.array(y))
        trial = reference_step(stage, t, y, f, h, atol, rtol)
        if type(trial) is int:
            evals += trial
            rejected += 1
            h *= simulate._MIN_FACTOR
            continue
        evals += 6
        y_new, f_new, acc = trial
        err = math.sqrt(acc / n)
        if not math.isfinite(err) or err > 1.0:
            rejected += 1
            factor = simulate._MIN_FACTOR
            if math.isfinite(err):
                factor = max(simulate._MIN_FACTOR, simulate._SAFETY * err ** (-0.2))
            h *= min(1.0, factor)
            continue
        t_new = t + h
        if nonnegative:
            floor = min(y_new)
            if floor <= -atol:
                j = y_new.index(floor)
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
                    raise IntegrationError("right-hand side failed after clamping at t = %g" % t_new, t, np.array(y))
        accepted += 1
        times.append(t_new)
        states.append(y_new)
        slopes.append(f_new)
        if err == 0.0:
            factor = simulate._MAX_FACTOR
        else:
            factor = simulate._SAFETY * err ** (-simulate._PI_ALPHA) * err_prev ** simulate._PI_BETA
            factor = min(simulate._MAX_FACTOR, max(simulate._MIN_FACTOR, factor))
        err_prev = max(err, 1e-10)
        t, y, f = t_new, y_new, f_new
        h *= factor
    else:
        raise IntegrationError("step limit exceeded", t, np.array(y))

    steps = np.array(times, float), np.array(states, float)
    sampled = steps
    if sample_times is not None:
        sampled = simulate._hermite(*steps, slopes, np.unique(np.asarray(sample_times, float)))
    return RawIntegration(
        times=sampled[0],
        states=sampled[1],
        negative_abort=negative_abort,
        stats=IntegratorStats(evals, accepted, rejected, clamps, retries),
        steps=steps,
    )


def outcome(call):
    """What ``call()`` returned, or the IntegrationError it raised."""
    try:
        return call()
    except IntegrationError as error:
        return error


@pytest.fixture
def checked():
    """Route every ``_dp5`` call through the reference as well and assert that
    both give the same bits; yields the list of the runs compared."""
    dp5, runs = simulate._dp5, []

    def both(stage, run, *args):
        got = outcome(lambda: dp5(stage, run, *args))
        ref = outcome(lambda: reference_dp5(stage, *args))
        assert type(got) is type(ref)
        if isinstance(ref, IntegrationError):
            assert str(got) == str(ref) and got.last_time == ref.last_time
            assert same_bits(got.last_state, ref.last_state)
            runs.append(ref)
            raise got
        assert same_bits(got.times, ref.times) and same_bits(got.states, ref.states)
        assert all(same_bits(a, b) for a, b in zip(got.steps, ref.steps))
        assert got.stats == ref.stats and got.negative_abort == ref.negative_abort
        runs.append(ref)
        return got

    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulate, "_dp5", both)
        yield runs


def refuses_negative_infectives(inc):
    def rate(S, I):
        if np.any(np.asarray(I) < 0.0):
            raise DomainError("negative infectives")
        return inc.rate(S, I)

    return IncidenceSpec.custom(rate)


class TestModelRuns:
    def test_criterion_9_starts(self, checked):
        # 10 starts per example, drawn as criterion 9 draws them
        for seed, example_id in enumerate(EXAMPLE_IDS, start=909):
            sc = build_scenario(example_id)
            rng = np.random.default_rng(seed)
            for _ in range(10):
                shares = rng.exponential(1.0, 4)
                x0 = shares / shares.sum() * rng.uniform(0.0, 1.0) * sc.params.population_cap
                integrate(sc.params, sc.incidence1, sc.incidence2, x0, sc.integrator)
        assert len(checked) == 40

    @pytest.mark.parametrize("example_id", EXAMPLE_IDS)
    def test_examples_with_and_without_R_and_samples(self, example_id, checked):
        sc = build_scenario(example_id)
        start = sc.initial.as_array()
        samples = tuple(np.linspace(0.0, sc.integrator.t_end, 137))
        for y0 in (start, np.append(start, 25.0)):
            for opts in (sc.integrator, dataclasses.replace(sc.integrator, sample_times=samples)):
                traj = integrate(sc.params, sc.incidence1, sc.incidence2, y0, opts)
                assert traj.states.shape == (len(traj.times), len(y0))
        assert len(checked) == 4

    def test_clamping_run(self, checked):
        p = ModelParams(Lambda=5.77, mu=0.02, r=0.01, k=0.417, gamma1=0.557, gamma2=0.598, v1=0.0, v2=0.0)
        inc1, inc2 = IncidenceSpec.bilinear(0.23), IncidenceSpec.saturated_i2(0.405, 1.7e-4)
        opts = IntegratorOptions(rtol=0.0076, atol=0.023, t_end=20.0)
        traj = integrate(p, inc1, inc2, (71.55, 19.7, 26.58, 32.48), opts)
        assert traj.stats.clamps > 0

    def test_negative_abort(self, checked):
        # F1(S, 0) = -1e-3 < 0 pushes I1 out of the orthant on the first step
        sc = build_scenario("6.1")
        inc1 = IncidenceSpec.custom(lambda S, I: 2e-4 * S * I - 1e-3)
        traj = integrate(sc.params, inc1, sc.incidence2, State(500.0, 500.0, 0.0, 50.0), IntegratorOptions(t_end=50.0))
        assert checked[0].negative_abort[1] == 2 and traj.stats.accepted_steps == 0

    def test_rate_refusing_negative_infectives(self, checked):
        sc = build_scenario("6.1")
        traj = integrate(sc.params, refuses_negative_infectives(sc.incidence1), sc.incidence2, sc.initial, sc.integrator)
        assert traj.stats.rejected_steps > 100

    @pytest.mark.parametrize("strains", [(1,), (2,), (1, 2)])
    def test_custom_rates(self, strains, checked):
        sc = build_scenario("6.3")
        incs = [sc.incidence1, sc.incidence2]
        for j in strains:
            incs[j - 1] = IncidenceSpec.custom(incs[j - 1].rate)
        integrate(sc.params, *incs, sc.initial, sc.integrator)
        assert len(checked) == 1


class TestGenericRuns:
    def test_one_component(self, checked):
        adaptive_rk45(lambda t, y: math.cos(t) * y, [1.0], 60.0, rtol=1e-3, atol=1e-3)
        samples = np.linspace(0.0, 3.0, 31)
        adaptive_rk45(lambda t, y: -y, [1.0], 3.0, max_step=0.1, sample_times=samples)
        assert len(checked) == 2

    def test_thousands_of_components(self, checked):
        n = 3500
        rates = np.linspace(0.5, 1.5, n)
        adaptive_rk45(lambda t, y: -rates * y, np.ones(n), 0.5, rtol=1e-6, atol=1e-9)
        assert checked[0].stats.accepted_steps > 3

    def test_clamps_retries_and_abort(self, checked):
        # a constant decay through zero: 8 halved retries, a clamp, an abort
        raw = adaptive_rk45(lambda t, y: (-1.0,), [0.6005], 2.0, atol=1e-3, max_step=0.25)
        assert raw.stats.negative_retries == 8 and raw.stats.clamps == 1 and raw.negative_abort

    def test_abort_names_the_first_of_tied_components(self, checked):
        raw = adaptive_rk45(lambda t, y: (-1.0, -1.0), [0.5, 0.5], 2.0)
        assert raw.negative_abort[1] == 0

    def test_jump_in_the_field(self, checked):
        # the first steps across t = 1 have error norms far above 1, so a
        # rejected step shrinks by the floor factor; a jump to 1e300 gives
        # infinite norms until the step underflows
        raw = adaptive_rk45(lambda t, y: (0.0,) if t < 1.0 else (1e3,), [1.0], 1.5, rtol=1e-3, atol=1e-3)
        assert raw.stats.rejected_steps > 0 and raw.times[-1] == 1.5
        with pytest.raises(IntegrationError, match="underflow"):
            adaptive_rk45(lambda t, y: (0.0,) if t < 1.0 else (1e300,), [1.0], 1.5)
        assert len(checked) == 2

    def test_signed_states(self, checked):
        adaptive_rk45(lambda t, y: (y[1], -y[0]), [1.0, 0.0], 2.0 * math.pi, nonnegative=False)

    def test_failing_stages(self, checked):
        def nan_below_zero(t, y):
            return (math.nan,) if y[0] < 0.0 else (-y[0],)

        raw = adaptive_rk45(nan_below_zero, [1.0], 40.0, rtol=1e-6, atol=1e-8, nonnegative=False)
        assert raw.stats.rejected_steps > 0

    def test_underflow_error(self, checked):
        def blows_up(t, y):
            if t >= 1.0:
                raise ArithmeticError("blow-up")
            return (1.0,)

        with pytest.raises(IntegrationError, match="underflow"):
            adaptive_rk45(blows_up, [0.5], 2.0)
        assert len(checked) == 1

    def test_failure_after_a_clamp(self, checked):
        def undefined_at_zero(t, y):
            if y[0] == 0.0:
                raise ArithmeticError("undefined")
            return (-1.0,)

        with pytest.raises(IntegrationError, match="after clamping") as info:
            adaptive_rk45(undefined_at_zero, [0.6005], 2.0, atol=1e-3, max_step=0.25)
        assert info.value.last_state[0] > 0.0 and len(checked) == 1

    def test_model_field_through_the_generic_binding(self, checked):
        sc = build_scenario("6.4")
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
        adaptive_rk45(lambda t, y: vector_field(p, inc1, inc2, y), sc.initial.as_array(), 300.0, rtol=1e-3, atol=1e-3)
        assert checked[0].stats.accepted_steps > 20
