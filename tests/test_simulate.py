"""Adaptive integrator, invariance monitoring, and trajectory diagnostics.

The stepper is exercised on scalar problems with closed-form solutions
before anything model-specific, then the model-level wrapper is checked
against the trapping-box properties and the certified equilibria.
"""

import collections
import dataclasses
import gc
import math
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.rk import RK45

from conftest import same_bits, trapping_box_starts
from twostrain import incidence, model, simulate
from twostrain.benchmarks import EXAMPLE_IDS, build_scenario
from twostrain.equilibria import (
    Equilibrium,
    disease_free,
    solve_all,
    solve_strain1,
    solve_strain2,
)
from twostrain.errors import DomainError, IntegrationError, PreconditionError
from twostrain.incidence import IncidenceSpec
from twostrain.model import PARAM_NAMES, ModelParams, State, field_norms, jacobian, vector_field
from twostrain.simulate import (
    IntegratorOptions,
    IntegratorStats,
    Trajectory,
    adaptive_rk45,
    detect_convergence,
    integrate,
    monitor_invariance,
)

BASE = dict(Lambda=200.0, mu=0.02, gamma1=0.07, gamma2=0.09, v1=0.1, v2=0.1, k=2e-5)
START = State(500.0, 500.0, 50.0, 50.0)


def params(r=0.1, **overrides):
    merged = dict(BASE, r=r)
    merged.update(overrides)
    return ModelParams(**merged)


def setup_low_transmission():
    p = params()
    return p, IncidenceSpec.saturated_i2(3e-5, 0.7), IncidenceSpec.saturated_s(2e-4, 0.9)


def setup_strain1_dominant():
    p = params()
    return p, IncidenceSpec.bilinear(2e-4), IncidenceSpec.saturated_s(2e-4, 0.9)


def setup_strain2_dominant():
    p = params()
    return p, IncidenceSpec.saturated_i2(3e-5, 0.7), IncidenceSpec.saturated_s(2e-4, 0.001)


def setup_coexistence():
    p = params(r=0.01)
    return p, IncidenceSpec.saturated_i2(2e-4, 1e-4), IncidenceSpec.saturated_s(2e-4, 1e-4)


class TestStepper:
    def test_scalar_decay_matches_closed_form(self):
        raw = adaptive_rk45(lambda t, y: -y, [1.0], 5.0, rtol=1e-10, atol=1e-12)
        assert raw.negative_abort is None
        assert raw.times[-1] == 5.0
        assert raw.states[-1, 0] == pytest.approx(math.exp(-5.0), rel=1e-9)

    def test_times_never_overshoot_and_respect_max_step(self):
        raw = adaptive_rk45(lambda t, y: -y, [1.0], 3.0, max_step=0.1)
        assert np.all(raw.times <= 3.0)
        assert raw.times[-1] == 3.0
        assert np.all(np.diff(raw.times) <= 0.1 + 1e-12)

    @pytest.mark.parametrize("t_end", [1e-15, 1e-300, 5e-324])
    def test_horizon_below_the_underflow_floor_is_one_step(self, t_end):
        # the floor 1e-14*max(1, |t|) refuses a shrinking step, not a
        # horizon nearer than it
        raw = adaptive_rk45(lambda t, y: -y, [1.0, 2.0], t_end)
        assert raw.times.tolist() == [0.0, t_end]
        assert raw.stats.accepted_steps == 1 and raw.stats.rejected_steps == 0
        assert np.allclose(raw.states[-1], [1.0, 2.0], rtol=1e-14)

    def test_dense_output_at_requested_times(self):
        samples = np.linspace(0.0, 4.0, 17)
        raw = adaptive_rk45(lambda t, y: -y, [2.0], 4.0, sample_times=samples)
        assert np.array_equal(raw.times, samples)
        assert np.allclose(raw.states[:, 0], 2.0 * np.exp(-samples), rtol=1e-7)

    def test_sample_times_come_back_sorted_and_unique(self):
        samples = [3.0, 0.5, 3.0, 0.0, 1.25, 0.5, 0.0]
        raw = adaptive_rk45(lambda t, y: -y, [2.0], 4.0, sample_times=samples)
        assert raw.times.tolist() == [0.0, 0.5, 1.25, 3.0]
        assert raw.states.shape == (4, 1)
        assert raw.states[0, 0] == 2.0
        assert np.allclose(raw.states[:, 0], 2.0 * np.exp(-raw.times), rtol=1e-7)

    def test_sample_at_zero_is_the_start_even_without_an_accepted_step(self):
        # the first trial step already crosses zero with outward flow, so the
        # run aborts before accepting a step; the sample at 0 is still stored
        raw = adaptive_rk45(lambda t, y: (-1.0,), [0.0], 1.0, sample_times=[0.5, 0.0, 0.0])
        assert raw.negative_abort is not None and raw.stats.accepted_steps == 0
        assert raw.times.tolist() == [0.0]
        assert raw.states.tolist() == [[0.0]]

    def test_zero_horizon_returns_the_start(self):
        raw = adaptive_rk45(lambda t, y: -y, [1.0], 0.0, sample_times=[0.0])
        assert raw.stats.accepted_steps == 0
        assert raw.times.tolist() == [0.0]
        assert raw.states.tolist() == [[1.0]]

    def test_samples_past_a_negative_abort_are_dropped(self):
        raw = adaptive_rk45(lambda t, y: (-1.0,), [0.5], 2.0, sample_times=[0.0, 0.25, 1.5])
        assert raw.negative_abort is not None
        assert raw.negative_abort[0] == pytest.approx(0.5, abs=1e-6)
        assert raw.times.tolist() == [0.0, 0.25]
        assert raw.states[0, 0] == 0.5
        assert raw.states[1, 0] == pytest.approx(0.25, abs=1e-12)

    def test_sample_times_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            adaptive_rk45(lambda t, y: -y, [1.0], 2.0, sample_times=[0.0, 3.0])

    def test_nan_sample_time_rejected(self):
        with pytest.raises(ValueError, match="within"):
            adaptive_rk45(lambda t, y: -y, [1.0], 2.0, sample_times=[0.5, math.nan])

    @pytest.mark.parametrize(
        "name, value",
        [
            ("t_end", math.nan),
            ("t_end", math.inf),
            ("t_end", -1.0),
            ("atol", math.nan),
            ("atol", math.inf),
            ("atol", 0.0),
            ("atol", -1e-10),
            ("rtol", math.nan),
            ("rtol", math.inf),
            ("rtol", -1e-8),
            ("max_step", math.nan),
            ("max_step", 0.0),
            ("max_step", -1.0),
        ],
    )
    def test_bad_inputs_are_refused_before_any_evaluation(self, name, value):
        # a NaN or infinite horizon or atol would spin to the step limit, a
        # zero atol divides by zero at a zero component and a negative one
        # retries without end
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y

        kwargs = dict(t_end=1.0, rtol=1e-8, atol=1e-10, max_step=math.inf)
        kwargs[name] = value
        with pytest.raises(ValueError, match="invalid integrator options: %s$" % name):
            adaptive_rk45(rhs, [1.0, 0.0], **kwargs)
        assert calls == []

    def test_every_bad_input_is_named(self):
        with pytest.raises(ValueError, match="options: t_end, rtol, atol$"):
            adaptive_rk45(lambda t, y: -y, [1.0], math.nan, rtol=-1.0, atol=0.0)

    def test_zero_rtol_and_infinite_max_step_are_valid(self):
        raw = adaptive_rk45(lambda t, y: -y, [1.0], 2.0, rtol=0.0, atol=1e-10, max_step=math.inf)
        assert raw.times[-1] == 2.0
        assert raw.states[-1, 0] == pytest.approx(math.exp(-2.0), rel=1e-8)

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError):
            adaptive_rk45(lambda t, y: -y, [], 1.0)

    def test_oscillator_needs_signed_states(self):
        # generic systems pass through negative values freely once the
        # nonnegative guard is off
        def rhs(t, y):
            return (y[1], -y[0])

        raw = adaptive_rk45(rhs, [1.0, 0.0], 2.0 * math.pi, nonnegative=False)
        assert np.min(raw.states[:, 0]) < -0.9
        assert raw.states[-1, 0] == pytest.approx(1.0, abs=1e-7)
        assert raw.states[-1, 1] == pytest.approx(0.0, abs=1e-7)

    def test_forced_crossing_stops_with_negative_abort(self):
        # constant decay pushes the component through zero in finite time;
        # the guard must stop the run there instead of stepping through
        raw = adaptive_rk45(lambda t, y: (-1.0,), [0.5], 2.0, atol=1e-10)
        assert raw.negative_abort is not None
        t_abort, comp = raw.negative_abort
        assert comp == 0
        assert t_abort == pytest.approx(0.5, abs=1e-6)
        assert np.all(raw.states >= 0.0)
        assert raw.times[-1] <= 0.5 + 1e-6

    def test_rhs_failure_at_start_raises(self):
        def rhs(t, y):
            return (float("nan"),)

        with pytest.raises(IntegrationError, match="initial state"):
            adaptive_rk45(rhs, [1.0], 1.0)

    def test_rhs_failure_later_underflows_with_last_state(self):
        def rhs(t, y):
            if t >= 1.0:
                raise ArithmeticError("blow-up")
            return (1.0,)

        with pytest.raises(IntegrationError) as info:
            adaptive_rk45(rhs, [0.5], 2.0)
        assert info.value.last_time == pytest.approx(1.0, abs=1e-6)
        assert info.value.last_state[0] == pytest.approx(1.5, abs=1e-6)


class TestIntegratorOptions:
    def test_defaults(self):
        opts = IntegratorOptions()
        assert opts.rtol == 1e-8 and opts.atol == 1e-10
        assert opts.t_end == 5000.0 and opts.max_step == math.inf

    def test_invalid_fields_are_named(self):
        with pytest.raises(ValueError) as info:
            IntegratorOptions(rtol=-1.0, t_end=0.0)
        assert "rtol" in str(info.value) and "t_end" in str(info.value)

    def test_frozen(self):
        with pytest.raises(Exception):
            IntegratorOptions().rtol = 1e-3

    def test_only_max_step_may_be_infinite(self):
        # an infinite horizon would spin to the step limit
        assert IntegratorOptions(max_step=math.inf).max_step == math.inf
        for name in ("rtol", "atol", "t_end", "convergence_tol", "tail_window"):
            for value in (math.inf, math.nan):
                with pytest.raises(ValueError, match=name):
                    IntegratorOptions(**{name: value})
        with pytest.raises(ValueError, match="max_step"):
            IntegratorOptions(max_step=math.nan)


class TestIntegrate:
    def test_rejects_bad_initial_states(self):
        p, inc1, inc2 = setup_low_transmission()
        with pytest.raises(DomainError):
            integrate(p, inc1, inc2, np.array([500.0, -1.0, 50.0, 50.0]))
        with pytest.raises(DomainError):
            integrate(p, inc1, inc2, np.array([500.0, np.nan, 50.0, 50.0]))
        with pytest.raises(ValueError, match="4 or 5"):
            integrate(p, inc1, inc2, np.array([500.0, 50.0, 50.0]))

    def test_states_stay_nonnegative_and_events_recorded(self):
        p, inc1, inc2 = setup_low_transmission()
        traj = integrate(p, inc1, inc2, START)
        assert np.all(traj.states >= 0.0)
        kinds = [e.kind for e in traj.events]
        assert "tolerance_failure" not in kinds
        # the start already satisfies S <= S0 and V1 <= V10
        omega1 = [e for e in traj.events if e.kind == "entered_omega1"]
        assert omega1 and omega1[0].time == 0.0

    def test_sampled_run_reads_the_omega1_entry_off_the_steps(self):
        sc = build_scenario("6.4")
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
        x0 = (2.0 * p.susceptible_cap, 1.5 * p.vaccinated_cap, 10.0, 10.0)
        full = integrate(p, inc1, inc2, x0, sc.integrator)
        opts = dataclasses.replace(sc.integrator, sample_times=(0.0, 1000.0, 5000.0))
        sampled = integrate(p, inc1, inc2, x0, opts)
        assert sampled.times.tolist() == [0.0, 1000.0, 5000.0]
        assert sampled.events == full.events
        (entry,) = [e for e in full.events if e.kind == "entered_omega1"]
        assert entry.time == pytest.approx(8.4779, abs=1e-4)
        # monitor_invariance checks only the samples it is given
        assert monitor_invariance(sampled, p).entered_omega1_at == 1000.0

    @pytest.mark.parametrize("t_end", [1e-15, 1e-300])
    def test_horizon_below_the_underflow_floor_is_reached(self, t_end):
        p, inc1, inc2 = setup_low_transmission()
        traj = integrate(p, inc1, inc2, START, IntegratorOptions(t_end=t_end))
        assert traj.times.tolist() == [0.0, t_end]
        assert traj.stats.accepted_steps == 1
        assert np.allclose(traj.states[-1], START.as_array(), rtol=1e-12)

    def test_infective_pushed_below_zero_ends_with_a_tolerance_failure(self):
        # F1(S, 0) = -1e-3 < 0: I1 starts at 0 and flows outward, so no
        # smaller step can keep it nonnegative and the first step aborts
        sc = build_scenario("6.1")
        p, inc2 = sc.params, sc.incidence2
        inc1 = IncidenceSpec.custom(lambda S, I: 2e-4 * S * I - 1e-3)
        y0, opts = State(500.0, 500.0, 0.0, 50.0), IntegratorOptions(t_end=50.0)
        traj = integrate(p, inc1, inc2, y0, opts)
        raw = adaptive_rk45(lambda t, y: tuple(vector_field(p, inc1, inc2, y)), y0.as_array(), opts.t_end)
        assert raw.negative_abort[1] == 2
        assert traj.stats.accepted_steps == 0 and traj.times.tolist() == [0.0]
        (event,) = [e for e in traj.events if e.kind == "tolerance_failure"]
        assert event.time == raw.negative_abort[0] == pytest.approx(0.01404, rel=1e-3)
        assert event.detail == "component I1 fell below -atol"

    def test_recovered_class_tracked_when_present(self):
        p, inc1, inc2 = setup_low_transmission()
        traj = integrate(
            p, inc1, inc2, np.array([500.0, 500.0, 50.0, 50.0, 0.0]),
            IntegratorOptions(t_end=200.0),
        )
        assert traj.tracks_recovered
        assert traj.states.shape[1] == 5
        assert traj.final_state.R > 0.0
        # without the extra component the shape stays 4 wide
        traj4 = integrate(p, inc1, inc2, START, IntegratorOptions(t_end=50.0))
        assert not traj4.tracks_recovered
        assert traj4.states.shape[1] == 4

    def test_zero_infection_start_relaxes_to_disease_free(self):
        p, inc1, inc2 = setup_strain1_dominant()
        traj = integrate(p, inc1, inc2, np.array([100.0, 100.0, 0.0, 0.0]))
        final = traj.final_state
        assert final.S == pytest.approx(p.susceptible_cap, rel=1e-6)
        assert final.V1 == pytest.approx(p.vaccinated_cap, rel=1e-6)
        assert final.I1 == 0.0 and final.I2 == 0.0

    def test_tolerance_halving_changes_final_state_marginally(self):
        p, inc1, inc2 = setup_coexistence()
        a = integrate(p, inc1, inc2, START, IntegratorOptions(t_end=500.0))
        b = integrate(
            p, inc1, inc2, START,
            IntegratorOptions(t_end=500.0, rtol=5e-9, atol=5e-11),
        )
        diff = np.linalg.norm(a.states[-1] - b.states[-1])
        assert diff / np.linalg.norm(a.states[-1]) < 10.0 * 1e-8

    def test_conservation_consistency_along_the_run(self):
        # d/dt of N = S+V1+I1+I2 must match the balance law
        # Lambda - mu*N - (v1+gamma1)*I1 - (v2+gamma2)*I2; the finite
        # difference of the recorded samples limits the comparison, so the
        # residual must also shrink like dt^2
        p, inc1, inc2 = setup_strain2_dominant()

        def fd_residual(dt):
            ts = np.arange(0.0, 300.0 + dt / 2.0, dt)
            opts = IntegratorOptions(t_end=300.0, sample_times=tuple(ts))
            traj = integrate(p, inc1, inc2, START, opts)
            N = traj.states[:, :4].sum(axis=1)
            balance = (
                p.Lambda
                - p.mu * N
                - (p.v1 + p.gamma1) * traj.states[:, 2]
                - (p.v2 + p.gamma2) * traj.states[:, 3]
            )
            fd = (N[2:] - N[:-2]) / (2.0 * dt)
            return float(np.max(np.abs(fd - balance[1:-1]) / np.maximum(1.0, np.abs(balance[1:-1]))))

        coarse = fd_residual(0.25)
        fine = fd_residual(0.125)
        assert coarse < 1e-3
        assert coarse / fine == pytest.approx(4.0, rel=0.3)

    def test_stationarity_from_certified_equilibria(self):
        # starting exactly on a certified equilibrium the trajectory must
        # stay within relative 1e-6 for the whole horizon
        cases = []
        p, inc1, inc2 = setup_low_transmission()
        cases.append((p, inc1, inc2, disease_free(p, inc1, inc2)))
        p, inc1, inc2 = setup_strain1_dominant()
        cases.append((p, inc1, inc2, solve_strain1(p, inc1)[0]))
        p, inc1, inc2 = setup_strain2_dominant()
        cases.append((p, inc1, inc2, solve_strain2(p, inc2)[0]))
        p, inc1, inc2 = setup_coexistence()
        cases.append((p, inc1, inc2, solve_all(p, inc1, inc2).E3[0]))
        for p, inc1, inc2, eq in cases:
            target = eq.point.as_array()
            traj = integrate(p, inc1, inc2, eq.point, IntegratorOptions(t_end=1000.0))
            drift = np.linalg.norm(traj.states - target, axis=1) / np.linalg.norm(target)
            assert float(np.max(drift)) <= 1e-6, eq.kind


class TestMonitorInvariance:
    def test_interior_start_is_clean(self):
        p, inc1, inc2 = setup_low_transmission()
        traj = integrate(p, inc1, inc2, START)
        report = monitor_invariance(traj, p)
        assert report.ok
        assert report.population_cap == pytest.approx(10000.0)
        assert report.entered_omega_at == 0.0
        assert report.entered_omega1_at == 0.0
        assert report.final_total_ok
        assert report.final_total <= 10000.0 * (1.0 + 1e-3)

    def test_start_above_the_caps_enters_later(self):
        p, inc1, inc2 = setup_low_transmission()
        traj = integrate(p, inc1, inc2, np.array([15000.0, 9000.0, 50.0, 50.0]))
        report = monitor_invariance(traj, p)
        assert report.ok
        assert report.entered_omega_at > 0.0
        assert report.entered_omega1_at > 0.0

    def test_fabricated_reexit_is_flagged(self):
        p, _, _ = setup_low_transmission()
        times = np.array([0.0, 1.0, 2.0])
        states = np.array(
            [
                [9000.0, 900.0, 10.0, 10.0],
                [1000.0, 900.0, 10.0, 10.0],
                [12000.0, 900.0, 10.0, 10.0],  # N pops back above Lambda/mu
            ]
        )
        traj = Trajectory(times, states, [], False)
        report = monitor_invariance(traj, p)
        assert not report.ok
        assert report.first_omega_violation is not None
        t_bad, N_bad = report.first_omega_violation
        assert t_bad == 2.0 and N_bad == pytest.approx(12920.0)
        assert report.first_omega1_violation is not None
        assert report.first_omega1_violation[1] == "S"

        # here V1 leaves its bound first, a step before S does
        V10 = p.vaccinated_cap
        states = np.array(
            [
                [1000.0, 0.5 * V10, 10.0, 10.0],
                [1000.0, 0.9 * V10, 10.0, 10.0],
                [1000.0, 2.0 * V10, 10.0, 10.0],
                [12000.0, 3.0 * V10, 10.0, 10.0],
            ]
        )
        report = monitor_invariance(Trajectory(np.arange(4.0), states, [], False), p)
        assert report.entered_omega1_at == 0.0
        assert report.first_omega1_violation == (2.0, "V1", 2.0 * V10)

    def test_empty_trajectory_rejected(self):
        p, _, _ = setup_low_transmission()
        traj = Trajectory(np.array([]), np.empty((0, 4)), [], False)
        with pytest.raises(ValueError):
            monitor_invariance(traj, p)


class TestDetectConvergence:
    def test_dominant_strain_run_lands_on_its_equilibrium(self):
        p, inc1, inc2 = setup_strain1_dominant()
        e0 = disease_free(p, inc1, inc2)
        e1 = solve_strain1(p, inc1)[0]
        traj = integrate(p, inc1, inc2, START)
        event = detect_convergence(traj, [e0, e1])
        assert event is not None
        assert event.kind == "converged_to"
        assert event.detail.startswith("E1")
        assert event in traj.events

    def test_short_run_is_not_declared_converged(self):
        p, inc1, inc2 = setup_strain1_dominant()
        e1 = solve_strain1(p, inc1)[0]
        traj = integrate(p, inc1, inc2, START, IntegratorOptions(t_end=10.0))
        assert detect_convergence(traj, [e1]) is None

    def test_no_candidates_returns_none(self):
        p, inc1, inc2 = setup_low_transmission()
        traj = integrate(p, inc1, inc2, START, IntegratorOptions(t_end=10.0))
        assert detect_convergence(traj, []) is None

    def test_trajectory_without_a_model_rejected(self):
        p, inc1, inc2 = setup_low_transmission()
        traj = integrate(p, inc1, inc2, START, IntegratorOptions(t_end=10.0))
        with pytest.raises(ValueError, match="model"):
            detect_convergence(dataclasses.replace(traj, model=None), [disease_free(p, inc1, inc2)])

    def test_uncertified_candidate_rejected(self):
        p, inc1, inc2 = setup_low_transmission()
        traj = integrate(p, inc1, inc2, START, IntegratorOptions(t_end=10.0))
        sloppy = Equilibrium(kind="E1", point=State(900.0, 4700.0, 400.0, 0.0), residual=1.0)
        with pytest.raises(PreconditionError):
            detect_convergence(traj, [sloppy])

    def test_empty_trajectory_rejected(self):
        # as monitor_invariance rejects it, not by an IndexError
        p, inc1, inc2 = setup_low_transmission()
        traj = integrate(p, inc1, inc2, START, IntegratorOptions(t_end=10.0, sample_times=()))
        assert len(traj.times) == 0
        with pytest.raises(ValueError, match="empty trajectory"):
            detect_convergence(traj, [disease_free(p, inc1, inc2)])
        with pytest.raises(ValueError, match="empty trajectory"):
            monitor_invariance(traj, p)


def checked_run(p, inc1, inc2, y0, opts, calls=None):
    """adaptive_rk45 driven by the checked vector field; the (t, y) of every
    call is appended to ``calls`` when given."""

    def rhs(t, y):
        if calls is not None:
            calls.append((t, y.copy()))
        return vector_field(p, inc1, inc2, y)

    return adaptive_rk45(
        rhs, y0, opts.t_end, rtol=opts.rtol, atol=opts.atol,
        max_step=opts.max_step, sample_times=opts.sample_times,
    )


Attempt = collections.namedtuple("Attempt", "t y h times inputs accepted")


def step_attempts(raw, calls):
    """Split the calls of a run that stored every accepted step into step
    attempts from (t, y): the two start-up calls come first, then six per
    attempt, the last at (t + h, y_new), plus one at the clamped state after
    a clamped step. Assumes no stage failed."""
    attempts, pos, i = [], 2, 0
    while pos < len(calls):
        t, y = raw.times[i], raw.states[i]
        stages = calls[pos : pos + 6]
        t_last, y_last = stages[-1]
        accepted = (
            i + 1 < len(raw.times)
            and t_last == raw.times[i + 1]
            and same_bits(np.maximum(y_last, 0.0), raw.states[i + 1])
        )
        attempts.append(
            Attempt(
                t, y, t_last - t,
                np.array([c[0] for c in stages]),
                np.array([c[1] for c in stages]),
                accepted,
            )
        )
        pos += 6
        if accepted:
            i += 1
            pos += 0 if same_bits(y_last, raw.states[i]) else 1
    assert pos == len(calls)
    return attempts


class TestLeanStepper:
    """integrate evaluates the closed forms unchecked and checks each stage
    output instead; it must give the checked path's run bit for bit."""

    @pytest.mark.parametrize("example_id", EXAMPLE_IDS)
    def test_integrate_equals_the_checked_vector_field_bit_for_bit(self, example_id):
        sc = build_scenario(example_id)
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
        # the same built-in rates, called through the checked custom path
        checked1, checked2 = IncidenceSpec.custom(inc1.rate), IncidenceSpec.custom(inc2.rate)

        # once strain 1 dies out in 6.1, stage inputs probe I1 < 0, where
        # these strain-1 rates raise DomainError or return NaN; both paths
        # must reject the same stages
        def raises_below_zero(S, I):
            if np.any(np.asarray(I) < 0.0):
                raise DomainError("negative infectives")
            return inc1.rate(S, I)

        def nan_below_zero(S, I):
            return np.where(np.asarray(I) < 0.0, np.nan, inc1.rate(S, I))

        failing = [IncidenceSpec.custom(raises_below_zero), IncidenceSpec.custom(nan_below_zero)]
        start = sc.initial.as_array()
        for y0 in (start, np.append(start, 25.0)):
            for samples in (None, tuple(np.linspace(0.0, 1000.0, 41))):
                opts = dataclasses.replace(sc.integrator, t_end=1000.0, sample_times=samples)
                traj = integrate(p, inc1, inc2, y0, opts)
                raw = checked_run(p, inc1, inc2, y0, opts)
                assert same_bits(traj.times, raw.times)
                assert same_bits(traj.states, raw.states)
                assert traj.stats == raw.stats
                ref = integrate(p, checked1, checked2, y0, opts)
                assert same_bits(traj.times, ref.times)
                assert same_bits(traj.states, ref.states)
                assert same_bits(field_norms(*traj.model, traj.states), field_norms(*ref.model, ref.states))
                assert traj.events == ref.events and traj.events
                assert traj.tracks_recovered == (len(y0) == 5)
                if example_id == "6.1":
                    runs = [
                        run(p, custom, inc2, y0, opts)
                        for custom in failing
                        for run in (integrate, checked_run)
                    ]
                    # the NaN rate fails the very stages the raising one does
                    for other in runs[1:]:
                        assert same_bits(other.times, runs[0].times)
                        assert same_bits(other.states, runs[0].states)
                        assert other.stats == runs[0].stats
                    assert runs[0].stats.rejected_steps > traj.stats.rejected_steps + 10

    def test_stats_count_every_right_hand_side_call(self):
        totals = dict(clamps=0, negative_retries=0, rejected_steps=0)

        def check(raw, n_calls, label):
            # an aborted run ends on one more attempt, neither accepted nor retried
            st = raw.stats
            attempts = st.accepted_steps + st.rejected_steps + st.negative_retries
            attempts += raw.negative_abort is not None
            assert n_calls == st.rhs_evals == 2 + 6 * attempts + st.clamps, label
            assert st.accepted_steps == len(raw.times) - 1, label
            for name in totals:
                totals[name] += getattr(st, name)

        for example_id in EXAMPLE_IDS:
            sc = build_scenario(example_id)
            p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
            calls = []
            raw = checked_run(p, inc1, inc2, sc.initial.as_array(), sc.integrator, calls)
            check(raw, len(calls), example_id)
            traj = integrate(p, inc1, inc2, sc.initial, sc.integrator)
            assert traj.stats == raw.stats
        # a constant decay through zero at steps of at most 0.25 from 0.6005
        # (the first step is 0.1 and the error estimate is ~0, so the step
        # grows to max_step): 0.0005 is left, so the next steps are halved
        # from 0.25 until 0.25/256 lands the state at -0.00048, inside the
        # clamp band (-atol, 0); the step from 0 that follows aborts
        calls = []

        def decay(t, y):
            calls.append(t)
            return (-1.0,)

        raw = adaptive_rk45(decay, [0.6005], 2.0, atol=1e-3, max_step=0.25)
        check(raw, len(calls), "decay")
        assert raw.stats.negative_retries == 8 and raw.stats.clamps == 1
        assert raw.states[-1, 0] == 0.0 and raw.negative_abort is not None
        # every branch of the count is exercised
        assert all(count > 0 for count in totals.values()), totals

    @pytest.mark.parametrize("example_id", EXAMPLE_IDS)
    def test_every_attempt_starts_from_the_derivative_at_its_own_state(self, example_id):
        # the first stage of a step of size h from (t, y) is evaluated at
        # y + 0.2*h*f(t, y), also when the attempt retries a rejected one
        sc = build_scenario(example_id)
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
        calls = []
        raw = checked_run(p, inc1, inc2, sc.initial.as_array(), sc.integrator, calls)
        attempts = step_attempts(raw, calls)
        assert raw.stats.rejected_steps + raw.stats.negative_retries >= 1
        assert sum(not a.accepted for a in attempts) >= 1
        for a in attempts:
            step = 0.2 * a.h * vector_field(p, inc1, inc2, a.y)
            gap = np.abs(a.inputs[0] - (a.y + step))
            assert np.all(gap <= 1e-12 * (np.abs(a.y) + np.abs(step))), (a.t, a.h)

    def test_a_failed_first_step_probe_starts_a_thousand_times_smaller(self):
        # the first-step heuristic probes y' = -y from y = 1 at t = h0 =
        # 0.01; where that stage fails, the first trial step is h0*1e-3, and
        # the run still follows exp(-t). The failed probe is the second of
        # the two evaluations before the first step
        calls = []

        def refuses_the_probe(t, y):
            calls.append(t)
            if len(calls) == 2:
                raise DomainError("probe refused")
            return -y

        raw = adaptive_rk45(refuses_the_probe, [1.0], 1.0)
        assert calls[:2] == [0.0, 0.01] and raw.times[1] == 0.01 * 1e-3
        np.testing.assert_allclose(raw.states[:, 0], np.exp(-raw.times), rtol=1e-8)
        assert raw.stats == IntegratorStats(158, 26, 0, 0, 0)
        assert len(calls) == raw.stats.rhs_evals == 2 + 6 * raw.stats.accepted_steps

    def test_stats_stay_out_of_trajectory_equality(self):
        p, inc1, inc2 = setup_low_transmission()
        traj = integrate(p, inc1, inc2, START, IntegratorOptions(t_end=10.0))
        assert traj.stats is not None
        assert dataclasses.replace(traj, stats=None) == traj

    def test_nan_output_rejects_the_stage_and_shrinks_the_step(self):
        # large steps probe y < 0, where this field is undefined; each NaN
        # stage rejects its step, exactly as a raised arithmetic error does
        call_times, nan_calls = [], []

        def nan_below_zero(t, y):
            call_times.append(t)
            if y[0] < 0.0:
                nan_calls.append(len(call_times) - 1)
                return (math.nan,)
            return (-y[0],)

        def raise_below_zero(t, y):
            if y[0] < 0.0:
                raise ArithmeticError("undefined")
            return (-y[0],)

        kwargs = dict(rtol=1e-6, atol=1e-8, nonnegative=False)
        raw = adaptive_rk45(nan_below_zero, [1.0], 40.0, **kwargs)
        assert nan_calls
        assert raw.stats.rejected_steps == len(nan_calls)
        assert np.all(np.isfinite(raw.states)) and raw.times[-1] == 40.0
        assert raw.states[-1, 0] == pytest.approx(math.exp(-40.0), abs=1e-8)
        ref = adaptive_rk45(raise_below_zero, [1.0], 40.0, **kwargs)
        assert same_bits(raw.times, ref.times) and same_bits(raw.states, ref.states)
        assert raw.stats == ref.stats
        # the retry from the same time takes a fifth of the step, so its
        # first stage comes before the one that failed
        for m in nan_calls:
            assert call_times[m + 1] < call_times[m]

    def test_custom_rate_keeps_the_checked_path(self):
        sc = build_scenario("6.3")
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
        seen = []

        def refuses_negative_infectives(S, I):
            seen.append((type(S), type(I), np.all(np.isfinite(S)) and np.all(np.isfinite(I))))
            if np.any(np.asarray(I) < 0.0):
                raise DomainError("negative infectives")
            return inc1.rate(S, I)

        custom = IncidenceSpec.custom(refuses_negative_infectives)
        traj = integrate(p, custom, inc2, sc.initial, sc.integrator)
        base = integrate(p, inc1, inc2, sc.initial, sc.integrator)
        # stages probing I1 < 0 are rejected, not fatal
        assert traj.stats.rejected_steps > base.stats.rejected_steps
        assert traj.times[-1] == sc.integrator.t_end
        assert np.all(traj.states >= 0.0)
        # numpy scalars in the stepper, never a non-finite input
        assert {kind[:2] for kind in seen} == {(np.float64, np.float64)}
        assert all(kind[2] for kind in seen)
        # a non-finite input stops at the checked boundary
        n_seen = len(seen)
        with pytest.raises(DomainError):
            custom.scalar_rate()(math.inf, 1.0)
        assert len(seen) == n_seen

    def test_custom_rate_refusing_negative_stage_inputs_costs_steps_not_the_run(self):
        # stage inputs dip below 0 once strain 1 dies out in 6.1; a rate that
        # raises there rejects each such stage and cuts the step fivefold
        sc = build_scenario("6.1")
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2

        def refuses_negative_infectives(S, I):
            if np.any(np.asarray(I) < 0.0):
                raise DomainError("negative infectives")
            return inc1.rate(S, I)

        custom = IncidenceSpec.custom(refuses_negative_infectives)
        traj = integrate(p, custom, inc2, sc.initial, sc.integrator)
        base = integrate(p, inc1, inc2, sc.initial, sc.integrator)
        assert traj.times[-1] == base.times[-1] == sc.integrator.t_end
        final, ref = traj.states[-1], base.states[-1]
        assert np.linalg.norm(final - ref) <= 1e-6 * np.linalg.norm(ref)
        assert base.stats.rejected_steps < 10
        assert traj.stats.rejected_steps > 100 * base.stats.rejected_steps
        assert traj.stats.accepted_steps > 2 * base.stats.accepted_steps


class TestStepKernel:
    def test_one_loop_call_per_run_and_six_field_calls_per_attempt(self):
        # deterministic counts of Python-level and builtin calls: a helper
        # frame or a builtin put back into the step loop changes a count, not
        # a timing. integrate's run has the field written in, so with
        # built-in rates it makes no Python call and with a custom strain it
        # calls that strain's rate once per stage; adaptive_rk45's generic
        # run calls its fun once per stage. The loop's builtins are isfinite
        # once per stage (and sum in the generic binding) and sqrt once per
        # attempt
        sc = build_scenario("6.4")
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
        custom2 = IncidenceSpec.custom(inc2.rate)
        dp5 = simulate._dp5.__code__

        def counted_run(run, t_end):
            calls, builtins = collections.Counter(), collections.Counter()

            def profile(frame, event, arg):
                if event == "call":
                    calls[frame.f_back.f_code, frame.f_code] += 1
                elif event == "c_call":
                    builtins[frame.f_code, arg.__name__] += 1

            opts = dataclasses.replace(sc.integrator, t_end=t_end)
            # a collection would finalize other objects inside a kernel frame
            gc.disable()
            sys.setprofile(profile)
            try:
                st = run(opts).stats
            finally:
                sys.setprofile(None)
                gc.enable()
            attempts = st.accepted_steps + st.rejected_steps + st.negative_retries
            # no stage failed, so every attempt evaluated all six stages
            assert st.rhs_evals == 2 + 6 * attempts + st.clamps
            (loop,) = {callee for caller, callee in calls if caller is dp5 and callee.co_name == "run"}
            assert calls[dp5, loop] == 1
            made = {callee: n for (caller, callee), n in calls.items() if caller is loop}
            used = {name: n for (code, name), n in builtins.items() if code is loop}
            return attempts, made, used, sum(calls.values()), sum(builtins.values())

        def built_in(opts):
            return integrate(p, inc1, inc2, sc.initial, opts)

        def custom(opts):
            return integrate(p, inc1, custom2, sc.initial, opts)

        def generic(opts):
            field = model.bound_field(p, inc1.scalar_rate(), inc2.scalar_rate())
            return adaptive_rk45(field, sc.initial.as_array(), opts.t_end, opts.rtol, opts.atol)

        built_in(sc.integrator)  # builds and caches the kernel
        short_attempts, made, used, short_calls, short_builtins = counted_run(built_in, 1000.0)
        assert made == {} and used == {"isfinite": 6 * short_attempts, "sqrt": short_attempts}
        full_attempts, made, used, full_calls, full_builtins = counted_run(built_in, sc.integrator.t_end)
        assert made == {} and used == {"isfinite": 6 * full_attempts, "sqrt": full_attempts}
        assert full_attempts > short_attempts + 100
        # no Python-level call is made per attempt, and every builtin but
        # the loop's is called once per run, not once per step
        assert full_calls == short_calls
        assert full_builtins - 7 * full_attempts == short_builtins - 7 * short_attempts

        attempts, made, used, _, _ = counted_run(custom, 1000.0)
        assert made == {custom2.scalar_rate().__code__: 6 * attempts}
        assert used == {"isfinite": 6 * attempts, "sqrt": attempts}
        attempts, made, used, _, _ = counted_run(generic, 1000.0)
        ((fun, n),) = made.items()
        assert fun.co_name == "fun" and n == 6 * attempts
        assert used == {"isfinite": 6 * attempts, "sum": 6 * attempts, "sqrt": attempts}

    def test_thousands_of_components(self):
        # the generated source stays flat: no expression nests n deep, which
        # the compiler refuses past a few thousand levels
        n = 3500
        rates = np.linspace(0.5, 1.5, n)
        raw = adaptive_rk45(lambda t, y: -rates * y, np.ones(n), 2.0, rtol=1e-6, atol=1e-9)
        assert raw.states.shape[1] == n
        assert np.allclose(raw.states[-1], np.exp(-2.0 * rates), rtol=1e-5, atol=0.0)


def generic_integrate(p, *args):
    """``integrate`` on the generic binding of ``_kernel(n)`` to
    ``bound_field`` of the same rates, instead of the binding with the field
    written in."""
    kernel = simulate._kernel
    with pytest.MonkeyPatch.context() as m:
        # integrate binds the coefficients, then rate1 and rate2
        bind = lambda n, rates=None: lambda *bound: kernel(n)(model.bound_field(p, *bound[-2:]))
        m.setattr(simulate, "_kernel", bind)
        return integrate(p, *args)


class TestInlinedKernel:
    """integrate's kernel, with the field and the built-in rates written in,
    gives the generic kernel's times, states, events and stats bit for bit."""

    def check(self, p, inc1, inc2, y0, opts):
        traj = integrate(p, inc1, inc2, y0, opts)
        ref = generic_integrate(p, inc1, inc2, y0, opts)
        assert same_bits(traj.times, ref.times) and same_bits(traj.states, ref.states)
        assert traj.events == ref.events and traj.stats == ref.stats
        return traj

    @pytest.mark.parametrize("example_id", EXAMPLE_IDS)
    def test_examples_with_and_without_R_and_samples(self, example_id):
        sc = build_scenario(example_id)
        start = sc.initial.as_array()
        samples = tuple(np.linspace(0.0, sc.integrator.t_end, 137))
        for y0 in (start, np.append(start, 25.0)):
            for opts in (sc.integrator, dataclasses.replace(sc.integrator, sample_times=samples)):
                self.check(sc.params, sc.incidence1, sc.incidence2, y0, opts)

    def test_criterion_9_starts(self):
        # 25 starts per example, drawn as criterion 9 draws them
        for seed, example_id in enumerate(EXAMPLE_IDS, start=901):
            sc = build_scenario(example_id)
            for x0 in trapping_box_starts(seed, sc.params.population_cap, 25):
                self.check(sc.params, sc.incidence1, sc.incidence2, x0, sc.integrator)

    def test_clamping_run(self):
        p = ModelParams(Lambda=5.77, mu=0.02, r=0.01, k=0.417, gamma1=0.557, gamma2=0.598, v1=0.0, v2=0.0)
        inc1, inc2 = IncidenceSpec.bilinear(0.23), IncidenceSpec.saturated_i2(0.405, 1.7e-4)
        opts = IntegratorOptions(rtol=0.0076, atol=0.023, t_end=20.0)
        traj = self.check(p, inc1, inc2, (71.55, 19.7, 26.58, 32.48), opts)
        assert traj.stats.clamps > 0

    @pytest.mark.parametrize("strains", [(1,), (2,), (1, 2)])
    def test_custom_rates(self, strains):
        sc = build_scenario("6.3")
        incs = [sc.incidence1, sc.incidence2]
        for j in strains:
            incs[j - 1] = IncidenceSpec.custom(incs[j - 1].rate)
        traj = self.check(sc.params, *incs, sc.initial, sc.integrator)
        built_in = integrate(sc.params, sc.incidence1, sc.incidence2, sc.initial, sc.integrator)
        assert same_bits(traj.states, built_in.states) and traj.stats == built_in.stats

    def test_rate_refusing_negative_infectives(self):
        # every stage probing I1 < 0 fails in both kernels: the same stats,
        # so the same rejected steps and the same failing stage indices
        sc = build_scenario("6.1")
        inc1 = sc.incidence1

        def refuses_negative_infectives(S, I):
            if np.any(np.asarray(I) < 0.0):
                raise DomainError("negative infectives")
            return inc1.rate(S, I)

        custom = IncidenceSpec.custom(refuses_negative_infectives)
        traj = self.check(sc.params, custom, sc.incidence2, sc.initial, sc.integrator)
        assert traj.stats.rejected_steps > 100

    def test_zero_denominator_fails_the_same_stage(self):
        # strain 2 is saturated_s and I2 = 0 in every stage, so F2 = 0 and the
        # stage inputs do not depend on zeta; zeta = -1/S of stage s of the
        # first attempt makes F2 = 0/0 there, which both bindings must report
        # as stage s: that attempt counts s evaluations and every later one 6
        p = build_scenario("6.4").params
        inc1 = IncidenceSpec.bilinear(2e-4)
        y, k0, h = (-5.0, 10.0, 3.0, 0.0), (1.0, -2.0, 0.5, 0.0), 0.01
        # one step of size h reaches t_end, the state may stay signed
        args = (y, k0, h, h, 1e-8, 1e-10, math.inf, False)
        rate2 = IncidenceSpec.saturated_s(1e-4, 0.0).scalar_rate()
        field = model.bound_field(p, inc1.scalar_rate(), rate2)
        stage_S = []

        def recorded(t, x):
            stage_S.append(x[0])
            return field(t, x)

        _, run = simulate._kernel(4)(recorded)
        run(*args)
        stage_S = stage_S[:6]
        assert len(set(stage_S)) == 6 and max(stage_S) < 0.0
        coefficients = [getattr(p, name) for name in model._COEFFICIENTS]
        factory = simulate._kernel(4, (incidence._RATE_TEXTS["bilinear"], incidence._RATE_TEXTS["saturated_s"]))
        failed = []
        for s, S in enumerate(stage_S, 1):
            inc2 = IncidenceSpec.saturated_s(1e-4, -1.0 / S)
            if 1.0 + inc2.zeta * S != 0.0:
                continue
            rate1, rate2 = inc1.scalar_rate(), inc2.scalar_rate()
            _, generic = simulate._kernel(4)(model.bound_field(p, rate1, rate2))
            _, inlined = factory(*coefficients, inc1.beta, inc1.zeta, inc2.beta, inc2.zeta, rate1, rate2)
            (times, states, _, _, counts), ref = inlined(*args), generic(*args)
            assert same_bits(times, ref[0]) and same_bits(states, ref[1]) and counts == ref[4]
            evals, accepted, rejected, clamps, retries = counts
            assert times[-1] == h and rejected >= 1 and clamps == retries == 0
            assert evals == s + 6 * (accepted + rejected - 1)
            failed.append(s)
        assert len(failed) >= 3

    def test_one_kernel_serves_every_parameter_value(self):
        # the factory is cached per (n, rate texts): no parameter value or
        # coefficient compiles a new kernel
        sc = build_scenario("6.4")
        opts = dataclasses.replace(sc.integrator, t_end=200.0)
        self.check(sc.params, sc.incidence1, sc.incidence2, sc.initial, opts)
        before = simulate._kernel.cache_info()
        rng = np.random.default_rng(14)
        for _ in range(20):
            scaled = {name: getattr(sc.params, name) * rng.uniform(0.5, 2.0) for name in PARAM_NAMES}
            inc1, inc2 = (
                dataclasses.replace(inc, beta=inc.beta * rng.uniform(0.5, 2.0), zeta=inc.zeta * rng.uniform(0.5, 2.0))
                for inc in (sc.incidence1, sc.incidence2)
            )
            self.check(ModelParams(**scaled), inc1, inc2, sc.initial, opts)
        after = simulate._kernel.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)
        assert after.hits >= before.hits + 20


def integrate_stage(p, inc1, inc2, n):
    """The ``stage`` that ``integrate`` binds for n components, and
    ``bound_field`` of the rates it binds with it."""
    kernel, bound = simulate._kernel, []

    def recording(n, rates=None):
        def bind(*args):
            stage, run = kernel(n, rates)(*args)
            # integrate binds the coefficients, then rate1 and rate2
            bound.append((stage, model.bound_field(p, *args[-2:])))
            return stage, run

        return bind

    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulate, "_kernel", recording)
        integrate(p, inc1, inc2, np.ones(n), IntegratorOptions(t_end=1e-6))
    ((stage, field),) = bound
    return stage, field


class TestBoundStage:
    """integrate's ``stage``, which evaluates the field at the start, for the
    first-step probe and after each clamp, is ``bound_field`` of the same
    rates: the same bits, and None exactly where that field raises an
    arithmetic or domain error or gives a non-finite component."""

    def check(self, stage, field, states):
        """Compare at every state; returns how many stages failed."""
        failed = 0
        for y in states:
            y = tuple(float(v) for v in y)
            try:
                expected = field(0.0, y)
            except (ArithmeticError, DomainError):
                expected = None
            if expected is None or not all(map(math.isfinite, expected)):
                assert stage(0.0, y) is None, y
                failed += 1
                continue
            got = stage(0.0, y)
            assert type(got) is tuple and same_bits(got, expected), y
        return failed

    @pytest.mark.parametrize("custom", [(), (1,), (2,), (1, 2)], ids=lambda c: "custom%s" % "".join(map(str, c)))
    @pytest.mark.parametrize("example_id", EXAMPLE_IDS)
    def test_equals_bound_field(self, example_id, custom):
        sc = build_scenario(example_id)
        incs = [sc.incidence1, sc.incidence2]
        for j in custom:
            incs[j - 1] = IncidenceSpec.custom(incs[j - 1].rate)
        rng = np.random.default_rng(15)
        for n in (4, 5):
            stage, field = integrate_stage(sc.params, *incs, n)
            # stage inputs extrapolate, so a few components dip below 0
            states = rng.uniform(-0.05, 1.0, (40, n)) * sc.params.population_cap
            assert self.check(stage, field, states) == 0

    def test_zero_denominator(self):
        # saturated_s with zeta = 0.25 divides by 1 + zeta*S == 0 at S = -4,
        # which a stage input may reach: F2 = 0/0 at I2 = 0, 2/0 at I2 = 2
        p = build_scenario("6.4").params
        inc1, inc2 = IncidenceSpec.bilinear(2e-4), IncidenceSpec.saturated_s(1e-4, 0.25)
        for n in (4, 5):
            stage, field = integrate_stage(p, inc1, inc2, n)
            states = [(-4.0, 10.0, 3.0, 0.0, 1.0)[:n], (-4.0, 10.0, 3.0, 2.0, 1.0)[:n], (5.0, 10.0, 3.0, 2.0, 1.0)[:n]]
            with pytest.raises(ZeroDivisionError):
                field(0.0, states[0])
            assert self.check(stage, field, states) == 2

    def test_rate_refusing_negative_infectives(self):
        sc = build_scenario("6.1")
        inc1 = sc.incidence1

        def refuses_negative_infectives(S, I):
            if np.any(np.asarray(I) < 0.0):
                raise DomainError("negative infectives")
            return inc1.rate(S, I)

        custom = IncidenceSpec.custom(refuses_negative_infectives)
        rng = np.random.default_rng(61)
        for n in (4, 5):
            stage, field = integrate_stage(sc.params, custom, sc.incidence2, n)
            states = rng.uniform(0.0, 1.0, (40, n)) * sc.params.population_cap
            states[::4, 2] *= -1e-6  # I1 < 0 in every fourth state
            assert self.check(stage, field, states) == 10

    def test_generic_binding_returns_the_values_of_fun(self):
        seen = []

        def fun(t, y):
            seen.append((t, y))
            if y[0] < 0.0:
                raise ArithmeticError("undefined")
            return [math.sqrt(y[0]) * t, -y[1] / 3.0, math.inf if y[2] > 1.0 else y[2]]

        stage, _ = simulate._kernel(3)(fun)
        assert stage(0.7, (2.0, 1.0, 0.5)) == (math.sqrt(2.0) * 0.7, -1.0 / 3.0, 0.5)
        assert seen == [(0.7, (2.0, 1.0, 0.5))]
        assert stage(0.7, [-1.0, 1.0, 0.5]) is None
        assert stage(0.7, (2.0, 1.0, 2.0)) is None


class TestClosedFormTable:
    SPECS = (
        IncidenceSpec.bilinear(2e-4),
        IncidenceSpec.saturated_s(2e-4, 0.9),
        IncidenceSpec.saturated_i2(3e-5, 0.7),
    )
    S_AXIS = (0.0, 1e-6, 0.5, 500.0, 9000.0)
    I_AXIS = (0.0, 1e-6, 0.5, 50.0, 3000.0)

    @pytest.mark.parametrize("inc", SPECS, ids=lambda inc: inc.family)
    def test_entries_equal_the_public_evaluators_bitwise(self, inc):
        forms = incidence._CLOSED_FORMS[inc.family]
        for name in ("rate", "force", "contact_factor", "d_rate_dS", "d_rate_dI"):
            entry, public = getattr(forms, name), getattr(inc, name)
            # the S = 0 axis is outside the contact factor's domain
            S_axis = [s for s in self.S_AXIS if s > 0.0 or name != "contact_factor"]
            I_grid, S_grid = np.meshgrid(self.I_AXIS, S_axis)
            assert same_bits(entry(inc.beta, inc.zeta, S_grid, I_grid), public(S_grid, I_grid))
            for S in S_axis:
                for I in self.I_AXIS:
                    expected = public(np.float64(S), np.float64(I))
                    assert same_bits(entry(inc.beta, inc.zeta, S, I), expected), (name, S, I)
                    assert same_bits(public(S, I), expected), (name, S, I)

    # each family's force and contact factor as written by hand before they
    # were compiled from its saturation text: the bit oracle of that text
    HAND_WRITTEN = {
        "bilinear": (
            lambda b, z, S, I: b * S + 0.0 * I,
            lambda b, z, S, I: b + 0.0 * S + 0.0 * I,
        ),
        "saturated_s": (
            lambda b, z, S, I: b * S / (1.0 + z * S) + 0.0 * I,
            lambda b, z, S, I: b / (1.0 + z * S) + 0.0 * I,
        ),
        "saturated_i2": (
            lambda b, z, S, I: b * S / (1.0 + z * I * I),
            lambda b, z, S, I: b / (1.0 + z * I * I) + 0.0 * S,
        ),
    }

    @pytest.mark.parametrize("inc", SPECS, ids=lambda inc: inc.family)
    def test_forms_compiled_from_the_saturation_equal_the_hand_written_ones(self, inc):
        forms = incidence._CLOSED_FORMS[inc.family]
        I_grid, S_grid = np.meshgrid(self.I_AXIS, self.S_AXIS)
        points = [(S, I) for S in self.S_AXIS for I in self.I_AXIS]
        points += [(-S, -I) for S, I in points] + [(S_grid, I_grid), (S_grid[:, :1], I_grid[:1])]
        for name, oracle in zip(("force", "contact_factor"), self.HAND_WRITTEN[inc.family]):
            entry = getattr(forms, name)
            for S, I in points:
                expected = oracle(inc.beta, inc.zeta, S, I)
                value = entry(inc.beta, inc.zeta, S, I)
                # the bytes hold the sign of a zero; the shape, the broadcast
                assert type(value) is type(expected) and same_bits(value, expected), (name, S, I)

    @pytest.mark.parametrize("inc", SPECS, ids=lambda inc: inc.family)
    def test_bound_forms_equal_the_public_evaluators_bitwise(self, inc):
        # on an array, and on each of its entries as Python floats
        I_grid, S_grid = np.meshgrid(self.I_AXIS, [s for s in self.S_AXIS if s > 0.0])
        forms = inc.bound_forms()
        for name in ("rate", "force", "contact_factor", "d_rate_dS", "d_rate_dI"):
            assert same_bits(getattr(forms, name)(S_grid, I_grid), getattr(inc, name)(S_grid, I_grid))
            for S, I in zip(S_grid.ravel().tolist(), I_grid.ravel().tolist()):
                assert same_bits(getattr(forms, name)(S, I), getattr(inc, name)(S, I)), (name, S, I)
        # unchecked: a non-finite input gives a non-finite value, no raise
        assert not np.isfinite(inc.bound_forms().force(math.nan, 1.0))

    def test_bound_forms_of_a_custom_rate_are_its_checked_evaluators(self):
        custom = IncidenceSpec.custom(lambda S, I: 2e-4 * S * I)
        forms = custom.bound_forms()
        assert forms.rate == custom.rate and forms.d_rate_dS == custom.d_rate_dS
        with pytest.raises(DomainError):
            forms.force(math.nan, 1.0)

    @pytest.mark.parametrize("inc", SPECS, ids=lambda inc: inc.family)
    def test_rate_text_gives_the_table_rate_bitwise(self, inc):
        # the text as written, and as the kernel writes it for either strain
        text = incidence._RATE_TEXTS[inc.family]
        rate = incidence._CLOSED_FORMS[inc.family].rate
        lines = model._field_lines(4, (text, text))[:2]
        I_grid, S_grid = np.meshgrid(self.I_AXIS, self.S_AXIS)
        for S, I in [(S, I) for S in self.S_AXIS for I in self.I_AXIS] + [(S_grid, I_grid)]:
            expected = rate(inc.beta, inc.zeta, S, I)
            assert same_bits(eval(text, {"b": inc.beta, "z": inc.zeta, "S": S, "I": I}), expected)
            for j, line in enumerate(lines, 1):
                scope = {"b%d" % j: inc.beta, "z%d" % j: inc.zeta, "S": S, "I%d" % j: I}
                exec(line, scope)
                assert same_bits(scope["F%d" % j], expected), line

    @pytest.mark.parametrize("inc", SPECS, ids=lambda inc: inc.family)
    def test_scalar_rate_equals_the_checked_rate_bitwise(self, inc):
        fast = inc.scalar_rate()
        I_grid, S_grid = np.meshgrid(self.I_AXIS, self.S_AXIS)
        grid = inc.rate(S_grid, I_grid)
        for i, S in enumerate(self.S_AXIS):
            for j, I in enumerate(self.I_AXIS):
                value = fast(S, I)
                assert same_bits(value, inc.rate(np.float64(S), np.float64(I)))
                assert same_bits(value, grid[i, j])
                if S == 0.0 or I == 0.0:
                    assert value == 0.0
        # unchecked: a non-finite input gives a non-finite rate, no raise
        assert not math.isfinite(fast(math.inf, 1.0))
        assert not math.isfinite(fast(1.0, math.nan))


def assert_dormand_prince_steps(f, attempts, rtol, atol, t_end, widened=True):
    """Check every stage of every attempt against the tableau scipy's RK45
    keeps (A, B, C, E), evaluated with the same right-hand side ``f(t, y)``;
    returns how many error norms were read back from the next step size.

    The error vector is not visible through the public API, so its norm is
    read back from the step after an accepted one, where the controller
    factor is not clamped and the horizon does not cut the step.
    ``widened=False`` leaves out the slack for the step size read off the
    clock and for the rounding of the previous error sum."""
    assert len(attempts) > 30
    n = len(attempts[0].y)
    eps = np.finfo(float).eps
    alpha, beta = 0.7 / 5.0, 0.4 / 5.0
    err_prev, prev_slack, read_back = 1.0, 0.0, 0
    for a, after in zip(attempts, attempts[1:] + [None]):
        # a stage's time is the one it was called at, checked against C here
        assert np.allclose(a.times, a.t + a.h * np.append(RK45.C[1:], 1.0), rtol=1e-13, atol=0.0)
        K = np.empty((7, n))
        K[0] = f(a.t, a.y)
        ref = np.empty((6, n))
        for s in range(1, 7):
            weights = RK45.A[s, :s] if s < 6 else RK45.B
            ref[s - 1] = a.y + a.h * (K[:s].T @ weights)
            K[s] = f(a.times[s - 1], ref[s - 1])
        # the step size read off the clock is off by up to eps * (t + h)
        clock = 2.0 * eps * (a.t + a.h) / a.h * np.abs(ref - a.y) if widened else 0.0
        assert np.all(np.abs(a.inputs - ref) <= 1e-13 * np.abs(ref) + clock), a.t
        scale = atol + rtol * np.maximum(np.abs(a.y), np.abs(ref[5]))
        err = math.sqrt(np.mean((a.h * (K.T @ RK45.E) / scale) ** 2))
        err_terms = math.sqrt(np.mean((a.h * (np.abs(K.T) @ np.abs(RK45.E)) / scale) ** 2))
        if not a.accepted:
            continue
        factor = 0.9 * err ** -alpha * err_prev ** beta
        if after is not None and 0.21 < factor < 4.9 and after.t + 1.01 * after.h < t_end:
            seen = (after.h / a.h / (0.9 * err_prev ** beta)) ** (-1.0 / alpha)
            # rounding of the sum, of the step sizes read off the clock and,
            # through err_prev ** (beta / alpha), of the previous sum
            slack = 1e-13 * (err + err_terms)
            slack += 8.0 * eps * err * ((a.t + a.h) / a.h + (after.t + after.h) / after.h) / alpha
            if widened:
                slack += err * prev_slack * beta / alpha
            assert abs(seen - err) <= slack, (a.t, seen, err)
            read_back += 1
        err_prev = max(err, 1e-10)
        prev_slack = 1e-13 * (err + err_terms) / err if err > 1e-10 else 0.0
    return read_back


class TestTableauOracle:
    """The kernel is generated once per state dimension; each dimension the
    package runs is checked against scipy's Dormand-Prince constants. Loose
    tolerances take steps long enough that the error estimate is far above
    the rounding of its cancelling sum."""

    RTOL = ATOL = 1e-3

    def test_steps_match_scipys_dormand_prince_constants(self):
        # 4 components, through adaptive_rk45 on the checked vector field
        sc = build_scenario("6.4")
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
        t_end = 300.0
        calls = []
        opts = IntegratorOptions(rtol=self.RTOL, atol=self.ATOL, t_end=t_end)
        raw = checked_run(p, inc1, inc2, sc.initial.as_array(), opts, calls)
        attempts = step_attempts(raw, calls)
        assert all(a.accepted for a in attempts)
        f = lambda t, y: vector_field(p, inc1, inc2, y)
        read_back = assert_dormand_prince_steps(f, attempts, self.RTOL, self.ATOL, t_end, widened=False)
        assert read_back >= 20

    def test_integrate_tracking_the_recovered_class(self):
        # 5 components: the generic kernel on integrate's own field, whose
        # stages are recorded; integrate's inlined kernel must equal that run
        sc = build_scenario("6.4")
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
        t_end = 300.0
        calls = []
        field = model.bound_field(p, inc1.scalar_rate(), inc2.scalar_rate())

        def recorded(t, y):
            calls.append((t, np.array(y)))
            return field(t, y)

        y0 = np.append(sc.initial.as_array(), 25.0)
        raw = simulate._dp5(*simulate._kernel(5)(recorded), y0.tolist(), t_end, self.RTOL, self.ATOL, math.inf, None)
        traj = integrate(p, inc1, inc2, y0, IntegratorOptions(rtol=self.RTOL, atol=self.ATOL, t_end=t_end))
        assert traj.tracks_recovered and traj.states.shape[1] == 5
        assert same_bits(traj.times, raw.times) and same_bits(traj.states, raw.states)
        assert traj.stats == raw.stats
        f = lambda t, y: vector_field(p, inc1, inc2, y)
        read_back = assert_dormand_prince_steps(f, step_attempts(raw, calls), self.RTOL, self.ATOL, t_end)
        assert read_back >= 20

    def test_one_component_adaptive_rk45(self):
        # y' = cos(t) y, so y = exp(sin t) stays in [1/e, e]
        t_end = 60.0
        calls = []

        def rhs(t, y):
            calls.append((t, y.copy()))
            return math.cos(t) * y

        raw = adaptive_rk45(rhs, [1.0], t_end, rtol=self.RTOL, atol=self.ATOL)
        assert raw.states[-1, 0] == pytest.approx(math.exp(math.sin(t_end)), rel=0.05)
        f = lambda t, y: np.cos(t) * y
        read_back = assert_dormand_prince_steps(f, step_attempts(raw, calls), self.RTOL, self.ATOL, t_end)
        assert read_back >= 20


class TestRadauOracle:
    @pytest.mark.parametrize("example_id", EXAMPLE_IDS)
    def test_samples_match_a_tight_radau_solution(self, example_id):
        # scipy's implicit Radau IIA at rtol 1e-11 is an independent
        # integrator; at rtol 1e-8 the stepper stays within 1e-6 of it
        sc = build_scenario(example_id)
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
        samples = np.linspace(0.0, 500.0, 11)
        opts = dataclasses.replace(sc.integrator, t_end=500.0, sample_times=tuple(samples))
        traj = integrate(p, inc1, inc2, sc.initial, opts)
        sol = solve_ivp(
            lambda t, y: vector_field(p, inc1, inc2, y),
            (0.0, 500.0),
            sc.initial.as_array(),
            method="Radau",
            t_eval=samples,
            rtol=1e-11,
            atol=1e-12,
            jac=lambda t, y: jacobian(p, inc1, inc2, y),
        )
        assert sol.success
        assert np.array_equal(traj.times, samples)
        ref = sol.y.T
        rel = np.abs(traj.states - ref) / np.maximum(1.0, np.abs(ref))
        assert float(rel.max()) <= 1e-6, example_id
