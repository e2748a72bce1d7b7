"""Acceptance checklist: eleven numbered criteria with pinned tolerances.

Each criterion registers its outcome with the conftest recorder so the run
ends with a PASS/FAIL line per criterion. Expected values marked
"published" are the reference values printed alongside the worked
examples; values marked "certified" were frozen from independent solves
with residual certificates. The published numbers are inconsistent with
the formulas published alongside them in three places: the strain-1 level
I1 of example 6.2 (criterion 4), the quartic coefficients c1..c3 of
example 6.4 (criterion 6) and the closed form for the vaccination rate
that maximizes R2 (criterion 10). Each of those criteria asserts the true
value through a route independent of the code under test and keeps the
published value as data, asserted to be flagged as a discrepancy.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from conftest import random_cases, record_criterion

from twostrain.analysis import analyze, sweep, turning_point
from twostrain.benchmarks import EXAMPLE_IDS, build_scenario, render_reproduction, reproduce
from twostrain.equilibria import (
    solve_all,
    solve_coexistence,
    solve_strain1,
    solve_strain2,
)
from twostrain.incidence import IncidenceSpec
from twostrain.model import invasion_numbers, thresholds, vector_field
from twostrain.scenario import Scenario
from twostrain.simulate import detect_convergence, integrate, monitor_invariance
from twostrain.stability import (
    Verdict,
    classify,
    classify_disease_free,
    coexistence_lyapunov_scan,
    strain2_lyapunov_scan,
    strain2_lyapunov_surface,
)

EXPECTED_ATTRACTOR = {"6.1": "E0", "6.2": "E1", "6.3": "E2", "6.4": "E3"}


def best_time(fn, repeats=5):
    fn()  # warm caches before timing
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestAcceptance:
    def test_criterion_01_low_transmission_thresholds(self):
        with record_criterion(1):
            sc = build_scenario("6.1")
            p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2

            def work():
                th = thresholds(p, inc1, inc2)
                return th.R1, th.R2, p.susceptible_cap, p.vaccinated_cap

            R1, R2, S0, V10 = work()
            assert R1 == pytest.approx(0.2632, rel=5e-3)
            assert R2 == pytest.approx(0.7947, rel=5e-3)
            assert S0 == pytest.approx(1667.0, rel=5e-3)
            assert V10 == pytest.approx(8333.0, rel=5e-3)
            assert best_time(work) < 1e-3

    def test_criterion_02_coexistence_thresholds_and_invasion(self):
        with record_criterion(2):
            sc = build_scenario("6.4")
            p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2

            def work():
                th = thresholds(p, inc1, inc2)
                e1 = solve_strain1(p, inc1)[0]
                e2 = solve_strain2(p, inc2)[0]
                r2_inv, r1_inv = invasion_numbers(p, inc1, inc2, e1, e2)
                return th.R1, th.R2, r2_inv, r1_inv

            R1, R2, r2_inv, r1_inv = work()
            assert R1 == pytest.approx(7.0175, rel=1e-2)
            assert R2 == pytest.approx(4.1270, rel=1e-2)
            assert r2_inv == pytest.approx(3.555, rel=1e-2)
            assert r1_inv == pytest.approx(1.194, rel=1e-2)
            assert best_time(work) < 10e-3

    def test_criterion_03_equilibria_certified_and_timed(self):
        with record_criterion(3):
            for example_id in EXAMPLE_IDS:
                sc = build_scenario(example_id)
                eqs = solve_all(sc.params, sc.incidence1, sc.incidence2)
                assert eqs.coexistence_error == "", example_id
                found = eqs.all
                for eq in found:
                    assert eq.residual < 1e-8, (example_id, eq.kind)

                if example_id == "6.3":
                    e2 = eqs.E2[0]
                    assert e2.point.S == pytest.approx(1314.0, rel=1.5e-2)
                    assert e2.point.V1 == pytest.approx(4814.0, rel=1.5e-2)
                    assert e2.point.I2 == pytest.approx(368.0, rel=1.5e-2)
                if example_id == "6.4":
                    e3 = found[-1]
                    assert e3.kind == "E3"
                    assert e3.point.S == pytest.approx(1133.0, rel=1.5e-2)
                    assert e3.point.V1 == pytest.approx(320.0, rel=1.5e-2)
                    assert e3.point.I1 == pytest.approx(44.0, rel=1.5e-2)
                    assert e3.point.I2 == pytest.approx(774.0, rel=1.5e-2)

            sc2 = build_scenario("6.2")
            sc3 = build_scenario("6.3")
            sc4 = build_scenario("6.4")
            th4 = solve_all(sc4.params, sc4.incidence1, sc4.incidence2).thresholds
            assert best_time(lambda: solve_strain1(sc2.params, sc2.incidence1), 3) < 0.1
            assert best_time(lambda: solve_strain2(sc3.params, sc3.incidence2), 3) < 0.1
            assert (
                best_time(
                    lambda: solve_coexistence(sc4.params, sc4.incidence1, sc4.incidence2, th4),
                    3,
                )
                < 0.1
            )

    def test_criterion_04_strain1_level_discrepancy_documented(self):
        with record_criterion(4):
            sc = build_scenario("6.2")
            p, beta = sc.params, sc.incidence1.beta
            e1 = solve_strain1(p, sc.incidence1)[0]
            assert e1.point.S == pytest.approx(950.0, rel=1e-3)

            # independent route: plain bisection on the reduced balance
            # G(I1) = beta*S(I1)*I1 - alpha1*I1 with S eliminated through
            # the susceptible equation, using only the math module
            def balance(I1):
                S = (p.Lambda - p.alpha1 * I1) / p.lam
                return beta * S * I1 - p.alpha1 * I1

            lo, hi = 1e-9 * p.Lambda / p.alpha1, p.Lambda / p.alpha1
            assert balance(lo) > 0.0 and balance(hi) < 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if balance(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            root = 0.5 * (lo + hi)
            assert abs(balance(root)) < 1e-10
            assert e1.point.I1 == pytest.approx(root, rel=1e-9)
            assert root == pytest.approx(452.6315789473683, rel=1e-9)

            # the reproduction report must assert the certified level and
            # flag the published one as inconsistent
            result = reproduce("6.2")
            check = next(c for c in result.checks if c.name == "E1.I1")
            assert check.source == "certified" and check.passed
            assert "253" in check.discrepancy
            assert "253" in render_reproduction(result)

    def test_criterion_05_coefficient_tests_agree_with_the_eigensolver(self):
        with record_criterion(5):
            disagreements = []
            compared = 0

            def compare(report):
                nonlocal compared
                if (
                    report.verdict is not Verdict.INCONCLUSIVE
                    and report.eigen_verdict is not Verdict.INCONCLUSIVE
                ):
                    compared += 1
                    if report.verdict is not report.eigen_verdict:
                        disagreements.append(report)

            for example_id in EXAMPLE_IDS:
                report = analyze(build_scenario(example_id), include_global=False)
                for stab in report.stability:
                    compare(stab)

            for p, inc1, inc2 in random_cases(1105, 200):
                compare(classify_disease_free(p, inc1, inc2))
                eqs = solve_all(p, inc1, inc2)
                assert eqs.coexistence_error == ""
                for e1 in eqs.E1:
                    compare(classify(p, inc1, inc2, e1))
                for e2 in eqs.E2:
                    compare(classify(p, inc1, inc2, e2))
                for e3 in eqs.E3:
                    compare(classify(p, inc1, inc2, e3))

            assert compared >= 200
            assert disagreements == []

    def test_criterion_06_published_quartic_coefficients(self):
        with record_criterion(6):
            sc = build_scenario("6.4")
            p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
            e3 = solve_all(p, inc1, inc2).E3[0]
            stab = classify(p, inc1, inc2, e3)
            c = stab.coefficients
            x = e3.point.as_array()[:4]
            assert float(np.max(np.abs(vector_field(p, inc1, inc2, x)))) < 1e-8

            # independent route: the characteristic polynomial of a
            # central-difference Jacobian of the vector field, which uses
            # neither model.jacobian nor the Leibniz expansion of the
            # coefficients
            jac = np.empty((4, 4))
            for j in range(4):
                h = np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, abs(x[j]))
                step = h * np.eye(4)[j]
                jac[:, j] = (
                    vector_field(p, inc1, inc2, x + step) - vector_field(p, inc1, inc2, x - step)
                ) / (2.0 * h)
            oracle = dict(zip(("c1", "c2", "c3", "c4"), np.real(np.poly(jac))[1:]))
            for name, value in oracle.items():
                assert c[name] == pytest.approx(value, rel=1e-6), name

            # the spectrum product reproduces the constant coefficient
            # through a second route, and the composite conditions hold
            spectral_c4 = float(np.real(np.prod(stab.eigenvalues)))
            assert spectral_c4 == pytest.approx(c["c4"], rel=1e-9)
            assert c["c4"] > 0.0
            assert c["c1*c2 - c3"] > 0.0
            assert c["c1*c2*c3 - c3^2 - c1^2*c4"] > 0.0

            # published printed values, as the reproduction report spells
            # them: each is inconsistent with the formulas published
            # alongside it, so the report must assert the certified value
            # and flag the published one
            published = {"c1": "0.2501", "c2": "0.0171", "c3": "3.4759e-04"}
            result = reproduce("6.4")
            text = render_reproduction(result)
            for name, printed in published.items():
                assert abs(float(printed) / oracle[name] - 1.0) > 2e-2, name
                check = next(k for k in result.checks if k.name == "E3." + name)
                assert check.source == "certified" and check.passed, name
                assert printed in check.discrepancy, name
                assert printed in text, name

    def test_criterion_07_global_stability_scans(self):
        with record_criterion(7):
            sc = build_scenario("6.3")
            p, inc2 = sc.params, sc.incidence2
            e2 = solve_strain2(p, inc2)[0]
            t0 = time.perf_counter()
            scan = strain2_lyapunov_scan(p, inc2, e2, n_grid=200)
            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0
            assert scan.n_points == 200 * 200
            assert scan.nonpositive_everywhere
            at_eq = strain2_lyapunov_surface(p, inc2, e2, [e2.point.S], [e2.point.V1])
            assert abs(float(at_eq[0, 0])) <= 1e-9

            sc = build_scenario("6.4")
            p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
            e3 = solve_all(p, inc1, inc2).E3[0]
            t0 = time.perf_counter()
            traj = integrate(p, inc1, inc2, sc.initial, sc.integrator)
            # every state after the start, as analyze scans: the late states
            # lie within rounding of E3 and carry no sign, the early ones do
            scan = coexistence_lyapunov_scan(p, inc1, inc2, e3, traj.states[1:, :4])
            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0
            assert scan.max_value <= 1e-9
            assert scan.nonpositive_everywhere

    def test_criterion_08_each_example_reaches_its_attractor(self):
        with record_criterion(8):
            for example_id in EXAMPLE_IDS:
                sc = build_scenario(example_id)
                p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
                candidates = solve_all(p, inc1, inc2).all

                t0 = time.perf_counter()
                traj = integrate(p, inc1, inc2, sc.initial, sc.integrator)
                elapsed = time.perf_counter() - t0
                assert elapsed < 2.0, example_id

                kind = EXPECTED_ATTRACTOR[example_id]
                target = next(eq for eq in candidates if eq.kind == kind)
                final = traj.states[-1, :4]
                rel = float(
                    np.linalg.norm(final - target.point.as_array()[:4])
                    / np.linalg.norm(target.point.as_array()[:4])
                )
                assert rel < 1e-3, (example_id, rel)
                event = detect_convergence(traj, candidates, sc.integrator)
                assert event is not None and event.detail.startswith(kind), example_id

    def test_criterion_09_random_starts_in_the_trapping_box(self):
        with record_criterion(9):
            for seed, example_id in enumerate(EXAMPLE_IDS, start=901):
                sc = build_scenario(example_id)
                p = sc.params
                cap = p.population_cap
                atol = sc.integrator.atol
                rng = np.random.default_rng(seed)
                for _ in range(100):
                    shares = rng.exponential(1.0, 4)
                    x0 = shares / shares.sum() * rng.uniform(0.0, 1.0) * cap
                    traj = integrate(p, sc.incidence1, sc.incidence2, x0, sc.integrator)
                    low = float(np.min(traj.states))
                    assert low >= -atol and low >= 0.0
                    assert not any(e.kind == "tolerance_failure" for e in traj.events)
                    inv = monitor_invariance(traj, p)
                    assert inv.first_omega_violation is None
                    assert inv.first_omega1_violation is None
                    assert inv.final_total <= cap * (1.0 + 1e-3)

    def test_criterion_10_vaccination_sweep_shape(self):
        with record_criterion(10):
            base = build_scenario("6.1")

            def bilinear_strain2(beta2):
                return Scenario(base.params, base.incidence1, IncidenceSpec.bilinear(beta2))

            def r_curve(sc, n):
                rows = sweep(sc, "r", 0.0, 150.0, n, classify=False)
                return (
                    np.array([row.value for row in rows]),
                    np.array([row.R2 for row in rows]),
                )

            # direct route dominant: more vaccination lowers the threshold
            _, ys = r_curve(bilinear_strain2(2e-4), 200)
            assert np.all(np.diff(ys) < 0.0)
            # balanced routes: the threshold is flat in the vaccination rate
            _, ys = r_curve(bilinear_strain2(base.params.k), 200)
            assert float(np.max(ys) - np.min(ys)) <= 1e-12 * float(np.max(ys))
            # vaccinated route dominant: more vaccination raises it
            _, ys = r_curve(bilinear_strain2(1e-5), 200)
            assert np.all(np.diff(ys) > 0.0)
            # stronger saturation always lowers the threshold
            rows = sweep(base, "incidence2.zeta", 0.05, 2.0, 200, classify=False)
            zs = np.array([row.R2 for row in rows])
            assert np.all(np.diff(zs) < 0.0)

            # with S-saturated strain-2 incidence the threshold peaks at an
            # interior vaccination rate. Write S0 = Lambda/(r + mu) and
            # V1_0 = Lambda/mu - S0; then
            #   alpha2*R2 = beta*S0/(1 + zeta*S0) - k*S0 + k*Lambda/mu,
            # which is stationary in S0 where (1 + zeta*S0)^2 = beta/k, i.e.
            #   r* = zeta*Lambda*sqrt(k)/(sqrt(beta) - sqrt(k)) - mu
            xs, ys = r_curve(base, 1000)
            found = turning_point(xs, ys)
            assert found is not None
            _, r_hat = found
            p, inc2 = base.params, base.incidence2
            r_star = (
                inc2.zeta * p.Lambda * math.sqrt(p.k) / (math.sqrt(inc2.beta) - math.sqrt(p.k))
                - p.mu
            )
            cell = xs[1] - xs[0]
            assert abs(r_hat - r_star) <= cell

            # independent sign test: R2 falls on both sides of r*
            def r2_at(r):
                return thresholds(dataclasses.replace(p, r=r), base.incidence1, inc2).R2

            peak = r2_at(r_star)
            assert r2_at(r_star * (1.0 - 1e-4)) < peak
            assert r2_at(r_star * (1.0 + 1e-4)) < peak

            # the published closed form drops the square roots; it misses
            # the sampled maximum by far more than a grid cell
            r_pub = inc2.zeta * p.k * p.Lambda / (inc2.beta - p.k) - p.mu
            assert abs(r_hat - r_pub) > cell

    def test_criterion_11_incidence_hypotheses_and_partials(self):
        with record_criterion(11):
            families = (
                IncidenceSpec.bilinear(2e-4),
                IncidenceSpec.saturated_s(2e-4, 0.9),
                IncidenceSpec.saturated_i2(3e-5, 0.7),
            )
            for inc in families:
                report = inc.check_hypotheses(1e4, 1e4)
                assert report.all_pass, (inc.family, report.checks)

            # analytic partials against central differences on log-spaced
            # grids; the comparison floor carries the cancellation noise of
            # the difference quotient itself
            eps = float(np.finfo(float).eps)
            grid = np.geomspace(1e-2, 1e4, 13)
            for inc in families:
                for S in grid:
                    for I in grid:
                        for axis in ("S", "I"):
                            coord = S if axis == "S" else I
                            h = math.sqrt(eps) * max(1.0, abs(coord))
                            if axis == "S":
                                fd = (inc.rate(S + h, I) - inc.rate(S - h, I)) / (2.0 * h)
                                an = inc.d_rate_dS(S, I)
                            else:
                                fd = (inc.rate(S, I + h) - inc.rate(S, I - h)) / (2.0 * h)
                                an = inc.d_rate_dI(S, I)
                            noise = 8.0 * eps * abs(inc.rate(S, I)) / h
                            tol = 1e-6 * max(abs(an), abs(fd)) + noise
                            assert abs(an - fd) <= tol, (inc.family, axis, S, I)
