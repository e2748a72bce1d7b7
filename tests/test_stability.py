"""Local-stability classification and Lyapunov-condition scans.

The Routh-Hurwitz route, coefficients from one generic Leibniz expansion
of the characteristic polynomial, is checked against the dense
eigensolver, against frozen coefficient values for the coexistence case,
and against Vieta's relations between the quartic coefficients and the
computed spectrum. tests/test_charpoly.py proves the expansion equal to
the closed-form coefficients symbolically.
"""

import numpy as np
import pytest

from twostrain.equilibria import (
    Equilibrium,
    disease_free,
    solve_all,
    solve_strain1,
    solve_strain2,
)
from twostrain.errors import DomainError, PreconditionError
from twostrain.incidence import IncidenceSpec
from twostrain.model import ModelParams, State, invasion_numbers, jacobian, reproduction_number, thresholds
from twostrain.stability import (
    EIGEN_DEADBAND,
    KINDS,
    GridScanSummary,
    Verdict,
    classify,
    classify_disease_free,
    coexistence_lyapunov_scan,
    coexistence_lyapunov_values,
    eigen_classify,
    lyapunov_scan_grid,
    strain2_lyapunov_scan,
    strain2_lyapunov_surface,
)

BASE = dict(Lambda=200.0, mu=0.02, gamma1=0.07, gamma2=0.09, v1=0.1, v2=0.1, k=2e-5)


def params(r=0.1, **overrides):
    merged = dict(BASE, r=r)
    merged.update(overrides)
    return ModelParams(**merged)


def setup_low_transmission():
    # both strains below threshold; the disease-free state is the attractor
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


class TestEigenClassify:
    def test_sorted_by_descending_real_part(self):
        J = np.diag([-3.0, -1.0, -2.0, -0.5])
        eigs, verdict = eigen_classify(J)
        assert np.allclose(eigs.real, [-0.5, -1.0, -2.0, -3.0])
        assert verdict is Verdict.LOCALLY_STABLE

    def test_unstable_and_marginal(self):
        eigs, verdict = eigen_classify(np.diag([1e-6, -1.0]))
        assert verdict is Verdict.UNSTABLE
        # a real part inside the dead-band is treated as undecidable
        eigs, verdict = eigen_classify(np.diag([EIGEN_DEADBAND / 2.0, -1.0]))
        assert verdict is Verdict.INCONCLUSIVE

    def test_rejects_non_finite_entries(self):
        J = np.eye(3)
        J[1, 2] = np.nan
        with pytest.raises(DomainError):
            eigen_classify(J)


class TestDiseaseFree:
    def test_low_transmission_spectrum_and_verdict(self):
        p, inc1, inc2 = setup_low_transmission()
        report = classify_disease_free(p, inc1, inc2)
        assert report.kind == "E0"
        assert report.verdict is Verdict.LOCALLY_STABLE
        assert report.eigen_verdict is Verdict.LOCALLY_STABLE
        assert report.conditions == {"R1 < 1": True, "R2 < 1": True}
        th = thresholds(p, inc1, inc2)
        expected = sorted(
            [-p.lam, -p.mu, p.alpha1 * (th.R1 - 1.0), p.alpha2 * (th.R2 - 1.0)],
            reverse=True,
        )
        assert np.allclose(report.eigenvalues.real, expected, rtol=1e-12)
        assert np.allclose(report.eigenvalues.imag, 0.0)
        # saturated_i2 has slope beta1*S0 at I1 = 0, so the smallest
        # eigenvalue is beta1*S0 - alpha1 = 0.05 - 0.19 exactly
        assert report.eigenvalues[-1].real == pytest.approx(-0.14, rel=1e-12)

    def test_matches_dense_eigensolver(self):
        p, inc1, inc2 = setup_low_transmission()
        report = classify_disease_free(p, inc1, inc2)
        point = State(p.susceptible_cap, p.vaccinated_cap, 0.0, 0.0)
        eigs, _ = eigen_classify(jacobian(p, inc1, inc2, point))
        assert np.allclose(np.sort(report.eigenvalues.real), np.sort(eigs.real), atol=1e-10)

    def test_unstable_when_either_strain_crosses(self):
        p, inc1, inc2 = setup_strain1_dominant()
        report = classify_disease_free(p, inc1, inc2)
        assert report.verdict is Verdict.UNSTABLE
        assert report.eigen_verdict is Verdict.UNSTABLE
        assert report.conditions["R1 < 1"] is False

        p, inc1, inc2 = setup_coexistence()
        report = classify_disease_free(p, inc1, inc2)
        assert report.verdict is Verdict.UNSTABLE
        assert report.conditions == {"R1 < 1": False, "R2 < 1": False}

    def test_marginal_threshold_is_inconclusive(self):
        # engineer R2 = 1: beta2*S0/alpha2 + k*r*Lambda/(alpha2*mu*lam) = 1
        p = params()
        vaccinated_route = p.k * p.r * p.Lambda / (p.mu * p.lam)
        beta2 = (p.alpha2 - vaccinated_route) / p.susceptible_cap
        inc1 = IncidenceSpec.saturated_i2(3e-5, 0.7)
        inc2 = IncidenceSpec.bilinear(beta2)
        th = thresholds(p, inc1, inc2)
        assert th.R2 == pytest.approx(1.0, abs=1e-14)
        report = classify_disease_free(p, inc1, inc2)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.eigen_verdict is Verdict.INCONCLUSIVE


class TestClassify:
    """One classifier for every kind, driven by the KINDS table."""

    def test_disease_free_goes_to_the_closed_form(self):
        p, inc1, inc2 = setup_strain1_dominant()
        report = classify(p, inc1, inc2, disease_free(p, inc1, inc2))
        closed = classify_disease_free(p, inc1, inc2)
        assert report.kind == "E0" and report.notes == closed.notes
        np.testing.assert_array_equal(report.eigenvalues, closed.eigenvalues)

    def test_table_matches_every_report(self):
        for setup in (setup_strain1_dominant, setup_strain2_dominant, setup_coexistence):
            p, inc1, inc2 = setup()
            eqs = solve_all(p, inc1, inc2)
            for eq in eqs.all[1:]:
                kind, report = KINDS[eq.kind], classify(p, inc1, inc2, eq)
                assert report.kind == eq.kind
                assert tuple(report.coefficients) == kind.names
                J = jacobian(p, inc1, inc2, eq.point)
                if kind.strain is None:
                    assert kind.block == (0, 1, 2, 3)
                    continue
                # the absent strain's row has no entry in the block's columns
                j = kind.absent
                assert kind.block == (0, 1, 1 + kind.strain) and 1 + j not in kind.block
                assert np.all(J[1 + j, list(kind.block)] == 0.0)
                eigenvalue = J[1 + j, 1 + j]
                invasion = getattr(eqs.thresholds, "R%d_invasion" % j)
                assert invasion == reproduction_number(p, (inc1, inc2)[j - 1], j, eq.point.S, eq.point.V1)
                alpha = (p.alpha1, p.alpha2)[j - 1]
                assert eigenvalue == pytest.approx(alpha * (invasion - 1.0), rel=1e-12)
                assert report.conditions["R%d_invasion < 1" % j] == (eigenvalue < 0.0)


class TestStrain1:
    def test_dominant_case_is_stable_both_routes(self):
        p, inc1, inc2 = setup_strain1_dominant()
        e1 = solve_strain1(p, inc1)[0]
        report = classify(p, inc1, inc2, e1)
        assert report.kind == "E1"
        assert report.verdict is Verdict.LOCALLY_STABLE
        assert report.eigen_verdict is Verdict.LOCALLY_STABLE
        assert all(report.conditions.values())
        assert set(report.coefficients) == {"a2", "a1", "a0", "a2*a1 - a0"}
        assert all(v > 0.0 for v in report.coefficients.values())

    def test_bilinear_incidence_zeroes_the_infective_diagonal(self):
        # with F1 = beta*S*I1 the I1 balance pins beta*S = alpha1 at the
        # equilibrium, so the (I1, I1) Jacobian entry vanishes
        p, inc1, inc2 = setup_strain1_dominant()
        e1 = solve_strain1(p, inc1)[0]
        J = jacobian(p, inc1, inc2, e1.point)
        assert J[2, 2] == pytest.approx(0.0, abs=1e-12)

    def test_invasion_eigenvalue_matches_invasion_number(self):
        p, inc1, inc2 = setup_strain1_dominant()
        e1 = solve_strain1(p, inc1)[0]
        J = jacobian(p, inc1, inc2, e1.point)
        R2_invasion, _ = invasion_numbers(p, inc1, inc2, e1=e1)
        assert R2_invasion == pytest.approx(0.453437917222964, rel=1e-12)
        assert J[3, 3] == pytest.approx(p.alpha2 * (R2_invasion - 1.0), rel=1e-12)
        report = classify(p, inc1, inc2, e1)
        assert report.conditions["R2_invasion < 1"] is True
        assert "R2_invasion = 0.453438" in report.notes[0]

    def test_unstable_when_strain2_can_invade(self):
        p, inc1, inc2 = setup_coexistence()
        e1 = solve_strain1(p, inc1)[0]
        report = classify(p, inc1, inc2, e1)
        assert report.verdict is Verdict.UNSTABLE
        assert report.eigen_verdict is Verdict.UNSTABLE
        assert report.conditions["R2_invasion < 1"] is False

    def test_rejects_uncertified_equilibrium(self):
        p, inc1, inc2 = setup_strain1_dominant()
        sloppy = Equilibrium(kind="E1", point=State(900.0, 4700.0, 400.0, 0.0), residual=1.0)
        with pytest.raises(PreconditionError):
            classify(p, inc1, inc2, sloppy)


class TestStrain2:
    def test_dominant_case_is_stable_both_routes(self):
        p, inc1, inc2 = setup_strain2_dominant()
        e2 = solve_strain2(p, inc2)[0]
        report = classify(p, inc1, inc2, e2)
        assert report.kind == "E2"
        assert report.verdict is Verdict.LOCALLY_STABLE
        assert report.eigen_verdict is Verdict.LOCALLY_STABLE
        assert all(report.conditions.values())
        assert all(v > 0.0 for v in report.coefficients.values())

    def test_invasion_eigenvalue_and_note_path(self):
        p, inc1, inc2 = setup_strain2_dominant()
        e2 = solve_strain2(p, inc2)[0]
        J = jacobian(p, inc1, inc2, e2.point)
        _, R1_invasion = invasion_numbers(p, inc1, inc2, e2=e2)
        assert R1_invasion == pytest.approx(0.2080488351515158, rel=1e-9)
        assert J[2, 2] == pytest.approx(p.alpha1 * (R1_invasion - 1.0), rel=1e-12)
        report = classify(p, inc1, inc2, e2)
        # saturated_s keeps dF2/dI2 > 0 at the equilibrium, so the explicit
        # coefficient test is the path taken
        assert "explicit coefficient test" in report.notes[0]

    def test_unstable_when_strain1_can_invade(self):
        p, inc1, inc2 = setup_coexistence()
        e2 = solve_strain2(p, inc2)[0]
        report = classify(p, inc1, inc2, e2)
        assert report.verdict is Verdict.UNSTABLE
        assert report.eigen_verdict is Verdict.UNSTABLE
        assert report.conditions["R1_invasion < 1"] is False


class TestCoexistence:
    def test_quartic_coefficients_frozen_values(self):
        p, inc1, inc2 = setup_coexistence()
        e3 = solve_all(p, inc1, inc2).E3[0]
        report = classify(p, inc1, inc2, e3)
        c = report.coefficients
        assert c["c1"] == pytest.approx(0.2592811352935187, rel=1e-9)
        assert c["c2"] == pytest.approx(0.044404900159116995, rel=1e-9)
        assert c["c3"] == pytest.approx(0.0029084972347433904, rel=1e-9)
        assert c["c4"] == pytest.approx(5.853413767019629e-05, rel=1e-9)
        assert c["c1*c2 - c3"] == pytest.approx(0.008604855691107813, rel=1e-9)
        assert c["c1*c2*c3 - c3^2 - c1^2*c4"] == pytest.approx(
            2.1092141653329875e-05, rel=1e-9
        )
        assert report.verdict is Verdict.LOCALLY_STABLE
        assert report.eigen_verdict is Verdict.LOCALLY_STABLE
        assert all(report.conditions.values())

    def test_spectrum_frozen_values(self):
        p, inc1, inc2 = setup_coexistence()
        e3 = solve_all(p, inc1, inc2).E3[0]
        report = classify(p, inc1, inc2, e3)
        eigs = report.eigenvalues
        assert eigs[0] == pytest.approx(-0.03797667, rel=1e-6)
        assert eigs[1] == pytest.approx(-0.05812961, rel=1e-6)
        assert eigs[2].real == pytest.approx(-0.08158743, rel=1e-6)
        assert abs(eigs[2].imag) == pytest.approx(0.14092088, rel=1e-6)
        assert eigs[3] == pytest.approx(np.conj(eigs[2]), rel=1e-12)

    def test_vieta_ties_coefficients_to_spectrum(self):
        # the Leibniz-expansion coefficients and the dense eigensolver are
        # independent routes; Vieta's formulas must reconcile them
        p, inc1, inc2 = setup_coexistence()
        e3 = solve_all(p, inc1, inc2).E3[0]
        report = classify(p, inc1, inc2, e3)
        eigs = report.eigenvalues
        c = report.coefficients
        assert float(np.real(-np.sum(eigs))) == pytest.approx(c["c1"], rel=1e-9)
        pairwise = sum(
            eigs[i] * eigs[j] for i in range(4) for j in range(i + 1, 4)
        )
        assert float(np.real(pairwise)) == pytest.approx(c["c2"], rel=1e-9)
        triple = sum(
            eigs[i] * eigs[j] * eigs[k]
            for i in range(4)
            for j in range(i + 1, 4)
            for k in range(j + 1, 4)
        )
        assert float(np.real(-triple)) == pytest.approx(c["c3"], rel=1e-9)
        assert float(np.real(np.prod(eigs))) == pytest.approx(c["c4"], rel=1e-9)


class TestCrossValidation:
    def test_random_draws_never_disagree(self):
        # light version of the acceptance sweep: wherever both the
        # coefficient route and the eigensolver are definitive they agree
        rng = np.random.default_rng(20240817)
        compared = 0
        for _ in range(20):
            p = ModelParams(
                Lambda=rng.uniform(50.0, 500.0),
                mu=rng.uniform(0.005, 0.05),
                r=rng.uniform(0.005, 0.2),
                k=10.0 ** rng.uniform(-6.0, -4.0),
                gamma1=rng.uniform(0.01, 0.2),
                gamma2=rng.uniform(0.01, 0.2),
                v1=rng.uniform(0.01, 0.2),
                v2=rng.uniform(0.01, 0.2),
            )
            beta1 = 10.0 ** rng.uniform(-6.0, -3.5)
            beta2 = 10.0 ** rng.uniform(-6.0, -3.5)
            inc1 = IncidenceSpec.bilinear(beta1)
            inc2 = IncidenceSpec.saturated_s(beta2, 10.0 ** rng.uniform(-4.0, 0.0))
            reports = [classify_disease_free(p, inc1, inc2)]
            for eq in solve_strain1(p, inc1) + solve_strain2(p, inc2):
                reports.append(classify(p, inc1, inc2, eq))
            for report in reports:
                if (
                    report.verdict is not Verdict.INCONCLUSIVE
                    and report.eigen_verdict is not Verdict.INCONCLUSIVE
                ):
                    assert report.verdict is report.eigen_verdict, report
                    compared += 1
        assert compared >= 20


class TestStrain2LyapunovScan:
    def test_surface_vanishes_at_the_equilibrium(self):
        p, inc1, inc2 = setup_strain2_dominant()
        e2 = solve_strain2(p, inc2)[0]
        pt = e2.point
        surface = strain2_lyapunov_surface(p, inc2, e2, [pt.S], [pt.V1])
        assert surface.shape == (1, 1)
        assert surface[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_default_grid_covers_the_invariant_box(self):
        p = params()
        S_values, V1_values = lyapunov_scan_grid(p, n_grid=64)
        assert S_values.shape == (64,) and V1_values.shape == (64,)
        assert S_values[0] == pytest.approx(1e-6 * p.susceptible_cap)
        assert S_values[-1] == pytest.approx(p.susceptible_cap)
        assert V1_values[-1] == pytest.approx(p.vaccinated_cap)
        assert np.all(np.diff(S_values) > 0.0)

    def test_scan_frozen_maximum(self):
        p, inc1, inc2 = setup_strain2_dominant()
        e2 = solve_strain2(p, inc2)[0]
        summary = strain2_lyapunov_scan(p, inc2, e2)
        assert summary.n_points == 200 * 200
        assert summary.nonpositive_everywhere
        assert summary.max_value == pytest.approx(-0.0005392623533035934, rel=1e-9)
        assert summary.argmax[0] == pytest.approx(1353.31, rel=1e-4)
        assert summary.argmax[1] == pytest.approx(4782.03, rel=1e-4)

    def test_explicit_ranges(self):
        p, inc1, inc2 = setup_strain2_dominant()
        e2 = solve_strain2(p, inc2)[0]
        surface = strain2_lyapunov_surface(
            p, inc2, e2, np.geomspace(100.0, 1500.0, 50), np.geomspace(1000.0, 5000.0, 50)
        )
        assert surface.size == 2500
        assert surface.max() <= 0.0

    def test_rejects_boundary_grid_points(self):
        p, inc1, inc2 = setup_strain2_dominant()
        e2 = solve_strain2(p, inc2)[0]
        with pytest.raises(DomainError):
            strain2_lyapunov_surface(p, inc2, e2, [0.0, 100.0], [1000.0])
        with pytest.raises(DomainError):
            strain2_lyapunov_surface(p, inc2, e2, [100.0], [-5.0])


class TestCoexistenceLyapunovValues:
    def test_vanishes_at_the_equilibrium(self):
        p, inc1, inc2 = setup_coexistence()
        e3 = solve_all(p, inc1, inc2).E3[0]
        values = coexistence_lyapunov_values(p, inc1, inc2, e3, e3.point.as_array())
        assert values.shape == (1,)
        assert values[0] == pytest.approx(0.0, abs=1e-9)

    def test_scan_sets_aside_only_unresolved_values(self):
        # within 1e-9 of E3 the expression is below its rounding error, so
        # those states pass whatever their sign; 1e-3 away every value is
        # resolved and negative; with strain 1 more infectious than at E3 the
        # same near states give resolved positive values and the check fails
        p, inc1, inc2 = setup_coexistence()
        e3 = solve_all(p, inc1, inc2).E3[0]
        rng = np.random.default_rng(11)
        base = e3.point.as_array()
        near = base * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, size=(40, 4)))
        assert np.max(np.abs(coexistence_lyapunov_values(p, inc1, inc2, e3, near))) < 1e-11
        assert coexistence_lyapunov_scan(p, inc1, inc2, e3, near).nonpositive_everywhere

        off = base * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=(40, 4)))
        values = coexistence_lyapunov_values(p, inc1, inc2, e3, off)
        assert np.all(values < -1e-9)
        both = coexistence_lyapunov_scan(p, inc1, inc2, e3, np.vstack([near, off]))
        assert both.nonpositive_everywhere
        assert both.max_value == float(np.max(values))

        hot = IncidenceSpec.saturated_i2(2.2e-4, 1e-4)
        summary = coexistence_lyapunov_scan(p, hot, inc2, e3, near)
        assert not summary.nonpositive_everywhere
        assert summary.max_value > 1e-3

    def test_finite_without_vaccination(self):
        # r = 0 gives V1* = 0; the V1 group then reduces to -(mu + k*I2*)*V1
        p = params(r=0.0)
        inc1 = IncidenceSpec.saturated_i2(2e-4, 1e-4)
        inc2 = IncidenceSpec.saturated_s(2e-4, 1e-4)
        e3 = solve_all(p, inc1, inc2).E3[0]
        assert e3.point.V1 == 0.0
        rng = np.random.default_rng(13)
        cloud = (e3.point.as_array() + 1.0) * rng.uniform(0.5, 1.5, size=(40, 4))
        values = coexistence_lyapunov_values(p, inc1, inc2, e3, cloud)
        assert np.all(np.isfinite(values))
        assert coexistence_lyapunov_scan(p, inc1, inc2, e3, cloud).nonpositive_everywhere

    def test_rejects_boundary_states(self):
        p, inc1, inc2 = setup_coexistence()
        e3 = solve_all(p, inc1, inc2).E3[0]
        with pytest.raises(DomainError):
            coexistence_lyapunov_values(
                p, inc1, inc2, e3, np.array([[1000.0, 300.0, 0.0, 700.0]])
            )

    def test_scan_matches_pointwise_values(self):
        p, inc1, inc2 = setup_coexistence()
        e3 = solve_all(p, inc1, inc2).E3[0]
        rng = np.random.default_rng(7)
        base = e3.point.as_array()
        cloud = base * rng.uniform(0.5, 1.5, size=(40, 4))
        summary = coexistence_lyapunov_scan(p, inc1, inc2, e3, cloud)
        values = coexistence_lyapunov_values(p, inc1, inc2, e3, cloud)
        assert isinstance(summary, GridScanSummary)
        assert summary.n_points == 40
        assert summary.max_value == pytest.approx(float(np.max(values)), rel=1e-15)
        idx = int(np.argmax(values))
        assert summary.argmax == pytest.approx(tuple(cloud[idx]))
        assert summary.nonpositive_everywhere == (summary.max_value <= 0.0)
