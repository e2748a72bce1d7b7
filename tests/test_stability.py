"""Local-stability classification and Lyapunov-condition scans.

The Routh-Hurwitz route, coefficients from one generic Leibniz expansion
of the characteristic polynomial, is checked against the dense
eigensolver, against frozen coefficient values for the coexistence case,
and against Vieta's relations between the quartic coefficients and the
computed spectrum. tests/test_charpoly.py proves the expansion equal to
the closed-form coefficients symbolically.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import random_cases, wavy_rate

from twostrain import analysis, model, stability
from twostrain.analysis import apply_sweep_value
from twostrain.benchmarks import EXAMPLE_IDS, build_scenario
from twostrain.equilibria import (
    Equilibrium,
    disease_free,
    solve_all,
    solve_strain1,
    solve_strain2,
)
from twostrain.errors import DomainError, PreconditionError, SolverError
from twostrain.incidence import IncidenceSpec
from twostrain.model import ModelParams, State, invasion_numbers, jacobian, reproduction_number, thresholds
from twostrain.stability import (
    EIGEN_DEADBAND,
    KINDS,
    GridScanSummary,
    Verdict,
    classify,
    classify_batch,
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

    def test_eigenvalues_are_complex_for_a_real_spectrum(self):
        assert eigen_classify(np.diag([-1.0, -2.0]))[0].dtype == complex

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

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,), (1, 2, 2), ()])
    def test_refuses_a_matrix_not_square_2d_and_nonempty_by_its_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape("not shape %s" % (shape,))):
            eigen_classify(np.zeros(shape))

    def test_non_convergence_stays_a_solver_error(self, monkeypatch):
        def fails(J):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fails)
        with pytest.raises(SolverError, match="converge"):
            eigen_classify(np.eye(2))


def former_verdict(tested, scales):
    """The verdict rule as it stood on padded numpy rows, ``_sign_banded``
    then ``_combine``: the oracle of ``stability._verdict``."""
    band = EIGEN_DEADBAND * np.fmax(1.0, np.array(scales, float))
    value = np.array(tested, float)
    signs = (value > band).astype(int) - (value < -band)
    return (Verdict.UNSTABLE, Verdict.INCONCLUSIVE, Verdict.LOCALLY_STABLE)[int(np.min(signs)) + 1]


class TestVerdictRule:
    """``_verdict`` is the former banded signs and their minimum, one
    quantity at a time, on Python floats."""

    SCALES = (0.0, 0.5, 1.0, 2.5, 1e300, math.inf, math.nan)

    @staticmethod
    def edges(scale):
        """Quantities at, just inside and just outside the band of ``scale``,
        and the values every band must place."""
        band = EIGEN_DEADBAND * max(1.0, scale)  # max keeps 1.0 over a NaN
        near = [band, -band, math.nextafter(band, math.inf), math.nextafter(-band, -math.inf)]
        near += [math.nextafter(band, 0.0), math.nextafter(-band, 0.0)]
        return near + [0.0, -0.0, 1.0, -1.0, 1e305, -1e305, math.inf, -math.inf, math.nan]

    def check(self, tested, scales):
        expected = former_verdict(tested, scales)
        assert stability._verdict(tested, scales) is expected, (tested, scales)
        if all(scale == 1.0 for scale in scales):
            assert stability._verdict(tested, stability._UNIT) is expected
        return expected

    @pytest.mark.parametrize("scale", SCALES)
    def test_one_quantity_at_each_edge_of_its_band(self, scale):
        seen = {self.check([q], [scale]) for q in self.edges(scale)}
        if math.isfinite(scale):
            assert seen == set(Verdict)

    def test_band_edges_and_nan(self):
        assert self.check([EIGEN_DEADBAND], [1.0]) is Verdict.INCONCLUSIVE
        assert self.check([-EIGEN_DEADBAND], [1.0]) is Verdict.INCONCLUSIVE
        assert self.check([math.nextafter(-EIGEN_DEADBAND, -1.0)], [1.0]) is Verdict.UNSTABLE
        assert self.check([math.nan], [1.0]) is Verdict.INCONCLUSIVE
        # a NaN scale is the bare band, and an infinite one makes any finite value marginal
        assert self.check([2e-10], [math.nan]) is Verdict.LOCALLY_STABLE
        assert self.check([1e300], [math.inf]) is Verdict.INCONCLUSIVE
        assert self.check([-1e290], [1e300]) is Verdict.INCONCLUSIVE

    def test_unstable_wins_in_either_order_after_a_marginal_one(self):
        for tested in ([0.0, -1.0], [-1.0, 0.0], [math.nan, -1.0], [-1.0, math.nan], [1.0, 0.0, 1.0, -1.0]):
            assert self.check(tested, [1.0] * len(tested)) is Verdict.UNSTABLE
        assert self.check([1.0, 0.0, 1.0], [1.0] * 3) is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_only_the_last_quantity_decides(self, n):
        # E1/E2's invasion eigenvalue is the 5th quantity, E3's last minor the 6th
        decided = ((-1.0, Verdict.UNSTABLE), (0.0, Verdict.INCONCLUSIVE), (math.nan, Verdict.INCONCLUSIVE))
        for last, verdict in decided + ((1.0, Verdict.LOCALLY_STABLE),):
            for scale in (0.0, 1.0, 2.5, math.nan):
                assert self.check([0.5] * (n - 1) + [last], [2.0] * (n - 1) + [scale]) is verdict

    def test_random_rows_of_edge_values(self):
        rng = np.random.default_rng(23)
        for _ in range(3000):
            n = int(rng.integers(1, 8))
            scales = [float(s) for s in rng.choice(self.SCALES, n)]
            tested = [float(rng.choice(self.edges(scale))) for scale in scales]
            self.check(tested, scales)

    def test_reports_follow_the_former_rule(self):
        # each route's quantities rebuilt from the Jacobian, through the oracle
        seen = set()
        for p, inc1, inc2 in random_cases(1105, 60):
            rows = [(p, inc1, inc2, eq) for eq in solve_all(p, inc1, inc2).all]
            for (*_, eq), report in zip(rows, classify_batch(rows)):
                J = jacobian(p, inc1, inc2, eq.point)
                assert report.eigen_verdict is former_verdict(-np.linalg.eigvals(J).real, [1.0] * 4)
                # the block's sums, then each row outside the block, for every kind
                tested, scales = stability._quantities(eq.kind)(J.ravel().tolist())
                outside = [i for i in range(4) if i not in KINDS[eq.kind].block]
                tested, scales = tested + tuple(-J[i, i] for i in outside), scales + (1.0,) * len(outside)
                assert report.verdict is former_verdict(tested, scales)
                seen.add((eq.kind, report.verdict))
        assert {verdict for _, verdict in seen} >= {Verdict.LOCALLY_STABLE, Verdict.UNSTABLE}
        assert {kind for kind, _ in seen} == {"E0", "E1", "E2", "E3"}

    @pytest.mark.parametrize("n", [1, 6])
    def test_eigen_classify_of_any_size(self, n):
        rng = np.random.default_rng(n)
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        for last in (-1.0, EIGEN_DEADBAND / 2.0, -EIGEN_DEADBAND / 2.0, 1e-6):
            # one eigenvalue at ``last``, the others well inside the left half-plane
            real = np.array([-1.0 - k for k in range(n - 1)] + [last])
            eigs, verdict = eigen_classify(Q @ np.diag(real) @ Q.T)
            assert eigs.shape == (n,) and verdict is former_verdict((-eigs.real).tolist(), [1.0] * n)
            expected = {-1.0: Verdict.LOCALLY_STABLE, 1e-6: Verdict.UNSTABLE}.get(last, Verdict.INCONCLUSIVE)
            assert verdict is expected, (n, last)


def former_disease_free(p, inc1, inc2):
    """E0's closed form as it stood before E0 joined ``KINDS``, the oracle
    of its report: the quantities its verdict tested, with unit scales,
    its conditions, and its eigenvalues -lam, -mu, alpha1*(R1 - 1) and
    alpha2*(R2 - 1) from the thresholds."""
    th = thresholds(p, inc1, inc2)
    closed = (-p.lam, -p.mu, p.alpha1 * (th.R1 - 1.0), p.alpha2 * (th.R2 - 1.0))
    return [-value for value in closed], {"R1 < 1": th.R1 < 1.0, "R2 < 1": th.R2 < 1.0}, closed


class TestDiseaseFree:
    def test_reports_follow_the_former_closed_form(self):
        # criterion 5's draws and the 41-row r-sweeps of 6.1-6.4
        cases = list(random_cases(1105, 600))
        for example in EXAMPLE_IDS:
            scenarios = [apply_sweep_value(build_scenario(example), "r", v) for v in np.linspace(0.0, 0.2, 41)]
            cases += [(sc.params, sc.incidence1, sc.incidence2) for sc in scenarios]
        rows = [(*case, disease_free(*case)) for case in cases]
        J = model.jacobians([(p, inc1, inc2, eq.point) for p, inc1, inc2, eq in rows])
        seen = set()
        for (p, inc1, inc2, _), report, j in zip(rows, classify_batch(rows), J):
            tested, conditions, closed = former_disease_free(p, inc1, inc2)
            assert report.verdict is former_verdict(tested, [1.0] * 4)
            assert report.eigen_verdict is former_verdict([-x for x in closed], [1.0] * 4)
            assert report.conditions == conditions
            # the S and V1 rows bit for bit, and each I row to rounding
            assert (j[0, 0], j[1, 1]) == (-p.lam, -p.mu)
            th = thresholds(p, inc1, inc2)
            for strain, R, alpha in ((1, th.R1, p.alpha1), (2, th.R2, p.alpha2)):
                gap = abs(j[1 + strain, 1 + strain] - alpha * (R - 1.0))
                assert gap <= 4.0 * np.finfo(float).eps * alpha * max(1.0, R), (strain, gap)
            seen.add(report.verdict)
        assert len(rows) == 764 and seen == {Verdict.LOCALLY_STABLE, Verdict.UNSTABLE}

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

    def test_classify_disease_free_is_classify_of_e0(self):
        p, inc1, inc2 = setup_strain1_dominant()
        report = classify(p, inc1, inc2, disease_free(p, inc1, inc2))
        closed = classify_disease_free(p, inc1, inc2)
        assert report.kind == "E0" and report.notes == closed.notes
        np.testing.assert_array_equal(report.eigenvalues, closed.eigenvalues)

    def test_table_matches_every_report(self):
        # every absent strain's I row is decoupled from the block, and its
        # diagonal entry is alpha_j*(N - 1) for the kind's number N
        seen = set()
        for setup in (setup_low_transmission, setup_strain1_dominant, setup_strain2_dominant, setup_coexistence):
            p, inc1, inc2 = setup()
            eqs = solve_all(p, inc1, inc2)
            for eq in eqs.all:
                kind, report = KINDS[eq.kind], classify(p, inc1, inc2, eq)
                assert report.kind == eq.kind
                assert tuple(report.coefficients) == kind.names
                J = jacobian(p, inc1, inc2, eq.point)
                absent = [j for j, _ in kind.absent]
                assert absent == [j for j in (1, 2) if 1 + j not in kind.block]
                present = tuple(1 + j for j in (1, 2) if j not in absent)
                assert kind.block == ((0, 1, *present) if present else ())
                assert kind.strain == (None if len(absent) != 1 else 3 - absent[0])
                for j, number in kind.absent:
                    assert np.all(J[1 + j, list(kind.block)] == 0.0)
                    eigenvalue = J[1 + j, 1 + j]
                    value = getattr(eqs.thresholds, number)
                    assert value == reproduction_number(p, (inc1, inc2)[j - 1], j, eq.point.S, eq.point.V1)
                    alpha = (p.alpha1, p.alpha2)[j - 1]
                    assert eigenvalue == pytest.approx(alpha * (value - 1.0), rel=1e-12)
                    assert report.conditions["%s < 1" % number] == (eigenvalue < 0.0)
                    note = "invasion eigenvalue alpha%d*(%s - 1) = %.6g (%s = %.6g)" % (j, number, eigenvalue, number, value)
                    assert note in report.notes
                assert len(report.conditions) == len(kind.names) + len(kind.absent)
                seen.add((eq.kind, len(absent)))
        assert seen == {("E0", 2), ("E1", 1), ("E2", 1), ("E3", 0)}


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


def r_sweep(sc, start, stop, n):
    """The (p, inc1, inc2, eq) rows of every equilibrium of an r-sweep of
    ``sc``, one list per sweep row."""
    cases = []
    for value in np.linspace(start, stop, n):
        row = apply_sweep_value(sc, "r", value)
        cases.append((row.params, row.incidence1, row.incidence2))
    return [[(*case, eq) for eq in solve_all(*case).all] for case in cases]


def report_bits(report):
    """Everything a report holds, with each float as its exact bits."""
    return (
        report.kind,
        report.eigenvalues.dtype,
        report.eigenvalues.tobytes(),
        [(name, float(value).hex()) for name, value in report.coefficients.items()],
        report.conditions,
        report.verdict,
        report.eigen_verdict,
        report.notes,
    )


class TestBatch:
    """``classify`` is the one-row case of ``classify_batch``."""

    @pytest.mark.parametrize("strain2", ["built-in", "wavy"])
    def test_rows_are_independent_of_their_block(self, strain2):
        sc = build_scenario("6.4")
        if strain2 == "built-in":
            groups = r_sweep(sc, 0.0, 0.2, 40)
        else:
            # a custom rate enters by linearisation columns, stacked like the rest
            groups = r_sweep(dataclasses.replace(sc, incidence2=wavy_rate()), 0.02, 0.2, 10)
        rows = [row for group in groups for row in group]
        reports = classify_batch(rows)
        assert {report.kind for report in reports} == {"E0", "E1", "E2", "E3"}
        block = list(map(report_bits, reports))
        assert block == [report_bits(classify(*row)) for row in rows]
        slices = [groups[at : at + 2] for at in range(0, len(groups), 2)]
        assert len(slices) == len(groups) // 2
        assert block == [
            report_bits(report)
            for pair in slices
            for report in classify_batch([row for group in pair for row in group])
        ]

    def test_a_block_may_mix_family_pairs(self):
        # each row binds the field of its own rate texts: the built-in pair
        # of 6.4 and the same rows with wavy_rate as strain 2, in one block
        sc = build_scenario("6.4")
        built_in = [row for group in r_sweep(sc, 0.02, 0.2, 6) for row in group]
        custom = dataclasses.replace(sc, incidence2=wavy_rate())
        wavy = [row for group in r_sweep(custom, 0.02, 0.2, 6) for row in group]
        rows = [row for pair in zip(built_in, wavy) for row in pair]
        assert {(row[1].family, row[2].family) for row in rows} == {
            (sc.incidence1.family, sc.incidence2.family),
            (sc.incidence1.family, "custom"),
        }
        assert [report_bits(report) for report in classify_batch(rows)] == [
            report_bits(classify(*row)) for row in rows
        ]

    def test_eigenvalues_keep_the_order_of_eigen_classify(self):
        rows = [row for group in r_sweep(build_scenario("6.4"), 0.0, 0.2, 40) for row in group]
        for p, inc1, inc2 in random_cases(1105, 40):
            rows += [(p, inc1, inc2, eq) for eq in solve_all(p, inc1, inc2).all]
        pairs = 0
        for (p, inc1, inc2, eq), report in zip(rows, classify_batch(rows)):
            if eq.kind == "E0":
                continue
            J = jacobian(p, inc1, inc2, eq.point)
            eigs = np.linalg.eigvals(J).astype(complex)
            expected = eigs[np.argsort(-eigs.real)]
            assert report.eigenvalues.tobytes() == expected.tobytes()
            assert report.eigenvalues.tobytes() == eigen_classify(J)[0].tobytes()
            pairs += np.count_nonzero(expected.imag > 0.0)
        assert pairs > 0  # some conjugate pair has its order checked

    def test_non_finite_jacobian_raises_for_the_block(self):
        p, inc1, inc2 = setup_coexistence()
        rows = [(p, inc1, inc2, eq) for eq in solve_all(p, inc1, inc2).all]
        e3 = rows[-1][3]
        at_nan = dataclasses.replace(e3, point=State(np.nan, 100.0, 10.0, 10.0))
        with pytest.raises(DomainError):
            classify_batch(rows + [(p, inc1, inc2, at_nan)])
        # a finite state whose strain-2 partial overflows
        steep = IncidenceSpec.custom(
            lambda S, I: 2e-4 * S * I,
            d_rate_dI=lambda S, I: np.where(I > 100.0, np.inf, 2e-4 * S),
        )
        points = [State(500.0, 500.0, 50.0, 50.0), State(500.0, 500.0, 50.0, 150.0)]
        block = [(p, inc1, steep, dataclasses.replace(e3, point=pt)) for pt in points]
        assert classify_batch(block[:1])[0].kind == "E3"
        with pytest.raises(DomainError):
            classify_batch(block)

    def test_a_classified_sweep_block_makes_one_jacobian_and_one_eigensolve(self, monkeypatch):
        calls = {"jacobians": 0, "eigvals": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(stability, "jacobians", counted("jacobians", model.jacobians))
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        rows = analysis.sweep(build_scenario("6.4"), "r", 0.02, 0.035, 4)
        assert all(row.verdicts["E3"] != "absent" for row in rows)
        assert calls == {"jacobians": 1, "eigvals": 1}


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

    @pytest.mark.parametrize("n_grid", [0, -3, 2.0, True, None])
    def test_refuses_a_grid_size_not_an_integer_at_least_one(self, n_grid):
        p, inc1, inc2 = setup_strain2_dominant()
        e2 = solve_strain2(p, inc2)[0]
        with pytest.raises(ValueError, match="n_grid must be an integer >= 1"):
            lyapunov_scan_grid(p, n_grid)
        with pytest.raises(ValueError, match="n_grid must be an integer >= 1"):
            strain2_lyapunov_scan(p, inc2, e2, n_grid=n_grid)

    def test_no_vaccination_leaves_no_v1_range(self):
        with pytest.raises(DomainError, match="r = 0.0"):
            lyapunov_scan_grid(params(r=0.0))

    def test_subnormal_r_leaves_no_v1_range(self):
        # V10 > 0, but the range's lower end 1e-6*V10 underflows to 0
        with pytest.raises(DomainError, match="r = 5e-324"):
            lyapunov_scan_grid(params(r=5e-324))

    @pytest.mark.parametrize("Lambda, r", [(2e-308, 1e10), (1e-318, 1.0)])
    def test_tiny_lambda_leaves_no_s_range(self, Lambda, r):
        # S0 = Lambda/lam > 0, but 1e-6*S0 underflows to 0; at the second
        # point 1e-6*V10 does too, and the error still names Lambda, not r
        p = ModelParams(Lambda=Lambda, mu=1.0, r=r, k=0.0, gamma1=0.0, gamma2=0.0, v1=0.0, v2=0.0)
        with pytest.raises(DomainError, match=r"Lambda = %r leaves no S range \(1e-6\*S0 = 0\)$" % Lambda):
            lyapunov_scan_grid(p)

    @pytest.mark.parametrize(
        "Lambda, mu, r, message",
        [
            (1e308, 1e-10, 1e-10, r"Lambda = 1e\+308 over lam = 2e-10 leaves no finite S range \(S0 = inf\)$"),
            (1e300, 1e-10, 1e10, r"r = 10000000000.0 over mu = 1e-10 leaves no finite V1 range \(V10 = inf\)$"),
        ],
    )
    def test_overflowing_cap_leaves_no_finite_range(self, Lambda, mu, r, message):
        # S0 = Lambda/lam, or else V10 = r*Lambda/(mu*lam), overflows to inf,
        # where the grid would run from inf to inf through NaN
        p = ModelParams(Lambda=Lambda, mu=mu, r=r, k=0.0, gamma1=0.0, gamma2=0.0, v1=0.0, v2=0.0)
        with pytest.raises(DomainError, match=message):
            lyapunov_scan_grid(p, 4)

    def test_one_point_grid(self):
        p, inc1, inc2 = setup_strain2_dominant()
        e2 = solve_strain2(p, inc2)[0]
        summary = strain2_lyapunov_scan(p, inc2, e2, n_grid=1)
        assert summary.n_points == 1
        assert summary.argmax == (1e-6 * p.susceptible_cap, 1e-6 * p.vaccinated_cap)

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

    def test_scan_refuses_zero_states(self):
        p, inc1, inc2 = setup_coexistence()
        e3 = solve_all(p, inc1, inc2).E3[0]
        assert coexistence_lyapunov_values(p, inc1, inc2, e3, np.empty((0, 4))).shape == (0,)
        with pytest.raises(ValueError, match="at least one state"):
            coexistence_lyapunov_scan(p, inc1, inc2, e3, np.empty((0, 4)))

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
