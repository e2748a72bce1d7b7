import numpy as np
import pytest

from twostrain.equilibria import (
    disease_free,
    solve_all,
    solve_coexistence,
    solve_strain1,
    solve_strain2,
    strain1_balance,
    strain2_balance,
    strain2_coordinates,
    strain2_discriminant,
)
from twostrain.errors import SolverError
from twostrain.incidence import IncidenceSpec
from twostrain.model import (
    RESIDUAL_TOL,
    ModelParams,
    Thresholds,
    invasion_numbers,
    residual,
    thresholds,
    vector_field,
)

BASE = dict(Lambda=200.0, mu=0.02, gamma1=0.07, gamma2=0.09, v1=0.1, v2=0.1, k=2e-5)


def params(r=0.1, **overrides):
    merged = dict(BASE, r=r)
    merged.update(overrides)
    return ModelParams(**merged)


class TestDiseaseFree:
    def test_closed_form_coordinates(self):
        p = params()
        e0 = disease_free(p)
        assert e0.kind == "E0"
        assert e0.point.S == pytest.approx(1666.6666666666665, rel=1e-15)
        assert e0.point.V1 == pytest.approx(8333.333333333332, rel=1e-15)
        assert e0.point.I1 == 0.0 and e0.point.I2 == 0.0

    def test_full_field_residual_when_incidences_given(self):
        p = params()
        inc1 = IncidenceSpec.saturated_i2(3e-5, 0.7)
        inc2 = IncidenceSpec.saturated_s(2e-4, 0.9)
        e0 = disease_free(p, inc1, inc2)
        assert e0.residual < RESIDUAL_TOL
        assert e0.residual == residual(p, inc1, inc2, e0.point.as_array())


class TestStrain1:
    def test_absent_below_threshold(self):
        p = params()
        inc1 = IncidenceSpec.saturated_i2(3e-5, 0.7)  # R1 = 0.263
        assert solve_strain1(p, inc1) is None

    def test_example_bilinear_values(self):
        # with bilinear strain-1 incidence the susceptible coordinate is
        # alpha1/beta1 exactly and the infective level follows from the
        # S balance
        p = params()
        inc1 = IncidenceSpec.bilinear(2e-4)
        e1 = solve_strain1(p, inc1)
        assert e1 is not None and e1.kind == "E1"
        assert e1.point.S == pytest.approx(950.0, rel=1e-12)
        assert e1.point.I1 == pytest.approx(452.6315789473683, rel=1e-10)
        assert e1.point.V1 == pytest.approx(4750.0, rel=1e-12)
        assert e1.point.I2 == 0.0
        assert e1.residual < RESIDUAL_TOL
        assert e1.existence[0].name == "R1 > 1"
        assert e1.existence[0].satisfied

    def test_balance_at_upper_bracket_end(self):
        # at I1 = Lambda/alpha1 all inflow is spent: G = F1(0, .) - Lambda
        p = params()
        inc1 = IncidenceSpec.bilinear(2e-4)
        hi = p.Lambda / p.alpha1
        assert strain1_balance(p, inc1, hi) == pytest.approx(-p.Lambda, rel=1e-14)

    def test_balance_slope_at_origin(self):
        # G'(0) = alpha1*(R1 - 1)
        p = params()
        inc1 = IncidenceSpec.bilinear(2e-4)
        th = thresholds(p, inc1, IncidenceSpec.saturated_s(2e-4, 0.9))
        h = 1e-7
        slope = (strain1_balance(p, inc1, h) - strain1_balance(p, inc1, 0.0)) / h
        assert slope == pytest.approx(p.alpha1 * (th.R1 - 1.0), rel=1e-5)

    def test_random_draws_certified(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            p = params(
                r=rng.uniform(0.01, 0.2),
                Lambda=rng.uniform(50.0, 500.0),
                mu=rng.uniform(0.005, 0.05),
            )
            target = rng.uniform(1.1, 8.0)
            S0 = p.susceptible_cap
            kind = rng.integers(3)
            if kind == 0:
                inc1 = IncidenceSpec.bilinear(target * p.alpha1 / S0)
            elif kind == 1:
                zeta = 10.0 ** rng.uniform(-4.0, -1.0)
                inc1 = IncidenceSpec.saturated_s(target * p.alpha1 * (1.0 + zeta * S0) / S0, zeta)
            else:
                inc1 = IncidenceSpec.saturated_i2(target * p.alpha1 / S0, 10.0 ** rng.uniform(-5.0, 0.0))
            e1 = solve_strain1(p, inc1)
            assert e1 is not None
            assert e1.residual < RESIDUAL_TOL
            assert 0.0 < e1.point.I1 <= p.Lambda / p.alpha1


class TestStrain2:
    def test_absent_below_threshold(self):
        p = params()
        inc2 = IncidenceSpec.saturated_s(2e-4, 0.9)  # R2 = 0.795
        assert solve_strain2(p, inc2) == []

    def test_example_values(self):
        p = params()
        inc2 = IncidenceSpec.saturated_s(2e-4, 0.001)
        roots = solve_strain2(p, inc2)
        assert len(roots) == 1
        e2 = roots[0]
        assert e2.kind == "E2"
        assert e2.point.S == pytest.approx(1317.6426226262665, rel=1e-9)
        assert e2.point.V1 == pytest.approx(4814.729070985228, rel=1e-9)
        assert e2.point.I2 == pytest.approx(368.3455529893815, rel=1e-9)
        assert e2.point.I1 == 0.0
        assert e2.residual < RESIDUAL_TOL
        assert "unique positive root expected" in e2.multiplicity_note

    def test_coordinates_at_zero_infectives(self):
        p = params()
        S, V1 = strain2_coordinates(p, 0.0)
        assert S == pytest.approx(p.susceptible_cap, rel=1e-14)
        assert V1 == pytest.approx(p.vaccinated_cap, rel=1e-14)

    def test_discriminant_sign_example(self):
        assert strain2_discriminant(params()) < 0.0

    def test_discriminant_positive_branch(self):
        # k*Lambda*r large against alpha2*mu*lam flips the discriminant;
        # the solver must still certify whatever roots it reports
        p = params(r=0.2, Lambda=500.0, k=1e-3)
        assert strain2_discriminant(p) > 0.0
        inc2 = IncidenceSpec.saturated_s(2e-4, 0.01)
        roots = solve_strain2(p, inc2)
        assert roots, "R2 > 1 here, a root must exist"
        for e2 in roots:
            assert e2.residual < RESIDUAL_TOL
            assert "at most one" in e2.multiplicity_note

    def test_roots_match_a_cell_by_cell_reference(self):
        # the scan as a plain loop over its cells, with brentq on each sign
        # change, must give the same roots as the vectorized scan
        optimize = pytest.importorskip("scipy.optimize")
        cases = (
            (params(), IncidenceSpec.saturated_s(2e-4, 0.001)),
            (params(r=0.2, Lambda=500.0, k=1e-3), IncidenceSpec.saturated_s(2e-4, 0.01)),
        )
        for p, inc2 in cases:
            hi = p.Lambda / p.alpha2
            xs = np.linspace(0.0, hi, 4097)
            xs[0] = 1e-9 * hi
            h = [float(strain2_balance(p, inc2, x)) for x in xs]
            expected = [
                optimize.brentq(lambda x: strain2_balance(p, inc2, x), xs[i], xs[i + 1], xtol=1e-13)
                for i in range(len(xs) - 1)
                if (h[i] > 0.0) != (h[i + 1] > 0.0)
            ]
            got = [e2.point.I2 for e2 in solve_strain2(p, inc2)]
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_balance_sign_change_brackets_root(self):
        p = params()
        inc2 = IncidenceSpec.saturated_s(2e-4, 0.001)
        root = solve_strain2(p, inc2)[0].point.I2
        assert strain2_balance(p, inc2, root * 0.9) > 0.0
        assert strain2_balance(p, inc2, root * 1.1) < 0.0

    def test_engineered_unique_root_draws(self):
        # pick k so the discriminant is negative by construction and beta
        # so R2 lands above 1: exactly one certified root expected
        rng = np.random.default_rng(32)
        for _ in range(40):
            base = params(
                r=rng.uniform(0.01, 0.2),
                Lambda=rng.uniform(50.0, 500.0),
                mu=rng.uniform(0.005, 0.05),
            )
            f = rng.uniform(0.05, 0.9)
            k = f * base.alpha2 * base.mu * base.lam / (base.Lambda * base.r)
            p = params(
                r=base.r, Lambda=base.Lambda, mu=base.mu, k=k
            )
            assert strain2_discriminant(p) < 0.0
            target = rng.uniform(1.05, 4.0) - f  # sigma-part of R2
            if target <= 0.0:
                continue
            S0 = p.susceptible_cap
            zeta = 10.0 ** rng.uniform(-4.0, -1.0)
            inc2 = IncidenceSpec.saturated_s(target * p.alpha2 * (1.0 + zeta * S0) / S0, zeta)
            roots = solve_strain2(p, inc2)
            assert len(roots) == 1
            assert roots[0].residual < RESIDUAL_TOL


class TestCoexistence:
    def test_example_values(self):
        p = params(r=0.01)
        inc1 = IncidenceSpec.saturated_i2(2e-4, 1e-4)
        inc2 = IncidenceSpec.saturated_s(2e-4, 1e-4)
        roots = solve_all(p, inc1, inc2).E3
        assert len(roots) == 1
        e3 = roots[0]
        assert e3.kind == "E3"
        assert e3.point.S == pytest.approx(1133.4502563661508, rel=1e-8)
        assert e3.point.V1 == pytest.approx(319.4159917493728, rel=1e-8)
        assert e3.point.I1 == pytest.approx(43.94377464635924, rel=1e-8)
        assert e3.point.I2 == pytest.approx(774.2540850232442, rel=1e-8)
        assert e3.residual < RESIDUAL_TOL
        names = {c.name: c.satisfied for c in e3.existence}
        assert names == {"R2_invasion > 1": True, "R1_invasion > 1": True}

    def test_absent_when_invasion_conditions_unmet(self):
        # strain 1 cannot even persist alone here, so no interior point
        p = params()
        inc1 = IncidenceSpec.saturated_i2(3e-5, 0.7)
        inc2 = IncidenceSpec.saturated_s(2e-4, 0.001)
        eqs = solve_all(p, inc1, inc2)
        assert eqs.E3 == () and eqs.coexistence_error == ""

    def test_interior_positivity_enforced(self):
        p = params(r=0.01)
        inc1 = IncidenceSpec.saturated_i2(2e-4, 1e-4)
        inc2 = IncidenceSpec.saturated_s(2e-4, 1e-4)
        pt = solve_all(p, inc1, inc2).E3[0].point
        assert min(pt.S, pt.V1, pt.I1, pt.I2) > 0.0

    def test_root_next_to_the_strain2_boundary(self):
        # the interior branch spans I2 in (0, 3.4566) of a (0, 1351) range and
        # its root lies 0.5% short of the E2 level, where I1 reaches 0; the
        # expected point is scipy.optimize.root on vector_field (residual 3e-14)
        p = ModelParams(
            Lambda=145.5, mu=0.0231, r=0.185, k=2.17e-06,
            gamma1=0.123, gamma2=0.057, v1=0.121, v2=0.027,
        )
        inc1 = IncidenceSpec.saturated_i2(1.1e-3, 0.3175)
        inc2 = IncidenceSpec.saturated_i2(2.85e-4, 0.0915)
        eqs = solve_all(p, inc1, inc2)
        assert eqs.coexistence_error == ""
        assert eqs.E2[0].point.I2 == pytest.approx(3.456597726544861, rel=1e-9)
        assert len(eqs.E3) == 1
        expected = [6.94505363e02, 5.56025914e03, 2.42050741e00, 3.43998581e00]
        assert eqs.E3[0].point.as_array()[:4] == pytest.approx(expected, rel=1e-8)

    def test_empty_scan_raises_when_both_invasion_numbers_exceed_one(self):
        # the invasion numbers guarantee an interior root, so finding none
        # is a solver failure, not an absence
        p = params()
        inc1 = IncidenceSpec.saturated_i2(3e-5, 0.7)
        inc2 = IncidenceSpec.saturated_s(2e-4, 0.9)
        th = Thresholds(1.0, 1.0, 2.0, 2.0, 2.0, R2_invasion=2.0, R1_invasion=2.0)
        assert solve_coexistence(p, inc1, inc2, thresholds(p, inc1, inc2)) == []
        with pytest.raises(SolverError, match="no sign change"):
            solve_coexistence(p, inc1, inc2, th)

    def test_no_vaccination_route_without_vaccination(self):
        # r = 0 leaves the vaccinated class empty: E3 has V1 = 0 exactly
        p = params(r=0.0)
        inc1 = IncidenceSpec.saturated_i2(2e-4, 1e-4)
        inc2 = IncidenceSpec.saturated_s(2e-4, 1e-4)
        eqs = solve_all(p, inc1, inc2)
        assert eqs.coexistence_error == ""
        assert len(eqs.E3) == 1
        e3 = eqs.E3[0]
        assert e3.point.V1 == 0.0
        assert e3.point.S > 0.0 and e3.point.I1 > 0.0 and e3.point.I2 > 0.0
        assert e3.residual < RESIDUAL_TOL
        assert all(c.satisfied for c in e3.existence)

    def test_closed_form_without_vaccinated_route(self):
        # k = 0 with bilinear strain 2: f2 = beta2*S fixes S = alpha2/beta2,
        # f1 = beta1*S/(1 + zeta1*I1^2) = alpha1 gives I1 and the S balance
        # gives I2, so E3 has a closed form
        p = params(r=0.01, k=0.0)
        beta1, zeta1, beta2 = 2e-4, 1e-4, 2e-4
        inc1 = IncidenceSpec.saturated_i2(beta1, zeta1)
        inc2 = IncidenceSpec.bilinear(beta2)
        S = p.alpha2 / beta2
        I1 = np.sqrt((beta1 * S / p.alpha1 - 1.0) / zeta1)
        I2 = (p.Lambda - p.lam * S - p.alpha1 * I1) / p.alpha2
        expected = np.array([S, p.r * S / p.mu, I1, I2])
        roots = solve_all(p, inc1, inc2).E3
        assert len(roots) == 1
        np.testing.assert_allclose(roots[0].point.as_array(), expected, rtol=1e-10)
        assert roots[0].residual < RESIDUAL_TOL


def _oracle_interior_roots(p, inc1, inc2):
    """Certified interior roots of the full vector field from a grid of starts."""
    optimize = pytest.importorskip("scipy.optimize")
    found = []
    for S in np.geomspace(0.05, 0.9, 3) * p.susceptible_cap:
        for V1 in np.array([0.02, 0.3]) * p.population_cap:
            for I1 in np.geomspace(0.01, 0.8, 3) * p.Lambda / p.alpha1:
                for I2 in np.geomspace(0.01, 0.8, 3) * p.Lambda / p.alpha2:
                    sol = optimize.root(
                        lambda x: vector_field(p, inc1, inc2, x), [S, V1, I1, I2], tol=1e-14
                    )
                    x = sol.x
                    if not np.all(np.isfinite(x)) or residual(p, inc1, inc2, x) >= RESIDUAL_TOL:
                        continue
                    if x[0] <= 0.0 or x[1] < -1e-9 or min(x[2], x[3]) <= 1e-6:
                        continue
                    if not any(np.allclose(x, y, rtol=1e-6) for y in found):
                        found.append(x)
    return sorted(found, key=lambda x: x[3])


class TestSolveAll:
    @pytest.mark.parametrize("r", [0.0, 0.01, 0.03, 0.035, 0.05, 0.1, 0.2])
    def test_coexistence_set_matches_an_independent_root_finder(self, r):
        p = params(r=r)
        inc1 = IncidenceSpec.saturated_i2(2e-4, 1e-4)
        inc2 = IncidenceSpec.saturated_s(2e-4, 1e-4)
        eqs = solve_all(p, inc1, inc2)
        assert eqs.coexistence_error == ""
        oracle = _oracle_interior_roots(p, inc1, inc2)
        assert len(eqs.E3) == len(oracle)
        assert (len(oracle) == 1) == (r < 0.1)
        for eq, x in zip(eqs.E3, oracle):
            np.testing.assert_allclose(eq.point.as_array(), x, rtol=1e-8, atol=1e-9)

    def test_thresholds_carry_the_invasion_numbers(self):
        p = params(r=0.01)
        inc1 = IncidenceSpec.saturated_i2(2e-4, 1e-4)
        inc2 = IncidenceSpec.saturated_s(2e-4, 1e-4)
        eqs = solve_all(p, inc1, inc2)
        assert [eq.kind for eq in eqs.all] == ["E0", "E1", "E2", "E3"]
        expected = invasion_numbers(p, inc1, inc2, eqs.E1, eqs.E2[0])
        assert (eqs.thresholds.R2_invasion, eqs.thresholds.R1_invasion) == expected
        assert eqs.thresholds.R1 == thresholds(p, inc1, inc2).R1

    def test_absent_kinds_leave_empty_slots(self):
        p = params()
        eqs = solve_all(p, IncidenceSpec.saturated_i2(3e-5, 0.7), IncidenceSpec.saturated_s(2e-4, 0.9))
        assert eqs.E1 is None and eqs.E2 == () and eqs.E3 == ()
        assert eqs.thresholds.R2_invasion is None and eqs.thresholds.R1_invasion is None
        assert [eq.kind for eq in eqs.all] == ["E0"]
