import collections
import dataclasses
import math
import re
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import random_cases, rising_rate, wavy_rate
from twostrain import analysis, equilibria, incidence
from twostrain.analysis import apply_sweep_value
from twostrain.benchmarks import build_scenario
from twostrain.equilibria import (
    SCAN_NODES,
    ScanStats,
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
    PARAM_NAMES,
    RESIDUAL_TOL,
    ModelParams,
    Thresholds,
    invasion_numbers,
    jacobian,
    residual,
    thresholds,
    vector_field,
)
from twostrain.stability import Verdict, classify_batch

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
        assert solve_strain1(p, inc1) == []

    def test_example_bilinear_values(self):
        # with bilinear strain-1 incidence the susceptible coordinate is
        # alpha1/beta1 exactly and the infective level follows from the
        # S balance
        p = params()
        inc1 = IncidenceSpec.bilinear(2e-4)
        roots = solve_strain1(p, inc1)
        assert len(roots) == 1
        e1 = roots[0]
        assert e1.kind == "E1"
        assert e1.point.S == pytest.approx(950.0, rel=1e-12)
        assert e1.point.I1 == pytest.approx(452.6315789473683, rel=1e-10)
        assert e1.point.V1 == pytest.approx(4750.0, rel=1e-12)
        assert e1.point.I2 == 0.0
        assert e1.residual < RESIDUAL_TOL
        assert e1.existence[0].name == "R1 > 1"
        assert e1.existence[0].satisfied
        assert e1.multiplicity_note == ""

    def test_mirror_of_a_three_root_strain2_balance(self):
        # with k = 0 and equal gammas, v's and rates the strain-1 and strain-2
        # balances are one function, so E1 and E2 are the same three roots
        p, rate = params(r=0.1, k=0.0, gamma1=0.09), wavy_rate()
        assert (p.gamma1, p.v1) == (p.gamma2, p.v2)
        hi = p.Lambda / p.alpha1
        g = strain1_balance(p, rate, np.linspace(1e-9 * hi, hi, SCAN_NODES + 1))
        assert np.count_nonzero((g[:-1] > 0.0) != (g[1:] > 0.0)) == 3
        eqs = solve_all(p, rate, rate)
        assert len(eqs.E1) == len(eqs.E2) == 3
        np.testing.assert_allclose(
            [e1.point.I1 for e1 in eqs.E1], [e2.point.I2 for e2 in eqs.E2], rtol=1e-12, atol=0.0
        )
        assert eqs.E1[0].point.I1 == pytest.approx(200.34306106, rel=1e-9)
        assert all(eq.residual < RESIDUAL_TOL for eq in eqs.E1 + eqs.E2)
        assert [eq.point for eq in solve_strain1(p, rate)] == [eq.point for eq in eqs.E1]

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
            # G(I1)/I1 falls strictly for every built-in family: one root
            (e1,) = solve_strain1(p, inc1)
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

    def test_positive_discriminant_note(self):
        # 6.3 with k raised to 1e-4: the note bounds the interval that holds
        # at most one root, from L up to Lambda/alpha2
        (e2,) = solve_strain2(params(r=0.1, k=1e-4), build_scenario("6.3").incidence2)
        assert e2.multiplicity_note.startswith(
            "discriminant 0.001496 > 0: at most one root expected in [267.1, 952.381]; "
            "found 1 root(s) between its range ends (monotone forces allow one sign change); "
            "auxiliary uniqueness flag"
        )

    def test_positive_discriminant_interval_over_random_draws(self):
        # criterion 5's draws with k scaled by 30, so most have d > 0: the
        # printed L is the positive root of
        # alpha2*k^2*L^2 + 2*alpha2*k*(r + mu)*L - d = 0, and no draw has two
        # E2 roots in [L, Lambda/alpha2], the claim the note makes
        interval = re.compile(r"at most one root expected in \[(\S+), (\S+)\]")
        checked = 0
        for p, _, inc2 in random_cases(1105, 200):
            p = dataclasses.replace(p, k=30.0 * p.k)
            d, roots = strain2_discriminant(p), solve_strain2(p, inc2)
            if d <= 0.0 or not roots:
                continue
            checked += 1
            L = np.roots([p.alpha2 * p.k**2, 2.0 * p.alpha2 * p.k * (p.r + p.mu), -d]).max()
            hi = p.Lambda / p.alpha2
            for e2 in roots:
                printed_L, printed_hi = map(float, interval.search(e2.multiplicity_note).groups())
                assert printed_L == pytest.approx(L, rel=1e-5)
                assert printed_hi == pytest.approx(hi, rel=1e-5)
            assert sum(L <= e2.point.I2 <= hi for e2 in roots) <= 1
        assert checked >= 100

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

    def test_floats_give_the_bits_of_their_array_entries(self):
        # one text of the E3 reduction runs on Python floats for a float and
        # on numpy columns for an array; the nodes reach past the feasible
        # range, where no S <= S0 exists and S is held at S0
        held_rows = 0
        for case in random_cases(1105, 600):
            row = equilibria._Row(*case)
            x = np.linspace(0.0, row.Lambda / row.alpha2, 17)
            for fn in (equilibria._psi, equilibria.coexistence_coordinates):
                each = [fn(row, v) for v in x.tolist()]
                assert np.array(each).T.tobytes() == np.array(fn(row, x)).tobytes()
            held_rows += bool((equilibria.coexistence_coordinates(row, x)[0] == row.susceptible_cap).any())
        assert held_rows > 100

    @pytest.mark.parametrize("numpy_params", [False, True])
    def test_a_built_in_solve_makes_no_numpy_choice(self, monkeypatch, numpy_params):
        # a built-in row's balances stay on Python floats, also where
        # ModelParams holds numpy scalars: np.where, which costs microseconds
        # on a scalar, never runs, and each float call returns a float
        cases = list(random_cases(1105, 40))
        if numpy_params:
            cases = [
                (ModelParams(*(np.float64(getattr(p, name)) for name in PARAM_NAMES)), inc1, inc2)
                for p, inc1, inc2 in cases
            ]
        expected = [solve_all(*case) for case in cases]
        rows = [equilibria._Row(*case) for case in cases]

        def refused(*args):
            raise AssertionError("np.where called in a built-in solve")

        monkeypatch.setattr(np, "where", refused)
        assert [solve_all(*case) for case in cases] == expected
        assert sum(len(eqs.E3) for eqs in expected) > 5
        for row in rows:
            for x in (0.0, 0.5 * row.Lambda / row.alpha2, row.Lambda / row.alpha2):
                values = [equilibria._psi(row, x), *equilibria.coexistence_coordinates(row, x)]
                assert all(type(v) is float for v in values)

    def test_empty_scan_raises_when_both_invasion_numbers_exceed_one(self):
        # the invasion numbers guarantee an interior root, so finding none
        # is a solver failure, not an absence
        p = params()
        inc1 = IncidenceSpec.saturated_i2(3e-5, 0.7)
        inc2 = IncidenceSpec.saturated_s(2e-4, 0.9)
        th = Thresholds(2.0, 2.0, 2.0, R2_invasion=2.0, R1_invasion=2.0)
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

    @pytest.mark.parametrize(
        "inc2, r, k",
        [
            (IncidenceSpec.saturated_s(2e-4, 1e-2), 0.1, 1e-4),  # b + c - alpha2*zeta < 0
            (IncidenceSpec.saturated_s(2e-4, 1e-4), 0.1, 2e-5),  # b + c - alpha2*zeta > 0
            (IncidenceSpec.saturated_s(2e-4, 1e-4), 0.0, 2e-5),  # c = 0
            (IncidenceSpec.saturated_i2(3e-4, 1e-5), 0.1, 0.0),  # c = 0
            (IncidenceSpec.bilinear(2e-4), 0.1, 2e-5),
        ],
    )
    def test_strain2_solve_for_S_matches_brentq(self, inc2, r, k):
        # S solves f2(S, I2) + c*S = alpha2, c = k*r/(mu + k*I2): by the
        # closed form to 1e-13 relative, and for the same rate as a custom
        # one by bisection to eps*S0; held at S0 where no S <= S0 solves it.
        # Each float gives its entry of the array, bit for bit
        optimize = pytest.importorskip("scipy.optimize")
        p = params(r=r, k=k)
        S0, eps = p.susceptible_cap, np.finfo(float).eps
        I2 = np.linspace(0.0, p.Lambda / p.alpha2, 41)[1:]
        for inc, rel, tol in ((inc2, 1e-13, 0.0), (IncidenceSpec.custom(inc2.rate), 0.0, eps * S0)):
            row = equilibria._Row(p, IncidenceSpec.bilinear(2e-4), inc)
            S = equilibria.coexistence_coordinates(row, I2)[0]
            each = [equilibria.coexistence_coordinates(row, x) for x in I2.tolist()]
            assert np.array(each).T.tobytes() == np.array(equilibria.coexistence_coordinates(row, I2)).tobytes()
            for x, s in zip(I2, S):
                c = p.k * p.r / (p.mu + p.k * x)

                def g(v):
                    return inc.force(v, x) + c * v - p.alpha2

                if g(S0) < 0.0:
                    assert s == S0
                else:
                    expected = optimize.brentq(g, 0.0, S0, xtol=1e-300, rtol=4.0 * eps)
                    assert s == pytest.approx(expected, rel=rel, abs=tol)
            assert (S < S0).any()


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
        expected = invasion_numbers(p, inc1, inc2, eqs.E1[0], eqs.E2[0])
        assert (eqs.thresholds.R2_invasion, eqs.thresholds.R1_invasion) == expected
        assert eqs.thresholds.R1 == thresholds(p, inc1, inc2).R1

    def test_absent_kinds_leave_empty_slots(self):
        p = params()
        eqs = solve_all(p, IncidenceSpec.saturated_i2(3e-5, 0.7), IncidenceSpec.saturated_s(2e-4, 0.9))
        assert eqs.E1 == () and eqs.E2 == () and eqs.E3 == ()
        assert eqs.thresholds.R2_invasion is None and eqs.thresholds.R1_invasion is None
        assert [eq.kind for eq in eqs.all] == ["E0"]

    def test_strain_swap_at_k_zero(self):
        # with k = 0 the field is symmetric under swapping (I1, gamma1, v1,
        # rate 1) with (I2, gamma2, v2, rate 2): E1 of each draw is E2 of its
        # swap, E3 is E3 with I1 and I2 swapped, and so are the thresholds.
        # E1 and E2 come from different balances, and E3's reduction in I2
        # is not symmetric, so each side checks the other
        def rel(x, y):
            return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))

        worst, e3s = 0.0, 0
        for p, inc1, inc2 in random_cases(1105, 600):
            p = dataclasses.replace(p, k=0.0)
            swapped = dataclasses.replace(p, gamma1=p.gamma2, v1=p.v2, gamma2=p.gamma1, v2=p.v1)
            eqs, mirror = solve_all(p, inc1, inc2), solve_all(swapped, inc2, inc1)
            assert (len(eqs.E1), len(eqs.E2), len(eqs.E3)) == (len(mirror.E2), len(mirror.E1), len(mirror.E3))
            assert eqs.coexistence_error == mirror.coexistence_error == ""
            pairs = [(e1.point, e2.point) for e1, e2 in zip(eqs.E1 + eqs.E2, mirror.E2 + mirror.E1)]
            pairs += [(e3.point, m3.point) for e3, m3 in zip(eqs.E3, mirror.E3)]
            for point, image in pairs:
                S, V1, I1, I2 = point.as_array()[:4]
                worst = max(worst, *map(rel, (S, V1, I2, I1), image.as_array()[:4]))
            th, mth = eqs.thresholds, mirror.thresholds
            numbers = [(th.R1, mth.R2), (th.R2, mth.R1), (th.R2_invasion, mth.R1_invasion), (th.R1_invasion, mth.R2_invasion)]
            for x, y in numbers:
                assert (x is None) == (y is None)
                worst = max(worst, 0.0 if x is None else rel(x, y))
            e3s += len(eqs.E3)
        assert worst <= 1e-12
        assert e3s > 50


class TestBelowThreshold:
    """A custom rate's E1 and E2 balances are scanned whatever R is: a force
    that rises in I gives roots below the threshold. A built-in balance has
    none there and runs no pass."""

    @pytest.mark.parametrize(
        "case, kind, expected, stats",
        [
            ("wavy", "E2", (14.60426174238655, 126.54609847818215), ScanStats(4097, 2, 10)),
            ("rising", "E1", (2.270253384434536, 1030.3613255629339), ScanStats(4097, 2, 8)),
        ],
    )
    def test_two_certified_roots_one_unstable_one_stable(self, case, kind, expected, stats):
        if case == "wavy":
            p, inc1, inc2 = params(r=0.25, k=0.0), IncidenceSpec.bilinear(2e-4), wavy_rate()
        else:
            p, inc2 = build_scenario("6.2").params, build_scenario("6.2").incidence2
            inc1 = rising_rate(p)
        eqs = solve_all(p, inc1, inc2)
        strain = int(kind[1])
        R = getattr(eqs.thresholds, "R%d" % strain)
        assert R == pytest.approx({"wavy": 0.8888888888888884, "rising": 0.9}[case], rel=1e-12) and R < 1.0
        roots = getattr(eqs, kind)
        levels = [(eq.point.I1, eq.point.I2)[strain - 1] for eq in roots]
        assert levels == pytest.approx(expected, rel=1e-12)
        assert all(eq.residual < RESIDUAL_TOL for eq in roots)
        assert [c.satisfied for eq in roots for c in eq.existence] == [False, False]
        assert getattr(eqs.stats, kind) == stats
        reports = classify_batch([(p, inc1, inc2, eq) for eq in roots])
        assert [(rep.verdict, rep.eigen_verdict) for rep in reports] == [
            (Verdict.UNSTABLE, Verdict.UNSTABLE),
            (Verdict.LOCALLY_STABLE, Verdict.LOCALLY_STABLE),
        ]

    def test_a_custom_rate_without_a_root_below_the_threshold_is_no_error(self):
        # 6.3's built-in strain-1 rate, wrapped as custom: R1 < 1, so the
        # scan runs and finds nothing, where the built-in rate runs no pass
        sc = build_scenario("6.3")
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
        custom = IncidenceSpec.custom(inc1.rate)
        assert thresholds(p, inc1, inc2).R1 < 1.0
        assert solve_strain1(p, custom) == solve_strain1(p, inc1) == []
        assert solve_all(p, custom, inc2).stats.E1 == ScanStats(SCAN_NODES + 1, 0, 0)
        assert solve_all(p, inc1, inc2).stats.E1 == ScanStats()


def sweep_rows(n, example="6.4"):
    """The example's rows at n rates r evenly spaced over [0, 0.2]."""
    sc = build_scenario(example)
    return [
        (sci.params, sci.incidence1, sci.incidence2)
        for sci in (apply_sweep_value(sc, "r", r) for r in np.linspace(0.0, 0.2, n))
    ]


def traced(call):
    """The memory traced before ``call()``, after it while its result is
    still held, and at its peak."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        held = call()
        after, peak = tracemalloc.get_traced_memory()
        del held
    finally:
        tracemalloc.stop()
    return before, after, peak


def working_memory(call):
    """The peak of ``call()`` less the memory its result still holds."""
    _, after, peak = traced(call)
    return peak - after


class TestBatch:
    """Rows solved one after another, as ``analysis.sweep`` solves them: each
    row's roots, stats and memory are its own."""

    @pytest.mark.parametrize("key", ["incidence1.beta", "incidence2.zeta"])
    def test_coefficient_columns_vary_along_a_sweep(self, key):
        # each row of a classified sweep along a coefficient carries the
        # thresholds and existence flags of its own solve
        sc = build_scenario("6.4")
        base = getattr(sc.incidence1 if key.startswith("incidence1") else sc.incidence2, key.split(".")[1])
        rows = analysis.sweep(sc, key, 0.25 * base, 4.0 * base, 9)
        assert len({row.R1 for row in rows} | {row.R2 for row in rows}) > 2
        for row in rows:
            sci = apply_sweep_value(sc, key, row.value)
            eqs = solve_all(sci.params, sci.incidence1, sci.incidence2)
            th = eqs.thresholds
            assert (row.R1, row.R2, row.R0, row.R2_invasion, row.R1_invasion) == (
                th.R1, th.R2, th.R0, th.R2_invasion, th.R1_invasion
            )
            assert row.exists == {kind: bool(kind == "E0" or getattr(eqs, kind)) for kind in row.exists}

    def test_multi_root_row_between_single_root_rows(self):
        optimize = pytest.importorskip("scipy.optimize")
        inc1, inc2 = IncidenceSpec.bilinear(2e-4), wavy_rate()
        rows = [(params(r=r, k=0.0), inc1, inc2) for r in (0.02, 0.1, 0.05, 0.2)]
        results = [solve_all(*row) for row in rows]
        assert [len(eqs.E2) for eqs in results] == [1, 3, 3, 1]
        assert [len(eqs.E3) for eqs in results] == [4, 2, 4, 0]
        for (p, _, _), eqs in zip(rows, results):
            hi = p.Lambda / p.alpha2
            xs = np.linspace(0.0, hi, SCAN_NODES + 1)
            xs[0] = 1e-9 * hi
            h = strain2_balance(p, inc2, xs)
            expected = [
                optimize.brentq(lambda x: strain2_balance(p, inc2, x), xs[i], xs[i + 1], xtol=1e-13)
                for i in np.nonzero((h[:-1] > 0.0) != (h[1:] > 0.0))[0]
            ]
            np.testing.assert_allclose([e2.point.I2 for e2 in eqs.E2], expected, rtol=1e-10)

    def test_custom_incidence_rows(self):
        # a built-in rate wrapped as a custom one takes the dense scan: the
        # same roots as its one-cell bracket, to a few units of rounding
        sc = build_scenario("6.4")
        inc1 = IncidenceSpec.saturated_i2(2e-4, 1e-4)
        custom = IncidenceSpec.custom(inc1.rate)
        found = 0
        for r in (0.0, 0.01, 0.03, 0.1):
            p = apply_sweep_value(sc, "r", r).params
            built_in, wrapped = solve_all(p, inc1, sc.incidence2), solve_all(p, custom, sc.incidence2)
            assert wrapped.stats.E3.nodes == SCAN_NODES + 1 and built_in.stats.E3.nodes in (0, 2)
            assert [eq.kind for eq in wrapped.all] == [eq.kind for eq in built_in.all]
            for eq, other in zip(wrapped.all, built_in.all):
                np.testing.assert_allclose(eq.point.as_array(), other.point.as_array(), rtol=1e-12, atol=0.0)
            found += len(wrapped.E3)
        assert found

    def test_custom_strain2_rows(self):
        # the E3 solve for S bisects a custom strain-2 rate
        inc1, inc2 = IncidenceSpec.bilinear(2e-4), wavy_rate()
        rows = [(params(r=r, k=k), inc1, inc2) for r, k in ((0.02, 2e-5), (0.1, 0.0), (0.1, 2e-5), (0.25, 0.0))]
        assert [len(solve_all(*row).E3) for row in rows] == [5, 2, 3, 0]

    def test_every_bracket_narrows_for_the_derived_rounds(self):
        # a built-in balance has at most one bracket, its two range ends,
        # and Brent's zeroin closes it to machine precision: on these draws
        # in fewer evaluations than the 52 halvings that bisection takes
        # from hi to eps*hi, and nine in ten in fewer than 16
        per_bracket = collections.Counter()
        for case in random_cases(1105, 200):
            st = solve_all(*case).stats
            for scan in (st.E1, st.E2, st.E3):
                assert scan.nodes in (0, 2) and scan.brackets <= 1
                assert scan.evaluations < 52
                if scan.brackets:
                    per_bracket[scan.evaluations] += 1
        assert sum(per_bracket.values()) > 300
        assert sum(n for evaluations, n in per_bracket.items() if evaluations < 16) > 0.9 * sum(per_bracket.values())

    def test_stats_repeat_and_match_the_balance_evaluations(self, monkeypatch):
        # a counting wrapper around every balance handed to the root finder
        # tallies the points of each pass: its scan nodes and then one float
        # per evaluation
        tallies = []
        roots = equilibria._roots

        def counted(fn, lo, hi, cells):
            tally = [0]

            def balance(x):
                tally[0] += np.size(x)
                return fn(x)

            tallies.append(tally)
            return roots(balance, lo, hi, cells)

        monkeypatch.setattr(equilibria, "_roots", counted)
        inc1, inc2 = IncidenceSpec.bilinear(2e-4), wavy_rate()
        results = []
        for r in (0.02, 0.1, 0.25):
            tallies.clear()
            eqs = solve_all(params(r=r, k=0.0), inc1, inc2)
            assert solve_all(params(r=r, k=0.0), inc1, inc2).stats == eqs.stats
            st = eqs.stats
            passes = [scan for scan in (st.E1, st.E2, st.E3) if scan.nodes]
            assert [tally for tally, in tallies[: len(passes)]] == [scan.nodes + scan.evaluations for scan in passes]
            assert st.E2.brackets == len(eqs.E2)
            results.append(eqs)
        # at r = 0.25 R2 = 0.889 < 1, and the custom E2 balance still has two roots
        assert [eqs.stats.E2.brackets for eqs in results] == [1, 3, 2]
        assert [eqs.stats.E1.nodes for eqs in results] == [2, 2, 0]  # R1 < 1 at r = 0.25: no E1 pass

        # with a custom strain-2 rate each E3 balance call solves for S with
        # one force evaluation at S0 and one per halving, each a single rate
        # call, and never calls dF2/dS; the E2 notes call it once per root.
        # The scan's first node is I2 = 0, where each force evaluation takes
        # its I = 0 limit from two more rate calls
        rate_calls, dS_calls, per_balance = [], [], []
        wavy, psi = wavy_rate(), equilibria._psi

        def rate(S, I):
            rate_calls.append(S)
            return wavy.rate_fn(S, I)

        def dF2_dS(S, I):
            dS_calls.append(S)
            return wavy.d_rate_dS_fn(S, I)

        def counted_psi(c, I2):
            before = len(rate_calls)
            out = psi(c, I2)
            per_balance.append(len(rate_calls) - before)
            return out

        monkeypatch.setattr(equilibria, "_psi", counted_psi)
        inc2 = IncidenceSpec.custom(rate, d_rate_dS=dF2_dS)
        eqs = solve_all(params(r=0.1, k=0.0), inc1, inc2)
        assert eqs.stats.E3.brackets > 0
        # the scan and one call per evaluation
        calls = 1 + equilibria._S_HALVINGS
        assert per_balance == [3 * calls] + [calls] * eqs.stats.E3.evaluations
        assert len(dS_calls) == len(eqs.E2) > 0

    def test_no_checked_evaluation_inside_a_scan(self, monkeypatch):
        # the scans run on bound closed forms; the only checked evaluator
        # calls are the thresholds, certificates and notes
        callers = []
        check = incidence._require_finite

        def counted(*values):
            frame = sys._getframe(3)  # _checked_forms <- evaluator <- caller
            callers.append(frame.f_code.co_name)
            names = set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            assert "_roots" not in names
            return check(*values)

        monkeypatch.setattr(incidence, "_require_finite", counted)
        sc = build_scenario("6.4")
        eqs = solve_all(sc.params, sc.incidence1, sc.incidence2)
        assert len(eqs.all) == 4
        assert sorted(callers) == sorted(
            ["reproduction_number"] * 4  # R1, R2 and both invasion numbers
            + ["_strain2_notes"]  # E2 note
            + ["field"] * 8  # both rates in each of the E1, E2, E3 and E0 certificates
        )

    def test_memory_of_many_rows_stays_that_of_one(self):
        # the working memory, the peak less what the results still hold
        # after the call, of 256 rows solved in turn is that of one row
        rows = sweep_rows(256)
        one_row = max(working_memory(lambda: solve_all(*row)) for row in rows[::64])
        all_rows = working_memory(lambda: [solve_all(*row) for row in rows])
        assert all_rows <= 1.5 * one_row


def scanned_in_full(case):
    """One row's psi scanned in full whatever its thresholds, as
    ``_coexistence`` scans a custom row, on SCAN_NODES cells: I2 and I1 at
    its roots."""
    p, row = case[0], equilibria._Row(*case)
    I2, _ = equilibria._roots(lambda x: equilibria._psi(row, x), 0.0, p.Lambda / p.alpha2, SCAN_NODES)
    I2 = np.array(I2)
    return I2, equilibria.coexistence_coordinates(row, I2)[2]


def sweep_cases():
    """Criterion 5's 600 draws and the 41-row r-sweeps of 6.1-6.4."""
    cases = list(random_cases(1105, 600))
    return cases + [row for example in ("6.1", "6.2", "6.3", "6.4") for row in sweep_rows(41, example)]


class TestCoexistenceSkip:
    """For built-in families the thresholds rule the E3 scan out (see the
    equilibria module docstring): a row with R1 <= 1 or R2 <= 1 has no E3
    pass. Every row still gets the roots that the scan in full gives."""

    def test_each_row_has_the_roots_of_the_scan_in_full(self):
        # the solve takes each balance's range ends as its one cell, the full
        # scans SCAN_NODES cells: the same roots, to a few units of rounding
        cases = sweep_cases()
        # R1 just above 1, where E3 still exists in some rows: beta1 scales R1
        near_one = [
            (p, dataclasses.replace(inc1, beta=inc1.beta * 1.02 / thresholds(p, inc1, inc2).R1), inc2)
            for p, inc1, inc2 in cases[:100]
        ]
        assert sum(bool(solve_all(*case).E3) for case in near_one) > 10
        passes = collections.Counter()
        for case in cases + near_one:
            eqs = solve_all(*case)
            st, th = eqs.stats, eqs.thresholds
            I2, I1 = scanned_in_full(case)
            I2 = I2[I1 > 0.0]
            assert len(eqs.E3) == I2.size
            np.testing.assert_allclose([e3.point.I2 for e3 in eqs.E3], I2, rtol=1e-12, atol=0.0)
            if th.R1 <= 1.0 or th.R2 <= 1.0:
                assert st.E3 == (0, 0, 0)
                assert not I2.size
            else:
                assert st.E3.nodes == 2
            passes[st.E3[:2]] += 1
        # ruled out, no sign change, and bracketed
        assert passes[0, 0] and passes[2, 0] and passes[2, 1]

    def test_psi_obeys_its_bounds_at_every_node(self):
        # S <= S0 and V1 <= V10 with monotone forces bound psi by
        # alpha1*(R1 - 1), up to rounding; psi is finite at every node and
        # rises, the lemma that lets one cell hold its one root
        eps = np.finfo(float).eps
        for case in sweep_cases():
            p, th = case[0], thresholds(*case)
            row = equilibria._Row(*case)
            hi = p.Lambda / p.alpha2
            x = np.linspace(0.0, hi, SCAN_NODES + 1)
            psi = equilibria._psi(row, x)
            rounding = 4.0 * eps * p.alpha1 * max(th.R1, 1.0)
            assert np.all(np.isfinite(psi))
            assert np.all(psi <= p.alpha1 * (th.R1 - 1.0) + rounding)
            assert np.all(np.diff(psi) >= -rounding)

    @pytest.mark.parametrize("custom", ["wavy", "copy of saturated_i2"])
    def test_custom_rates_are_scanned_with_r1_below_one(self, custom):
        # a custom force is not proved monotone, so its rows keep the scan
        if custom == "wavy":
            p, inc1 = params(r=0.3, gamma1=0.09), wavy_rate()
            inc2 = IncidenceSpec.saturated_s(2e-4, 1e-4)
        else:
            p, inc1 = params(), IncidenceSpec.saturated_i2(3e-5, 0.7)
            inc2 = IncidenceSpec.saturated_s(2e-4, 0.001)
            built_in = solve_all(p, inc1, inc2)
            assert built_in.stats.E3 == (0, 0, 0)
            inc1 = IncidenceSpec.custom(inc1.rate)
        eqs = solve_all(p, inc1, inc2)
        assert eqs.thresholds.R1 <= 1.0 < eqs.thresholds.R2
        assert eqs.stats.E3.nodes == SCAN_NODES + 1
        assert eqs.E3 == () and eqs.coexistence_error == ""

    def test_each_block_row_is_built_once(self, monkeypatch):
        # each solve builds its row's _Row once, and every balance and the
        # roots' coordinates evaluate that one record
        built, Row = [], equilibria._Row

        def counted(*case):
            built.append(Row(*case))
            return built[-1]

        monkeypatch.setattr(equilibria, "_Row", counted)
        rows = sweep_rows(4)
        results = [solve_all(*row) for row in rows]
        assert len(built) == len(rows)
        assert [eqs.stats.E3.nodes for eqs in results] == [2, 2, 2, 0]  # R1 < 1 at r = 0.2


class TestPastTheFeasibleRange:
    """psi is continued with S held at S0 where no S <= S0 solves the
    strain-2 balance, so a custom strain-2 force that rises in I2, or whose
    balance at S0 turns back, is scanned on its whole range. With k = 0 and
    bilinear strain 1, f1 = beta1*S = alpha1 fixes E3's S = alpha1/beta1 =
    950, and the strain-2 balance f2(950, I2) = alpha2 gives I2 in closed
    form."""

    def test_both_wavy_roots(self):
        # beta*950*(1 + sin(w*I2)/2) = alpha2: sin(w*I2) = s < 0 at
        # (pi - asin s)/w and (2*pi + asin s)/w, the second past the point
        # where the balance at S0 first reaches 0
        p, inc1 = params(r=0.1, k=0.0), IncidenceSpec.bilinear(2e-4)
        S = p.alpha1 / inc1.beta
        w, beta = 6.0 * np.pi * 0.21 / 200.0, 2.0 * 0.21 * 0.12 / 200.0
        s = 2.0 * (p.alpha2 / (beta * S) - 1.0)
        expected = [(np.pi - np.arcsin(s)) / w, (2.0 * np.pi + np.arcsin(s)) / w]
        assert S == pytest.approx(950.0, rel=1e-15) and s == pytest.approx(-0.2456140350877, rel=1e-12)
        assert expected == pytest.approx([171.2681871139, 304.9222890766], rel=1e-12)
        eqs = solve_all(p, inc1, wavy_rate())
        assert [e3.point.I2 for e3 in eqs.E3] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert [e3.point.S for e3 in eqs.E3] == pytest.approx([S, S], rel=1e-12, abs=0.0)
        assert all(e3.residual < RESIDUAL_TOL for e3 in eqs.E3)

    def test_a_strain2_force_rising_in_i2(self):
        # beta2*950*(1 + 0.05*I2) = alpha2 on 6.2 with k = 0 and R2 = 0.9,
        # where the strain-2 balance at S0 is negative from I2 = 0 up to 2.22
        sc = build_scenario("6.2")
        p = dataclasses.replace(sc.params, k=0.0)
        beta2 = 0.9 * p.alpha2 / p.susceptible_cap
        eqs = solve_all(p, sc.incidence1, rising_rate(p, beta2))
        S = p.alpha1 / sc.incidence1.beta
        I2 = (p.alpha2 / (beta2 * S) - 1.0) / 0.05
        I1 = (p.Lambda - p.lam * S - p.alpha2 * I2) / p.alpha1
        assert S == pytest.approx(950.0, rel=1e-15) and eqs.thresholds.R2 == pytest.approx(0.9, rel=1e-15)
        assert (I2, I1) == pytest.approx((18.98635478, 431.6466605), rel=1e-9)
        (e3,) = eqs.E3
        assert e3.residual < RESIDUAL_TOL and eqs.coexistence_error == ""
        assert e3.point.as_array()[:4] == pytest.approx([S, p.r * S / p.mu, I1, I2], rel=1e-12, abs=0.0)


def near_threshold(example, strain, excess):
    """The example with the strain's beta scaled so that R = 1 + ``excess``:
    R is linear in beta, plus k*V10/alpha2 for strain 2."""
    sc = build_scenario(example)
    p, incs = sc.params, [sc.incidence1, sc.incidence2]
    R = getattr(thresholds(p, *incs), "R%d" % strain)
    route = 0.0 if strain == 1 else p.k * p.vaccinated_cap / p.alpha2
    inc = incs[strain - 1]
    incs[strain - 1] = dataclasses.replace(inc, beta=inc.beta * (1.0 + excess - route) / (R - route))
    return (p, *incs)


def near_invasion(excess):
    """Example 6.4 with beta2 scaled so that R2_invasion = 1 + ``excess``: it
    is linear in beta2, plus k*V1/alpha2 at E1, which beta2 does not move."""
    sc = build_scenario("6.4")
    p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
    eqs = solve_all(p, inc1, inc2)
    route = p.k * eqs.E1[0].point.V1 / p.alpha2
    R = eqs.thresholds.R2_invasion
    return p, inc1, dataclasses.replace(inc2, beta=inc2.beta * (1.0 + excess - route) / (R - route))


class TestCoarseScan:
    """Built-in rows take each balance's two range ends as its one cell, as
    each of their balances changes sign at most once (the equilibria module
    docstring); custom rates keep the SCAN_NODES scan."""

    def test_strain_balances_change_sign_once_on_the_dense_grid(self):
        # G(I1)/I1 falls; H(I2)/I2 keeps its sign while S rises, where no
        # equilibrium lies, and falls after
        eps = np.finfo(float).eps
        for case in sweep_cases():
            p, th = case[0], thresholds(*case)
            row = equilibria._Row(*case)
            x = np.linspace(0.0, p.Lambda / p.alpha1, SCAN_NODES + 1)
            g = equilibria._per_infective(row, 1, x)
            assert g[0] == pytest.approx(p.alpha1 * (th.R1 - 1.0), rel=1e-12, abs=1e-15)
            assert np.all(np.diff(g) <= 4.0 * eps * p.alpha1 * max(th.R1, 1.0))
            x = np.linspace(0.0, p.Lambda / p.alpha2, SCAN_NODES + 1)
            h = equilibria._per_infective(row, 2, x)
            assert h[0] == pytest.approx(p.alpha2 * (th.R2 - 1.0), rel=1e-12, abs=1e-15)
            top = np.argmax(strain2_coordinates(p, x)[0])
            assert len(set(h[: top + 1] > 0.0)) == 1
            assert np.all(np.diff(h[top:]) <= 4.0 * eps * p.alpha2 * max(th.R2, 1.0))

    def test_coarse_roots_match_a_dense_scan(self):
        # each E1 and E2 root equals the one that G or H itself gives on
        # SCAN_NODES cells from 1e-9*hi (G and H vanish at 0), to a few units
        # of rounding
        counts = collections.Counter()
        for p, inc1, inc2 in sweep_cases():
            eqs = solve_all(p, inc1, inc2)
            for strain, balance, found in ((1, strain1_balance, eqs.E1), (2, strain2_balance, eqs.E2)):
                if not found:
                    continue
                row = equilibria._Row(p, inc1, inc2)
                hi = p.Lambda / (p.alpha1 if strain == 1 else p.alpha2)
                forms = row.f1 if strain == 1 else row.f2
                dense, _ = equilibria._roots(
                    lambda x: balance(row, forms, x), 1e-9 * hi, hi, SCAN_NODES
                )
                coarse = [eq.point.I1 if strain == 1 else eq.point.I2 for eq in found]
                assert len(coarse) == len(dense) == 1
                assert coarse[0] == pytest.approx(dense[0], rel=1e-12, abs=0.0)
                assert getattr(eqs.stats, "E%d" % strain).nodes == 2
                counts[strain] += 1
        assert counts[1] > 300 and counts[2] > 300

    def test_custom_rates_keep_the_dense_scan_bit_for_bit(self):
        # the three E2 roots of the wavy rate and its two E3 roots, as a
        # custom strain-2 rate beside a built-in strain 1, and its three E1
        # roots as both rates: SCAN_NODES cells, and these values bit for bit
        wavy = wavy_rate()
        three = [200.34306106073927, 286.88274047471276, 476.1904761904762]
        eqs = solve_all(params(r=0.1, k=0.0), IncidenceSpec.bilinear(2e-4), wavy)
        assert [e2.point.I2 for e2 in eqs.E2] == three
        assert [e3.point.I2 for e3 in eqs.E3] == [171.2681871138849, 304.9222890765913]
        assert eqs.stats.E2 == (SCAN_NODES + 1, 3, 7)
        assert eqs.stats.E3.nodes == SCAN_NODES + 1
        assert eqs.stats.E1.nodes == 2  # the built-in strain
        eqs = solve_all(params(r=0.1, k=0.0, gamma1=0.09), wavy, wavy)
        assert [e1.point.I1 for e1 in eqs.E1] == [e2.point.I2 for e2 in eqs.E2] == three
        assert eqs.stats.E1 == (SCAN_NODES + 1, 3, 7)
        assert eqs.stats.E2 == (SCAN_NODES + 1, 3, 7)

    @pytest.mark.parametrize("example, strain", [("6.2", 1), ("6.3", 2), ("6.4", 1), ("6.4", 2)])
    def test_roots_just_above_the_threshold_are_found(self, example, strain):
        # G/I and H/I equal alpha*(R - 1) > 0 at I = 0, so a root below
        # 1e-9*hi is bracketed too
        for excess in (1e-6, 1e-10, 1e-12, 2.0**-52):
            p, inc1, inc2 = near_threshold(example, strain, excess)
            R = getattr(thresholds(p, inc1, inc2), "R%d" % strain)
            assert R == pytest.approx(1.0 + excess, rel=0.0, abs=1e-15) and R > 1.0
            found = getattr(solve_all(p, inc1, inc2), "E%d" % strain)
            assert len(found) == 1 and found[0].residual < RESIDUAL_TOL
            I = found[0].point.I1 if strain == 1 else found[0].point.I2
            hi = p.Lambda / (p.alpha1 if strain == 1 else p.alpha2)
            assert 0.0 < I and (excess > 1e-10 or I < 1e-9 * hi)

    @pytest.mark.parametrize("excess", [1e-12, 1e-15, -1e-15, -1e-12])
    def test_coexistence_just_past_r2_invasion_one(self, excess):
        # E3 branches off E1, at I2 = 0, as R2_invasion passes 1; psi is
        # scanned from I2 = 0, so a root below 1e-9 of its range is found,
        # and R2_invasion <= 1 leaves none (nor an error). The 1e-12 root
        # agrees with the slope of the 1e-6 root within the conditioning
        # eps/(R2_invasion - 1)
        eps = np.finfo(float).eps
        p, inc1, inc2 = near_invasion(excess)
        eqs = solve_all(p, inc1, inc2)
        R = eqs.thresholds.R2_invasion
        assert R == pytest.approx(1.0 + excess, rel=0.0, abs=2e-15) and (R > 1.0) == (excess > 0.0)
        assert eqs.coexistence_error == ""
        if excess < 0.0:
            assert eqs.E3 == ()
            return
        (e3,) = eqs.E3
        assert e3.residual < RESIDUAL_TOL and 0.0 < e3.point.I2 < 1e-9 * p.Lambda / p.alpha2
        if excess == 1e-12:
            p, inc1, inc2 = near_invasion(1e-6)
            far = solve_all(p, inc1, inc2)
            slope = far.E3[0].point.I2 / (far.thresholds.R2_invasion - 1.0)
            assert e3.point.I2 == pytest.approx(slope * (R - 1.0), rel=10.0 * eps / excess)

    def test_a_custom_rate_just_above_the_threshold_is_found(self):
        # a custom rate scans G/I1 from I1 = 0 too, so its root below
        # 1e-9*hi is found; it agrees with the built-in rate's
        # within the conditioning eps/(R1 - 1) of a root so close to 1
        eps = np.finfo(float).eps
        for excess in (1e-10, 1e-12):
            p, inc1, inc2 = near_threshold("6.2", 1, excess)
            (built_in,) = solve_all(p, inc1, inc2).E1
            eqs = solve_all(p, IncidenceSpec.custom(inc1.rate), inc2)
            (e1,) = eqs.E1
            assert e1.residual < RESIDUAL_TOL and eqs.stats.E1.nodes == SCAN_NODES + 1
            assert e1.point.I1 < 1e-9 * p.Lambda / p.alpha1
            assert e1.point.I1 == pytest.approx(built_in.point.I1, rel=10.0 * eps / excess, abs=0.0)


def ulp_steps(x, n):
    """x and its n nearest floats on each side, in increasing order."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


class TestAtTheThreshold:
    """R, the E1 and E2 balances at I = 0 and E0's invasion eigenvalues all
    read one growth rate, force(S0, 0), so they agree in sign however close
    R is to 1; and a root at I = 0, which is E0, is not returned."""

    def test_signs_agree_within_four_ulps_of_one(self):
        # criterion 5's draws, each strain's beta set to R = 1 and stepped
        # by up to 4 ulps each way: 10,800 rows. Where the route k*V10
        # alone would take R2 past 1/2, k is cut so that the route is
        # alpha2/2 and beta still reaches R2 = 1. No row may raise
        sides = collections.Counter()
        for p, inc1, inc2 in random_cases(11, 600):
            if p.k * p.vaccinated_cap >= 0.5 * p.alpha2:
                p = dataclasses.replace(p, k=0.5 * p.alpha2 / p.vaccinated_cap)
            S0, V10 = p.susceptible_cap, p.vaccinated_cap
            for strain, inc in ((1, inc1), (2, inc2)):
                alpha, route = (p.alpha1, 0.0) if strain == 1 else (p.alpha2, p.k * V10)
                for beta in ulp_steps((alpha - route) * inc.beta / inc.force(S0, 0.0), 4):
                    incs = [inc1, inc2]
                    incs[strain - 1] = dataclasses.replace(inc, beta=beta)
                    R = getattr(thresholds(p, *incs), "R%d" % strain)
                    row = equilibria._Row(p, *incs)
                    start = equilibria._per_infective(row, strain, 0.0)
                    growth = jacobian(p, *incs, (S0, V10, 0.0, 0.0))[1 + strain, 1 + strain]
                    assert (R > 1.0) == (start > 0.0) == (growth > 0.0), (strain, R, start, growth)
                    found = getattr(solve_all(p, *incs), "E%d" % strain)
                    assert len(found) == (R > 1.0)
                    sides[strain, R > 1.0] += 1
        assert sum(sides.values()) == 10800
        assert min(sides.values()) > 2000

    def test_a_custom_rate_growth_reads_the_force_limit(self):
        # the rising rate on 6.2 with beta stepped 40 ulps each way around
        # alpha1/S0: E0's I1-row diagonal dF1/dI1 - alpha1 takes dF1/dI1 at
        # I1 = 0 as the force limit that R1 reads, so the two agree in sign
        # and so does E0's condition "R1 < 1"
        sc = build_scenario("6.2")
        p, inc2 = sc.params, sc.incidence2
        S0, V10 = p.susceptible_cap, p.vaccinated_cap
        sides = collections.Counter()
        for beta in ulp_steps(p.alpha1 / S0, 40):
            inc1 = rising_rate(p, beta)
            R1 = thresholds(p, inc1, inc2).R1
            growth = jacobian(p, inc1, inc2, (S0, V10, 0.0, 0.0))[2, 2]
            assert (R1 > 1.0) == (growth > 0.0) and (R1 < 1.0) == (growth < 0.0), (beta, R1, growth)
            (e0,) = classify_batch([(p, inc1, inc2, disease_free(p, inc1, inc2))])
            assert e0.conditions["R1 < 1"] == (R1 < 1.0)
            sides[R1 > 1.0] += 1
        assert sides[True] > 10 and sides[False] > 10

    @pytest.mark.parametrize("strain", [1, 2])
    def test_a_root_at_zero_is_not_returned(self, strain):
        # the rising rate, whose balance rises from I = 0 with its force,
        # with beta stepped across R = 1 on 6.2 with k = 0: where the
        # balance starts at exactly 0 the scan brackets a root at I = 0,
        # which is E0; every returned root lies above 0
        sc = build_scenario("6.2")
        p = dataclasses.replace(sc.params, k=0.0)
        alpha = p.alpha1 if strain == 1 else p.alpha2
        zero_starts = 0
        for beta in ulp_steps(alpha / p.susceptible_cap, 6):
            incs = [sc.incidence1, sc.incidence2]
            incs[strain - 1] = rising_rate(p, beta)
            zero_starts += equilibria._per_infective(equilibria._Row(p, *incs), strain, 0.0) == 0.0
            found = getattr(solve_all(p, *incs), "E%d" % strain)
            levels = [eq.point.as_array()[1 + strain] for eq in found]
            assert levels and all(I > 0.0 for I in levels)
        assert zero_starts > 0

    @pytest.mark.parametrize("below", [1e-10, 1e-12])
    def test_the_rising_rate_keeps_its_low_root_just_below_the_threshold(self, below):
        # G(I1)/I1 = beta*(Lambda - alpha1*I1)/lam*(1 + c*I1) - alpha1 with
        # c = 0.05 is a quadratic A*I1**2 + B*I1 + C; its roots, from mpmath
        # at 50 digits on the solver's float coefficients, match both E1
        # roots, the low one within the conditioning eps/(1 - R1)
        eps = np.finfo(float).eps
        sc = build_scenario("6.2")
        p = sc.params
        beta = (1.0 - below) * p.alpha1 / p.susceptible_cap
        eqs = solve_all(p, rising_rate(p, beta), sc.incidence2)
        assert eqs.thresholds.R1 == pytest.approx(1.0 - below, rel=0.0, abs=4.0 * eps)
        low, high = (eq.point.I1 for eq in eqs.E1)
        with mpmath.workdps(50):
            b, L, lam, a, c = map(mpmath.mpf, (beta, p.Lambda, p.lam, p.alpha1, 0.05))
            A, B, C = -b * a * c / lam, b * (L * c - a) / lam, b * L / lam - a
            root = mpmath.sqrt(B * B - 4 * A * C)
            exact = [float((-B + sign * root) / (2 * A)) for sign in (1, -1)]
        assert low == pytest.approx(exact[0], rel=10.0 * eps / below, abs=0.0)
        assert high == pytest.approx(exact[1], rel=1e-13, abs=0.0)
        if below == 1e-10:
            assert low == pytest.approx(2.04e-9, rel=1e-2)


#: a synthetic balance's root: off every scan node of the range (0, 1], 0.8
#: of the way through its scan cell
ROOT = (1000.0 + 0.8) / SCAN_NODES
CELL = 1.0 / SCAN_NODES


def _nan_beside(x):
    """c - x, NaN on [c - 0.6, c - 0.05] scan cells: the NaN stretch lies
    inside the root's scan cell, between its positive left end and the root."""
    return np.where((x >= ROOT - 0.6 * CELL) & (x <= ROOT - 0.05 * CELL), np.nan, ROOT - x)[()]


#: balances on (0, 1] on which the secant point is a poor guide: fn(x) and
#: its roots
SYNTHETIC = {
    "triple root": (lambda x: (x - ROOT) ** 3, [ROOT]),
    "tangent double root": (lambda x: (ROOT - x) * abs(ROOT - x), [ROOT]),
    "kink": (lambda x: np.sign(ROOT - x) * np.sqrt(np.abs(x - ROOT)), [ROOT]),
    "NaN beside the root": (_nan_beside, [ROOT]),
}


def halvings(width, root):
    """The halvings that bisection takes to shrink ``width`` to the stopping
    width 2*eps*root of ``_zero``."""
    return math.ceil(math.log2(width / (2.0 * np.finfo(float).eps * root)))


def counted_roots(fn, lo, hi, cells):
    """``_roots(fn, lo, hi, cells)`` and the points it hands fn."""
    points = [0]

    def counted(x):
        points[0] += np.size(x)
        return fn(x)

    roots, stats = equilibria._roots(counted, lo, hi, cells)
    return roots, stats, points[0]


class TestNarrowing:
    """``_roots`` and ``_zero`` on balances chosen to defeat the secant
    point: each bracket still closes to machine precision, within three
    times the halvings that bisection would take, and the points handed to
    the balance are exactly the scan nodes and the evaluations."""

    @pytest.mark.parametrize("name", sorted(SYNTHETIC))
    def test_a_poor_secant_point_still_narrows_within_the_rounds(self, name):
        # from one cell, as a built-in balance, and from a scan cell
        fn, expected = SYNTHETIC[name]
        for cells in (1, SCAN_NODES):
            roots, stats, points = counted_roots(fn, 1e-9, 1.0, cells)
            np.testing.assert_allclose(roots, expected, rtol=2.0 * np.finfo(float).eps, atol=0.0)
            assert stats[:2] == (cells + 1, len(expected))
            assert stats.evaluations <= 3 * halvings(1.0 / cells, ROOT)
            assert points == stats.nodes + stats.evaluations

    def test_three_e2_roots_of_the_wavy_rate(self):
        optimize = pytest.importorskip("scipy.optimize")
        p, inc2 = params(r=0.1, k=0.0), wavy_rate()
        row = equilibria._Row(p, None, inc2)
        hi = p.Lambda / p.alpha2
        found, stats, points = counted_roots(
            lambda x: strain2_balance(row, row.f2, x), 1e-9 * hi, hi, SCAN_NODES
        )
        xs = np.linspace(0.0, hi, SCAN_NODES + 1)
        xs[0] = 1e-9 * hi
        h = strain2_balance(p, inc2, xs)
        expected = [
            optimize.brentq(lambda x: strain2_balance(p, inc2, x), xs[i], xs[i + 1], xtol=1e-13)
            for i in np.flatnonzero((h[:-1] > 0.0) != (h[1:] > 0.0))
        ]
        assert len(expected) == 3
        np.testing.assert_allclose(found, expected, rtol=1e-12)
        assert stats.brackets == 3 and points == stats.nodes + stats.evaluations
        assert stats.evaluations <= 3 * halvings(hi / SCAN_NODES, found[0])

    def test_a_coarse_scan_narrows_within_its_rounds_and_repeats_past_a_nan(self):
        # one cell, as for a built-in balance: each synthetic root is solved
        # from the two range ends, and a NaN at the last node is stepped back
        # by 2**-52, 2**-51, ... of the range until it is finite, which finds
        # a root 2**-40 from the end, next to a NaN stretch 2**-42 wide
        near_end = 1.0 - 2.0**-40
        fns = [fn for fn, _ in SYNTHETIC.values()] + [
            lambda x: near_end - x if x <= 1.0 - 2.0**-42 else math.nan,
            lambda x: ROOT - x if x < 1.0 else math.nan,
        ]
        expected = [roots[0] for _, roots in SYNTHETIC.values()] + [near_end, ROOT]
        for fn, root in zip(fns, expected):
            found, stats, points = counted_roots(fn, 0.0, 1.0, 1)
            assert found == pytest.approx([root], rel=2.0 * np.finfo(float).eps, abs=0.0)
            assert stats.nodes == 2 and stats.brackets == 1 and points == 2 + stats.evaluations
        # the last node stepped back by 2**-52 to 2**-42: eleven evaluations
        # before the secant step, which lands on the root of the linear balance
        assert counted_roots(fns[-2], 0.0, 1.0, 1)[1].evaluations == 11 + 1
        # a balance NaN all the way back to the node before has no bracket
        assert equilibria._roots(lambda x: math.nan if x > 0.0 else 1.0, 0.0, 1.0, 1) == ([], (2, 0, 52))

    def test_a_non_finite_trial_is_retried_halfway_back(self):
        # a custom rate can be non-finite inside a bracket whose ends are
        # finite: x*x - 0.36 on [0, 1] is NaN on [0.3, 0.4], where the first
        # secant trial, 0.36, lands. It is retried at 0.18, halfway back to
        # the last finite point 0, and the root 0.6 is still found
        trials = []

        def balance(x):
            trials.append(x)
            return math.nan if 0.3 <= x <= 0.4 else x * x - 0.36

        root = equilibria._zero(balance, 0.0, 1.0, -0.36, 0.64)
        assert root == pytest.approx(0.6, rel=2.0 * np.finfo(float).eps, abs=0.0)
        assert trials[:2] == pytest.approx([0.36, 0.18], rel=1e-15, abs=0.0)
        assert len(trials) < 20 and math.isnan(balance(trials[0]))

    def test_zero_stops_at_machine_precision(self):
        # on a linear balance the first secant step is exact; the returned
        # secant point of the final bracket lies within the stopping width
        # 2*eps*|root| of every root of these balances
        calls = []

        def line(x):
            calls.append(x)
            return 0.3 - x

        assert equilibria._zero(line, 0.0, 1.0, 0.3, -0.7) == pytest.approx(0.3, rel=0.0, abs=1e-16)
        assert len(calls) <= 2
        for fn, (root,) in SYNTHETIC.values():
            x = equilibria._zero(lambda x: float(fn(x)), 0.2, 0.3, float(fn(0.2)), float(fn(0.3)))
            assert abs(x - root) <= 2.0 * np.finfo(float).eps * root
