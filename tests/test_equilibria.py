import collections
import dataclasses
import itertools
import re
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import random_cases, wavy_rate
from twostrain import equilibria, incidence
from twostrain.analysis import apply_sweep_value
from twostrain.benchmarks import build_scenario
from twostrain.equilibria import (
    BLOCK_ROWS,
    SCAN_NODES,
    SECTIONS,
    disease_free,
    solve_all,
    solve_batch,
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
            "found 1 root(s) at scan resolution 4096; auxiliary uniqueness flag"
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
        # one by bisection to eps*S0; NaN where no S <= S0 solves it
        optimize = pytest.importorskip("scipy.optimize")
        p = params(r=r, k=k)
        S0, eps = p.susceptible_cap, np.finfo(float).eps
        I2 = np.linspace(0.0, p.Lambda / p.alpha2, 41)[1:]
        for inc, rel, tol in ((inc2, 1e-13, 0.0), (IncidenceSpec.custom(inc2.rate), 0.0, eps * S0)):
            rows = equilibria._Rows.of([(p, IncidenceSpec.bilinear(2e-4), inc)])
            S = equilibria.coexistence_coordinates(rows, I2[None, :])[0][0]
            for x, s in zip(I2, S):
                c = p.k * p.r / (p.mu + p.k * x)

                def g(v):
                    return inc.force(v, x) + c * v - p.alpha2

                if g(S0) < 0.0:
                    assert np.isnan(s)
                else:
                    expected = optimize.brentq(g, 0.0, S0, xtol=1e-300, rtol=4.0 * eps)
                    assert s == pytest.approx(expected, rel=rel, abs=tol)
            assert np.isfinite(S).any()


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


def _bits(eqs):
    """Every coordinate and residual of an EquilibriumSet as raw bytes."""
    return np.array([x for eq in eqs.all for x in (*eq.point.as_array(), eq.residual)]).tobytes()


def assert_rows_equal_their_solve_all(rows, results):
    assert len(results) == len(rows)
    for (p, inc1, inc2), eqs in zip(rows, results):
        alone = solve_all(p, inc1, inc2)
        assert eqs == alone
        assert _bits(eqs) == _bits(alone)


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


def peak_memory(call):
    """The peak of ``call()`` above the memory traced before it."""
    before, _, peak = traced(call)
    return peak - before


class TestBatch:
    """solve_batch: one scan per kind for a block of rows, each row bit for
    bit its own solve_all."""

    def test_random_draws_in_batches_of_every_size(self):
        sizes = itertools.cycle((BLOCK_ROWS, 1, 2, 3, 7))
        by_pair = {}
        for case in random_cases(1105, 200):
            by_pair.setdefault((case[1].family, case[2].family), []).append(case)
        seen = set()
        for cases in by_pair.values():
            at = 0
            while at < len(cases):
                batch = cases[at : at + next(sizes)]
                at += len(batch)
                seen.add(len(batch))
                assert_rows_equal_their_solve_all(batch, solve_batch(batch))
        assert {BLOCK_ROWS, 1, 2, 3, 7} <= seen

    @pytest.mark.parametrize("key", ["incidence1.beta", "incidence2.zeta"])
    def test_coefficient_columns_vary_along_a_sweep(self, key):
        sc = build_scenario("6.4")
        base = getattr(sc.incidence1 if key.startswith("incidence1") else sc.incidence2, key.split(".")[1])
        rows = []
        for value in np.linspace(0.25 * base, 4.0 * base, 9):
            sci = apply_sweep_value(sc, key, value)
            rows.append((sci.params, sci.incidence1, sci.incidence2))
        results = solve_batch(rows)
        assert len({eqs.thresholds.R1 for eqs in results} | {eqs.thresholds.R2 for eqs in results}) > 2
        assert_rows_equal_their_solve_all(rows, results)

    def test_multi_root_row_between_single_root_rows(self):
        optimize = pytest.importorskip("scipy.optimize")
        inc1, inc2 = IncidenceSpec.bilinear(2e-4), wavy_rate()
        rows = [(params(r=r, k=0.0), inc1, inc2) for r in (0.02, 0.1, 0.05, 0.2)]
        results = solve_batch(rows)
        assert [len(eqs.E2) for eqs in results] == [1, 3, 3, 1]
        assert [len(eqs.E3) for eqs in results] == [4, 1, 4, 0]
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
        assert_rows_equal_their_solve_all(rows, results)

    def test_custom_incidence_rows(self):
        sc = build_scenario("6.4")
        inc1 = IncidenceSpec.custom(lambda S, I: 2e-4 * S * I / (1.0 + 1e-4 * I * I))
        rows = [
            (apply_sweep_value(sc, "r", r).params, inc1, sc.incidence2) for r in (0.0, 0.01, 0.03, 0.1)
        ]
        results = solve_batch(rows)
        assert any(eqs.E3 for eqs in results)
        assert_rows_equal_their_solve_all(rows, results)

    def test_custom_strain2_rows(self):
        # the E3 solve for S bisects a custom strain-2 rate
        inc1, inc2 = IncidenceSpec.bilinear(2e-4), wavy_rate()
        rows = [(params(r=r, k=k), inc1, inc2) for r, k in ((0.02, 2e-5), (0.1, 0.0), (0.1, 2e-5), (0.25, 0.0))]
        results = solve_batch(rows)
        assert [len(eqs.E3) for eqs in results] == [5, 1, 3, 0]
        assert_rows_equal_their_solve_all(rows, results)

    def test_rows_must_share_one_family_pair(self):
        p = params()
        inc2 = IncidenceSpec.saturated_s(2e-4, 0.001)
        with pytest.raises(ValueError, match="family pair"):
            solve_batch([(p, IncidenceSpec.bilinear(2e-4), inc2), (p, IncidenceSpec.saturated_i2(2e-4, 0.1), inc2)])
        custom = [IncidenceSpec.custom(lambda S, I: 2e-4 * S * I) for _ in range(2)]
        with pytest.raises(ValueError, match="family pair"):
            solve_batch([(p, custom[0], inc2), (p, custom[1], inc2)])

    def test_every_bracket_narrows_for_the_derived_rounds(self):
        # a pass cuts all its brackets in each round until the last of them
        # is narrow, at most _ROUNDS rounds, so a row's rounds are its
        # brackets times that count; most passes need two
        passes = collections.Counter()
        for case in random_cases(1105, 200):
            st = solve_all(*case).stats
            for scan in (st.E1, st.E2, st.E3_cap, st.E3):
                ran, rest = divmod(scan.rounds, max(scan.brackets, 1))
                assert rest == 0 and (1 <= ran <= equilibria._ROUNDS if scan.brackets else ran == 0)
                passes[ran] += 1
        assert passes[0] and passes[2] > sum(passes[r] for r in range(3, equilibria._ROUNDS + 1))

    def test_stats_repeat_and_match_the_balance_evaluations(self, monkeypatch):
        # a counting wrapper around every balance callable handed to the
        # root finder tallies the abscissae of each row; a row's tally is
        # its scan and _SLOPE.size cuts per bracket and round
        tallies = []
        roots = equilibria._roots

        def counted(fn, rows, hi, kind):
            tally = np.zeros(len(rows.block), int)

            def balance(c, x):
                np.add.at(tally, c.row, x.shape[1])
                return fn(c, x)

            tallies.append(tally)
            return roots(balance, rows, hi, kind)

        monkeypatch.setattr(equilibria, "_roots", counted)
        inc1, inc2 = IncidenceSpec.bilinear(2e-4), wavy_rate()
        rows = [(params(r=r, k=0.0), inc1, inc2) for r in (0.02, 0.1, 0.25)]
        results = solve_batch(rows)
        assert [eqs.stats for eqs in solve_batch(rows)] == [eqs.stats for eqs in results]
        e1, e2, cap, e3 = tallies[:4]
        for i, eqs in enumerate(results):
            st = eqs.stats
            assert st.rows == 3
            for tally, scan in ((e1, st.E1), (e2, st.E2), (cap, st.E3_cap), (e3, st.E3)):
                assert tally[i] == scan.nodes + scan.rounds * equilibria._SLOPE.size
            assert st.E2.brackets == len(eqs.E2)
        assert [eqs.stats.E2.rounds for eqs in results] == [2, 6, 0]  # 1, 3 and no brackets
        assert results[2].stats.E1.nodes == 0  # R1 < 1 at r = 0.25: no E1 scan

        # with a custom strain-2 rate each E3 balance call solves for S with
        # one force evaluation at S0 and one per halving, each a single rate
        # call, and never calls dF2/dS; the E2 notes call it once per root
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
        # the scan and one call per narrowing round
        ran = eqs.stats.E3.rounds // eqs.stats.E3.brackets
        assert per_balance == [1 + equilibria._S_HALVINGS] * (ran + 1)
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

    def test_memory_stays_within_one_block(self):
        # the working memory, the peak less what the results still hold
        # after the call, of 256 rows is that of one block
        rows = sweep_rows(256)
        one_block = working_memory(lambda: solve_batch(rows[:BLOCK_ROWS]))
        all_rows = working_memory(lambda: solve_batch(rows))
        assert all_rows <= 1.5 * one_block

    def test_block_peak_stays_near_one_row(self):
        # each row is scanned in its own (SCAN_NODES + 1) arrays, so a full
        # block's peak stays near one row's; one (rows x nodes) scan array
        # per block would peak at about 14 times one row
        rows = sweep_rows(BLOCK_ROWS)
        block = peak_memory(lambda: solve_batch(rows))
        one_row = peak_memory(lambda: solve_all(*rows[BLOCK_ROWS // 2]))
        assert block <= 2.0 * one_row


def scanned_in_full(case):
    """One row's E3 balances scanned in full whatever its thresholds, as
    ``_coexistence`` scans a custom row: the cap balance's value at the scan
    end Lambda/alpha2 and its roots, and I2 and I1 at the psi roots."""
    p = case[0]
    rows = equilibria._Rows.of([case])
    hi = np.array([p.Lambda / p.alpha2])
    (cap,) = equilibria._roots(equilibria._cap, rows, hi, 2)
    (I2,) = equilibria._roots(equilibria._psi, rows, cap[-1:] if cap.size else hi, 3)
    I1 = equilibria.coexistence_coordinates(rows, I2[None, :])[2][0]
    return equilibria._cap(rows, hi)[0], cap, I2, I1


class TestCoexistenceSkip:
    """For built-in families the thresholds rule E3 scans out (see the
    equilibria module docstring): a row with R1 <= 1 or R2 <= 1 has no E3
    scan, and a cap balance positive at the scan end is not scanned. Every
    row still gets the roots that both scans in full give."""

    def test_each_row_has_the_roots_of_both_scans_in_full(self):
        cases = list(random_cases(1105, 600))
        cases += [row for example in ("6.1", "6.2", "6.3", "6.4") for row in sweep_rows(41, example)]
        # R1 just above 1, where E3 still exists in some rows: beta1 scales R1
        near_one = [
            (p, dataclasses.replace(inc1, beta=inc1.beta * 1.02 / thresholds(p, inc1, inc2).R1), inc2)
            for p, inc1, inc2 in cases[:100]
        ]
        assert sum(bool(solve_all(*case).E3) for case in near_one) > 10
        cap_nodes = collections.Counter()
        for case in cases + near_one:
            eqs = solve_all(*case)
            st, th = eqs.stats, eqs.thresholds
            end, cap, I2, I1 = scanned_in_full(case)
            assert [e3.point.I2 for e3 in eqs.E3] == I2[I1 > 0.0].tolist()
            ruled_out = th.R1 <= 1.0 or th.R2 <= 1.0
            if ruled_out:
                assert st.E3_cap == st.E3 == (0, 0, 0)
                assert not np.any(I1 > 0.0)
            elif end > 0.0:
                assert st.E3_cap == (1, 0, 0) and cap.size == 0
            else:
                assert st.E3_cap.nodes == SCAN_NODES + 1
            assert (st.E3.nodes == 0) == ruled_out
            cap_nodes[st.E3_cap.nodes] += 1
        # ruled out, positive at the end, and scanned: 150, 289 and 161 draws
        assert cap_nodes[0] and cap_nodes[1] and cap_nodes[SCAN_NODES + 1]

    def test_psi_and_the_cap_balance_obey_their_bounds_at_every_node(self):
        # S <= S0 and V1 <= V10 with monotone forces bound psi by
        # alpha1*(R1 - 1), up to rounding, and make the cap balance fall
        eps = np.finfo(float).eps
        cases = list(random_cases(1105, 600))
        cases += [sweep_rows(1, example)[0] for example in ("6.1", "6.2", "6.3", "6.4")]
        for case in cases:
            p, th = case[0], thresholds(*case)
            rows = equilibria._Rows.of([case])
            hi = p.Lambda / p.alpha2
            x = np.linspace(0.0, hi, SCAN_NODES + 1)[None, :]
            x[0, 0] = equilibria.BRACKET_EPSILON * hi
            psi = equilibria._psi(rows, x)[0]
            bound = p.alpha1 * (th.R1 - 1.0) + 4.0 * eps * p.alpha1 * max(th.R1, 1.0)
            assert np.all(psi[np.isfinite(psi)] <= bound)
            assert np.all(np.diff(equilibria._cap(rows, x)[0]) <= 0.0)

    @pytest.mark.parametrize("custom", ["wavy", "copy of saturated_i2"])
    def test_custom_rates_are_scanned_with_r1_below_one(self, custom):
        # a custom force is not proved monotone, so its rows keep both scans
        if custom == "wavy":
            p, inc1 = params(r=0.3, gamma1=0.09), wavy_rate()
            inc2 = IncidenceSpec.saturated_s(2e-4, 1e-4)
        else:
            p, inc1 = params(), IncidenceSpec.saturated_i2(3e-5, 0.7)
            inc2 = IncidenceSpec.saturated_s(2e-4, 0.001)
            built_in = solve_all(p, inc1, inc2)
            assert built_in.stats.E3_cap == built_in.stats.E3 == (0, 0, 0)
            inc1 = IncidenceSpec.custom(inc1.rate)
        eqs = solve_all(p, inc1, inc2)
        assert eqs.thresholds.R1 <= 1.0 < eqs.thresholds.R2
        assert eqs.stats.E3_cap.nodes == eqs.stats.E3.nodes == SCAN_NODES + 1
        assert eqs.E3 == () and eqs.coexistence_error == ""

    def test_each_block_row_is_built_once(self, monkeypatch):
        # every balance of a block, and the cap's end value, evaluates a row
        # on the one view that _Rows.of builds for it
        built, row_data = [], equilibria._row_data
        monkeypatch.setattr(equilibria, "_row_data", lambda *row: built.append(row) or row_data(*row))
        rows = sweep_rows(4)
        results = solve_batch(rows)
        assert len(built) == len(rows)
        assert [eqs.stats.E3_cap.nodes for eqs in results] == [1, 1, 1, 0]  # R1 < 1 at r = 0.2
        assert_rows_equal_their_solve_all(rows, results)


#: a synthetic balance's root: off every scan node of the range (0, 1], 0.8
#: of the way through its scan cell
ROOT = (1000.0 + 0.8) / SCAN_NODES
CELL = 1.0 / SCAN_NODES


def _nan_beside(x):
    """c - x, NaN on [c - 0.6, c - 0.05] scan cells: the NaN stretch lies
    inside the root's scan cell, between its positive left end and the root."""
    return np.where((x >= ROOT - 0.6 * CELL) & (x <= ROOT - 0.05 * CELL), np.nan, ROOT - x)


#: balances on (0, 1] on which the secant point is a poor guide: fn(x) and
#: its roots
SYNTHETIC = {
    "triple root": (lambda x: (x - ROOT) ** 3, [ROOT]),
    "kink": (lambda x: np.sign(ROOT - x) * np.sqrt(np.abs(x - ROOT)), [ROOT]),
    "NaN beside the root": (_nan_beside, [ROOT]),
}


def narrowing(monkeypatch, fn, rows, hi, kind=0):
    """``_roots(fn, rows, hi, kind)`` with every point it hands fn counted and
    each narrowing round's brackets and live flags recorded: the roots, the
    point count, the last round's (a, b) and each bracket's live rounds."""
    rounds, points = [], [0]
    narrowed = equilibria._narrowed

    def recorded(fn, c, a, b, fa, fb, live):
        out = narrowed(fn, c, a, b, fa, fb, live)
        rounds.append((live.copy(), out[0], out[1]))
        return out

    def counted(c, x):
        points[0] += x.size
        return fn(c, x)

    monkeypatch.setattr(equilibria, "_narrowed", recorded)
    roots = equilibria._roots(counted, rows, hi, kind)
    live = np.sum([flags for flags, _, _ in rounds], axis=0)
    return roots, points[0], rounds[-1][1:], live


class TestNarrowing:
    """_roots on balances chosen to defeat the secant point: each bracket
    still ends below BISECT_WIDTH*hi within _ROUNDS rounds, and the points
    handed to the balance are exactly the scan and the rounds' cuts."""

    def test_the_constants_bound_the_rounds_and_the_finest_cut(self):
        rounds, finest = equilibria._ROUNDS, equilibria._FINEST
        assert SCAN_NODES * SECTIONS**rounds * equilibria.BISECT_WIDTH >= 1.0
        assert SCAN_NODES * SECTIONS ** (rounds - 1) * equilibria.BISECT_WIDTH < 1.0
        assert SCAN_NODES * 2.0**finest * equilibria.BISECT_WIDTH >= 1.0
        assert SCAN_NODES * 2.0 ** (finest - 1) * equilibria.BISECT_WIDTH < 1.0
        # at any secant fraction every cut lies in the bracket, and no part
        # is wider than 1/SECTIONS of it
        for t in (0.0, 1e-300, 0.3, 0.5, 1.0 - 2.0**-53, 1.0):
            cuts = np.sort(np.concatenate([[0.0], t * equilibria._SLOPE + equilibria._STEP, [1.0]]))
            assert 0.0 <= cuts[0] and cuts[-1] <= 1.0
            assert np.diff(cuts).max() <= 1.0 / SECTIONS

    @pytest.mark.parametrize("name", sorted(SYNTHETIC))
    def test_a_poor_secant_point_still_narrows_within_the_rounds(self, monkeypatch, name):
        fn, expected = SYNTHETIC[name]
        rows = equilibria._Rows.of([(params(), None, None)])
        roots, points, (a, b), live = narrowing(monkeypatch, lambda c, x: fn(x), rows, np.array([1.0]))
        (found,) = roots
        width = equilibria.BISECT_WIDTH
        np.testing.assert_allclose(found, expected, rtol=0.0, atol=width)
        assert np.all(b - a < width) and np.all((a <= found) & (found <= b))
        assert 1 <= live.max() <= equilibria._ROUNDS
        nodes, brackets, rounds = rows.scans[0, 0]
        assert (nodes, brackets) == (SCAN_NODES + 1, len(expected))
        assert rounds == brackets * live.max()
        assert points == nodes + rounds * equilibria._SLOPE.size

    def test_three_e2_roots_of_the_wavy_rate(self, monkeypatch):
        optimize = pytest.importorskip("scipy.optimize")
        p, inc2 = params(r=0.1, k=0.0), wavy_rate()
        rows = equilibria._Rows.of([(p, None, inc2)])
        hi = p.Lambda / p.alpha2
        roots, points, (a, b), live = narrowing(
            monkeypatch, lambda c, x: strain2_balance(c, c.f2, x), rows, np.array([hi]), kind=1
        )
        (found,) = roots
        xs = np.linspace(0.0, hi, SCAN_NODES + 1)
        xs[0] = 1e-9 * hi
        h = strain2_balance(p, inc2, xs)
        expected = [
            optimize.brentq(lambda x: strain2_balance(p, inc2, x), xs[i], xs[i + 1], xtol=1e-13)
            for i in np.flatnonzero((h[:-1] > 0.0) != (h[1:] > 0.0))
        ]
        assert len(expected) == 3
        np.testing.assert_allclose(found, expected, rtol=1e-12)
        assert np.all(b - a < equilibria.BISECT_WIDTH * hi)
        assert 1 <= live.max() <= equilibria._ROUNDS
        nodes, brackets, rounds = rows.scans[0, 1]
        assert brackets == 3 and rounds == brackets * live.max()
        assert points == nodes + rounds * equilibria._SLOPE.size

    def test_a_narrow_bracket_is_frozen_while_its_block_narrows_on(self):
        # a block of rows whose brackets need different numbers of rounds:
        # each row's roots are bit for bit its one-row pass
        fns = [fn for fn, _ in SYNTHETIC.values()] + [lambda x: ROOT - x]

        def balance(c, x):
            return np.choose(c.row[:, None], [fn(x) for fn in fns])

        block = [(params(), None, None)] * len(fns)
        rows = equilibria._Rows.of(block)
        together = equilibria._roots(balance, rows, np.ones(len(fns)), 0)
        ran = set()
        for i in range(len(fns)):
            alone = equilibria._Rows.of([block[i]])
            fn = fns[i]
            (root,) = equilibria._roots(lambda c, x: fn(x), alone, np.array([1.0]), 0)
            assert together[i].tobytes() == root.tobytes()
            ran.add(alone.scans[0, 0, 2])
        assert len(ran) > 1
        assert (rows.scans[:, 0, 2] == max(ran)).all()
