import numpy as np
import pytest

from twostrain.equilibria import Equilibrium, disease_free, solve_strain1, solve_strain2
from twostrain.errors import DomainError, PreconditionError
from twostrain.incidence import IncidenceSpec
from twostrain.model import (
    ModelParams,
    State,
    Thresholds,
    bound_field,
    invasion_numbers,
    jacobian,
    require_certified,
    residual,
    thresholds,
    vector_field,
)

BASE = dict(Lambda=200.0, mu=0.02, gamma1=0.07, gamma2=0.09, v1=0.1, v2=0.1, k=2e-5)


def example_61():
    return (
        ModelParams(r=0.1, **BASE),
        IncidenceSpec.saturated_i2(3e-5, 0.7),
        IncidenceSpec.saturated_s(2e-4, 0.9),
    )


def _random_setup(rng):
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
    builders = (
        lambda: IncidenceSpec.bilinear(10.0 ** rng.uniform(-6.0, -3.5)),
        lambda: IncidenceSpec.saturated_s(10.0 ** rng.uniform(-6.0, -3.5), 10.0 ** rng.uniform(-4.0, 0.0)),
        lambda: IncidenceSpec.saturated_i2(10.0 ** rng.uniform(-6.0, -3.5), 10.0 ** rng.uniform(-4.0, 0.0)),
    )
    inc1 = builders[rng.integers(3)]()
    inc2 = builders[rng.integers(3)]()
    return p, inc1, inc2


class TestParams:
    def test_derived_rates_example(self):
        p, _, _ = example_61()
        assert p.lam == pytest.approx(0.12)
        assert p.alpha1 == pytest.approx(0.19)
        assert p.alpha2 == pytest.approx(0.21)
        assert p.population_cap == pytest.approx(10000.0)
        assert p.susceptible_cap == pytest.approx(1666.6666666666665, rel=1e-15)
        assert p.vaccinated_cap == pytest.approx(8333.333333333332, rel=1e-15)

    def test_validation_names_offending_fields(self):
        with pytest.raises(ValueError, match="mu"):
            ModelParams(Lambda=200.0, mu=0.0, r=0.1, k=0.0, gamma1=0.1, gamma2=0.1, v1=0.1, v2=0.1)
        with pytest.raises(ValueError, match="Lambda.*r|r.*Lambda"):
            ModelParams(Lambda=-1.0, mu=0.02, r=-0.1, k=0.0, gamma1=0.1, gamma2=0.1, v1=0.1, v2=0.1)

    def test_zero_vaccination_allowed(self):
        p = ModelParams(Lambda=200.0, mu=0.02, r=0.0, k=2e-5, gamma1=0.07, gamma2=0.09, v1=0.1, v2=0.1)
        assert p.vaccinated_cap == 0.0


class TestState:
    def test_array_round_trip(self):
        x = State(1.0, 2.0, 3.0, 4.0)
        assert State.from_array(x.as_array()) == x
        y = State(1.0, 2.0, 3.0, 4.0, 5.0)
        assert y.as_array().shape == (5,)
        assert State.from_array(y.as_array()) == y
        with pytest.raises(ValueError):
            State.from_array([1.0, 2.0, 3.0])

    def test_total_excludes_recovered(self):
        assert State(1.0, 2.0, 3.0, 4.0, 100.0).total == 10.0


class TestVectorField:
    def test_zero_at_disease_free_point(self):
        p, inc1, inc2 = example_61()
        x = np.array([p.susceptible_cap, p.vaccinated_cap, 0.0, 0.0])
        f = vector_field(p, inc1, inc2, x)
        assert np.max(np.abs(f)) <= 1e-9

    def test_matches_hand_written_formulas(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p, inc1, inc2 = _random_setup(rng)
            S, V1, I1, I2 = rng.uniform(0.1, p.population_cap / 4.0, 4)
            F1 = inc1.rate(S, I1)
            F2 = inc2.rate(S, I2)
            expected = np.array(
                [
                    p.Lambda - F1 - F2 - p.lam * S,
                    p.r * S - (p.mu + p.k * I2) * V1,
                    F1 - p.alpha1 * I1,
                    F2 + p.k * I2 * V1 - p.alpha2 * I2,
                ]
            )
            got = vector_field(p, inc1, inc2, np.array([S, V1, I1, I2]))
            assert np.allclose(got, expected, rtol=1e-13, atol=0.0)

            # the one definition of the field, on rows of an (n, 5) state
            # matrix, with and without R, and on Python floats: each row is
            # bit for bit its own scalar evaluation of the formulas
            X = rng.uniform(0.1, p.population_cap / 4.0, (6, 5))
            field = bound_field(p, inc1.rate, inc2.rate)
            rows5 = np.column_stack(field(0.0, X.T))
            rows4 = np.column_stack(field(0.0, X[:, :4].T))
            for x, row5, row4 in zip(X, rows5, rows4):
                S, V1, I1, I2, R = x
                F1 = inc1.rate(S, I1)
                F2 = inc2.rate(S, I2)
                expected = np.array(
                    [
                        p.Lambda - F1 - F2 - p.lam * S,
                        p.r * S - (p.mu + p.k * I2) * V1,
                        F1 - p.alpha1 * I1,
                        F2 + p.k * I2 * V1 - p.alpha2 * I2,
                        p.gamma1 * I1 + p.gamma2 * I2 - p.mu * R,
                    ]
                )
                assert row5.tobytes() == expected.tobytes()
                assert row4.tobytes() == expected[:4].tobytes()
                assert vector_field(p, inc1, inc2, x).tobytes() == expected.tobytes()
                scalar = field(0.0, tuple(x.tolist()))
                assert type(scalar) is tuple and len(scalar) == 5
                assert np.array(scalar).tobytes() == expected.tobytes()

    def test_recovered_component_tracked(self):
        p, inc1, inc2 = example_61()
        x = np.array([100.0, 50.0, 10.0, 5.0, 7.0])
        f = vector_field(p, inc1, inc2, x)
        assert f.shape == (5,)
        assert f[4] == pytest.approx(p.gamma1 * 10.0 + p.gamma2 * 5.0 - p.mu * 7.0, rel=1e-14)

    def test_non_finite_state_rejected(self):
        p, inc1, inc2 = example_61()
        with pytest.raises(DomainError):
            vector_field(p, inc1, inc2, np.array([1.0, np.nan, 1.0, 1.0]))


class TestJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        draws = 0
        while draws < 100:
            p, inc1, inc2 = _random_setup(rng)
            x = rng.uniform(1.0, p.population_cap / 4.0, 4)
            J = jacobian(p, inc1, inc2, x)
            J_fd = np.empty((4, 4))
            for j in range(4):
                h = 1e-6 * max(1.0, abs(x[j]))
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                J_fd[:, j] = (
                    vector_field(p, inc1, inc2, xp) - vector_field(p, inc1, inc2, xm)
                ) / (2.0 * h)
            scale = np.max(np.abs(J))
            assert np.all(np.abs(J - J_fd) <= 1e-5 * np.maximum(np.abs(J), 1e-3 * scale)), (
                p,
                inc1.family,
                inc2.family,
            )
            draws += 1

    def test_structural_zeros(self):
        p, inc1, inc2 = example_61()
        J = jacobian(p, inc1, inc2, np.array([800.0, 400.0, 30.0, 20.0]))
        # V1 never enters the S or I1 balances; I1 never enters V1 or I2
        assert J[0, 1] == 0.0
        assert J[2, 1] == 0.0
        assert J[1, 2] == 0.0
        assert J[3, 2] == 0.0


class TestThresholds:
    def test_example_values(self):
        p, inc1, inc2 = example_61()
        th = thresholds(p, inc1, inc2)
        assert th.R1 == pytest.approx(0.2631578947368421, rel=1e-14)
        assert th.R2 == pytest.approx(0.794708289711621, rel=1e-14)
        assert th.R0 == th.R2
        assert th.R2_invasion is None and th.R1_invasion is None

    def test_r0_is_max_of_components(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p, inc1, inc2 = _random_setup(rng)
            th = thresholds(p, inc1, inc2)
            assert th.R0 == max(th.R1, th.R2)
            assert th.R1 >= 0.0 and th.R2 >= 0.0
            assert np.isfinite(th.R0)

    def test_thresholds_are_slopes_at_disease_free(self):
        # R1 = dF1/dI1(S0, 0)/alpha1 and R2 = (dF2/dI2(S0, 0) + k*V10)/alpha2
        p, inc1, inc2 = example_61()
        th = thresholds(p, inc1, inc2)
        S0, V10 = p.susceptible_cap, p.vaccinated_cap
        assert th.R1 == pytest.approx(inc1.d_rate_dI(S0, 0.0) / p.alpha1, rel=1e-14)
        assert th.R2 == pytest.approx((inc2.d_rate_dI(S0, 0.0) + p.k * V10) / p.alpha2, rel=1e-14)

    def test_invasion_numbers_bounded_by_thresholds(self):
        # at equilibrium the available susceptible pool never exceeds the
        # disease-free one, so each invasion number is capped by its R
        rng = np.random.default_rng(24)
        found1 = found2 = 0
        while found1 < 25 or found2 < 25:
            p, inc1, inc2 = _random_setup(rng)
            th = thresholds(p, inc1, inc2)
            e1_roots, e2_roots = solve_strain1(p, inc1), solve_strain2(p, inc2)
            e1 = e1_roots[0] if e1_roots else None
            e2 = e2_roots[0] if e2_roots else None
            r2_inv, r1_inv = invasion_numbers(p, inc1, inc2, e1, e2)
            if r2_inv is not None:
                assert r2_inv <= th.R2 + 1e-12
                found1 += 1
            if r1_inv is not None:
                assert r1_inv <= th.R1 + 1e-12
                found2 += 1


class TestResidualCertification:
    def test_residual_zero_at_equilibrium(self):
        p, inc1, inc2 = example_61()
        e0 = disease_free(p, inc1, inc2)
        assert residual(p, inc1, inc2, e0.point.as_array()) <= 1e-12

    def test_require_certified_rejects_sloppy_points(self):
        p, inc1, inc2 = example_61()
        sloppy = Equilibrium(
            kind="E0",
            point=State(p.susceptible_cap * 1.1, p.vaccinated_cap, 0.0, 0.0),
            residual=residual(
                p, inc1, inc2, np.array([p.susceptible_cap * 1.1, p.vaccinated_cap, 0.0, 0.0])
            ),
        )
        with pytest.raises(PreconditionError):
            require_certified(sloppy)

    def test_thresholds_dataclass_is_frozen(self):
        th = Thresholds(R1=0.5, R2=0.5, R0=0.5)
        with pytest.raises(Exception):
            th.R1 = 2.0
