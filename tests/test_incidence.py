import dataclasses

import numpy as np
import pytest

from twostrain.errors import DomainError, UnsupportedLimitError
from twostrain.incidence import IncidenceSpec


def _log_grid(lo, hi, n=25):
    return np.geomspace(lo, hi, n)


def _central_fd(fn, S, I, wrt, h_scale=None):
    # step h = sqrt(eps)*max(1, |coordinate|), same recipe the package uses
    # for custom families, reproduced here as the independent oracle
    eps = float(np.finfo(float).eps) ** 0.5
    if wrt == "S":
        h = eps * max(1.0, abs(S))
        return (fn(S + h, I) - fn(S - h, I)) / (2.0 * h)
    h = eps * max(1.0, abs(I))
    return (fn(S, I + h) - fn(S, I - h)) / (2.0 * h)


class TestConstruction:
    def test_bad_coefficients_rejected(self):
        with pytest.raises(ValueError):
            IncidenceSpec.bilinear(0.0)
        with pytest.raises(ValueError):
            IncidenceSpec.bilinear(-1e-4)
        with pytest.raises(ValueError):
            IncidenceSpec.saturated_s(1e-4, -0.1)
        with pytest.raises(ValueError):
            IncidenceSpec.saturated_i2(float("nan"), 0.1)

    def test_coefficients_checked_on_every_construction(self):
        # the raw constructor and dataclasses.replace validate built-ins too
        with pytest.raises(ValueError, match="beta"):
            IncidenceSpec("bilinear", 0.0)
        with pytest.raises(ValueError, match="zeta"):
            dataclasses.replace(IncidenceSpec.saturated_s(1e-4, 0.5), zeta=-1.0)
        assert IncidenceSpec("saturated_i2", 1e-4, 0.5, label="saturated_i2") == (
            IncidenceSpec.saturated_i2(1e-4, 0.5)
        )
        # custom callables carry no coefficients to check
        assert IncidenceSpec("custom", rate_fn=lambda S, I: S * I).beta == 0.0

    def test_family_labels(self):
        assert IncidenceSpec.bilinear(1e-4).family == "bilinear"
        assert IncidenceSpec.saturated_s(1e-4, 0.5).family == "saturated_s"
        assert IncidenceSpec.saturated_i2(1e-4, 0.5).family == "saturated_i2"
        custom = IncidenceSpec.custom(lambda S, I: 1e-4 * S * I, label="test")
        assert custom.family == "custom"


class TestRateValues:
    def test_bilinear_closed_form(self):
        inc = IncidenceSpec.bilinear(2e-4)
        rng = np.random.default_rng(7)
        for _ in range(50):
            S, I = rng.uniform(0.0, 1e4, 2)
            assert inc.rate(S, I) == pytest.approx(2e-4 * S * I, rel=1e-14)

    def test_saturated_s_closed_form(self):
        inc = IncidenceSpec.saturated_s(2e-4, 0.9)
        rng = np.random.default_rng(8)
        for _ in range(50):
            S, I = rng.uniform(0.0, 1e4, 2)
            assert inc.rate(S, I) == pytest.approx(2e-4 * S * I / (1.0 + 0.9 * S), rel=1e-14)

    def test_saturated_i2_closed_form(self):
        inc = IncidenceSpec.saturated_i2(3e-5, 0.7)
        rng = np.random.default_rng(9)
        for _ in range(50):
            S, I = rng.uniform(0.0, 1e4, 2)
            assert inc.rate(S, I) == pytest.approx(3e-5 * S * I / (1.0 + 0.7 * I * I), rel=1e-14)

    def test_rate_vanishes_on_boundaries(self):
        for inc in (
            IncidenceSpec.bilinear(2e-4),
            IncidenceSpec.saturated_s(2e-4, 0.9),
            IncidenceSpec.saturated_i2(3e-5, 0.7),
        ):
            for x in (0.0, 1.0, 1e3):
                assert inc.rate(0.0, x) == 0.0
                assert inc.rate(x, 0.0) == 0.0

    def test_broadcasting_matches_scalar(self):
        inc = IncidenceSpec.saturated_i2(3e-5, 0.7)
        S = np.array([1.0, 10.0, 100.0])
        I = np.array([0.5, 5.0, 50.0])
        vec = inc.rate(S, I)
        assert vec.shape == (3,)
        for j in range(3):
            assert vec[j] == inc.rate(float(S[j]), float(I[j]))

    def test_non_finite_rejected(self):
        inc = IncidenceSpec.bilinear(2e-4)
        with pytest.raises(DomainError):
            inc.rate(float("nan"), 1.0)
        with pytest.raises(DomainError):
            inc.force(1.0, float("inf"))

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"), -float("inf")))
    @pytest.mark.parametrize(
        "wrap",
        (float, np.float64, np.float32, np.array, lambda v: np.array([1.0, v])),
        ids=("float", "float64", "float32", "0-d", "array"),
    )
    def test_non_finite_rejected_in_every_input_type(self, wrap, bad):
        inc = IncidenceSpec.saturated_s(2e-4, 0.9)
        fine = wrap(1.0)
        for evaluate in (inc.rate, inc.force, inc.contact_factor, inc.d_rate_dS, inc.d_rate_dI):
            with pytest.raises(DomainError):
                evaluate(wrap(bad), fine)
            with pytest.raises(DomainError):
                evaluate(fine, wrap(bad))
            assert np.all(np.isfinite(evaluate(fine, fine)))


class TestForce:
    def test_force_times_I_recovers_rate(self):
        rng = np.random.default_rng(10)
        for inc in (
            IncidenceSpec.bilinear(2e-4),
            IncidenceSpec.saturated_s(2e-4, 0.9),
            IncidenceSpec.saturated_i2(3e-5, 0.7),
        ):
            for _ in range(30):
                S = rng.uniform(1e-3, 1e4)
                I = rng.uniform(1e-3, 1e4)
                assert inc.force(S, I) * I == pytest.approx(inc.rate(S, I), rel=1e-12)

    def test_force_at_zero_infectives(self):
        # the I -> 0 limit: bilinear and saturated_i2 give beta*S, the
        # S-saturated family beta*S/(1+zeta*S)
        S = 123.0
        assert IncidenceSpec.bilinear(2e-4).force(S, 0.0) == pytest.approx(2e-4 * S, rel=1e-14)
        assert IncidenceSpec.saturated_i2(3e-5, 0.7).force(S, 0.0) == pytest.approx(
            3e-5 * S, rel=1e-14
        )
        assert IncidenceSpec.saturated_s(2e-4, 0.9).force(S, 0.0) == pytest.approx(
            2e-4 * S / (1.0 + 0.9 * S), rel=1e-14
        )

    def test_custom_force_limit(self):
        custom = IncidenceSpec.custom(lambda S, I: 2e-4 * S * I / (1.0 + 0.3 * S))
        expected = 2e-4 * 50.0 / (1.0 + 0.3 * 50.0)
        assert custom.force(50.0, 0.0) == pytest.approx(expected, rel=1e-6)

    def test_custom_force_limit_unsupported(self):
        # F ~ sqrt(I) has an infinite force limit at I = 0; the delta and
        # delta/2 probes disagree by ~41% so the limit must be refused
        bad = IncidenceSpec.custom(lambda S, I: 1e-4 * S * np.sqrt(I))
        with pytest.raises(UnsupportedLimitError):
            bad.force(10.0, 0.0)

    def test_contact_factor_requires_positive_S(self):
        inc = IncidenceSpec.saturated_s(2e-4, 0.9)
        with pytest.raises(DomainError):
            inc.contact_factor(0.0, 1.0)
        assert inc.contact_factor(10.0, 1.0) == pytest.approx(2e-4 / (1.0 + 9.0), rel=1e-14)


class TestPartials:
    @pytest.mark.parametrize(
        "inc",
        [
            IncidenceSpec.bilinear(2e-4),
            IncidenceSpec.saturated_s(2e-4, 0.9),
            IncidenceSpec.saturated_i2(3e-5, 0.7),
        ],
        ids=["bilinear", "saturated_s", "saturated_i2"],
    )
    def test_analytic_partials_match_fd_on_log_grid(self, inc):
        S_grid = _log_grid(1e-2, 1e4)
        I_grid = _log_grid(1e-2, 1e4)
        eps = float(np.finfo(float).eps)
        for S in S_grid:
            for I in I_grid:
                for wrt, analytic in (
                    ("S", inc.d_rate_dS(S, I)),
                    ("I", inc.d_rate_dI(S, I)),
                ):
                    fd = _central_fd(inc.rate, float(S), float(I), wrt)
                    # 1e-6 relative, plus the FD oracle's own cancellation
                    # noise: a few ulps of F divided by the step
                    h = eps ** 0.5 * max(1.0, abs(S if wrt == "S" else I))
                    noise = 8.0 * eps * abs(inc.rate(S, I)) / h
                    tol = 1e-6 * max(abs(analytic), abs(fd)) + noise
                    assert abs(analytic - fd) <= tol, (inc.family, wrt, S, I)

    def test_dS_nonneg_and_dI_bounded_by_force(self):
        # H3/H4 differential forms on a positive grid
        rng = np.random.default_rng(11)
        for inc in (
            IncidenceSpec.bilinear(2e-4),
            IncidenceSpec.saturated_s(2e-4, 0.9),
            IncidenceSpec.saturated_i2(3e-5, 0.7),
        ):
            for _ in range(100):
                S = rng.uniform(1e-2, 1e4)
                I = rng.uniform(1e-2, 1e4)
                assert inc.d_rate_dS(S, I) >= 0.0
                assert inc.d_rate_dI(S, I) <= inc.force(S, I) * (1.0 + 1e-12)

    def test_saturated_i2_slope_at_zero(self):
        # dF/dI at I = 0 equals beta*S: the threshold derivative input
        inc = IncidenceSpec.saturated_i2(3e-5, 0.7)
        for S in (1.0, 100.0, 1666.6666666666665):
            assert inc.d_rate_dI(S, 0.0) == pytest.approx(3e-5 * S, rel=1e-13)

    def test_custom_partials_fall_back_to_fd(self):
        beta, zeta = 2e-4, 0.9
        custom = IncidenceSpec.custom(lambda S, I: beta * S * I / (1.0 + zeta * S))
        exact = IncidenceSpec.saturated_s(beta, zeta)
        for S in (0.5, 50.0, 5000.0):
            for I in (0.5, 50.0, 5000.0):
                assert custom.d_rate_dS(S, I) == pytest.approx(exact.d_rate_dS(S, I), rel=1e-6)
                assert custom.d_rate_dI(S, I) == pytest.approx(exact.d_rate_dI(S, I), rel=1e-6)


class TestHypothesisChecks:
    @pytest.mark.parametrize(
        "inc",
        [
            IncidenceSpec.bilinear(2e-4),
            IncidenceSpec.saturated_s(2e-4, 0.9),
            IncidenceSpec.saturated_i2(3e-5, 0.7),
        ],
        ids=["bilinear", "saturated_s", "saturated_i2"],
    )
    def test_built_in_families_pass(self, inc):
        report = inc.check_hypotheses(S_max=1e4, I_max=1e4)
        assert report.all_pass, {k: v.passed for k, v in report.checks.items()}

    def test_strictness_flag(self):
        # bilinear force is strictly increasing in S; saturated_s too;
        # the flag records strict monotonicity separately from the pass
        report = IncidenceSpec.bilinear(2e-4).check_hypotheses(1e3, 1e3)
        assert report.checks["force_monotone"].strict is True

    def test_mass_action_in_I_only_fails_boundary(self):
        # F(S, I) = beta*I: monotonicity in S holds only non-strictly and
        # F(0, I) != 0 breaks the boundary requirement
        inc = IncidenceSpec.custom(lambda S, I: 1e-3 * I + 0.0 * S, label="I-only")
        report = inc.check_hypotheses(1e3, 1e3)
        assert not report.checks["boundary_zero"].passed
        assert report.checks["force_monotone"].passed
        assert report.checks["force_monotone"].strict is False
        assert not report.all_pass

    def test_grid_arguments_validated(self):
        inc = IncidenceSpec.bilinear(2e-4)
        with pytest.raises(ValueError):
            inc.check_hypotheses(-1.0, 10.0)
        with pytest.raises(ValueError):
            inc.check_hypotheses(10.0, 10.0, n_grid=4)
