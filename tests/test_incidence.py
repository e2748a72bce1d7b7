import dataclasses

import mpmath
import numpy as np
import pytest
import sympy as sp
from conftest import text_derivatives

from twostrain import incidence
from twostrain.benchmarks import build_scenario
from twostrain.equilibria import solve_all
from twostrain.errors import DomainError, UnsupportedLimitError
from twostrain.incidence import IncidenceSpec
from twostrain.model import jacobian, thresholds
from twostrain.stability import classify


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

    def test_bilinear_takes_no_zeta(self):
        # its rate ignores zeta, so a zeta would be printed and serialized
        # nowhere and lost in a scenario's round trip
        with pytest.raises(ValueError, match="bilinear incidence takes no zeta"):
            IncidenceSpec("bilinear", 2e-4, 0.5)
        with pytest.raises(ValueError, match="bilinear incidence takes no zeta"):
            dataclasses.replace(IncidenceSpec.bilinear(2e-4), zeta=0.5)
        assert IncidenceSpec("bilinear", 2e-4, 0.0, label="bilinear") == IncidenceSpec.bilinear(2e-4)

    @pytest.mark.parametrize("family", ["bilinar", "Bilinear", "", "saturated"])
    def test_unknown_family_rejected(self, family):
        with pytest.raises(ValueError, match="unknown incidence family %r" % family):
            IncidenceSpec(family, 1e-4)

    @pytest.mark.parametrize("rate_fn", [None, 1e-4, "S*I"])
    def test_custom_rate_must_be_callable(self, rate_fn):
        with pytest.raises(ValueError, match="callable rate_fn"):
            IncidenceSpec("custom", rate_fn=rate_fn)
        with pytest.raises(ValueError, match="callable rate_fn"):
            dataclasses.replace(IncidenceSpec.custom(lambda S, I: S * I), rate_fn=rate_fn)

    @pytest.mark.parametrize("partial", [5, 1e-4, "S"])
    def test_custom_partials_must_be_none_or_callable(self, partial):
        rate = lambda S, I: S * I
        with pytest.raises(ValueError, match="None or callable: d_rate_dS_fn$"):
            IncidenceSpec.custom(rate, d_rate_dS=partial)
        with pytest.raises(ValueError, match="None or callable: d_rate_dS_fn, d_rate_dI_fn$"):
            IncidenceSpec.custom(rate, d_rate_dS=partial, d_rate_dI=partial)
        with pytest.raises(ValueError, match="None or callable: d_rate_dI_fn$"):
            dataclasses.replace(IncidenceSpec.custom(rate), d_rate_dI_fn=partial)

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

    def test_custom_force_limit_is_exact_for_a_rate_quadratic_in_I(self):
        # q(d) = F(S, d)/d reads beta*S*(1 + 0.05*d), 5e-10 high; the
        # extrapolate 2*q(d/2) - q(d) cancels that, so the limit is beta*S
        # to rounding, on floats and on arrays alike
        eps = np.finfo(float).eps
        beta = 2e-4
        rising = IncidenceSpec.custom(lambda S, I: beta * S * I * (1.0 + 0.05 * I))
        for S in (1.0, 50.0, 950.0, 1e4):
            assert rising.force(S, 0.0) == pytest.approx(beta * S, rel=4.0 * eps, abs=0.0)
        S = np.array([1.0, 50.0, 950.0])
        assert rising.force(S, 0.0).tolist() == [rising.force(s, 0.0) for s in S.tolist()]

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

    @pytest.mark.parametrize(
        "inc",
        [
            IncidenceSpec.bilinear(2e-4),
            IncidenceSpec.saturated_s(2e-4, 0.9),
            IncidenceSpec.saturated_i2(3e-5, 0.7),
        ],
        ids=["bilinear", "saturated_s", "saturated_i2"],
    )
    def test_partials_match_sympy_on_log_grid(self, inc):
        # sympy's diff of the family's rate text, evaluated with 40 digits.
        # Bound: a few ulps of the sum of |term| of the derivative. The
        # complex step keeps the quotient rule's cancellation: for
        # saturated_s, dF/dS = b*I/(1 + z*S) - b*z*S*I/(1 + z*S)**2 has the
        # term sum (1 + 2*z*S)*dF/dS, so its relative error may grow like
        # eps*z*S: it reads up to 1.7e-12 here, at z*S near 1e4.
        S, I, b, z = sp.symbols("S I b z")
        names = {"S": S, "I": I, "b": b, "z": z}
        partials = text_derivatives([incidence._RATE_TEXTS[inc.family]], (S, I), (S, I, b, z), names)
        eps = np.finfo(float).eps
        grid = _log_grid(1e-2, 1e4)
        with mpmath.workdps(40):
            for s in grid:
                for i in grid:
                    exact, scale = partials(*map(mpmath.mpf, (s, i, inc.beta, inc.zeta)))
                    for k, computed in enumerate((inc.d_rate_dS(s, i), inc.d_rate_dI(s, i))):
                        error = abs(mpmath.mpf(computed) - exact[0, k])
                        assert error <= 4.0 * eps * scale[0, k], (k, s, i)

    @pytest.mark.parametrize("family", incidence.BUILT_IN_FAMILIES)
    def test_float32_inputs_give_the_float64_partials(self, family):
        # the complex step is complex128 for every input: in complex64 the
        # step 2**-600 would underflow to 0
        inc = IncidenceSpec(family, 2e-4, 0.0 if family == "bilinear" else 0.9)
        S32, I32 = np.geomspace(1e-2, 1e4, 9, dtype=np.float32), np.geomspace(1e4, 1e-2, 9, dtype=np.float32)
        S64, I64 = S32.astype(float), I32.astype(float)
        for partial in (inc.d_rate_dS, inc.d_rate_dI):
            assert partial(S32, I32).tolist() == partial(S64, I64).tolist()
            for s, i, s64, i64 in zip(S32, I32, S64, I64):
                assert partial(s, i) == partial(s64, i64) == partial(float(s64), float(i64)) != 0.0

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
            for I in (0.0, 1e-9, 0.5, 50.0, 5000.0):
                assert custom.d_rate_dS(S, I) == pytest.approx(exact.d_rate_dS(S, I), rel=1e-6)
                assert custom.d_rate_dI(S, I) == pytest.approx(exact.d_rate_dI(S, I), rel=1e-6)

    def test_custom_partials_never_probe_a_negative_argument(self):
        # below the step h the central stencil would reach under 0; arrays
        # mixing such points with others give each its scalar value
        probed = []

        def rate(S, I):
            probed.append(min(np.min(S), np.min(I)))
            return 2e-4 * S * I / (1.0 + 0.9 * S)

        custom = IncidenceSpec.custom(rate)
        x = np.array([0.0, 1e-9, 1e-8, 0.5, 50.0])
        assert custom.d_rate_dI(50.0, x).tolist() == [custom.d_rate_dI(50.0, v) for v in x]
        assert custom.d_rate_dS(x, 50.0).tolist() == [custom.d_rate_dS(v, 50.0) for v in x]
        assert min(probed) == 0.0

    def test_rate_refusing_negative_infectives_still_analyzes(self):
        # thresholds, the equilibrium solve and every classification of 6.1
        # take the strain-1 partial at I1 = 0 without probing I1 < 0
        sc = build_scenario("6.1")
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
        probed = []

        def refuses_negative_infectives(S, I):
            probed.append(np.min(I, initial=np.inf))
            if np.any(np.asarray(I) < 0.0):
                raise DomainError("negative infectives")
            return inc1.rate(S, I)

        custom = IncidenceSpec.custom(refuses_negative_infectives)
        th, th_ref = thresholds(p, custom, inc2), thresholds(p, inc1, inc2)
        assert th.R1 == pytest.approx(th_ref.R1, rel=1e-9)
        eqs, eqs_ref = solve_all(p, custom, inc2), solve_all(p, inc1, inc2)
        assert [eq.kind for eq in eqs.all] == [eq.kind for eq in eqs_ref.all]
        for eq, ref in zip(eqs.all, eqs_ref.all):
            report, expected = classify(p, custom, inc2, eq), classify(p, inc1, inc2, ref)
            assert np.allclose(report.eigenvalues, expected.eigenvalues, rtol=1e-9, atol=0.0)
            assert (report.verdict, report.eigen_verdict) == (expected.verdict, expected.eigen_verdict)
        assert probed and min(probed) >= 0.0

    def test_rate_refusing_complex_input_analyzes(self):
        # a custom rate enters the Jacobian by its linearisation, so its
        # evaluator never sees the complex step
        sc = build_scenario("6.1")
        p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2

        def refuses_complex_input(S, I):
            if np.iscomplexobj(S) or np.iscomplexobj(I):
                raise TypeError("complex input")
            return inc1.rate(S, I)

        custom = IncidenceSpec.custom(refuses_complex_input)
        eqs = solve_all(p, custom, inc2)
        assert [eq.kind for eq in eqs.all] == [eq.kind for eq in solve_all(p, inc1, inc2).all]
        for eq in eqs.all:
            J, expected = jacobian(p, custom, inc2, eq.point), jacobian(p, inc1, inc2, eq.point)
            assert np.allclose(J, expected, rtol=1e-6, atol=1e-9)
            report, reference = classify(p, custom, inc2, eq), classify(p, inc1, inc2, eq)
            assert (report.verdict, report.eigen_verdict) == (reference.verdict, reference.eigen_verdict)
            assert report.conditions == reference.conditions

    def test_custom_rate_with_exact_partials_gives_the_built_in_jacobian(self):
        # saturated_s's text as a custom rate with its partials written out:
        # the linearisation reproduces the complex step of the text to a few
        # ulps of each row's absolute sum
        beta, zeta = 2e-4, 0.9
        builtin = IncidenceSpec.saturated_s(beta, zeta)
        text = eval("lambda S, I: " + incidence._RATE_TEXTS["saturated_s"], {"b": beta, "z": zeta})
        custom = IncidenceSpec.custom(
            text,
            d_rate_dS=lambda S, I: beta * I / ((1.0 + zeta * S) * (1.0 + zeta * S)),
            d_rate_dI=lambda S, I: beta * S / (1.0 + zeta * S),
        )
        sc = build_scenario("6.1")
        p, inc1 = sc.params, sc.incidence1
        eps = np.finfo(float).eps
        rng = np.random.default_rng(16)
        for x in [eq.point.as_array() for eq in solve_all(p, inc1, builtin).all] + list(
            rng.uniform(1.0, 5000.0, size=(20, 4))
        ):
            for incs in ((inc1, custom, inc1, builtin), (custom, inc1, builtin, inc1)):
                J, expected = jacobian(p, incs[0], incs[1], x), jacobian(p, incs[2], incs[3], x)
                rows = np.abs(expected).sum(axis=1, keepdims=True)
                assert np.all(np.abs(J - expected) <= 4.0 * eps * rows), x


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

    @pytest.mark.parametrize("bound", [0.0, -1.0, np.inf, np.nan])
    def test_refuses_a_bound_not_finite_and_positive(self, bound):
        inc = IncidenceSpec.bilinear(2e-4)
        for S_max, I_max, name in ((bound, 1e3, "S_max"), (1e3, bound, "I_max")):
            with pytest.raises(ValueError, match="invalid hypothesis-check bounds: %s$" % name):
                inc.check_hypotheses(S_max, I_max)

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

    # each custom rate below breaks one hypothesis on the 11 x 11 lattice of
    # [0, 10]^2, whose S and I axes are the integers 0..10
    def _report(self, rate_fn):
        return IncidenceSpec.custom(rate_fn, label="probe").check_hypotheses(10.0, 10.0, n_grid=11)

    @pytest.mark.parametrize(
        "rate_fn, first",
        [(lambda S, I: S * I + S, (1.0, 0.0)), (lambda S, I: S * I + I, (0.0, 1.0))],
        ids=["S axis", "I axis"],
    )
    def test_rate_off_an_axis_fails_boundary_zero(self, rate_fn, first):
        check = self._report(rate_fn).checks["boundary_zero"]
        assert not check.passed and check.first_violation == first

    def test_force_falling_in_S_fails_monotone(self):
        # f = S/(1 + S^2) falls from S = 1 to S = 2
        report = self._report(lambda S, I: S * I / (1.0 + S * S))
        check = report.checks["force_monotone"]
        assert not check.passed and check.first_violation == (2.0, 0.0)
        assert check.strict is False
        assert [name for name, c in report.checks.items() if not c.passed] == ["force_monotone"]

    def test_force_rising_in_I_fails_monotone(self):
        # f = S*(1 + I) rises from I = 0 to I = 1 at the first interior S
        report = self._report(lambda S, I: S * I * (1.0 + I))
        check = report.checks["force_monotone"]
        assert not check.passed and check.first_violation == (1.0, 1.0)
        assert check.strict is True
        assert [name for name, c in report.checks.items() if not c.passed] == ["force_monotone"]

    def test_vanishing_force_limit_fails_limit_positive(self):
        # f(S, 0) = S*(5 - S) is 0 at S = 5 and negative beyond
        report = self._report(lambda S, I: S * I * (5.0 - S))
        check = report.checks["force_limit_positive"]
        assert not check.passed and check.first_violation == (5.0, 0.0)
        assert report.checks["force_monotone"].first_violation == (4.0, 0.0)
        assert report.checks["boundary_zero"].passed and report.checks["contact_factorization"].passed

    def test_force_limit_vanishing_like_I_fails_limit_positive(self):
        # f = S*I tends to 0 at I = 0, while its probe quotient reads S*1e-8
        report = self._report(lambda S, I: S * I * I)
        check = report.checks["force_limit_positive"]
        assert not check.passed and check.first_violation == (1.0, 0.0)

    def test_unsupported_force_limit_fails_every_force_check(self):
        # F = S*sqrt(I) has no finite force limit at I = 0: the force-based
        # checks fail with the error as their detail, boundary_zero still runs
        report = self._report(lambda S, I: S * np.sqrt(I))
        detail = "force limit at I=0 did not stabilize under step halving for custom rate 'probe'"
        assert report.checks["boundary_zero"].passed
        for name in ("force_monotone", "force_limit_positive", "contact_factorization"):
            check = report.checks[name]
            assert (check.passed, check.first_violation, check.strict, check.detail) == (False, None, None, detail)
        assert not report.all_pass

    def test_grid_arguments_validated(self):
        inc = IncidenceSpec.bilinear(2e-4)
        with pytest.raises(ValueError):
            inc.check_hypotheses(-1.0, 10.0)
        with pytest.raises(ValueError):
            inc.check_hypotheses(10.0, 10.0, n_grid=4)

    @pytest.mark.parametrize("n_grid", [7, 10.5, 8.0, True, None])
    def test_refuses_a_grid_size_not_an_integer_at_least_eight(self, n_grid):
        # a float size used to fail inside np.linspace with a TypeError
        with pytest.raises(ValueError, match="n_grid must be an integer >= 8, not %r" % (n_grid,)):
            IncidenceSpec.bilinear(2e-4).check_hypotheses(1e3, 1e3, n_grid=n_grid)

    def test_a_numpy_integer_grid_size_is_a_size(self):
        inc = IncidenceSpec.saturated_s(2e-4, 0.9)
        report = inc.check_hypotheses(1e3, 1e3, n_grid=np.int64(10))
        assert report == inc.check_hypotheses(1e3, 1e3, n_grid=10)
        assert report.n_grid == 10


class TestSusceptible:
    # (spec, I, target, c) with the sign of saturated_s's linear coefficient
    # b + c - target*zeta noted; c = 0 is a row with r = 0 or k = 0
    CASES = [
        (IncidenceSpec.bilinear(2e-4), 50.0, 0.11, 1e-5),
        (IncidenceSpec.bilinear(2e-4), 50.0, 0.11, 0.0),
        (IncidenceSpec.saturated_i2(3e-4, 0.7), 0.5, 0.21, 1e-5),
        (IncidenceSpec.saturated_i2(3e-4, 0.7), 0.5, 0.21, 0.0),
        (IncidenceSpec.saturated_i2(3e-4, 0.7), 0.0, 0.21, 1e-5),
        (IncidenceSpec.saturated_s(2e-4, 1e-3), 50.0, 0.1, 1e-5),  # positive
        (IncidenceSpec.saturated_s(2e-4, 1e-3), 50.0, 0.1, 0.0),  # positive
        (IncidenceSpec.saturated_s(2e-4, 1e-2), 50.0, 0.21, 1e-4),  # negative
        (IncidenceSpec.saturated_s(2e-4, 1e-2), 50.0, 0.21, 2e-7),  # negative
        (IncidenceSpec.saturated_s(2e-4, 1e-2), 50.0, 0.0201, 1e-9),  # negative, near 0
    ]

    @pytest.mark.parametrize("inc, I, target, c", CASES)
    def test_closed_form_matches_brentq(self, inc, I, target, c):
        optimize = pytest.importorskip("scipy.optimize")

        def g(S):
            return inc.force(S, I) + c * S - target

        hi = 1.0
        while g(hi) <= 0.0:
            hi *= 2.0
        expected = optimize.brentq(g, 0.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
        S = inc.bound_forms().susceptible(I, target, c)
        assert S == pytest.approx(expected, rel=1e-13, abs=0.0)
        # an array of entries gives each its scalar value, bit for bit
        many = inc.bound_forms().susceptible(np.full((3, 2), I), target, np.full((3, 2), c))
        assert many.shape == (3, 2) and np.all(many == S)

    @pytest.mark.parametrize(
        "inc, I, target, c",
        CASES
        + [
            (IncidenceSpec.saturated_s(0.25, 0.5), 50.0, 0.75, 0.0),  # c*zeta = 0 with lin < 0: no root
            (IncidenceSpec.saturated_s(0.25, 0.5), 50.0, 0.5, 0.0),  # lin = 0 with c*zeta = 0: no root
        ],
    )
    def test_a_float_gives_a_float_with_the_bits_of_its_array_entry(self, inc, I, target, c):
        # the float form takes only its branch, so no root is inf as on arrays
        susceptible = inc.bound_forms().susceptible
        S = susceptible(I, target, c)
        assert type(S) is float
        assert np.array([S]).tobytes() == susceptible(np.array([I]), target, np.array([c])).tobytes()

    @pytest.mark.parametrize("target", [0.5, 0.75, 4.0])
    def test_saturated_s_has_no_root_past_its_saturation(self, target):
        # with c = 0 the force stays below beta/zeta = 0.5 for every S; at
        # target 0.5 the linear coefficient is exactly 0
        S = IncidenceSpec.saturated_s(0.25, 0.5).bound_forms().susceptible(50.0, target, 0.0)
        assert S == np.inf

    def test_custom_spec_has_none(self):
        assert IncidenceSpec.custom(lambda S, I: S * I).bound_forms().susceptible is None
