"""Whole-scenario analysis, report rendering, sweeps, and turning points."""

import dataclasses

import numpy as np
import pytest

from conftest import rising_rate, wavy_rate
from twostrain import analysis, equilibria
from twostrain.analysis import (
    analyze,
    apply_sweep_value,
    render_report,
    sweep,
    turning_point,
)
from twostrain.benchmarks import build_scenario, reproduce
from twostrain.errors import ConfigError
from twostrain.incidence import IncidenceSpec
from twostrain.model import ModelParams, thresholds
from twostrain.scenario import Scenario
from twostrain.simulate import IntegratorOptions
from twostrain.stability import GridScanSummary, Verdict, classify

BASE = dict(Lambda=200.0, mu=0.02, gamma1=0.07, gamma2=0.09, v1=0.1, v2=0.1, k=2e-5)


def make_scenario(r, inc1, inc2, **kwargs):
    return Scenario(ModelParams(r=r, **BASE), inc1, inc2, **kwargs)


def scenario_low_transmission():
    return make_scenario(
        0.1, IncidenceSpec.saturated_i2(3e-5, 0.7), IncidenceSpec.saturated_s(2e-4, 0.9)
    )


def scenario_strain1_dominant():
    return make_scenario(
        0.1, IncidenceSpec.bilinear(2e-4), IncidenceSpec.saturated_s(2e-4, 0.9)
    )


def scenario_strain2_dominant():
    return make_scenario(
        0.1, IncidenceSpec.saturated_i2(3e-5, 0.7), IncidenceSpec.saturated_s(2e-4, 0.001)
    )


def scenario_strain2_without_vaccination():
    return make_scenario(
        0.0, IncidenceSpec.saturated_i2(1e-6, 0.7), IncidenceSpec.saturated_s(2e-4, 1e-4)
    )


def scenario_coexistence():
    return make_scenario(
        0.01, IncidenceSpec.saturated_i2(2e-4, 1e-4), IncidenceSpec.saturated_s(2e-4, 1e-4)
    )


class TestAnalyze:
    def test_low_transmission_keeps_only_the_disease_free_state(self):
        report = analyze(scenario_low_transmission())
        assert [e.kind for e in report.equilibria] == ["E0"]
        assert [s.kind for s in report.stability] == ["E0"]
        assert report.global_checks == ()
        assert report.thresholds.R2_invasion is None
        assert report.thresholds.R1_invasion is None
        lines = report.verdict_lines
        assert lines[0] == (
            "E0 globally asymptotically stable: R0 = max(R1, R2) = 0.794708 < 1"
        )
        assert any(l.startswith("E1 absent: R1 = 0.263158") for l in lines)
        assert any(l.startswith("E2 absent: R2 = 0.794708") for l in lines)
        assert any(l.startswith("E3 absent or not found") for l in lines)

    def test_strain2_dominant_runs_the_surface_scan(self):
        report = analyze(scenario_strain2_dominant())
        assert [e.kind for e in report.equilibria] == ["E0", "E2"]
        names = [name for name, _ in report.global_checks]
        assert names == ["strain2_lyapunov_scan"]
        scan = report.global_checks[0][1]
        assert scan.nonpositive_everywhere
        assert scan.max_value == pytest.approx(-0.0005392623533035934, rel=1e-9)
        lines = report.verdict_lines
        assert any(l.startswith("E0 unstable: R2 = 1.38889 > 1") for l in lines)
        assert any(l.startswith("E2 locally asymptotically stable") for l in lines)
        assert any(l.startswith("E2 globally asymptotically stable") for l in lines)

    def test_coexistence_runs_the_tail_check(self):
        report = analyze(scenario_coexistence())
        assert [e.kind for e in report.equilibria] == ["E0", "E1", "E2", "E3"]
        names = [name for name, _ in report.global_checks]
        assert names == ["coexistence_tail_derivative"]
        scan = report.global_checks[0][1]
        assert scan.nonpositive_everywhere
        assert scan.max_value <= 0.0
        lines = report.verdict_lines
        assert any(l.startswith("E1 unstable") for l in lines)
        assert any(l.startswith("E2 unstable") for l in lines)
        assert any(l.startswith("E3 locally asymptotically stable") for l in lines)
        assert any(l.startswith("E3 consistent with global stability") for l in lines)

    def test_include_global_off_skips_the_scans(self):
        report = analyze(scenario_strain2_dominant(), include_global=False)
        assert report.global_checks == ()
        assert not any(
            l.startswith("E2 globally asymptotically stable") for l in report.verdict_lines
        )

    def test_grid_argument_sizes_the_scan(self):
        report = analyze(scenario_strain2_dominant(), grid=50)
        assert report.global_checks[0][1].n_points == 2500

    def test_no_vaccination_skips_the_surface_scan_with_a_note(self):
        # E2 exists with R1 <= 1, but r = 0 leaves V10 = 0 and no V1 range
        report = analyze(scenario_strain2_without_vaccination())
        assert [e.kind for e in report.equilibria] == ["E0", "E2"]
        assert report.thresholds.R1 <= 1.0
        assert report.global_checks == ()
        assert report.notes == (
            "E2 surface scan not run: r = 0 leaves no vaccinated class (V10 = 0)",
        )
        assert any(l.startswith("E2 locally asymptotically stable") for l in report.verdict_lines)
        assert not any(l.startswith("E2 global") for l in report.verdict_lines)
        assert "note: E2 surface scan not run" in render_report(report)

    def test_subnormal_r_skips_the_surface_scan_with_a_note_naming_r(self):
        # 1e-6*V10 underflows to 0 at the smallest subnormal r
        sc = scenario_strain2_without_vaccination()
        report = analyze(dataclasses.replace(sc, params=dataclasses.replace(sc.params, r=5e-324)))
        assert report.global_checks == ()
        assert report.notes == ("E2 surface scan not run: r = 5e-324 leaves no V1 range (1e-6*V10 = 0)",)
        assert not any(l.startswith("E2 global") for l in report.verdict_lines)

    def test_tiny_lambda_skips_the_surface_scan_with_a_note_naming_lambda(self):
        # S0 = Lambda/lam is about 2e-318 and 1e-6*S0 underflows to 0; a
        # large k lets strain 2 persist on the vaccinated class
        p = ModelParams(**dict(BASE, Lambda=2e-308, r=1e10, k=1e307))
        report = analyze(Scenario(p, IncidenceSpec.bilinear(2e-4), IncidenceSpec.saturated_s(2e-4, 0.001)))
        assert [e.kind for e in report.equilibria] == ["E0", "E2"]
        assert report.global_checks == ()
        assert report.notes == ("E2 surface scan not run: Lambda = 2e-308 leaves no S range (1e-6*S0 = 0)",)
        assert not any(l.startswith("E2 global") for l in report.verdict_lines)

    def test_a_larger_subnormal_r_still_runs_the_surface_scan(self):
        sc = scenario_strain2_without_vaccination()
        report = analyze(dataclasses.replace(sc, params=dataclasses.replace(sc.params, r=1e-322)), grid=8)
        assert [name for name, _ in report.global_checks] == ["strain2_lyapunov_scan"]
        assert report.notes == ()


    @pytest.mark.parametrize("grid", [0, -1, 2.5, None])
    def test_refuses_a_grid_not_an_integer_at_least_one_before_any_solve(self, grid, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before refusing the grid")

        monkeypatch.setattr(analysis, "solve_all", no_solve)
        with pytest.raises(ValueError, match="grid must be an integer >= 1"):
            analyze(build_scenario("6.3"), grid=grid)
        with pytest.raises(ValueError, match="grid must be an integer >= 1"):
            reproduce("6.3", grid=grid)


class TestFailedChecks:
    """The lines a failed solve or a failed global condition prints, reached
    through the public path with the failing piece patched in."""

    POSITIVE = GridScanSummary(0.5, (1000.0, 2000.0), 4, False)

    def test_failed_coexistence_solve(self, monkeypatch):
        # psi undefined everywhere: 6.4's invasion numbers both exceed 1, so
        # finding no E3 root is an error, which analyze notes and sweep flags.
        # The message names the one bracket that monotone forces leave a
        # built-in balance: both ends of its range, the last stepped back
        # where it is NaN
        monkeypatch.setattr(equilibria, "_psi", lambda c, I2: np.full(np.shape(I2), np.nan))
        sc = build_scenario("6.4")
        report = analyze(sc)
        requires = "R2_invasion = 3.55597 > 1 and R1_invasion = 1.194 > 1"
        assert report.notes == (
            "coexistence solve failed: coexistence balance shows no sign change with I1 > 0 "
            "between its range ends (monotone forces allow one sign change) although " + requires,
        )
        assert [e.kind for e in report.equilibria] == ["E0", "E1", "E2"]
        assert "E3 absent or not found: requires " + requires in report.verdict_lines
        rows = sweep(sc, "r", 0.01, 0.02, 2)
        assert [row.verdicts["E3"] for row in rows] == ["solve failed"] * 2
        assert not any(row.exists["E3"] for row in rows)

    def test_failed_strain2_surface(self, monkeypatch):
        monkeypatch.setattr(analysis, "strain2_lyapunov_scan", lambda *args, **kwargs: self.POSITIVE)
        report = analyze(scenario_strain2_dominant())
        assert report.global_checks == (("strain2_lyapunov_scan", self.POSITIVE),)
        assert report.verdict_lines[-2] == (
            "E2 global condition fails: lyapunov surface reaches 5.000e-01 > 0 at S = 1000, V1 = 2000"
        )

    def test_failed_coexistence_derivative(self, monkeypatch):
        monkeypatch.setattr(analysis, "coexistence_lyapunov_scan", lambda *args: self.POSITIVE)
        report = analyze(scenario_coexistence())
        assert report.global_checks == (("coexistence_tail_derivative", self.POSITIVE),)
        assert report.verdict_lines[-1] == (
            "E3 global condition fails: lyapunov time derivative reaches 5.000e-01 > 0"
        )


class TestRenderReport:
    def test_sections_and_auditable_numbers(self):
        text = render_report(analyze(scenario_strain2_dominant()))
        for header in ("== scenario ==", "== thresholds ==", "== equilibria ==",
                       "== global checks ==", "== verdicts =="):
            assert header in text
        assert "R2 = 1.388888889" in text
        assert "incidence2: saturated_s(beta=0.0002, zeta=0.001)" in text
        assert "local verdict: locally_stable (eigensolver cross-check: locally_stable)" in text
        assert "condition R1_invasion < 1: yes" in text
        assert "nonpositive everywhere" in text
        assert text.endswith("\n")

    def test_low_transmission_report_has_no_global_section(self):
        text = render_report(analyze(scenario_low_transmission()))
        assert "== global checks ==" not in text
        assert "E0: S=1666.666667" in text
        assert "(residual 0.000e+00)" in text

    def test_failed_conditions_are_flagged_loudly(self):
        text = render_report(analyze(scenario_coexistence()))
        assert "condition R2_invasion < 1: NO" in text


class TestEveryRootItsOwnReport:
    """stability[i] is the report of equilibria[i], and each verdict line
    reads its kind's first root."""

    def wavy_strain2_report(self):
        # three E2 roots; R1_invasion is taken at the first, where strain 1 invades
        sc = Scenario(ModelParams(**dict(BASE, r=0.1, k=0.0)), IncidenceSpec.bilinear(2e-4), wavy_rate())
        return sc, analyze(sc)

    def test_reports_pair_with_equilibria_by_index(self):
        sc, report = self.wavy_strain2_report()
        assert [e.kind for e in report.equilibria] == ["E0", "E1", "E2", "E2", "E2", "E3", "E3"]
        assert [s.kind for s in report.stability] == [e.kind for e in report.equilibria]
        for eq, rep in zip(report.equilibria, report.stability):
            own = classify(sc.params, sc.incidence1, sc.incidence2, eq)
            np.testing.assert_array_equal(rep.eigenvalues, own.eigenvalues)
            assert rep.verdict is own.verdict and rep.notes == own.notes

    def test_each_e2_block_shows_its_own_eigenvalues(self):
        sc, report = self.wavy_strain2_report()
        lines = render_report(report).splitlines()
        shown = [
            next(l for l in lines[i:] if l.startswith("    eigenvalues: "))
            for i, line in enumerate(lines) if line.startswith("E2: ")
        ]
        expected = [
            "    eigenvalues: " + ", ".join("%.6g%+.6gj" % (z.real, z.imag) for z in rep.eigenvalues)
            for rep in report.stability if rep.kind == "E2"
        ]
        assert shown == expected and len(set(shown)) == 3

    def test_e2_verdict_line_reads_the_first_root(self):
        _, report = self.wavy_strain2_report()
        assert report.stability[2].verdict is Verdict.UNSTABLE
        assert report.stability[4].verdict is Verdict.LOCALLY_STABLE
        assert (
            "E2 unstable: violated condition(s) R1_invasion < 1 (R1_invasion = 1.38533)"
            in report.verdict_lines
        )
        assert not any(l.startswith("E2 locally") for l in report.verdict_lines)

    def test_e0_line_on_the_margin_is_inconclusive(self):
        # R1 = 1 exactly puts the eigenvalue alpha1*(R1 - 1) of E0 on zero
        params = ModelParams(**dict(BASE, r=0.0, k=0.0))
        sc = Scenario(params, IncidenceSpec.bilinear(1.9e-5), IncidenceSpec.bilinear(1e-6))
        report = analyze(sc)
        assert report.thresholds.R1 == 1.0
        assert report.stability[0].verdict is Verdict.INCONCLUSIVE
        assert report.verdict_lines[0] == (
            "E0 classification inconclusive: a tested quantity sits on the margin"
        )

    def test_e2_notes_say_the_predicted_uniqueness_fails(self):
        _, report = self.wavy_strain2_report()
        notes = [eq.multiplicity_note for eq in report.equilibria if eq.kind == "E2"]
        assert notes == [
            "discriminant -0.000504 < 0: unique positive root expected, which does not hold for "
            "this rate; found 3 root(s) at scan resolution 4096 (dF2/dS = %s, I2 = %s)" % values
            for values in (("0.031968", "200.343"), ("0.0517296", "286.883"), ("0.12", "476.19"))
        ]

    def test_multi_root_e1_is_noted(self):
        params = ModelParams(**dict(BASE, r=0.1, k=0.0, gamma1=0.09))
        report = analyze(Scenario(params, wavy_rate(), IncidenceSpec.bilinear(1e-6)))
        note = "strain-1 balance has 3 roots; invasion threshold reported at the smallest"
        assert report.notes == (note,)
        assert [eq.kind for eq in report.equilibria] == ["E0", "E1", "E1", "E1"]
        assert report.equilibria[1].point.I1 == pytest.approx(200.34306106, rel=1e-9)
        assert render_report(report).endswith("\nnote: %s\n" % note)


class TestBelowThreshold:
    """A custom rate can have E1 or E2 roots with R <= 1; E0 is then locally
    stable but not called globally stable, and each line states the
    comparison with 1 that holds."""

    def wavy(self):
        return Scenario(ModelParams(**dict(BASE, r=0.25, k=0.0)), IncidenceSpec.bilinear(2e-4), wavy_rate())

    def rising(self):
        sc = build_scenario("6.2")
        return dataclasses.replace(sc, incidence1=rising_rate(sc.params))

    @pytest.mark.parametrize(
        "case, kind, R0",
        [("wavy", "E2", "0.888889"), ("rising", "E1", "0.9")],
    )
    def test_e0_is_not_called_globally_stable(self, case, kind, R0):
        report = analyze(getattr(self, case)())
        assert [eq.kind for eq in report.equilibria] == ["E0", kind, kind]
        assert report.verdict_lines[0] == (
            "E0 locally asymptotically stable: R0 = max(R1, R2) = %s < 1; "
            "no global claim: other equilibria exist (%s)" % (R0, kind)
        )
        text = render_report(report)
        assert "globally asymptotically stable" not in text
        assert sum(line.startswith(kind + ": S=") for line in text.splitlines()) == 2
        # the E2 surface scan backs a global claim only where R2 > 1
        assert report.global_checks == ()

    def test_a_stable_root_below_the_threshold_states_r_at_most_one(self):
        sc = self.rising()
        report = analyze(sc)
        # the E1 line read at the locally stable second root alone
        e0, _, high = report.stability
        lines = analysis._verdict_lines(report.thresholds, (e0, high), {}, (sc.incidence1, sc.incidence2))
        assert lines[1].startswith(
            "E1 locally asymptotically stable: R1 = 0.9 <= 1, coefficient conditions positive"
        )
        assert analysis._compared("R2", 1.5) == "R2 = 1.5 > 1"

    def test_several_e2_roots_make_no_global_claim(self):
        # R1 = 0.263 <= 1 < R2 = 2 with three E2 roots, two of them locally
        # stable: no single root attracts every start with I2 > 0, so the E2
        # surface scan is not run and a note says why
        p = ModelParams(**dict(BASE, r=0.1, k=0.0))
        report = analyze(Scenario(p, IncidenceSpec.saturated_i2(3e-5, 0.7), wavy_rate()))
        e2 = [rep for rep in report.stability if rep.kind == "E2"]
        assert [rep.verdict for rep in e2] == [Verdict.LOCALLY_STABLE, Verdict.UNSTABLE, Verdict.LOCALLY_STABLE]
        assert report.thresholds.R1 <= 1.0 < report.thresholds.R2
        assert report.global_checks == ()
        assert "E2 surface scan not run: E2 has 3 roots, so none is globally stable" in report.notes
        assert "globally asymptotically stable" not in render_report(report)

    def test_an_absent_custom_kind_says_where_its_scan_looked(self):
        # 6.3's built-in strain-1 rate, wrapped as custom: the scan found no
        # root, and the line says so beside R1; the built-in line is unchanged
        sc = build_scenario("6.3")
        custom = dataclasses.replace(sc, incidence1=IncidenceSpec.custom(sc.incidence1.rate))
        line = "E1 absent: no root at scan resolution 4096 (R1 = 0.263158 <= 1)"
        assert line in analyze(custom).verdict_lines
        assert "E1 absent: R1 = 0.263158 <= 1" in analyze(sc).verdict_lines
        # E3 too, with n/a for the invasion number that no E1 root gives
        line = "E3 absent: no root at scan resolution 4096 (R2_invasion = n/a, R1_invasion = 0.208049 <= 1)"
        assert line in analyze(custom).verdict_lines
        line = "E3 absent or not found: requires R2_invasion = n/a > 1 and R1_invasion = 0.208049 > 1"
        assert line in analyze(sc).verdict_lines

    def test_an_absent_custom_e3_states_the_comparisons_that_hold(self):
        # the invasion numbers are no requirement for a custom rate: with the
        # rising strain-2 rate at R2 = 0.9 on 6.2 with k = 0, E3 exists at
        # R2_invasion = 0.513 <= 1; at R2 = 0.1 on 6.4 with k = 0 the scan
        # finds none, and the line gives each comparison with 1
        sc = build_scenario("6.2")
        p = dataclasses.replace(sc.params, k=0.0)
        report = analyze(dataclasses.replace(sc, params=p, incidence2=rising_rate(p, 0.9 * p.alpha2 / p.susceptible_cap)))
        assert report.thresholds.R2_invasion == pytest.approx(0.513, rel=1e-12)
        assert [e.kind for e in report.equilibria].count("E3") == 1
        sc = build_scenario("6.4")
        p = dataclasses.replace(sc.params, k=0.0)
        report = analyze(dataclasses.replace(sc, params=p, incidence2=rising_rate(p, 0.1 * p.alpha2 / p.susceptible_cap)))
        assert "E3" not in [e.kind for e in report.equilibria]
        line = "E3 absent: no root at scan resolution 4096 (R2_invasion = 0.0796484 <= 1, R1_invasion = 5.16117 > 1)"
        assert line in report.verdict_lines


class TestApplySweepValue:
    def test_bare_and_dotted_parameter_keys(self):
        sc = scenario_low_transmission()
        for key in ("r", "params.r"):
            out = apply_sweep_value(sc, key, 0.05)
            assert out.params.r == 0.05
            assert out.incidence1 is sc.incidence1
        assert sc.params.r == 0.1  # original untouched

    def test_incidence_coefficient_keys(self):
        sc = scenario_low_transmission()
        out = apply_sweep_value(sc, "incidence2.beta", 3e-4)
        assert out.incidence2.beta == 3e-4
        assert out.incidence2.zeta == sc.incidence2.zeta
        out = apply_sweep_value(sc, "incidence2.zeta", 0.5)
        assert out.incidence2 == IncidenceSpec.saturated_s(sc.incidence2.beta, 0.5)
        with pytest.raises(ValueError, match="beta"):
            apply_sweep_value(sc, "incidence2.beta", -1.0)
        custom = dataclasses.replace(sc, incidence1=IncidenceSpec.custom(lambda S, I: S * I))
        with pytest.raises(ConfigError, match="custom"):
            apply_sweep_value(custom, "incidence1.beta", 1e-4)

    def test_invalid_keys_rejected(self):
        sc = scenario_low_transmission()
        for key in ("alpha1", "params.alpha1", "initial.S", "beta", "incidence1.family"):
            with pytest.raises(ConfigError):
                apply_sweep_value(sc, key, 1.0)

    def test_bilinear_zeta_cannot_be_swept(self):
        sc = scenario_strain1_dominant()
        with pytest.raises(ConfigError, match="has no zeta"):
            apply_sweep_value(sc, "incidence1.zeta", 0.1)


class TestSweep:
    def test_threshold_rows_match_direct_evaluation(self):
        sc = scenario_low_transmission()
        rows = sweep(sc, "r", 0.0, 0.3, 7, classify=False)
        assert len(rows) == 7
        for row in rows:
            sci = apply_sweep_value(sc, "r", row.value)
            th = thresholds(sci.params, sci.incidence1, sci.incidence2)
            # bit for bit each row's own thresholds
            assert np.array([row.R1, row.R2, row.R0]).tobytes() == np.array([th.R1, th.R2, th.R0]).tobytes()
            assert all(type(x) is float for x in (row.R1, row.R2, row.R0))
            assert row.R2_invasion is None
            assert row.exists == {"E0": True, "E1": False, "E2": False, "E3": False}

    def test_classified_sweep_tracks_an_existence_transition(self):
        # raising beta2 pushes R2 through 1: E2 appears and E0 destabilizes
        sc = scenario_strain2_dominant()
        rows = sweep(sc, "incidence2.beta", 2e-5, 2e-4, 6)
        flags = [row.exists["E2"] for row in rows]
        assert flags[0] is False and flags[-1] is True
        assert flags == sorted(flags)  # single transition
        for row in rows:
            if row.exists["E2"]:
                assert row.R2 > 1.0
                assert row.verdicts["E2"] in ("locally_stable", "unstable", "inconclusive")
                assert row.verdicts["E0"] == "unstable"
            else:
                assert row.verdicts["E2"] == "absent"

    def test_coexistence_branch_classified_along_r(self):
        sc = scenario_coexistence()
        rows = sweep(sc, "r", 0.005, 0.02, 4)
        assert all(row.exists["E3"] for row in rows)
        assert all(row.verdicts["E3"] == "locally_stable" for row in rows)
        assert all(row.R2_invasion > 1.0 and row.R1_invasion > 1.0 for row in rows)

    def test_rows_do_not_depend_on_where_the_sweep_starts(self):
        # r = 0 (no vaccinated class) and the rows near r = 0.03 are solved
        # too, and slicing the grid into two-row sweeps changes nothing
        sc = build_scenario("6.4")
        rows = sweep(sc, "r", 0.0, 0.195, 40)
        assert not any(row.verdicts["E3"] == "solve failed" for row in rows)
        assert rows[0].exists["E3"]
        values = [row.value for row in rows]
        sliced = []
        for j in range(0, 40, 2):
            sliced.extend(sweep(sc, "r", values[j], values[j + 1], 2))
        assert sliced == rows

    def test_bad_inputs(self):
        sc = scenario_low_transmission()
        with pytest.raises(ConfigError):
            sweep(sc, "nope", 0.0, 1.0, 5)
        with pytest.raises(ConfigError):
            sweep(sc, "r", 0.0, 1.0, 1)

    @pytest.mark.parametrize("n", [1, 2.5, 3.0, True, None])
    def test_refuses_a_size_not_an_integer_at_least_two(self, n):
        # a float size used to fail inside np.linspace with a TypeError
        with pytest.raises(ConfigError, match="sweep n must be an integer >= 2, not %r" % (n,)):
            sweep(build_scenario("6.4"), "r", 0.0, 0.2, n)

    def test_a_numpy_integer_size_is_a_size(self):
        sc = build_scenario("6.4")
        assert sweep(sc, "r", 0.0, 0.2, np.int64(3), classify=False) == sweep(sc, "r", 0.0, 0.2, 3, classify=False)


class TestTurningPoint:
    def test_interior_maximum_found(self):
        xs = np.linspace(-2.0, 3.0, 101)
        ys = -((xs - 1.0) ** 2)
        idx, x = turning_point(xs, ys)
        assert ys[idx] == np.max(ys)
        assert x == pytest.approx(1.0, abs=xs[1] - xs[0])

    def test_boundary_maximum_returns_none(self):
        xs = np.linspace(0.0, 1.0, 20)
        assert turning_point(xs, xs**2) is None
        assert turning_point(xs, -xs) is None

    def test_input_validation(self):
        with pytest.raises(ValueError):
            turning_point([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            turning_point([0.0, 1.0, 2.0], [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        # np.argmax stops at the first NaN, which read as an interior maximum
        with pytest.raises(ValueError, match="finite"):
            turning_point([0.0, 1.0, 2.0, 3.0], [0.0, bad, 1.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            turning_point([0.0, bad, 2.0, 3.0], [0.0, 2.0, 1.0, 0.0])

    def test_vaccination_rate_maximizing_strain2_threshold(self):
        # with S-saturated strain-2 incidence the threshold first rises with
        # the vaccination rate (the k*V1 route grows) and then falls again;
        # the analytic argmax zeta2*Lambda*sqrt(k)/(sqrt(beta2) - sqrt(k)) - mu
        # must land within one grid cell of the sampled maximum
        sc = scenario_low_transmission()
        rows = sweep(sc, "r", 0.0, 150.0, 1000, classify=False)
        xs = np.array([row.value for row in rows])
        ys = np.array([row.R2 for row in rows])
        found = turning_point(xs, ys)
        assert found is not None
        _, r_hat = found
        p, inc2 = sc.params, sc.incidence2
        r_star = (
            inc2.zeta * p.Lambda * np.sqrt(p.k) / (np.sqrt(inc2.beta) - np.sqrt(p.k))
            - p.mu
        )
        assert r_star == pytest.approx(83.2255532033676, rel=1e-12)
        cell = xs[1] - xs[0]
        assert abs(r_hat - r_star) <= cell
