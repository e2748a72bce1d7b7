"""Command-line verbs, artifact files, and exit codes."""

import csv
import io
import sys

import pytest

from twostrain import cli, stability
from twostrain.cli import main
from twostrain.equilibria import solve_strain2
from twostrain.errors import SolverError
from twostrain.incidence import IncidenceSpec
from twostrain.model import ModelParams
from twostrain.scenario import Scenario, load_scenario, serialize_scenario

BASE = dict(Lambda=200.0, mu=0.02, gamma1=0.07, gamma2=0.09, v1=0.1, v2=0.1, k=2e-5)


def make_scenario(r, inc1, inc2, **kwargs):
    return Scenario(ModelParams(r=r, **BASE), inc1, inc2, **kwargs)


@pytest.fixture
def write_scenario(tmp_path):
    def write(sc, name="scenario.ini"):
        path = tmp_path / name
        path.write_text(serialize_scenario(sc), encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def low_transmission_file(write_scenario):
    return write_scenario(
        make_scenario(
            0.1, IncidenceSpec.saturated_i2(3e-5, 0.7), IncidenceSpec.saturated_s(2e-4, 0.9)
        )
    )


@pytest.fixture
def strain1_file(write_scenario):
    return write_scenario(
        make_scenario(
            0.1, IncidenceSpec.bilinear(2e-4), IncidenceSpec.saturated_s(2e-4, 0.9)
        )
    )


@pytest.fixture
def strain2_file(write_scenario):
    return write_scenario(
        make_scenario(
            0.1, IncidenceSpec.saturated_i2(3e-5, 0.7), IncidenceSpec.saturated_s(2e-4, 0.001)
        )
    )


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestAnalyze:
    def test_writes_report_and_prints_verdicts(self, low_transmission_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["analyze", "--scenario", low_transmission_file, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "E0 globally asymptotically stable" in stdout
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert "== verdicts ==" in report
        assert "R1 = 0.2631578947" in report

    def test_csv_format_keeps_stdout_to_artifacts(self, low_transmission_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "analyze", "--scenario", low_transmission_file,
            "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "== verdicts ==" not in stdout
        assert "wrote" in stdout and "report.txt" in stdout


class TestSimulate:
    def test_timeseries_tail_matches_the_attractor(self, strain1_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", strain1_file, "--out", str(out)])
        assert code == 0
        header, rows = read_csv(str(out / "timeseries.csv"))
        assert header == ["t", "S", "V1", "I1", "I2"]
        last = [float(v) for v in rows[-1]]
        assert last[1] == pytest.approx(950.0, rel=1e-3)
        assert last[2] == pytest.approx(4750.0, rel=1e-3)
        assert last[3] == pytest.approx(452.6315789473683, rel=1e-3)
        assert last[4] == pytest.approx(0.0, abs=1e-6)
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert "converged_to (E1" in report
        assert "invariance: ok" in report
        stdout = capsys.readouterr().out
        assert "event" in stdout

    def test_t_end_override(self, strain1_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "simulate", "--scenario", strain1_file,
            "--out", str(out), "--t-end", "50",
        ])
        assert code == 0
        _, rows = read_csv(str(out / "timeseries.csv"))
        assert float(rows[-1][0]) == 50.0
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert "no convergence to a computed equilibrium was detected" in report

    def test_t_end_below_the_underflow_floor(self, strain1_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", strain1_file, "--out", str(out), "--t-end", "1e-300"])
        assert code == 0
        _, rows = read_csv(str(out / "timeseries.csv"))
        assert [float(row[0]) for row in rows] == [0.0, 1e-300]


class TestSweep:
    def test_table_written_with_existence_flags(self, strain2_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "sweep", "--scenario", strain2_file, "--out", str(out),
            "--key", "incidence2.beta", "--from", "2e-5", "--to", "2e-4", "--n", "6",
        ])
        assert code == 0
        header, rows = read_csv(str(out / "sweep.csv"))
        assert header == [
            "value", "R1", "R2", "R0", "R2_invasion", "R1_invasion",
            "E0_exists", "E1_exists", "E2_exists", "E3_exists",
            "E0_verdict", "E1_verdict", "E2_verdict", "E3_verdict",
        ]
        assert len(rows) == 6
        assert rows[0][8] == "0" and rows[-1][8] == "1"  # E2 appears
        assert rows[-1][12] in ("locally_stable", "unstable", "inconclusive")
        assert "sweep incidence2.beta" in capsys.readouterr().out

    def test_bad_key_is_a_config_error(self, strain2_file, tmp_path, capsys):
        code = main([
            "sweep", "--scenario", strain2_file, "--out", str(tmp_path / "out"),
            "--key", "alpha1", "--from", "0", "--to", "1", "--n", "3",
        ])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestCheckGlobal:
    def test_surface_artifact_and_scan_summary(self, strain2_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "check-global", "--scenario", strain2_file,
            "--out", str(out), "--grid", "40",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "strain2_lyapunov_scan" in stdout
        assert "nonpositive everywhere" in stdout
        header, rows = read_csv(str(out / "surface.csv"))
        assert header == ["S", "V1", "phi"]
        assert len(rows) == 40 * 40
        assert all(float(row[2]) <= 0.0 for row in rows)

    def test_surface_computed_once_and_written_as_scanned(
        self, strain2_file, tmp_path, capsys, monkeypatch
    ):
        # the file and the summary line must equal an independent rebuild
        # from the public grid and surface functions, byte for byte, and
        # the surface is evaluated once, by the scan behind the summary
        calls = []
        surface_fn = stability.strain2_lyapunov_surface

        def counted(*args):
            calls.append(args)
            return surface_fn(*args)

        # wherever the package holds a reference to it
        for name, module in list(sys.modules.items()):
            if name.startswith("twostrain") and hasattr(module, "strain2_lyapunov_surface"):
                monkeypatch.setattr(module, "strain2_lyapunov_surface", counted)
        out = tmp_path / "out"
        code = main([
            "check-global", "--scenario", strain2_file,
            "--out", str(out), "--grid", "40",
        ])
        assert code == 0
        assert len(calls) == 1

        sc = load_scenario(strain2_file)
        e2 = solve_strain2(sc.params, sc.incidence2)[0]
        S_values, V1_values = stability.lyapunov_scan_grid(sc.params, 40)
        surface = surface_fn(sc.params, sc.incidence2, e2, S_values, V1_values)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["S", "V1", "phi"])
        for i, S in enumerate(S_values):
            for j, V1 in enumerate(V1_values):
                writer.writerow([repr(float(S)), repr(float(V1)), repr(float(surface[i, j]))])
        with open(out / "surface.csv", newline="", encoding="utf-8") as fh:
            assert fh.read() == expected.getvalue()

        i, j = divmod(int(surface.argmax()), 40)
        assert capsys.readouterr().out.splitlines() == [
            "strain2_lyapunov_scan: max %.6e at (%.6g, %.6g) over 1600 points -> "
            "nonpositive everywhere" % (surface[i, j], S_values[i], V1_values[j]),
            "wrote %s" % (out / "surface.csv"),
        ]

    def test_csv_format_prints_only_the_written_file(self, strain2_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "check-global", "--scenario", strain2_file,
            "--out", str(out), "--grid", "20", "--format", "csv",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["wrote %s" % (out / "surface.csv")]
        assert len(read_csv(str(out / "surface.csv"))[1]) == 20 * 20

    def test_no_applicable_checks(self, low_transmission_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["check-global", "--scenario", low_transmission_file, "--out", str(out)])
        assert code == 0
        assert "no global checks apply" in capsys.readouterr().out
        assert not (out / "surface.csv").exists()


    @pytest.mark.parametrize("verb", ["analyze", "check-global"])
    def test_no_vaccination_runs_without_the_surface_scan(self, verb, write_scenario, tmp_path, capsys):
        # E2 exists with R1 <= 1 at r = 0, where the surface has no V1 range
        path = write_scenario(
            make_scenario(
                0.0, IncidenceSpec.saturated_i2(1e-6, 0.7), IncidenceSpec.saturated_s(2e-4, 1e-4)
            )
        )
        out = tmp_path / "out"
        assert main([verb, "--scenario", path, "--out", str(out), "--grid", "20"]) == 0
        text = capsys.readouterr().out
        if verb == "analyze":
            assert "note: E2 surface scan not run" in text
        else:
            assert "no global checks apply" in text
        assert not (out / "surface.csv").exists()


class TestReproduce:
    def test_single_example_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["reproduce", "6.1", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "[PASS]" in stdout and "[FAIL]" not in stdout
        assert "result:" in stdout
        assert (out / "report.txt").exists()

    def test_all_examples_pass(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["reproduce", "all", "--out", str(out)])
        assert code == 0
        report = (out / "report.txt").read_text(encoding="utf-8")
        for example_id in ("6.1", "6.2", "6.3", "6.4"):
            assert example_id in report
        assert "[FAIL]" not in report

    def test_unknown_example_rejected_by_the_parser(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["reproduce", "7.5", "--out", str(tmp_path)])
        assert info.value.code == 2


class TestExitCodes:
    def test_missing_scenario_file(self, tmp_path, capsys):
        code = main([
            "analyze", "--scenario", str(tmp_path / "absent.ini"), "--out", str(tmp_path)
        ])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_scenario_content(self, tmp_path, capsys):
        path = tmp_path / "broken.ini"
        path.write_text("[params]\nLambda = -1\n", encoding="utf-8")
        code = main(["analyze", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "missing required section" in err

    def test_solver_failure_maps_to_exit_3(self, low_transmission_file, tmp_path,
                                           capsys, monkeypatch):
        def boom(sc, grid=200, include_global=True):
            raise SolverError("synthetic failure")

        monkeypatch.setattr("twostrain.cli.analyze", boom)
        code = main(["analyze", "--scenario", low_transmission_file, "--out", str(tmp_path)])
        assert code == 3
        assert "solver error: synthetic failure" in capsys.readouterr().err

    def test_missing_verb_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


def run_main(argv, capsys):
    """main's exit code, whether it returns or the parser exits, and the
    lines written to stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err.splitlines()


class TestRefusedValues:
    """A value the library refuses exits with 2 and a one-line message, not
    with a traceback. The parser prints its usage above its message."""

    def check(self, argv, capsys, message):
        code, err = run_main(argv, capsys)
        assert code == 2
        assert [line for line in err if "error" in line] == [err[-1]]
        assert err[-1].startswith(message), err[-1]
        assert not any("Traceback" in line for line in err)
        return err

    @pytest.mark.parametrize("grid", ["0", "-2"])
    @pytest.mark.parametrize("verb", ["analyze", "check-global", "reproduce"])
    def test_grid_below_one(self, verb, grid, low_transmission_file, tmp_path, capsys):
        source = ["6.1"] if verb == "reproduce" else ["--scenario", low_transmission_file]
        self.check(
            [verb, *source, "--out", str(tmp_path), "--grid", grid], capsys,
            "twostrain %s: error: argument --grid: expected an integer >= 1, got %r" % (verb, grid),
        )

    @pytest.mark.parametrize("t_end", ["0", "-5", "inf", "nan"])
    def test_t_end_not_finite_and_positive(self, t_end, strain1_file, tmp_path, capsys):
        self.check(
            ["simulate", "--scenario", strain1_file, "--out", str(tmp_path), "--t-end", t_end], capsys,
            "twostrain simulate: error: argument --t-end: expected a finite number > 0, got %r" % t_end,
        )

    def test_sweep_to_a_negative_rate(self, strain2_file, tmp_path, capsys):
        err = self.check([
            "sweep", "--scenario", strain2_file, "--out", str(tmp_path),
            "--key", "r", "--from", "-0.1", "--to", "0.1", "--n", "3",
        ], capsys, "config error: sweep r = -0.1: ")
        assert err == ["config error: sweep r = -0.1: invalid model parameters: r"]

    def test_sweep_to_a_zero_coefficient(self, strain2_file, tmp_path, capsys):
        err = self.check([
            "sweep", "--scenario", strain2_file, "--out", str(tmp_path),
            "--key", "incidence2.beta", "--from", "0", "--to", "2e-4", "--n", "3",
        ], capsys, "config error: sweep incidence2.beta = 0.0: ")
        assert err == ["config error: sweep incidence2.beta = 0.0: beta must be finite and > 0"]

    def test_sweep_from_infinity(self, strain2_file, tmp_path, capsys):
        err = self.check([
            "sweep", "--scenario", strain2_file, "--out", str(tmp_path),
            "--key", "r", "--from", "inf", "--to", "0.1", "--n", "3",
        ], capsys, "config error: ")
        assert err == ["config error: sweep bounds must be finite, got inf and 0.1"]

    def test_out_under_a_file(self, low_transmission_file, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "x"
        err = self.check(
            ["analyze", "--scenario", low_transmission_file, "--out", str(out)], capsys,
            "config error: cannot write %s: " % (out / "report.txt"),
        )
        assert len(err) == 1

    @pytest.mark.parametrize(
        "verb, work, name",
        [
            ("analyze", "analyze", "report.txt"),
            ("simulate", "solve_all", "timeseries.csv"),
            ("sweep", "sweep", "sweep.csv"),
            ("check-global", "analyze", "surface.csv"),
            ("reproduce", "reproduce", "report.txt"),
        ],
    )
    def test_out_under_a_file_is_refused_before_the_run(
        self, verb, work, name, low_transmission_file, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, work, never)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "x"
        source = ["6.1"] if verb == "reproduce" else ["--scenario", low_transmission_file]
        sweep = ["--key", "r", "--from", "0.05", "--to", "0.1", "--n", "2"] if verb == "sweep" else []
        assert main([verb, *source, "--out", str(out), *sweep]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("config error: cannot write %s: " % (out / name)), line
