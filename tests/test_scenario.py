"""Scenario file parsing, validation, and bit-identical serialization."""

import dataclasses
import math

import pytest

from twostrain.benchmarks import build_scenario
from twostrain.errors import ConfigError
from twostrain.incidence import BUILT_IN_FAMILIES, IncidenceSpec
from twostrain.model import ModelParams, State
from twostrain.scenario import (
    Scenario,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from twostrain.simulate import IntegratorOptions

MINIMAL = """\
[params]
Lambda = 200.0
mu = 0.02
r = 0.1
k = 2e-5
gamma1 = 0.07
gamma2 = 0.09
v1 = 0.1
v2 = 0.1

[incidence1]
family = saturated_i2
beta = 3e-5
zeta = 0.7

[incidence2]
family = saturated_s
beta = 2e-4
zeta = 0.9
"""

FULL = MINIMAL + """
[initial]
S = 500.0
V1 = 500.0
I1 = 50.0
I2 = 50.0
R = 25.0

[integrator]
rtol = 1e-9
atol = 1e-11
max_step = inf
t_end = 2000.0
convergence_tol = 1e-7
tail_window = 250.0

[outputs]
artifacts = timeseries
"""


class TestParsing:
    def test_minimal_file_fills_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.params.Lambda == 200.0 and sc.params.k == 2e-5
        assert sc.incidence1.family == "saturated_i2"
        assert sc.incidence1.beta == 3e-5 and sc.incidence1.zeta == 0.7
        assert sc.incidence2.family == "saturated_s"
        assert sc.initial == State(500.0, 500.0, 50.0, 50.0)
        assert sc.integrator == IntegratorOptions()
        assert sc.outputs == ("report", "timeseries")

    def test_full_file_overrides_everything(self):
        sc = parse_scenario(FULL)
        assert sc.initial.R == 25.0
        assert sc.integrator.rtol == 1e-9
        assert sc.integrator.max_step == math.inf
        assert sc.integrator.t_end == 2000.0
        assert sc.outputs == ("timeseries",)

    def test_bilinear_accepts_only_zero_zeta(self):
        text = MINIMAL.replace("family = saturated_i2\nbeta = 3e-5\nzeta = 0.7",
                               "family = bilinear\nbeta = 2e-4\nzeta = 0.0")
        sc = parse_scenario(text)
        assert sc.incidence1.family == "bilinear" and sc.incidence1.zeta == 0.0

        text = MINIMAL.replace("family = saturated_i2\nbeta = 3e-5\nzeta = 0.7",
                               "family = bilinear\nbeta = 2e-4\nzeta = 0.3")
        with pytest.raises(ConfigError, match="bilinear incidence takes no zeta"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "raw, accepted",
        [
            ("0", True),
            ("0.0", True),
            ("0.00", True),
            ("0e0", True),
            ("-0.0", True),
            ("+0", True),
            ("0.3", False),
            ("1e-300", False),
            ("-1e-300", False),
            ("nan", False),
            ("inf", False),
            ("zero", False),
        ],
    )
    def test_bilinear_zeta_is_judged_by_its_value(self, raw, accepted):
        text = MINIMAL.replace("family = saturated_i2\nbeta = 3e-5\nzeta = 0.7",
                               "family = bilinear\nbeta = 2e-4\nzeta = %s" % raw)
        if accepted:
            sc = parse_scenario(text)
            assert sc.incidence1 == IncidenceSpec.bilinear(2e-4)
            assert math.copysign(1.0, sc.incidence1.zeta) == 1.0
        else:
            with pytest.raises(ConfigError) as info:
                parse_scenario(text)
            assert info.value.errors == ("incidence1.zeta: bilinear incidence takes no zeta (got %r)" % raw,)

    def test_scenario_is_frozen(self):
        sc = parse_scenario(MINIMAL)
        with pytest.raises(Exception):
            sc.outputs = ()

    def test_load_scenario_reads_files(self, tmp_path):
        path = tmp_path / "setup.ini"
        path.write_text(FULL, encoding="utf-8")
        assert load_scenario(str(path)) == parse_scenario(FULL)


class TestValidation:
    def test_every_fault_reported_in_one_pass(self):
        text = """\
[params]
Lambda = 200.0
r = 0.1
k = abc
gamma1 = 0.07
gamma2 = 0.09
v1 = 0.1
v2 = 0.1
extra = 3.0

[incidence1]
family = quadratic
beta = 3e-5

[incidence2]
family = saturated_s
beta = 2e-4

[initial]
S = 500.0
V1 = 500.0
I1 = -50.0
I2 = 50.0

[integrator]
rtol = -1e-9
spacing = 0.5

[outputs]
artifacts = report, plots, surface

[plotting]
dpi = 100
"""
        with pytest.raises(ConfigError) as info:
            parse_scenario(text)
        errors = info.value.errors
        assert "params.mu: missing required key" in errors
        assert "params.k: not a number: 'abc'" in errors
        assert "params.extra: unknown key" in errors
        assert any(e.startswith("incidence1.family: unknown family 'quadratic'") for e in errors)
        assert "incidence2.zeta: missing required key" in errors
        assert "initial.I1: must be >= 0" in errors
        assert "integrator: invalid integrator options: rtol" in errors
        assert "integrator.spacing: unknown key" in errors
        assert any(e.startswith("outputs.artifacts: unknown artifact 'plots'") for e in errors)
        # check-global writes surface.csv whatever the list says
        assert "outputs.artifacts: unknown artifact 'surface' (choose from report, timeseries)" in errors
        assert "plotting: unknown section" in errors
        assert len(errors) == 11

    def test_missing_required_section_short_circuits(self):
        text = MINIMAL.split("[incidence2]")[0]
        with pytest.raises(ConfigError) as info:
            parse_scenario(text)
        assert info.value.errors == ("incidence2: missing required section",)

    def test_duplicate_key_is_a_file_error(self):
        text = MINIMAL.replace("mu = 0.02", "mu = 0.02\nmu = 0.03")
        with pytest.raises(ConfigError, match="file: "):
            parse_scenario(text)

    def test_nan_rejected_and_inf_only_for_max_step(self):
        text = MINIMAL.replace("mu = 0.02", "mu = nan")
        with pytest.raises(ConfigError, match="params.mu: must be finite"):
            parse_scenario(text)
        text = FULL.replace("t_end = 2000.0", "t_end = inf")
        with pytest.raises(ConfigError, match="integrator.t_end: must be finite"):
            parse_scenario(text)

    def test_incomplete_initial_section_reports_missing_coordinates(self):
        text = MINIMAL + "\n[initial]\nS = 500.0\nV1 = 500.0\n"
        with pytest.raises(ConfigError) as info:
            parse_scenario(text)
        assert "initial.I1: missing required key" in info.value.errors
        assert "initial.I2: missing required key" in info.value.errors

    def test_empty_artifact_list_rejected(self):
        text = MINIMAL + "\n[outputs]\nartifacts = ,\n"
        with pytest.raises(ConfigError, match="empty artifact list"):
            parse_scenario(text)

    def test_parameter_validation_propagates(self):
        text = MINIMAL.replace("Lambda = 200.0", "Lambda = -5.0")
        with pytest.raises(ConfigError, match="params: "):
            parse_scenario(text)

    def test_every_bad_coefficient_reported_in_one_pass(self):
        text = MINIMAL.replace("beta = 3e-5\nzeta = 0.7", "beta = -1\nzeta = -1")
        with pytest.raises(ConfigError) as info:
            parse_scenario(text)
        assert info.value.errors == ("incidence1: invalid incidence coefficients: beta, zeta",)


class TestSerialization:
    def test_round_trip_is_bit_identical(self):
        # awkward floats stress the repr precision guarantee
        sc = Scenario(
            params=ModelParams(
                Lambda=200.0 / 3.0,
                mu=0.02,
                r=0.1,
                k=2e-5,
                gamma1=1.0 / 7.0,
                gamma2=0.09,
                v1=0.1,
                v2=0.1,
            ),
            incidence1=IncidenceSpec.saturated_i2(3.33e-5, 0.7),
            incidence2=IncidenceSpec.saturated_s(2e-4 / 3.0, 0.9),
            initial=State(500.1, 499.9, 50.0, 50.0, 12.5),
            integrator=IntegratorOptions(rtol=1e-9, t_end=1234.5),
        )
        text = serialize_scenario(sc)
        again = parse_scenario(text)
        assert again == sc
        assert serialize_scenario(again) == text

    def test_parse_serialize_parse_round_trip(self):
        sc = parse_scenario(FULL)
        assert parse_scenario(serialize_scenario(sc)) == sc

    @pytest.mark.parametrize("family", BUILT_IN_FAMILIES)
    def test_round_trip_of_each_family(self, family):
        zeta = 0.0 if family == "bilinear" else 0.7 / 3.0
        inc = IncidenceSpec(family, 2e-4 / 3.0, zeta, label=family)
        sc = parse_scenario(MINIMAL)
        for field in ("incidence1", "incidence2"):
            other = dataclasses.replace(sc, **{field: inc})
            assert parse_scenario(serialize_scenario(other)) == other

    def test_bilinear_serializes_without_zeta(self):
        sc = parse_scenario(MINIMAL.replace(
            "family = saturated_i2\nbeta = 3e-5\nzeta = 0.7",
            "family = bilinear\nbeta = 2e-4",
        ))
        text = serialize_scenario(sc)
        block = text.split("[incidence1]")[1].split("[incidence2]")[0]
        assert "zeta" not in block
        assert parse_scenario(text) == sc

    def test_custom_incidence_cannot_be_serialized(self):
        sc = parse_scenario(MINIMAL)
        custom = IncidenceSpec.custom(lambda S, I: 1e-4 * S * I)
        broken = Scenario(sc.params, custom, sc.incidence2)
        with pytest.raises(ConfigError, match="code-only"):
            serialize_scenario(broken)

    def test_sample_times_cannot_be_serialized(self):
        # the scenario file has no sample_times key, so the round trip would
        # drop it
        sc = build_scenario("6.4")
        sampled = dataclasses.replace(sc, integrator=IntegratorOptions(sample_times=(1.0, 2.0)))
        with pytest.raises(ConfigError, match="sample_times"):
            serialize_scenario(sampled)
        assert parse_scenario(serialize_scenario(sc)) == sc
