"""Scenario files: a flat, human-editable description of one model setup.

Sections are [params], [incidence1], [incidence2], [initial], [integrator]
and [outputs]. The last three are optional. Validation collects every
offending key before raising, so a bad file is reported in one pass, and
serialization uses repr precision so a parse/serialize round trip is
bit-identical.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import ConfigError
from .incidence import BUILT_IN_FAMILIES as _FAMILIES, IncidenceSpec
from .model import PARAM_NAMES, ModelParams, State
from .simulate import IntegratorOptions

_INITIAL_KEYS = ("S", "V1", "I1", "I2")
_INTEGRATOR_KEYS = ("rtol", "atol", "max_step", "t_end", "convergence_tol", "tail_window")
_ARTIFACTS = ("report", "timeseries", "surface")
_DEFAULT_INITIAL = State(500.0, 500.0, 50.0, 50.0)
_DEFAULT_ARTIFACTS = ("report", "timeseries")


@dataclass(frozen=True)
class Scenario:
    """A fully validated model setup ready to analyze or simulate."""

    params: ModelParams
    incidence1: IncidenceSpec
    incidence2: IncidenceSpec
    initial: State = _DEFAULT_INITIAL
    integrator: IntegratorOptions = IntegratorOptions()
    outputs: Tuple[str, ...] = _DEFAULT_ARTIFACTS


def _fail(errors: List[str]) -> None:
    exc = ConfigError("invalid scenario:\n  " + "\n  ".join(errors))
    exc.errors = tuple(errors)
    raise exc


def _parse_float(section: Dict[str, str], sec_name: str, key: str, errors: List[str],
                 allow_inf: bool = False) -> Optional[float]:
    raw = section.pop(key, None)
    if raw is None:
        errors.append("%s.%s: missing required key" % (sec_name, key))
        return None
    try:
        value = float(raw)
    except ValueError:
        errors.append("%s.%s: not a number: %r" % (sec_name, key, raw))
        return None
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        errors.append("%s.%s: must be finite, got %r" % (sec_name, key, raw))
        return None
    return value


def _reject_unknown(section: Dict[str, str], sec_name: str, errors: List[str]) -> None:
    for key in section:
        errors.append("%s.%s: unknown key" % (sec_name, key))


def _parse_incidence(section: Dict[str, str], sec_name: str, errors: List[str]):
    family = section.pop("family", None)
    if family is None or family not in _FAMILIES:
        if family is None:
            errors.append("%s.family: missing required key" % sec_name)
        else:
            errors.append(
                "%s.family: unknown family %r (choose from %s)"
                % (sec_name, family, ", ".join(_FAMILIES))
            )
        # beta/zeta cannot be judged without a family; only flag true strays
        section.pop("beta", None)
        section.pop("zeta", None)
        _reject_unknown(section, sec_name, errors)
        return None
    beta = _parse_float(section, sec_name, "beta", errors)
    zeta = 0.0
    if family == "bilinear":
        if "zeta" in section:
            raw = section["zeta"]
            if _parse_float(section, sec_name, "zeta", []) != 0.0:  # one message for every reason
                errors.append("%s.zeta: bilinear incidence takes no zeta (got %r)" % (sec_name, raw))
    else:
        zeta = _parse_float(section, sec_name, "zeta", errors)
    _reject_unknown(section, sec_name, errors)
    if beta is None or zeta is None:
        return None
    try:
        return IncidenceSpec(family, beta, zeta, label=family)
    except ValueError as exc:
        errors.append("%s: %s" % (sec_name, exc))
        return None


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raise ConfigError listing every offending key."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # parameter names are case-sensitive
    errors: List[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        _fail(["file: %s" % exc.message.replace("\n", " ")])

    sections = {name: dict(parser[name]) for name in parser.sections()}
    for name in sections:
        if name not in ("params", "incidence1", "incidence2", "initial", "integrator", "outputs"):
            errors.append("%s: unknown section" % name)
    missing = [n for n in ("params", "incidence1", "incidence2") if n not in sections]
    errors.extend("%s: missing required section" % n for n in missing)
    if missing:
        _fail(errors)

    sec = sections["params"]
    values = {key: _parse_float(sec, "params", key, errors) for key in PARAM_NAMES}
    _reject_unknown(sec, "params", errors)
    params = None
    if all(v is not None for v in values.values()):
        try:
            params = ModelParams(**values)
        except ValueError as exc:
            errors.append("params: %s" % exc)

    inc1 = _parse_incidence(sections["incidence1"], "incidence1", errors)
    inc2 = _parse_incidence(sections["incidence2"], "incidence2", errors)

    initial = _DEFAULT_INITIAL
    if "initial" in sections:
        sec = sections["initial"]
        coords = {key: _parse_float(sec, "initial", key, errors) for key in _INITIAL_KEYS}
        recovered = None
        if "R" in sec:
            recovered = _parse_float(sec, "initial", "R", errors)
        _reject_unknown(sec, "initial", errors)
        if all(v is not None for v in coords.values()):
            bad = [key for key, v in coords.items() if v < 0.0]
            if recovered is not None and recovered < 0.0:
                bad.append("R")
            if bad:
                errors.extend("initial.%s: must be >= 0" % key for key in bad)
            else:
                initial = State(coords["S"], coords["V1"], coords["I1"], coords["I2"], recovered)

    integrator = IntegratorOptions()
    if "integrator" in sections:
        sec = sections["integrator"]
        overrides = {}
        for key in _INTEGRATOR_KEYS:
            if key in sec:
                value = _parse_float(sec, "integrator", key, errors, allow_inf=(key == "max_step"))
                if value is not None:
                    overrides[key] = value
        _reject_unknown(sec, "integrator", errors)
        try:
            integrator = IntegratorOptions(**overrides)
        except ValueError as exc:
            errors.append("integrator: %s" % exc)

    outputs = _DEFAULT_ARTIFACTS
    if "outputs" in sections:
        sec = sections["outputs"]
        raw = sec.pop("artifacts", None)
        _reject_unknown(sec, "outputs", errors)
        if raw is not None:
            names = tuple(part.strip() for part in raw.split(",") if part.strip())
            unknown = [n for n in names if n not in _ARTIFACTS]
            if unknown:
                errors.extend(
                    "outputs.artifacts: unknown artifact %r (choose from %s)"
                    % (n, ", ".join(_ARTIFACTS))
                    for n in unknown
                )
            elif not names:
                errors.append("outputs.artifacts: empty artifact list")
            else:
                outputs = names

    if errors or params is None or inc1 is None or inc2 is None:
        _fail(errors or ["scenario: incomplete"])
    return Scenario(params, inc1, inc2, initial, integrator, outputs)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read scenario file %s: %s" % (path, exc.strerror or exc)) from exc
    return parse_scenario(text)


def _emit_incidence(out: io.StringIO, name: str, inc: IncidenceSpec) -> None:
    out.write("[%s]\n" % name)
    out.write("family = %s\n" % inc.family)
    out.write("beta = %r\n" % inc.beta)
    if inc.family != "bilinear":
        out.write("zeta = %r\n" % inc.zeta)
    out.write("\n")


def serialize_scenario(sc: Scenario) -> str:
    """Render a scenario back to text. repr precision makes the round trip
    reproduce every float bit-for-bit."""
    if sc.incidence1.family not in _FAMILIES or sc.incidence2.family not in _FAMILIES:
        raise ConfigError("custom incidence is code-only and cannot be serialized")
    out = io.StringIO()
    out.write("[params]\n")
    for key in PARAM_NAMES:
        out.write("%s = %r\n" % (key, getattr(sc.params, key)))
    out.write("\n")
    _emit_incidence(out, "incidence1", sc.incidence1)
    _emit_incidence(out, "incidence2", sc.incidence2)
    out.write("[initial]\n")
    for key in _INITIAL_KEYS:
        out.write("%s = %r\n" % (key, getattr(sc.initial, key)))
    if sc.initial.R is not None:
        out.write("R = %r\n" % sc.initial.R)
    out.write("\n[integrator]\n")
    for key in _INTEGRATOR_KEYS:
        out.write("%s = %r\n" % (key, getattr(sc.integrator, key)))
    out.write("\n[outputs]\n")
    out.write("artifacts = %s\n" % ", ".join(sc.outputs))
    return out.getvalue()
