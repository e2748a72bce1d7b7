"""Built-in reproduction scenarios with embedded expected values.

Four benchmark setups, ids "6.1" through "6.4", shared parameter base
Lambda = 200, mu = 0.02, gamma1 = 0.07, gamma2 = 0.09, v1 = v2 = 0.1 and
k = 2e-5. Each example's inputs (r, incidence coefficients, attractor) are
its entry of ``_CASES``. Its expected values are rows keyed by the check
name the report prints, which ``_computed`` reads off the analysis report:
``_PUBLISHED`` holds the published reference values, and ``_CERTIFIED`` the
certified value (independent residual-checked solve) asserted where a
published number is inconsistent with the published balance equations;
that published number is kept in the report with a discrepancy note. The
verdict flags are written in ``reproduce``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .analysis import AnalysisReport, _first, analyze
from .errors import ConfigError
from .incidence import IncidenceSpec
from .model import RESIDUAL_TOL, ModelParams
from .scenario import Scenario
from .simulate import detect_convergence, integrate
from .stability import Verdict

EXAMPLE_IDS = ("6.1", "6.2", "6.3", "6.4")

_CASES = {
    "6.1": dict(r=0.1, beta1=3e-5, zeta1=0.7, beta2=2e-4, zeta2=0.9, attractor="E0"),
    "6.2": dict(r=0.1, beta1=2e-4, zeta1=0.0, beta2=2e-4, zeta2=0.9, attractor="E1"),
    "6.3": dict(r=0.1, beta1=3e-5, zeta1=0.7, beta2=2e-4, zeta2=0.001, attractor="E2"),
    "6.4": dict(r=0.01, beta1=2e-4, zeta1=1e-4, beta2=2e-4, zeta2=1e-4, attractor="E3"),
}

# published values, in report order: (check name, value, rel_tol)
_PUBLISHED = {
    "6.1": (("R1", 0.2632, 5e-3), ("R2", 0.7947, 5e-3), ("S0", 1667.0, 5e-3), ("V10", 8333.0, 5e-3)),
    "6.2": (("R1", 1.7544, 5e-3), ("R2", 0.7947, 5e-3), ("E1.S", 950.0, 1e-3)),
    "6.3": (("R1", 0.2632, 5e-3), ("R2", 1.3889, 5e-3),
            ("E2.S", 1314.0, 1.5e-2), ("E2.V1", 4814.0, 1.5e-2), ("E2.I2", 368.0, 1.5e-2)),
    "6.4": (("R1", 7.0175, 1e-2), ("R2", 4.1270, 1e-2),
            ("R2_invasion", 3.555, 1e-2), ("R1_invasion", 1.194, 1e-2),
            ("E1.S", 5310.0, 5e-3), ("E1.V1", 2655.0, 5e-3), ("E2.S", 1134.0, 5e-3),
            ("E3.S", 1133.0, 1.5e-2), ("E3.V1", 320.0, 1.5e-2),
            ("E3.I1", 44.0, 1.5e-2), ("E3.I2", 774.0, 1.5e-2)),
}

# where a published value fails its own balance equations: (check name,
# certified value, frozen, published text)
_CERTIFIED = {
    "6.2": (("E1.I1", 452.6315789473683, "253"), ("E1.V1", 4750.0, "4737")),
    "6.4": (
        ("E3.c1", 0.2592811352935187, "0.2501"),
        ("E3.c2", 0.044404900159116995, "0.0171"),
        ("E3.c3", 0.0029084972347433904, "3.4759e-04"),
        ("E3.c4", 5.853413767019629e-05, "3.4759x3.9242 10^{-06} (malformed)"),
    ),
}

# the check names of the params' derived caps
_CAPS = {"S0": "susceptible_cap", "V10": "vaccinated_cap"}


@dataclass(frozen=True)
class ValueCheck:
    """One numeric assertion. A nonempty discrepancy means the published
    number failed its own balance equations, so the certified value is the
    one asserted and the published one is only reported."""

    name: str
    expected: float
    actual: float
    rel_tol: float
    source: str  # published | certified
    discrepancy: str = ""

    @property
    def rel_err(self) -> float:
        scale = max(abs(self.expected), 1e-300)
        return abs(self.actual - self.expected) / scale

    @property
    def passed(self) -> bool:
        return self.rel_err <= self.rel_tol


@dataclass(frozen=True)
class FlagCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ReproductionResult:
    example_id: str
    checks: Tuple[ValueCheck, ...]
    flags: Tuple[FlagCheck, ...]
    report: AnalysisReport

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks) and all(f.passed for f in self.flags)


def build_scenario(example_id: str) -> Scenario:
    """Scenario for one benchmark id, default interior start (500,500,50,50)."""
    if example_id not in _CASES:
        raise ConfigError(
            "unknown example id %r (choose from %s)" % (example_id, ", ".join(EXAMPLE_IDS))
        )
    case = _CASES[example_id]
    params = ModelParams(
        Lambda=200.0,
        mu=0.02,
        r=case["r"],
        k=2e-5,
        gamma1=0.07,
        gamma2=0.09,
        v1=0.1,
        v2=0.1,
    )
    if case["zeta1"] == 0.0:
        inc1 = IncidenceSpec.bilinear(case["beta1"])
    else:
        inc1 = IncidenceSpec.saturated_i2(case["beta1"], case["zeta1"])
    inc2 = IncidenceSpec.saturated_s(case["beta2"], case["zeta2"])
    return Scenario(params=params, incidence1=inc1, incidence2=inc2)


def _computed(report: AnalysisReport, name: str) -> float:
    """The value a table row's check name reads off the report: a
    ``Thresholds`` field, ``S0`` or ``V10`` of the params, or ``KIND.FIELD``
    at the first root of that kind, a state coordinate or a coefficient cN
    of its stability report."""
    if name in _CAPS:
        return getattr(report.scenario.params, _CAPS[name])
    if "." not in name:
        return getattr(report.thresholds, name)
    kind, field = name.split(".")
    if field.startswith("c"):
        return _first(report.stability, kind).coefficients[field]
    return getattr(_first(report.equilibria, kind).point, field)


def reproduce(example_id: str, grid: int = 200) -> ReproductionResult:
    """Run one benchmark and compare against the embedded expected values."""
    sc = build_scenario(example_id)
    report = analyze(sc, grid=grid)
    th = report.thresholds
    checks = [
        ValueCheck(name, value, _computed(report, name), rel_tol, "published")
        for name, value, rel_tol in _PUBLISHED[example_id]
    ]
    checks += [
        ValueCheck(name, value, _computed(report, name), 1e-6, "certified", discrepancy=(
            "published reference value %s is inconsistent with the formulas published "
            "alongside it; certified value %.10g asserted instead" % (published, value)))
        for name, value, published in _CERTIFIED.get(example_id, ())
    ]
    flags = [
        FlagCheck(
            "equilibrium residuals < 1e-8",
            all(eq.residual < RESIDUAL_TOL for eq in report.equilibria),
            "max residual %.3e" % max(eq.residual for eq in report.equilibria),
        )
    ]

    if example_id == "6.1":
        flags.append(
            FlagCheck(
                "verdict: E0 globally asymptotically stable",
                any("E0 globally asymptotically stable" in line for line in report.verdict_lines),
            )
        )

    elif example_id == "6.2":
        stab = _first(report.stability, "E1")
        flags.append(
            FlagCheck(
                "E1 locally asymptotically stable with R2_invasion < 1",
                stab is not None
                and stab.verdict is Verdict.LOCALLY_STABLE
                and th.R2_invasion is not None
                and th.R2_invasion < 1.0,
                "R2_invasion = %.6g" % (th.R2_invasion if th.R2_invasion is not None else float("nan")),
            )
        )

    elif example_id == "6.3":
        scan = dict(report.global_checks).get("strain2_lyapunov_scan")
        flags.append(
            FlagCheck(
                "lyapunov surface nonpositive on scan grid",
                scan is not None and scan.nonpositive_everywhere,
                "" if scan is None else "max %.3e at (%.6g, %.6g)" % (scan.max_value, *scan.argmax),
            )
        )

    else:  # 6.4
        stab = _first(report.stability, "E3")
        coeff = stab.coefficients
        # independent route: for a monic quartic the constant term is the
        # product of the roots, so the spectrum gives c4 without the
        # coefficient formulas
        spectral_c4 = float(np.real(np.prod(stab.eigenvalues)))
        c4 = next(value for name, value, _ in _CERTIFIED["6.4"] if name == "E3.c4")
        checks.append(ValueCheck("E3.c4 (spectrum product)", c4, spectral_c4, 1e-6, "certified"))
        flags.append(
            FlagCheck(
                "composite conditions c1*c2 - c3 > 0 and c1*c2*c3 - c3^2 - c1^2*c4 > 0",
                coeff["c1*c2 - c3"] > 0.0 and coeff["c1*c2*c3 - c3^2 - c1^2*c4"] > 0.0,
                "c1*c2 - c3 = %.6g, c1*c2*c3 - c3^2 - c1^2*c4 = %.6g"
                % (coeff["c1*c2 - c3"], coeff["c1*c2*c3 - c3^2 - c1^2*c4"]),
            )
        )
        for kind in ("E0", "E1", "E2"):
            rep = _first(report.stability, kind)
            flags.append(
                FlagCheck("%s unstable" % kind, rep is not None and rep.verdict is Verdict.UNSTABLE)
            )
        flags.append(
            FlagCheck("E3 locally asymptotically stable", stab.verdict is Verdict.LOCALLY_STABLE)
        )
        scan = dict(report.global_checks).get("coexistence_tail_derivative")
        flags.append(
            FlagCheck(
                "lyapunov time derivative nonpositive along the trajectory",
                scan is not None and scan.nonpositive_everywhere,
                "" if scan is None else "max %.3e" % scan.max_value,
            )
        )

    # trajectory claim: the run from the default interior start settles on
    # the expected attractor
    traj = report.trajectory
    if traj is None:
        traj = integrate(sc.params, sc.incidence1, sc.incidence2, sc.initial, sc.integrator)
    event = detect_convergence(traj, report.equilibria, sc.integrator)
    attractor = _CASES[example_id]["attractor"]
    flags.append(
        FlagCheck(
            "trajectory converges to %s" % attractor,
            event is not None and event.detail.startswith(attractor),
            event.detail if event is not None else "no convergence detected",
        )
    )

    return ReproductionResult(example_id, tuple(checks), tuple(flags), report)


def render_reproduction(result: ReproductionResult) -> str:
    """Per-assertion pass/fail lines for one benchmark run."""
    out = ["== reproduction %s ==" % result.example_id]
    for c in result.checks:
        out.append(
            "[%s] %s: computed %.10g vs %s %.10g (rel err %.3e, tol %.1e)"
            % ("PASS" if c.passed else "FAIL", c.name, c.actual, c.source, c.expected,
               c.rel_err, c.rel_tol)
        )
        if c.discrepancy:
            out.append("       note: %s" % c.discrepancy)
    for f in result.flags:
        line = "[%s] %s" % ("PASS" if f.passed else "FAIL", f.name)
        if f.detail:
            line += " (%s)" % f.detail
        out.append(line)
    out.append("result: %s" % ("all assertions passed" if result.all_pass else "ASSERTIONS FAILED"))
    return "\n".join(out)
