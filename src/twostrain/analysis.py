"""Whole-scenario analysis: thresholds, equilibria, stability, global checks.

This is the engine behind the CLI's analyze, sweep and check-global verbs.
Every verdict line names the condition it rests on together with the
numeric value that produced it, so reports are auditable without rerunning.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .equilibria import Equilibrium, _scan_cells, _searched, solve_all
from .errors import ConfigError, _require_grid
from .incidence import BUILT_IN_FAMILIES
from .model import PARAM_NAMES, Thresholds, thresholds
from .scenario import Scenario
from .simulate import Trajectory, integrate
from .stability import (
    KINDS,
    GridScanSummary,
    StabilityReport,
    Verdict,
    _empty_scan_range,
    classify_batch,
    coexistence_lyapunov_scan,
    strain2_lyapunov_scan,
)


@dataclass
class AnalysisReport:
    """``stability[i]`` is the report of ``equilibria[i]``."""

    scenario: Scenario
    thresholds: Thresholds
    equilibria: Tuple[Equilibrium, ...]
    stability: Tuple[StabilityReport, ...]
    global_checks: Tuple[Tuple[str, GridScanSummary], ...]
    verdict_lines: Tuple[str, ...]
    notes: Tuple[str, ...] = ()
    trajectory: Optional[Trajectory] = None  # the run behind the trajectory check, if any


def analyze(sc: Scenario, grid: int = 200) -> AnalysisReport:
    """Run the full workup for one scenario.

    Global-condition scans are run only where the corresponding stability
    statement needs them: the vaccinated-strain surface scan when the
    strain-2-only equilibrium exists with R1 <= 1 < R2 and has one root, both
    lower ends 1e-6*S0 and 1e-6*V10 are positive and both upper ends S0 and
    V10 are finite (with several roots, at r = 0, a subnormal r, a tiny
    Lambda or an overflowing S0 or V10 a note says it was not run, and no E2
    global claim is made), and
    the trajectory derivative check when the coexistence equilibrium exists
    and its first root is not unstable (where it is, a note says the check
    was not run, and no E3 global claim is made).
    ``grid``, the scan's points per axis, must be an integer >= 1.
    """
    _require_grid(grid, "grid", 1)
    p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
    eqs = solve_all(p, inc1, inc2)
    th = eqs.thresholds
    e2 = eqs.E2[0] if eqs.E2 else None
    e3 = eqs.E3[0] if eqs.E3 else None
    notes: List[str] = []
    for balance, roots, at_first in (
        ("strain-1", eqs.E1, "invasion threshold reported at the smallest"),
        ("strain-2", eqs.E2, "invasion threshold reported at the smallest"),
        ("coexistence", eqs.E3, "trajectory check made at the smallest I2"),
    ):
        if len(roots) > 1:
            notes.append("%s balance has %d roots; %s" % (balance, len(roots), at_first))
    if eqs.coexistence_error:
        notes.append("coexistence solve failed: %s" % eqs.coexistence_error)

    stability = tuple(classify_batch((p, inc1, inc2, eq) for eq in eqs.all))

    global_checks: List[Tuple[str, GridScanSummary]] = []
    traj = None
    if e2 is not None and th.R1 <= 1.0 < th.R2:
        empty = _empty_scan_range(p)
        if len(eqs.E2) > 1:
            notes.append("E2 surface scan not run: E2 has %d roots, so none is globally stable" % len(eqs.E2))
        elif not empty:
            summary = strain2_lyapunov_scan(p, inc2, e2, n_grid=grid)
            global_checks.append(("strain2_lyapunov_scan", summary))
        elif p.r == 0.0:
            notes.append("E2 surface scan not run: r = 0 leaves no vaccinated class (V10 = 0)")
        else:
            notes.append("E2 surface scan not run: " + empty)
    if e3 is not None and _first(stability, "E3").verdict is Verdict.UNSTABLE:
        notes.append("E3 trajectory check not run: the first E3 is unstable")
    elif e3 is not None:
        # every state after the start, which may lie on the boundary; the
        # scan sets aside the late states, whose values are below their
        # rounding error
        traj = integrate(p, inc1, inc2, sc.initial, sc.integrator)
        summary = coexistence_lyapunov_scan(p, inc1, inc2, e3, traj.states[1:, :4])
        global_checks.append(("coexistence_tail_derivative", summary))

    lines = _verdict_lines(th, stability, dict(global_checks), (inc1, inc2))
    return AnalysisReport(
        scenario=sc,
        thresholds=th,
        equilibria=eqs.all,
        stability=stability,
        global_checks=tuple(global_checks),
        verdict_lines=tuple(lines),
        notes=tuple(notes),
        trajectory=traj,
    )


def _fmt(x: Optional[float]) -> str:
    return "n/a" if x is None else "%.6g" % x


def _first(items, kind: str):
    """First equilibrium or stability report of ``kind`` in ``items``, or None."""
    return next((item for item in items if item.kind == kind), None)


def _local_verdict(rep: StabilityReport, stable: str, suffix: str = "") -> str:
    """Local-stability line for one classified equilibrium.

    ``stable`` gives the reasons behind a locally stable verdict; ``suffix``
    follows the list of violated conditions of an unstable one.
    """
    if rep.verdict is Verdict.LOCALLY_STABLE:
        return "%s locally asymptotically stable: %s" % (rep.kind, stable)
    if rep.verdict is Verdict.UNSTABLE:
        failed = ", ".join(name for name, ok in rep.conditions.items() if not ok)
        return "%s unstable: violated condition(s) %s%s" % (rep.kind, failed or "none flagged", suffix)
    return "%s classification inconclusive: a tested quantity sits on the margin" % rep.kind


def _compared(name: str, value: Optional[float]) -> str:
    """``name = value`` with the comparison to 1 that holds; n/a for None."""
    if value is None:
        return "%s = n/a" % name
    return "%s = %s %s 1" % (name, _fmt(value), ">" if value > 1.0 else "<=")


def _verdict_lines(
    th: Thresholds,
    stability: Tuple[StabilityReport, ...],
    checks: Dict[str, GridScanSummary],
    incidences: tuple,
) -> List[str]:
    """Verdict lines, each kind read at its first root (smallest I1 or I2).
    E0 is called globally stable only where no other equilibrium exists. An
    absent E1, E2 or E3 of a custom rate (of ``incidences``) says where its
    scan looked, with the comparisons to 1 that hold."""
    lines: List[str] = []
    e0 = _first(stability, "E0")
    others = ", ".join(dict.fromkeys(rep.kind for rep in stability if rep.kind != "E0"))
    if e0.verdict is Verdict.LOCALLY_STABLE and not others:
        lines.append(
            "E0 globally asymptotically stable: R0 = max(R1, R2) = %s < 1" % _fmt(th.R0)
        )
    elif e0.verdict is Verdict.LOCALLY_STABLE:
        stable = "R0 = max(R1, R2) = %s < 1; no global claim: other equilibria exist (%s)"
        lines.append(_local_verdict(e0, stable % (_fmt(th.R0), others)))
    elif e0.verdict is Verdict.UNSTABLE:
        which = "R1" if th.R1 > 1.0 else "R2"
        lines.append(
            "E0 unstable: %s = %s > 1 gives a positive growth rate" % (which, _fmt(getattr(th, which)))
        )
    else:
        lines.append(_local_verdict(e0, ""))

    for name, inc in zip(("E1", "E2"), incidences):
        kind, rep = KINDS[name], _first(stability, name)
        threshold, ((_, invasion),) = "R%d" % kind.strain, kind.absent
        R, R_invasion = _compared(threshold, getattr(th, threshold)), _fmt(getattr(th, invasion))
        cells = _scan_cells(inc)
        if rep is None and cells > 1:
            lines.append("%s absent: no root %s (%s)" % (name, _searched(cells), R))
        elif rep is None:
            lines.append("%s absent: %s" % (name, R))
        else:
            lines.append(
                _local_verdict(
                    rep,
                    "%s, coefficient conditions positive, %s = %s < 1" % (R, invasion, R_invasion),
                    " (%s = %s)" % (invasion, R_invasion),
                )
            )

    # analyze runs it only where E2 exists
    scan = checks.get("strain2_lyapunov_scan")
    if scan is not None:
        if scan.nonpositive_everywhere:
            lines.append(
                "E2 globally asymptotically stable: R2 = %s > 1, R1 = %s <= 1, and the "
                "lyapunov surface is nonpositive on a %d-point grid (max %.3e at S = %s, V1 = %s)"
                % (
                    _fmt(th.R2),
                    _fmt(th.R1),
                    scan.n_points,
                    scan.max_value,
                    _fmt(scan.argmax[0]),
                    _fmt(scan.argmax[1]),
                )
            )
        else:
            lines.append(
                "E2 global condition fails: lyapunov surface reaches %.3e > 0 at S = %s, V1 = %s"
                % (scan.max_value, _fmt(scan.argmax[0]), _fmt(scan.argmax[1]))
            )

    rep, cells = _first(stability, "E3"), _scan_cells(*incidences)
    if rep is None and cells > 1:
        invasions = ", ".join(_compared(name, getattr(th, name)) for name in ("R2_invasion", "R1_invasion"))
        lines.append("E3 absent: no root %s (%s)" % (_searched(cells), invasions))
    elif rep is None:
        lines.append(
            "E3 absent or not found: requires R2_invasion = %s > 1 and R1_invasion = %s > 1"
            % (_fmt(th.R2_invasion), _fmt(th.R1_invasion))
        )
    else:
        c = rep.coefficients
        lines.append(
            _local_verdict(
                rep,
                "all quartic coefficient conditions positive "
                "(c1 = %s, c1*c2 - c3 = %s, c1*c2*c3 - c3^2 - c1^2*c4 = %s)"
                % (
                    _fmt(c.get("c1")),
                    _fmt(c.get("c1*c2 - c3")),
                    _fmt(c.get("c1*c2*c3 - c3^2 - c1^2*c4")),
                ),
            )
        )
        scan = checks.get("coexistence_tail_derivative")
        if scan is not None:
            if scan.nonpositive_everywhere:
                lines.append(
                    "E3 consistent with global stability: time derivative of the lyapunov "
                    "expression stays <= 0 along the trajectory (max %.3e over %d states)"
                    % (scan.max_value, scan.n_points)
                )
            else:
                lines.append(
                    "E3 global condition fails: lyapunov time derivative reaches %.3e > 0"
                    % scan.max_value
                )
    return lines


def _global_check_line(name: str, scan: GridScanSummary) -> str:
    """One global check's summary, as the report and ``check-global`` print it."""
    return "%s: max %.6e at (%.6g, %.6g) over %d points -> %s" % (
        name,
        scan.max_value,
        scan.argmax[0],
        scan.argmax[1],
        scan.n_points,
        "nonpositive everywhere" if scan.nonpositive_everywhere else "POSITIVE VALUES FOUND",
    )


def render_report(report: AnalysisReport) -> str:
    """Render an analysis report as structured plain text."""
    sc = report.scenario
    out: List[str] = []
    out.append("== scenario ==")
    p = sc.params
    out.append("params: " + " ".join("%s=%r" % (name, getattr(p, name)) for name in PARAM_NAMES))
    for name, inc in (("incidence1", sc.incidence1), ("incidence2", sc.incidence2)):
        if inc.family in ("saturated_s", "saturated_i2"):
            out.append("%s: %s(beta=%r, zeta=%r)" % (name, inc.family, inc.beta, inc.zeta))
        elif inc.family == "bilinear":
            out.append("%s: bilinear(beta=%r)" % (name, inc.beta))
        else:
            out.append("%s: %s" % (name, inc.label or inc.family))
    out.append("derived: alpha1=%.6g alpha2=%.6g S0=%.10g V10=%.10g" % (
        p.alpha1, p.alpha2, p.susceptible_cap, p.vaccinated_cap))
    out.append("")
    th = report.thresholds
    out.append("== thresholds ==")
    out.append("R1 = %.10g" % th.R1)
    out.append("R2 = %.10g" % th.R2)
    out.append("R0 = %.10g" % th.R0)
    out.append("R2_invasion = %s" % _fmt(th.R2_invasion))
    out.append("R1_invasion = %s" % _fmt(th.R1_invasion))
    out.append("")
    out.append("== equilibria ==")
    for eq, rep in zip(report.equilibria, report.stability):
        pt = eq.point
        out.append(
            "%s: S=%.10g V1=%.10g I1=%.10g I2=%.10g  (residual %.3e)"
            % (eq.kind, pt.S, pt.V1, pt.I1, pt.I2, eq.residual)
        )
        for cond in eq.existence:
            out.append(
                "    existence %s: value %.6g -> %s"
                % (cond.name, cond.value, "satisfied" if cond.satisfied else "not satisfied")
            )
        if eq.multiplicity_note:
            out.append("    note: %s" % eq.multiplicity_note)
        out.append(
            "    local verdict: %s (eigensolver cross-check: %s)"
            % (rep.verdict.value, rep.eigen_verdict.value)
        )
        eigs = ", ".join("%.6g%+.6gj" % (z.real, z.imag) for z in rep.eigenvalues)
        out.append("    eigenvalues: %s" % eigs)
        for name, ok in rep.conditions.items():
            out.append("    condition %s: %s" % (name, "yes" if ok else "NO"))
        for note in rep.notes:
            out.append("    note: %s" % note)
    out.append("")
    if report.global_checks:
        out.append("== global checks ==")
        out.extend(_global_check_line(name, scan) for name, scan in report.global_checks)
        out.append("")
    out.append("== verdicts ==")
    out.extend(report.verdict_lines)
    for note in report.notes:
        out.append("note: %s" % note)
    out.append("")
    return "\n".join(out)


# -- parameter sweeps ----------------------------------------------------------


def _resolve_key(key: str) -> Tuple[str, str]:
    if "." in key:
        section, field = key.split(".", 1)
    elif key in PARAM_NAMES:
        section, field = "params", key
    else:
        raise ConfigError("sweep key %r is not a numeric scenario field" % key)
    if section == "params" and field in PARAM_NAMES:
        return section, field
    if section in ("incidence1", "incidence2") and field in ("beta", "zeta"):
        return section, field
    raise ConfigError("sweep key %r is not a numeric scenario field" % key)


def apply_sweep_value(sc: Scenario, key: str, value: float) -> Scenario:
    """Return a copy of the scenario with one numeric field replaced."""
    section, field = _resolve_key(key)
    if section == "params":
        params = dataclasses.replace(sc.params, **{field: value})
        return dataclasses.replace(sc, params=params)
    inc = getattr(sc, section)
    if inc.family == "bilinear" and field == "zeta":
        raise ConfigError("sweep key %s.zeta: bilinear incidence has no zeta" % section)
    if inc.family not in BUILT_IN_FAMILIES:
        raise ConfigError("cannot sweep custom incidence coefficients")
    # replace() runs the constructor, which checks the new coefficient
    new_inc = dataclasses.replace(inc, **{field: float(value)})
    return dataclasses.replace(sc, **{section: new_inc})


@dataclass(frozen=True)
class SweepRow:
    """``exists`` and ``verdicts`` are keyed by the ``KINDS`` names, in order."""

    value: float
    R1: float
    R2: float
    R0: float
    R2_invasion: Optional[float]
    R1_invasion: Optional[float]
    exists: Dict[str, bool]
    verdicts: Dict[str, str]


def sweep(
    sc: Scenario,
    key: str,
    start: float,
    stop: float,
    n: int,
    classify: bool = True,
) -> List[SweepRow]:
    """Evaluate thresholds (and optionally equilibria with verdicts) on a
    grid of ``n`` points, an integer >= 2.

    Every row is built by ``apply_sweep_value``; a value it refuses is a
    ConfigError naming the key and the value. Without ``classify`` each
    row gets its ``thresholds``. With it each row goes through
    ``solve_all``, and the first root of each kind of every row goes
    through one ``classify_batch`` call. Each row's result is bit for bit
    that of solving and classifying it alone, so a row does not depend on
    its neighbours. A row whose coexistence solve fails reads "solve
    failed" as its E3 verdict.
    """
    try:
        _require_grid(n, "n", 2)
    except ValueError as exc:
        raise ConfigError("sweep %s" % exc) from None
    if not np.all(np.isfinite([start, stop])):
        raise ConfigError("sweep bounds must be finite, got %r and %r" % (start, stop))
    _resolve_key(key)  # validate before running
    values = np.linspace(start, stop, n).tolist()
    scenarios = []
    for value in values:
        try:
            scenarios.append(apply_sweep_value(sc, key, value))
        except ValueError as exc:
            raise ConfigError("sweep %s = %r: %s" % (key, value, exc)) from None
    cases = [(sci.params, sci.incidence1, sci.incidence2) for sci in scenarios]
    if not classify:
        return [
            SweepRow(value, th.R1, th.R2, th.R0, None, None,
                     {**dict.fromkeys(KINDS, False), "E0": True},
                     {**dict.fromkeys(KINDS, "absent"), "E0": ""})
            for value, th in zip(values, (thresholds(*case) for case in cases))
        ]
    rows: List[SweepRow] = []
    solved = [solve_all(*case) for case in cases]
    # each row's first root of each kind, or None
    firsts = [{kind: _first(eqs.all, kind) for kind in KINDS} for eqs in solved]
    reports = iter(classify_batch(
        (*case, eq) for case, first in zip(cases, firsts) for eq in first.values() if eq is not None
    ))
    for value, eqs, first in zip(values, solved, firsts):
        verdicts = {
            kind: "absent" if eq is None else next(reports).verdict.value for kind, eq in first.items()
        }
        if eqs.coexistence_error:
            verdicts["E3"] = "solve failed"
        exists = {kind: eq is not None for kind, eq in first.items()}
        th = eqs.thresholds
        numbers = (th.R1, th.R2, th.R0, th.R2_invasion, th.R1_invasion)
        rows.append(SweepRow(value, *numbers, exists, verdicts))
    return rows


def turning_point(xs, ys) -> Optional[Tuple[int, float]]:
    """Locate an interior maximum of a sampled curve.

    Returns (index, xs[index]) of the largest sample when it is interior,
    None when the maximum sits on either end (no turning point resolved).
    A non-finite sample has no place in the order, so it is refused.
    """
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 3:
        raise ValueError("need matching 1-D arrays with at least 3 samples")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("turning_point needs finite samples")
    i = int(np.argmax(ys))
    if i == 0 or i == xs.size - 1:
        return None
    return i, float(xs[i])
