"""Command-line surface.

Verbs: analyze, simulate, sweep, check-global, reproduce. Exit codes are 0
on success, 2 for scenario or argument errors, 3 for solver and
integration failures, 4 for a reproduction run with failed assertions.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from typing import List, Optional

from .analysis import analyze, render_report, sweep
from .benchmarks import EXAMPLE_IDS, render_reproduction, reproduce
from .equilibria import solve_all
from .errors import (
    ConfigError,
    DomainError,
    IntegrationError,
    PreconditionError,
    SolverError,
)
from .scenario import Scenario, load_scenario
from .simulate import Trajectory, detect_convergence, integrate, monitor_invariance

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_REPRODUCE = 4


def _load(args) -> Scenario:
    sc = load_scenario(args.scenario)
    if getattr(args, "t_end", None) is not None:
        sc = dataclasses.replace(
            sc, integrator=dataclasses.replace(sc.integrator, t_end=args.t_end)
        )
    return sc


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_text(out_dir: str, name: str, text: str) -> str:
    path = _out_path(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _write_timeseries(out_dir: str, traj: Trajectory) -> str:
    path = _out_path(out_dir, "timeseries.csv")
    header = ["t", "S", "V1", "I1", "I2"] + (["R"] if traj.tracks_recovered else [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, row in zip(traj.times, traj.states):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
    return path


def _write_surface(out_dir: str, S_values, V1_values, surface) -> str:
    path = _out_path(out_dir, "surface.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["S", "V1", "phi"])
        for i, s in enumerate(S_values):
            for j, v in enumerate(V1_values):
                writer.writerow([repr(float(s)), repr(float(v)), repr(float(surface[i, j]))])
    return path


def _write_sweep(out_dir: str, rows) -> str:
    path = _out_path(out_dir, "sweep.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "value", "R1", "R2", "R0", "R2_invasion", "R1_invasion",
                "E0_exists", "E1_exists", "E2_exists", "E3_exists",
                "E0_verdict", "E1_verdict", "E2_verdict", "E3_verdict",
            ]
        )
        for row in rows:
            writer.writerow(
                [repr(row.value), repr(row.R1), repr(row.R2), repr(row.R0)]
                + ["" if row.R2_invasion is None else repr(row.R2_invasion)]
                + ["" if row.R1_invasion is None else repr(row.R1_invasion)]
                + [int(row.exists[k]) for k in ("E0", "E1", "E2", "E3")]
                + [row.verdicts[k] for k in ("E0", "E1", "E2", "E3")]
            )
    return path


def cmd_analyze(args) -> int:
    sc = _load(args)
    report = analyze(sc, grid=args.grid)
    text = render_report(report)
    written = []
    if "report" in sc.outputs:
        written.append(_write_text(args.out, "report.txt", text))
    if args.format == "report":
        print(text)
    for path in written:
        print("wrote %s" % path)
    return EXIT_OK


def cmd_simulate(args) -> int:
    sc = _load(args)
    p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
    candidates = solve_all(p, inc1, inc2).all

    traj = integrate(p, inc1, inc2, sc.initial, sc.integrator)
    event = detect_convergence(traj, candidates, sc.integrator)
    invariance = monitor_invariance(traj, p)

    lines: List[str] = ["== simulation =="]
    final = traj.states[-1]
    lines.append("t_end = %r, %d stored states" % (sc.integrator.t_end, len(traj.times)))
    lines.append(
        "final state: S=%.10g V1=%.10g I1=%.10g I2=%.10g"
        % (final[0], final[1], final[2], final[3])
    )
    for ev in traj.events:
        detail = " (%s)" % ev.detail if ev.detail else ""
        lines.append("event t=%.6g: %s%s" % (ev.time, ev.kind, detail))
    if event is None:
        lines.append("no convergence to a computed equilibrium was detected")
    lines.append(
        "invariance: %s (final N = %.10g, cap %.10g)"
        % ("ok" if invariance.ok else "VIOLATED", invariance.final_total, invariance.population_cap)
    )
    text = "\n".join(lines) + "\n"

    written = []
    if "timeseries" in sc.outputs:
        written.append(_write_timeseries(args.out, traj))
    if "report" in sc.outputs:
        written.append(_write_text(args.out, "report.txt", text))
    if args.format == "report":
        print(text)
    for path in written:
        print("wrote %s" % path)
    return EXIT_OK


def cmd_sweep(args) -> int:
    sc = _load(args)
    rows = sweep(sc, args.key, args.start, args.to, args.n)
    path = _write_sweep(args.out, rows)
    if args.format == "report":
        first, last = rows[0], rows[-1]
        print(
            "sweep %s from %r to %r (%d points): R2 %r -> %r"
            % (args.key, first.value, last.value, len(rows), first.R2, last.R2)
        )
    print("wrote %s" % path)
    return EXIT_OK


def cmd_check_global(args) -> int:
    sc = _load(args)
    report = analyze(sc, grid=args.grid)
    if not report.global_checks:
        print("no global checks apply: needs E2 with R1 <= 1, or E3")
        return EXIT_OK
    written = []
    checks = dict(report.global_checks)
    if "strain2_lyapunov_scan" in checks:
        written.append(_write_surface(args.out, *checks["strain2_lyapunov_scan"].grid))
    for name, summary in report.global_checks:
        print(
            "%s: max %.6e at (%.6g, %.6g) over %d points -> %s"
            % (
                name,
                summary.max_value,
                summary.argmax[0],
                summary.argmax[1],
                summary.n_points,
                "nonpositive everywhere" if summary.nonpositive_everywhere else "POSITIVE VALUES FOUND",
            )
        )
    for path in written:
        print("wrote %s" % path)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    ids = EXAMPLE_IDS if args.example == "all" else (args.example,)
    texts = []
    ok = True
    for example_id in ids:
        result = reproduce(example_id, grid=args.grid)
        text = render_reproduction(result)
        texts.append(text)
        print(text)
        ok = ok and result.all_pass
    _write_text(args.out, "report.txt", "\n\n".join(texts) + "\n")
    return EXIT_OK if ok else EXIT_REPRODUCE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostrain",
        description="Two-strain vaccination model: thresholds, equilibria, "
        "stability and simulation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp, scenario=True):
        if scenario:
            sp.add_argument("--scenario", required=True, help="scenario file path")
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        sp.add_argument("--format", choices=("csv", "report"), default="report",
                        help="stdout style: human report or files only")

    sp = sub.add_parser("analyze", help="thresholds, equilibria, stability, verdicts")
    common(sp)
    sp.add_argument("--grid", type=int, default=200, help="global-scan grid size per axis")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("simulate", help="integrate the scenario and summarize events")
    common(sp)
    sp.add_argument("--t-end", type=float, default=None, help="override scenario t_end")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="threshold and verdict table over one parameter")
    common(sp)
    sp.add_argument("--key", required=True, help="numeric field, e.g. r or incidence2.zeta")
    sp.add_argument("--from", dest="start", type=float, required=True)
    sp.add_argument("--to", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("check-global", help="run applicable global-stability scans")
    common(sp)
    sp.add_argument("--grid", type=int, default=200)
    sp.set_defaults(func=cmd_check_global)

    sp = sub.add_parser("reproduce", help="run a built-in benchmark and assert its values")
    sp.add_argument("example", choices=EXAMPLE_IDS + ("all",))
    sp.add_argument("--out", default=".")
    sp.add_argument("--grid", type=int, default=200)
    sp.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, IntegrationError, PreconditionError, DomainError) as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
