"""Command-line surface.

Verbs: analyze, simulate, sweep, check-global, reproduce. Exit codes are 0
on success, 2 for scenario or argument errors, 3 for solver and
integration failures, 4 for a reproduction run with failed assertions.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
from typing import List, Optional

from .analysis import _global_check_line, analyze, render_report, sweep
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
from .simulate import detect_convergence, integrate, monitor_invariance
from .stability import KINDS

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


def _ready(out_dir: str, name: str) -> str:
    """The path of ``name`` in ``out_dir``, creating the directory if needed.
    A directory that cannot be created or written is a ConfigError. The
    verbs that will write call it before their run, so that a bad ``--out``
    costs no run."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc)) from None
    if not os.access(out_dir, os.W_OK):
        raise ConfigError("cannot write %s: the directory is not writable" % path)
    return path


def _write(out_dir: str, name: str, write, newline=None) -> str:
    """Fill the file ``name`` of ``out_dir`` (see ``_ready``) with
    ``write(fh)``; failing to write it is a ConfigError."""
    path = _ready(out_dir, name)
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc)) from None
    return path


def _write_text(out_dir: str, name: str, text: str) -> str:
    return _write(out_dir, name, lambda fh: fh.write(text))


def _write_csv(out_dir: str, name: str, header, rows) -> str:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    return _write(out_dir, name, write, newline="")


def cmd_analyze(args) -> int:
    sc = _load(args)
    if "report" in sc.outputs:
        _ready(args.out, "report.txt")
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
    if "timeseries" in sc.outputs or "report" in sc.outputs:
        _ready(args.out, "timeseries.csv" if "timeseries" in sc.outputs else "report.txt")
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
        header = ["t", "S", "V1", "I1", "I2"] + (["R"] if traj.tracks_recovered else [])
        rows = ([repr(float(v)) for v in (t, *y)] for t, y in zip(traj.times, traj.states))
        written.append(_write_csv(args.out, "timeseries.csv", header, rows))
    if "report" in sc.outputs:
        written.append(_write_text(args.out, "report.txt", text))
    if args.format == "report":
        print(text)
    for path in written:
        print("wrote %s" % path)
    return EXIT_OK


def cmd_sweep(args) -> int:
    sc = _load(args)
    _ready(args.out, "sweep.csv")
    rows = sweep(sc, args.key, args.start, args.to, args.n)
    numbers = ("value", "R1", "R2", "R0", "R2_invasion", "R1_invasion")
    header = [*numbers, *("%s_exists" % k for k in KINDS), *("%s_verdict" % k for k in KINDS)]
    cells = (
        ["" if getattr(row, n) is None else repr(getattr(row, n)) for n in numbers]
        + [int(row.exists[k]) for k in KINDS]
        + [row.verdicts[k] for k in KINDS]
        for row in rows
    )
    path = _write_csv(args.out, "sweep.csv", header, cells)
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
    _ready(args.out, "surface.csv")
    report = analyze(sc, grid=args.grid)
    if not report.global_checks:
        if args.format == "report":
            print("no global checks apply: needs E2 with R1 <= 1, 0 < 1e-6*S0, S0 < inf, 0 < 1e-6*V10 and V10 < inf, or E3")
        return EXIT_OK
    written = []
    checks = dict(report.global_checks)
    if "strain2_lyapunov_scan" in checks:
        S_values, V1_values, surface = checks["strain2_lyapunov_scan"].grid
        rows = (
            [repr(float(x)) for x in (s, v, surface[i, j])]
            for i, s in enumerate(S_values)
            for j, v in enumerate(V1_values)
        )
        written.append(_write_csv(args.out, "surface.csv", ["S", "V1", "phi"], rows))
    if args.format == "report":
        for name, summary in report.global_checks:
            print(_global_check_line(name, summary))
    for path in written:
        print("wrote %s" % path)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    ids = EXAMPLE_IDS if args.example == "all" else (args.example,)
    _ready(args.out, "report.txt")
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


def _checked(convert, test, expected: str):
    """An argparse ``type``: ``convert(text)`` when it passes ``test``."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not test(value):
            raise argparse.ArgumentTypeError("expected %s, got %r" % (expected, text))
        return value

    return parse


_GRID = _checked(int, lambda v: v >= 1, "an integer >= 1")
_T_END = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostrain",
        description="Two-strain vaccination model: thresholds, equilibria, "
        "stability and simulation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--scenario", required=True, help="scenario file path")
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        sp.add_argument("--format", choices=("csv", "report"), default="report",
                        help="stdout style: human report or files only")

    sp = sub.add_parser("analyze", help="thresholds, equilibria, stability, verdicts")
    common(sp)
    sp.add_argument("--grid", type=_GRID, default=200, help="global-scan grid size per axis")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("simulate", help="integrate the scenario and summarize events")
    common(sp)
    sp.add_argument("--t-end", type=_T_END, default=None, help="override scenario t_end")
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
    sp.add_argument("--grid", type=_GRID, default=200)
    sp.set_defaults(func=cmd_check_global)

    sp = sub.add_parser("reproduce", help="run a built-in benchmark and assert its values")
    sp.add_argument("example", choices=EXAMPLE_IDS + ("all",))
    sp.add_argument("--out", default=".")
    sp.add_argument("--grid", type=_GRID, default=200)
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
