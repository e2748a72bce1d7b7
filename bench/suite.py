"""Run every workload over several seeds and summarise the spread.

    python3 bench/suite.py [--seeds 1-10] [--write]

Each seed runs every workload once with tracing off (workloads interleaved,
so slow spells on a shared machine hit all of them alike), then each
workload runs once traced with the first seed. Prints, per workload and
end-to-end metric, the median, the quartiles and their distance as a share
of the median next to the metric's bound, flagged WIDE when that spread is
a third of the bound or more, then the per-layer numbers.

``--write`` also writes BENCHMARK.json at the repository root (from
spec.py) and the measured baseline to bench/baseline.json: per workload and
metric, the reference-speed values and the raw wall-clock ones. Exits non-zero
if any run fails or reports incorrect output.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, hi = text.split("-", 1)
    return list(range(int(lo), int(hi) + 1))


def run_once(workload, seed, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace),
    ]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            stdout, _ = proc.communicate(timeout=240)
        except BaseException:
            proc.terminate()  # run.py stops its own worker on SIGTERM
            proc.wait()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d trace %d failed with code %d" % (workload, seed, trace, proc.returncode))
    result = json.loads(lines[-1])
    with open(os.path.join(HERE, "out", "%s-seed%d-trace%d.json" % (workload, seed, trace))) as fh:
        detail = json.load(fh)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return result, values, detail


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="all workloads over several seeds")
    parser.add_argument("--seeds", default="1-10", help="a range, as in 1-10")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    # exit through SystemExit, so the running child is stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("need at least two seeds")
    names = list(spec.WORKLOADS)

    ok = True
    runs = {w: [] for w in names}
    walls = {w: [] for w in names}
    details = {}
    for seed in seeds:
        for w in names:
            result, values, detail = run_once(w, seed, 0)
            ok = ok and result["correct"]
            runs[w].append(values)
            walls[w].append(detail["wall_metrics"])
            details[w] = detail
            print(
                "%-9s seed %-3d %s" % (w, seed, "  ".join("%s %.5g" % kv for kv in values.items())),
                flush=True,
            )
    layers = {}
    for w in names:
        result, values, _ = run_once(w, seeds[0], 1)
        ok = ok and result["correct"]
        layers[w] = values

    baseline = {"seeds": seeds, "run_seconds": spec.RUN_SECONDS, "workloads": {}}
    print("\n%-9s %-14s %-6s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for w in names:
        d = details[w]
        entry = baseline["workloads"][w] = {
            "machine": d["machine"],
            "numpy": d["numpy"],
            "failed_frac": d["failed_frac"],
            "known_failures": d["known_failures"],
            "end_to_end": {},
            "wall_metrics": {
                name: summarise([v[name] for v in walls[w]]) for name in walls[w][0]
            },
            "per_layer": layers[w],
        }
        for name, unit, _, bound in spec.END_TO_END:
            s = entry["end_to_end"][name] = summarise([v[name] for v in runs[w]])
            flag = "" if s["spread"] < bound / 3 else "  WIDE"
            print("%-9s %-14s %-6s %12.6g %12.6g %12.6g %8.4f %6.2f%s" % (
                w, name, unit, s["median"], s["q1"], s["q3"], s["spread"], bound, flag))
        print("%-9s %-14s %-6s %12.6g" % (w, "failed_frac", "frac", d["failed_frac"]))
    print("\nper-layer (traced, seed %d)" % seeds[0])
    units = {n: u for n, u, _ in spec.PER_LAYER}
    for name in units:
        print("  %-52s %s %s" % (name, "  ".join("%12.6g" % layers[w][name] for w in names), units[name]))
    print("  %-52s %s" % ("", "  ".join("%12s" % w for w in names)))

    if args.write:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        with open(os.path.join(HERE, "baseline.json"), "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
        print("wrote BENCHMARK.json and bench/baseline.json")
    if not ok:
        print("some run reported incorrect output", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
