"""The twostrain benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {reproduce,sweep,ensemble} --seed N \\
        --seconds T --trace {0,1}

Run from the repository root; the package is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics. Set-up time is the median of
SETUP_PROBES fresh interpreters that import twostrain and build the inputs;
then one process runs the workload's items back to back for T seconds (and
at least MIN_ITEMS items, ending on a whole pass) and times each item.
Times are reported at the reference host speed (see spec.REF_CAL_S); the
raw wall-clock figures are printed beside them.

``--trace 1`` measures the per-layer metrics. The workload's fixed trace
items run once untraced and twice traced, each in a fresh process. Outputs
must be identical across the three and every count must repeat exactly
across the two traced runs. Each traced run writes its span tree to
``bench/out/``; the untraced/traced time ratio gives trace.overhead_frac.
Per-layer times are raw wall times of the traced run.

Every run checks the outputs of each item (see workloads.py), prints a
readable report with machine information, writes the full result to
``bench/out/`` and prints one JSON line last:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

#: a run must end within this many seconds, workers included
DEADLINE_S = 170.0

#: the known r = 0 defect, reported next to failed_frac
KNOWN_FAILURE = (
    "r = 0 sweep row: V1 = 0 is rejected by the coexistence solve although both "
    "invasion numbers exceed 1, so it raises"
)

# single-threaded numerics in every worker, whatever BLAS numpy links
WORKER_ENV = dict(
    os.environ,
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


class BenchError(Exception):
    pass


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def loadavg():
    text = _read("/proc/loadavg")
    return [float(v) for v in text.split()[:3]] if text else None


def machine_info() -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": loadavg(),
    }


def time_metrics(item_ms, size) -> dict:
    """Throughput and per-item percentiles of one timed run.

    items_per_s is the median over whole passes of each pass's items per
    second; with at least MIN_ITEMS items, ten or more lie beyond p90.
    """
    pass_rates = [
        size * 1e3 / sum(item_ms[k : k + size]) for k in range(0, len(item_ms), size)
    ]
    return {
        "items_per_s": statistics.median(pass_rates),
        "item_ms_p50": statistics.median(item_ms),
        "item_ms_p90": statistics.quantiles(item_ms, n=10)[-1],
    }


def at_reference_speed(item_s, cal):
    """Item times in ms at the reference host speed: item i is scaled by
    REF_CAL_S over the mean of the calibration timings taken just before
    and just after it (cal[i] and cal[i + 1])."""
    return [t * 1e3 * spec.REF_CAL_S / ((cal[i] + cal[i + 1]) / 2) for i, t in enumerate(item_s)]


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, mode, *extra) -> dict:
        a = self.args
        cmd = [sys.executable, WORKER, mode, "--workload", a.workload, "--seed", str(a.seed)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline of %.0f s passed before the %s worker" % (DEADLINE_S, mode))
        try:
            proc = subprocess.run(
                cmd + list(extra), stdout=subprocess.PIPE, text=True, env=WORKER_ENV,
                cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("%s worker passed the run deadline and was killed" % mode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError("%s worker exited with code %d" % (mode, proc.returncode))
        return json.loads(lines[-1])

    def end_to_end(self, result):
        a = self.args
        probes = [self.worker("setup") for _ in range(spec.SETUP_PROBES)]
        run = self.worker("timed", "--seconds", str(a.seconds))
        size = run["pass_size"]
        wall_ms = [t * 1e3 for t in run["item_s"]]
        ref_ms = at_reference_speed(run["item_s"], run["cal_s"])
        wall = dict(
            setup_s=statistics.median(p["setup_s"] for p in probes),
            **time_metrics(wall_ms, size),
        )
        metrics = dict(
            setup_s=statistics.median(
                p["setup_s"] * spec.REF_SETUP_CAL_S / p["cal_s"] for p in probes
            ),
            **time_metrics(ref_ms, size),
            ok_frac=1.0 - run["failed"] / run["ops"],
            peak_rss_mb=run["peak_rss_mb"],
        )
        result.update(
            numpy=run["numpy"],
            items=run["items"],
            items_beyond_p90=sum(t > metrics["item_ms_p90"] for t in ref_ms),
            wall_metrics=wall,
            calibration_s=run["cal_s"],
            setup_probes=probes,
            item_wall_ms=wall_ms,
        )
        return run, metrics, []

    def per_layer(self, result):
        a = self.args
        os.makedirs(OUT_DIR, exist_ok=True)
        plain = self.worker("pass")
        traced, span_files = [], []
        for k in (1, 2):
            path = os.path.join(OUT_DIR, "%s-seed%d-spans%d.json" % (a.workload, a.seed, k))
            traced.append(self.worker("pass", "--spans", path))
            span_files.append(os.path.relpath(path, ROOT))
        passes = [p for t in traced for p in t["passes"]]
        problems = []
        if any(p["digests"] != plain["passes"][0]["digests"] for p in plain["passes"] + passes):
            problems.append("passes returned different results, traced or untraced")
        counts = [{k: v for k, v in p["layers"].items() if isinstance(v, int)} for p in passes]
        keys = set().union(*counts)
        moved = sorted(k for k in keys if len({c.get(k) for c in counts}) > 1)
        if moved:
            problems.append("counts differ between traced passes: " + ", ".join(moved))
        layers = {
            k: counts[0][k] if k in counts[0] else statistics.median(p["layers"][k] for p in passes)
            for k in passes[0]["layers"]
        }
        plain_s = statistics.median(p["ref_wall_s"] for p in plain["passes"])
        traced_s = statistics.median(p["ref_wall_s"] for p in passes)
        layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
        result.update(
            numpy=plain["numpy"],
            items=plain["items"],
            untraced_pass_s=[p["ref_wall_s"] for p in plain["passes"]],
            traced_pass_s=[p["ref_wall_s"] for p in passes],
            untraced_pass_wall_s=[p["wall_s"] for p in plain["passes"]],
            traced_pass_wall_s=[p["wall_s"] for p in passes],
            calibration_s=[c for run in [plain] + traced for c in run["cal_s"]],
            span_files=span_files,
            all_layers=layers,
        )
        metrics = {name: layers.get(name, 0) for name, _, _ in spec.PER_LAYER}
        return plain, metrics, problems


def report(result, metrics, units):
    a = result["args"]
    m = result["machine"]
    print("twostrain benchmark: workload %s, seed %d, trace %d" % (a["workload"], a["seed"], a["trace"]))
    print(
        "machine: nproc %s, cpu %s, python %s, numpy %s, load %s -> %s"
        % (m["nproc"], m["cpu_model"], m["python"], result["numpy"], m["loadavg_start"], m["loadavg_end"])
    )
    print(
        "items %d, operations %d, failed %d (failed_frac %.6g frac)"
        % (result["items"], result["attempted"], result["failed"], result["failed_frac"])
    )
    if result["known_failures"]:
        print("known failures: %d x %s" % (result["known_failures"], KNOWN_FAILURE))
    if "items_beyond_p90" in result:
        print("items beyond p90: %d" % result["items_beyond_p90"])
    cal = sorted(result["calibration_s"])
    print(
        "host speed: calibration loop %.3g-%.3g ms, median %.3g ms (reference %.3g ms)"
        % (1e3 * cal[0], 1e3 * cal[-1], 1e3 * statistics.median(cal), 1e3 * spec.REF_CAL_S)
    )
    if "setup_probes" in result:
        scal = sorted(p["cal_s"] for p in result["setup_probes"])
        print(
            "set-up calibration %.3g-%.3g ms, median %.3g ms (reference %.3g ms)"
            % (1e3 * scal[0], 1e3 * scal[-1], 1e3 * statistics.median(scal), 1e3 * spec.REF_SETUP_CAL_S)
        )
    wall = result.get("wall_metrics", {})
    for name, value in metrics.items():
        line = "  %-52s %14.6g %s" % (name, value, units[name])
        if name in wall:
            line += "   (wall %.6g)" % wall[name]
        print(line)
    for problem in result["problems"]:
        print("CHECK FAILED: " + problem)
    print("result written to %s" % result["result_file"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="twostrain benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit, so subprocess.run kills and waits for the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "twostrain", "__init__.py")):
        print("bench: no twostrain package under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    result = {"args": vars(args), "machine": machine_info()}
    runner = Runner(args)
    measure = runner.per_layer if args.trace else runner.end_to_end
    try:
        run, metrics, problems = measure(result)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    result["machine"]["loadavg_end"] = loadavg()

    unexpected = run["failed"] - run["known"]
    if unexpected:
        problems.append("%d operation(s) failed their output check" % unexpected)
    result.update(
        attempted=run["ops"],
        failed=run["failed"],
        failed_frac=run["failed"] / run["ops"],
        known_failures=run["known"],
        problems=problems,
        metrics=metrics,
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    result["result_file"] = os.path.relpath(path, ROOT)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    units = {name: unit for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER}
    report(result, metrics, units)
    line = {
        "correct": not problems,
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
