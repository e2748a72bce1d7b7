"""One measurement in a fresh interpreter; started by bench/run.py.

    python3 bench/worker.py setup --workload W --seed N
    python3 bench/worker.py timed --workload W --seed N --seconds T
    python3 bench/worker.py pass  --workload W --seed N [--spans PATH]

``setup`` times importing twostrain and building the workload's inputs.
``timed`` runs items back to back (a closed loop with one caller) for at
least T seconds and MIN_ITEMS items, ending on a whole pass, and times each.
``pass`` runs the workload's fixed trace items TRACE_PASSES times; with
``--spans`` it runs them traced, reports the per-layer numbers of each pass
and writes the span tree to PATH. Each mode also times a calibration next
to its measurements (see spec.REF_CAL_S) and prints one JSON object as its
last line of standard output.
"""

import argparse
import json
import marshal
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spec  # noqa: E402
import workloads  # noqa: E402

#: items run before anything is timed or traced, so lazy set-up is done
WARMUP_ITEMS = 4


@dataclass(frozen=True)
class _ToyParams:
    a: float = 0.3
    b: float = 0.02
    c: float = 1.5


def _toy_rate(p, s, i):
    return p.a * s * i / (1.0 + p.b * s)


def _calibration_loop():
    """Fixed RK4 steps of a toy four-compartment model: small numpy arrays,
    dataclass fields and Python calls, the instruction mix of the package."""
    import numpy as np  # here, so that set-up probes time numpy's import

    def rhs(p, y):
        s, i, r, w = y
        f = _toy_rate(p, s, i)
        return np.array([p.c - f - p.b * s, f - p.a * i, p.a * i - p.b * r, p.b * s - p.b * w])

    p = _ToyParams()
    y = np.array([1.0, 0.1, 0.0, 0.0])
    h = 0.01
    for _ in range(spec.CAL_STEPS):
        k1 = rhs(p, y)
        k2 = rhs(p, y + 0.5 * h * k1)
        k3 = rhs(p, y + 0.5 * h * k2)
        k4 = rhs(p, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _median_time(fn, repeats) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibrate() -> float:
    """Median time of the calibration loop (see spec.REF_CAL_S)."""
    return _median_time(_calibration_loop, spec.CAL_REPEATS)


def calibrate_setup() -> float:
    """Median time to unmarshal and run the bodies of spec.SETUP_CAL_MODULES,
    as an import does, in fresh namespaces (see spec.REF_SETUP_CAL_S). One
    untimed round first imports what they import."""
    import importlib.util

    sys.dont_write_bytecode = True  # never write into the standard library
    blobs = []
    for name in spec.SETUP_CAL_MODULES:
        blobs.append(marshal.dumps(importlib.util.find_spec(name).loader.get_code(name)))

    def bodies():
        for blob in blobs:
            exec(marshal.loads(blob), {"__name__": "_calibration"})

    bodies()
    return _median_time(bodies, spec.CAL_REPEATS)


def _run_item(wl, item):
    """Time one package call; check its output outside the timed region."""
    from twostrain.errors import TwoStrainError

    start = time.perf_counter()
    try:
        output = wl.run(item)
    except TwoStrainError as exc:
        elapsed = time.perf_counter() - start
        print("item %r raised %s: %s" % (item, type(exc).__name__, exc), file=sys.stderr)
        return elapsed, workloads.failed_item(wl)
    elapsed = time.perf_counter() - start
    return elapsed, wl.check(item, output)


def _tally(outcomes) -> dict:
    return {
        "ops": sum(o.ops for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "known": sum(o.known for o in outcomes),
    }


def setup(args) -> dict:
    start = time.perf_counter()
    workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "cal_s": calibrate_setup()}


def timed(args) -> dict:
    import numpy

    wl = workloads.build(args.workload, args.seed)
    for item in wl.items[:WARMUP_ITEMS]:
        _run_item(wl, item)
    times, outcomes = [], []
    cal = [calibrate()]  # cal[i] and cal[i + 1] bracket item i
    begin = time.perf_counter()
    i = 0
    while True:
        elapsed, outcome = _run_item(wl, wl.items[i % len(wl.items)])
        times.append(elapsed)
        outcomes.append(outcome)
        cal.append(calibrate())
        i += 1
        if (
            i % wl.pass_size == 0
            and i >= spec.MIN_ITEMS
            and time.perf_counter() - begin >= args.seconds
        ):
            break
    return dict(
        _tally(outcomes),
        items=i,
        pass_size=wl.pass_size,
        item_s=times,
        cal_s=cal,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
    )


def trace_pass(args) -> dict:
    """TRACE_PASSES passes over the trace items. Each pass reports its wall
    time and, when traced, its per-layer numbers; times are at the reference
    host speed, each item scaled by the calibrations on either side of it."""
    import numpy

    from tracer import Tracer, derive

    wl = workloads.build(args.workload, args.seed)
    for item in wl.items[:WARMUP_ITEMS]:
        _run_item(wl, item)
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    items = wl.items[: wl.trace_items]
    outcomes, passes = [], []
    cal = [calibrate()]
    totals = tracer.totals() if tracer else {}
    for p in range(spec.TRACE_PASSES):
        wall_s = ref_wall_s = 0.0
        layers, digests = {}, []
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = p * len(items) + i
            elapsed, outcome = _run_item(wl, item)
            cal.append(calibrate())
            scale = spec.REF_CAL_S / ((cal[-2] + cal[-1]) / 2)
            wall_s += elapsed
            ref_wall_s += elapsed * scale
            outcomes.append(outcome)
            digests.append(outcome.digest)
            if tracer is not None:
                before, totals = totals, tracer.totals()
                for key, value in totals.items():
                    delta = value - before.get(key, 0)
                    layers[key] = layers.get(key, 0) + (delta * scale if key.endswith("_s") else delta)
        passes.append({"wall_s": wall_s, "ref_wall_s": ref_wall_s, "digests": digests})
        if tracer is not None:
            passes[-1]["layers"] = derive(layers)
    if tracer is not None:
        tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})
    return dict(
        _tally(outcomes),
        items=len(outcomes),
        passes=passes,
        cal_s=cal,
        numpy=numpy.__version__,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "timed", "pass"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    mode = {"setup": setup, "timed": timed, "pass": trace_pass}[args.mode]
    print(json.dumps(mode(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
