"""What the benchmark measures: its workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is generated from this module by
``python3 bench/suite.py --write``, so the two cannot drift apart.
"""

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]

#: seconds of timed work in one run; a run also ends on a whole pass and
#: only after MIN_ITEMS items, so that at least ten items lie beyond p90
RUN_SECONDS = 30
MIN_ITEMS = 110

#: fresh interpreters timed per run; setup_s is the median of their
#: set-up times, each at the reference host speed (see below)
SETUP_PROBES = 11

#: passes over the trace items in each per-layer worker; per-layer times
#: and trace.overhead_frac are medians over passes
TRACE_PASSES = 4

# Every end-to-end time is reported at a reference host speed. The shared
# host this benchmark was built on runs the same code up to 1.8x faster or
# slower, and switches between the two within a second, which no statistic
# over one run can hide. So every time is divided by a calibration timing
# taken next to it in the same process, and multiplied by that timing's
# value on the reference host; the statistics are taken over these scaled
# times. Calibrations never call twostrain, so a change to the package
# cannot move them. Raw wall-clock figures are printed and kept in the
# result file.
#
# Item times use a loop that steps a toy model with small numpy arrays, as
# the package does. It is timed before the first item and after every item;
# item i is scaled by REF_CAL_S over the mean of the timings on either side
# of it. The loop takes REF_CAL_S on the reference host.
REF_CAL_S = 0.004
CAL_STEPS = 120
CAL_REPEATS = 5

# Set-up is mostly importing modules, which a host slow-down moves less than
# it moves numeric code, so set-up probes use another calibration: running
# the compiled bodies of these standard-library modules, as importing them
# would, right after the probe's own set-up. Each probe's set-up time is
# scaled by REF_SETUP_CAL_S over that timing. Over 40 probes in a row on
# the reference host, the quartile spread of single set-up times was 0.21
# raw and 0.12 scaled; scaling by the toy loop had made it wider than raw.
SETUP_CAL_MODULES = ("argparse", "ast", "enum", "inspect", "ipaddress", "pickle", "tarfile", "typing")
REF_SETUP_CAL_S = 0.017

# Why each workload exists and which layer it bypasses: on the bypassed
# layer the prediction for any change is "no change".
WORKLOADS = {
    "reproduce": (
        "User path of `twostrain reproduce all`: examples 6.1-6.4 round-robin, each replay "
        "touching every layer once; about 2/3 of it is single-trajectory integration. "
        "Bypasses nothing."
    ),
    "sweep": (
        "Classified r-sweep of example 6.4 over [0, 0.2], 4-row slices from r = 0: equilibrium "
        "solves and classifiers. Bypasses simulate, so integrator changes must not move it."
    ),
    "ensemble": (
        "Seeded criterion-9 starts in the trapping box, cycled over 6.1-6.4: integrate plus "
        "monitor_invariance. Bypasses equilibria, so solver changes must not move it."
    ),
}

# (name, unit, better, bound). ok_frac is 1 - failed_frac: the gate needs a
# metric that is never 0, and failed_frac is 0 wherever nothing fails.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_ms_p50", "ms", "lower", 0.25),
    ("item_ms_p90", "ms", "lower", 0.25),
    ("ok_frac", "frac", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better), grouped by the end-to-end metric each should move:
# integrator -> items_per_s and item_ms_p50 on ensemble, item_ms_p50 on
# reproduce; coexistence solve -> items_per_s on sweep, item_ms_p90 on
# reproduce; scalar solves, classifiers and thresholds -> items_per_s on
# sweep; Lyapunov scans and the analysis/reproduction wrappers -> reproduce.
PER_LAYER = [
    ("simulate.integrate.calls", "count", "lower"),
    ("simulate.integrate.busy_s", "s", "lower"),
    ("simulate.integrate.self_s", "s", "lower"),
    ("simulate.integrate.accepted_steps", "count", "lower"),
    ("simulate.integrate.us_per_step", "us", "lower"),
    ("simulate.adaptive_rk45.self_s", "s", "lower"),
    ("simulate.monitor_invariance.busy_s", "s", "lower"),
    ("incidence.rate.calls", "count", "lower"),
    ("incidence.rate.busy_s", "s", "lower"),
    ("incidence.rate.calls_per_step", "calls/step", "lower"),
    ("model.field_norms.busy_s", "s", "lower"),
    ("equilibria.solve_coexistence.calls", "count", "lower"),
    ("equilibria.solve_coexistence.busy_s", "s", "lower"),
    ("equilibria.solve_coexistence.self_s", "s", "lower"),
    ("equilibria.solve_coexistence.found_frac", "frac", "higher"),
    ("equilibria.solve_coexistence.errors", "count", "lower"),
    ("equilibria.solve_coexistence.nested_integrate_calls", "count", "lower"),
    ("equilibria.solve_coexistence.nested_resolves", "count", "lower"),
    ("incidence.force.calls", "count", "lower"),
    ("equilibria.solve_strain1.calls", "count", "lower"),
    ("equilibria.solve_strain1.busy_s", "s", "lower"),
    ("equilibria.solve_strain2.calls", "count", "lower"),
    ("equilibria.solve_strain2.busy_s", "s", "lower"),
    ("equilibria.strain2_balance.calls", "count", "lower"),
    ("stability.classify_disease_free.busy_s", "s", "lower"),
    ("stability.classify_strain1.busy_s", "s", "lower"),
    ("stability.classify_strain2.busy_s", "s", "lower"),
    ("stability.classify_coexistence.busy_s", "s", "lower"),
    ("stability.eigen_classify.calls", "count", "lower"),
    ("model.jacobian.calls", "count", "lower"),
    ("stability.strain2_lyapunov_scan.busy_s", "s", "lower"),
    ("stability.coexistence_lyapunov_scan.busy_s", "s", "lower"),
    ("model.thresholds.calls", "count", "lower"),
    ("model.thresholds.busy_s", "s", "lower"),
    ("model.invasion_numbers.busy_s", "s", "lower"),
    ("analysis.sweep.busy_s", "s", "lower"),
    ("analysis.sweep.self_s", "s", "lower"),
    ("analysis.analyze.busy_s", "s", "lower"),
    ("analysis.analyze.self_s", "s", "lower"),
    ("analysis.render_report.busy_s", "s", "lower"),
    ("benchmarks.reproduce.busy_s", "s", "lower"),
    ("benchmarks.reproduce.self_s", "s", "lower"),
    ("benchmarks.reproduce.integrate_calls", "count", "lower"),
    ("benchmarks.reproduce.integrate_calls.6.1", "count", "lower"),
    ("benchmarks.reproduce.integrate_calls.6.2", "count", "lower"),
    ("benchmarks.reproduce.integrate_calls.6.3", "count", "lower"),
    ("benchmarks.reproduce.integrate_calls.6.4", "count", "lower"),
    ("benchmarks.render_reproduction.busy_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
