"""The three workloads: seeded item streams, the package call per item, and
the check of its output.

Each workload is built by ``build(name, seed)``; building imports
``twostrain`` and makes every input, which is what ``setup_s`` times. The
package sees only the generated inputs, never the seed. ``run(item)`` is the
timed call into the package; ``check(item, output)`` is not timed.

All calls go through module attributes (``tw.simulate.integrate``), so a
tracer that rebinds those attributes sees them.
"""

import hashlib
from dataclasses import dataclass

#: slices per pass over [0, 0.2] and rows per slice: 40 rows per pass.
#: Within a slice each row warm-starts the coexistence solve from the last
#: one, so the slice length is part of the workload: with four-row slices
#: only the r = 0 row fails (two-row slices also fail at r = 0.03 and 0.035,
#: whose cold starts do not converge).
SWEEP_SLICES = 10
SWEEP_ROWS = 4
SWEEP_WIDTH = 0.02

#: item streams are this many passes long and then repeat
STREAM_PASSES = 256


@dataclass
class Outcome:
    ops: int  # operations attempted: replays, sweep rows or trajectories
    failed: int  # operations whose output check missed
    known: int  # of those, the documented r = 0 sweep defect
    digest: str  # hash of the full output, to compare traced and untraced runs


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


class Reproduce:
    """``benchmarks.reproduce(id)`` plus ``render_reproduction``, as the
    ``reproduce all`` verb does apart from writing the file."""

    pass_size = 4
    trace_items = 4

    def __init__(self, tw, rng):
        self.tw = tw
        ids = tw.EXAMPLE_IDS
        self.items = [ids[j] for _ in range(STREAM_PASSES) for j in rng.permutation(len(ids))]

    def run(self, example_id):
        result = self.tw.benchmarks.reproduce(example_id)
        return result, self.tw.benchmarks.render_reproduction(result)

    def check(self, example_id, output):
        result, text = output
        points = [eq.point for eq in result.report.equilibria]
        return Outcome(1, 0 if result.all_pass else 1, 0, _digest(text, points))


class Sweep:
    """Classified ``analysis.sweep`` of example 6.4 along r, one slice per
    item. Slice j covers [j*w, (j+1)*w) with w = SWEEP_WIDTH; slice 0 starts
    at r = 0, where the coexistence solve fails (V1 = 0 is rejected although
    both invasion numbers exceed 1). That row is counted as failed."""

    pass_size = SWEEP_SLICES
    trace_items = SWEEP_SLICES

    def __init__(self, tw, rng):
        self.tw = tw
        self.scenario = tw.benchmarks.build_scenario("6.4")
        self.items = [
            int(j) for _ in range(STREAM_PASSES) for j in rng.permutation(SWEEP_SLICES)
        ]

    def run(self, j):
        start = j * SWEEP_WIDTH
        stop = start + (SWEEP_ROWS - 1) * SWEEP_WIDTH / SWEEP_ROWS
        return self.tw.analysis.sweep(self.scenario, "r", start, stop, SWEEP_ROWS)

    def check(self, j, rows):
        failed = known = 0
        for row in rows:
            flags_ok = row.exists["E1"] == (row.R1 > 1.0) and row.exists["E2"] == (row.R2 > 1.0)
            solved = row.verdicts["E3"] != "solve failed"
            if not (flags_ok and solved):
                failed += 1
                known += flags_ok and row.value == 0.0
        return Outcome(len(rows), failed, known, _digest(rows))


class Ensemble:
    """``simulate.integrate`` plus ``monitor_invariance`` from random starts
    drawn as in acceptance criterion 9, cycled over the four examples."""

    pass_size = 4
    trace_items = 8
    n_starts = 1024

    def __init__(self, tw, rng):
        self.tw = tw
        self.scenarios = [tw.benchmarks.build_scenario(e) for e in tw.EXAMPLE_IDS]
        self.starts = []
        for i in range(self.n_starts):
            cap = self.scenarios[i % len(self.scenarios)].params.population_cap
            shares = rng.exponential(1.0, 4)
            self.starts.append(shares / shares.sum() * rng.uniform(0.0, 1.0) * cap)
        self.items = list(range(self.n_starts))

    def run(self, i):
        sc = self.scenarios[i % len(self.scenarios)]
        traj = self.tw.simulate.integrate(
            sc.params, sc.incidence1, sc.incidence2, self.starts[i], sc.integrator
        )
        return traj, self.tw.simulate.monitor_invariance(traj, sc.params)

    def check(self, i, output):
        traj, inv = output
        sc = self.scenarios[i % len(self.scenarios)]
        low = float(traj.states.min())
        ok = (
            low >= 0.0
            and low >= -sc.integrator.atol
            and not any(e.kind == "tolerance_failure" for e in traj.events)
            and inv.first_omega_violation is None
            and inv.first_omega1_violation is None
            and inv.final_total <= sc.params.population_cap * (1.0 + 1e-3)
        )
        digest = _digest(traj.times.tobytes(), traj.states.tobytes(), traj.events, inv)
        return Outcome(1, 0 if ok else 1, 0, digest)


WORKLOADS = {"reproduce": Reproduce, "sweep": Sweep, "ensemble": Ensemble}


def build(name: str, seed: int):
    """Import the package and make the seeded inputs of one workload."""
    import numpy as np

    import twostrain as tw

    return WORKLOADS[name](tw, np.random.default_rng(seed))


def failed_item(workload) -> Outcome:
    """Outcome of an item whose package call raised: every operation missed."""
    ops = SWEEP_ROWS if isinstance(workload, Sweep) else 1
    return Outcome(ops, ops, 0, "raised")
