"""Exact work counts on fixed inputs: a change that moves one changes what
the solver or the integrator does, and says so with the old and new counts."""

import pytest

from conftest import trapping_box_starts
from twostrain import analysis
from twostrain.benchmarks import build_scenario, reproduce
from twostrain.simulate import integrate


def test_classified_sweep_scan_counts(monkeypatch):
    # the summed ScanStats (nodes, brackets, rounds) of each balance over the
    # 41 rows of example 6.4's classified r-sweep on [0, 0.2]
    solved, solve_batch = [], analysis.solve_batch

    def recorded(cases):
        solved.extend(solve_batch(cases))
        return solved

    monkeypatch.setattr(analysis, "solve_batch", recorded)
    rows = analysis.sweep(build_scenario("6.4"), "r", 0.0, 0.2, 41)
    assert len(rows) == len(solved) == 41
    sums = {
        kind: tuple(map(sum, zip(*(getattr(eqs.stats, kind) for eqs in solved))))
        for kind in ("E1", "E2", "E3_cap", "E3")
    }
    assert sums == {
        "E1": (159783, 39, 85),
        "E2": (167977, 41, 82),
        "E3_cap": (39, 0, 0),  # two rows have R1 <= 1; the others' cap end value is positive
        "E3": (159783, 15, 30),
    }


@pytest.mark.parametrize(
    "example, counts",
    [
        ("6.1", {"E1": (0, 0, 0), "E2": (0, 0, 0), "E3_cap": (0, 0, 0), "E3": (0, 0, 0)}),
        ("6.2", {"E1": (4097, 1, 2), "E2": (0, 0, 0), "E3_cap": (0, 0, 0), "E3": (0, 0, 0)}),
        ("6.3", {"E1": (0, 0, 0), "E2": (4097, 1, 2), "E3_cap": (0, 0, 0), "E3": (0, 0, 0)}),
        ("6.4", {"E1": (4097, 1, 2), "E2": (4097, 1, 2), "E3_cap": (1, 0, 0), "E3": (4097, 1, 2)}),
    ],
)
def test_reproduce_scan_counts(monkeypatch, example, counts):
    # each balance's ScanStats (nodes, brackets, rounds) in the one solve of
    # a worked example's replay; a balance with R <= 1 is not scanned, nor
    # are E3's with R1 <= 1 or R2 <= 1; E3_cap (1, 0, 0) is its end value alone
    solved, solve_all = [], analysis.solve_all

    def recorded(*case):
        solved.append(solve_all(*case))
        return solved[-1]

    monkeypatch.setattr(analysis, "solve_all", recorded)
    assert reproduce(example).all_pass
    (eqs,) = solved
    assert eqs.stats.rows == 1
    assert {kind: tuple(getattr(eqs.stats, kind)) for kind in counts} == counts


@pytest.mark.parametrize(
    "example, counts",
    [("6.1", (2384, 395, 2)), ("6.2", (2258, 374, 2)), ("6.3", (2948, 490, 1)), ("6.4", (2444, 406, 1))],
)
def test_default_start_integrator_counts(example, counts):
    # rhs evaluations, accepted and rejected steps from the scenario's start
    sc = build_scenario(example)
    st = integrate(sc.params, sc.incidence1, sc.incidence2, sc.initial, sc.integrator).stats
    assert (st.rhs_evals, st.accepted_steps, st.rejected_steps) == counts


@pytest.mark.parametrize(
    "seed, example, counts",
    [
        (901, "6.1", (265808, 44143, 125)),
        (902, "6.2", (244472, 40567, 145)),
        (903, "6.3", (296534, 49257, 132)),
        (904, "6.4", (235760, 39134, 126)),
    ],
)
def test_criterion_9_integrator_counts(seed, example, counts):
    # rhs evaluations, accepted and rejected steps summed over criterion 9's
    # 100 seeded starts in the example's trapping box
    sc = build_scenario(example)
    runs = []
    for x0 in trapping_box_starts(seed, sc.params.population_cap, 100):
        st = integrate(sc.params, sc.incidence1, sc.incidence2, x0, sc.integrator).stats
        runs.append((st.rhs_evals, st.accepted_steps, st.rejected_steps))
    assert tuple(map(sum, zip(*runs))) == counts
