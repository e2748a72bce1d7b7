"""The worked examples' expected-value tables and their name resolver.

``benchmarks._computed`` reads each table row's check name off the analysis
report. The oracle is the set of getters that were written by hand for each
check, one per name, and the check lists that ``reproduce`` built from them.
"""

import pytest

from twostrain.analysis import _first
from twostrain.benchmarks import (
    _CERTIFIED,
    _PUBLISHED,
    EXAMPLE_IDS,
    _computed,
    reproduce,
)

GETTERS = {
    "R1": lambda rep: rep.thresholds.R1,
    "R2": lambda rep: rep.thresholds.R2,
    "R2_invasion": lambda rep: rep.thresholds.R2_invasion,
    "R1_invasion": lambda rep: rep.thresholds.R1_invasion,
    "S0": lambda rep: rep.scenario.params.susceptible_cap,
    "V10": lambda rep: rep.scenario.params.vaccinated_cap,
    "E1.S": lambda rep: _first(rep.equilibria, "E1").point.S,
    "E1.V1": lambda rep: _first(rep.equilibria, "E1").point.V1,
    "E1.I1": lambda rep: _first(rep.equilibria, "E1").point.I1,
    "E2.S": lambda rep: _first(rep.equilibria, "E2").point.S,
    "E2.V1": lambda rep: _first(rep.equilibria, "E2").point.V1,
    "E2.I2": lambda rep: _first(rep.equilibria, "E2").point.I2,
    "E3.S": lambda rep: _first(rep.equilibria, "E3").point.S,
    "E3.V1": lambda rep: _first(rep.equilibria, "E3").point.V1,
    "E3.I1": lambda rep: _first(rep.equilibria, "E3").point.I1,
    "E3.I2": lambda rep: _first(rep.equilibria, "E3").point.I2,
    "E3.c1": lambda rep: _first(rep.stability, "E3").coefficients["c1"],
    "E3.c2": lambda rep: _first(rep.stability, "E3").coefficients["c2"],
    "E3.c3": lambda rep: _first(rep.stability, "E3").coefficients["c3"],
    "E3.c4": lambda rep: _first(rep.stability, "E3").coefficients["c4"],
}

# (name, source, expected, rel_tol, published text of a certified value)
FORMER_CHECKS = {
    "6.1": [
        ("R1", "published", 0.2632, 5e-3, None),
        ("R2", "published", 0.7947, 5e-3, None),
        ("S0", "published", 1667.0, 5e-3, None),
        ("V10", "published", 8333.0, 5e-3, None),
    ],
    "6.2": [
        ("R1", "published", 1.7544, 5e-3, None),
        ("R2", "published", 0.7947, 5e-3, None),
        ("E1.S", "published", 950.0, 1e-3, None),
        ("E1.I1", "certified", 452.6315789473683, 1e-6, "253"),
        ("E1.V1", "certified", 4750.0, 1e-6, "4737"),
    ],
    "6.3": [
        ("R1", "published", 0.2632, 5e-3, None),
        ("R2", "published", 1.3889, 5e-3, None),
        ("E2.S", "published", 1314.0, 1.5e-2, None),
        ("E2.V1", "published", 4814.0, 1.5e-2, None),
        ("E2.I2", "published", 368.0, 1.5e-2, None),
    ],
    "6.4": [
        ("R1", "published", 7.0175, 1e-2, None),
        ("R2", "published", 4.1270, 1e-2, None),
        ("R2_invasion", "published", 3.555, 1e-2, None),
        ("R1_invasion", "published", 1.194, 1e-2, None),
        ("E1.S", "published", 5310.0, 5e-3, None),
        ("E1.V1", "published", 2655.0, 5e-3, None),
        ("E2.S", "published", 1134.0, 5e-3, None),
        ("E3.S", "published", 1133.0, 1.5e-2, None),
        ("E3.V1", "published", 320.0, 1.5e-2, None),
        ("E3.I1", "published", 44.0, 1.5e-2, None),
        ("E3.I2", "published", 774.0, 1.5e-2, None),
        ("E3.c1", "certified", 0.2592811352935187, 1e-6, "0.2501"),
        ("E3.c2", "certified", 0.044404900159116995, 1e-6, "0.0171"),
        ("E3.c3", "certified", 0.0029084972347433904, 1e-6, "3.4759e-04"),
        ("E3.c4", "certified", 5.853413767019629e-05, 1e-6, "3.4759x3.9242 10^{-06} (malformed)"),
        ("E3.c4 (spectrum product)", "certified", 5.853413767019629e-05, 1e-6, None),
    ],
}

DISCREPANCY = (
    "published reference value %s is inconsistent with the formulas "
    "published alongside it; certified value %.10g asserted instead"
)


@pytest.fixture(scope="module", params=EXAMPLE_IDS)
def result(request):
    return reproduce(request.param, grid=7)


def table_names(example_id):
    rows = _PUBLISHED[example_id] + _CERTIFIED.get(example_id, ())
    return [row[0] for row in rows]


def test_every_table_name_has_a_getter():
    names = {name for example_id in EXAMPLE_IDS for name in table_names(example_id)}
    assert names == set(GETTERS)


def test_resolver_equals_the_getters_bit_for_bit(result):
    for name in table_names(result.example_id):
        computed, former = _computed(result.report, name), GETTERS[name](result.report)
        assert type(computed) is type(former) is float
        assert computed.hex() == former.hex(), name


def test_check_list_equals_the_former_one(result):
    checks = [
        (c.name, c.source, c.expected, c.rel_tol, c.discrepancy) for c in result.checks
    ]
    assert checks == [
        (name, source, expected, rel_tol,
         "" if published is None else DISCREPANCY % (published, expected))
        for name, source, expected, rel_tol, published in FORMER_CHECKS[result.example_id]
    ]


def test_each_check_reads_its_getter(result):
    for check in result.checks:
        if check.name in GETTERS:
            assert check.actual.hex() == GETTERS[check.name](result.report).hex(), check.name
