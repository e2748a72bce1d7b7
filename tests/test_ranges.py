"""The one range rule for named numeric inputs, against the four checks it replaced.

Each site's former predicate is kept here as the oracle: a value is
accepted if and only if the oracle accepts it, and a refusal is one
ValueError naming exactly the inputs the oracle refuses, in declaration
order.
"""

import math

import numpy as np
import pytest

from twostrain.incidence import IncidenceSpec
from twostrain.model import PARAM_NAMES, ModelParams
from twostrain.simulate import IntegratorOptions, adaptive_rk45

VALUES = [1.0, 1e-300, 5e-324, 0.0, -0.0, -1.0, math.inf, -math.inf, math.nan]
OPTION_NAMES = ("rtol", "atol", "t_end", "max_step", "convergence_tol", "tail_window")


def model_ok(name, v):
    # ModelParams' loop: finite and >= 0, Lambda and mu > 0
    return bool(np.isfinite(v)) and not v < 0.0 and not (name in ("Lambda", "mu") and v <= 0.0)


def options_ok(zero_ok):
    # simulate._check_options: > 0, or 0 for zero_ok, and finite, or infinite for max_step
    return lambda name, v: (v > 0.0 or (v == 0.0 and name in zero_ok)) and (
        math.isfinite(v) or name == "max_step"
    )


def coefficient_ok(name, v):
    # incidence._check_coefficients: beta finite and > 0, zeta finite and >= 0
    return bool(np.isfinite(v)) and (v > 0.0 if name == "beta" else v >= 0.0)


def bound_ok(name, v):
    # check_hypotheses' own test
    return 0.0 < v < np.inf


class Evaluated(Exception):
    """Raised by a right-hand side: the integrator accepted its options."""


def run_rk45(values):
    def rhs(t, y):
        raise Evaluated

    try:
        adaptive_rk45(rhs, [1.0], **values)
    except Evaluated:
        pass


def check_bounds(values):
    # n_grid = 0 is refused only after the bounds are accepted
    try:
        IncidenceSpec.saturated_s(2e-4, 0.9).check_hypotheses(**values, n_grid=0)
    except ValueError as exc:
        if not str(exc).startswith("n_grid must be"):
            raise


SITES = {
    "ModelParams": ("model parameters", PARAM_NAMES, model_ok, lambda v: ModelParams(**v)),
    "IntegratorOptions": (
        "integrator options", OPTION_NAMES, options_ok(()), lambda v: IntegratorOptions(**v)
    ),
    "adaptive_rk45": (
        "integrator options", ("t_end", "rtol", "atol", "max_step"), options_ok(("t_end", "rtol")), run_rk45
    ),
    "IncidenceSpec": (
        "incidence coefficients", ("beta", "zeta"), coefficient_ok,
        lambda v: IncidenceSpec("saturated_s", **v),
    ),
    "check_hypotheses": ("hypothesis-check bounds", ("S_max", "I_max"), bound_ok, check_bounds),
}


def refused(build, values):
    """The message of the site's refusal of ``values``, or None if it accepts them."""
    try:
        build(values)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("site", list(SITES))
def test_refusals_match_the_former_checks(site, value):
    what, names, ok, build = SITES[site]
    for name in names:
        # alone, then beside a second name at -1, which every site refuses
        for other in (None,) + tuple(n for n in names if n != name):
            values = dict.fromkeys(names, 1.0)
            values[name] = value
            if other is not None:
                values[other] = -1.0
            bad = [n for n in names if n == other or (n == name and not ok(name, value))]
            expected = "invalid %s: %s" % (what, ", ".join(bad)) if bad else None
            assert refused(build, values) == expected, (name, other)


def test_model_parameters_are_named_in_declaration_order():
    values = dict.fromkeys(PARAM_NAMES, 1.0)
    values.update(Lambda=0.0, r=-1.0, mu=0.0)
    with pytest.raises(ValueError, match="invalid model parameters: Lambda, mu, r$"):
        ModelParams(**values)


@pytest.mark.parametrize("site", ["ModelParams", "IntegratorOptions", "IncidenceSpec"])
def test_an_array_is_refused_by_name(site):
    # an array of one or more dimensions is refused, not compared; a numpy
    # scalar, a 0-d array and an int are accepted as a float is
    what, names, _, build = SITES[site]
    for name in names:
        for array in (np.array([1.0, 2.0]), np.array([1.0]), np.ones((2, 2))):
            values = dict.fromkeys(names, 1.0)
            values[name] = array
            assert refused(build, values) == "invalid %s: %s" % (what, name)
        for scalar in (np.float64(1.0), np.array(1.0), 1):
            values[name] = scalar
            assert refused(build, values) is None
    values = dict.fromkeys(names, np.array([1.0, 2.0]))
    assert refused(build, values) == "invalid %s: %s" % (what, ", ".join(names))
