"""The reproduction number against sympy derivatives of the field.

``model.bound_field`` runs unchanged on sympy symbols, with each built-in
family's rate written out here by hand. The I_j row of the field,
differentiated in I_j and taken at I_j = 0, is the eigenvalue of that
decoupled row: alpha_j*(R_j - 1). On criterion 5's random scenarios,
``model.reproduction_number`` must equal 1 + that derivative over alpha_j
for both strains at E0 and at every E1 and E2 root. The E0 report must
print R1 and R2, and every boundary report the invasion number that
``invasion_numbers`` gives.
"""

import types

import pytest
import sympy as sp
from conftest import random_cases

from twostrain.equilibria import solve_all
from twostrain.model import PARAM_NAMES, bound_field, invasion_numbers, reproduction_number
from twostrain.stability import classify

S, V1, I1, I2, beta, zeta = sp.symbols("S V1 I1 I2 beta zeta")
PARAMS = sp.symbols(PARAM_NAMES)
Lambda, mu, r, k, gamma1, gamma2, v1, v2 = PARAMS

# the model's parameter object, symbolic
P = types.SimpleNamespace(
    Lambda=Lambda, mu=mu, r=r, k=k, lam=r + mu, gamma1=gamma1, gamma2=gamma2,
    alpha1=gamma1 + v1 + mu, alpha2=gamma2 + v2 + mu,
)

RATES = {
    "bilinear": lambda S, I: beta * S * I,
    "saturated_s": lambda S, I: beta * S * I / (1 + zeta * S),
    "saturated_i2": lambda S, I: beta * S * I / (1 + zeta * I**2),
}


def growth_at_absence(family, strain):
    """d(I_j')/d(I_j) at I_j = 0 as a function of (S, V1, params, beta, zeta)."""
    rate = RATES[family]
    # the other strain's rate cannot enter the I_j row
    rates = (rate, lambda S, I: 0) if strain == 1 else (lambda S, I: 0, rate)
    I = (I1, I2)[strain - 1]
    row = bound_field(P, *rates)(0, (S, V1, I1, I2))[1 + strain]
    slope = sp.diff(row, I).subs(I, 0)
    assert slope.free_symbols <= {S, V1, beta, zeta, *PARAMS}
    return sp.lambdify((S, V1, *PARAMS, beta, zeta), slope, "math")


SLOPES = {(family, strain): growth_at_absence(family, strain) for family in RATES for strain in (1, 2)}


def test_symbolic_slope_is_the_growth_rate_minus_alpha():
    # strain 2 alone picks up the vaccinated-class route k*V1
    row2 = bound_field(P, lambda S, I: 0, RATES["bilinear"])(0, (S, V1, I1, I2))[3]
    assert sp.expand(sp.diff(row2, I2).subs(I2, 0) - (beta * S + k * V1 - P.alpha2)) == 0
    row1 = bound_field(P, RATES["saturated_i2"], lambda S, I: 0)(0, (S, V1, I1, I2))[2]
    assert sp.simplify(sp.diff(row1, I1).subs(I1, 0) - (beta * S - P.alpha1)) == 0


def test_reproduction_number_matches_the_field_and_the_reports():
    checked = {"E0": 0, "E1": 0, "E2": 0}
    for p, inc1, inc2 in random_cases(1105, 200):
        eqs = solve_all(p, inc1, inc2)
        values = [getattr(p, name) for name in PARAM_NAMES]
        for eq in (eqs.E0, *eqs.E1, *eqs.E2):
            pt = eq.point
            numbers = []
            for strain, inc, alpha in ((1, inc1, p.alpha1), (2, inc2, p.alpha2)):
                slope = SLOPES[inc.family, strain](pt.S, pt.V1, *values, inc.beta, inc.zeta)
                numbers.append(reproduction_number(p, inc, strain, pt.S, pt.V1))
                assert numbers[-1] == pytest.approx(1.0 + slope / alpha, rel=1e-12, abs=0.0)
            if eq.kind == "E0":
                assert numbers == [eqs.thresholds.R1, eqs.thresholds.R2]
                notes = classify(p, inc1, inc2, eq).notes
                assert len(notes) == 2
                for strain, note, number in zip((1, 2), notes, numbers):
                    assert note.startswith("invasion eigenvalue alpha%d*(R%d - 1) = " % (strain, strain)), note
                    assert note.endswith("(R%d = %.6g)" % (strain, number)), note
            checked[eq.kind] += 1

        for roots, arg, index, name, first in (
            (eqs.E1, "e1", 0, "R2_invasion", eqs.thresholds.R2_invasion),
            (eqs.E2, "e2", 1, "R1_invasion", eqs.thresholds.R1_invasion),
        ):
            for i, eq in enumerate(roots):
                number = invasion_numbers(p, inc1, inc2, **{arg: eq})[index]
                note = classify(p, inc1, inc2, eq).notes[-1]
                assert note.endswith("(%s = %.6g)" % (name, number)), note
                assert i > 0 or number == first
    assert min(checked.values()) >= 20, checked
