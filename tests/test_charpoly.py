"""The one characteristic-polynomial expansion against the paper's closed forms.

``stability._expand``, the one expansion routine, runs unchanged on sympy
object arrays, over the coefficient tables and over the minor tables. The
symbolic Jacobian carries the structural zeros of ``model.jacobian`` and
J[1, 0] = r. The closed forms are the coefficient term lists of the E1
cubic (a2, a1, a0), the E2 cubic (b2, b1, b0) and the E3 quartic (c1..c4),
and the Hurwitz composites built from them. Every generic coefficient and
minor expands to its closed form, and on criterion 5's random scenarios
every generic dead-band scale is the sum of |term| over the closed form's
terms. The expansion of a stack of Jacobians equals the expansion of each
one alone, bit for bit.
"""

import math

import numpy as np
import pytest
import sympy as sp
from conftest import random_cases

from twostrain.benchmarks import build_scenario
from twostrain.equilibria import solve_all
from twostrain.model import jacobian
from twostrain.stability import _COEFFICIENTS, _LEIBNIZ, _MINORS, KINDS, _expand, _sums, classify

C11, C13, C14, C22, C24, C31, C33, C41, C42, C44, r, mu = sp.symbols(
    "C11 C13 C14 C22 C24 C31 C33 C41 C42 C44 r mu"
)
ENTRIES = (C11, C13, C14, C22, C24, C31, C33, C41, C42, C44, r, mu)

# rows and columns (S, V1, I1, I2); zeros are structural in model.jacobian
JACOBIAN = sp.Matrix(
    [
        [C11, 0, C13, C14],
        [r, C22, 0, C24],
        [C31, 0, C33, 0],
        [C41, C42, 0, C44],
    ]
)

# block rows, entries fixed at the equilibrium, and the closed-form term
# list of each coefficient; at E1 I2 = 0, so J[1, 1] = -mu
CLOSED = {
    "E1": (
        [0, 1, 2],
        {C22: -mu},
        [
            [-C11, mu, -C33],
            [-mu * C11, -mu * C33, C11 * C33, -C13 * C31],
            [mu * C11 * C33, -mu * C13 * C31],
        ],
    ),
    "E2": (
        [0, 1, 3],
        {},
        [
            [-C11, -C22, -C44],
            [C22 * C11, C22 * C44, C11 * C44, -C14 * C41, -C24 * C42],
            [-C22 * C11 * C44, -r * C14 * C42, C14 * C22 * C41, C11 * C24 * C42],
        ],
    ),
    "E3": (
        [0, 1, 2, 3],
        {},
        [
            [-C44, -C33, -C22, -C11],
            [
                -C41 * C14,
                -C42 * C24,
                C44 * C33,
                C44 * C22,
                C44 * C11,
                -C31 * C13,
                C33 * C22,
                C33 * C11,
                C22 * C11,
            ],
            [
                -r * C42 * C14,
                C41 * C14 * C33,
                C41 * C14 * C22,
                C42 * C24 * C33,
                C42 * C24 * C11,
                C44 * C31 * C13,
                -C44 * C33 * C22,
                -C44 * C33 * C11,
                -C44 * C22 * C11,
                C31 * C13 * C22,
                -C33 * C22 * C11,
            ],
            [
                r * C42 * C14 * C33,
                -C41 * C14 * C33 * C22,
                C42 * C24 * C31 * C13,
                -C42 * C24 * C33 * C11,
                -C44 * C31 * C13 * C22,
                C44 * C33 * C22 * C11,
            ],
        ],
    ),
}


def composite_terms(c):
    """Term lists of the Hurwitz composites of x^n + c[0]*x^(n-1) + ... + c[n-1]."""
    if len(c) == 3:  # a2*a1 - a0
        return [[c[0] * c[1], -c[2]]]
    c1, c2, c3, c4 = c  # c1*c2 - c3 and c1*c2*c3 - c3^2 - c1^2*c4
    return [[c1 * c2, -c3], [c1 * c2 * c3, -c3 * c3, -c1 * c1 * c4]]


def symbolic_jacobian(kind):
    """The symbolic Jacobian at ``kind`` as a one-matrix object stack."""
    _, fixed, _ = CLOSED[kind]
    return np.array(JACOBIAN.subs(fixed).tolist(), dtype=object)[None]


def charpoly(J, kinds):
    return _expand(J.reshape(len(J), 16), _COEFFICIENTS, kinds)


def expansion(J, kinds):
    """Each matrix's coefficients then minors, as (values, scales) row lists."""
    c, c_scales = charpoly(J, kinds)
    minors, minor_scales = _expand(c, _MINORS, kinds)
    n = [len(KINDS[kind].block) for kind in kinds]
    for i, k in enumerate(n):  # a padded slot reads exactly 1
        padded = [*c[i, k:], *minors[i, k - 2 :], *c_scales[i, k:], *minor_scales[i, k - 2 :]]
        assert padded == [1.0] * len(padded)
    values = [list(c[i, :k]) + list(minors[i, : k - 2]) for i, k in enumerate(n)]
    scales = [list(c_scales[i, :k]) + list(minor_scales[i, : k - 2]) for i, k in enumerate(n)]
    return values, scales


@pytest.mark.parametrize("kind", sorted(CLOSED))
def test_generic_coefficients_expand_to_the_closed_forms(kind):
    closed = CLOSED[kind][2]
    coefficients, minors = _sums(KINDS[kind])
    assert len(coefficients) == len(closed)
    assert len(coefficients) + len(minors) == len(KINDS[kind].names)
    values, scales = (x[0] for x in charpoly(symbolic_jacobian(kind), [kind]))
    # a padded slot, which classify_batch tests with the rest, reads exactly 1
    assert list(values[len(closed) :]) == list(scales[len(closed) :]) == [1] * (len(values) - len(closed))
    for value, scale, terms in zip(values, scales, closed):
        assert sp.expand(value - sp.Add(*terms)) == 0
        assert sp.expand(scale - sp.Add(*map(sp.Abs, terms))) == 0


@pytest.mark.parametrize("kind", sorted(CLOSED))
def test_generic_hurwitz_minors_expand_to_the_composites(kind):
    closed = [sp.Add(*terms) for terms in CLOSED[kind][2]]
    coefficients = sp.symbols("x1:%d" % (len(closed) + 1))
    source = np.array([[*coefficients, 1][:4]], dtype=object)
    composites = composite_terms(coefficients)
    assert len(_sums(KINDS[kind])[1]) == len(composites)
    values, scales = (x[0] for x in _expand(source, _MINORS, [kind]))
    padding = [1] * (len(values) - len(composites))
    assert list(values[len(composites) :]) == list(scales[len(composites) :]) == padding
    for value, scale, terms in zip(values, scales, composites):
        assert sp.expand(value - sp.Add(*terms)) == 0
        assert sp.expand(scale - sp.Add(*map(sp.Abs, terms))) == 0
    # and in the Jacobian entries, through the generic coefficients
    generic, _ = charpoly(symbolic_jacobian(kind), [kind])
    values, scales = (x[0] for x in _expand(generic, _MINORS, [kind]))
    assert list(values[len(composites) :]) == list(scales[len(composites) :]) == padding
    for value, terms in zip(values, composite_terms(closed)):
        assert sp.expand(value - sp.Add(*terms)) == 0


def test_symbolic_jacobian_has_the_structure_of_model_jacobian():
    sc = build_scenario("6.4")
    p, inc1, inc2 = sc.params, sc.incidence1, sc.incidence2
    zeros = np.array(JACOBIAN.subs({s: 1 for s in ENTRIES}).tolist(), float) == 0.0
    rng = np.random.default_rng(5)
    for state in rng.uniform(1.0, 3000.0, size=(20, 4)):
        J = jacobian(p, inc1, inc2, state)
        assert np.all(J[zeros] == 0.0)
        assert J[1, 0] == p.r
    eqs = solve_all(p, inc1, inc2)
    # the row left out of each block decouples: its other entries vanish
    assert np.all(jacobian(p, inc1, inc2, eqs.E1[0].point)[3, :3] == 0.0)
    assert jacobian(p, inc1, inc2, eqs.E1[0].point)[1, 1] == -p.mu
    assert np.all(jacobian(p, inc1, inc2, eqs.E2[0].point)[2, [0, 1, 3]] == 0.0)


def test_generic_scales_equal_closed_form_term_sums():
    evaluate = {
        kind: sp.lambdify(ENTRIES, CLOSED[kind][2], "math") for kind in CLOSED
    }
    checked = dict.fromkeys(CLOSED, 0)
    for p, inc1, inc2 in random_cases(1105, 200):
        eqs = solve_all(p, inc1, inc2)
        for eq in eqs.all[1:]:
            J = jacobian(p, inc1, inc2, eq.point)
            (values,), (scales,) = expansion(J[None], [eq.kind])
            entries = [J[0, 0], J[0, 2], J[0, 3], J[1, 1], J[1, 3], J[2, 0], J[2, 2]]
            entries += [J[3, 0], J[3, 1], J[3, 3], p.r, p.mu]
            closed = evaluate[eq.kind](*entries)
            closed += composite_terms(values[: len(closed)])
            for value, scale, terms in zip(values, scales, closed):
                magnitude = sum(abs(t) for t in terms)
                assert scale == pytest.approx(magnitude, rel=1e-14, abs=0.0)
                assert abs(value - sum(terms)) <= 1e-14 * scale
            report = classify(p, inc1, inc2, eq)
            assert list(report.coefficients.values()) == values
            checked[eq.kind] += 1
    assert min(checked.values()) >= 20, checked


def test_stacked_expansion_equals_each_one_row_expansion():
    stack, kinds = [], []
    for p, inc1, inc2 in random_cases(1105, 200):
        for eq in solve_all(p, inc1, inc2).all[1:]:
            stack.append(jacobian(p, inc1, inc2, eq.point))
            kinds.append(eq.kind)
    assert set(kinds) == set(KINDS)
    J = np.array(stack)
    c, c_scales = charpoly(J, kinds)
    minors, minor_scales = _expand(c, _MINORS, kinds)
    for i, kind in enumerate(kinds):
        one_c, one_c_scales = charpoly(J[i : i + 1], [kind])
        one_minors, one_minor_scales = _expand(one_c, _MINORS, [kind])
        assert one_c.tobytes() == c[i : i + 1].tobytes()
        assert one_c_scales.tobytes() == c_scales[i : i + 1].tobytes()
        assert one_minors.tobytes() == minors[i : i + 1].tobytes()
        assert one_minor_scales.tobytes() == minor_scales[i : i + 1].tobytes()


def python_charpoly(M):
    """The reference: the coefficients c1..cn of det(x*I - M) and their
    scales, as Python sums over the Leibniz terms of a list of rows."""
    n = len(M)
    values, scales = [0] * n, [0] * n
    for k, sign, factors in _LEIBNIZ[n]:
        term = sign * math.prod(M[i][j] for i, j in factors)
        values[k - 1] += term
        scales[k - 1] += abs(term)
    return values, scales


def python_minors(c):
    """The reference: the leading Hurwitz minors D2..D(n-1) and their scales."""
    n = len(c)
    a = [1, *c] + [0] * n
    hurwitz = [[a[2 * j - i + 1] for j in range(n)] for i in range(n)]
    values, scales = [], []
    for k in range(2, n):
        minor_values, minor_scales = python_charpoly([row[:k] for row in hurwitz[:k]])
        values.append((-1) ** k * minor_values[-1])
        scales.append(minor_scales[-1])
    return values, scales


def test_expansion_is_the_python_sum_of_its_terms_bit_for_bit():
    stack, kinds = [], []
    for p, inc1, inc2 in random_cases(1105, 200):
        for eq in solve_all(p, inc1, inc2).all[1:]:
            stack.append(jacobian(p, inc1, inc2, eq.point))
            kinds.append(eq.kind)
    values, scales = expansion(np.array(stack), kinds)
    for J, kind, value, scale in zip(stack, kinds, values, scales):
        block = KINDS[kind].block
        c, c_scales = python_charpoly(J[np.ix_(block, block)].tolist())
        minors, minor_scales = python_minors(c)
        assert [float(x).hex() for x in value] == [float(x).hex() for x in c + minors]
        assert [float(x).hex() for x in scale] == [float(x).hex() for x in c_scales + minor_scales]
