"""The compiled Routh-Hurwitz sums against the paper's closed forms.

``stability._quantities(kind)`` runs unchanged on the 16 entries of a
flattened sympy Jacobian. The symbolic Jacobian carries the structural
zeros of ``model.jacobian`` and J[1, 0] = r. The closed forms are the
coefficient term lists of the E1 cubic (a2, a1, a0), the E2 cubic (b2, b1,
b0) and the E3 quartic (c1..c4), and the Hurwitz composites built from
them. Every generic coefficient and minor expands to its closed form; on a
companion matrix with free coefficients every minor and its scale are the
composite and the sum of |term| over its terms; and on criterion 5's
random scenarios every generic dead-band scale is the sum of |term| over
the closed form's terms, and every value and scale is the Python sum of
its Leibniz terms bit for bit; E0's empty block gives none.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp
from conftest import random_cases

from twostrain.benchmarks import build_scenario
from twostrain.equilibria import solve_all
from twostrain.model import jacobian
from twostrain.stability import _LEIBNIZ, KINDS, _quantities, _sums, classify

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
    """The 16 entries of the symbolic Jacobian at ``kind``, row by row."""
    _, fixed, _ = CLOSED[kind]
    return list(JACOBIAN.subs(fixed))


def companion(kind, coefficients):
    """The 16 entries of a matrix whose ``kind`` block is the companion
    matrix of x^n + coefficients[0]*x^(n-1) + ..., zero elsewhere."""
    block, n = KINDS[kind].block, len(coefficients)
    M = sp.zeros(4, 4)
    for j, c in enumerate(coefficients):
        M[block[0], block[j]] = -c
    for i in range(1, n):
        M[block[i], block[i - 1]] = 1
    return list(M)


@pytest.mark.parametrize("kind", sorted(CLOSED))
def test_generic_coefficients_expand_to_the_closed_forms(kind):
    closed = CLOSED[kind][2]
    coefficients, minors = _sums(KINDS[kind])
    assert len(coefficients) == len(closed)
    assert len(coefficients) + len(minors) == len(KINDS[kind].names)
    values, scales = _quantities(kind)(symbolic_jacobian(kind))
    assert len(values) == len(scales) == len(KINDS[kind].names)
    for value, scale, terms in zip(values, scales, closed):
        assert sp.expand(value - sp.Add(*terms)) == 0
        assert sp.expand(scale - sp.Add(*map(sp.Abs, terms))) == 0


@pytest.mark.parametrize("kind", sorted(CLOSED))
def test_generic_hurwitz_minors_expand_to_the_composites(kind):
    closed = [sp.Add(*terms) for terms in CLOSED[kind][2]]
    coefficients = sp.symbols("x1:%d" % (len(closed) + 1))
    composites = composite_terms(coefficients)
    assert len(_sums(KINDS[kind])[1]) == len(composites)
    # over free coefficients, read off a companion block
    values, scales = _quantities(kind)(companion(kind, coefficients))
    assert list(values[: len(closed)]) == list(coefficients)
    for value, scale, terms in zip(values[len(closed) :], scales[len(closed) :], composites):
        assert sp.expand(value - sp.Add(*terms)) == 0
        assert sp.expand(scale - sp.Add(*map(sp.Abs, terms))) == 0
    # and in the Jacobian entries, through the generic coefficients
    values, _ = _quantities(kind)(symbolic_jacobian(kind))
    for value, terms in zip(values[len(closed) :], composite_terms(closed)):
        assert sp.expand(value - sp.Add(*terms)) == 0


def test_each_kind_is_compiled_once_on_first_use():
    # importing the package compiles none, so a run that never classifies
    # (the ensemble) never pays for them
    code = "import twostrain.stability as s; print(s._quantities.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
    for kind in KINDS:
        assert _quantities(kind) is _quantities(kind)
        assert _quantities(kind).__code__.co_filename == "<stability quantities, %s>" % kind
        assert _quantities(kind).source.startswith("def quantities(j):\n")


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
            values, scales = _quantities(eq.kind)(J.ravel().tolist())
            entries = [J[0, 0], J[0, 2], J[0, 3], J[1, 1], J[1, 3], J[2, 0], J[2, 2]]
            entries += [J[3, 0], J[3, 1], J[3, 3], p.r, p.mu]
            closed = evaluate[eq.kind](*entries)
            closed += composite_terms(values[: len(closed)])
            for value, scale, terms in zip(values, scales, closed):
                magnitude = sum(abs(t) for t in terms)
                assert scale == pytest.approx(magnitude, rel=1e-14, abs=0.0)
                assert abs(value - sum(terms)) <= 1e-14 * scale
            report = classify(p, inc1, inc2, eq)
            assert list(report.coefficients.values()) == list(values)
            checked[eq.kind] += 1
    assert min(checked.values()) >= 20, checked


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
    # E0's block is empty: it has no coefficient and no minor
    kinds = set()
    for p, inc1, inc2 in random_cases(1105, 200):
        for eq in solve_all(p, inc1, inc2).all:
            J = jacobian(p, inc1, inc2, eq.point)
            value, scale = _quantities(eq.kind)(J.ravel().tolist())
            block = KINDS[eq.kind].block
            c, c_scales = python_charpoly(J[np.ix_(block, block)].tolist()) if block else ([], [])
            minors, minor_scales = python_minors(c)
            assert [x.hex() for x in value] == [float(x).hex() for x in c + minors]
            assert [x.hex() for x in scale] == [float(x).hex() for x in c_scales + minor_scales]
            kinds.add(eq.kind)
    assert kinds == set(KINDS)
