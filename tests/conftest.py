"""Shared test plumbing.

The acceptance suite registers one result per numbered criterion; the
terminal summary prints a PASS/FAIL line for each so the run ends with an
auditable checklist. Criteria not executed (filtered runs) show NOT RUN.
The summary also prints the package's line count, which the project tracks.
"""

import pathlib

import numpy as np

import twostrain
from twostrain.incidence import IncidenceSpec
from twostrain.model import ModelParams

CRITERIA = {
    1: "thresholds, example 6.1: published values within 0.5%, < 1 ms",
    2: "thresholds + invasion, example 6.4: published values within 1%, < 10 ms",
    3: "equilibria: residuals < 1e-8, 6.3/6.4 coordinates within 1.5%, each solve < 100 ms",
    4: "example 6.2 discrepancy: S=950 within 0.1%, certified I1 asserted, published 253 flagged",
    5: "stability cross-validation: coefficient tests vs eigensolver, zero disagreements",
    6: (
        "example 6.4 quartic coefficients: c1..c4 match FD-Jacobian char. poly, "
        "c4 via spectrum product, published 0.2501/0.0171/3.4759e-4 flagged"
    ),
    7: "global checks: 6.3 surface nonpositive with zero at the equilibrium, 6.4 whole-run check, < 5 s",
    8: "convergence: each example reaches its attractor within rel 1e-3, < 2 s each",
    9: "invariance: 100 random starts per example, no violations, final N bounded",
    10: (
        "sweep monotonicity; sampled R2 maximum within one cell of the derived "
        "turning point, published formula flagged"
    ),
    11: "hypothesis suite: all three families pass grid checks, partials match FD within 1e-6",
}

def same_bits(a, b):
    """Equal shapes and equal bytes as float arrays."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def wavy_rate():
    """A custom rate beta*S*I*(1 + sin(w*I)/2) tuned to alpha = 0.21. As the
    strain-2 rate of the test parameters (Lambda = 200, mu = 0.02, gamma2 =
    0.09, v2 = 0.1) its E2 balance has three roots at r = 0.1 and k = 0 (one
    at r = 0.02 and at r = 0.2); as the strain-1 rate with gamma1 = 0.09 the
    E1 balance has the same three roots at r = 0.1."""
    w = 6.0 * np.pi * 0.21 / 200.0
    beta = 2.0 * 0.21 * 0.12 / 200.0
    return IncidenceSpec.custom(
        lambda S, I: beta * S * I * (1.0 + 0.5 * np.sin(w * I)),
        label="wavy",
        d_rate_dS=lambda S, I: beta * I * (1.0 + 0.5 * np.sin(w * I)),
    )


def rising_rate(p):
    """The custom rate F1 = beta*S*I*(1 + 0.05*I) with beta = 0.9*alpha1/S0
    for the parameters p, so that R1 = 0.9. Its force rises in I, against
    the ``force_monotone`` hypothesis. As strain 1 of example 6.2 its
    balance has two roots below the threshold, a backward bifurcation: I1 =
    2.270253 (unstable) and I1 = 1030.361326 (locally stable)."""
    beta = 0.9 * p.alpha1 / p.susceptible_cap
    return IncidenceSpec.custom(lambda S, I: beta * S * I * (1.0 + 0.05 * I), label="rising")


def text_derivatives(texts, wrt, args, names):
    """sympy's derivatives of the expressions ``texts`` by each symbol of
    ``wrt``, as an mpmath function of the symbols ``args``. ``names`` maps
    each name in the texts to a symbol or an expression; numbers in the
    texts are read as exact rationals. The function gives two matrices: the
    derivatives, and as each one's scale the sum of |term| over the terms of
    its sum, the size that rounding in a term's evaluation is relative to.
    Evaluate it under ``mpmath.workdps``."""
    import sympy as sp

    J = sp.Matrix([sp.sympify(t, locals=names, rational=True) for t in texts]).jacobian(wrt)
    scale = J.applyfunc(lambda e: sp.Add(*map(sp.Abs, sp.Add.make_args(e))))
    return sp.lambdify(args, (J, scale), "mpmath")


_RESULTS = {}


class record_criterion:
    """Context manager: marks the criterion PASS on clean exit, FAIL on
    any exception (which still propagates to fail the test)."""

    def __init__(self, number, detail=""):
        assert number in CRITERIA
        self.number = number
        self.detail = detail

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            _RESULTS[self.number] = (True, self.detail)
        else:
            _RESULTS[self.number] = (False, "%s" % exc)
        return False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tr = terminalreporter
    modules = list(pathlib.Path(twostrain.__file__).parent.glob("*.py"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in modules)
    tr.write_line("src/twostrain: {:,} lines in {} modules".format(lines, len(modules)))
    if not _RESULTS:
        return
    tr.write_sep("=", "acceptance criteria")
    for number in sorted(CRITERIA):
        if number in _RESULTS:
            passed, detail = _RESULTS[number]
            status = "PASS" if passed else "FAIL"
        else:
            passed, detail = None, ""
            status = "NOT RUN"
        line = "criterion %2d  %-7s  %s" % (number, status, CRITERIA[number])
        if detail and passed is False:
            line += "\n              reason: " + detail.splitlines()[0][:160]
        kwargs = {}
        if passed is True:
            kwargs["green"] = True
        elif passed is False:
            kwargs["red"] = True
        tr.write_line(line, **kwargs)


def trapping_box_starts(seed, cap, n):
    """Criterion 9's n seeded starts: random shares of a total drawn
    uniformly from [0, cap], the trapping box's population cap."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        shares = rng.exponential(1.0, 4)
        yield shares / shares.sum() * rng.uniform(0.0, 1.0) * cap


def random_cases(seed, n):
    """Criterion 5's random scenarios: n (params, incidence1, incidence2) draws.

    Each strain gets a threshold ratio in [0.3, 4] and a family drawn among
    bilinear, saturated_s and saturated_i2.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n):
        p = ModelParams(
            Lambda=rng.uniform(50.0, 500.0),
            mu=rng.uniform(0.005, 0.05),
            r=rng.uniform(0.005, 0.2),
            k=10.0 ** rng.uniform(-6.0, -4.0),
            gamma1=rng.uniform(0.01, 0.2),
            gamma2=rng.uniform(0.01, 0.2),
            v1=rng.uniform(0.01, 0.2),
            v2=rng.uniform(0.01, 0.2),
        )
        S0 = p.susceptible_cap
        incs = []
        for alpha in (p.alpha1, p.alpha2):
            target = rng.uniform(0.3, 4.0)
            family = rng.integers(0, 3)
            zeta = 10.0 ** rng.uniform(-4.0, 0.0)
            if family == 0:
                incs.append(IncidenceSpec.bilinear(target * alpha / S0))
            elif family == 1:
                incs.append(
                    IncidenceSpec.saturated_s(target * alpha * (1.0 + zeta * S0) / S0, zeta)
                )
            else:
                incs.append(IncidenceSpec.saturated_i2(target * alpha / S0, zeta))
        yield p, incs[0], incs[1]
