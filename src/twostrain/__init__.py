"""Two-strain vaccination model with general incidence.

Library layout:

- incidence: transmission-rate families and hypothesis checks
- model: parameters, state, vector field, Jacobian, thresholds
- equilibria: residual-certified equilibrium solvers
- stability: coefficient-based classification, eigensolver cross-checks,
  numerical global-stability scans
- simulate: adaptive integration, invariance monitoring, convergence events
- scenario: flat text scenario files
- analysis: whole-scenario reports and parameter sweeps
- benchmarks: built-in reproduction runs with embedded expected values
- cli: command-line verbs (analyze, simulate, sweep, check-global, reproduce)
"""

import types

from .analysis import (
    AnalysisReport,
    SweepRow,
    analyze,
    apply_sweep_value,
    render_report,
    sweep,
    turning_point,
)
from .benchmarks import (
    EXAMPLE_IDS,
    FlagCheck,
    ReproductionResult,
    ValueCheck,
    build_scenario,
    render_reproduction,
    reproduce,
)
from .equilibria import (
    Equilibrium,
    EquilibriumSet,
    ExistenceCondition,
    ScanStats,
    SolveStats,
    disease_free,
    solve_all,
    solve_batch,
    solve_coexistence,
    solve_strain1,
    solve_strain2,
    strain1_balance,
    strain2_balance,
    strain2_coordinates,
    strain2_discriminant,
)
from .errors import (
    ConfigError,
    DomainError,
    IntegrationError,
    PreconditionError,
    SolverError,
    TwoStrainError,
    UnsupportedLimitError,
)
from .incidence import HypothesisCheck, HypothesisReport, IncidenceSpec
from .model import (
    RESIDUAL_TOL,
    ModelParams,
    State,
    Thresholds,
    invasion_numbers,
    jacobian,
    reproduction_number,
    require_certified,
    residual,
    thresholds,
    vector_field,
)
from .scenario import Scenario, load_scenario, parse_scenario, serialize_scenario
from .simulate import (
    IntegratorOptions,
    IntegratorStats,
    InvarianceReport,
    Trajectory,
    TrajectoryEvent,
    adaptive_rk45,
    detect_convergence,
    integrate,
    monitor_invariance,
)
from .stability import (
    GridScanSummary,
    StabilityReport,
    Verdict,
    classify,
    classify_disease_free,
    coexistence_lyapunov_scan,
    coexistence_lyapunov_values,
    eigen_classify,
    strain2_lyapunov_scan,
    strain2_lyapunov_surface,
)

__version__ = "0.1.0"

# every name imported above, and nothing else
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
