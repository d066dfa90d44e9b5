"""Greedy transport-minimizing sequences on the unit interval.

The core object is the sequence built by repeatedly appending the point
that minimizes the squared 2-Wasserstein distance between the empirical
measure and the uniform measure.  The package provides exact-rational and
float64 constructions, closed-form discrepancy/transport metrics with
quadrature oracles, classical comparison sequences, and randomized checks
of the structural results that make the greedy construction work.
"""

from ._version import __version__
from .classical import (
    GOLDEN_RATIO,
    KroneckerConfig,
    SeededUniformConfig,
    kronecker,
    uniform_stream,
    van_der_corput,
)
from .formats import DumpParseError, DumpRow, RunConfig, build_dump, dump_values
from .greedy import (
    CandidateEvaluation,
    ChosenPoint,
    GreedyInvariantError,
    SequenceState,
    e_functional,
    enumerate_candidates,
    extend,
    generate_sequence,
    greedy_values,
    kritzinger_f,
    next_point,
    next_point_via_e,
)
from .lemma import (
    PiecewiseFunction,
    basic_lemma_identity,
    fact_check,
    lemma_lhs,
    lemma_rhs,
    lemma_sweep,
    random_piecewise,
    sharpness_scan,
)
from .metrics import (
    DiscrepancyReport,
    GFunction,
    l2_discrepancy_squared,
    max_abs_H,
    metric_series,
    report,
    star_discrepancy,
    step_identity_check,
    w2_squared,
)
from .numeric import (
    Backend,
    BackendMismatch,
    ConfigError,
    DomainError,
    parse_rational,
    parse_seed,
)
from .oracle import (
    GridSpec,
    grid_argmin_w2,
    grid_max_abs_h,
    l2_defining_integral,
    w2_defining_integral,
)
from .verify import SUITES, CheckResult, SuiteReport, run_suite

__all__ = [
    "__version__",
    "Backend",
    "BackendMismatch",
    "CandidateEvaluation",
    "CheckResult",
    "ChosenPoint",
    "ConfigError",
    "DiscrepancyReport",
    "DomainError",
    "DumpParseError",
    "DumpRow",
    "GFunction",
    "GOLDEN_RATIO",
    "GreedyInvariantError",
    "GridSpec",
    "KroneckerConfig",
    "PiecewiseFunction",
    "RunConfig",
    "SeededUniformConfig",
    "SequenceState",
    "SUITES",
    "SuiteReport",
    "basic_lemma_identity",
    "build_dump",
    "dump_values",
    "e_functional",
    "enumerate_candidates",
    "extend",
    "fact_check",
    "generate_sequence",
    "greedy_values",
    "grid_argmin_w2",
    "grid_max_abs_h",
    "kritzinger_f",
    "kronecker",
    "l2_defining_integral",
    "l2_discrepancy_squared",
    "lemma_lhs",
    "lemma_rhs",
    "lemma_sweep",
    "max_abs_H",
    "metric_series",
    "next_point",
    "next_point_via_e",
    "parse_rational",
    "parse_seed",
    "random_piecewise",
    "report",
    "run_suite",
    "sharpness_scan",
    "star_discrepancy",
    "step_identity_check",
    "uniform_stream",
    "van_der_corput",
    "w2_defining_integral",
    "w2_squared",
]
