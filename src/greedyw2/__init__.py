"""Greedy transport-minimizing sequences on the unit interval.

The core object is the sequence built by repeatedly appending the point
that minimizes the squared 2-Wasserstein distance between the empirical
measure and the uniform measure.  The package provides exact-rational and
float64 constructions, closed-form discrepancy/transport metrics with
quadrature oracles, classical comparison sequences, and randomized checks
of the structural results that make the greedy construction work.

The top level exports the library API listed in the README; the classical
sequences, dump formats, lemma lab and oracles are imported from their own
modules.
"""

from ._version import __version__
from .greedy import (
    GreedyInvariantError,
    SequenceState,
    e_functional,
    enumerate_candidates,
    extend,
    kritzinger_f,
    next_point,
    next_point_via_e,
)
from .metrics import (
    l2_discrepancy_squared,
    max_abs_H,
    metric_series,
    report,
    star_discrepancy,
    step_identity_check,
    w2_squared,
)
from .numeric import Backend, BackendMismatch, ConfigError, DomainError
from .verify import SUITES, run_suite

__all__ = [
    "__version__",
    "Backend",
    "BackendMismatch",
    "ConfigError",
    "DomainError",
    "GreedyInvariantError",
    "SequenceState",
    "next_point",
    "next_point_via_e",
    "extend",
    "kritzinger_f",
    "enumerate_candidates",
    "e_functional",
    "w2_squared",
    "l2_discrepancy_squared",
    "star_discrepancy",
    "max_abs_H",
    "metric_series",
    "report",
    "step_identity_check",
    "run_suite",
    "SUITES",
]
