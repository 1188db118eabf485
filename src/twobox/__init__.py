"""Two-box conditioned-measurement protocols, classical and quantum.

Exact engines, contextual-value estimation, weak-limit analysis and
reproducible Monte Carlo sampling for a minimal pair of protocols in
which postselected averages escape the eigenvalue range: a classical
particle in two boxes watched by a noisy detector that disturbs it, and
a two-level quantum system weakly measured then postselected. The
package computes when the two produce the same anomalous conditioned
averages and what each one pays in disturbance to do so.
"""

from .classical import (
    BOXES,
    SIGNALS,
    ClassicalParams,
    JointDistribution,
    conditional_mean,
    fc_match_params,
    joint_distribution,
    min_disturbance_for_value,
    unconditional_mean,
)
from .contextual import ContextualValues, ResponseMatrix, solve_cv
from .errors import DomainError, TwoBoxError, ValidationError
from .quantum import (
    MeasurementModel,
    Postselection,
    TwoLevelState,
    conditional_mean_quantum,
    density_matrix,
    expectation,
    joint_outcome_probs,
    postselection_probability,
    quantum_disturbance,
    trace_distance,
    unconditioned_post_measurement_state,
    validate_density_matrix,
    weak_value,
)
from .analysis import (
    ClassicalMatchedProtocol,
    PowerLawFit,
    ProjectorWeakValues,
    QuantumProtocol,
    SweepResult,
    classical_postselection_shift,
    fit_power_law,
    metric_names,
    projector_weak_values,
    quantum_postselection_shift,
    richardson_extrapolate,
    sweep_metric,
    weak_limit_extrapolate,
)
from .montecarlo import (
    CountTable,
    GofResult,
    TrialRecord,
    TrialTrace,
    derive_stream_key,
    estimate_conditional_mean,
    gof_test,
    sample_classical,
    sample_classical_sweep,
    sample_classical_trace,
    sample_joint,
    sample_quantum,
    sample_quantum_trace,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BOXES",
    "SIGNALS",
    "ClassicalParams",
    "JointDistribution",
    "conditional_mean",
    "fc_match_params",
    "joint_distribution",
    "min_disturbance_for_value",
    "unconditional_mean",
    "ContextualValues",
    "ResponseMatrix",
    "solve_cv",
    "DomainError",
    "TwoBoxError",
    "ValidationError",
    "MeasurementModel",
    "Postselection",
    "TwoLevelState",
    "conditional_mean_quantum",
    "density_matrix",
    "expectation",
    "joint_outcome_probs",
    "postselection_probability",
    "quantum_disturbance",
    "trace_distance",
    "unconditioned_post_measurement_state",
    "validate_density_matrix",
    "weak_value",
    "ClassicalMatchedProtocol",
    "PowerLawFit",
    "ProjectorWeakValues",
    "QuantumProtocol",
    "SweepResult",
    "classical_postselection_shift",
    "fit_power_law",
    "metric_names",
    "projector_weak_values",
    "quantum_postselection_shift",
    "richardson_extrapolate",
    "sweep_metric",
    "weak_limit_extrapolate",
    "CountTable",
    "GofResult",
    "TrialRecord",
    "TrialTrace",
    "derive_stream_key",
    "estimate_conditional_mean",
    "gof_test",
    "sample_classical",
    "sample_classical_sweep",
    "sample_classical_trace",
    "sample_joint",
    "sample_quantum",
    "sample_quantum_trace",
]
