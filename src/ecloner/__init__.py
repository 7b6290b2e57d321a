"""Covariance-matrix simulator for cloning continuous-variable entangled states.

Gaussian states live in the vacuum-variance-1 convention with quadratures
ordered (x1, p1, ..., xn, pn).  The package builds an entangled two-mode
source and two cloning machines out of beamsplitters, homodyne feedforward,
and squeeze gates, evaluates inseparability / conditional-variance
entanglement criteria and overlap fidelities on the clones, and validates
the analytic engine against a trajectory-sampling oracle.
"""

from .circuits import (
    UNITY_GAIN,
    CloneSet,
    clone_state,
    epr_source,
    global_ecloner,
    linear_cloner,
    local_ecloner,
    machine_covariances,
)
from .criteria import (
    CorrelationMatrix,
    correlation_matrix,
    correlation_matrix_from_cov,
    epr_paradox,
    inseparability,
    squeezing_db,
)
from .exceptions import DegenerateInputError, UncertaintyViolation
from .fidelity import (
    FidelityResult,
    fidelity_from_cov,
    global_fidelity,
    local_fidelity,
    pure_mixed_fidelity,
)
from .gaussian import (
    GaussianState,
    SymplecticOp,
    append_vacuum,
    apply,
    beamsplitter,
    discard_modes,
    displace,
    phase_rotation,
    squeeze_gate,
    squeezed_vacuum,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum,
)
from .montecarlo import (
    RNG_ALGORITHM,
    CriteriaEstimate,
    SampleRun,
    estimate_criteria,
    sample_circuit,
)

__version__ = "0.10.0"

__all__ = [
    "CloneSet",
    "CorrelationMatrix",
    "CriteriaEstimate",
    "DegenerateInputError",
    "FidelityResult",
    "GaussianState",
    "RNG_ALGORITHM",
    "SampleRun",
    "SymplecticOp",
    "UNITY_GAIN",
    "UncertaintyViolation",
    "append_vacuum",
    "apply",
    "beamsplitter",
    "clone_state",
    "correlation_matrix",
    "correlation_matrix_from_cov",
    "discard_modes",
    "displace",
    "epr_paradox",
    "epr_source",
    "estimate_criteria",
    "fidelity_from_cov",
    "global_ecloner",
    "global_fidelity",
    "inseparability",
    "linear_cloner",
    "local_ecloner",
    "local_fidelity",
    "machine_covariances",
    "phase_rotation",
    "pure_mixed_fidelity",
    "sample_circuit",
    "squeeze_gate",
    "squeezed_vacuum",
    "squeezing_db",
    "symplectic_eigenvalues",
    "symplectic_form",
    "vacuum",
]
