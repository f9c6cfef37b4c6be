"""Tsallis relative q-entropy of finite-dimensional quantum states for q > 1,
with evaluators and randomized verification for its continuity bounds."""

from .errors import (
    BadFactorization,
    BadSpectrum,
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    DomainViolation,
    InternalError,
    InternalInconsistency,
    NonFiniteInput,
    NonHermitianInput,
    NotNormalized,
    NotPSD,
    ParseError,
    PreconditionFailed,
    QOutOfRange,
    UsageError,
)
from .linalg import (
    HermitianOperator,
    OperatorPair,
    apply_function,
    as_herm,
    eigh,
    herm_power,
    psd_gap,
    schatten_norm,
    singular_values,
    zero_threshold,
)
from .quadrature import (
    QuadratureRule,
    frac_power_operator,
    frac_power_scalar,
    frechet_integral_rhs,
    geometric_splits,
    nodes_weights,
    resolvent_pair_closed_form,
    resolvent_pair_integral,
)
from .states import (
    DensityMatrix,
    SpectralSummary,
    as_generator,
    density_with_spectrum,
    haar_unitary,
    kernel_included,
    partial_trace,
    read_state,
    sample_common_support_pair,
    sample_density,
    tensor,
    trial_stream,
    write_state,
)
from .entropy import (
    POSITIVE_INFINITY,
    ExtendedReal,
    PairEval,
    classical_relative_q,
    q_log,
    quantum_relative_q,
    quantum_relative_q_low,
    relative_entropy_vn,
    tsallis_entropy,
)
from .bounds import (
    BoundReport,
    frechet_check,
    lemma3_bound,
    lower_bounds,
    power_diff_bound,
    thm1_bounds,
    thm2_bound,
    thm3_bound,
)
from .harness import (
    SweepConfig,
    VerifyReport,
    cmd_eval,
    cmd_gen,
    cmd_sweep,
    cmd_verify,
    divergence_envelope,
    sigma_family,
    sweep_row,
    tightness_crossover,
)

__version__ = "0.1.0"
