"""Exception types shared across the package."""


class NonHermitianInput(ValueError):
    """Input matrix is farther from Hermitian than the constructor tolerance."""


class NonFiniteInput(ValueError):
    """Input matrix has a NaN or infinite entry."""


class ConvergenceFailure(RuntimeError):
    """Eigendecomposition did not converge or violated its reconstruction contract."""


class DomainViolation(ValueError):
    """Scalar argument or eigenvalue outside the domain of the requested function."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the negative tolerance."""


class NotNormalized(ValueError):
    """Matrix trace is not 1 within tolerance."""


class BadSpectrum(ValueError):
    """Vector is not a valid probability spectrum."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or dimensions."""


class QOutOfRange(ValueError):
    """Entropy order q outside the supported range."""


class BadFactorization(ValueError):
    """Declared tensor factors do not multiply to the total dimension."""


class PreconditionFailed(ValueError):
    """Arguments violate a hypothesis of the requested bound evaluator."""


class ConfigError(ValueError):
    """Invalid harness configuration."""


class ParseError(ValueError):
    """State file could not be parsed."""


class InternalInconsistency(RuntimeError):
    """Two evaluation routes disagreed beyond tolerance, or a NaN appeared."""
