"""Exception types shared across the package.

Every error the command line maps to an exit code derives from one of two
bases: ``UsageError`` (exit 2) or ``InternalError`` (exit 4).  ``ParseError``
is neither: an unreadable state file is an I/O error (exit 3).
"""


class UsageError(ValueError):
    """The caller asked for something outside a function's domain."""


class InternalError(RuntimeError):
    """The program's own numerics failed."""


class NonHermitianInput(UsageError):
    """Input matrix is farther from Hermitian than the constructor tolerance."""


class NonFiniteInput(UsageError):
    """Input matrix has a NaN or infinite entry."""


class ConvergenceFailure(InternalError):
    """Eigendecomposition did not converge or violated its reconstruction contract."""


class DomainViolation(UsageError):
    """Scalar argument or eigenvalue outside the domain of the requested function."""


class NotPSD(UsageError):
    """Matrix has an eigenvalue below the negative tolerance."""


class NotNormalized(UsageError):
    """Matrix trace is not 1 within tolerance."""


class BadSpectrum(UsageError):
    """Vector is not a valid probability spectrum."""


class DimensionMismatch(UsageError):
    """Operands have incompatible shapes or dimensions."""


class QOutOfRange(UsageError):
    """Entropy order q outside the supported range."""


class BadFactorization(UsageError):
    """Declared tensor factors do not multiply to the total dimension."""


class PreconditionFailed(UsageError):
    """Arguments violate a hypothesis of the requested bound evaluator."""


class ConfigError(UsageError):
    """Invalid harness configuration."""


class ParseError(ValueError):
    """State file could not be parsed."""


class InternalInconsistency(InternalError):
    """Two evaluation routes disagreed beyond tolerance; the D_q cross-check
    counts a NaN, or a +inf on one route only, as a disagreement."""
