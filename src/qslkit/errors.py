"""Exception types shared across the package."""


class QslError(Exception):
    """Base class for all errors raised by qslkit."""


class DimensionMismatchError(QslError):
    """Operands have incompatible shapes or dimensions."""


class InvariantViolationError(QslError):
    """Input data violates a structural invariant (non-unitary gate,
    non-anti-Hermitian algebra element, unnormalized state, ...)."""


class NotNormalError(QslError):
    """Matrix handed to the normal eigensolver does not commute with its
    adjoint within tolerance."""


class NoConvergenceError(QslError):
    """The underlying iterative eigensolver failed to converge."""


class DegenerateBranchTieError(QslError):
    """The traceless correction of a principal logarithm would have to split
    a degenerate eigenvalue cluster, so no basis-independent choice exists.

    The message names the cluster's multiplicity k and the number r of its
    members the correction needs: "cluster of multiplicity k (need r)".
    """


class InvalidParameterError(QslError):
    """A parameter is outside its documented domain."""


class TooFewSamplesError(QslError):
    """A trajectory has fewer than two samples."""


class StepUnderflowError(QslError):
    """Finite-difference step shrank below the supported floor."""


class IdentityGateError(QslError):
    """Operation is undefined for the identity gate."""


class OptimizerDidNotConvergeError(QslError):
    """No restart of the search converged.

    ``best`` holds the best result found so far (may be ``None``).
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ConfigError(QslError):
    """Command-line or file configuration could not be parsed."""
