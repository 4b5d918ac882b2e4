"""Exception types shared across the package."""


class MeshError(ValueError):
    """Invalid mesh data: bad indices, degenerate elements, missing markers."""


class CoefficientError(ValueError):
    """Coefficient data violates the operator assumptions (symmetry, positivity)."""


class SingularMatrixError(RuntimeError):
    """Factorization hit a zero or numerically negligible pivot."""


class EigenSolveError(RuntimeError):
    """The iterative eigensolver could not produce a usable eigenpair."""
