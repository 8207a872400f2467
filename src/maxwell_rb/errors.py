"""Exception types shared across the package.

ConfigError maps to CLI exit code 2 (usage/configuration problems),
NumericsError and its subclasses map to exit code 3 (numerical failures).
"""


class ConfigError(ValueError):
    """Invalid configuration or usage input."""


class NumericsError(RuntimeError):
    """Base class for numerical failures."""


class DegenerateCellError(NumericsError):
    """A cell has a non-positive Jacobian determinant at a quadrature point."""


class FactorizationError(NumericsError):
    """A sparse factorization or iterative solve failed (input not SPD,
    singular shifted pencil, no convergence, ...)."""


class EigensolverError(NumericsError):
    """Eigenvalue solve failed or did not deliver the requested modes."""


class ProjectionError(NumericsError):
    """Condensation to cotree coordinates was inconsistent or ill-posed."""


class TrackingError(NumericsError):
    """Mode tracking could not maintain the required correlation."""
