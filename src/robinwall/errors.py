"""Exception types shared across the package."""


class RobinWallError(Exception):
    """Base class for all package errors."""


class DomainError(RobinWallError, ValueError):
    """An argument lies outside the mathematical or contractual domain."""


class SolverError(RobinWallError, RuntimeError):
    """A root solve failed; the message carries the final bracket/residual."""
