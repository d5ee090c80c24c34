"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so new exception types should
subclass one of the three roots below rather than ValueError directly.
"""


class CurvflowError(Exception):
    """Base class for all package errors."""


class ValidationError(CurvflowError):
    """Invalid input data or parameters (graphs, measures, configs)."""


class DisconnectedError(ValidationError):
    """An operation required a finite distance between disconnected vertices."""


class PreconditionError(CurvflowError):
    """A mathematical precondition (e.g. a curvature sign) is unverified."""


class SolverError(CurvflowError):
    """An internal numerical solver failed; results must not be trusted."""


class InfeasibleError(SolverError):
    """A constraint system admits no feasible point."""


class CertificateError(SolverError):
    """No optimality certificate could be produced within tolerance."""
