"""Exception types raised across the toolkit."""

from __future__ import annotations


class QcrbError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(QcrbError):
    """Operands have incompatible or invalid dimensions."""


class NotHermitianError(QcrbError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositiveSemidefinite(QcrbError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class NotDensityMatrix(QcrbError):
    """Matrix fails a density-matrix invariant (trace or positivity)."""


class EigenConvergenceError(QcrbError):
    """Eigensolver failed: no LAPACK convergence, or non-finite input."""


class RankDeficientInconsistent(QcrbError):
    """Right-hand side has weight outside the support of a singular operator."""


class DomainError(QcrbError):
    """Evaluation point lies outside the declared domain of a model."""


class StationaryFamilyError(QcrbError):
    """Pure family has vanishing derivative; no direction of change exists."""


class BoundaryRegularityError(QcrbError):
    """An eigenvalue vanishes while its derivative does not."""


class SupportRegularityError(QcrbError):
    """An outcome has vanishing probability but non-vanishing score."""


class ZeroInformationError(QcrbError):
    """Measurement carries no information about the parameter."""


class InvalidPovm(QcrbError):
    """Effects are not PSD or do not sum to the identity."""


class ConfigError(QcrbError):
    """Malformed or inconsistent run configuration."""
