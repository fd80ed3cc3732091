"""Exception types shared across the package."""

from __future__ import annotations


class ChainError(Exception):
    """Base class for all errors raised by this package.

    ``exit_code`` is the command-line runner's exit status for the error.
    """

    exit_code = 1


class ValidationError(ChainError):
    """A model, operator, or input file violates a stated constraint."""

    exit_code = 2


class EmbeddingError(ChainError):
    """Operator support is not contained in the embedding target."""


class GeneratorError(ChainError):
    """A conjugation generator is not anti-Hermitian within tolerance."""


class OrderError(ChainError):
    """A local Hamiltonian was requested out of sweep order."""


class DimensionError(ChainError):
    """A full-space assembly would exceed the dense-matrix guard."""

    exit_code = 2


class GapError(ChainError):
    """Gap assumption violated: vacuum not the ground state, or gap below threshold.

    Carries the failing step and a short reason so a run report can name it.
    """

    exit_code = 4

    def __init__(self, message, step=None, reason="", value=None):
        super().__init__(message)
        self.step = step
        self.reason = reason
        self.value = value


class SeriesError(ChainError):
    """Generator series failed to converge at the allowed order."""

    exit_code = 3

    def __init__(self, message, step=None, last_term_norm=None, residual=None):
        super().__init__(message)
        self.step = step
        self.last_term_norm = last_term_norm
        self.residual = residual


class CertificationError(ChainError):
    """Final block-diagonality residual exceeded the accepted tolerance."""

    exit_code = 2
