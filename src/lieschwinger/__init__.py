"""Lie-Schwinger block-diagonalization for finite gapped quantum chains.

Local unitary conjugations sweep over the connected intervals of a chain in
order of increasing length, block-diagonalizing each interaction term with
respect to its product-vacuum projector.  The package certifies, at dense
desk scale, that the transformed Hamiltonian is block-diagonal, that the
ground state is unique, that the spectral gap stays at or above 1/2 for
small coupling, and that transported interaction norms decay with interval
length, checking every claim against an independent exact-diagonalization
oracle.
"""

from .certify import GapReport, NormLedgerEntry, check_ledger, decay_bound
from .errors import (
    CertificationError,
    ChainError,
    DimensionError,
    EmbeddingError,
    GapError,
    GeneratorError,
    OrderError,
    SeriesError,
    ValidationError,
)
from .estimator import BlockDiagonalizer
from .intervals import Interval, iter_steps
from .model import ChainModel, build_chain_model, random_chain_model, validate_chain_model
from .operators import (
    LocalOperator,
    build_projectors,
    embed,
    op_norm,
)
from .oracle import OracleComparison, compare, ed_spectrum
from .sweep import (
    BlockDiagState,
    SeriesControls,
    StepDiagnostics,
    advance,
    assemble_full,
    diagonalized_potential,
    generator_series,
    initial_state,
    local_gap,
    local_hamiltonian,
    vacuum_energy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
