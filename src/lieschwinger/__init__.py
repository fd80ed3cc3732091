"""Lie-Schwinger block-diagonalization for finite gapped quantum chains.

Local unitary conjugations sweep over the connected intervals of a chain in
order of increasing length, block-diagonalizing each interaction term with
respect to its product-vacuum projector; a step whose local gap falls below
``gap_min`` (1/2 by default) aborts the sweep.  At dense desk scale the
package certifies that the transformed Hamiltonian is block-diagonal,
reports its gap (not held to 1/2) with an N-uniform lower bound, records
each transported interaction's norm against the decay bound (a violation is
data, not a failure), and checks the spectrum against an independent
exact-diagonalization oracle.
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
