"""Brute-force ground truth: full-space assembly and exact spectra.

Assembly here is deliberately independent of the sweep engine's embedding:
full-space matrices are built by broadcasting identity factors around each
local term with einsum over the (left, support, right) digit blocks, rather
than by iterated Kronecker padding.  ``compare`` reads the sweep's side
from the certificate alone, so K is diagonalized once per fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import GapReport
from .model import ChainModel
from .operators import dense_dim
from .sweep import SeriesControls

DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class OracleComparison:
    spectrum_distance: float
    gap_ed: float
    ground_degeneracy: int
    blockwise_match: bool
    ground_ed: float
    low_spectrum: tuple[float, ...] = ()  # lowest eigenvalue cluster, for audit


def _embed_full(term: np.ndarray, first: int, last: int, N: int, M: int) -> np.ndarray:
    """Identity (x) term (x) identity with site 1 as most significant digit."""
    dl = M ** (first - 1)
    dr = M ** (N - last)
    d = term.shape[0]
    out = np.einsum(
        "ab,ij,xy->aixbjy",
        np.eye(dl, dtype=complex), np.asarray(term, dtype=complex), np.eye(dr, dtype=complex),
        optimize=True,
    )
    return out.reshape(dl * d * dr, dl * d * dr)


def assemble_direct(model: ChainModel) -> np.ndarray:
    """Model Hamiltonian assembled straight from its definition."""
    dim = dense_dim(model.M, model.N)
    K = model.energy_offset * np.eye(dim, dtype=complex)
    for site in range(1, model.N + 1):
        K += _embed_full(model.onsite, site, site, model.N, model.M)
    for iv, op in model.interactions.items():
        K += model.t * _embed_full(op.matrix, iv.q, iv.last, model.N, model.M)
    return K


def ed_spectrum(model: ChainModel) -> np.ndarray:
    """All eigenvalues of the model Hamiltonian, ascending."""
    return np.linalg.eigvalsh(assemble_direct(model))


def degeneracy_of_spectrum(evals: np.ndarray, tol: float = DEGENERACY_TOL) -> int:
    evals = np.sort(np.asarray(evals, dtype=float))
    return int(np.count_nonzero(evals - evals[0] <= tol))


def compare(report: GapReport, model: ChainModel, tol: float = DEGENERACY_TOL,
            tol_od: float = SeriesControls.tol_od) -> OracleComparison:
    """Distance between the certified spectrum and direct diagonalization.

    The ED gap skips any eigenvalues degenerate with the ground state at the
    given tolerance, so near-degenerate clusters are not silently merged.
    The certified ground energy matches blockwise when it is within the
    fit's ``tol_od`` of the ED ground energy.
    """
    evals_ed = ed_spectrum(model)
    distance = float(np.max(np.abs(evals_ed - report.spectrum)))
    deg = degeneracy_of_spectrum(evals_ed, tol)
    gap_ed = float(evals_ed[deg] - evals_ed[0]) if deg < evals_ed.shape[0] else 0.0
    return OracleComparison(
        spectrum_distance=distance,
        gap_ed=gap_ed,
        ground_degeneracy=deg,
        blockwise_match=abs(report.ground_energy - float(evals_ed[0])) <= tol_od,
        ground_ed=float(evals_ed[0]),
        low_spectrum=tuple(float(v) for v in evals_ed[: max(deg + 2, 4)]),
    )
