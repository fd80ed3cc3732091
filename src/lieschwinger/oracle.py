"""Brute-force ground truth: full-space assembly and exact spectra.

Assembly here is deliberately independent of the sweep engine's embedding:
each local term is added into the full-space matrix through the writable
diagonal view that einsum gives over its (left, support, right) digit
blocks, so no identity padding is materialised and ``operators.embed`` is
not used.  ``compare`` reads the sweep's side from the certificate alone,
so K is diagonalized once per fit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .certify import GapReport
from .model import ChainModel
from .operators import dense_dim, parity_eigvalsh
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


def _add_term(K: np.ndarray, term: np.ndarray, first: int, last: int, N: int, M: int) -> None:
    """K += identity (x) term (x) identity, site 1 the most significant digit.

    The padded term is nonzero only where the left and right digits of row
    and column agree, so it is added through the writable diagonal view
    K[(a, i, x), (a, j, x)] over those digits, touching dl * dr * d^2
    entries.
    """
    dl = M ** (first - 1)
    dr = M ** (N - last)
    d = term.shape[0]
    diagonal = np.einsum("aixajx->aixj", K.reshape(dl, d, dr, dl, d, dr))  # a view of K
    diagonal += term[None, :, None, :]


def assemble_direct(model: ChainModel) -> np.ndarray:
    """Model Hamiltonian assembled straight from its definition."""
    dim = dense_dim(model.M, model.N)
    K = model.energy_offset * np.eye(dim, dtype=complex)
    for site in range(1, model.N + 1):
        _add_term(K, model.onsite, site, site, model.N, model.M)
    for iv, op in model.interactions.items():
        _add_term(K, model.t * op.matrix, iv.q, iv.last, model.N, model.M)
    return K


def ed_spectrum(model: ChainModel) -> np.ndarray:
    """All eigenvalues of the model Hamiltonian, ascending; from its two
    parity blocks when it has them (``operators.parity_eigvalsh``)."""
    return parity_eigvalsh(assemble_direct(model))


def levels(evals: np.ndarray) -> Iterator[int]:
    """Sizes of the levels of a spectrum, lowest first: a level is every
    eigenvalue within DEGENERACY_TOL of its lowest, not a chain of
    eigenvalues each within it of the next."""
    evals = np.sort(np.asarray(evals, dtype=float))
    while evals.size:  # the differences ascend, so each count is of a prefix
        size = 1 + int(np.count_nonzero(evals[1:] - evals[0] <= DEGENERACY_TOL))
        yield size
        evals = evals[size:]


def degeneracy_of_spectrum(evals: np.ndarray) -> int:
    """Size of the lowest level of a spectrum (``levels``)."""
    return next(levels(evals))


def compare(report: GapReport, model: ChainModel,
            tol_od: float = SeriesControls.tol_od) -> OracleComparison:
    """Distance between the certified spectrum and direct diagonalization.

    The ED gap skips the whole ground level (``levels``), near-degenerate or not.
    The certified ground energy matches blockwise when it is within the
    fit's ``tol_od`` of the ED ground energy.
    """
    evals_ed = ed_spectrum(model)
    distance = float(np.max(np.abs(evals_ed - report.spectrum)))
    deg = degeneracy_of_spectrum(evals_ed)
    gap_ed = float(evals_ed[deg] - evals_ed[0]) if deg < evals_ed.shape[0] else 0.0
    return OracleComparison(
        spectrum_distance=distance,
        gap_ed=gap_ed,
        ground_degeneracy=deg,
        blockwise_match=abs(report.ground_energy - float(evals_ed[0])) <= tol_od,
        ground_ed=float(evals_ed[0]),
        low_spectrum=tuple(float(v) for v in evals_ed[: max(deg + 2, 4)]),
    )
