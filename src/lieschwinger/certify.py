"""Quantitative checks on sweep output: norm decay and the gap of K.

The transported potential on an interval with r edges is expected to obey
the decay bound 8 |t|^((r-1)/3) / (r+1)^2.  ``certify`` holds the fully
swept Hamiltonian K to block-diagonality within ``tol_od`` and reports the
rest: ground energy, gap (not held to 1/2), spectrum and decay ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ValidationError
from .intervals import Interval, StepIndex
from .model import ChainModel
from .operators import build_projectors, excited_spectrum, op_norm
from .operators import embed  # unused here; perfbench/tracing.py looks it up on this module
from .sweep import BlockDiagState, SeriesControls, _offdiag_norm, assemble_full


def decay_bound(r: int, t: float) -> float:
    """Decay bound 8 |t|^((r-1)/3) / (r+1)^2 for an r-edge interval."""
    return 8.0 * abs(t) ** ((r - 1) / 3.0) / (r + 1) ** 2


@dataclass(frozen=True)
class NormLedgerEntry:
    step: StepIndex
    interval: Interval
    norm: float
    bound: float
    ok: bool


@dataclass(frozen=True, eq=False)
class GapReport:
    ground_energy: float
    gap: float
    unique_ground: bool
    od_residual: float
    ledger: tuple[NormLedgerEntry, ...]
    spectrum: np.ndarray  # ascending spec K: the excited spectrum with ground_energy merged in


def check_ledger(state: BlockDiagState, t: float) -> list[NormLedgerEntry]:
    """One entry per stored potential; violations are data, not failures."""
    entries = []
    for interval, op in sorted(state.potentials.items()):
        if interval.k < 1:
            continue
        norm = op_norm(op)
        bound = decay_bound(interval.k, t)
        entries.append(NormLedgerEntry(
            step=state.step, interval=interval, norm=norm, bound=bound,
            ok=norm <= bound * (1 + 1e-9),
        ))
    return entries


def certify(state: BlockDiagState, model: ChainModel,
            tol_od: float = SeriesControls.tol_od) -> GapReport:
    """Certificate of the fully swept Hamiltonian K from one assembly and one
    shifted eigvalsh; CertificationError if K's off-diagonal residual exceeds tol_od."""
    final = StepIndex(model.N - 1, 1)
    if state.step != final:
        raise ValidationError(f"sweep incomplete: at step {state.step}, expected {final}")
    K = assemble_full(state, model)
    chain = Interval(model.N - 1, 1)
    pair = build_projectors(chain, model.omega)
    residual = _offdiag_norm(K, pair)
    if residual > tol_od:
        raise CertificationError(
            f"final Hamiltonian off-diagonal residual {residual:.3e} exceeds {tol_od:.1e}"
        )
    ground = float(np.real(pair.vac.conj() @ K @ pair.vac))
    excited = excited_spectrum(K, pair.vac)
    gap = float(excited[0]) - ground
    return GapReport(
        ground_energy=ground,
        gap=gap,
        unique_ground=gap > 0.0,
        od_residual=residual,
        ledger=tuple(check_ledger(state, model.t)),
        spectrum=np.insert(excited, np.searchsorted(excited, ground), ground),
    )
