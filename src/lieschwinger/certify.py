"""Quantitative checks on sweep output: norm decay, the gap of K, and an
N-uniform lower bound on that gap.

The transported potential on an interval with r edges is expected to obey
the decay bound 8 |t|^((r-1)/3) / (r+1)^2.  ``certify`` holds the fully
swept Hamiltonian K to block-diagonality within ``tol_od`` and reports the
rest: ground energy, gap (not held to 1/2), spectrum and decay ledger.

The gap bound reads only the ledger's record of each stored potential V_I,
never K.  V_I is block-diagonal for its vacuum vac_I up to
r_I = |P+ V_I vac_I|, with vacuum scalar e_I = vac_I^dag V_I vac_I.  With
c_I = max(hi_I - e_I, e_I - lo_I) from its spectral range, its block-diagonal
part has t (V_I - e_I) >= -|t| c_I P+_I, and P+_I <= sum_{i in I} P-perp_i.
The on-site gap delta gives H_i >= delta P-perp_i, so by Weyl's inequality
for the off-diagonal parts

    gap(K) >= min_i (delta - |t| sum_{I contains i} c_I) - 2 |t| sum_I r_I

about E_vac = energy_offset + t sum_I e_I.  A positive value certifies a
unique product-vacuum ground state and that gap; the decay of the c_I makes
each site's sum converge uniformly in N.  ``sweep.gap_bound`` is that sum;
on the proper subintervals of a step interval and its sites it is the
sweep's step bound.

The ledger rows are the sweep's: each potential's row is recorded at the
end of its own step (``sweep.ledger_row``), after which no step changes the
potential, and ``check_ledger`` computes a row only for a potential no step
has swept.  Up to ``sweep.EXACT_DIM`` a row's range is exact; above it the
range is [-F, F] for the Frobenius norm F >= ||V_I||, so c_I = F + |e_I|
plus the margin, and the bound holds as it stands.

On an exactly even chain (``ChainModel.exactly_even``) K is assembled as
its two parity blocks: its residual, ground energy and shifted eigvalsh
read the block that holds the vacuum, the other block's whole spectrum is
excited, and each ledger entry reads its potential's blocks, both for the
spectral range and the vacuum's for e and r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ValidationError
from .intervals import Interval
from .model import ChainModel
from .operators import BOUND_MARGIN  # unused here; exported with the ledger it margins
from .operators import build_projectors, excited_spectrum, vacuum_part
from .operators import embed, op_norm  # unused here; perfbench/tracing.py looks them up on this module
from .sweep import decay_bound  # unused here; exported with the ledger
from .sweep import (BlockDiagState, NormLedgerEntry, SeriesControls, _offdiag_norm, _saturated,
                    assemble_full, gap_bound, ledger_row, vacuum_energy)


@dataclass(frozen=True, eq=False)
class GapReport:
    ground_energy: float
    gap: float
    unique_ground: bool
    od_residual: float
    gap_lower_bound: float
    vacuum_energy_bound: float  # E_vac, from the stored potentials alone
    residual_term: float  # 2 |t| sum_I r_I, the bound's share of the residuals
    ledger: tuple[NormLedgerEntry, ...]
    spectrum: np.ndarray  # ascending spec K: the excited spectrum with ground_energy merged in


def check_ledger(state: BlockDiagState, model: ChainModel) -> list[NormLedgerEntry]:
    """One entry per stored potential, with the gap bound's inputs (see the
    module docstring): the row the sweep recorded at the potential's own
    step, or for a potential no step has swept, as on ``initial_state``, one
    computed here (``sweep.ledger_row``); violations are data, not failures."""
    return [state.ledger.get(interval) or ledger_row(interval, op, model)
            for interval, op in sorted(state.potentials.items())]


def gap_lower_bound(model: ChainModel, ledger: list[NormLedgerEntry]) -> tuple[float, float, float]:
    """(gap lower bound, E_vac, residual term) of a complete sweep from its
    ``check_ledger`` records (module docstring), each saturated at the largest
    float: ``sweep.gap_bound`` over every row and site."""
    bound, e_sum, residual = gap_bound(model, ledger, range(1, model.N + 1))
    return bound, _saturated(model.energy_offset + model.t * e_sum), residual


def certify(state: BlockDiagState, model: ChainModel,
            tol_od: float = SeriesControls.tol_od) -> GapReport:
    """Certificate of the fully swept Hamiltonian K from one assembly and one
    shifted eigvalsh; CertificationError if K's off-diagonal residual exceeds tol_od."""
    chain = Interval(model.N - 1, 1)
    if state.step != chain:
        raise ValidationError(f"sweep incomplete: at step {state.step}, expected {chain}")
    K = assemble_full(state, model)
    vac = build_projectors(chain, model.omega)
    K_v, vac_v, K_rest = vacuum_part(K, vac)
    residual = _offdiag_norm(K_v, vac_v)
    if residual > tol_od:
        raise CertificationError(
            f"final Hamiltonian off-diagonal residual {residual:.3e} exceeds {tol_od:.1e}"
        )
    ground = vacuum_energy(K_v, vac_v)
    excited = excited_spectrum(K_v, vac_v, ground, K_rest)
    gap = float(excited[0]) - ground
    ledger = check_ledger(state, model)
    bound, vacuum_bound, residual_term = gap_lower_bound(model, ledger)
    return GapReport(
        ground_energy=ground,
        gap=gap,
        unique_ground=gap > 0.0,
        od_residual=residual,
        gap_lower_bound=bound,
        vacuum_energy_bound=vacuum_bound,
        residual_term=residual_term,
        ledger=tuple(ledger),
        spectrum=np.insert(excited, np.searchsorted(excited, ground), ground),
    )
