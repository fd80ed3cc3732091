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
each site's sum converge uniformly in N.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ValidationError
from .intervals import Interval
from .model import ChainModel
from .operators import build_projectors, excited_spectrum, spectral_range
from .operators import embed, op_norm  # unused here; perfbench/tracing.py looks them up on this module
from .sweep import BlockDiagState, SeriesControls, _offdiag_norm, assemble_full, vacuum_energy

# The gap bound's rounding margin: each eigenvalue it reads gives way by
# this fraction of its matrix's norm (the on-site gap shrinks, each c_I
# grows).  The rounding of eigvalsh, of e_I and of r_I is about D 2^-52 of
# the norm, under 1e-12 for every D within the dense guard.
BOUND_MARGIN = 1e-10


def _saturated(x: float) -> float:
    """x clipped to the float range, so a report can hold it."""
    return min(max(x, -sys.float_info.max), sys.float_info.max)


def decay_bound(r: int, t: float) -> float:
    """Decay bound 8 |t|^((r-1)/3) / (r+1)^2 for an r-edge interval, or the
    largest float where it lies past the float range: every float norm
    meets that bound, and a report can hold it."""
    try:
        bound = 8.0 * abs(t) ** ((r - 1) / 3.0) / (r + 1) ** 2
    except OverflowError:  # the power; the product overflows to inf instead
        return sys.float_info.max
    return _saturated(bound)


@dataclass(frozen=True)
class NormLedgerEntry:
    interval: Interval
    norm: float
    bound: float
    ok: bool
    lo: float  # the potential's spectral range
    hi: float
    e: float  # the gap bound's inputs: vacuum scalar e_I, residual r_I and c_I
    r: float
    c: float


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
    module docstring); violations are data, not failures."""
    entries = []
    for interval, op in sorted(state.potentials.items()):
        lo, hi = spectral_range(op)
        norm = max(abs(lo), abs(hi))  # op_norm(op), from the same eigvalsh
        bound = decay_bound(interval.k, model.t)
        vac = build_projectors(interval, model.omega)
        e = vacuum_energy(op.matrix, vac)
        entries.append(NormLedgerEntry(
            interval=interval, norm=norm, bound=bound, ok=norm <= bound * (1 + 1e-9),
            lo=lo, hi=hi, e=e, r=_offdiag_norm(op.matrix, vac),
            c=max(hi - e, e - lo) + BOUND_MARGIN * norm,
        ))
    return entries


def gap_lower_bound(model: ChainModel, ledger: list[NormLedgerEntry]) -> tuple[float, float, float]:
    """(gap lower bound, E_vac, residual term) of a complete sweep from its
    ``check_ledger`` records (module docstring), each saturated at the largest
    float."""
    onsite = np.linalg.eigvalsh(model.onsite)
    delta = float(onsite[1] - onsite[0]) - BOUND_MARGIN * float(np.max(np.abs(onsite)))
    charge = [0.0] * model.N  # per site: the sum of c_I over the I that contain it
    e_sum = r_sum = 0.0
    for entry in ledger:
        for site in entry.interval.sites:
            charge[site - 1] += entry.c
        e_sum += entry.e
        r_sum += entry.r
    t = abs(model.t)
    residual = _saturated(2.0 * (t * r_sum))  # t * r_sum first: 2 t overflows at t = 1e308
    bound = _saturated(delta - t * max(charge) - residual)
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
    residual = _offdiag_norm(K, vac)
    if residual > tol_od:
        raise CertificationError(
            f"final Hamiltonian off-diagonal residual {residual:.3e} exceeds {tol_od:.1e}"
        )
    ground = vacuum_energy(K, vac)
    excited = excited_spectrum(K, vac, ground)
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
