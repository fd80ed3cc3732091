"""Quantitative checks on sweep output: norm decay, gaps, majorants.

The transported potential on an interval with r edges is expected to obey
the decay bound 8 |t|^((r-1)/3) / (r+1)^2.  ``certify`` holds the fully
swept Hamiltonian K to block-diagonality within ``tol_od`` and reports the
rest: ground energy, gap (not held to 1/2), spectrum and decay ledger.
The majorant, projector and excited-block checks are for tests only.

The majorant sequence B_j dominates the series term norms ||(V)_j||:
B_1 = ||V||, B_j = (1/a) sum_m B_{j-m} B_m, with a > 0 the root of
(exp(8a) - 8a - 1)/a + exp(8a) - 2 = 0.  The B_j are the Taylor
coefficients of f(x) = (a/2)(1 - sqrt(1 - (4||V||/a) x)), whose radius of
analyticity bounds the convergence radius of the series from below by
a / (4 ||V||).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ValidationError
from .intervals import Interval, StepIndex
from .model import ChainModel
from .operators import (LocalOperator, build_projectors, dense_dim, embed, excited_spectrum,
                        op_norm)
from .sweep import (BlockDiagState, SeriesControls, assemble_full, local_hamiltonian,
                    _offdiag_norm)


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


@dataclass(frozen=True)
class MajorantParams:
    a: float
    t0_bound: float
    norm_v: float
    B: tuple[float, ...]

    def f(self, x: float) -> float:
        """Closed-form generating function of the majorant coefficients."""
        return (self.a / 2.0) * (1.0 - np.sqrt(1.0 - (4.0 * self.norm_v / self.a) * x))


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


def solve_majorant(norm_v: float, jmax: int = SeriesControls.jmax) -> MajorantParams:
    """Majorant coefficients for a series whose first term has norm ``norm_v``.

    The root a is found by bisection on (0, 1] to 1e-12; the residual there
    is negative near zero and the function increases, so the root is unique.
    """
    if norm_v <= 0:
        raise ValidationError("majorant needs a positive first-term norm")

    def g(a: float) -> float:
        return (np.exp(8 * a) - 8 * a - 1) / a + np.exp(8 * a) - 2.0

    lo, hi = 1e-14, 1.0
    if g(lo) >= 0 or g(hi) <= 0:
        raise ValidationError("no sign change for the majorant root on (0, 1]")
    for _ in range(200):  # to float resolution; residual lands well under 1e-12
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    a = (lo + hi) / 2
    B = [norm_v]
    for j in range(2, jmax + 1):
        B.append(sum(B[j - m - 1] * B[m - 1] for m in range(1, j)) / a)
    return MajorantParams(a=a, t0_bound=a / (4.0 * norm_v), norm_v=norm_v, B=tuple(B))


def check_series_majorant(v_term_norms, params: MajorantParams) -> bool:
    """True iff every recorded ||(V)_j|| is dominated by B_j."""
    for j, norm in enumerate(v_term_norms, start=1):
        if j > len(params.B):
            return False
        if norm > params.B[j - 1] * (1 + 1e-9):
            return False
    return True


def projector_inequalities(n: int, M: int, r: int = 1,
                           omega: np.ndarray | None = None,
                           tol: float = 1e-10) -> bool:
    """Positive-semidefiniteness of the two projector bounds on n sites.

    First, the sum of single-site excited projectors dominates the
    complement of the product vacuum projector.  Second, for every window
    placement, (r+1) times the summed excited-site projectors dominates the
    sum of r-edge interval complement projectors.
    """
    dim = dense_dim(M, n, "projector check")
    if omega is None:
        omega = np.eye(M, dtype=complex)[:, 0]
    omega = np.asarray(omega, dtype=complex)
    omega = omega / np.linalg.norm(omega)
    chain = Interval(n - 1, 1)
    p_site = np.outer(omega, omega.conj())
    perp_site = np.eye(M, dtype=complex) - p_site

    perp = [embed(LocalOperator(Interval(0, i), perp_site), chain, M).matrix
            for i in range(1, n + 1)]
    total_perp = sum(perp)
    vac = build_projectors(chain, omega).vac
    diff = total_perp - (np.eye(dim) - np.outer(vac, vac.conj()))
    if float(np.linalg.eigvalsh(diff)[0]) < -tol:
        return False

    if r >= 1 and n >= r + 1:
        plus = {}
        for i in range(1, n - r + 1):
            sub = Interval(r, i)
            vac = build_projectors(sub, omega).vac
            pm = LocalOperator(sub, np.outer(vac, vac.conj()))
            plus[i] = np.eye(dim) - embed(pm, chain, M).matrix
        for lo in range(1, n - r + 1):
            for hi in range(lo, n - r + 1):
                lhs = sum(plus[i] for i in range(lo, hi + 1))
                rhs = (r + 1) * sum(perp[i - 1] for i in range(lo, hi + r + 1))
                if float(np.linalg.eigvalsh(rhs - lhs)[0]) < -tol:
                    return False
    return True


def excited_block_lower_bound(state: BlockDiagState, model: ChainModel,
                              interval: Interval) -> tuple[float, float]:
    """Compare the excited block of the local Hamiltonian, less its vacuum
    expectations, against the scalar 1 - 8t - 16t sum_{l>=3} l t^((l-2)/3)/l^2.

    Returns (smallest eigenvalue of the shifted excited block, scalar).
    """
    t = abs(model.t)
    pair = build_projectors(interval, model.omega)
    G = local_hamiltonian(state, model, pair)
    shift = 0.0
    for sub, op in state.potentials.items():
        if interval.contains(sub) and sub != interval:
            sub_pair = build_projectors(sub, model.omega)
            shift += float(np.real(sub_pair.vac.conj() @ op.matrix @ sub_pair.vac))
    lhs_min = float(excited_spectrum(G.matrix, pair.vac)[0]) - model.t * shift
    rhs = 1.0 - 8.0 * t - 16.0 * t * sum(
        l * t ** ((l - 2) / 3.0) / l ** 2 for l in range(3, interval.k + 1)
    )
    return lhs_min, rhs
