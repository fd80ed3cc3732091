"""Block-diagonalization sweep over interval steps.

Each step (k, q) conjugates the current Hamiltonian by exp(S) with an
anti-Hermitian generator S supported on the interval {q, ..., q+k}, chosen
so that afterwards the potential on that interval commutes with its
product-vacuum projector.  The generator is a power series in the coupling,

    S = sum_j t^j S_j,      S_j = (G - E)^{-1} P+ (V)_j P-  -  h.c.,

where G is the local Hamiltonian built from on-site terms plus all
already-transported shorter potentials inside the interval, E is its
vacuum energy, and the higher-order terms (V)_j follow the recursion

    (V)_j = sum_{p>=2, r_1+..+r_p=j}   ad S_{r_1} ( .. ad S_{r_p}(G) .. ) / p!
          + sum_{p>=1, r_1+..+r_p=j-1} ad S_{r_1} ( .. ad S_{r_p}(V) .. ) / p!

The series is truncated once the term norm |t|^j ||(V)_j|| drops below a
cutoff; the operationally meaningful check is the off-diagonal residual of
the replaced potential, which is verified separately.

Every S_j has the form y_j vac^dag - vac y_j^dag with y_j = (G - E)^{-1}
P+ (V)_j vac orthogonal to vac, so S = y vac^dag - vac y^dag has rank two
and exp(S) is the closed-form rotation by ||y|| in span{vac, y}
(``operators.rotation_factors``).  It is exactly unitary, so spectra are
preserved to machine precision regardless of truncation, and ||S|| = ||y||.

One eigendecomposition of the excited block of G per step serves the
ground-state check, the gap and the resolvent: once the leak check has
passed, G is block-diagonal and spec G = {E} u spec(excited block).

Transport of the other potentials follows the support relation between
their interval J and the step interval I.  The rotation acts on the sites
of I only; on a containing J it is applied to a reshaped view of the
potential, never as an embedded unitary:

  * J disjoint from I, J shorter than I, or J overlapping without
    containment: unchanged (copied by reference);
  * J equal to I: replaced by the closed form
    exp(S) (G/t + V) exp(-S) - G/t;
  * J strictly containing I with no shared endpoint: conjugated;
  * J strictly containing I sharing an endpoint: conjugated, plus growth
    terms exp(S) W exp(-S) - W from every shorter potential W whose
    support overlaps I without containment and whose union with I is
    exactly J.  The growth terms are linear in W, so the update is one
    conjugation per J: exp(S) (V_J + sum W) exp(-S) - sum W, with the
    sources W embedded into J in place.  Intervals with no prior
    potential can be created here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isfinite

import numpy as np

from .errors import DimensionError, GapError, OrderError, SeriesError, ValidationError
from .intervals import Interval, StepIndex, initial_step, iter_steps, successor
from .model import ChainModel
from .operators import (
    DENSE_GUARD,
    LocalOperator,
    ProjectorPair,
    build_projectors,
    conjugate_by_unitary,
    embed,
    op_norm,
    rotation_factors,
    unitary_exp,  # unused here; perfbench/tracing.py looks it up on this module
)


@dataclass(frozen=True)
class SeriesControls:
    """Truncation and acceptance thresholds for one sweep; the field
    defaults are the package-wide defaults, read from here everywhere."""

    jmax: int = 20
    tol_series: float = 1e-14
    tol_od: float = 1e-8
    gap_min: float = 0.5

    def __post_init__(self):
        if self.jmax < 1:
            raise ValidationError(f"jmax must be at least 1, got {self.jmax}")
        if not all(isfinite(x) for x in (self.tol_series, self.tol_od, self.gap_min)):
            raise ValidationError("tolerances and gap_min must be finite")
        if min(self.tol_series, self.tol_od) <= 0:
            raise ValidationError("tolerances must be positive")


@dataclass(frozen=True)
class StepDiagnostics:
    step: StepIndex
    E: float
    gap: float
    series_order: int
    od_residual: float
    s_norm: float
    v_term_norms: tuple[float, ...] = ()
    s_term_norms: tuple[float, ...] = ()


@dataclass(frozen=True, eq=False)
class BlockDiagState:
    """Potential map after the recorded step, plus the diagnostics trail.

    On-site terms are never stored: they are fixed throughout the sweep.
    Intervals carrying an exactly zero potential are absent from the map.
    """

    step: StepIndex
    potentials: dict[Interval, LocalOperator]
    diagnostics: tuple[StepDiagnostics, ...] = ()


@dataclass(frozen=True)
class SeriesResult:
    """Summed generator S = y vac^dag - vac y^dag, the series terms (V)_j
    and per-order term norms."""

    y: np.ndarray
    vac: np.ndarray
    order: int
    v_terms: tuple[np.ndarray, ...]
    v_term_norms: tuple[float, ...]
    s_term_norms: tuple[float, ...]

    @property
    def S(self) -> np.ndarray:
        """The generator as a dense matrix; the sweep itself uses only y."""
        return np.outer(self.y, self.vac.conj()) - np.outer(self.vac, self.y.conj())


def initial_state(model: ChainModel) -> BlockDiagState:
    return BlockDiagState(initial_step(model.N), dict(model.interactions))


def local_hamiltonian(state: BlockDiagState, model: ChainModel, pair: ProjectorPair,
                      tol_od: float = SeriesControls.tol_od) -> LocalOperator:
    """On-site terms plus every transported shorter potential inside the
    interval ``pair.support``.

    All proper subintervals must already be block-diagonalized, which makes
    the result block-diagonal with respect to the interval's own projector
    pair; a residual beyond tolerance means the sweep order was violated.
    """
    M, interval = model.M, pair.support
    mat = np.zeros((interval.dim(M), interval.dim(M)), dtype=complex)
    for site in interval.sites:
        embed(LocalOperator(Interval(0, site), model.onsite), interval, M, out=mat)
    n_sub = 0
    for sub, op in state.potentials.items():
        if interval.contains(sub) and sub != interval:
            embed(op, interval, M, out=mat, scale=model.t)
            n_sub += 1
    leak = _offdiag_norm(mat, pair)
    if leak > tol_od * (1 + n_sub):
        raise OrderError(
            f"local Hamiltonian on {interval} has off-diagonal leak {leak:.3e}; "
            "subinterval potentials not yet block-diagonalized"
        )
    return LocalOperator(interval, mat)


def _offdiag_norm(mat: np.ndarray, pair: ProjectorPair) -> float:
    """||P+ X P- + P- X P+|| for Hermitian X; equals |P+ X vac| by rank one."""
    u = mat @ pair.vac
    u = u - pair.vac * (pair.vac.conj() @ u)
    return float(np.linalg.norm(u))


def plus_block_eigh(G: np.ndarray, pair: ProjectorPair) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of G on the excited block."""
    Qp = pair.plus_basis
    return np.linalg.eigh(Qp.conj().T @ G @ Qp)


def vacuum_energy(G: LocalOperator, pair: ProjectorPair,
                  tol_od: float = SeriesControls.tol_od, step: StepIndex | None = None,
                  plus_spectrum: np.ndarray | None = None) -> float:
    """Scalar of the rank-1 vacuum block; must match the ground energy of G.

    With ``plus_spectrum`` (the ascending spectrum of the excited block of a
    block-diagonal G), the ground energy is min(E, plus_spectrum[0]) and no
    eigensolve runs.
    """
    E = float(np.real(pair.vac.conj() @ G.matrix @ pair.vac))
    if plus_spectrum is None:
        ground = float(np.linalg.eigvalsh(G.matrix)[0])
    else:
        ground = min(E, float(plus_spectrum[0]))
    if abs(E - ground) > tol_od * (1 + abs(E)):
        raise GapError(
            f"vacuum energy {E:.9f} is not the ground energy {ground:.9f} of the local Hamiltonian",
            step=step, reason="vacuum-not-ground", value=E - ground,
        )
    return E


def local_gap(G: LocalOperator, pair: ProjectorPair, E: float | None = None,
              gap_min: float | None = None, step: StepIndex | None = None,
              plus_spectrum: np.ndarray | None = None) -> float:
    """Spectral gap of G above its vacuum energy, on the excited block.

    ``plus_spectrum`` is that block's ascending spectrum, if already known.
    """
    if E is None:
        E = float(np.real(pair.vac.conj() @ G.matrix @ pair.vac))
    if plus_spectrum is None:
        plus_spectrum = plus_block_eigh(G.matrix, pair)[0]
    gap = float(plus_spectrum[0]) - E
    if gap_min is not None and gap < gap_min:
        raise GapError(
            f"local gap {gap:.6f} fell below the abort threshold {gap_min}",
            step=step, reason="gap-too-small", value=gap,
        )
    return gap


def generator_series(G: np.ndarray, E: float, pair: ProjectorPair, V: np.ndarray,
                     t: float, controls: SeriesControls,
                     step: StepIndex | None = None,
                     plus_eig: tuple[np.ndarray, np.ndarray] | None = None) -> SeriesResult:
    """Accumulate y = sum_j t^j y_j, the vector of S = sum_j t^j S_j.

    Terminates once |t|^j ||(V)_j|| < tol_series; reaching jmax with the last
    term still above the cutoff raises SeriesError, reporting that norm.
    The nested commutator sums are evaluated through tables T[X][(m, p)]
    holding the order-m, depth-p chains acting on X in {G, V}, extended one
    order at a time (outermost generator index last).  ``plus_eig`` is the
    result of ``plus_block_eigh(G, pair)``, if already computed.
    """
    vac = pair.vac
    Qp = pair.plus_basis
    w, Z = plus_eig if plus_eig is not None else plus_block_eigh(G, pair)
    denom = w - E
    if np.min(denom) <= 0:
        raise GapError("excited block of the local Hamiltonian reaches the vacuum energy",
                       step=step, reason="gap-assumption-violated", value=float(np.min(denom)))

    def make_y(Vterm: np.ndarray) -> np.ndarray:
        u = Vterm @ vac
        u = u - vac * (vac.conj() @ u)
        return Qp @ (Z @ ((Z.conj().T @ (Qp.conj().T @ u)) / denom))

    def make_S(y_term: np.ndarray) -> np.ndarray:
        return np.outer(y_term, vac.conj()) - np.outer(vac, y_term.conj())

    v_terms = [V]
    v_norms = [op_norm(V)]
    y_terms = [make_y(V)]
    s_terms = [make_S(y_terms[0])]
    y = t * y_terms[0]
    TG: dict[tuple[int, int], np.ndarray] = {}
    TV: dict[tuple[int, int], np.ndarray] = {}
    order = 1
    while order < controls.jmax and abs(t) ** order * v_norms[-1] >= controls.tol_series:
        j = order + 1
        m = j - 1  # newest generator index available as a chain head
        TG[(m, 1)] = s_terms[m - 1] @ G - G @ s_terms[m - 1]
        TV[(m, 1)] = s_terms[m - 1] @ V - V @ s_terms[m - 1]
        for table, top in ((TG, j), (TV, j - 1)):
            for p in range(2, top + 1):
                acc = 0.0
                for r in range(1, top - p + 2):
                    inner = table.get((top - r, p - 1))
                    if inner is not None:
                        acc = acc + (s_terms[r - 1] @ inner - inner @ s_terms[r - 1])
                if not np.isscalar(acc):
                    table[(top, p)] = acc
        Vj = np.zeros_like(V)
        for p in range(2, j + 1):
            term = TG.get((j, p))
            if term is not None:
                Vj = Vj + term / factorial(p)
        for p in range(1, j):
            term = TV.get((j - 1, p))
            if term is not None:
                Vj = Vj + term / factorial(p)
        Vj = (Vj + Vj.conj().T) / 2
        v_terms.append(Vj)
        v_norms.append(op_norm(Vj))
        y_terms.append(make_y(Vj))
        s_terms.append(make_S(y_terms[-1]))
        y = y + t ** j * y_terms[-1]
        order = j

    last = abs(t) ** order * v_norms[-1]
    if last >= controls.tol_series:
        raise SeriesError(
            f"series did not converge by order {order}: last term norm {last:.3e}",
            step=step, last_term_norm=last,
        )
    return SeriesResult(
        y=y, vac=vac, order=order, v_terms=tuple(v_terms), v_term_norms=tuple(v_norms),
        s_term_norms=tuple(float(np.linalg.norm(x)) for x in y_terms),
    )


def diagonalized_potential(G: np.ndarray, V: np.ndarray, y: np.ndarray, t: float,
                           pair: ProjectorPair, tol_od: float = SeriesControls.tol_od,
                           step: StepIndex | None = None) -> tuple[np.ndarray, float]:
    """Replacement potential (exp(S)(G + tV)exp(-S) - G)/t and its residual,
    for S = y vac^dag - vac y^dag.

    Uses the closed form rather than the summed diagonal series, so the only
    truncation in play is the one already inside S.  The residual is the
    off-diagonal norm of the result, which must sit below tol_od.
    """
    if t == 0.0:
        return V, _offdiag_norm(V, pair)
    out = (conjugate_by_unitary(G + t * V, *rotation_factors(y, pair.vac)) - G) / t
    out = (out + out.conj().T) / 2
    residual = _offdiag_norm(out, pair)
    if residual > tol_od:
        raise SeriesError(
            f"off-diagonal residual {residual:.3e} exceeds tolerance {tol_od:.1e}",
            step=step, residual=residual,
        )
    return out, residual


def _growth_sources(I: Interval, J: Interval) -> list[Interval]:
    """Shorter intervals overlapping I without containment whose union with I is J."""
    if J.q == I.q:  # shared left endpoint: sources stick out to the right
        return [Interval(J.k - j, J.q + j) for j in range(1, I.k + 1)]
    if J.last == I.last:  # shared right endpoint: sources stick out to the left
        return [Interval(J.k - j, J.q) for j in range(1, I.k + 1)]
    return []


def advance(state: BlockDiagState, model: ChainModel,
            controls: SeriesControls = SeriesControls()) -> BlockDiagState:
    """Run the successor step and transport every potential across it."""
    step = successor(state.step, model.N)
    I = Interval(step.k, step.q)
    pair = build_projectors(I, model.omega)
    G = local_hamiltonian(state, model, pair, controls.tol_od)
    w, Z = plus_block_eigh(G.matrix, pair)
    E = vacuum_energy(G, pair, controls.tol_od, step, plus_spectrum=w)
    gap = local_gap(G, pair, E, gap_min=controls.gap_min, step=step, plus_spectrum=w)

    V_op = state.potentials.get(I)
    dim = I.dim(model.M)
    V = V_op.matrix if V_op is not None else np.zeros((dim, dim), dtype=complex)
    series = generator_series(G.matrix, E, pair, V, model.t, controls, step, plus_eig=(w, Z))
    s_norm = float(np.linalg.norm(series.y))

    if s_norm == 0.0:
        # Zero generator (t = 0, zero potential, or already block-diagonal):
        # every conjugation is the identity and the map is reused as is.
        diag = StepDiagnostics(step, E, gap, series.order, _offdiag_norm(V, pair),
                               0.0, series.v_term_norms, series.s_term_norms)
        return BlockDiagState(step, state.potentials, state.diagnostics + (diag,))

    V_new, residual = diagonalized_potential(G.matrix, V, series.y, model.t, pair,
                                             controls.tol_od, step)
    new_pots = dict(state.potentials)
    new_pots[I] = LocalOperator(I, V_new)
    W, C = rotation_factors(series.y, pair.vac)

    # Intervals strictly containing the step interval: the growth terms are
    # linear in their sources W, so V_J + sum W is conjugated once and the
    # sources are subtracted again.  The result is exactly Hermitian when
    # the sources are, since conjugate_by_unitary returns an exactly
    # Hermitian matrix.
    for l in range(I.k + 1, model.N):
        for q in range(max(1, I.last - l), min(I.q, model.N - l) + 1):
            J = Interval(l, q)
            if not J.contains(I):
                continue
            old = state.potentials.get(J)
            sources = [state.potentials[s] for s in _growth_sources(I, J)
                       if s in state.potentials]
            if old is None and not sources:
                continue
            dim = J.dim(model.M)
            acc = old.matrix.copy() if old is not None else np.zeros((dim, dim), dtype=complex)
            for src in sources:
                embed(src, J, model.M, out=acc)
            acc = conjugate_by_unitary(acc, W, C, model.M ** (I.q - J.q))
            for src in sources:
                embed(src, J, model.M, out=acc, scale=-1.0)
            new_pots[J] = LocalOperator(J, acc)

    diag = StepDiagnostics(step, E, gap, series.order, residual, s_norm,
                           series.v_term_norms, series.s_term_norms)
    return BlockDiagState(step, new_pots, state.diagnostics + (diag,))


def sweep(model: ChainModel, controls: SeriesControls = SeriesControls()) -> BlockDiagState:
    """Run every step from (0,N) through (N-1,1).

    On failure the raised error carries the failing step and the state
    reached so far (attribute ``partial_state``) so reports can name it.
    """
    state = initial_state(model)
    for _ in iter_steps(model.N):
        try:
            state = advance(state, model, controls)
        except (GapError, SeriesError) as err:
            err.partial_state = state
            raise
    return state


def check_dense_dim(model: ChainModel) -> int:
    """Full-space dimension M**N; DimensionError if it exceeds DENSE_GUARD.

    Certification assembles the full chain, and the sweep's last steps
    reach that dimension, so a run checks this before any work."""
    dim = model.M ** model.N
    if dim > DENSE_GUARD:
        raise DimensionError(f"full-space dimension {dim} exceeds guard {DENSE_GUARD}")
    return dim


def assemble_full(state: BlockDiagState, model: ChainModel) -> np.ndarray:
    """Embed on-site terms and every stored potential into the full chain."""
    dim = check_dense_dim(model)
    chain = Interval(model.N - 1, 1)
    K = model.energy_offset * np.eye(dim, dtype=complex)
    for site in range(1, model.N + 1):
        embed(LocalOperator(Interval(0, site), model.onsite), chain, model.M, out=K)
    for op in state.potentials.values():
        embed(op, chain, model.M, out=K, scale=model.t)
    return K
