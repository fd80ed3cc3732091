"""Block-diagonalization sweep over interval steps.

Each step (k, q) conjugates the current Hamiltonian by exp(S) with an
anti-Hermitian generator S supported on the interval {q, ..., q+k}, chosen
so that afterwards the potential on that interval commutes with its
product-vacuum projector.  The generator is a power series in the coupling,

    S = sum_j t^j S_j,      S_j = (G - E)^{-1} P+ (V)_j P-  -  h.c.,

where G is the local Hamiltonian built from on-site terms plus all
already-transported shorter potentials inside the interval, E is its
vacuum energy, and the higher-order terms (V)_j come from one table of
nested commutators of G + tV with the factorials folded in: B[(p, m)] is
the order-m sum of depth-p chains ad S_{r_1} .. ad S_{r_p} (G + tV) / p!,
where G has order 0 and V order 1.  With B[(0, 0)] = G and B[(0, 1)] = V,

    B[(p, j)] = (1/p) sum_{r=1}^{j-1} ad S_r ( B[(p-1, j-r)] ),   p = 1..j,
    (V)_j     = sum_p B[(p, j)],

and ad S_j(G), which S_j cancels, joins B[(1, j)] once y_j is known.

The series is truncated once the term norm |t|^j ||(V)_j|| drops below a
cutoff; the operationally meaningful check is the off-diagonal residual of
the replaced potential, which is verified separately.

Every S_j has the form y_j vac^dag - vac y_j^dag with y_j = (G - E)^{-1}
P+ (V)_j vac orthogonal to vac, so S = y vac^dag - vac y^dag has rank two
and exp(S) is the closed-form rotation by ||y|| in span{vac, y}
(``operators.rotation_factors``).  It is exactly unitary, so spectra are
preserved to machine precision regardless of truncation, and ||S|| = ||y||.

The series runs in the small subspace this structure leaves it.  For
Hermitian X, ad S_r(X) = H + H^dag with H = (X vac) y_r^dag - (X y_r) vac^dag,
so it reads X only through X vac and X y_r.  Every table entry, and every
(V)_j with j >= 2, therefore lies in the span of the frame

    F = [x, G x, V x  for x = vac, y_1, ..., y_{j-1}]      (3j columns)

and is kept as a coefficient matrix K with X = F K F^dag.  With the Gram
matrix F^dag F kept alongside, X vac and X y_r are F times K's products
with its columns, and ad S_r(G), ad S_r(V) have unit coefficients, since
G x and V x are frame columns.  ||(V)_j|| is the largest |eigenvalue| of
R_F K R_F^dag for the QR factor R_F of F, exact for dependent or zero
columns (G vac can equal E vac, and y_j can vanish), so no tolerance decides a
rank; y_j = P+ R P+ F K F^dag vac.  No D x D matrix is formed per order:
the dense work is G y_j, V y_j and R applied to one vector.  Order one
takes ||V|| by eigvalsh only where the bounds ||V||_F above and
max(||V vac||, ||V||_F / sqrt(D)) below leave the stop test open.

Each step first takes the paper's induction.  A potential is final
after its own step, which records its ledger row (``ledger_row``: its
spectral range, vacuum scalar e, residual r and c = max(hi - e, e - lo)
plus the margin), and G is the on-site terms plus t times the potentials
on the proper subintervals of I, all final (one with no row is out of
sweep order: OrderError).  The per-site bound of ``certify`` on those rows
and the sites of I (``gap_bound``, ``step_gap_bound``),

    delta - |t| max_{i in I} sum_{J < I, J contains i} c_J - 2 |t| sum_{J < I} r_J,

bounds gap(G) from below with no eigensolve.  Where it reaches gap_min and
is positive, the vacuum is G's unique ground state and the bound is the
step's gap.  Anywhere else G, block-diagonal up to those potentials'
residuals (spec G = {E} u spec(excited block)), takes one eigvalsh with E
shifted to c = 1 + ||G||_inf (``operators.vacuum_shifted``), which gives
the excited spectrum for the ground-state check and the exact gap.  A
ledger row is exact up to EXACT_DIM (256), from one eigvalsh; above it a
row takes the Frobenius norm F >= ||V|| as its norm and [-F, F] as its
range, with no eigensolve.

The resolvent needs no eigenvectors: R = (G - E + (c - E) vac vac^dag)^{-1},
the same shifted matrix with E taken off its diagonal, is (G - E)^{-1} on
the excited block and 1/(c - E) on vac, which P+ projects out on both
sides.  It is Hermitian positive definite with smallest eigenvalue at least
min(1, gap), so one Cholesky factor per step (``operators.cholesky_solver``)
applies R to each series vector by forward and back substitution, and
every y_j = P+ R P+ (V)_j vac follows at O(D^2).  A factor that fails,
which a gap at rounding level allowed through ``local_gap`` can cause,
raises GapError; a step that took its bound factors the same way.

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
    thin update per J: V_J + Delta(V_J + sum W) for
    Delta(X) = exp(S) X exp(-S) - X, which reads X only through its rows
    W'^dag X (``operators.conjugate_by_unitary``).  Each source's rows
    are contracted from its own small matrix with W over the sites it
    shares with I, so no source is embedded into J.  Intervals with no
    prior potential can be created here.

An exactly even chain (``ChainModel.exactly_even``: M = 2, exact 0.0
entries across the popcount-parity split in the on-site matrix and in
every interaction, and omega a basis vector, read from the model alone,
once) is swept graded: every potential, G and K are kept as their two
parity blocks (``operators.LocalOperator.from_blocks``), which every
rotation of the sweep keeps.
The vacuum and every frame vector lie in one block, e0, so the series, the
Cholesky factor and the replaced potential read that block alone, and the
other block of V_I is kept as it is; a step's eigvalsh, where it runs, is
of the shifted block and of the other one.  A containing J is conjugated as
its two blocks stacked, in one thin update: by 1_L (x) exp(S) (x) 1_{R/2}
where I leaves out J's last site, and where I holds it by exp(S)'s own
block e0 on the row blocks l of block e with p(l) = e + e0 and by the
identity on the rest.  Any other chain (M = 3, a vacuum that is no basis
vector, one nonzero entry across parity) runs the dense code.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field
from functools import cache
from math import inf, isfinite, sqrt
from numbers import Real

import numpy as np

from .errors import ChainError, GapError, OrderError, SeriesError, ValidationError
from .intervals import Interval, iter_steps
from .model import ChainModel
from .operators import (
    BOUND_MARGIN,
    LocalOperator,
    build_projectors,
    cholesky_solver,
    conjugate_by_unitary,
    dense_dim,
    embed,
    op_norm,
    parity_blocks,
    parity_sectors,
    rotation_factors,
    shifted_excited,
    spectral_range,
    unitary_exp,  # unused here; perfbench/tracing.py looks it up on this module
    vacuum_block,
    vacuum_part,
    vacuum_shifted,
    vector_norm,
)

# Largest dimension of a potential whose ledger row is exact, from
# eigvalsh.  Above it a row holds the Frobenius norm as its norm and range,
# which would loosen K's gap_lower_bound if taken at every size.
EXACT_DIM = 256


@dataclass(frozen=True)
class SeriesControls:
    """Truncation and acceptance thresholds for one sweep; the field
    defaults are the package-wide defaults, read from here everywhere."""

    jmax: int = 20
    tol_series: float = 1e-14
    tol_od: float = 1e-8
    gap_min: float = 0.5

    def __post_init__(self):
        if isinstance(self.jmax, bool):
            raise ValidationError(f"jmax must be an integer, got {self.jmax!r}")
        try:
            object.__setattr__(self, "jmax", operator.index(self.jmax))
        except TypeError:
            raise ValidationError(f"jmax must be an integer, got {self.jmax!r}") from None
        if self.jmax < 1:
            raise ValidationError(f"jmax must be at least 1, got {self.jmax}")
        reals = (self.tol_series, self.tol_od, self.gap_min)
        if not all(isinstance(x, Real) and not isinstance(x, bool) for x in reals):
            raise ValidationError(f"tolerances and gap_min must be real numbers, got {reals!r}")
        if not all(isfinite(x) for x in reals):
            raise ValidationError("tolerances and gap_min must be finite")
        if min(self.tol_series, self.tol_od) <= 0:
            raise ValidationError("tolerances must be positive")


@dataclass(frozen=True)
class StepDiagnostics:
    step: Interval
    E: float
    gap: float
    series_order: int
    od_residual: float
    s_norm: float


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
class BlockDiagState:
    """Potential map after the last step swept (``None`` before the first),
    the diagnostics trail, and the ledger row of each potential whose own
    step has run, recorded there (``ledger_row``): no later step changes it.

    On-site terms are never stored: they are fixed throughout the sweep.
    Intervals carrying an exactly zero potential are absent from the map.
    For an exactly even chain (``ChainModel.exactly_even``) every potential
    is stored as its two parity blocks (``LocalOperator.from_blocks``), for
    any other chain dense.
    """

    step: Interval | None
    potentials: dict[Interval, LocalOperator]
    diagnostics: tuple[StepDiagnostics, ...] = ()
    ledger: dict[Interval, NormLedgerEntry] = field(default_factory=dict)


@dataclass(frozen=True)
class SeriesResult:
    """Summed generator S = y vac^dag - vac y^dag, its unscaled vectors y_j
    from j = 1 on (y = sum_j t^j y_j), the term norms ||(V)_j|| from j = 2
    on, and the series terms: (V)_1 is the potential and, for j >= 2,
    (V)_j = F K F^dag with K = v_coeffs[j-2] of size 3j and F the first 3j
    columns of ``frame``, whose column 0 is vac."""

    y: np.ndarray
    order: int
    frame: np.ndarray
    v_coeffs: tuple[np.ndarray, ...]
    v_term_norms: tuple[float, ...]
    y_terms: tuple[np.ndarray, ...]


def initial_state(model: ChainModel) -> BlockDiagState:
    if not model.exactly_even:
        return BlockDiagState(None, dict(model.interactions))
    return BlockDiagState(None, {iv: LocalOperator.from_blocks(iv, parity_blocks(op.matrix))
                                 for iv, op in model.interactions.items()})


def _assemble(model: ChainModel, interval: Interval, ops, offset: float = 0.0) -> LocalOperator:
    """offset 1 + on-site terms + t sum ``ops`` on ``interval``, embedded in
    that order, dense or as its two parity blocks.  The on-site matrix of a
    graded chain is diagonal, and its terms are summed on the diagonal alone,
    in the same order: bit for bit what ``embed`` gives, 5 to 6.5 times
    faster (28 assemblies of an N = 8 Ising sweep: 0.59 against 3.83 ms; at
    N = 10, 1.68 against 8.27 ms; one BLAS thread)."""
    n = interval.k + 1
    D = dense_dim(model.M, n)
    if model.exactly_even:
        diag = np.full(D, offset, dtype=complex)
        bits = np.arange(D)
        for j in range(n):
            diag += model.onsite.diagonal()[(bits >> (n - 1 - j)) & 1]
        out = np.zeros((2, D // 2, D // 2), dtype=complex)
        i = np.arange(D // 2)
        out[:, i, i] = diag[np.stack(parity_sectors(n))]
    else:
        out = np.eye(D, dtype=complex)
        out *= offset
        for site in interval.sites:
            embed(LocalOperator(Interval(0, site), model.onsite), interval, model.M, out=out)
    for op in ops:
        embed(op, interval, model.M, out=out, scale=model.t)
    return _operator(interval, out)


def _operator(support: Interval, data: np.ndarray) -> LocalOperator:
    """A LocalOperator of dense ``data``, or graded of stacked parity blocks."""
    return LocalOperator.from_blocks(support, data) if data.ndim == 3 \
        else LocalOperator(support, data)


def _subpotentials(state: BlockDiagState, interval: Interval) -> dict[Interval, LocalOperator]:
    """The potentials on the proper subintervals of ``interval``, in map
    order, each final: OrderError names every one with no ledger row yet."""
    subs = {sub: op for sub, op in state.potentials.items()
            if interval.contains(sub) and sub != interval}
    missing = ", ".join(str(sub) for sub in subs if sub not in state.ledger)
    if missing:
        raise OrderError(f"local Hamiltonian on {interval}: the subinterval potentials on "
                         f"{missing} are not yet block-diagonalized (no step has swept them)")
    return subs


def local_hamiltonian(state: BlockDiagState, model: ChainModel, interval: Interval) -> LocalOperator:
    """On-site terms plus t times the ``_subpotentials`` of ``interval``, all
    final, so block-diagonal for its product vacuum up to their residuals."""
    return _assemble(model, interval, _subpotentials(state, interval).values())


def _offdiag_norm(mat: np.ndarray, vac: np.ndarray) -> float:
    """||P+ X P- + P- X P+|| for Hermitian X and P- = vac vac^dag; equals
    |P+ X vac| by rank one."""
    u = mat @ vac
    u = u - vac * (vac.conj() @ u)
    return float(np.linalg.norm(u))


def vacuum_energy(G: np.ndarray, vac: np.ndarray) -> float:
    """E = vac^dag G vac, the scalar of the rank-1 vacuum block of G."""
    return float(np.real(vac.conj() @ G @ vac))


def local_gap(E: float, excited: np.ndarray, gap_min: float = SeriesControls.gap_min,
              tol_od: float = SeriesControls.tol_od, step: Interval | None = None) -> float:
    """Spectral gap above the vacuum energy E, from the ascending excited
    spectrum of a block-diagonal G.  E must be the ground energy of G, to
    within tol_od (1 + |E|), and the gap must reach gap_min and be positive
    for the resolvent."""
    lowest = float(excited[0])
    if E - lowest > tol_od * (1 + abs(E)):
        raise GapError(
            f"vacuum energy {E:.9f} is not the ground energy {lowest:.9f} of the local Hamiltonian",
            step=step, reason="vacuum-not-ground", value=E - lowest,
        )
    gap = lowest - E
    if gap < gap_min:
        raise GapError(
            f"local gap {gap:.6f} fell below the abort threshold {gap_min}",
            step=step, reason="gap-too-small", value=gap,
        )
    if gap <= 0:
        raise GapError("excited block of the local Hamiltonian reaches the vacuum energy",
                       step=step, reason="gap-assumption-violated", value=gap)
    return gap


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


def ledger_row(interval: Interval, op: LocalOperator, model: ChainModel) -> NormLedgerEntry:
    """The ledger row of the potential ``op`` on ``interval``: its norm
    against the decay bound, and the gap bound's inputs (``gap_bound``).

    Up to EXACT_DIM the norm and the range [lo, hi] are exact, from one
    eigvalsh (one per parity block); above it the range is [-F, F] for the
    Frobenius norm F >= ||op||, and the norm is F.  e and r are exact."""
    if op.dim <= EXACT_DIM:
        lo, hi = spectral_range(op)
        norm = max(abs(lo), abs(hi))  # op_norm(op), from the same eigvalsh
    else:
        norm = vector_norm(op.data.ravel())
        lo, hi = -norm, norm
    bound = decay_bound(interval.k, model.t)
    part, vac, _ = vacuum_part(op, build_projectors(interval, model.omega))
    e = vacuum_energy(part, vac)
    return NormLedgerEntry(
        interval=interval, norm=norm, bound=bound, ok=norm <= bound * (1 + 1e-9),
        lo=lo, hi=hi, e=e, r=_offdiag_norm(part, vac),
        c=max(hi - e, e - lo) + BOUND_MARGIN * norm,
    )


def gap_bound(model: ChainModel, rows, sites) -> tuple[float, float, float]:
    """(delta - |t| max_{i in sites} sum_{rows on i} c - 2 |t| sum r, sum e,
    2 |t| sum r) over the ledger ``rows``, the bound and the residual term
    saturated at the largest float.

    With every row's potential block-diagonal for its vacuum up to r, the
    first is a lower bound on the gap above the vacuum energy of the on-site
    terms on ``sites`` plus t times the rows' potentials, and a positive
    value makes the vacuum its unique ground state (``certify`` module
    docstring): over every row and site it is K's bound, over the proper
    subintervals of a step interval and its sites the step's."""
    charge = dict.fromkeys(sites, 0.0)  # per site: the sum of c over the rows on it
    e_sum = r_sum = 0.0
    for row in rows:
        for site in row.interval.sites:
            charge[site] += row.c
        e_sum += row.e
        r_sum += row.r
    t = abs(model.t)
    residual = _saturated(2.0 * (t * r_sum))  # t * r_sum first: 2 t overflows at t = 1e308
    bound = _saturated(model.onsite_gap - t * max(charge.values()) - residual)
    return bound, e_sum, residual


def step_gap_bound(state: BlockDiagState, model: ChainModel, interval: Interval) -> float:
    """``gap_bound`` on gap(G) for the local Hamiltonian G on ``interval``,
    from the ledger rows the sweep recorded for its ``_subpotentials``."""
    rows = [state.ledger[sub] for sub in sorted(_subpotentials(state, interval))]
    return gap_bound(model, rows, interval.sites)[0]


def _term_norm(t: float, j: int, norm: float) -> float:
    """|t|^j * norm, or inf where |t|^j overflows a float and norm is not 0."""
    if norm == 0.0:
        return 0.0
    try:
        return abs(t) ** j * norm
    except OverflowError:
        return inf


def _times(B: np.ndarray, g: np.ndarray) -> np.ndarray:
    """K g for each K = H + H^dag in the stack B, where H is zero but for its
    columns 3i, which are B[..., i]."""
    out = B @ g[::3]
    out[..., ::3] += (g.conj() @ B).conj()
    return out


def generator_series(G: np.ndarray, A: np.ndarray, vac: np.ndarray, V: np.ndarray,
                     t: float, controls: SeriesControls, step: Interval | None = None,
                     rest: np.ndarray | None = None) -> SeriesResult:
    """Accumulate y = sum_j t^j y_j, the vector of S = sum_j t^j S_j.

    Terminates once |t|^j ||(V)_j|| < tol_series; reaching jmax with the last
    term still above the cutoff raises SeriesError, reporting that norm
    (inf where |t|^j overflows a float), and so does a term that overflows,
    at once, with norm inf.  Per order the dense work is two matrix-vector
    products on the frame F and one substitution with the resolvent's
    Cholesky factor (module docstring), taken once; order one decides from
    bounds on ||V||.  A is G - E + (c - E) vac vac^dag, the matrix of
    ``operators.vacuum_shifted`` with E = vac^dag G vac taken off its
    diagonal, of which only the factor is kept.  G must have a positive gap
    above E (``local_gap``); where the factor fails all the same, GapError
    with reason "gap-assumption-violated" is raised.

    On an exactly even chain G, A, vac and V are their parity blocks that
    hold vac, where every frame vector lies, and ``rest`` is V's other
    block, which only ||V|| at order one reads.
    """
    try:
        R = cholesky_solver(A)
    except np.linalg.LinAlgError:
        raise GapError("excited block of the local Hamiltonian is not positive definite "
                       "above the vacuum energy", step=step,
                       reason="gap-assumption-violated") from None

    def resolved(u: np.ndarray) -> np.ndarray:
        x = R(u - vac * (vac.conj() @ u))
        return x - vac * (vac.conj() @ x)

    # Frame columns 3r, 3r+1, 3r+2 hold x_r, G x_r, V x_r for x_0 = vac and
    # x_r = y_r, and gram = F^dag F.  Every table entry has coefficients
    # K = H + H^dag where only the columns 3r of H, those of the x_r, are
    # nonzero; table[m-1] stacks them as H[:, 3r] = table[m-1][p-1, :, r]
    # over p = 1..m, at 3m + 3 rows, and vac_rows[m-1] holds K F^dag vac.
    F = np.stack([vac, G @ vac, V @ vac], axis=1)
    gram = F.conj().T @ F
    table = [np.zeros((1, 6, 2), dtype=complex)]
    vac_rows, v_coeffs, v_norms = [], [], []
    y_terms = [resolved(F[:, 2])]
    order = 1
    # ||V|| lies between max(||V vac||, ||V||_F / sqrt(D)) and ||V||_F, and is
    # taken itself only where these leave the order-one stop test open, or
    # at jmax = 1, where the SeriesError below reports the term
    frobenius, D = vector_norm(V.ravel()), G.shape[0]
    if rest is not None:
        frobenius, D = float(np.hypot(frobenius, vector_norm(rest.ravel()))), 2 * D
    last = _term_norm(t, 1, frobenius)
    if last >= controls.tol_series:
        last = _term_norm(t, 1, max(vector_norm(F[:, 2]), frobenius / sqrt(D)))
        if last < controls.tol_series or controls.jmax == 1:
            last = _term_norm(t, 1, op_norm(V if rest is None else np.stack((V, rest))))
    while order < controls.jmax and last >= controls.tol_series:
        j = order + 1
        n = 3 * j
        x = y_terms[-1]
        new = np.stack([x, G @ x, V @ x], axis=1)
        cross = F.conj().T @ new
        gram = np.block([[gram, cross], [cross.conj().T, new.conj().T @ new]])
        F = np.concatenate([F, new], axis=1)
        # ad S_r(X) = H + H^dag with H[:, 3r] = X vac and H[:, 0] = -X y_r.
        # B[(1, j-1)] gains ad S_{j-1}(G), which completes column j-1:
        # G vac and G y_{j-1} are frame columns 1 and n - 2
        table[-1][0, 1, order] += 1
        table[-1][0, n - 2, 0] -= 1
        vac_rows.append(_times(table[-1], gram[:, 0]))
        # B[(p, j)] = sum_r ad S_r(B[(p-1, j-r)]) / p, one source column
        # m = j - r at a time for every depth p
        H = np.zeros((order, n, j), dtype=complex)
        for m, (B, B_vac) in enumerate(zip(table, vac_rows), start=1):
            k, r = B.shape[1], j - m
            H[:m, :k, r] = B_vac
            H[:m, :k, 0] -= _times(B, gram[:k, 3 * r])
        column = np.zeros((j, n + 3, j + 1), dtype=complex)
        column[1:, :n, :j] = H / np.arange(2, j + 1)[:, None, None]
        # B[(1, j)] = ad S_{j-1}(V) so far: V vac and V y_{j-1} are frame
        # columns 2 and n - 1
        column[0, 2, order] += 1
        column[0, n - 1, 0] -= 1
        table.append(column)
        K = np.zeros((n, n), dtype=complex)
        K[:, ::3] = column[:, :n, :j].sum(axis=0)
        K += K.conj().T
        RF = np.linalg.qr(F, mode="r")
        K_F = RF @ K @ RF.conj().T
        if not np.isfinite(K_F).all():  # from an overflowed frame, Gram matrix or term
            raise SeriesError(f"series diverged by order {j}: its terms overflow a float",
                              step=step, last_term_norm=inf)
        v_norms.append(float(np.max(np.abs(np.linalg.eigvalsh(K_F)))))
        y_terms.append(resolved(F @ (K @ gram[:, 0])))
        v_coeffs.append(K)
        order = j
        last = _term_norm(t, order, v_norms[-1])

    if last >= controls.tol_series:
        raise SeriesError(
            f"series did not converge by order {order}: last term norm {last:.3e}",
            step=step, last_term_norm=last,
        )
    # zero terms are skipped: after a zero (V)_j, t**j may overflow a float
    y = sum((t ** j * yj for j, yj in enumerate(y_terms, start=1) if yj.any()),
            np.zeros_like(vac))
    return SeriesResult(
        y=y, order=order, frame=F, v_coeffs=tuple(v_coeffs),
        v_term_norms=tuple(v_norms), y_terms=tuple(y_terms),
    )


def diagonalized_potential(G: np.ndarray, V: np.ndarray, W: np.ndarray, C: np.ndarray,
                           t: float, vac: np.ndarray, tol_od: float = SeriesControls.tol_od,
                           step: Interval | None = None) -> tuple[np.ndarray, float]:
    """Replacement potential (exp(S)(G + tV)exp(-S) - G)/t and its residual,
    for S = y vac^dag - vac y^dag and exp(S) = I + W C W^dag
    (``operators.rotation_factors``).

    Uses the closed form rather than the summed diagonal series, so the only
    truncation in play is the one already inside S.  The residual is the
    off-diagonal norm of the result, which must sit below tol_od.

    The G part is folded into the same thin update as the conjugation of
    V: ``conjugate_by_unitary`` takes the rows W^dag G at the factor C / t,
    so exp(S) G exp(-S) - G is divided by t through C / t and no rounding
    error of G's size is divided by a small coupling.
    """
    if t == 0.0:
        return V, _offdiag_norm(V, vac)
    out = conjugate_by_unitary(V, W, C, rows=W.conj().T @ G, rows_scale=t)
    residual = _offdiag_norm(out, vac)
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


@cache
def _block_rows(n_b: int, n_J: int, vacuum_parity: int) -> tuple[np.ndarray, ...]:
    """Index of a [e, i, r', c'] gather from rows [i, r, c] of W'^dag X on an
    interval J of n_J sites whose last n_b sites are the source's own: row r
    lies in J's block vacuum_parity + p(r), at r' = r >> 1, and c' is the
    position of column c in block e."""
    rows = np.stack(parity_sectors(n_b)[::1 - 2 * vacuum_parity])
    cols = np.stack(parity_sectors(n_J))
    return np.arange(2)[None, :, None, None], rows[:, None, :, None], cols[:, None, None, :]


def _source_rows(W: np.ndarray, src: LocalOperator, I: Interval, M: int,
                 vacuum_parity: int = 0) -> np.ndarray:
    """W'^dag (1 (x) w (x) 1) on J = I u src, for W' = 1_L (x) W (x) 1_R and
    the potential w of a growth source, in the row layout (l, i, r) of
    ``operators.conjugate_by_unitary``: one array, which both parity blocks
    of J share where the source is graded and I holds J's last site, or the
    two blocks' rows stacked where the source holds it.

    Only the sites the source shares with I are contracted with W, so the
    source is never embedded into J.  For a graded source whose support
    holds J's last site, W is the whole rotation's, nonzero only on the
    vacuum's parity ``vacuum_parity`` e0: row (i, r) then lies in J's block
    e0 + p(r), and block e takes those rows at its own columns.  Where I
    holds J's last site, W is the rows of the rotation's own parity block,
    and both blocks of J see the whole w, their rows alike.
    """
    s = src.support
    o = M ** (min(I.last, s.last) - max(I.q, s.q) + 1)  # shared sites
    a = W.shape[0] // o  # sites of I only
    b = s.dim(M) // o  # sites of the source only
    w = src.matrix
    if s.q > I.q:  # J = [a o b], L = 1, R = b: rows (i, r), columns (a, o, b)
        Wc = W.reshape(a, o, 2).conj().transpose(2, 0, 1)[:, None]  # [i, -, a, o]
        out = Wc @ w.reshape(o, b, o * b).transpose(1, 0, 2)  # [i, r, a, (o b)]
        if src.graded:
            gather = _block_rows(b.bit_length() - 1, s.last - I.q + 1, vacuum_parity)
            return out.reshape(2, b, -1)[gather].reshape(2, b, -1)
    else:  # J = [b o a], L = b, R = 1: rows (l, i), columns (b, o, a)
        Wc = W.reshape(o, a, 2).conj().transpose(2, 0, 1)  # [i, o, a]
        out = w.reshape(b, o, b * o).transpose(0, 2, 1)[:, None] @ Wc  # [l, i, (b o), a]
    return out.reshape(2 * b, -1)


def _zero(J: Interval, M: int, graded: bool) -> LocalOperator:
    """A zero potential on J, dense or as two parity blocks: read-only zero
    views, no D x D array."""
    D = J.dim(M)
    return _operator(J, np.broadcast_to(0j, (2, D // 2, D // 2) if graded else (D, D)))


def advance(state: BlockDiagState, model: ChainModel,
            controls: SeriesControls = SeriesControls()) -> BlockDiagState:
    """Run the first step of ``iter_steps`` after ``state.step`` and
    transport every potential across it; the step's potential, now final,
    has its ledger row recorded.  The step's gap is its ``step_gap_bound``
    where that reaches gap_min and is positive, with no eigensolve, and its
    exact gap anywhere else (module docstring).

    On an exactly even chain the step reads the parity block e0 that holds
    the vacuum alone: its series, factor and replaced potential, whose other
    block stays as it is.  Its rotation keeps every potential's parity
    blocks, and a potential on J is conjugated block by block: as
    1_L (x) exp(S) (x) 1_{R/2} where I leaves out J's last site, and where
    I holds it, on row block l of block e by the rotation's block of
    parity e + p(l), which is the identity unless that parity is e0.
    """
    I = next((J for J in iter_steps(model.N) if state.step is None or J > state.step), None)
    if I is None:
        raise ValidationError(f"sweep complete: no step follows {state.step} for N={model.N}")
    graded = model.exactly_even
    if any(op.graded != graded for op in state.potentials.values()):
        raise ValidationError(
            "the potentials of an exactly even chain are stored as their parity blocks, of any "
            "other chain dense; start from initial_state(model)")
    vac = build_projectors(I, model.omega)
    G = local_hamiltonian(state, model, I)
    G_v, vac_v, G_rest = vacuum_part(G, vac)
    e0 = vacuum_block(vac)[0] if graded else 0
    E = vacuum_energy(G_v, vac_v)
    # one shifted array per step: with E taken off its diagonal, the matrix
    # the resolvent factors; its eigensolve (``shifted_excited``) gives the
    # gap only where the step bound falls short of gap_min
    A = vacuum_shifted(G_v, vac_v, E)
    gap = step_gap_bound(state, model, I)
    if not (gap >= controls.gap_min and gap > 0):
        gap = local_gap(E, shifted_excited(A, G_rest), controls.gap_min, controls.tol_od, I)
    A.flat[::A.shape[0] + 1] -= E

    V_op = state.potentials.get(I) or _zero(I, model.M, graded)
    V, _, V_rest = vacuum_part(V_op, vac)
    series = generator_series(G_v, A, vac_v, V, model.t, controls, I, V_rest)
    del A
    s_norm = vector_norm(series.y)

    if s_norm == 0.0:
        # Zero generator (t = 0, zero potential, or already block-diagonal):
        # every conjugation is the identity and the map is reused as is.
        diag = StepDiagnostics(I, E, gap, series.order, _offdiag_norm(V, vac_v), 0.0)
        return _recorded(I, state.potentials, state, diag, model)

    W, C = rotation_factors(series.y, vac_v)
    V_new, residual = diagonalized_potential(G_v, V, W, C, model.t, vac_v,
                                             controls.tol_od, I)
    new_pots = dict(state.potentials)
    if graded:
        V_new = np.stack((V_new, V_rest) if e0 == 0 else (V_rest, V_new))
    new_pots[I] = _operator(I, V_new)
    W_I = W  # the whole rotation's W
    if graded:
        W_I = np.zeros((G.dim, 2), dtype=complex)
        W_I[parity_sectors(I.k + 1)[e0]] = W

    # Intervals strictly containing the step interval, which are exactly the
    # (l, q) with l > I.k and I.last - l <= q <= I.q that fit the chain.  The
    # growth terms are linear in their sources, so the new potential is
    # V_J + Delta(V_J + sum W) for Delta(X) = exp(S) X exp(-S) - X, and
    # Delta reads X only through its rows W'^dag X: the sources enter as
    # rows contracted from their own small matrices.  The result is exactly
    # Hermitian, as V_J is.
    for l in range(I.k + 1, model.N):
        for q in range(max(1, I.last - l), min(I.q, model.N - l) + 1):
            J = Interval(l, q)
            old = state.potentials.get(J)
            sources = [state.potentials[s] for s in _growth_sources(I, J)
                       if s in state.potentials]
            if old is None and not sources:
                continue
            holds_last = graded and J.last == I.last
            W_J = W if holds_last else W_I
            # a created J starts from a read-only zero view: no D x D array
            V_J = (old or _zero(J, model.M, graded)).data
            rows = (sum(_source_rows(W_J, src, I, model.M, e0) for src in sources)
                    if sources else None)
            # a graded V_J is conjugated as its two blocks stacked
            new = conjugate_by_unitary(V_J.reshape(-1, V_J.shape[-1]), W_J, C,
                                       model.M ** (I.q - J.q), rows=rows,
                                       left_parity=e0 if holds_last else None)
            new_pots[J] = _operator(J, new.reshape(V_J.shape))

    diag = StepDiagnostics(I, E, gap, series.order, residual, s_norm)
    return _recorded(I, new_pots, state, diag, model)


def _recorded(I: Interval, potentials: dict[Interval, LocalOperator], state: BlockDiagState,
              diag: StepDiagnostics, model: ChainModel) -> BlockDiagState:
    """The state after step I, with the ledger row of its potential, now final."""
    ledger = state.ledger
    if I in potentials:
        ledger = {**ledger, I: ledger_row(I, potentials[I], model)}
    return BlockDiagState(I, potentials, state.diagnostics + (diag,), ledger)


def sweep(model: ChainModel, controls: SeriesControls = SeriesControls()) -> BlockDiagState:
    """Run every step of ``iter_steps(model.N)``.

    On failure the raised error, any ChainError or a MemoryError, carries
    the state reached so far (attribute ``partial_state``) so reports can
    list its steps; a GapError or SeriesError also names the failing step.
    """
    state = initial_state(model)
    for _ in iter_steps(model.N):
        try:
            state = advance(state, model, controls)
        except (ChainError, MemoryError) as err:
            err.partial_state = state
            raise
    return state


def assemble_full(state: BlockDiagState, model: ChainModel) -> LocalOperator:
    """Embed on-site terms and every stored potential into the full chain:
    K as a LocalOperator, dense, or for an exactly even chain its two
    parity blocks, whose dense matrix is ``.matrix``."""
    return _assemble(model, Interval(model.N - 1, 1), state.potentials.values(),
                     model.energy_offset)
