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

Once the leak check has passed, G is block-diagonal and
spec G = {E} u spec(excited block).  One eigvalsh per step, of G with its
vacuum eigenvalue shifted above the rest (``operators.excited_spectrum``),
gives the excited spectrum for the ground-state check and the gap.  The
resolvent needs no eigenvectors: R = (G - E + vac vac^dag)^{-1} is
(G - E)^{-1} on the excited block and 1 on vac, so one matrix inverse per
step gives every y_j = P+ R P+ (V)_j vac.

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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import inf, isfinite, sqrt
from numbers import Real

import numpy as np

from .errors import GapError, OrderError, SeriesError, ValidationError
from .intervals import Interval, StepIndex, initial_step, iter_steps, successor
from .model import ChainModel
from .operators import (
    LocalOperator,
    ProjectorPair,
    build_projectors,
    conjugate_by_unitary,
    dense_dim,
    embed,
    excited_spectrum,
    op_norm,
    rotation_factors,
    unitary_exp,  # unused here; perfbench/tracing.py looks it up on this module
    vector_norm,
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
        try:
            object.__setattr__(self, "jmax", operator.index(self.jmax))
        except TypeError:
            raise ValidationError(f"jmax must be an integer, got {self.jmax!r}") from None
        if self.jmax < 1:
            raise ValidationError(f"jmax must be at least 1, got {self.jmax}")
        reals = (self.tol_series, self.tol_od, self.gap_min)
        if not all(isinstance(x, Real) for x in reals):
            raise ValidationError(f"tolerances and gap_min must be real numbers, got {reals!r}")
        if not all(isfinite(x) for x in reals):
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
    """Summed generator S = y vac^dag - vac y^dag, the term norms ||(V)_j||
    from j = 2 on and ||y_j|| from j = 1 on, and the series terms: (V)_1 is
    the potential and, for j >= 2, (V)_j = F K F^dag with K = v_coeffs[j-2]
    of size 3j and F the first 3j columns of ``frame``."""

    y: np.ndarray
    vac: np.ndarray
    order: int
    frame: np.ndarray
    v_coeffs: tuple[np.ndarray, ...]
    v_term_norms: tuple[float, ...]
    s_term_norms: tuple[float, ...]


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


def vacuum_energy(G: LocalOperator, pair: ProjectorPair, excited: np.ndarray,
                  tol_od: float = SeriesControls.tol_od, step: StepIndex | None = None) -> float:
    """Scalar of the rank-1 vacuum block; must match the ground energy of G,
    min(E, excited[0]) for the ascending excited spectrum of a
    block-diagonal G."""
    E = float(np.real(pair.vac.conj() @ G.matrix @ pair.vac))
    ground = min(E, float(excited[0]))
    if abs(E - ground) > tol_od * (1 + abs(E)):
        raise GapError(
            f"vacuum energy {E:.9f} is not the ground energy {ground:.9f} of the local Hamiltonian",
            step=step, reason="vacuum-not-ground", value=E - ground,
        )
    return E


def local_gap(E: float, excited: np.ndarray, gap_min: float = SeriesControls.gap_min,
              step: StepIndex | None = None) -> float:
    """Spectral gap above the vacuum energy E, from the ascending excited
    spectrum; it must reach gap_min and be positive for the resolvent."""
    gap = float(excited[0]) - E
    if gap < gap_min:
        raise GapError(
            f"local gap {gap:.6f} fell below the abort threshold {gap_min}",
            step=step, reason="gap-too-small", value=gap,
        )
    if gap <= 0:
        raise GapError("excited block of the local Hamiltonian reaches the vacuum energy",
                       step=step, reason="gap-assumption-violated", value=gap)
    return gap


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


def generator_series(G: np.ndarray, E: float, pair: ProjectorPair, V: np.ndarray,
                     t: float, controls: SeriesControls,
                     step: StepIndex | None = None) -> SeriesResult:
    """Accumulate y = sum_j t^j y_j, the vector of S = sum_j t^j S_j.

    Terminates once |t|^j ||(V)_j|| < tol_series; reaching jmax with the last
    term still above the cutoff raises SeriesError, reporting that norm
    (inf where |t|^j overflows a float).  The table B[(p, m)] and every
    (V)_j with j >= 2 are coefficient matrices on the frame F of the module
    docstring, so the dense work per order is three matrix-vector products,
    and order one decides from bounds on ||V||.  G must have a positive gap
    above E (``local_gap``).
    """
    vac = pair.vac
    R = np.linalg.inv(G - E * np.eye(G.shape[0]) + np.outer(vac, vac.conj()))

    def resolved(u: np.ndarray) -> np.ndarray:
        x = R @ (u - vac * (vac.conj() @ u))
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
    frobenius = vector_norm(V.ravel())
    last = _term_norm(t, 1, frobenius)
    if last >= controls.tol_series:
        last = _term_norm(t, 1, max(vector_norm(F[:, 2]), frobenius / sqrt(G.shape[0])))
        if last < controls.tol_series or controls.jmax == 1:
            last = _term_norm(t, 1, op_norm(V))
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
        v_norms.append(float(np.max(np.abs(np.linalg.eigvalsh(RF @ K @ RF.conj().T)))))
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
        y=y, vac=vac, order=order, frame=F, v_coeffs=tuple(v_coeffs),
        v_term_norms=tuple(v_norms), s_term_norms=tuple(float(np.linalg.norm(x)) for x in y_terms),
    )


def diagonalized_potential(G: np.ndarray, V: np.ndarray, y: np.ndarray, t: float,
                           pair: ProjectorPair, tol_od: float = SeriesControls.tol_od,
                           step: StepIndex | None = None) -> tuple[np.ndarray, float]:
    """Replacement potential (exp(S)(G + tV)exp(-S) - G)/t and its residual,
    for S = y vac^dag - vac y^dag.

    Uses the closed form rather than the summed diagonal series, so the only
    truncation in play is the one already inside S.  The residual is the
    off-diagonal norm of the result, which must sit below tol_od.

    The G part is folded into the same thin update as the conjugation of
    V: with exp(S) = I + W C W^dag, ``conjugate_by_unitary`` takes the rows
    W^dag G at the factor C / t, so exp(S) G exp(-S) - G is divided by t
    through C / t and no rounding error of G's size is divided by a small
    coupling.
    """
    if t == 0.0:
        return V, _offdiag_norm(V, pair)
    W, C = rotation_factors(y, pair.vac)
    out = conjugate_by_unitary(V, W, C, rows=W.conj().T @ G, rows_scale=t)
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


def _source_rows(W: np.ndarray, src: LocalOperator, I: Interval, M: int) -> np.ndarray:
    """W'^dag (1 (x) w (x) 1) on J = I u src, for W' = 1_L (x) W (x) 1_R and
    the potential w of a growth source, in the row layout (l, i, r) of
    ``operators.conjugate_by_unitary``.

    Only the sites the source shares with I are contracted with W, so the
    source is never embedded into J.
    """
    s = src.support
    o = M ** (min(I.last, s.last) - max(I.q, s.q) + 1)  # shared sites
    a = I.dim(M) // o  # sites of I only
    b = s.dim(M) // o  # sites of the source only
    w = src.matrix
    if s.q > I.q:  # J = [a o b], L = 1, R = b: rows (i, r), columns (a, o, b)
        Wc = W.reshape(a, o, 2).conj().transpose(2, 0, 1)[:, None]  # [i, -, a, o]
        out = Wc @ w.reshape(o, b, o * b).transpose(1, 0, 2)  # [i, r, a, (o b)]
    else:  # J = [b o a], L = b, R = 1: rows (l, i), columns (b, o, a)
        Wc = W.reshape(o, a, 2).conj().transpose(2, 0, 1)  # [i, o, a]
        out = w.reshape(b, o, b * o).transpose(0, 2, 1)[:, None] @ Wc  # [l, i, (b o), a]
    return out.reshape(2 * b, -1)


def advance(state: BlockDiagState, model: ChainModel,
            controls: SeriesControls = SeriesControls()) -> BlockDiagState:
    """Run the successor step and transport every potential across it."""
    step = successor(state.step, model.N)
    I = Interval(step.k, step.q)
    pair = build_projectors(I, model.omega)
    G = local_hamiltonian(state, model, pair, controls.tol_od)
    excited = excited_spectrum(G.matrix, pair.vac)
    E = vacuum_energy(G, pair, excited, controls.tol_od, step)
    gap = local_gap(E, excited, controls.gap_min, step)

    V_op = state.potentials.get(I)
    dim = I.dim(model.M)
    V = V_op.matrix if V_op is not None else np.zeros((dim, dim), dtype=complex)
    series = generator_series(G.matrix, E, pair, V, model.t, controls, step)
    s_norm = vector_norm(series.y)

    if s_norm == 0.0:
        # Zero generator (t = 0, zero potential, or already block-diagonal):
        # every conjugation is the identity and the map is reused as is.
        diag = StepDiagnostics(step, E, gap, series.order, _offdiag_norm(V, pair), 0.0)
        return BlockDiagState(step, state.potentials, state.diagnostics + (diag,))

    V_new, residual = diagonalized_potential(G.matrix, V, series.y, model.t, pair,
                                             controls.tol_od, step)
    new_pots = dict(state.potentials)
    new_pots[I] = LocalOperator(I, V_new)
    W, C = rotation_factors(series.y, pair.vac)

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
            dim = J.dim(model.M)
            V_J = old.matrix if old is not None else np.zeros((dim, dim), dtype=complex)
            rows = sum(_source_rows(W, src, I, model.M) for src in sources) if sources else None
            new_pots[J] = LocalOperator(J, conjugate_by_unitary(
                V_J, W, C, model.M ** (I.q - J.q), rows=rows))

    diag = StepDiagnostics(step, E, gap, series.order, residual, s_norm)
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


def assemble_full(state: BlockDiagState, model: ChainModel) -> np.ndarray:
    """Embed on-site terms and every stored potential into the full chain."""
    dim = dense_dim(model.M, model.N)
    chain = Interval(model.N - 1, 1)
    K = model.energy_offset * np.eye(dim, dtype=complex)
    for site in range(1, model.N + 1):
        embed(LocalOperator(Interval(0, site), model.onsite), chain, model.M, out=K)
    for op in state.potentials.values():
        embed(op, chain, model.M, out=K, scale=model.t)
    return K
