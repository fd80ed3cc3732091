"""Dense operator algebra on interval subspaces, whole or as parity blocks.

Operators live on the tensor factors of their support interval, with the
leftmost site as the most significant base-M digit, and act as the identity
elsewhere.  Matrices are dense complex; Hermitian / anti-Hermitian structure
is checked against a tolerance, never assumed from storage format.
The product vacuum of an interval is one unit vector vac
(``build_projectors``), and its projector vac vac^dag is never stored: the
complement 1 - vac vac^dag is never given a basis.  One vacuum shift,
``vacuum_shifted``, moves the vacuum eigenvalue above the rest.  The
sweep's ``advance`` factors that array for the resolvent and diagonalizes
it (``shifted_excited``) only where its step bound falls short of gap_min;
``excited_spectrum``, which only ``certify`` calls, diagonalizes it for
the fully swept Hamiltonian.

Hermitian spectra (``excited_spectrum``, ``spectral_range``, which
``op_norm`` reads) take one eigvalsh of a dense matrix, or one of each
block of a graded one.

An exactly even operator of size 2^n may be stored graded
(``LocalOperator.from_blocks``): as its two parity blocks, stacked, each
indexed by the sites but the last, whose bit the block's parity fixes
(``parity_blocks``).  The sweep stores every potential of an exactly even
chain so, and ``embed``, ``conjugate_by_unitary``, ``spectral_range`` and
``vacuum_part`` read the blocks themselves: an operator on sites that
leave out the last acts on each block as 1_L (x) A (x) 1_{R/2}, and one on
sites that hold it acts on row block l of block e as A's block of parity
e + p(l).  ``LocalOperator.matrix`` builds the dense matrix on each read.
A vacuum shift of the vacuum's block leaves the other block unshifted, so
the excited spectrum drops the shifted level from the vacuum's block alone.

The sweep's generators have rank two, S = y vac^dag - vac y^dag with y
orthogonal to vac, so exp(S) is a rotation by theta = ||y|| in
span{vac, y}.  ``rotation_factors`` writes it in closed form as
exp(S) = I + W C W^dag with W = [vac, y/theta] and a 2x2 block C: exactly
unitary, never a Pade or series approximation, so conjugations preserve
spectra to machine precision.  ``conjugate_by_unitary`` applies
1_L (x) exp(S) (x) 1_R to a potential A on a containing interval as one
thin update: with W' = 1_L (x) W (x) 1_R, everything it needs of A is
P = W'^dag A, 2LR rows read through a reshaped view, and the change
B + B^dag is built from P and summed into A tile by tile, at O(D^2) cost,
with no embedded unitary and no transposed copy of A.  Its ``rows``
argument adds the change of a second operator known only by its rows,
which is how the sweep carries growth sources and the replaced potential
carries G.  ``unitary_exp`` keeps the general eigendecomposition route as
the reference.  ``cholesky_solver`` applies the inverse of a Hermitian
positive definite matrix, the sweep's reduced resolvent, from one Cholesky
factor by blocked substitution, so no inverse matrix is formed.

Embedding works the same way in the other direction: 1_L (x) A (x) 1_R is
nonzero only on a strided (L, d, R, d) view of the target matrix, the
diagonal over the two identity factors.  ``embed`` writes A through that
view instead of Kronecker padding, and its accumulate form adds a multiple
of A into an existing matrix in place, touching D^2 / (L R) entries and
building no D x D temporary.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from math import isfinite

import numpy as np

from .errors import DimensionError, EmbeddingError, GeneratorError, ValidationError
from .intervals import Interval

TOL_HERMITIAN = 1e-9  # a given matrix (``hermitian_rule``)
TOL_GENERATOR = 1e-10  # a generator (``rotation_factors``, ``unitary_exp``)
# The gap bounds' rounding margin: each eigenvalue or norm a bound reads
# gives way by this fraction of its matrix's norm (the on-site gap shrinks,
# each c_I grows).  The rounding of eigvalsh, of a Frobenius norm, of e_I
# and of r_I is about D 2^-52 of the norm, under 1e-12 for every D within
# the dense guard.
BOUND_MARGIN = 1e-10
# Largest full-space dimension that any dense assembly or check may reach.
DENSE_GUARD = 4096


def dense_dim(M: int, n: int, what: str = "full-space") -> int:
    """M**n for n sites of dimension M, or DimensionError naming M and n past
    DENSE_GUARD.  Built one factor at a time and given up at the first
    product past the guard, so nothing above M * DENSE_GUARD is formed."""
    dim = 1
    for i in range(1, n + 1):
        dim *= M
        if dim > DENSE_GUARD:
            size = f"{M}**{n}" + (f" = {dim}" if i == n else "")
            raise DimensionError(f"{what} dimension {size} exceeds guard {DENSE_GUARD}")
    return dim


def _as_matrix(m) -> np.ndarray:
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """An operator on the Hilbert space of one interval, stored as ``data``:
    a dense matrix, or, for a graded operator built by ``from_blocks``, its
    two parity blocks stacked in a 2 x 2^(n-1) x 2^(n-1) array
    (``parity_blocks``).  ``dim`` is the full size either way, and
    ``matrix`` the dense matrix, which a graded operator builds from its
    blocks on each read."""

    support: Interval
    data: np.ndarray

    def __post_init__(self):
        data = _as_matrix(self.data)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def from_blocks(cls, support: Interval, blocks) -> LocalOperator:
        """The graded operator on ``support`` of size 2^n whose two parity
        blocks, stacked, are ``blocks``."""
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 3 or blocks.shape[0] != 2 or blocks.shape[1] != blocks.shape[2]:
            raise ValidationError(
                f"expected two square parity blocks of one size, got shape {blocks.shape}")
        blocks.flags.writeable = False
        op = object.__new__(cls)
        object.__setattr__(op, "support", support)
        object.__setattr__(op, "data", blocks)
        return op

    @property
    def graded(self) -> bool:
        return self.data.ndim == 3

    @property
    def dim(self) -> int:
        return 2 * self.data.shape[1] if self.graded else self.data.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        if not self.graded:
            return self.data
        mat = parity_matrix(self.data)
        mat.flags.writeable = False
        return mat


def hermitian_defect(m) -> float:
    return float(abs(m - m.conj().T).max()) if m.size else 0.0


def require_hermitian(m, message: str) -> float:
    """max|m - m^dag| of a square numpy matrix under ``hermitian_rule``; a
    non-finite entry fails."""
    with np.errstate(invalid="ignore"):  # inf - inf in m - m^dag is nan, which fails below
        defect = hermitian_defect(m)
    return hermitian_rule(defect, float(abs(m).max()), message)


def hermitian_rule(defect: float, largest: float, message: str) -> float:
    """``defect``, the max|m - m^dag| of an operator whose largest entry has
    magnitude ``largest``, if at most TOL_HERMITIAN max(1, largest), else
    ValidationError(message); a nan defect fails."""
    if not defect / max(1.0, largest) <= TOL_HERMITIAN:
        raise ValidationError(f"{message} (|m - m^dag| = {defect:.3e})")
    return defect


def embed(op: LocalOperator, target: Interval, M: int, *,
          out: np.ndarray | None = None, scale: complex = 1.0) -> LocalOperator | np.ndarray:
    """Pad ``op`` with identities so it acts on ``target``: 1_L (x) A (x) 1_R,
    written through a strided view of the target matrix.

    Without ``out``, returns the embedded LocalOperator (``scale`` times
    the Kronecker product), graded where ``op`` is.  With ``out``, a D x D
    array on ``target`` or its stacked parity blocks, adds ``scale`` times
    the embedded operator into it in place and returns ``out``.  On a
    parity block, indexed by the target's sites but its last, the embedded
    operator is 1_L (x) A (x) 1_{R/2} where ``op`` leaves out the last site;
    where ``op`` holds it, row block l of block e holds A's block of parity
    e + p(l).  The embedding is an algebra homomorphism and leaves the
    operator norm unchanged.
    """
    sup = op.support
    if not target.contains(sup):
        raise EmbeddingError(f"support {sup} not contained in target {target}")
    L = M ** (sup.q - target.q)
    R = M ** (target.last - sup.last)
    D = L * op.dim * R
    acc = np.zeros((2, D // 2, D // 2) if op.graded else (D, D), dtype=complex) \
        if out is None else out
    # the strided views below are not bounds-checked
    if acc.shape != ((2, D // 2, D // 2) if acc.ndim == 3 else (D, D)):
        raise EmbeddingError(f"accumulator shape {acc.shape} does not match target {target}")
    if acc.ndim == 2:
        _embed_dense(op.matrix, L, R, acc, scale)
    elif R > 1:
        _embed_dense(op.matrix, L, R // 2, acc, scale)
    else:
        blocks = op.data if op.graded else parity_blocks(op.data)
        d = blocks.shape[1]
        sb, s0, s1 = acc.strides
        # [e, l, a, b]: the diagonal tile of row block l of block e
        view = np.lib.stride_tricks.as_strided(
            acc, shape=(2, L, d, d), strides=(sb, d * (s0 + s1), s0, s1), writeable=True)
        for p, lefts in enumerate(parity_sectors(L.bit_length() - 1)):
            view[:, lefts] += scale * blocks[::1 - 2 * p, None]
    if out is not None:
        return out
    return LocalOperator.from_blocks(target, acc) if acc.ndim == 3 else LocalOperator(target, acc)


def _embed_dense(A: np.ndarray, L: int, R: int, acc: np.ndarray, scale: complex) -> None:
    """acc += scale 1_L (x) A (x) 1_R, through the strided view of acc, or of
    each matrix of a stack of them."""
    d = A.shape[0]
    *lead, s0, s1 = acc.strides
    # entry (l a r, l b r) of a D x D matrix, D = L d R, indexed as [l, a, r, b]
    view = np.lib.stride_tricks.as_strided(
        acc, shape=(*acc.shape[:-2], L, d, R, d),
        strides=(*lead, d * R * (s0 + s1), R * s0, s0 + s1, R * s1), writeable=True,
    )
    view += scale * A[None, :, None, :]


@cache
def parity_sectors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd indices of 0..2^n-1 by the parity of their popcount,
    read-only: in a fermion occupation basis the fermion parity
    prod_j (1 - 2 n_j) is diagonal, with sign (-1)^popcount."""
    idx = np.arange(2 ** n)
    odd = np.zeros(2 ** n, dtype=bool)
    for j in range(n):
        odd ^= (idx >> j) & 1 == 1
    sectors = np.flatnonzero(~odd), np.flatnonzero(odd)
    for sector in sectors:
        sector.flags.writeable = False
    return sectors


@cache
def _sector_grids(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``np.ix_`` grids of the even-even, odd-odd, even-odd and odd-even
    entries of a matrix of size 2^n."""
    even, odd = parity_sectors(n)
    return np.ix_(even, even), np.ix_(odd, odd), np.ix_(even, odd), np.ix_(odd, even)


def parity_even(m: np.ndarray) -> bool:
    """Whether every entry of a matrix of size 2^n across the popcount-parity
    split of its basis indices (``parity_sectors``) is exactly 0.0."""
    grids = _sector_grids(m.shape[0].bit_length() - 1)
    return not (m[grids[2]].any() or m[grids[3]].any())


def parity_blocks(m: np.ndarray) -> np.ndarray:
    """The even and the odd block of a matrix of size 2^n, stacked, their
    rows and columns gathered in the order of ``parity_sectors``.  Index b
    of a sector sits at b >> 1 of its block, so a block is indexed by the
    sites but the last: their parity and the block's fix the last site's bit."""
    grids = _sector_grids(m.shape[0].bit_length() - 1)
    return np.stack((m[grids[0]], m[grids[1]]))


def parity_matrix(blocks: np.ndarray) -> np.ndarray:
    """The matrix of size 2^n whose ``parity_blocks`` are ``blocks``."""
    D = 2 * blocks.shape[1]
    m = np.zeros((D, D), dtype=complex)
    for grid, block in zip(_sector_grids(D.bit_length() - 1), blocks):
        m[grid] = block
    return m


def vacuum_block(vac: np.ndarray) -> tuple[int, np.ndarray]:
    """The parity of a basis vector vac of size 2^n, and vac in the basis of
    that parity block (``parity_blocks``)."""
    i = int(vac.nonzero()[0][0])
    v = np.zeros(vac.shape[0] // 2, dtype=complex)
    v[i >> 1] = vac[i]
    return i.bit_count() & 1, v


def vacuum_part(op: LocalOperator, vac: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The matrix of ``op`` on the part of the space that holds the unit
    vector vac, vac there, and the rest of ``op``: the whole matrix, vac and
    None, or for a graded ``op`` the parity block that holds the basis
    vector vac (``vacuum_block``), vac in it and the other block.  Every
    product of ``op`` with vac reads the first."""
    if not op.graded:
        return op.data, vac, None
    parity, v = vacuum_block(vac)
    return op.data[parity], v, op.data[1 - parity]


def spectral_range(op: LocalOperator | np.ndarray) -> tuple[float, float]:
    """Lowest and highest eigenvalue of a matrix, or of one given as its
    stacked parity blocks, Hermitian by ``require_hermitian``, read from its
    Hermitian part; (0, 0) if empty."""
    m = op.data if isinstance(op, LocalOperator) else np.asarray(op, dtype=complex)
    if m.size == 0:
        return 0.0, 0.0
    # eigvalsh reads one triangle, so an exactly Hermitian part needs no symmetrized copy
    evals = [np.linalg.eigvalsh(
        p if require_hermitian(p, "op_norm supports Hermitian matrices only") == 0.0
        else (p + p.conj().T) / 2) for p in (m if m.ndim == 3 else (m,))]
    return float(min(e[0] for e in evals)), float(max(e[-1] for e in evals))


def op_norm(op: LocalOperator | np.ndarray) -> float:
    """Spectral norm (largest |eigenvalue|) of a Hermitian matrix, from its
    ``spectral_range``."""
    lo, hi = spectral_range(op)
    return max(abs(lo), abs(hi))


def build_projectors(interval: Interval, omega: np.ndarray) -> np.ndarray:
    """Product vacuum vac = omega (x) ... (x) omega on ``interval``, for the
    on-site vector omega normalized; its projector is vac vac^dag."""
    omega = np.asarray(omega, dtype=complex)
    omega = omega / np.linalg.norm(omega)
    vac = omega
    for _ in range(interval.k):
        vac = np.multiply.outer(vac, omega).ravel()
    return vac


def vacuum_shifted(G: np.ndarray, vac: np.ndarray, E: float) -> np.ndarray:
    """G + (c - E) vac vac^dag, c = 1 + ||G||_inf, in one new array: for G
    block-diagonal for the unit vector vac, E = vac^dag G vac moves above the
    spectral radius, and a vac of one parity adds no entry across parity."""
    c = 1.0 + float(np.linalg.norm(G, np.inf))
    A = np.outer(vac, vac.conj())
    A *= c - E
    A += G
    return A


def excited_spectrum(G: np.ndarray, vac: np.ndarray, E: float,
                     rest: np.ndarray | None = None) -> np.ndarray:
    """Ascending spectrum on the complement of vac of a Hermitian G
    block-diagonal for it, E = vac^dag G vac, read from
    ``vacuum_shifted`` (``shifted_excited``).  For G the block of a graded
    operator that holds vac (``vacuum_part``), ``rest`` is its other block,
    whose whole spectrum is excited."""
    return shifted_excited(vacuum_shifted(G, vac, E), rest)


def shifted_excited(A: np.ndarray, rest: np.ndarray | None = None) -> np.ndarray:
    """The excited spectrum, ascending, from A = ``vacuum_shifted`` of G: all
    but A's largest eigenvalue, the shifted vacuum level, and the whole
    spectrum of ``rest``, G's other parity block where G is the vacuum's
    block, which may reach above that level: its shift c reads G's block
    alone."""
    if rest is None:
        return np.linalg.eigvalsh(A)[:-1]
    return np.sort(np.concatenate([np.linalg.eigvalsh(A)[:-1], np.linalg.eigvalsh(rest)]))


def unitary_exp(S: np.ndarray) -> np.ndarray:
    """exp(S) for anti-Hermitian S, exactly unitary via eigendecomposition of iS."""
    S = _as_matrix(S)
    defect = hermitian_defect(1j * S)  # |iS - (iS)^dag| = |S + S^dag|
    if defect > TOL_GENERATOR * max(1.0, float(np.max(np.abs(S)))):
        raise GeneratorError(f"generator not anti-Hermitian: |S + S^dag| = {defect:.3e}")
    lam, U = np.linalg.eigh(1j * (S - S.conj().T) / 2)
    return (U * np.exp(-1j * lam)) @ U.conj().T


def _power_of_two_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """x / 2^e and e, for e the binary exponent of the largest |x_i|.

    The scaling is exact, so a norm or a quotient taken on the scaled
    vector and scaled back is bit-identical to the unscaled one wherever
    that one neither underflows nor overflows, and right where it would.
    """
    big = float(np.max(np.abs(x), initial=0.0))
    e = int(np.frexp(big)[1]) if isfinite(big) else 0
    out = np.empty_like(x)
    out.real = np.ldexp(x.real, -e)
    out.imag = np.ldexp(x.imag, -e)
    return out, e


# Where np.linalg.norm lands in here, no square of an entry overflowed and
# every square that underflowed lies below the last bit of the result, so it
# equals the power-of-two-scaled norm.
_PLAIN_NORM_RANGE = (2.0 ** -450, 2.0 ** 450)


def vector_norm(x: np.ndarray) -> float:
    """Euclidean norm of a complex vector, with no underflow or overflow in
    the squares of its entries (``np.linalg.norm`` returns 0 for entries
    below about 1e-154).  The plain norm is taken first; the scaled pass
    runs only when it falls near either end of the float range."""
    x = np.asarray(x, dtype=complex)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if _PLAIN_NORM_RANGE[0] <= norm <= _PLAIN_NORM_RANGE[1]:
        return norm
    scaled, e = _power_of_two_scaled(x)
    return float(np.ldexp(np.linalg.norm(scaled), e))


def rotation_factors(y: np.ndarray, vac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors W (d x 2) and C (2 x 2) with exp(y vac^dag - vac y^dag) = I + W C W^dag.

    ``vac`` must be a unit vector and ``y`` orthogonal to it; otherwise the
    generator is not a vacuum rotation and GeneratorError is raised.  On the
    orthonormal pair (vac, y/theta), theta = ||y||, the generator acts as
    theta [[0, -1], [1, 0]], so C = [[cos - 1, -sin], [sin, cos - 1]] with
    cos(theta) - 1 written as -2 sin^2(theta/2) to keep small angles accurate.
    theta and y/theta are taken on y scaled by a power of two, so a y far
    below the float range's square root, subnormal entries included, still
    gives a unit y/theta.
    """
    y = np.asarray(y, dtype=complex)
    vac = np.asarray(vac, dtype=complex)
    scaled, e = _power_of_two_scaled(y)
    scaled_norm = np.linalg.norm(scaled)
    theta = float(np.ldexp(scaled_norm, e))
    overlap = abs(np.vdot(vac, y))
    if overlap > TOL_GENERATOR * max(1.0, theta):
        raise GeneratorError(f"generator is not a vacuum rotation: |vac^dag y| = {overlap:.3e}")
    y_hat = scaled / scaled_norm if scaled_norm > 0.0 else scaled
    c = -2.0 * np.sin(theta / 2) ** 2
    s = np.sin(theta)
    return np.stack([vac, y_hat], axis=1), np.array([[c, -s], [s, c]], dtype=complex)


# Largest R for which a middle-axis product goes through kron(K, 1_R) in
# one matrix product instead of one small product per leading index.
_KRON_MAX_RIGHT = 8
# Side of the square tiles in which the Hermitian sum is formed and the
# Cholesky factor is substituted.
_TILE = 64


def _times_middle(X: np.ndarray, K: np.ndarray, R: int) -> np.ndarray:
    """X (1 (x) K (x) 1_R) for a d x e matrix K, on an array X whose last
    axis indexes (..., a, r) with a < d and r < R; the result is flat,
    (..., b, r) with b < e."""
    d = K.shape[0]
    n = X.size // (d * R)
    if R <= _KRON_MAX_RIGHT:
        K_R = (K[:, None, :, None] * np.eye(R)[None, :, None, :]).reshape(d * R, -1)
        return (X.reshape(n, d * R) @ K_R).reshape(-1)
    return (K.T @ X.reshape(n, d, R)).reshape(-1)


def _hermitian_sum(B: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(B + B^dag) + A, written into B tile by tile: each pair of mirrored
    tiles is read once and no D x D transposed copy is made.  Exactly
    Hermitian when A is."""
    D = B.shape[0]
    buf = np.empty((min(_TILE, D),) * 2, dtype=complex)
    for i in range(0, D, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, D, _TILE):
            cols = slice(j, j + _TILE)
            T = buf[:min(_TILE, D - i), :min(_TILE, D - j)]
            np.conjugate(B[cols, rows].T, out=T)
            T += B[rows, cols]
            np.add(T, A[rows, cols], out=B[rows, cols])
            if j != i:
                np.conjugate(T, out=T)
                np.add(T.T, A[cols, rows], out=B[cols, rows])
    return B


def cholesky_solver(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """u -> A^{-1} u for a Hermitian positive definite A, from one Cholesky
    factor A = L L^dag.

    The factor is split into tiles of side _TILE, and only its diagonal
    tiles are inverted, once; each solve is then a blocked forward and back
    substitution at O(D^2), with no D x D inverse formed.  Raises
    np.linalg.LinAlgError where A is not positive definite to working
    precision.
    """
    L = np.linalg.cholesky(A)
    D = L.shape[0]
    tiles = [slice(i, min(i + _TILE, D)) for i in range(0, D, _TILE)]
    inverses = [np.linalg.solve(L[b, b], np.eye(b.stop - b.start)) for b in tiles]

    def solve(u: np.ndarray) -> np.ndarray:
        z = np.empty(D, dtype=complex)
        for b, T in zip(tiles, inverses):  # L z = u
            z[b] = T @ (u[b] - L[b, :b.start] @ z[:b.start])
        x = np.empty(D, dtype=complex)
        for b, T in zip(reversed(tiles), reversed(inverses)):  # L^dag x = z
            # L[c, b]^dag v and T^dag v as (v^dag L[c, b])^dag: no conjugated copy of L
            r = z[b] - (x[b.stop:].conj() @ L[b.stop:, b]).conj()
            x[b] = (r.conj() @ T).conj()
        return x

    return solve


def conjugate_by_unitary(op_matrix: np.ndarray, W: np.ndarray, C: np.ndarray,
                         left: int = 1, rows: np.ndarray | None = None,
                         rows_scale: float = 1.0, left_parity: int | None = None) -> np.ndarray:
    """U_J A U_J^dag for U_J = 1_L (x) (I + W C W^dag) (x) 1_R, as one thin
    update of A.

    ``left`` is the dimension L of the identity factor before the rotated
    sites; the one after them, R, follows from the size of A.  With
    W' = 1_L (x) W (x) 1_R and C' = 1_L (x) C (x) 1_R, and P = W'^dag A of
    2LR rows,

        U_J A U_J^dag - A = B + B^dag,   B = W' C' (P + 1/2 (P W') C'^dag W'^dag),

    so A is read once, through a (L, d, R D) view, for P, and the result
    is (B + B^dag) + A, summed tile by tile (exactly Hermitian when A is).

    ``rows`` adds the update of a second Hermitian X, given only as its
    rows W'^dag X in the layout of P (a 2LR x D array, rows (l, i, r)):
    the result is then U_J A U_J^dag + (U_J X U_J^dag - X) / s for
    s = ``rows_scale``.  X is never formed, and s divides the 2 x 2 factor
    C, never X, so no rounding error of X's size is divided by a small s.

    ``op_matrix`` may also be the two parity blocks of a graded potential
    stacked as one 2D x D array, and ``rows`` theirs stacked alike, or one
    2LR x D array that both share: both blocks are updated with the same
    factors, in one pass through P, and returned stacked.  With
    ``left_parity`` p the rotation acts on the row blocks l of block e with
    p(l) = e + p, and as the identity on the others: W' holds W on those
    blocks and zero on the rest.  That is 1_L (x) exp(S) on the blocks of a
    potential whose last site the rotated interval holds, with W the rows of
    the rotation's own parity block p.
    """
    A = op_matrix
    D = A.shape[1]
    n_blocks = A.shape[0] // D
    d = W.shape[0]
    R = D // (left * d)
    W_dag = W.conj().T
    # C' P, with the rows of X folded in at their own factor; its row blocks
    # are (e, l) for block e
    CP = (C @ W_dag) @ A.reshape(n_blocks * left, d, R * D)
    if rows is not None:
        # a real division of each part: complex division by a subnormal
        # rows_scale would overflow in its reciprocal
        C_rows = (np.ascontiguousarray(C).view(float) / rows_scale).view(complex)
        CP.reshape(-1, left, 2, R * D)[...] += C_rows @ rows.reshape(-1, left, 2, R * D)
    if left_parity is not None:
        # W' is zero on the row blocks with p(e l) = e + p(l) other than p ...
        CP[parity_sectors((n_blocks * left).bit_length() - 1)[1 - left_parity]] = 0.0
    # C' (P W') C'^dag W'^dag, through one middle-axis product per factor
    CPW = _times_middle(CP, W, R)
    if left_parity is not None:  # ... and so on the column blocks l' of block e
        columns = CPW.reshape(n_blocks, -1, left, 2 * R)
        for e in range(n_blocks):
            columns[e][:, parity_sectors(left.bit_length() - 1)[1 - (left_parity ^ e)]] = 0.0
    CP += 0.5 * _times_middle(CPW, C.conj().T @ W_dag, R).reshape(CP.shape)
    B = (W @ CP).reshape(n_blocks, D, D)
    for e in range(n_blocks):
        _hermitian_sum(B[e], A[e * D:(e + 1) * D])
    return B.reshape(n_blocks * D, D)
