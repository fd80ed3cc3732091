"""Dense operator algebra on interval subspaces.

Operators live on the tensor factors of their support interval, with the
leftmost site as the most significant base-M digit, and act as the identity
elsewhere.  Matrices are dense complex; Hermitian / anti-Hermitian structure
is checked against a tolerance, never assumed from storage format.

The sweep's generators have rank two, S = y vac^dag - vac y^dag with y
orthogonal to vac, so exp(S) is a rotation by theta = ||y|| in
span{vac, y}.  ``rotation_factors`` writes it in closed form as
exp(S) = I + W C W^dag with W = [vac, y/theta] and a 2x2 block C: exactly
unitary, never a Pade or series approximation, so conjugations preserve
spectra to machine precision.  ``conjugate_by_unitary`` applies
1_L (x) exp(S) (x) 1_R to a potential on a containing interval through a
reshaped view, at O(D^2) cost and without forming the embedded unitary.
``unitary_exp`` keeps the general eigendecomposition route as the
reference.

Embedding works the same way in the other direction: 1_L (x) A (x) 1_R is
nonzero only on a strided (L, d, R, d) view of the target matrix, the
diagonal over the two identity factors.  ``embed`` writes A through that
view instead of Kronecker padding, and its accumulate form adds a multiple
of A into an existing matrix in place, touching D^2 / (L R) entries and
building no D x D temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingError, GeneratorError, ValidationError
from .intervals import Interval

TOL_HERM = 1e-10
# Largest full-space dimension that any dense assembly or check may reach.
DENSE_GUARD = 4096


def _as_matrix(m) -> np.ndarray:
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """A dense matrix on the Hilbert space of one interval."""

    support: Interval
    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_matrix(self.matrix)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def hermitian_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def antihermitian_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m + m.conj().T))) if m.size else 0.0


def site_dim(op: LocalOperator) -> int:
    """Per-site dimension M recovered from the matrix size and edge count."""
    M = round(op.dim ** (1.0 / (op.support.k + 1)))
    if M ** (op.support.k + 1) != op.dim:
        raise ValidationError(
            f"matrix dim {op.dim} is not a power matching support {op.support}"
        )
    return M


def embed(op: LocalOperator, target: Interval, M: int | None = None, *,
          out: np.ndarray | None = None, scale: complex = 1.0) -> LocalOperator | np.ndarray:
    """Pad ``op`` with identities so it acts on ``target``: 1_L (x) A (x) 1_R,
    written through a strided view of the target matrix.

    Without ``out``, returns the embedded LocalOperator (``scale`` times
    the Kronecker product).  With ``out``, a D x D array on ``target``,
    adds ``scale`` times the embedded matrix into it in place and returns
    ``out``.  The embedding is an algebra homomorphism and leaves the
    operator norm unchanged.
    """
    if M is None:
        M = site_dim(op)
    sup = op.support
    if not target.contains(sup):
        raise EmbeddingError(f"support {sup} not contained in target {target}")
    d = op.dim
    L = M ** (sup.q - target.q)
    R = M ** (target.last - sup.last)
    shape = (L * d * R,) * 2
    acc = np.zeros(shape, dtype=complex) if out is None else out
    if acc.shape != shape:  # the strided view below is not bounds-checked
        raise EmbeddingError(f"accumulator shape {acc.shape} does not match target {target}")
    s0, s1 = acc.strides
    # entry (l a r, l b r) of a D x D matrix, D = L d R, indexed as [l, a, r, b]
    view = np.lib.stride_tricks.as_strided(
        acc, shape=(L, d, R, d),
        strides=(d * R * (s0 + s1), R * s0, s0 + s1, R * s1), writeable=True,
    )
    view += scale * op.matrix[None, :, None, :]
    return LocalOperator(target, acc) if out is None else out


def op_norm(op: LocalOperator | np.ndarray, tol: float = 1e-8) -> float:
    """Spectral norm (largest |eigenvalue|) of a (anti-)Hermitian matrix.

    Symmetry is classified relative to the matrix's own scale so that small
    generators are not mistaken for noisy Hermitian matrices.
    """
    m = op.matrix if isinstance(op, LocalOperator) else np.asarray(op, dtype=complex)
    if m.size == 0:
        return 0.0
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return 0.0
    if hermitian_defect(m) <= tol * scale:
        h = (m + m.conj().T) / 2
    elif antihermitian_defect(m) <= tol * scale:
        h = (1j * m + (1j * m).conj().T) / 2
    else:
        raise ValidationError("op_norm supports Hermitian or anti-Hermitian matrices only")
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


def orthogonal_complement_basis(v: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of the subspace orthogonal to v.

    Householder reflector sending e_0 to (a phase times) v; its remaining
    columns span the complement exactly.
    """
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    d = v.shape[0]
    phase = v[0] / abs(v[0]) if abs(v[0]) > 1e-14 else 1.0
    w = v + phase * np.eye(d, dtype=complex)[:, 0]
    Q = np.eye(d, dtype=complex) - 2.0 * np.outer(w, w.conj()) / np.real(w.conj() @ w)
    return Q[:, 1:]


@dataclass(frozen=True, eq=False)
class ProjectorPair:
    """Rank-1 product-vacuum projector vac vac^dag and its complement on one interval.

    ``plus_basis`` holds an orthonormal basis of the complement of vac so
    blocks can be restricted without picking up a spurious zero mode.
    """

    support: Interval
    vac: np.ndarray
    plus_basis: np.ndarray


def build_projectors(interval: Interval, omega: np.ndarray) -> ProjectorPair:
    """Product-vacuum projector pair on ``interval`` for on-site vector omega."""
    omega = np.asarray(omega, dtype=complex)
    omega = omega / np.linalg.norm(omega)
    vac = omega
    for _ in range(interval.k):
        vac = np.kron(vac, omega)
    return ProjectorPair(interval, vac, orthogonal_complement_basis(vac))


def unitary_exp(S: np.ndarray, tol_herm: float = TOL_HERM) -> np.ndarray:
    """exp(S) for anti-Hermitian S, exactly unitary via eigendecomposition of iS."""
    S = _as_matrix(S)
    defect = antihermitian_defect(S)
    if defect > tol_herm * max(1.0, float(np.max(np.abs(S)))):
        raise GeneratorError(f"generator not anti-Hermitian: |S + S^dag| = {defect:.3e}")
    lam, U = np.linalg.eigh(1j * (S - S.conj().T) / 2)
    return (U * np.exp(-1j * lam)) @ U.conj().T


def rotation_factors(y: np.ndarray, vac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors W (d x 2) and C (2 x 2) with exp(y vac^dag - vac y^dag) = I + W C W^dag.

    ``vac`` must be a unit vector and ``y`` orthogonal to it; otherwise the
    generator is not a vacuum rotation and GeneratorError is raised.  On the
    orthonormal pair (vac, y/theta), theta = ||y||, the generator acts as
    theta [[0, -1], [1, 0]], so C = [[cos - 1, -sin], [sin, cos - 1]] with
    cos(theta) - 1 written as -2 sin^2(theta/2) to keep small angles accurate.
    """
    y = np.asarray(y, dtype=complex)
    vac = np.asarray(vac, dtype=complex)
    theta = float(np.linalg.norm(y))
    overlap = abs(np.vdot(vac, y))
    if overlap > TOL_HERM * max(1.0, theta):
        raise GeneratorError(f"generator is not a vacuum rotation: |vac^dag y| = {overlap:.3e}")
    y_hat = y / theta if theta > 0.0 else y
    c = -2.0 * np.sin(theta / 2) ** 2
    s = np.sin(theta)
    return np.stack([vac, y_hat], axis=1), np.array([[c, -s], [s, c]], dtype=complex)


def _rotate_left(A: np.ndarray, WC: np.ndarray, W_dag: np.ndarray, left: int) -> np.ndarray:
    """(1_L (x) (I + W C W^dag) (x) 1_R) A for a square A, via a (L, d, rest) view."""
    A3 = A.reshape(left, W_dag.shape[1], -1)
    out = WC @ (W_dag @ A3)
    out += A3
    return out.reshape(A.shape)


def conjugate_by_unitary(op_matrix: np.ndarray, W: np.ndarray, C: np.ndarray,
                         left: int = 1) -> np.ndarray:
    """U_J A U_J^dag with re-symmetrization, U_J = 1_L (x) (I + W C W^dag) (x) 1_R.

    ``left`` is the dimension L of the identity factor before the rotated
    sites; the one after them follows from the size of A.  The embedded
    unitary is never formed: X = U_J A is a left product on a reshaped view,
    and the right product comes from the same left product on X^T with the
    conjugated factors, Z = conj(U_J) X^T = conj(U_J A^dag U_J^dag).  Hence
    (B + B^dag)/2 = (conj(Z) + Z^T)/2 for B = U_J A U_J^dag.
    """
    WC = W @ C
    W_dag = W.conj().T
    X = _rotate_left(op_matrix, WC, W_dag, left)
    Z = _rotate_left(np.ascontiguousarray(X.T), WC.conj(), W_dag.conj(), left)
    out = Z.conj()
    out += Z.T
    out *= 0.5
    return out
