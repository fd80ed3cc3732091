import numpy as np
import pytest

from lieschwinger import build_chain_model
from lieschwinger.intervals import Interval

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(rng, d, norm=None):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    V = (A + A.conj().T) / 2
    if norm is not None:
        V = V * (norm / np.max(np.abs(np.linalg.eigvalsh(V))))
    return V


def orthogonal_complement_basis(v):
    """Columns form an orthonormal basis of the subspace orthogonal to v.

    Householder reflector sending e_0 to (a phase times) v; its remaining
    columns span the complement exactly.  Reference for the basis-free
    ``excited_spectrum`` and resolvent of the sweep.
    """
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    d = v.shape[0]
    phase = v[0] / abs(v[0]) if abs(v[0]) > 1e-14 else 1.0
    w = v + phase * np.eye(d, dtype=complex)[:, 0]
    Q = np.eye(d, dtype=complex) - 2.0 * np.outer(w, w.conj()) / np.real(w.conj() @ w)
    return Q[:, 1:]


def plus_block_eigh(G, vac):
    """Eigenvalues (ascending) and eigenvectors of G on the complement of vac,
    in the basis ``orthogonal_complement_basis(vac)``, which is returned too."""
    Qp = orthogonal_complement_basis(vac)
    w, Z = np.linalg.eigh(Qp.conj().T @ G @ Qp)
    return w, Z, Qp


def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def anchor_model(t=0.1):
    """N=2, M=2, on-site diag(0,1), interaction sx (x) sx."""
    return build_chain_model(
        N=2, M=2, onsite=np.diag([0.0, 1.0]),
        interactions={Interval(1, 1): np.kron(SX, SX)}, t=t,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
