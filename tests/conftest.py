import os

# The settings the golden reports in tests/data were generated under.  BLAS
# and OpenMP read them once, when numpy loads, so they are set first.  The
# thread count and the OpenBLAS kernel both move the last bits of a dense
# eigensolve, so the goldens hold one thread and OpenBLAS's Haswell (AVX2)
# kernels, which any x86-64 host with AVX2 can run.  The thread variables
# are THREAD_VARS of perfbench/run.py; the CI job env sets this same list.
GOLDEN_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "OPENBLAS_CORETYPE": "Haswell"}
os.environ.update(GOLDEN_ENV)

import json  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from math import comb, factorial  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from scipy import sparse  # noqa: E402

from lieschwinger import build_chain_model, random_chain_model  # noqa: E402
from lieschwinger import kitaev as kit  # noqa: E402
from lieschwinger.errors import ValidationError  # noqa: E402
from lieschwinger.intervals import Interval, iter_steps  # noqa: E402
from lieschwinger.model import ChainModel  # noqa: E402
from lieschwinger.operators import (  # noqa: E402
    LocalOperator, build_projectors, dense_dim, embed, excited_spectrum, op_norm, vacuum_shifted)
from lieschwinger.oracle import ed_spectrum  # noqa: E402
from lieschwinger.certify import BOUND_MARGIN, _saturated  # noqa: E402
from lieschwinger.sweep import (  # noqa: E402
    BlockDiagState, SeriesControls, _offdiag_norm, advance, generator_series, initial_state,
    local_hamiltonian, vacuum_energy)

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


def dense_generator(res):
    """The summed generator S = y vac^dag - vac y^dag of a series result, as
    a dense matrix; vac is the frame's column 0."""
    vac = res.frame[:, 0]
    return np.outer(res.y, vac.conj()) - np.outer(vac, res.y.conj())


def s_term_norms(res):
    """The norms ||S_j|| = ||y_j|| of a series result's terms, from j = 1 on."""
    return [float(np.linalg.norm(y)) for y in res.y_terms]


def series_terms(res, V):
    """The series terms (V)_1 = V and (V)_j = F K F^dag of a series result,
    as dense matrices."""
    return [V] + [res.frame[:, :K.shape[0]] @ K @ res.frame[:, :K.shape[0]].conj().T
                  for K in res.v_coeffs]


def run_series(G, E, vac, V, t, controls, step=None):
    """``sweep.generator_series`` from G and its vacuum energy E, as
    ``advance`` calls it: on ``vacuum_shifted`` with E taken off its
    diagonal."""
    A = vacuum_shifted(G, vac, E)
    A.flat[::A.shape[0] + 1] -= E
    return generator_series(G, A, vac, V, t, controls, step)


def dense_generator_series(G, E, vac, V, t, controls):
    """Reference for ``sweep.generator_series``: every S_j formed as a dense
    matrix and the nested commutators kept in two tables T[X][(m, p)] of
    order-m, depth-p chains acting on X in {G, V}, each commutator from two
    D x D x D products.  Returns (order, y, v_terms, v_term_norms,
    s_term_norms)."""
    R = np.linalg.inv(G - E * np.eye(G.shape[0]) + np.outer(vac, vac.conj()))

    def make_y(Vterm):
        u = Vterm @ vac
        x = R @ (u - vac * (vac.conj() @ u))
        return x - vac * (vac.conj() @ x)

    def make_S(y_term):
        return np.outer(y_term, vac.conj()) - np.outer(vac, y_term.conj())

    v_terms = [V]
    v_norms = [op_norm(V)]
    y_terms = [make_y(V)]
    s_terms = [make_S(y_terms[0])]
    y = t * y_terms[0]
    TG, TV = {}, {}
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
            if (j, p) in TG:
                Vj = Vj + TG[(j, p)] / factorial(p)
        for p in range(1, j):
            if (j - 1, p) in TV:
                Vj = Vj + TV[(j - 1, p)] / factorial(p)
        Vj = (Vj + Vj.conj().T) / 2
        v_terms.append(Vj)
        v_norms.append(op_norm(Vj))
        y_terms.append(make_y(Vj))
        s_terms.append(make_S(y_terms[-1]))
        y = y + t ** j * y_terms[-1]
        order = j
    return order, y, v_terms, v_norms, [float(np.linalg.norm(x)) for x in y_terms]


def one_table_generator_series(G, E, vac, V, t, controls):
    """Reference for ``sweep.generator_series``: the same one table B[(p, m)]
    with every entry a dense D x D matrix, each ad S_r applied through the
    rank-two factors of S_r, and a dense op_norm per order.  Returns the
    tuple of ``dense_generator_series``."""
    R = np.linalg.inv(G - E * np.eye(G.shape[0]) + np.outer(vac, vac.conj()))
    v_terms, v_norms, y_terms, factors = [], [], [], []

    def push(Vj):
        u = Vj @ vac
        x = R @ (u - vac * (vac.conj() @ u))
        yj = x - vac * (vac.conj() @ x)
        # factors of S_j: [vac, yj, X vac, X yj] and [-(X yj)^dag; (X vac)^dag;
        # yj^dag; -vac^dag], whose X parts ``ad`` fills for each operand X
        factors.append((np.array([vac, yj, vac, yj]).T, np.array([vac, vac, yj, -vac]).conj()))
        v_terms.append(Vj)
        v_norms.append(op_norm(Vj))
        y_terms.append(yj)

    def ad(r, X):
        """[S_r, X] for Hermitian X, as one D x 4 by 4 x D product."""
        left, right = factors[r - 1]
        P = np.matmul(X, left[:, :2], out=left[:, 2:])
        right[0], right[1] = -P[:, 1].conj(), P[:, 0].conj()
        return left @ right

    push(V)
    B = {(1, 1): ad(1, G)}
    order = 1
    while order < controls.jmax and abs(t) ** order * v_norms[-1] >= controls.tol_series:
        j = order + 1
        B[(1, j)] = ad(j - 1, V)
        for p in range(2, j + 1):
            B[(p, j)] = sum(ad(r, B[(p - 1, j - r)]) for r in range(1, j - p + 2)) / p
        Vj = sum(B[(p, j)] for p in range(1, j + 1))
        push((Vj + Vj.conj().T) / 2)
        B[(1, j)] += ad(j, G)
        order = j
    y = sum(t ** j * yj for j, yj in enumerate(y_terms, start=1))
    return order, y, v_terms, v_norms, [float(np.linalg.norm(x)) for x in y_terms]


def matrix_json(m):
    """A matrix as model-file rows of [re, im] pairs."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def near_hermitian_chain_file(path):
    """Write the model file of random_chain_model(5, 0.1, seed=0) with an
    anti-Hermitian part of Hermitian defect 2e-10 added to each interaction:
    inside the validation tolerance, but not exactly Hermitian."""
    base = random_chain_model(5, 0.1, seed=0)
    rng = np.random.default_rng(1)
    interactions = []
    for iv, op in base.interactions.items():
        A = rng.normal(size=op.matrix.shape) + 1j * rng.normal(size=op.matrix.shape)
        K = (A - A.conj().T) / 2
        interactions.append({"support": [iv.q, iv.last],
                             "matrix": matrix_json(op.matrix + 1e-10 * K / np.max(np.abs(K)))})
    path.write_text(json.dumps({"version": "1", "N": base.N, "M": base.M,
                                "H": matrix_json(base.onsite), "interactions": interactions,
                                "t": base.t, "kbar": base.kbar}))
    return path


def embed_full(term: np.ndarray, first: int, last: int, N: int, M: int) -> np.ndarray:
    """Identity (x) term (x) identity on the full chain, site 1 the most
    significant digit, as a dense D x D product with identity factors: the
    reference for ``oracle.assemble_direct``, which adds each term through a
    diagonal view instead."""
    dl = M ** (first - 1)
    dr = M ** (N - last)
    d = term.shape[0]
    out = np.einsum(
        "ab,ij,xy->aixbjy",
        np.eye(dl, dtype=complex), np.asarray(term, dtype=complex), np.eye(dr, dtype=complex),
        optimize=True,
    )
    return out.reshape(dl * d * dr, dl * d * dr)


def non_basis_vacuum_model(N, M, kbar, t, seed):
    """On-site Q diag(0, ..., M-1) Q^dag for a random unitary Q, so the
    vacuum is a complex vector that is not a basis vector."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M)))
    onsite = Q @ np.diag(np.arange(M, dtype=float)) @ Q.conj().T
    interactions = {}
    for k in range(1, kbar + 1):
        for q in range(1, N - k + 1):
            d = M ** (k + 1)
            A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            V = (A + A.conj().T) / 2
            interactions[Interval(k, q)] = V / np.max(np.abs(np.linalg.eigvalsh(V)))
    return build_chain_model(N, M, onsite, interactions, t, kbar)


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


def ising_chain_model(N, t):
    """The transverse-field Ising chain: on-site diag(0, 1) and t X (x) X on
    every edge, the model of configs/tfim_n8.json."""
    return build_chain_model(N, 2, np.diag([0.0, 1.0]),
                             {Interval(1, q): np.kron(SX, SX) for q in range(1, N)}, t)


def ising_bdg(N, t) -> tuple[float, float]:
    """Exact ground energy and gap of ``ising_chain_model(N, t)`` from one
    eigvalsh at 2N, with no 2^N space.

    By Jordan-Wigner (open chain, so no boundary sector), diag(0, 1) is n_i
    and X_i X_(i+1) is c+_i c_(i+1) + c+_i c+_(i+1) + h.c.: the quadratic form
    with particle block A (1 on the diagonal, t beside it) and pairing block
    B (t above the diagonal, -t below).  The Bogoliubov-de Gennes matrix
    [[A, B], [-B, -A]] has eigenvalues +-eps_k, so the ground energy is
    (tr A - sum eps_k) / 2 and the gap, one quasiparticle, is min eps_k
    (Lieb, Schultz and Mattis, Ann. Phys. 16, 407 (1961))."""
    A = np.eye(N) + t * (np.eye(N, k=1) + np.eye(N, k=-1))
    B = t * (np.eye(N, k=1) - np.eye(N, k=-1))
    eps = np.linalg.eigvalsh(np.block([[A, B], [-B, -A]]))[N:]
    return float(np.trace(A) - eps.sum()) / 2, float(eps.min())


def quadratic_kitaev_block(N: int, beta: float, seed: int, far_end: bool = False) -> dict:
    """The "kitaev" block of a model file whose perturbations are all
    quadratic: on each bond [q, q+1] for q = 2..N-2 and on the boundary bond
    [1, 2] (and [N-1, N] with ``far_end``), a density n_q, a hopping
    c^dag_q c_(q+1) and a pairing c^dag_q c^dag_(q+1), each with its
    conjugate, and coefficients of two decimals."""
    rng = np.random.default_rng(seed)

    def term(re, im, *ops):
        return {"coeff": [float(re), float(im)], "ops": [list(op) for op in ops]}

    perts = []
    for q in [*range(2, N - 1), 1, *([N - 1] if far_end else [])]:
        density, hre, him, pre, pim = np.round(rng.uniform(-0.5, 0.5, size=5), 2)
        perts.append({"support": [q, q + 1], "terms": [
            term(density, 0.0, ("cdag", q), ("c", q)),
            term(hre, him, ("cdag", q), ("c", q + 1)),
            term(hre, -him, ("cdag", q + 1), ("c", q)),
            term(pre, pim, ("cdag", q), ("cdag", q + 1)),
            term(pre, -pim, ("c", q + 1), ("c", q)),
        ]})
    return {"N": N, "beta": beta, "perturbations": perts}


def kitaev_bdg_levels(block: dict, beta: float, count: int = 5) -> np.ndarray:
    """Lowest ``count`` many-body levels of H0 + beta * (every perturbation)
    of a Kitaev file's block whose monomials all have two factors (hopping,
    pairing and density terms), from one eigvalsh at 2N, with no 2^N space.

    H0 is the sweet-spot bond (c^dag_j + c_j)(c^dag_(j+1) - c_(j+1)) on each
    bond, as ``kit.kitaev_hamiltonian`` parses it.  With the Nambu vector
    psi = (c_1..c_N, c^dag_1..c^dag_N), a factor at index a of psi is both
    psi_a and (psi^dag)_a' with a' = a +- N, so
    f_a f_b = (psi^dag_a' psi_b - psi^dag_b' psi_a + {f_a, f_b}) / 2, the
    anticommutator 1 when b = a' and 0 otherwise.  Summed over the monomials
    this is H = psi^dag M psi / 2 + C with M Hermitian and particle-hole
    symmetric, eigenvalues +-eps_k, so H = sum_k eps_k (b^dag_k b_k - 1/2) + C
    and each level is C - sum_k eps_k / 2 plus the eps_k of the occupied
    quasiparticles (Kitaev, Phys.-Usp. 44, 131 (2001)).  The lowest ``count``
    levels occupy only the lowest ``count`` modes."""
    N = block["N"]
    monomials = [(sign, [(a, j), (b, j + 1)]) for j in range(1, N)
                 for sign, a, b in ((1.0, "cdag", "cdag"), (-1.0, "cdag", "c"),
                                    (1.0, "c", "cdag"), (-1.0, "c", "c"))]
    monomials += [(beta * complex(*term["coeff"]), term["ops"])
                  for pert in block["perturbations"] for term in pert["terms"]]
    M = np.zeros((2 * N, 2 * N), dtype=complex)
    const = 0.0
    for coeff, ops in monomials:
        if len(ops) != 2:
            raise ValueError(f"monomial {ops} is not quadratic")
        a, b = (site - 1 + (N if kind == "cdag" else 0) for kind, site in ops)
        M[(a + N) % (2 * N), b] += coeff
        M[(b + N) % (2 * N), a] -= coeff
        const += coeff / 2 if b == (a + N) % (2 * N) else 0.0
    assert np.max(np.abs(M - M.conj().T)) <= 1e-14 and abs(const.imag) <= 1e-14
    eps = np.linalg.eigvalsh(M)[N:]
    levels = np.zeros(1)
    for e in eps[:count]:
        levels = np.concatenate([levels, levels + e])
    return np.sort(const.real - eps.sum() / 2 + levels)[:count]


def kitaev_spectrum_expected(N: int) -> np.ndarray:
    """{-(N-1) + 2m} with multiplicity 2 C(N-1, m): number operators plus doubling."""
    return np.sort(np.array(
        [-(N - 1) + 2 * m for m in range(N) for _ in range(2 * comb(N - 1, m))],
        dtype=float,
    ))


def csr(op) -> sparse.csr_matrix:
    """An operator as a sparse matrix: the bit-flip keys of a
    ``kit.FlipOperator`` written entry by entry, m[a, a ^ s] = amp_s[a]."""
    if not isinstance(op, kit.FlipOperator):
        return sparse.csr_matrix(op)
    rows = np.tile(np.arange(op.dim), op.keys.size)
    return sparse.csr_matrix((op.amps.ravel(), (rows, rows ^ np.repeat(op.keys, op.dim))),
                             shape=(op.dim,) * 2)


def dense(op) -> np.ndarray:
    """An operator as a dense matrix, from key form (``csr``) or sparse."""
    if isinstance(op, kit.FlipOperator) or sparse.issparse(op):
        return csr(op).toarray()
    return np.asarray(op)


def kron_embed(mat, iv: Interval, N: int) -> sparse.csr_matrix:
    """1 (x) mat (x) 1 on N sites as a sparse Kronecker product: the
    reference for ``kit.embed``."""
    left = sparse.identity(2 ** (iv.q - 1), dtype=complex, format="csr")
    right = sparse.identity(2 ** (N - iv.last), dtype=complex, format="csr")
    return sparse.kron(sparse.kron(left, csr(mat)), right, format="csr")


def dense_spectrum(H) -> np.ndarray:
    """Spectrum of a fermion-space operator from one ``eigvalsh`` of the whole
    2^N matrix: the reference for the parity-block route of ``kitaev``."""
    return np.linalg.eigvalsh(dense(H))


@dataclass(frozen=True, eq=False)
class FermionAlgebra:
    """Annihilation operators c_1..c_N on the 2^N occupation basis, sparse."""

    N: int
    c: tuple

    @property
    def dim(self) -> int:
        return 2 ** self.N

    def cdag(self, j: int):
        return self.c[j - 1].conj().T.tocsr()


@dataclass(frozen=True, eq=False)
class DModes:
    """Normal modes d_0..d_{N-1} and their creation operators; d_0 is the zero mode."""

    d: tuple
    dd: tuple

    def ddag(self, j: int):
        return self.dd[j]


def kron_fermion_algebra(N: int) -> FermionAlgebra:
    """Jordan-Wigner annihilators as Kronecker products of 2 x 2 factors: the
    reference algebra, against which ``kit._follow``'s signed partial
    permutations of the occupation basis are checked."""
    sz = sparse.csr_matrix(np.array([[1, 0], [0, -1]], dtype=complex))
    low = sparse.csr_matrix(np.array([[0, 1], [0, 0]], dtype=complex))
    eye2 = sparse.identity(2, dtype=complex, format="csr")
    ops = []
    for j in range(1, N + 1):
        m = sparse.identity(1, dtype=complex, format="csr")
        for l in range(1, N + 1):
            m = sparse.kron(m, sz if l < j else (low if l == j else eye2), format="csr")
        ops.append(m)
    return FermionAlgebra(N, tuple(ops))


def d_modes(alg: FermionAlgebra) -> DModes:
    """The normal modes of an algebra, sparse, from 2 d^dag_j = c^dag_j + c_j
    + c_{j+1} - c^dag_{j+1}, site 0 being site N: the reference for the
    Majorana halves of ``kit.zero_sector_basis``."""
    ddag = [0.5 * (alg.cdag(j) + alg.c[j - 1] + alg.c[j] - alg.cdag(j + 1))
            for j in range(alg.N)]
    d = tuple(m.conj().T.tocsr() for m in ddag)
    return DModes(d, tuple(m.conj().T.tocsr() for m in d))


def majoranas(alg: FermionAlgebra) -> tuple[list, list]:
    """(gamma_A, gamma_B) lists indexed by site-1 offset, gamma_A = i (c^dag
    - c) and gamma_B = c^dag + c: the reference for ``d_modes`` and the bond
    of ``kit.kitaev_hamiltonian``, which are written in c and c^dag
    directly."""
    gA = [1j * (alg.cdag(j) - alg.c[j - 1]) for j in range(1, alg.N + 1)]
    gB = [alg.cdag(j) + alg.c[j - 1] for j in range(1, alg.N + 1)]
    return gA, gB


def sparse_perturbation_matrix(alg: FermionAlgebra, terms) -> sparse.csr_matrix:
    """File terms as products of the operators of an N-site algebra:
    the reference for ``kit.local_perturbation``, which parses a term on the
    sites of its support alone."""
    out = sparse.csr_matrix((alg.dim, alg.dim), dtype=complex)
    for term in terms:
        m = sparse.identity(alg.dim, dtype=complex, format="csr")
        for kind, site in term["ops"]:
            m = m @ (alg.c[site - 1] if kind == "c" else alg.cdag(site))
        out = out + complex(*term["coeff"]) * m
    return out.tocsr()


def perturbed_full_hamiltonian(N: int, terms, beta: float) -> np.ndarray:
    """H0 + beta * (sum of the terms embedded in the 2^N space), dense, with
    each term embedded by Kronecker products on this call: the reference for
    the pencils that ``KitaevModel.reduce`` keeps."""
    H = dense(kit.kitaev_hamiltonian(N))
    for iv, mat in terms:
        H = H + beta * kron_embed(mat, iv, N).toarray()
    return H


def keyed(mat) -> kit.FlipOperator:
    """An operator in the key form of ``kitaev``, from a dense or sparse matrix."""
    return mat if isinstance(mat, kit.FlipOperator) else kit.FlipOperator.from_dense(dense(mat))


def pencil(N: int, terms) -> kit.SectorPencil:
    """H0 and the sum of ``terms``, each given in key form or as a matrix, as
    ``KitaevModel.reduce`` keeps them for its checks."""
    X = kit._summed((kit.embed(keyed(mat), iv, N) for iv, mat in terms), 2 ** N)
    return kit.SectorPencil(kit.kitaev_hamiltonian(N), X)


def _zero_sector_columns(dmodes: DModes, vac) -> np.ndarray:
    """The zero-sector basis from its vacuum, one column at a time:
    ddag_1^{n_1} ... ddag_{N-1}^{n_{N-1}} vac, highest mode applied first."""
    N = len(dmodes.d)
    cols = []
    for idx in range(2 ** (N - 1)):
        w = vac
        for j in range(N - 1, 0, -1):
            if (idx >> (N - 1 - j)) & 1:
                w = dmodes.ddag(j) @ w
        cols.append(w)
    return np.array(cols).T


def dense_zero_sector_basis(N: int) -> np.ndarray:
    """``kit.zero_sector_basis`` from one ``eigh`` of the whole 2^N matrix
    sum_j d^dag_j d_j, with the same phase rule and column order."""
    dmodes = d_modes(kron_fermion_algebra(N))
    total = sum(dmodes.ddag(j) @ dmodes.d[j] for j in range(N)).toarray()
    vac = np.linalg.eigh(total)[1][:, 0]
    pivot = vac[np.flatnonzero(np.abs(vac) >= 0.5 * np.abs(vac).max())[0]]
    return _zero_sector_columns(dmodes, vac * (pivot.conjugate() / abs(pivot)))


def sparse_zero_sector_basis(N: int) -> np.ndarray:
    """``kit.zero_sector_basis`` with every mode a sparse matrix of the
    reference algebra: the same projected vacuum, and each column built on
    its own by sparse products instead of by doubling."""
    dmodes = d_modes(kron_fermion_algebra(N))
    vac = np.zeros(2 ** N, dtype=complex)
    vac[:2] = 1.0
    for j in range(N):
        vac = vac - dmodes.ddag(j) @ (dmodes.d[j] @ vac)
    vac /= np.linalg.norm(vac)
    pivot = vac[np.flatnonzero(np.abs(vac) >= 0.5 * np.abs(vac).max())[0]]
    return _zero_sector_columns(dmodes, vac * (pivot.conjugate() / abs(pivot)))


def full_basis_restriction(N: int, bulk) -> dict:
    """Reference for ``kit.restricted_chain_model``'s interactions, before
    their common rescaling: each bulk term embedded in the 2^N space,
    restricted with the whole zero-sector basis R of the chain as one
    2^(N-1)-square R^dag W R, and cut back to its d-site interval after
    checking that it acts as the identity outside it."""
    R = kit.zero_sector_basis(N)
    chain = Interval(N - 2, 1)
    locals_ = {}
    for iv, mat in bulk:
        W = R.conj().T @ (kron_embed(mat, iv, N) @ R)
        d_iv = Interval(iv.k + 1, iv.q - 1)
        stride = 2 ** (chain.last - d_iv.last)
        idx = [s * stride for s in range(2 ** (d_iv.k + 1))]
        loc = W[np.ix_(idx, idx)]
        rebuilt = embed(LocalOperator(d_iv, loc), chain, 2).matrix
        assert np.max(np.abs(rebuilt - W)) <= 1e-11 * max(1.0, np.max(np.abs(W))), iv
        locals_[d_iv] = locals_.get(d_iv, 0) + loc
    return {d_iv: (m + m.conj().T) / 2 for d_iv, m in locals_.items()}


def doubling_check(model: kit.KitaevModel) -> bool:
    """``kit.doubling_check_terms`` on a model's bulk terms and the spectrum
    the oracle computes for its restricted chain (``ed_spectrum``); without
    bulk terms, that chain is diag(0, 2) on every mode."""
    bulk, _ = kit.regroup_perturbations(model.N, model.perturbations)
    if bulk:
        chain = kit.restricted_chain_model(model.N, bulk, model.beta)
    else:
        chain = build_chain_model(model.N - 1, 2, np.diag([0.0, 2.0]), {}, 0.0,
                                  energy_offset=-(model.N - 1))
    return kit.doubling_check_terms(pencil(model.N, bulk), model.beta, ed_spectrum(chain))


def random_bulk_perturbation(N: int, seed: int = 0, site: int | None = None):
    """Random even Hermitian nearest-neighbor term on interior sites.

    Returns (support interval, dense matrix on the support's two sites),
    suitable for KitaevModel.
    """
    rng = np.random.default_rng(seed)
    if site is None:
        site = int(rng.integers(2, N - 2)) if N > 4 else 2
    if not (2 <= site and site + 1 <= N - 1):
        raise ValidationError(f"interior nearest-neighbor site {site} invalid for N={N}")
    alg = kron_fermion_algebra(2)
    n_i = alg.cdag(1) @ alg.c[0]
    n_ip = alg.cdag(2) @ alg.c[1]
    hop = alg.cdag(1) @ alg.c[1]
    pair = alg.c[0] @ alg.c[1]
    basis = [
        n_i, n_ip, n_i @ n_ip,
        hop + hop.conj().T, 1j * (hop - hop.conj().T),
        pair + pair.conj().T, 1j * (pair - pair.conj().T),
    ]
    coeffs = rng.normal(size=len(basis))
    mat = sum(c * b for c, b in zip(coeffs, basis))
    return Interval(1, site), mat.toarray()


# The paper's proof steps that no run reads, checked by the tests only.
#
# The majorant sequence B_j dominates the series term norms ||(V)_j||:
# B_1 = ||V||, B_j = (1/a) sum_m B_{j-m} B_m, with a > 0 the root of
# (exp(8a) - 8a - 1)/a + exp(8a) - 2 = 0.  The B_j are the Taylor
# coefficients of f(x) = (a/2)(1 - sqrt(1 - (4||V||/a) x)), whose radius of
# analyticity bounds the convergence radius of the series from below by
# a / (4 ||V||).


@dataclass(frozen=True)
class MajorantParams:
    a: float
    t0_bound: float
    norm_v: float
    B: tuple[float, ...]

    def f(self, x: float) -> float:
        """Closed-form generating function of the majorant coefficients."""
        return (self.a / 2.0) * (1.0 - np.sqrt(1.0 - (4.0 * self.norm_v / self.a) * x))


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
    vac = build_projectors(chain, omega)
    diff = total_perp - (np.eye(dim) - np.outer(vac, vac.conj()))
    if float(np.linalg.eigvalsh(diff)[0]) < -tol:
        return False

    if r >= 1 and n >= r + 1:
        plus = {}
        for i in range(1, n - r + 1):
            sub = Interval(r, i)
            vac = build_projectors(sub, omega)
            pm = LocalOperator(sub, np.outer(vac, vac.conj()))
            plus[i] = np.eye(dim) - embed(pm, chain, M).matrix
        for lo in range(1, n - r + 1):
            for hi in range(lo, n - r + 1):
                lhs = sum(plus[i] for i in range(lo, hi + 1))
                rhs = (r + 1) * sum(perp[i - 1] for i in range(lo, hi + r + 1))
                if float(np.linalg.eigvalsh(rhs - lhs)[0]) < -tol:
                    return False
    return True


def state_before(model: ChainModel, interval: Interval) -> BlockDiagState:
    """The sweep's state after every step that precedes ``interval``, where
    the local Hamiltonian on ``interval`` is formed."""
    state = initial_state(model)
    for I in iter_steps(model.N):
        if I == interval:
            return state
        state = advance(state, model)
    raise ValueError(f"{interval} is no step of an {model.N}-site sweep")


def excited_block_lower_bound(state: BlockDiagState, model: ChainModel,
                              interval: Interval) -> tuple[float, float]:
    """Compare the excited block of the local Hamiltonian, less its vacuum
    expectations, against the scalar 1 - 8t - 16t sum_{l>=3} l t^((l-2)/3)/l^2.

    Returns (smallest eigenvalue of the shifted excited block, scalar).
    """
    t = abs(model.t)
    vac = build_projectors(interval, model.omega)
    G = local_hamiltonian(state, model, interval)
    shift = 0.0
    for sub, op in state.potentials.items():
        if interval.contains(sub) and sub != interval:
            shift += vacuum_energy(op.matrix, build_projectors(sub, model.omega))
    E = vacuum_energy(G.matrix, vac)
    lhs_min = float(excited_spectrum(G.matrix, vac, E)[0]) - model.t * shift
    rhs = 1.0 - 8.0 * t - 16.0 * t * sum(
        l * t ** ((l - 2) / 3.0) / l ** 2 for l in range(3, interval.k + 1)
    )
    return lhs_min, rhs


def looped_local_hamiltonian(state: BlockDiagState, model: ChainModel,
                             interval: Interval) -> np.ndarray:
    """Reference for ``local_hamiltonian``'s matrix: its own embedding loop,
    from a zero matrix, on-site terms first, then every stored potential on
    a proper subinterval in map order."""
    M = model.M
    mat = np.zeros((interval.dim(M),) * 2, dtype=complex)
    for site in interval.sites:
        embed(LocalOperator(Interval(0, site), model.onsite), interval, M, out=mat)
    for sub, op in state.potentials.items():
        if interval.contains(sub) and sub != interval:
            embed(op, interval, M, out=mat, scale=model.t)
    return mat


def looped_assemble_full(state: BlockDiagState, model: ChainModel) -> np.ndarray:
    """Reference for ``assemble_full``: its own embedding loop, from
    energy_offset times the identity, on-site terms first, then every
    stored potential in map order."""
    chain = Interval(model.N - 1, 1)
    K = model.energy_offset * np.eye(dense_dim(model.M, model.N), dtype=complex)
    for site in range(1, model.N + 1):
        embed(LocalOperator(Interval(0, site), model.onsite), chain, model.M, out=K)
    for op in state.potentials.values():
        embed(op, chain, model.M, out=K, scale=model.t)
    return K


def walked_gap_lower_bound(state: BlockDiagState, model: ChainModel,
                           ledger) -> tuple[float, float, float]:
    """Reference for ``certify.gap_lower_bound``: the same sums, with each
    vacuum, e_I and r_I rebuilt from the stored potential of every ledger
    entry, and c_I from the entry's spectral range and norm."""
    onsite = np.linalg.eigvalsh(model.onsite)
    delta = float(onsite[1] - onsite[0]) - BOUND_MARGIN * float(np.max(np.abs(onsite)))
    charge = [0.0] * model.N
    e_sum = r_sum = 0.0
    for entry in ledger:
        op = state.potentials[entry.interval].matrix
        vac = build_projectors(entry.interval, model.omega)
        e = vacuum_energy(op, vac)
        c = max(entry.hi - e, e - entry.lo) + BOUND_MARGIN * entry.norm
        for site in entry.interval.sites:
            charge[site - 1] += c
        e_sum += e
        r_sum += _offdiag_norm(op, vac)
    t = abs(model.t)
    residual = _saturated(2.0 * (t * r_sum))
    bound = _saturated(delta - t * max(charge) - residual)
    return bound, _saturated(model.energy_offset + model.t * e_sum), residual


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The sizes that np.linalg.eigvalsh is called on, in order."""
    sizes, original = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes
