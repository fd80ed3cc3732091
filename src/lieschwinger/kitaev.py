"""Fermionic Kitaev chain at the sweet spot and its chain-model reduction.

Jordan-Wigner convention: c_j = sz^(j-1) (x) a (x) 1^(N-j) over the
occupation basis with site 1 as the most significant bit and
a = [[0, 1], [0, 0]].  Majorana components are gamma_B = c^dag + c and
gamma_A = i (c^dag - c); the sign in gamma_A is fixed so that
2 d^dag_j = gamma_{B,j} + i gamma_{A,j+1} expands to
c_{j+1} - c^dag_{j+1} + c^dag_j + c_j, and the wrap-around zero mode is
2 d^dag_0 = -c^dag_1 + c_1 + c^dag_N + c_N.

With these normal modes the sweet-spot Hamiltonian is a sum of number
operators, sum_j (2 d^dag_j d_j - 1) over j = 1..N-1; the zero mode d_0
never appears, so every eigenvalue of the full Hamiltonian is doubled
relative to the restriction to the d_0-vacuum sector.  Even perturbations
supported away from both chain ends stay zero-mode free and restrict to
interval-supported terms of a standard chain model with on-site matrix
diag(0, 2).

A model file is reduced once, on one ``FermionFrame``, by
``KitaevModel.reduce``; ``KitaevReduction.at(beta)`` then only rescales the
restricted chain's t and reruns the doubling and boundary spectral checks.
This is the one module that uses scipy, and the command line imports it
only for a Kitaev file.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import RegroupError, ValidationError
from .intervals import Interval
from .model import ChainModel, build_chain_model, validate_chain_model
from .operators import LocalOperator, dense_dim, embed, hermitian_defect

CAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FermionAlgebra:
    """Annihilation operators c_1..c_N on the 2^N occupation basis."""

    N: int
    c: tuple

    @property
    def dim(self) -> int:
        return 2 ** self.N

    def cdag(self, j: int):
        return self.c[j - 1].conj().T.tocsr()


@dataclass(frozen=True, eq=False)
class DModeAlgebra:
    """Normal modes d_0..d_{N-1} and their creation operators; d_0 is the zero mode."""

    d: tuple
    dd: tuple

    def ddag(self, j: int):
        return self.dd[j]


def fermion_algebra(N: int) -> FermionAlgebra:
    """Jordan-Wigner annihilators; every dense fermion-space routine starts
    here, so this is where the chain length and the dense-dimension guard
    are enforced."""
    if N < 1:
        raise ValidationError(f"a Kitaev chain needs N >= 1 fermion sites, got N={N}")
    dense_dim(2, N, "fermion space")
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


def majoranas(alg: FermionAlgebra) -> tuple[list, list]:
    """(gamma_A, gamma_B) lists indexed by site-1 offset."""
    gA = [1j * (alg.cdag(j) - alg.c[j - 1]) for j in range(1, alg.N + 1)]
    gB = [alg.cdag(j) + alg.c[j - 1] for j in range(1, alg.N + 1)]
    return gA, gB


def d_mode_algebra(alg: FermionAlgebra) -> DModeAlgebra:
    gA, gB = majoranas(alg)
    # 2 d^dag_j = gamma_{B,j} + i gamma_{A,j+1}; for j = 0, gB[-1] is site N
    ddag = [0.5 * (gB[j - 1] + 1j * gA[j]) for j in range(alg.N)]
    d = tuple(m.conj().T.tocsr() for m in ddag)
    return DModeAlgebra(d, tuple(m.conj().T.tocsr() for m in d))


def parity_operator(alg: FermionAlgebra):
    P = sparse.identity(alg.dim, dtype=complex, format="csr")
    for j in range(1, alg.N + 1):
        nj = alg.cdag(j) @ alg.c[j - 1]
        P = P @ (sparse.identity(alg.dim, dtype=complex, format="csr") - 2 * nj)
    return P.tocsr()


def kitaev_hamiltonian(alg: FermionAlgebra, dmodes: DModeAlgebra) -> np.ndarray:
    """Sweet-spot Hamiltonian; the Majorana and number-operator forms must agree."""
    gA, gB = majoranas(alg)
    N, dim = alg.N, alg.dim
    H_gamma = sparse.csr_matrix((dim, dim), dtype=complex)
    H_modes = sparse.csr_matrix((dim, dim), dtype=complex)
    for j in range(1, N):
        H_gamma = H_gamma - 1j * (gB[j - 1] @ gA[j])
        H_modes = H_modes + 2 * (dmodes.ddag(j) @ dmodes.d[j]) \
            - sparse.identity(dim, dtype=complex, format="csr")
    mismatch = abs((H_gamma - H_modes).toarray()).max()
    if mismatch > CAR_TOL:
        raise ValidationError(f"Majorana and mode forms disagree by {mismatch:.3e}")
    return H_gamma.toarray()


@dataclass(frozen=True, eq=False)
class FermionFrame:
    """What every reduction step shares, whatever the coupling: the algebra,
    the normal modes, the zero-sector basis R and the sweet-spot H0."""

    alg: FermionAlgebra
    modes: DModeAlgebra
    R: np.ndarray
    H0: np.ndarray


def fermion_frame(N: int) -> FermionFrame:
    alg = fermion_algebra(N)
    modes = d_mode_algebra(alg)
    return FermionFrame(alg, modes, zero_sector_basis(modes), kitaev_hamiltonian(alg, modes))


@dataclass(frozen=True, eq=False)
class KitaevModel:
    """Sweet-spot chain plus even fermionic perturbations of strength beta."""

    frame: FermionFrame
    beta: float
    perturbations: tuple  # of (Interval in c-site coordinates, sparse matrix)

    @property
    def N(self) -> int:
        return self.frame.alg.N

    def reduce(self) -> KitaevReduction:
        """The part of a run that no coupling changes: the bulk/boundary
        split and the restricted chain at this model's beta."""
        bulk, boundary = regroup_perturbations(self)
        chain = restricted_chain_model(self.frame, bulk, self.beta)
        return KitaevReduction(self, chain, tuple(bulk), tuple(boundary))


def perturbation_matrix(alg: FermionAlgebra, terms) -> sparse.csr_matrix:
    """Sum of coeff * monomial, each monomial a product of c / c^dag factors
    of even length, e.g. ops = [("cdag", 2), ("c", 3)]."""
    out = sparse.csr_matrix((alg.dim, alg.dim), dtype=complex)
    for term in terms:
        ops = term["ops"]
        if len(ops) % 2 != 0:
            raise ValidationError("perturbation monomials must have even fermion degree")
        m = sparse.identity(alg.dim, dtype=complex, format="csr")
        for kind, site in ops:
            if not 1 <= site <= alg.N:
                raise ValidationError(f"fermion site {site} outside chain of {alg.N} sites")
            if kind not in ("c", "cdag"):
                raise ValidationError(f"unknown fermion factor kind {kind!r}")
            m = m @ (alg.c[site - 1] if kind == "c" else alg.cdag(site))
        coeff = complex(term["coeff"][0], term["coeff"][1])
        if not cmath.isfinite(coeff):  # before the product, which would warn on inf * 0
            raise ValidationError("coefficients must be finite")
        out = out + coeff * m.tocsr()
    return out.tocsr()


def build_kitaev_model(frame: FermionFrame, beta, perturbations, mu=0.0, tau=1.0,
                       delta=1.0) -> KitaevModel:
    """Validate supports, finiteness, Hermiticity, and parity-evenness of each
    perturbation.

    ``frame.H0`` is the sweet-spot Hamiltonian with mu = 0 and
    tau = delta = 1, so any other mu, tau or delta is rejected.
    """
    if not (mu == 0.0 and tau == 1.0 and delta == 1.0):
        raise ValidationError(
            f"only the sweet spot mu=0, tau=delta=1 is supported, got mu={mu}, "
            f"tau={tau}, delta={delta}")
    N = frame.alg.N
    P = parity_operator(frame.alg)
    checked = []
    for iv, mat in perturbations:
        iv = Interval(*iv)
        if not iv.fits(N) or iv.k < 0:
            raise ValidationError(f"perturbation support {iv} does not fit {N} sites")
        mat = sparse.csr_matrix(mat)
        if not np.all(np.isfinite(mat.data)):
            raise ValidationError(f"perturbation on {iv}: coefficients must be finite")
        dense_defect = hermitian_defect(mat.toarray())
        if dense_defect > 1e-9:
            raise ValidationError(f"perturbation on {iv} is not Hermitian ({dense_defect:.3e})")
        odd = abs((P @ mat - mat @ P).toarray()).max()
        if odd > 1e-9:
            raise ValidationError(f"perturbation on {iv} is not even in fermion operators")
        checked.append((iv, mat))
    return KitaevModel(frame, float(beta), tuple(checked))


def regroup_perturbations(model: KitaevModel):
    """Split perturbations into zero-mode-free bulk and boundary terms.

    A term on c-sites {i..i+j} rewritten in normal modes touches d-modes
    {i-1..i+j}; it is bulk when 2 <= i and i+j <= N-1, relabelled to the
    d-site interval with j+1 edges and left endpoint i-1.  Bulk terms must
    commute with the zero mode, which is verified entrywise.
    """
    d0 = model.frame.modes.d[0]
    bulk, boundary = [], []
    for iv, mat in model.perturbations:
        if iv.q >= 2 and iv.last <= model.N - 1:
            comm = abs((mat @ d0 - d0 @ mat).toarray()).max()
            if comm > CAR_TOL * max(1.0, abs(mat.toarray()).max()):
                raise RegroupError(
                    f"bulk perturbation on {iv} fails the zero-mode commutation check "
                    f"({comm:.3e})"
                )
            bulk.append((Interval(iv.k + 1, iv.q - 1), mat))
        else:
            boundary.append((iv, mat))
    return bulk, boundary


def zero_sector_basis(dmodes: DModeAlgebra) -> np.ndarray:
    """Orthonormal columns spanning the d_0-vacuum sector.

    The mode vacuum is the unique state annihilated by every d_j,
    phase-fixed.  Column index encodes occupations (n_1..n_{N-1}) with mode
    1 as the most significant bit; creation operators are applied highest
    mode first, so the basis state reads ddag_1^{n_1} ... ddag_{N-1}^{n_{N-1}} vacuum.
    """
    N = len(dmodes.d)
    total = sum((dmodes.ddag(j) @ dmodes.d[j] for j in range(N)),
                sparse.csr_matrix((2 ** N,) * 2, dtype=complex))
    evals, evecs = np.linalg.eigh(total.toarray())
    if evals[0] > 1e-10 or evals[1] < 0.9:
        raise ValidationError("mode vacuum is not isolated")
    pivot = evecs[int(np.argmax(np.abs(evecs[:, 0]))), 0]
    vac = evecs[:, 0] * (pivot.conjugate() / abs(pivot))
    cols = []
    for idx in range(2 ** (N - 1)):
        w = vac
        for j in range(N - 1, 0, -1):
            if (idx >> (N - 1 - j)) & 1:
                w = dmodes.ddag(j) @ w
        cols.append(w)
    return np.array(cols).T


def _extract_local(W: np.ndarray, iv: Interval, n_sites: int) -> np.ndarray:
    """Local block of a matrix acting as the identity outside ``iv``."""
    stride = 2 ** (n_sites - iv.last)
    idx = [s * stride for s in range(2 ** (iv.k + 1))]
    loc = W[np.ix_(idx, idx)]
    rebuilt = embed(LocalOperator(iv, loc), Interval(n_sites - 1, 1), 2).matrix
    drift = float(np.max(np.abs(rebuilt - W)))
    if drift > 1e-11 * max(1.0, float(np.max(np.abs(W)))):
        raise RegroupError(f"restricted term on {iv} is not interval-local ({drift:.3e})")
    return loc


def restricted_chain_model(frame: FermionFrame, bulk, beta: float) -> ChainModel:
    """Chain model for the perturbed Hamiltonian on the zero-mode vacuum sector.

    On-site matrix diag(0, 2) per mode; the unperturbed vacuum energy
    -(N-1) rides along as the model's energy offset.  Local interaction
    matrices are rescaled by their largest norm w (coupling beta * w) so
    every stored norm is at most 1; the represented operator is unchanged.
    """
    if not bulk:
        raise ValidationError("restriction needs at least one bulk term")
    N, R = frame.alg.N, frame.R
    locals_ = {}
    for iv, mat in bulk:
        W = R.conj().T @ (mat @ R)
        loc = _extract_local(np.asarray(W), iv, N - 1)
        locals_[iv] = locals_.get(iv, 0) + loc
    # R^dag W R is Hermitian only to rounding; stored potentials must be exact
    locals_ = {iv: (m + m.conj().T) / 2 for iv, m in locals_.items()}
    scale = max(float(np.max(np.abs(np.linalg.eigvalsh(m)))) for m in locals_.values())
    scale = max(scale, 1.0)
    interactions = {iv: m / scale for iv, m in locals_.items()}
    return build_chain_model(
        N=N - 1, M=2, onsite=np.diag([0.0, 2.0]).astype(complex),
        interactions=interactions, t=beta * scale,
        kbar=max(iv.k for iv in interactions),
        energy_offset=-(N - 1),
        seed_info={"source": "kitaev-restriction", "beta": float(beta),
                   "norm_scale": float(scale)},
    )


def perturbed_full_hamiltonian(frame: FermionFrame, terms, beta: float) -> np.ndarray:
    """H0 + beta * (sum of the terms' matrices), dense."""
    H = sparse.csr_matrix(frame.H0)
    for _, mat in terms:
        H = H + beta * mat
    return H.toarray()


def doubling_check_terms(frame: FermionFrame, bulk, beta: float, tol: float = 1e-9) -> bool:
    """Full spectrum equals the restricted spectrum doubled, and every
    eigenvalue has even multiplicity."""
    H = perturbed_full_hamiltonian(frame, bulk, beta)
    full = np.linalg.eigvalsh(H)
    restricted = np.linalg.eigvalsh(frame.R.conj().T @ H @ frame.R)
    doubled = np.sort(np.concatenate([restricted, restricted]))
    if float(np.max(np.abs(full - doubled))) > tol:
        return False
    i = 0
    while i < full.shape[0]:
        j = i
        while j + 1 < full.shape[0] and full[j + 1] - full[i] <= tol:
            j += 1
        if (j - i + 1) % 2 != 0:
            return False
        i = j + 1
    return True


def boundary_gap_check(model: KitaevModel) -> tuple[float, float]:
    """Ground-pair splitting and the gap above it for the full Hamiltonian.

    With boundary terms included, the doubly degenerate ground pair of the
    bulk Hamiltonian splits by an amount of order beta while the rest of the
    spectrum stays an order-1 distance above; this is verified at dense
    exact-diagonalization scale instead of constructing the
    block-diagonalizing unitary on the degenerate sector.  Returns
    (splitting of the two lowest levels, gap from them to the third).
    """
    evals = np.linalg.eigvalsh(
        perturbed_full_hamiltonian(model.frame, model.perturbations, model.beta))
    return float(evals[1] - evals[0]), float(evals[2] - evals[1])


@dataclass(frozen=True, eq=False)
class KitaevReduction:
    """A Kitaev model reduced to its restricted chain, with the bulk and
    boundary terms that the per-coupling checks read."""

    model: KitaevModel
    chain: ChainModel
    bulk: tuple
    boundary: tuple

    def at(self, beta=None) -> tuple[ChainModel, dict]:
        """The validated restricted chain at coupling ``beta`` (None: the
        file's), and the report's ``kitaev`` block at that coupling."""
        beta = self.model.beta if beta is None else float(beta)
        scale = self.chain.seed_info["norm_scale"]
        chain = replace(self.chain, t=beta * scale,
                        seed_info={**self.chain.seed_info, "beta": beta})
        validate_chain_model(chain)
        block = {
            "N_fermion": self.model.N, "beta": beta,
            "bulk_terms": len(self.bulk), "boundary_terms": len(self.boundary),
            "norm_scale": scale,
            "doubling_ok": doubling_check_terms(self.model.frame, self.bulk, beta),
        }
        if self.boundary:
            splitting, gap_above = boundary_gap_check(replace(self.model, beta=beta))
            block["boundary_splitting"] = splitting
            block["boundary_gap_above_pair"] = gap_above
        return chain, block
