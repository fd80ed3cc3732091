"""Fermionic Kitaev chain at the sweet spot and its chain-model reduction.

Jordan-Wigner convention: c_j = sz^(j-1) (x) a (x) 1^(N-j) over the
occupation basis with site 1 as the most significant bit and
a = [[0, 1], [0, 0]].  Majorana components are gamma_B = c^dag + c and
gamma_A = i (c^dag - c); the sign in gamma_A is fixed so that
2 d^dag_j = gamma_{B,j} + i gamma_{A,j+1} expands to
c_{j+1} - c^dag_{j+1} + c^dag_j + c_j, and the wrap-around zero mode is
2 d^dag_0 = -c^dag_1 + c_1 + c^dag_N + c_N.  The modes (``d_mode_algebra``)
and the bond -i gamma_{B,j} gamma_{A,j+1} = (c^dag_j + c_j)(c^dag_{j+1} -
c_{j+1}) are written in these expansions, with no Majorana operator formed.

With these normal modes the sweet-spot Hamiltonian is a sum of number
operators, sum_j (2 d^dag_j d_j - 1) over j = 1..N-1; the zero mode d_0
never appears, so every eigenvalue of the full Hamiltonian is doubled
relative to the restriction to the d_0-vacuum sector.  Even perturbations
supported away from both chain ends stay zero-mode free and restrict to
interval-supported terms of a standard chain model with on-site matrix
diag(0, 2).

The reduction is local.  The Jordan-Wigner strings of an even monomial
cancel, so a perturbation on c-sites {q..q+k} is 1 (x) m (x) 1 with m its
matrix on its own k+1 sites; a model parses, checks and stores m alone
(``local_perturbation``, ``build_kitaev_model``).  Each monomial is a
signed partial permutation of the occupation basis, read off by following
every basis state through its factors (``_follow``), so a term is parsed
without any fermion algebra; ``fermion_algebra`` writes its sparse
annihilators the same way.

A bulk term is restricted to the d_0-vacuum sector on its frame: k+3
sites with the term on sites 2..k+2, where it is already the chain
interaction on its k+2 d-modes.  One frame, one d-mode algebra and one
zero-sector basis serve every bulk term of range k
(``restricted_chain_model``).  The basis starts from the mode vacuum, the
projection prod_j (1 - d^dag_j d_j) of a basis state, so the vacuum needs
no eigensolver.  No zero-mode commutator is taken: a stored term is
exactly even, and an even operator commutes entry for entry with the odd
d_0, made of sites 1 and N alone, whenever it acts on neither.

No N-site algebra is built: the load only checks N against the dense
guard (``fermion_sites``), and H0 is one 2-site bond matrix embedded on
each bond (``kitaev_hamiltonian``), its Jordan-Wigner strings cancelling
as a perturbation's do.

``KitaevModel.reduce`` runs once per file.  Besides the restricted chain
it embeds every term in the 2^N space once (``embed``, sparse) and keeps
the two fermion-parity blocks of H0, of the bulk sum and of the sum of all
terms (``SectorPencil``).  ``KitaevReduction.at(beta)`` rescales the
chain's t and runs the two spectral checks, ``doubling_check_terms`` and
``boundary_gap_check``, on the two dense blocks of H0 + beta X, so a
coupling embeds nothing and no dense 2^N block outlives it.

Every operator here is even, so it commutes with the fermion parity,
which is diagonal in the occupation basis (``operators.parity_sectors``),
and each dense eigensolve runs on the two parity blocks, taken only after
checking that no entry crosses parity.  Each column of the zero-sector
basis R lies in one sector too, so R^dag W R of an even W, and with it the
restricted chain, is exactly even in the d-mode parity.
This is the one module that uses scipy, and the command line imports it
only for a Kitaev file.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import ValidationError
from .intervals import Interval
from .model import ChainModel, build_chain_model, validate_chain_model
from .operators import dense_dim, op_norm, parity_sectors, require_hermitian
from .oracle import DEGENERACY_TOL, ed_spectrum, levels


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


def fermion_sites(N: int) -> int:
    """N, checked as the length of a Kitaev chain: at least one site, and a
    fermion space 2^N under the dense guard, which the per-coupling checks
    reach."""
    if N < 1:
        raise ValidationError(f"a Kitaev chain needs N >= 1 fermion sites, got N={N}")
    dense_dim(2, N, "fermion space")
    return N


def fermion_algebra(N: int) -> FermionAlgebra:
    """Jordan-Wigner annihilators, sparse, each written straight from its
    signed partial permutation of the occupation basis (``_follow``)."""
    fermion_sites(N)
    cols = np.arange(2 ** N)
    ops = []
    for j in range(1, N + 1):
        rows, amp = _follow([("c", j)], N, 1)
        keep = amp != 0
        ops.append(sparse.csr_matrix((amp[keep].astype(complex), (rows[keep], cols[keep])),
                                     shape=(2 ** N,) * 2))
    return FermionAlgebra(N, tuple(ops))


def d_mode_algebra(alg: FermionAlgebra) -> DModeAlgebra:
    # 2 d^dag_j = c^dag_j + c_j + c_{j+1} - c^dag_{j+1}; for j = 0, site 0 is site N
    ddag = [0.5 * (alg.cdag(j) + alg.c[j - 1] + alg.c[j] - alg.cdag(j + 1))
            for j in range(alg.N)]
    d = tuple(m.conj().T.tocsr() for m in ddag)
    return DModeAlgebra(d, tuple(m.conj().T.tocsr() for m in d))


def _odd_table(n: int) -> np.ndarray:
    """True at the integers below 2^n with an odd popcount."""
    table = np.zeros(2 ** n, dtype=bool)
    table[parity_sectors(n)[1]] = True
    return table


def _cross_parity(mat) -> tuple[sparse.coo_matrix, np.ndarray]:
    """``mat`` as COO and the mask of its stored entries that change the parity."""
    coo = sparse.coo_matrix(mat)
    odd = _odd_table(coo.shape[0].bit_length() - 1)
    return coo, odd[coo.row] != odd[coo.col]


def embed(mat, iv: Interval, N: int) -> sparse.csr_matrix:
    """1 (x) mat (x) 1 on N sites, sparse, for a matrix on the sites of
    ``iv``: the term itself when it is even, since its Jordan-Wigner strings
    cancel."""
    left = sparse.identity(2 ** (iv.q - 1), dtype=complex, format="csr")
    right = sparse.identity(2 ** (N - iv.last), dtype=complex, format="csr")
    return sparse.kron(sparse.kron(left, mat), right, format="csr")


def _embedded_sum(terms, N: int) -> sparse.csr_matrix:
    return sum((embed(mat, iv, N) for iv, mat in terms),
               sparse.csr_matrix((2 ** N,) * 2, dtype=complex))


def kitaev_hamiltonian(N: int) -> sparse.csr_matrix:
    """Sweet-spot Hamiltonian -i sum_j gamma_{B,j} gamma_{A,j+1}, sparse: the
    2-site bond matrix -i gamma_{B,1} gamma_{A,2} embedded on each bond.  The
    tests hold it equal to the number-operator form."""
    alg = fermion_algebra(2)
    bond = (alg.cdag(1) + alg.c[0]) @ (alg.cdag(2) - alg.c[1])  # -i gamma_{B,1} gamma_{A,2}
    return _embedded_sum([(Interval(1, j), bond) for j in range(1, N)], N)


@dataclass(frozen=True, eq=False)
class SectorPencil:
    """H0 + beta X on the even and the odd fermion-parity sector: the sparse
    blocks of H0 and of X (``sector_blocks``), split once, from which each
    coupling forms the two dense blocks it diagonalizes."""

    H0: tuple
    X: tuple

    def spectrum(self, beta: float) -> np.ndarray:
        """Ascending spectrum of H0 + beta X, one eigvalsh per parity block."""
        return np.sort(np.concatenate([np.linalg.eigvalsh((h + beta * x).toarray())
                                       for h, x in zip(self.H0, self.X)]))


def sector_blocks(H) -> tuple:
    """The even and the odd parity block of an even operator, dense or
    sparse, as sparse matrices; any nonzero entry across the two sectors
    raises ValidationError, so the blocks carry the whole operator."""
    coo, cross = _cross_parity(H)
    if np.any(coo.data[cross] != 0):
        raise ValidationError("operator is not even: it has entries across fermion parity")
    H = coo.tocsr()
    return tuple(H[idx][:, idx] for idx in parity_sectors(H.shape[0].bit_length() - 1))


@dataclass(frozen=True, eq=False)
class KitaevModel:
    """Sweet-spot chain of N sites plus even fermionic perturbations of strength beta."""

    N: int
    beta: float
    perturbations: tuple  # of (Interval in c-site coordinates, sparse matrix on its sites)

    def reduce(self) -> KitaevReduction:
        """The part of a run that no coupling changes: the bulk/boundary
        split, the restricted chain at this model's beta, and the parity
        blocks the two checks read, with every term embedded once."""
        bulk, boundary = regroup_perturbations(self.N, self.perturbations)
        chain = restricted_chain_model(self.N, bulk, self.beta)
        H0, X = sector_blocks(kitaev_hamiltonian(self.N)), _embedded_sum(bulk, self.N)
        full = None
        if boundary:
            full = SectorPencil(H0, sector_blocks(X + _embedded_sum(boundary, self.N)))
        return KitaevReduction(self, chain, tuple(bulk), tuple(boundary),
                               SectorPencil(H0, sector_blocks(X)), full)


def _follow(ops, n: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """A product of c / c^dag factors on the n sites from ``first`` as
    (rows, amp): it takes basis state i to amp[i] times state rows[i].  Each
    factor takes a basis state to one other state, or to zero, with the
    sign (-1)^(occupied sites before its own), so the product is read off by
    following every basis state through the factors."""
    rows, amp = np.arange(2 ** n), np.ones(2 ** n)
    odd = _odd_table(n)
    for kind, site in reversed(ops):  # the rightmost factor acts first
        bit = n - 1 - (site - first)  # site ``first`` is the most significant bit
        occupied = (rows >> bit) & 1 == 1
        amp[occupied != (kind == "c")] = 0.0  # c needs the site occupied, c^dag empty
        amp[odd[rows >> (bit + 1)]] *= -1.0
        rows = rows ^ (1 << bit)
    return rows, amp


def perturbation_matrix(terms, n: int, first: int = 1) -> sparse.csr_matrix:
    """Sum of coeff * monomial on the n sites from ``first``, each monomial a
    product of c / c^dag factors of even length, e.g. ops = [("cdag", 2),
    ("c", 3)].  The entries of all monomials are gathered first and summed
    per matrix entry in term order, so no matrix is formed per term."""
    keys, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=complex)]
    for term in terms:
        ops = term["ops"]
        if len(ops) % 2 != 0:
            raise ValidationError("perturbation monomials must have even fermion degree")
        for kind, site in ops:
            if not first <= site < first + n:
                raise ValidationError(
                    f"fermion site {site} is outside sites [{first}, {first + n - 1}]")
            if kind not in ("c", "cdag"):
                raise ValidationError(f"unknown fermion factor kind {kind!r}")
        coeff = complex(term["coeff"][0], term["coeff"][1])
        if not cmath.isfinite(coeff):  # before the product, which would warn on inf * 0
            raise ValidationError("coefficients must be finite")
        rows, amp = _follow(ops, n, first)
        cols = np.flatnonzero(amp)
        keys.append(rows[cols] * 2 ** n + cols)
        values.append(coeff * amp[cols])
    entries, where = np.unique(np.concatenate(keys), return_inverse=True)
    data = np.zeros(entries.shape[0], dtype=complex)
    np.add.at(data, where, np.concatenate(values))  # in term order, as a running sum would
    return sparse.csr_matrix((data, (entries // 2 ** n, entries % 2 ** n)), shape=(2 ** n,) * 2)


def _check_support(iv: Interval, N: int) -> None:
    if not iv.fits(N) or iv.k < 0:
        raise ValidationError(f"perturbation support {iv} does not fit {N} sites")


def local_perturbation(iv: Interval, terms, N: int) -> sparse.csr_matrix:
    """One perturbation of an N-site chain as a sparse matrix on the k+1
    sites of its support ``iv``, which every site of ``terms`` must lie in."""
    _check_support(iv, N)
    try:
        return perturbation_matrix(terms, iv.k + 1, first=iv.q)
    except ValidationError as err:
        raise ValidationError(f"perturbation on {iv}: {err}") from err


def build_kitaev_model(N: int, beta, perturbations, mu=0.0, tau=1.0,
                       delta=1.0) -> KitaevModel:
    """Validate the support, shape, finiteness, Hermiticity
    (``operators.require_hermitian``) and parity-evenness of each
    perturbation, a support and the sparse matrix on its sites.

    A perturbation is checked as given and then stored exactly even: its
    entries across fermion parity, all within the evenness tolerance, are
    dropped, as ``build_chain_model`` stores interactions exactly
    Hermitian.  So every Hamiltonian formed from the model splits into its
    two parity blocks.
    H0 is the sweet-spot Hamiltonian with mu = 0 and tau = delta = 1, so any
    other mu, tau or delta is rejected.
    """
    fermion_sites(N)
    if not (mu == 0.0 and tau == 1.0 and delta == 1.0):
        raise ValidationError(
            f"only the sweet spot mu=0, tau=delta=1 is supported, got mu={mu}, "
            f"tau={tau}, delta={delta}")
    checked = []
    for iv, mat in perturbations:
        iv = Interval(*iv)
        _check_support(iv, N)
        mat = sparse.csr_matrix(mat)
        if mat.shape != (2 ** (iv.k + 1),) * 2:
            raise ValidationError(f"perturbation on {iv}: matrix shape {mat.shape} does not "
                                  f"match its {iv.k + 1} sites")
        if not np.all(np.isfinite(mat.data)):
            raise ValidationError(f"perturbation on {iv}: coefficients must be finite")
        require_hermitian(mat, f"perturbation on {iv} is not Hermitian")
        coo, cross = _cross_parity(mat)
        # the largest entry of [P, mat] for the parity P: twice the largest across parity
        if 2 * np.max(np.abs(coo.data[cross]), initial=0.0) > 1e-9:
            raise ValidationError(f"perturbation on {iv} is not even in fermion operators")
        keep = ~cross
        mat = sparse.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape)
        checked.append((iv, mat))
    return KitaevModel(N, float(beta), tuple(checked))


def regroup_perturbations(N: int, perturbations):
    """Split the perturbations of an N-site chain into zero-mode-free bulk
    terms and boundary terms, both kept in c-site coordinates.

    A term on c-sites {i..i+j} rewritten in normal modes touches d-modes
    {i-1..i+j}; it is bulk when 2 <= i and i+j <= N-1.  A bulk term
    commutes with the zero mode by construction: it is stored exactly even
    (``build_kitaev_model``) and acts on none of the sites 1 and N that d_0
    is made of.
    """
    bulk, boundary = [], []
    for iv, mat in perturbations:
        (bulk if iv.q >= 2 and iv.last <= N - 1 else boundary).append((iv, mat))
    return bulk, boundary


def zero_sector_basis(dmodes: DModeAlgebra) -> np.ndarray:
    """Orthonormal columns spanning the d_0-vacuum sector.

    The mode vacuum, the unique state annihilated by every d_j, is the
    normalized image of e_0 + e_1 under the projection prod_j (1 - d^dag_j
    d_j); its entries all tie in magnitude, so one of the two basis states
    overlaps it.  The projection is even, so the vacuum and every column lie
    in one parity sector and are exactly zero outside it.  Its phase makes
    the first entry of at least half the largest magnitude real and positive
    (the largest alone would leave the phase to rounding).  Column index
    encodes occupations (n_1..n_{N-1}) with mode 1 as the most significant
    bit; creation operators are applied highest mode first, so the basis
    state reads ddag_1^{n_1} ... ddag_{N-1}^{n_{N-1}} vacuum.
    """
    N = len(dmodes.d)
    vac = np.zeros(2 ** N, dtype=complex)
    vac[:2] = 1.0
    for j in range(N):
        vac = vac - dmodes.ddag(j) @ (dmodes.d[j] @ vac)
    vac /= np.linalg.norm(vac)
    pivot = vac[np.flatnonzero(np.abs(vac) >= 0.5 * np.abs(vac).max())[0]]
    vac *= pivot.conjugate() / abs(pivot)
    cols = []
    for idx in range(2 ** (N - 1)):
        w = vac
        for j in range(N - 1, 0, -1):
            if (idx >> (N - 1 - j)) & 1:
                w = dmodes.ddag(j) @ w
        cols.append(w)
    return np.array(cols).T


def restricted_chain_model(N: int, bulk, beta: float) -> ChainModel:
    """Chain model for the perturbed Hamiltonian of an N-site Kitaev chain
    on the zero-mode vacuum sector.

    A bulk term on c-sites {i..i+j} restricts to an interaction on the
    d-site interval with j+1 edges and left endpoint i-1: R^dag W R on the
    term's frame, j+3 sites with the term on sites 2..j+2 and one R per
    range j, whose j+2 d-modes are that interval's, so it is the same
    matrix on any chain.  On-site matrix
    diag(0, 2) per mode; the unperturbed vacuum energy -(N-1) rides along
    as the model's energy offset.  Local interaction matrices are rescaled
    by their largest norm w (coupling beta * w) so every stored norm is at
    most 1; the represented operator is unchanged.
    """
    if not bulk:
        raise ValidationError("restriction needs at least one bulk term")
    bases = {k: zero_sector_basis(d_mode_algebra(fermion_algebra(k + 3)))
             for k in {iv.k for iv, _ in bulk}}
    locals_ = {}
    for iv, mat in bulk:
        R, W = bases[iv.k], embed(mat, Interval(iv.k, 2), iv.k + 3)
        d_iv = Interval(iv.k + 1, iv.q - 1)
        locals_[d_iv] = locals_.get(d_iv, 0) + R.conj().T @ (W @ R)
    # R^dag W R is Hermitian only to rounding; build_chain_model stores it exactly Hermitian
    scale = max(1.0, *(op_norm(m) for m in locals_.values()))
    interactions = {iv: m / scale for iv, m in locals_.items()}
    return build_chain_model(
        N=N - 1, M=2, onsite=np.diag([0.0, 2.0]).astype(complex),
        interactions=interactions, t=beta * scale,
        kbar=max(iv.k for iv in interactions),
        energy_offset=-(N - 1),
        seed_info={"source": "kitaev-restriction", "beta": float(beta),
                   "norm_scale": float(scale)},
    )


def doubling_check_terms(pencil: SectorPencil, beta: float, chain: ChainModel) -> bool:
    """The spectrum of H0 + beta * (bulk terms), given as the parity blocks
    of ``pencil``, is that of ``chain``, the restricted chain a run fits at
    this beta, doubled to within DEGENERACY_TOL, and every level
    (``oracle.levels``) has even size.  The restricted spectrum is the
    oracle's (``oracle.ed_spectrum``), from the chain's own parity blocks."""
    full = pencil.spectrum(beta)
    restricted = ed_spectrum(chain)
    doubled = np.sort(np.concatenate([restricted, restricted]))
    return (float(np.max(np.abs(full - doubled))) <= DEGENERACY_TOL
            and all(size % 2 == 0 for size in levels(full)))


def boundary_gap_check(pencil: SectorPencil, beta: float) -> tuple[float, float]:
    """Ground-pair splitting and the gap above it for the full Hamiltonian
    H0 + beta * (all terms), given as the parity blocks of ``pencil``.

    With boundary terms included, the doubly degenerate ground pair of the
    bulk Hamiltonian splits by an amount of order beta while the rest of the
    spectrum stays an order-1 distance above; this is verified by exact
    diagonalization of the two parity blocks instead of constructing the
    block-diagonalizing unitary on the degenerate sector.  Returns
    (splitting of the two lowest levels, gap from them to the third).
    """
    evals = pencil.spectrum(beta)
    return float(evals[1] - evals[0]), float(evals[2] - evals[1])


@dataclass(frozen=True, eq=False)
class KitaevReduction:
    """A Kitaev model reduced to its restricted chain, with its bulk and
    boundary terms and the parity blocks that the per-coupling checks read:
    H0 + beta * (bulk terms) for the doubling check, and H0 + beta * (all
    terms) for the boundary check (None without boundary terms)."""

    model: KitaevModel
    chain: ChainModel
    bulk: tuple
    boundary: tuple
    doubling: SectorPencil
    full: SectorPencil | None

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
            "doubling_ok": doubling_check_terms(self.doubling, beta, chain),
        }
        if self.full is not None:
            splitting, gap_above = boundary_gap_check(self.full, beta)
            block["boundary_splitting"] = splitting
            block["boundary_gap_above_pair"] = gap_above
        return chain, block
