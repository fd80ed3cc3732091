"""Fermionic Kitaev chain at the sweet spot and its chain-model reduction.

Jordan-Wigner convention: c_j = sz^(j-1) (x) a (x) 1^(N-j) over the
occupation basis with site 1 as the most significant bit and
a = [[0, 1], [0, 0]].  Majorana components are gamma_B = c^dag + c and
gamma_A = i (c^dag - c); the sign in gamma_A is fixed so that
2 d^dag_j = gamma_{B,j} + i gamma_{A,j+1} expands to
c_{j+1} - c^dag_{j+1} + c^dag_j + c_j, and the wrap-around zero mode is
2 d^dag_0 = -c^dag_1 + c_1 + c^dag_N + c_N.  The modes (``zero_sector_basis``)
and the bond -i gamma_{B,j} gamma_{A,j+1} = (c^dag_j + c_j)(c^dag_{j+1} -
c_{j+1}) (``kitaev_hamiltonian``) are written in these expansions, with no
Majorana operator formed.

With these normal modes the sweet-spot Hamiltonian is a sum of number
operators, sum_j (2 d^dag_j d_j - 1) over j = 1..N-1; the zero mode d_0
never appears, so every eigenvalue of the full Hamiltonian is doubled
relative to the restriction to the d_0-vacuum sector.  Even perturbations
supported away from both chain ends stay zero-mode free and restrict to
interval-supported terms of a standard chain model with on-site matrix
diag(0, 2).

Every operator here is written in one form, bit-flip keys
(``FlipOperator``): each key s holds the entries m[a, a ^ s] as one
amplitude vector over the basis states a.  A product of c / c^dag factors
flips a fixed set of bits, so it lands on one key; ``_follow`` reads it
off by following every basis state through its factors, and is the one
place that turns c and c^dag into entries: the bond of H0 is parsed as four
monomials, each mode as four single factors, and the zero mode's Majoranas
and their product as two or four (``_zero_mode_flips``).  A key of odd
popcount holds the entries across fermion parity, which is diagonal in the
occupation basis (``operators.parity_sectors``), and applying an operator
is one gather per key (``_apply``).

The reduction is local.  The Jordan-Wigner strings of an even monomial
cancel, so a perturbation on c-sites {q..q+k} is 1 (x) m (x) 1 with m its
operator on its own k+1 sites; a model parses, checks and stores m alone
(``local_perturbation``, ``build_kitaev_model``), with its odd keys
dropped.

A bulk term is restricted to the d_0-vacuum sector on its frame: k+3
sites with the term on sites 2..k+2, where it is already the chain
interaction on its k+2 d-modes.  One frame and one zero-sector basis
serve every bulk term of range k (``restricted_chain_model``).  The basis
starts from the mode vacuum, the projection prod_j (1 - d^dag_j d_j) of a
basis state, so the vacuum needs no eigensolver.  No zero-mode commutator
is taken: a stored term is exactly even, and an even operator commutes
entry for entry with the odd d_0, made of sites 1 and N alone, whenever it
acts on neither.

No N-site algebra is built at load: it only checks N against the dense
guard (``fermion_sites``), and H0 is one 2-site bond embedded on each
bond (``kitaev_hamiltonian``), its Jordan-Wigner strings cancelling as a
perturbation's do.

``KitaevModel.reduce`` runs once per file and builds the restricted chain.
The two pencils are built on first read (``KitaevReduction.doubling`` and
``.full``), which embeds every term in the 2^N space once (``embed``) and
keeps H0, the bulk sum and the sum of all terms as keys (``SectorPencil``);
a run that reads neither forms no 2^N operator.
``KitaevReduction.at(beta)`` rescales the chain's t and runs the boundary
check; ``check_doubling`` runs after the oracle, on its restricted spectrum.
Both read dense parity blocks of H0 + beta X, written key by key, so a
coupling embeds nothing and no dense 2^N block outlives it, and only the
blocks that a symmetry leaves distinct (``SectorPencil``).  The zero mode's
Majoranas gamma_{A,1} and gamma_{B,N} appear in neither H0 nor a bulk term,
so on the doubling check's pencil either maps the odd block onto the even
one, and their product splits the even block into two halves of 2^(N-2)
states: two such eigensolves per coupling.  A boundary pencil whose terms
avoid one end keeps that end's Majorana, so one eigensolve of the even
block; terms at both ends leave both parity blocks.  Each column of
the zero-sector basis R lies in one parity sector, so R^dag W R of an even
W, and with it the restricted chain, is exactly even in the d-mode parity.
The module, like the rest of the package, needs numpy alone.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .intervals import Interval
from .model import ChainModel, build_chain_model, validate_chain_model
from .operators import dense_dim, hermitian_rule, op_norm, parity_sectors
from .oracle import DEGENERACY_TOL, levels


def fermion_sites(N: int) -> int:
    """N, checked as the length of a Kitaev chain: at least one site, and a
    fermion space 2^N under the dense guard, which the per-coupling checks
    reach."""
    if N < 1:
        raise ValidationError(f"a Kitaev chain needs N >= 1 fermion sites, got N={N}")
    dense_dim(2, N, "fermion space")
    return N


def _odd_table(n: int) -> np.ndarray:
    """True at the integers below 2^n with an odd popcount."""
    table = np.zeros(2 ** n, dtype=bool)
    table[parity_sectors(n)[1]] = True
    return table


@dataclass(frozen=True, eq=False)
class FlipOperator:
    """An operator m on n fermion sites as bit-flip keys:
    m[a, a ^ keys[i]] = amps[i, a] for every basis state a, so each key
    holds one entry per row and two keys never share an entry."""

    keys: np.ndarray  # distinct, ascending, int64
    amps: np.ndarray  # (len(keys), 2^n), complex

    @property
    def dim(self) -> int:
        return self.amps.shape[1]

    @classmethod
    def from_dense(cls, m: np.ndarray) -> FlipOperator:
        """A square matrix of size 2^n grouped by a ^ b, keeping the keys
        with an entry that is not zero."""
        idx = np.arange(m.shape[0])
        amps = m[idx, idx ^ idx[:, None]]  # row s: m[a, a ^ s]
        keys = np.flatnonzero(np.any(amps != 0, axis=1))
        return cls(keys, amps[keys])

    def odd(self) -> np.ndarray:
        """Mask of the keys of odd popcount, whose entries change the parity."""
        return _odd_table(self.dim.bit_length() - 1)[self.keys]


def _summed(ops, dim: int) -> FlipOperator:
    """The sum of operators on 2^n states, taken entry by entry from zero in
    the order given, as a running sum of matrices takes it."""
    acc = {}
    for op in ops:
        for s, amp in zip(op.keys.tolist(), op.amps):
            acc[s] = acc.get(s, 0) + amp
    keys = sorted(acc)
    return FlipOperator(np.array(keys, dtype=np.int64),
                        np.array([acc[s] for s in keys], dtype=complex).reshape(len(keys), dim))


def _apply(op: FlipOperator, v: np.ndarray) -> np.ndarray:
    """op @ v for each column of v, one gather per key, with the sum taken
    entry by entry from zero."""
    idx = np.arange(op.dim)
    out = np.zeros_like(v)
    for s, amp in zip(op.keys, op.amps):
        out += amp[:, None] * v[idx ^ s]
    return out


def embed(op: FlipOperator, iv: Interval, N: int) -> FlipOperator:
    """1 (x) op (x) 1 on N sites for an operator on the sites of ``iv``: the
    term itself when it is even, since its Jordan-Wigner strings cancel.
    Each key moves to the term's bits, and each amplitude is read at the
    term's part of the basis state."""
    shift = N - iv.last
    return FlipOperator(op.keys << shift, op.amps[:, (np.arange(2 ** N) >> shift) % op.dim])


def _embedded_sum(terms, N: int) -> FlipOperator:
    return _summed((embed(op, iv, N) for iv, op in terms), 2 ** N)


def kitaev_hamiltonian(N: int) -> FlipOperator:
    """Sweet-spot Hamiltonian -i sum_j gamma_{B,j} gamma_{A,j+1}: the 2-site
    bond -i gamma_{B,1} gamma_{A,2} embedded on each bond.  The tests hold
    it equal to the number-operator form."""
    # -i gamma_{B,1} gamma_{A,2} = (c^dag_1 + c_1)(c^dag_2 - c_2), monomial by monomial
    bond = perturbation_matrix([{"coeff": (sign, 0.0), "ops": [(a, 1), (b, 2)]}
                                for sign, a, b in ((1.0, "cdag", "cdag"), (-1.0, "cdag", "c"),
                                                   (1.0, "c", "cdag"), (-1.0, "c", "c"))], 2)
    return _embedded_sum([(Interval(1, j), bond) for j in range(1, N)], N)


def _zero_mode_flips(N: int) -> tuple[tuple[int, np.ndarray], ...]:
    """gamma_{B,N}, i gamma_{A,1} and the zero-mode parity
    i gamma_{A,1} gamma_{B,N} on N sites as signed flips (m, g), the
    operators f[a, a ^ m] = g[a] = +-1, each written in c and c^dag: c^dag_N
    + c_N, c_1 - c^dag_1 and their product, monomial by monomial."""
    gamma_b = [(1.0, [("cdag", N)]), (1.0, [("c", N)])]
    gamma_a = [(1.0, [("c", 1)]), (-1.0, [("cdag", 1)])]
    parity = [(ca * cb, a + b) for ca, a in gamma_a for cb, b in gamma_b]
    flips = (_monomial_sum(monomials, N) for monomials in (gamma_b, gamma_a, parity))
    return tuple((int(op.keys[0]), op.amps[0].real) for op in flips)


def _commutes(op: FlipOperator, m: int, g: np.ndarray) -> bool:
    """op commutes exactly with the signed flip f[a, a ^ m] = g[a]: on each
    key s, (op f)[a, a ^ s ^ m] = amp_s[a] g[a ^ s] equals
    (f op)[a, a ^ m ^ s] = g[a] amp_s[a ^ m] for every state a."""
    a = np.arange(op.dim)
    return np.array_equal(op.amps * g[a ^ op.keys[:, None]], g * op.amps[:, a ^ m])


@dataclass(frozen=True, eq=False)
class SectorPencil:
    """H0 + beta X on the fermion-parity sectors, for two even operators on
    N sites: each coupling writes the dense blocks it diagonalizes key by
    key.  A nonzero entry across the two sectors raises ValidationError, so
    the blocks carry the whole operator.

    The zero mode's Majoranas appear in neither H0 nor a bulk term:
    gamma_{A,1} only in terms on site 1, gamma_{B,N} only in terms on site
    N (Kitaev, Phys.-Usp. 44, 131 (2001)).  Which of them, and of their
    product, commute exactly with H0 and X is read once, here, from the
    keys (``_commutes``).  A Majorana that commutes maps the odd block onto
    the even one (``majorana``), so the odd block is never built.  The
    zero-mode parity, when it commutes (``zero_parity``), splits each block
    in two halves, one per eigenvalue of the parity."""

    H0: FlipOperator
    X: FlipOperator
    majorana: bool = field(init=False)
    zero_parity: bool = field(init=False)
    parity_flip: tuple = field(init=False, repr=False)  # (m, z) of the zero-mode parity

    def __post_init__(self):
        for op in (self.H0, self.X):
            if np.any(op.amps[op.odd()] != 0):
                raise ValidationError("operator is not even: it has entries across fermion parity")
        n = self.H0.dim.bit_length() - 1
        flips = _zero_mode_flips(n)
        gamma_b, gamma_a, parity = (all(_commutes(op, *flip) for op in (self.H0, self.X))
                                    for flip in flips)
        object.__setattr__(self, "majorana", gamma_b or gamma_a)
        # on one site the product is the fermion parity itself, which splits nothing
        object.__setattr__(self, "zero_parity", n > 1 and parity)
        object.__setattr__(self, "parity_flip", flips[2])

    def spectrum(self, beta: float) -> np.ndarray:
        """Ascending spectrum of H0 + beta X: one eigvalsh per parity block
        it needs, the even one alone, doubled, where a Majorana commutes.
        Where the zero-mode parity P commutes, a block E is diagonalized as
        its two halves E[r, r'] +- E[r, p(r')] z[r'] over one state r of each
        pair (r, p(r)) with P e_r = z[r] e_p(r), the states with site N
        empty."""
        n = self.H0.dim.bit_length() - 1
        m, z = self.parity_flip
        pos = np.empty(self.H0.dim, dtype=np.int64)  # each state's place in its sector
        spectra = []
        for idx in parity_sectors(n)[:1 if self.majorana else 2]:
            rows = pos[idx] = np.arange(idx.size)
            block = np.zeros((idx.size,) * 2, dtype=complex)
            for s, h in zip(self.H0.keys, self.H0.amps):
                block[rows, pos[idx ^ s]] = h[idx]
            for s, x in zip(self.X.keys, self.X.amps):
                block[rows, pos[idx ^ s]] += beta * x[idx]
            if not self.zero_parity:
                spectra.append(np.linalg.eigvalsh(block))
                continue
            reps = idx[idx & 1 == 0]
            r = pos[reps]
            same, paired = block[np.ix_(r, r)], block[np.ix_(r, pos[reps ^ m])] * z[reps]
            spectra += [np.linalg.eigvalsh(same + paired), np.linalg.eigvalsh(same - paired)]
        evals = np.concatenate(spectra)
        return np.sort(np.concatenate([evals, evals]) if self.majorana else evals)


@dataclass(frozen=True, eq=False)
class KitaevModel:
    """Sweet-spot chain of N sites plus even fermionic perturbations of strength beta."""

    N: int
    beta: float
    perturbations: tuple  # of (Interval in c-site coordinates, FlipOperator on its sites)
    seed_info: dict = field(default_factory=dict)  # joins the restricted chain's seed_info

    def reduce(self) -> KitaevReduction:
        """The part of a run that no coupling changes and that can fail at
        load: the bulk/boundary split and the restricted chain at this
        model's beta.  The pencils the two checks read are built on first
        read (``KitaevReduction``)."""
        bulk, boundary = regroup_perturbations(self.N, self.perturbations)
        chain = restricted_chain_model(self.N, bulk, self.beta, self.seed_info)
        return KitaevReduction(self, chain, tuple(bulk), tuple(boundary))


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


def _monomial_sum(monomials, n: int, first: int = 1) -> FlipOperator:
    """Sum of coeff * (product of c / c^dag factors) over (coeff, ops) pairs
    on the n sites from ``first``.  Every factor flips one bit, so each
    monomial lands on the key of the bits it flips (rows[0] of ``_follow``),
    and monomials on one key are summed entry by entry in the order given,
    from zero, so no matrix is formed per term."""
    def monomial(coeff, ops):
        rows, amp = _follow(ops, n, first)  # m[a, a ^ s] is what state a ^ s goes to
        return FlipOperator(rows[:1], (coeff * amp[rows])[None])

    return _summed((monomial(coeff, ops) for coeff, ops in monomials), 2 ** n)


def perturbation_matrix(terms, n: int, first: int = 1) -> FlipOperator:
    """Sum of coeff * monomial on the n sites from ``first``, each monomial a
    product of c / c^dag factors of even length, e.g. ops = [("cdag", 2),
    ("c", 3)], checked before any is followed."""
    monomials = []
    for term in terms:
        ops = term["ops"]
        if len(ops) % 2 != 0:
            raise ValidationError("perturbation monomials must have even fermion degree")
        for kind, site in ops:
            if isinstance(site, bool) or not isinstance(site, (int, np.integer)):
                raise ValidationError(f"fermion site {site!r} must be an integer")
            if not first <= site < first + n:
                raise ValidationError(
                    f"fermion site {site} is outside sites [{first}, {first + n - 1}]")
            if kind not in ("c", "cdag"):
                raise ValidationError(f"unknown fermion factor kind {kind!r}")
        coeff = complex(term["coeff"][0], term["coeff"][1])
        if not cmath.isfinite(coeff):  # before the product, which would warn on inf * 0
            raise ValidationError("coefficients must be finite")
        monomials.append((coeff, ops))
    return _monomial_sum(monomials, n, first)


def _check_support(iv: Interval, N: int) -> None:
    if not iv.fits(N) or iv.k < 0:
        raise ValidationError(f"perturbation support {iv} does not fit {N} sites")


def local_perturbation(iv: Interval, terms, N: int) -> FlipOperator:
    """One perturbation of an N-site chain as an operator on the k+1 sites
    of its support ``iv``, which every site of ``terms`` must lie in."""
    _check_support(iv, N)
    try:
        return perturbation_matrix(terms, iv.k + 1, first=iv.q)
    except ValidationError as err:
        raise ValidationError(f"perturbation on {iv}: {err}") from err


def build_kitaev_model(N: int, beta, perturbations, mu=0.0, tau=1.0,
                       delta=1.0, seed_info=None) -> KitaevModel:
    """Validate the support, shape, finiteness, Hermiticity
    (``operators.hermitian_rule``) and parity-evenness of each
    perturbation, a support and the operator on its sites, as a
    ``FlipOperator`` or a dense matrix (grouped into keys first).

    A perturbation is checked as given and then stored exactly even: its
    odd keys, whose entries cross fermion parity and are all within the
    evenness tolerance, are dropped, as ``build_chain_model`` stores
    interactions exactly Hermitian.  So every Hamiltonian formed from the
    model splits into its two parity blocks.
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
        keyed = isinstance(mat, FlipOperator)
        shape = (mat.dim,) * 2 if keyed else np.shape(mat)
        if shape != (2 ** (iv.k + 1),) * 2:
            raise ValidationError(f"perturbation on {iv}: matrix shape {shape} does not "
                                  f"match its {iv.k + 1} sites")
        if not keyed:
            mat = FlipOperator.from_dense(np.asarray(mat, dtype=complex))
        if not np.all(np.isfinite(mat.amps)):
            raise ValidationError(f"perturbation on {iv}: coefficients must be finite")
        # m^dag holds conj(m[a ^ s, a]) at [a, a ^ s]: on the same key, read at a ^ s
        partner = np.take_along_axis(mat.amps, np.arange(mat.dim) ^ mat.keys[:, None], axis=1)
        hermitian_rule(float(np.max(np.abs(mat.amps - partner.conj()), initial=0.0)),
                       float(np.max(np.abs(mat.amps), initial=0.0)),
                       f"perturbation on {iv} is not Hermitian")
        odd = mat.odd()
        # the largest entry of [P, mat] for the parity P: twice the largest across parity
        if 2 * np.max(np.abs(mat.amps[odd]), initial=0.0) > 1e-9:
            raise ValidationError(f"perturbation on {iv} is not even in fermion operators")
        checked.append((iv, FlipOperator(mat.keys[~odd], mat.amps[~odd])))
    return KitaevModel(N, float(beta), tuple(checked), dict(seed_info or {}))


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


def zero_sector_basis(n: int) -> np.ndarray:
    """Orthonormal columns spanning the d_0-vacuum sector of n fermion sites.

    Each mode is the sum of its two Majorana halves, four single factors:
    2 d^dag_j = (c^dag_j + c_j) + (c_{j+1} - c^dag_{j+1}) and
    2 d_j = (c_j + c^dag_j) - (c_{j+1} - c^dag_{j+1}), where site 0 means
    site n, each half on the key of its one site.  The mode vacuum, the
    unique state annihilated by every d_j, is the normalized image of
    e_0 + e_1 under the projection prod_j (1 - d^dag_j d_j); its entries all
    tie in magnitude, so one of the two basis states overlaps it.  The
    projection is even, so the vacuum and every column lie in one parity
    sector and are exactly zero outside it.  Its phase makes the first
    entry of at least half the largest magnitude real and positive (the
    largest alone would leave the phase to rounding).
    Column index encodes occupations (n_1..n_{n-1}) with mode 1 as the most
    significant bit: the columns double, R = [R, d^dag_j R] for j = n-1 down
    to 1, so creation operators are applied highest mode first and the
    column reads ddag_1^{n_1} ... ddag_{n-1}^{n_{n-1}} vacuum.
    """
    def mode(j, sign):  # d^dag_j for sign 1, d_j for sign -1
        return _monomial_sum([(0.5, [("cdag", j or n)]), (0.5, [("c", j or n)]),
                              (0.5 * sign, [("c", j + 1)]), (-0.5 * sign, [("cdag", j + 1)])], n)

    ddags = [mode(j, 1.0) for j in range(n)]
    vac = np.zeros((2 ** n, 1), dtype=complex)
    vac[:2] = 1.0
    for j, ddag in enumerate(ddags):
        vac = vac - _apply(ddag, _apply(mode(j, -1.0), vac))
    vac /= np.linalg.norm(vac)
    pivot = vac[np.flatnonzero(np.abs(vac) >= 0.5 * np.abs(vac).max())[0], 0]
    vac *= pivot.conjugate() / abs(pivot)
    R = vac
    for ddag in ddags[:0:-1]:
        R = np.hstack([R, _apply(ddag, R)])
    return R


def restricted_chain_model(N: int, bulk, beta: float, seed_info=None) -> ChainModel:
    """Chain model for the perturbed Hamiltonian of an N-site Kitaev chain
    on the zero-mode vacuum sector.

    A bulk term on c-sites {i..i+j} restricts to an interaction on the
    d-site interval with j+1 edges and left endpoint i-1: R^dag W R on the
    term's frame, j+3 sites with the term on sites 2..j+2 and one R per
    range j, whose j+2 d-modes are that interval's, so it is the same
    matrix on any chain.  W R is one gather of R per key of W, with no
    frame-sized matrix.  On-site matrix
    diag(0, 2) per mode; the unperturbed vacuum energy -(N-1) rides along
    as the model's energy offset.  Local interaction matrices are rescaled
    by their largest norm w (coupling beta * w) so every stored norm is at
    most 1; the represented operator is unchanged.  ``seed_info`` joins
    the chain's record of its source, beta and norm scale.
    """
    if not bulk:
        raise ValidationError("restriction needs at least one bulk term")
    bases = {k: zero_sector_basis(k + 3) for k in {iv.k for iv, _ in bulk}}
    locals_ = {}
    for iv, mat in bulk:
        R = bases[iv.k]
        WR = _apply(embed(mat, Interval(iv.k, 2), iv.k + 3), R)
        d_iv = Interval(iv.k + 1, iv.q - 1)
        locals_[d_iv] = locals_.get(d_iv, 0) + R.conj().T @ WR
    # R^dag W R is Hermitian only to rounding; build_chain_model stores it exactly Hermitian
    scale = max(1.0, *(op_norm(m) for m in locals_.values()))
    interactions = {iv: m / scale for iv, m in locals_.items()}
    return build_chain_model(
        N=N - 1, M=2, onsite=np.diag([0.0, 2.0]).astype(complex),
        interactions=interactions, t=beta * scale,
        kbar=max(iv.k for iv in interactions),
        energy_offset=-(N - 1),
        seed_info={"source": "kitaev-restriction", "beta": float(beta),
                   "norm_scale": float(scale), **(seed_info or {})},
    )


def doubling_check_terms(pencil: SectorPencil, beta: float, restricted: np.ndarray) -> bool:
    """The spectrum of H0 + beta * (bulk terms), given as ``pencil``, is
    ``restricted``, the ascending spectrum of the restricted chain at this
    beta (``OracleComparison.spectrum``), doubled to within DEGENERACY_TOL,
    and every level (``oracle.levels``) has even size.  Both zero-mode
    Majoranas commute with the bulk pencil, so its spectrum is read from
    the two halves of the even parity block alone."""
    full = pencil.spectrum(beta)
    doubled = np.sort(np.concatenate([restricted, restricted]))
    return (float(np.max(np.abs(full - doubled))) <= DEGENERACY_TOL
            and all(size % 2 == 0 for size in levels(full)))


def boundary_gap_check(pencil: SectorPencil, beta: float) -> tuple[float, float]:
    """Ground-pair splitting and the gap above it for the full Hamiltonian
    H0 + beta * (all terms), given as ``pencil``.

    With boundary terms included, the doubly degenerate ground pair of the
    bulk Hamiltonian splits by an amount of order beta while the rest of the
    spectrum stays an order-1 distance above; this is verified by exact
    diagonalization of the parity blocks instead of constructing the
    block-diagonalizing unitary on the degenerate sector.  Terms that avoid
    one end leave that end's Majorana commuting, so the even block alone is
    diagonalized and the pair is exactly degenerate (splitting 0.0).
    Returns (splitting of the two lowest levels, gap from them to the
    third).
    """
    evals = pencil.spectrum(beta)
    return float(evals[1] - evals[0]), float(evals[2] - evals[1])


@dataclass(frozen=True, eq=False)
class KitaevReduction:
    """A Kitaev model reduced to its restricted chain, with its bulk and
    boundary terms and the pencils that the per-coupling checks read, each
    built on first read with every term embedded once: H0 + beta * (bulk
    terms) for the doubling check, and H0 + beta * (all terms) for the
    boundary check (None without boundary terms).  A run that reads
    neither, a bulk-only file under ``--oracle off``, forms no 2^N
    operator."""

    model: KitaevModel
    chain: ChainModel
    bulk: tuple
    boundary: tuple

    @cached_property
    def _bulk_pencil_terms(self) -> tuple[FlipOperator, FlipOperator]:
        """H0 and the bulk sum, which both pencils share."""
        return kitaev_hamiltonian(self.model.N), _embedded_sum(self.bulk, self.model.N)

    @cached_property
    def doubling(self) -> SectorPencil:
        return SectorPencil(*self._bulk_pencil_terms)

    @cached_property
    def full(self) -> SectorPencil | None:
        if not self.boundary:
            return None
        H0, X = self._bulk_pencil_terms
        dim = 2 ** self.model.N
        return SectorPencil(H0, _summed([X, _embedded_sum(self.boundary, self.model.N)], dim))

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
            "norm_scale": scale, "doubling_ok": None,  # set by check_doubling
        }
        if self.full is not None:
            splitting, gap_above = boundary_gap_check(self.full, beta)
            block["boundary_splitting"] = splitting
            block["boundary_gap_above_pair"] = gap_above
        return chain, block

    def check_doubling(self, block: dict, restricted: np.ndarray) -> None:
        """``doubling_ok`` of a block from ``at``, on the oracle's restricted spectrum."""
        block["doubling_ok"] = doubling_check_terms(self.doubling, block["beta"], restricted)
