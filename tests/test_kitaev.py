import json
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from conftest import (csr, d_modes, dense, dense_spectrum, dense_zero_sector_basis, doubling_check,
                      full_basis_restriction, keyed, kitaev_spectrum_expected,
                      kron_fermion_algebra, majoranas, pencil, perturbed_full_hamiltonian,
                      random_bulk_perturbation, sparse_perturbation_matrix,
                      sparse_zero_sector_basis)
from lieschwinger import kitaev as kit
from lieschwinger.cli import load_model, main
from lieschwinger.errors import ValidationError
from lieschwinger.estimator import BlockDiagonalizer
from lieschwinger.intervals import Interval, iter_steps
from lieschwinger.operators import parity_eigvalsh, parity_sectors
from lieschwinger.oracle import assemble_direct, ed_spectrum
from lieschwinger.sweep import advance, initial_state

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def car_defect(ops):
    """Largest violation of {a_j, a_l} = 0 and {a_j, a^dag_l} = delta."""
    N = len(ops)
    dim = ops[0].shape[0]
    eye = sparse.identity(dim, dtype=complex, format="csr")
    worst = 0.0
    for j in range(N):
        for l in range(j, N):
            anti = ops[j] @ ops[l] + ops[l] @ ops[j]
            worst = max(worst, abs(anti.toarray()).max() if anti.nnz else 0.0)
            mixed = ops[j] @ ops[l].conj().T + ops[l].conj().T @ ops[j]
            delta = eye if j == l else sparse.csr_matrix((dim, dim), dtype=complex)
            diff = mixed - delta
            worst = max(worst, abs(diff.toarray()).max() if diff.nnz else 0.0)
    return worst


class TestAlgebras:
    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_car_small(self, N):
        alg = kron_fermion_algebra(N)
        assert car_defect(list(alg.c)) <= 1e-12
        dmodes = d_modes(alg)
        assert car_defect(list(dmodes.d)) <= 1e-12

    def test_car_large_chain(self):
        alg = kron_fermion_algebra(10)
        dmodes = d_modes(alg)
        assert car_defect(list(alg.c)) <= 1e-12
        assert car_defect(list(dmodes.d)) <= 1e-12

    @pytest.mark.parametrize("N", range(1, 9))
    def test_algebra_equals_kronecker_products(self, N):
        # each factor c_j and c^dag_j, read as a signed partial permutation
        # of the occupation basis, equals its Kronecker product
        # sz^(j-1) (x) a (x) 1^(N-j) or its adjoint entry for entry
        alg = kron_fermion_algebra(N)
        for j in range(1, N + 1):
            for kind, want in (("c", alg.c[j - 1]), ("cdag", alg.cdag(j))):
                rows, amp = kit._follow([(kind, j)], N, 1)
                got = np.zeros((2 ** N,) * 2)
                got[rows, np.arange(2 ** N)] = amp
                assert np.array_equal(got, want.toarray())

    @pytest.mark.parametrize("N", [3, 5, 10])
    def test_inversion_identities(self, N):
        alg = kron_fermion_algebra(N)
        dm = d_modes(alg)
        for j in range(1, N):
            diff = alg.c[j - 1] - 0.5 * (dm.d[j] + dm.ddag(j) + dm.ddag(j - 1) - dm.d[j - 1])
            assert abs(diff.toarray()).max() <= 1e-12
        diff = alg.c[N - 1] - 0.5 * (dm.d[0] + dm.ddag(0) + dm.ddag(N - 1) - dm.d[N - 1])
        assert abs(diff.toarray()).max() <= 1e-12

    @pytest.mark.parametrize("N", range(1, 10))
    def test_modes_equal_the_majorana_form(self, N):
        # 2 d^dag_j = gamma_{B,j} + i gamma_{A,j+1}, with gamma_{B,0} the
        # site-N component, entry for entry
        alg = kron_fermion_algebra(N)
        gA, gB = majoranas(alg)
        dm = d_modes(alg)
        for j in range(N):
            want = 0.5 * (gB[j - 1] + 1j * gA[j])
            assert np.array_equal(dm.ddag(j).toarray(), want.toarray())
            assert np.array_equal(dm.d[j].toarray(), want.conj().T.toarray())

    def test_zero_mode_wraparound_form(self):
        N = 4
        alg = kron_fermion_algebra(N)
        dm = d_modes(alg)
        expected = 0.5 * (-alg.cdag(1) + alg.c[0] + alg.cdag(N) + alg.c[N - 1])
        assert abs((dm.ddag(0) - expected).toarray()).max() <= 1e-12


class TestSweetSpotHamiltonian:
    def test_two_sites(self):
        np.testing.assert_allclose(
            dense_spectrum(kit.kitaev_hamiltonian(2)), [-1, -1, 1, 1], atol=1e-12
        )

    def test_four_sites_multiplicities(self):
        ev = dense_spectrum(kit.kitaev_hamiltonian(4))
        np.testing.assert_allclose(ev, kitaev_spectrum_expected(4), atol=1e-12)

    @pytest.mark.parametrize("N", range(2, 9))
    def test_spectrum_matches_doubled_binomials(self, N):
        ev = dense_spectrum(kit.kitaev_hamiltonian(N))
        np.testing.assert_allclose(ev, kitaev_spectrum_expected(N), atol=1e-9)

    @pytest.mark.parametrize("N", range(2, 9))
    def test_majorana_form_equals_number_operator_form(self, N):
        # H0 = sum_j (2 d^dag_j d_j - 1) over j = 1..N-1, in the N-site algebra
        H0 = kit.kitaev_hamiltonian(N)
        dm = d_modes(kron_fermion_algebra(N))
        eye = sparse.identity(2 ** N, dtype=complex, format="csr")
        modes = sum(2 * (dm.ddag(j) @ dm.d[j]) - eye for j in range(1, N))
        assert np.abs(dense(H0) - dense(modes)).max() <= 1e-12

    @pytest.mark.parametrize("N", range(1, 10))
    def test_bond_embedding_equals_n_site_majorana_form(self, N):
        # the 2-site bond matrix embedded on each bond is -i sum_j
        # gamma_{B,j} gamma_{A,j+1} of the N-site algebra entry for entry
        gA, gB = majoranas(kron_fermion_algebra(N))
        want = sum((-1j * (gB[j - 1] @ gA[j]) for j in range(1, N)),
                   sparse.csr_matrix((2 ** N,) * 2, dtype=complex))
        assert np.array_equal(dense(kit.kitaev_hamiltonian(N)), want.toarray())

    def test_quadratic_form_agrees_at_sweet_spot(self):
        # oracle: the hopping+pairing Hamiltonian assembled from fermion
        # bilinears directly in this test
        N = 5
        alg = kron_fermion_algebra(N)
        H = sparse.csr_matrix((alg.dim, alg.dim), dtype=complex)
        for j in range(1, N):
            hop = alg.cdag(j) @ alg.c[j]  # c^dag_j c_{j+1}
            pairing = alg.c[j - 1] @ alg.c[j]
            H = H - (hop + hop.conj().T + pairing + pairing.conj().T)
        np.testing.assert_allclose(H.toarray(), dense(kit.kitaev_hamiltonian(N)), atol=1e-12)


class TestRegrouping:
    def test_empty(self):
        model = kit.build_kitaev_model(5, beta=0.01, perturbations=[])
        bulk, boundary = kit.regroup_perturbations(model.N, model.perturbations)
        assert bulk == [] and boundary == []

    def test_single_density_term(self):
        # c^dag_i c_i with interior i is bulk, restricts to d-sites
        # {i-1, i} and commutes with the zero mode
        N, i = 6, 3
        local = kron_fermion_algebra(1)
        mat = (local.cdag(1) @ local.c[0]).toarray()
        model = kit.build_kitaev_model(N, 0.01, [(Interval(0, i), mat)])
        bulk, boundary = kit.regroup_perturbations(model.N, model.perturbations)
        assert boundary == []
        (iv, m), = bulk
        assert iv == Interval(0, i)
        chain = kit.restricted_chain_model(N, bulk, 0.01)
        assert list(chain.interactions) == [Interval(1, i - 1)]  # edge count 0+1
        alg = kron_fermion_algebra(N)
        W = dense(kit.embed(m, iv, N))
        assert np.array_equal(W, (alg.cdag(i) @ alg.c[i - 1]).toarray())
        d0 = d_modes(alg).d[0].toarray()
        comm = W @ d0 - d0 @ W
        assert abs(comm).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_bulk_commutes_with_zero_mode(self, seed):
        N = 6
        iv, mat = random_bulk_perturbation(N, seed=seed)
        model = kit.build_kitaev_model(N, 0.01, [(iv, mat)])
        bulk, boundary = kit.regroup_perturbations(model.N, model.perturbations)
        assert boundary == []
        d0 = d_modes(kron_fermion_algebra(N)).d[0].toarray()
        for iv, m in bulk:
            W = dense(kit.embed(m, iv, N))
            assert abs(W @ d0 - d0 @ W).max() <= 1e-12

    def test_edge_terms_classified_as_boundary(self):
        N = 5
        local = kron_fermion_algebra(1)
        density = (local.cdag(1) @ local.c[0]).toarray()
        model = kit.build_kitaev_model(
            N, 0.01, [(Interval(0, 1), density), (Interval(0, N), density)]
        )
        bulk, boundary = kit.regroup_perturbations(model.N, model.perturbations)
        assert bulk == [] and len(boundary) == 2

    def test_odd_perturbation_rejected(self):
        N = 4
        local = kron_fermion_algebra(1)
        odd = (local.c[0] + local.cdag(1)).toarray()
        for mat in (odd, keyed(odd)):
            with pytest.raises(ValidationError, match="even"):
                kit.build_kitaev_model(N, 0.01, [(Interval(0, 2), mat)])

    @pytest.mark.parametrize("defect,accepted,form", [
        pytest.param(defect, accepted, form, id=f"{defect}-{accepted}" + suffix)
        for defect, accepted in ((5e-9, True), (2e-8, False), (9.9e-9, True), (1.01e-8, False))
        for form, suffix in (("dense", ""), ("keys", "-keys"))])
    def test_hermiticity_is_relative_to_the_entry_scale(self, defect, accepted, form):
        # 10 n_3 on bulk sites 2..3, with a defect on an entry inside the even
        # sector: the rule bounds the defect by 1e-8, and a dense matrix and
        # the parsed key form of the same operator get the same decision
        mat = np.diag([0.0, 10.0, 0.0, 10.0]).astype(complex)
        mat[0, 3] += defect
        if form == "keys":
            # c_3 c_2 takes |11> to |00>: the defect entry
            terms = [{"coeff": [10.0, 0.0], "ops": [("cdag", 3), ("c", 3)]},
                     {"coeff": [defect, 0.0], "ops": [("c", 3), ("c", 2)]}]
            keys = kit.local_perturbation(Interval(1, 2), terms, 5)
            assert np.array_equal(dense(keys), mat)
            mat = keys
        perturbation = [(Interval(1, 2), mat)]
        if accepted:
            kit.build_kitaev_model(5, 0.01, perturbation)
            return
        with pytest.raises(ValidationError, match="not Hermitian"):
            kit.build_kitaev_model(5, 0.01, perturbation)

    def test_small_odd_admixture_is_stored_exactly_even(self):
        # validated as given, stored with the cross-parity entries dropped,
        # from a dense matrix and from its key form alike
        N = 5
        iv, even = random_bulk_perturbation(N, seed=5)
        local = kron_fermion_algebra(iv.k + 1)
        odd = (local.c[0] + local.cdag(1)).toarray()
        for form in (np.asarray, keyed):
            model = kit.build_kitaev_model(N, 0.01, [(iv, form(even + 1e-11 * odd))])
            (_, stored), = model.perturbations
            stored = dense(stored)
            even_idx, odd_idx = popcount_sectors(iv.k + 1)
            assert not np.any(stored[np.ix_(even_idx, odd_idx)])
            assert not np.any(stored[np.ix_(odd_idx, even_idx)])
            for idx in (even_idx, odd_idx):
                block = np.ix_(idx, idx)
                assert np.array_equal(stored[block], even[block])
            # so the parity blocks accept every Hamiltonian the model forms
            pencil(N, model.perturbations).spectrum(0.01)
            with pytest.raises(ValidationError, match="even"):
                kit.build_kitaev_model(N, 0.01, [(iv, form(even + 1e-8 * odd))])

    @pytest.mark.parametrize("scale,accepted", [(0.49e-9, True), (0.51e-9, False)])
    @pytest.mark.parametrize("form", ["dense", "keys"])
    def test_evenness_bound_decides_alike_for_both_forms(self, scale, accepted, form):
        # twice the largest entry across parity is held to 1e-9: an odd
        # admixture just below and just above it, as a dense matrix and in
        # key form
        iv, even = random_bulk_perturbation(5, seed=5)
        local = kron_fermion_algebra(iv.k + 1)
        mat = even + scale * (local.c[0] + local.cdag(1)).toarray()
        perturbation = [(iv, mat if form == "dense" else keyed(mat))]
        if accepted:
            kit.build_kitaev_model(5, 0.01, perturbation)
            return
        with pytest.raises(ValidationError, match="not even"):
            kit.build_kitaev_model(5, 0.01, perturbation)


def popcount_sectors(N):
    """Even and odd occupation-basis indices, counted bit by bit."""
    parity = np.array([bin(i).count("1") % 2 for i in range(2 ** N)])
    return np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)


class TestParitySectors:
    @pytest.mark.parametrize("N", range(1, 8))
    def test_sectors_follow_popcount(self, N):
        for got, want in zip(parity_sectors(N), popcount_sectors(N)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("N", range(2, 8))
    def test_sector_spectrum_matches_dense(self, N):
        # H0 + beta X from the parity blocks of a pencil, and from
        # parity_eigvalsh of the dense matrix, against one eigvalsh of it
        rng = np.random.default_rng(N)
        H0 = kit.kitaev_hamiltonian(N)
        even_idx, odd_idx = popcount_sectors(N)
        A = rng.normal(size=(2 ** N,) * 2) + 1j * rng.normal(size=(2 ** N,) * 2)
        A = A + A.conj().T
        A[np.ix_(even_idx, odd_idx)] = A[np.ix_(odd_idx, even_idx)] = 0
        alg = kron_fermion_algebra(N)
        edge = alg.cdag(1) @ alg.c[0] + alg.cdag(N) @ alg.c[N - 1]
        hop = alg.cdag(1) @ alg.c[N - 1]
        dm = d_modes(alg)
        for X in (A, 0 * A, dense(edge + hop + hop.conj().T), dense(dm.ddag(0) @ dm.d[0])):
            H = dense(H0) + 0.3 * X
            want = dense_spectrum(H)
            tol = 1e-12 * max(1.0, abs(want).max())
            got = kit.SectorPencil(H0, keyed(X)).spectrum(0.3)
            assert np.max(np.abs(got - want)) <= tol
            assert np.max(np.abs(parity_eigvalsh(H) - want)) <= tol

    @pytest.mark.parametrize("entry", [1.0, 1e-300])
    def test_one_cross_parity_entry_is_rejected(self, entry):
        H0 = kit.kitaev_hamiltonian(4)
        H = dense(H0)
        H[0, 1] = entry  # index 0 is even, index 1 odd
        with pytest.raises(ValidationError, match="not even"):
            kit.SectorPencil(keyed(H), H0)
        with pytest.raises(ValidationError, match="not even"):
            kit.SectorPencil(H0, keyed(H))

    @pytest.mark.parametrize("N", range(2, 11))
    def test_zero_sector_basis_matches_dense_reference(self, N):
        # the projected vacuum against one eigh of the whole 2^N matrix,
        # whose own rounding reaches 5e-15 at N = 10; every d_j annihilates
        # the projected one exactly
        R = kit.zero_sector_basis(N)
        assert np.max(np.abs(R - dense_zero_sector_basis(N))) <= 1e-14
        dm = d_modes(kron_fermion_algebra(N))
        assert not any(np.any(d @ R[:, 0]) for d in dm.d)
        even_idx, odd_idx = popcount_sectors(N)
        for col in R.T:
            assert not np.any(col[even_idx]) or not np.any(col[odd_idx])
        assert np.max(np.abs(R.conj().T @ R - np.eye(2 ** (N - 1)))) <= 1e-15

    @pytest.mark.parametrize("N", range(2, 11))
    def test_zero_sector_basis_equals_the_sparse_route(self, N):
        # the Majorana halves applied as signed permutations, the columns
        # built by doubling, against sparse modes of the Kronecker algebra
        # and one column at a time: the same arithmetic on each entry
        assert np.array_equal(kit.zero_sector_basis(N), sparse_zero_sector_basis(N))

    @pytest.mark.parametrize("N", range(2, 8))
    def test_sector_columns_carry_r(self, N):
        # the columns of R, split by the parity of their d-mode occupations,
        # form two blocks that hold every nonzero entry of R, so R^dag X R of
        # an even X is the block-diagonal matrix of the R_s^dag X_s R_s, with
        # no entry across the d-mode parity, not even a rounding one: a
        # restricted chain splits into its two parity blocks
        rng = np.random.default_rng(N)
        R = kit.zero_sector_basis(N)
        rows = parity_sectors(N)
        cols = parity_sectors(N - 1)
        if not np.any(R[rows[0], 0]):  # the vacuum, column 0, is odd
            cols = cols[::-1]
        rebuilt = np.zeros_like(R)
        for idx, c in zip(rows, cols):
            rebuilt[np.ix_(idx, c)] = R[np.ix_(idx, c)]
        assert np.array_equal(rebuilt, R)
        X = rng.normal(size=(2 ** N,) * 2) + 1j * rng.normal(size=(2 ** N,) * 2)
        X[np.ix_(*rows)] = X[np.ix_(*rows[::-1])] = 0
        Y = R.conj().T @ (sparse.csr_matrix(X) @ R)
        blocks = np.zeros_like(Y)
        for idx, c in zip(rows, cols):
            R_s = R[np.ix_(idx, c)]
            blocks[np.ix_(c, c)] = R_s.conj().T @ X[np.ix_(idx, idx)] @ R_s
        assert np.max(np.abs(blocks - Y)) <= 1e-12
        assert not np.any(Y[np.ix_(*cols)]) and not np.any(Y[np.ix_(*cols[::-1])])


def random_even_terms(rng, iv):
    """File terms of a random Hermitian perturbation on the sites of ``iv``:
    monomials of fermion degree 2 and 4, each with its conjugate."""
    terms = []
    for degree in (2, 4):
        for _ in range(3):
            kinds = rng.permutation(["c", "cdag"] * (degree // 2))
            ops = [[str(kind), int(rng.integers(iv.q, iv.last + 1))] for kind in kinds]
            re, im = rng.normal(size=2)
            conj = [["cdag" if kind == "c" else "c", site] for kind, site in reversed(ops)]
            terms += [{"coeff": [re, im], "ops": ops}, {"coeff": [re, -im], "ops": conj}]
    return terms


class TestLocalReduction:
    @pytest.mark.parametrize("N", range(5, 11))
    def test_every_placement_matches_the_full_space_route(self, N):
        # each bulk placement of k = 0..3: the embedded local parse equals
        # the parse on the whole 2^N algebra entry for entry, and the
        # restriction on the term's frame matches R^dag W R on the chain
        rng = np.random.default_rng(N)
        alg = kron_fermion_algebra(N)
        bulk = []
        for k in range(4):
            for q in range(2, N - k):
                iv = Interval(k, q)
                terms = random_even_terms(rng, iv)
                mat = kit.local_perturbation(iv, terms, N)
                assert mat.dim == 2 ** (k + 1)
                assert np.array_equal(dense(kit.embed(mat, iv, N)),
                                      sparse_perturbation_matrix(alg, terms).toarray())
                bulk.append((iv, mat))
        chain = kit.restricted_chain_model(N, bulk, 0.01)
        want = full_basis_restriction(N, bulk)
        scale = max(1.0, *(np.max(np.abs(np.linalg.eigvalsh(m))) for m in want.values()))
        assert chain.t == pytest.approx(0.01 * scale, rel=1e-14)
        assert set(chain.interactions) == set(want)
        for iv, op in chain.interactions.items():
            assert np.max(np.abs(op.matrix - want[iv] / scale)) <= 1e-14, iv

    @pytest.mark.parametrize("N", range(5, 11))
    def test_even_bulk_terms_commute_with_the_zero_mode_exactly(self, N):
        # why regrouping takes no commutator: each stored bulk term of
        # k = 0..3 at every placement commutes with d_0 entry for entry, on
        # its frame and on the chain
        rng = np.random.default_rng(N)
        d0 = d_modes(kron_fermion_algebra(N)).d[0]
        for k in range(4):
            frame_d0 = d_modes(kron_fermion_algebra(k + 3)).d[0]
            for q in range(2, N - k):
                iv = Interval(k, q)
                model = kit.build_kitaev_model(
                    N, 0.01, [(iv, kit.local_perturbation(iv, random_even_terms(rng, iv), N))])
                (_, mat), = model.perturbations
                for W, d in ((csr(kit.embed(mat, Interval(k, 2), k + 3)), frame_d0),
                             (csr(kit.embed(mat, iv, N)), d0)):
                    assert abs(W @ d - d @ W).max() == 0.0, iv

    def test_wide_terms_match_the_kronecker_reference(self):
        # a boundary term on the nine sites 2..10 of a 10-site chain, with a
        # hop between its two ends, and a bulk term of range 3: each embedded
        # local parse equals the parse on the whole 2^N Kronecker algebra
        # entry for entry, and the bulk term's restriction on its frame
        # matches R^dag W R on the chain
        N = 10
        rng = np.random.default_rng(N)
        alg = kron_fermion_algebra(N)
        perts = []
        for iv in (Interval(8, 2), Interval(3, 4)):
            terms = random_even_terms(rng, iv) + [
                {"coeff": [0.3, 0.2], "ops": [["cdag", iv.q], ["c", iv.last]]},
                {"coeff": [0.3, -0.2], "ops": [["cdag", iv.last], ["c", iv.q]]}]
            mat = kit.local_perturbation(iv, terms, N)
            assert np.array_equal(dense(kit.embed(mat, iv, N)),
                                  sparse_perturbation_matrix(alg, terms).toarray()), iv
            perts.append((iv, mat))
        model = kit.build_kitaev_model(N, 0.01, perts)
        bulk, boundary = kit.regroup_perturbations(N, model.perturbations)
        assert [iv for iv, _ in bulk] == [Interval(3, 4)]
        assert [iv for iv, _ in boundary] == [Interval(8, 2)]
        chain = kit.restricted_chain_model(N, bulk, 0.01)
        want = full_basis_restriction(N, bulk)
        scale = max(1.0, *(np.max(np.abs(np.linalg.eigvalsh(m))) for m in want.values()))
        assert chain.t == pytest.approx(0.01 * scale, rel=1e-14)
        assert set(chain.interactions) == set(want) == {Interval(4, 3)}
        for iv, op in chain.interactions.items():
            assert np.max(np.abs(op.matrix - want[iv] / scale)) <= 1e-14, iv

    def test_one_zero_sector_basis_per_range(self, tmp_path, monkeypatch):
        # two bulk terms of each range k = 0, 1, 2 and a boundary term: the
        # reduction builds one frame basis per range, and the regrouping
        # none
        zero_sector_basis, sizes = kit.zero_sector_basis, []

        def counted(n):
            sizes.append(n)
            return zero_sector_basis(n)

        monkeypatch.setattr(kit, "zero_sector_basis", counted)
        rng = np.random.default_rng(0)
        supports = [(3, 3), (5, 5), (2, 3), (4, 5), (2, 4), (4, 6), (1, 2)]
        perts = [{"support": [q, last], "terms": random_even_terms(rng, Interval(last - q, q))}
                 for q, last in supports]
        config = tmp_path / "kitaev.json"
        config.write_text(json.dumps({"version": "1", "kitaev": {"N": 7, "beta": 0.01,
                                                                 "perturbations": perts}}))
        model = load_model(config)
        reduction = model.reduce()
        assert sorted(sizes) == [3, 4, 5]
        assert len(reduction.bulk) == 6 and len(reduction.boundary) == 1
        sizes.clear()
        kit.regroup_perturbations(model.N, model.perturbations)
        assert sizes == []

    def test_translation_invariant_bonds_restrict_bit_identically(self, monkeypatch):
        # one bond term repeated on each bond of a 40-site chain, past the
        # dense guard: parsed, regrouped and restricted with no zero-sector
        # basis above the 2^(k+3) rows of its k = 1 frame
        N = 40
        zero_sector_basis = kit.zero_sector_basis

        def frame_sized(n):
            if n > 4:
                raise AssertionError(f"zero-sector basis of {n} modes")
            return zero_sector_basis(n)

        monkeypatch.setattr(kit, "zero_sector_basis", frame_sized)
        bond = random_even_terms(np.random.default_rng(0), Interval(1, 1))
        perts = []
        for q in range(1, N):
            terms = [{"coeff": term["coeff"], "ops": [[kind, site + q - 1]
                                                      for kind, site in term["ops"]]}
                     for term in bond]
            perts.append((Interval(1, q), kit.local_perturbation(Interval(1, q), terms, N)))
        bulk, boundary = kit.regroup_perturbations(N, perts)
        assert len(bulk) == N - 3 and len(boundary) == 2
        chain = kit.restricted_chain_model(N, bulk, 0.01)
        assert sorted(chain.interactions) == [Interval(2, q) for q in range(1, N - 2)]
        first = chain.interactions[Interval(2, 1)].matrix
        assert np.any(first)
        for op in chain.interactions.values():
            assert np.array_equal(op.matrix, first)


COUPLINGS = (0.01, 0.02, 0.04, 0.08)


def bond_perturbations(N, seed):
    """A random even term on every interior bond and one on the boundary
    bond [1, 2], each parsed on its own sites."""
    rng = np.random.default_rng(seed)
    supports = [Interval(1, q) for q in range(2, N - 1)] + [Interval(1, 1)]
    return [(iv, kit.local_perturbation(iv, random_even_terms(rng, iv), N)) for iv in supports]


def reference_doubling_ok(full, restricted, tol=1e-9):
    """The rule of ``kit.doubling_check_terms`` on given spectra."""
    if np.max(np.abs(full - np.sort(np.concatenate([restricted, restricted])))) > tol:
        return False
    i = 0
    while i < full.shape[0]:
        j = i
        while j + 1 < full.shape[0] and full[j + 1] - full[i] <= tol:
            j += 1
        if (j - i + 1) % 2:
            return False
        i = j + 1
    return True


class TestCheckBlocks:
    @pytest.mark.parametrize("N", range(5, 10))
    def test_checks_match_the_dense_reference(self, N):
        # every coupling's check fields, from the parity blocks kept by
        # reduce, against one eigvalsh of each full 2^N Hamiltonian with
        # every term embedded again
        perts = bond_perturbations(N, seed=N)
        reduction = kit.build_kitaev_model(N, COUPLINGS[0], perts).reduce()
        bulk, everything = list(reduction.bulk), list(reduction.bulk + reduction.boundary)
        for beta in COUPLINGS:
            chain, block = reduction.at(beta)
            full = dense_spectrum(perturbed_full_hamiltonian(N, bulk, beta))
            restricted = np.linalg.eigvalsh(assemble_direct(chain))
            assert block["doubling_ok"] is reference_doubling_ok(full, restricted) is True
            want = dense_spectrum(perturbed_full_hamiltonian(N, everything, beta))
            assert abs(block["boundary_splitting"] - (want[1] - want[0])) <= 1e-12
            assert abs(block["boundary_gap_above_pair"] - (want[2] - want[1])) <= 1e-12

    def test_a_coupling_embeds_nothing(self, monkeypatch):
        reduction = kit.build_kitaev_model(7, 0.01, bond_perturbations(7, seed=0)).reduce()

        def no_embedding(*args, **kwargs):
            raise AssertionError("a term was embedded for one coupling")

        monkeypatch.setattr(kit, "embed", no_embedding)
        for beta in COUPLINGS:
            _, block = reduction.at(beta)
            assert block["doubling_ok"] is True

    def test_cli_run_builds_no_algebra_past_a_frame(self, tmp_path, monkeypatch):
        # bond terms (k = 1) of a 9-site file: no fermion factor is read on
        # more than the k+3 = 4 sites of a frame, at load, at reduction or
        # per coupling
        follow = kit._follow

        def frame_sized(ops, n, first):
            if n > 4:
                raise AssertionError(f"fermion factors read on {n} sites")
            return follow(ops, n, first)

        monkeypatch.setattr(kit, "_follow", frame_sized)
        rng = np.random.default_rng(3)
        perts = [{"support": [q, q + 1], "terms": random_even_terms(rng, Interval(1, q))}
                 for q in (1, *range(2, 8))]
        config = tmp_path / "kitaev.json"
        config.write_text(json.dumps({"version": "1", "kitaev": {"N": 9, "beta": 0.01,
                                                                 "perturbations": perts}}))
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--t-sweep", "0.01,0.04", "--report", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert [r["kitaev"]["doubling_ok"] for r in reports] == [True, True]


class TestRestriction:
    def test_stored_potentials_exactly_hermitian_through_the_sweep(self):
        # the restricted interactions are symmetrized once, at reduction, so
        # no potential carries an anti-Hermitian rounding part between steps
        chain = load_model(CONFIGS / "kitaev_n6.json").reduce().chain
        state = initial_state(chain)
        for X in state.potentials.values():
            assert np.array_equal(X.matrix, X.matrix.conj().T)
        for _ in iter_steps(chain.N):
            state = advance(state, chain)
            for iv, X in state.potentials.items():
                assert np.array_equal(X.matrix, X.matrix.conj().T), (state.step, iv)

    def test_unperturbed_spectrum_binomial(self):
        N = 5
        iv, mat = random_bulk_perturbation(N, seed=1)
        model = kit.build_kitaev_model(N, beta=0.0, perturbations=[(iv, mat)])
        bulk, _ = kit.regroup_perturbations(model.N, model.perturbations)
        chain = kit.restricted_chain_model(model.N, bulk, beta=0.0)
        ev = ed_spectrum(chain)
        from math import comb
        expected = sorted(-(N - 1) + 2 * m for m in range(N) for _ in range(comb(N - 1, m)))
        np.testing.assert_allclose(ev, expected, atol=1e-9)

    def test_unperturbed_ground_and_gap(self):
        N = 4
        iv, mat = random_bulk_perturbation(N, seed=2)
        bulk, _ = kit.regroup_perturbations(
            N, kit.build_kitaev_model(N, 0.0, [(iv, mat)]).perturbations)
        chain = kit.restricted_chain_model(N, bulk, beta=0.0)
        ev = ed_spectrum(chain)
        assert ev[0] == pytest.approx(-3.0, abs=1e-12)
        assert ev[1] - ev[0] == pytest.approx(2.0, abs=1e-12)

    def test_restriction_reproduces_full_sector(self):
        # oracle: project the full Hamiltonian onto the zero-mode vacuum
        # sector and compare spectra
        N = 5
        beta = 0.01
        iv, mat = random_bulk_perturbation(N, seed=3)
        bulk, _ = kit.regroup_perturbations(
            N, kit.build_kitaev_model(N, beta, [(iv, mat)]).perturbations)
        chain = kit.restricted_chain_model(N, bulk, beta)
        R = kit.zero_sector_basis(N)
        H = perturbed_full_hamiltonian(N, bulk, beta)
        np.testing.assert_allclose(
            ed_spectrum(chain), np.linalg.eigvalsh(R.conj().T @ H @ R), atol=1e-10
        )

    def test_interactions_match_whole_basis_products(self):
        # reference: each R^dag W R from the whole zero-sector basis of the
        # chain, not from the term's frame nor from parity blocks
        N, beta = 6, 0.02
        perts = [random_bulk_perturbation(N, seed=s, site=s + 2) for s in range(3)]
        bulk, _ = kit.regroup_perturbations(
            N, kit.build_kitaev_model(N, beta, perts).perturbations)
        chain = kit.restricted_chain_model(N, bulk, beta)
        want = full_basis_restriction(N, bulk)
        scale = max(1.0, *(np.max(np.abs(np.linalg.eigvalsh(m))) for m in want.values()))
        assert chain.t == pytest.approx(beta * scale, rel=1e-14)
        assert set(chain.interactions) == set(want)
        for iv, op in chain.interactions.items():
            assert np.max(np.abs(op.matrix - want[iv] / scale)) <= 1e-14

    def test_interaction_norms_at_most_one(self):
        N = 6
        perts = [random_bulk_perturbation(N, seed=s, site=s + 2) for s in range(2)]
        bulk, _ = kit.regroup_perturbations(
            N, kit.build_kitaev_model(N, 0.02, perts).perturbations)
        chain = kit.restricted_chain_model(N, bulk, beta=0.02)
        for op in chain.interactions.values():
            assert np.max(np.abs(np.linalg.eigvalsh(op.matrix))) <= 1.0 + 1e-12

    def test_certified_gap_with_perturbation(self):
        N = 5
        beta = 0.01
        iv, mat = random_bulk_perturbation(N, seed=4)
        bulk, _ = kit.regroup_perturbations(
            N, kit.build_kitaev_model(N, beta, [(iv, mat)]).perturbations)
        chain = kit.restricted_chain_model(N, bulk, beta)
        fitted = BlockDiagonalizer().fit(chain)
        assert fitted.gap_ >= 1.0
        assert fitted.comparison_.spectrum_distance <= 1e-9
        assert fitted.comparison_.blockwise_match


class TestDoubling:
    def test_unperturbed(self):
        model = kit.build_kitaev_model(3, beta=0.0, perturbations=[])
        assert doubling_check(model)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_bulk_perturbation(self, seed):
        N = 4
        iv, mat = random_bulk_perturbation(N, seed=seed)
        model = kit.build_kitaev_model(N, beta=0.01, perturbations=[(iv, mat)])
        assert doubling_check(model)

    def test_zero_mode_term_breaks_doubling(self):
        # negative control: inject a term built from the zero mode directly
        # into the full side, next to the bulk term the chain restricts
        N = 4
        iv, mat = random_bulk_perturbation(N, seed=0)
        bulk = [(iv, keyed(mat))]
        chain = kit.restricted_chain_model(N, bulk, 0.3)
        assert kit.doubling_check_terms(pencil(N, bulk), 0.3, chain)
        dm = d_modes(kron_fermion_algebra(N))
        bad = (Interval(N - 1, 1), dm.ddag(0) @ dm.d[0])
        assert not kit.doubling_check_terms(pencil(N, bulk + [bad]), 0.3, chain)

    def test_full_spectrum_ground_degeneracy_two(self):
        from lieschwinger.oracle import degeneracy_of_spectrum
        N = 5
        iv, mat = random_bulk_perturbation(N, seed=8)
        bulk, _ = kit.regroup_perturbations(
            N, kit.build_kitaev_model(N, 0.01, [(iv, mat)]).perturbations)
        H = perturbed_full_hamiltonian(N, bulk, 0.01)
        assert degeneracy_of_spectrum(dense_spectrum(H)) == 2


class TestBoundary:
    def test_boundary_terms_split_pair_below_unit_gap(self):
        # edge terms couple the zero mode: the ground pair splits by O(beta)
        # while the rest stays an order-1 gap above
        N = 5
        beta = 0.01
        alg = kron_fermion_algebra(N)
        edge = alg.cdag(1) @ alg.c[0] + alg.cdag(N) @ alg.c[N - 1]
        hop = alg.cdag(1) @ alg.c[N - 1]
        perts = [
            random_bulk_perturbation(N, seed=9),
            (Interval(N - 1, 1), dense(edge + hop + hop.conj().T)),
        ]
        reduction = kit.build_kitaev_model(N, beta, perts).reduce()
        assert reduction.boundary
        splitting, gap_above = kit.boundary_gap_check(reduction.full, beta)
        assert splitting <= 4 * beta
        assert gap_above >= 1.0

    def test_without_boundary_terms_pair_is_degenerate(self):
        N = 4
        model = kit.build_kitaev_model(N, 0.01, [random_bulk_perturbation(N, seed=10)])
        splitting, gap_above = kit.boundary_gap_check(pencil(N, model.perturbations), 0.01)
        assert splitting <= 1e-9
        assert gap_above >= 1.0


def test_sweet_spot_required():
    with pytest.raises(ValidationError, match="sweet spot"):
        kit.build_kitaev_model(4, beta=0.01, perturbations=[], mu=0.5)
