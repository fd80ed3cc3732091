import json
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from conftest import (csr, d_modes, dense, dense_spectrum, dense_zero_sector_basis, doubling_check,
                      full_basis_restriction, keyed, kitaev_bdg_levels, kitaev_spectrum_expected,
                      kron_fermion_algebra, majoranas, pencil, perturbed_full_hamiltonian,
                      quadratic_kitaev_block, random_bulk_perturbation,
                      sparse_perturbation_matrix, sparse_zero_sector_basis)
from lieschwinger import kitaev as kit
from lieschwinger import oracle as oracle_module
from lieschwinger.cli import load_model, main
from lieschwinger.errors import ValidationError
from lieschwinger.estimator import BlockDiagonalizer
from lieschwinger.intervals import Interval, iter_steps
from lieschwinger.model import validate_chain_model
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

    @pytest.mark.parametrize("site", [3.0, "3", True], ids=repr)
    def test_fermion_sites_must_be_integers(self, site):
        # a bool is an int to Python, but True is no site
        terms = [{"coeff": [0.5, 0.0], "ops": [("cdag", site), ("c", 3)]}]
        with pytest.raises(ValidationError,
                           match=re.escape(f"perturbation on [2, 3]: fermion site {site!r} must")):
            kit.local_perturbation(Interval(1, 2), terms, 5)
        # a numpy integer is a site
        ints = [dense(kit.local_perturbation(Interval(1, 2), [
            {"coeff": [0.5, 0.0], "ops": [("cdag", i), ("c", 3)]}], 5)) for i in (3, np.int64(3))]
        assert np.array_equal(*ints)


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


def checked_at(reduction, beta):
    """``reduction.at(beta)``, then the doubling check on the restricted
    spectrum that the oracle computes (``ed_spectrum``, as in ``compare``),
    as a run under the default oracle takes them."""
    chain, block = reduction.at(beta)
    assert block["doubling_ok"] is None
    reduction.check_doubling(block, ed_spectrum(chain))
    return chain, block


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
            chain, block = checked_at(reduction, beta)
            full = dense_spectrum(perturbed_full_hamiltonian(N, bulk, beta))
            restricted = np.linalg.eigvalsh(assemble_direct(chain))
            assert block["doubling_ok"] is reference_doubling_ok(full, restricted) is True
            want = dense_spectrum(perturbed_full_hamiltonian(N, everything, beta))
            assert abs(block["boundary_splitting"] - (want[1] - want[0])) <= 1e-12
            assert abs(block["boundary_gap_above_pair"] - (want[2] - want[1])) <= 1e-12

    def test_a_coupling_embeds_nothing(self, monkeypatch):
        # the pencils are built on first read, each term embedded once per
        # file; past the first coupling, a coupling embeds nothing
        reduction = kit.build_kitaev_model(7, 0.01, bond_perturbations(7, seed=0)).reduce()
        embed, embedded = kit.embed, []

        def counted(op, iv, N):
            embedded.append(iv)
            return embed(op, iv, N)

        monkeypatch.setattr(kit, "embed", counted)
        for beta in COUPLINGS:
            _, block = checked_at(reduction, beta)
            assert block["doubling_ok"] is True
            # H0's six bonds and every term, all on the first coupling
            assert len(embedded) == 6 + len(reduction.bulk) + len(reduction.boundary) == 11

    def test_cli_run_builds_no_algebra_past_a_frame(self, tmp_path, monkeypatch):
        # bond terms (k = 1) of a 9-site file: no fermion factor is read on
        # more than the k+3 = 4 sites of a frame, at load, at reduction or
        # per coupling, but the zero mode's Majoranas on sites 1 and N, and
        # those once per pencil: two pencils of eight monomials each
        follow, wide = kit._follow, []

        def frame_sized(ops, n, first):
            if n > 4:
                if len(ops) > 2 or not {site for _, site in ops} <= {1, n}:
                    raise AssertionError(f"fermion factors {ops} read on {n} sites")
                wide.append(ops)
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
        assert len(wide) == 2 * 8


def end_terms(N, rng, ends):
    """Random even terms on every bulk bond (every bulk site at N = 3) and
    on the boundary bonds [1, 2] ("left") and [N-1, N] ("right") named in
    ``ends``, each parsed on its own sites."""
    supports = [Interval(1, q) for q in range(2, N - 1)] or [Interval(0, 2)]
    supports += [Interval(1, q) for end, q in (("left", 1), ("right", N - 1)) if end in ends]
    return [(iv, kit.local_perturbation(iv, random_even_terms(rng, iv), N)) for iv in supports]


def two_block_spectrum(H):
    """Ascending spectrum of a dense even H, one eigvalsh per parity block:
    the reference for every path of ``SectorPencil.spectrum``."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(H[np.ix_(idx, idx)])
                                   for idx in popcount_sectors(H.shape[0].bit_length() - 1)]))


def recorded_eigvalsh_sizes(monkeypatch):
    """Patch np.linalg.eigvalsh to record the size of each matrix it gets."""
    eigvalsh, sizes = np.linalg.eigvalsh, []

    def recorded(m, *args, **kwargs):
        sizes.append(m.shape[0])
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return sizes


ENDS = {"bulk": ((), True, True), "left": (("left",), True, False),
        "right": (("right",), True, False), "both-ends": (("left", "right"), False, False)}


class TestZeroModeSectors:
    """gamma_(A,1) and gamma_(B,N) appear in no term away from their end, so
    ``SectorPencil`` diagonalizes only the sectors they leave distinct."""

    @pytest.mark.parametrize("N", range(3, 10))
    def test_flips_are_the_zero_mode_majoranas(self, N):
        # gamma_(B,N), i gamma_(A,1) and i gamma_(A,1) gamma_(B,N), entry for entry
        gA, gB = majoranas(kron_fermion_algebra(N))
        want = (gB[-1], 1j * gA[0], 1j * gA[0] @ gB[-1])
        for (m, g), ref in zip(kit._zero_mode_flips(N), want):
            assert np.array_equal(dense(kit.FlipOperator(np.array([m]), g[None])), dense(ref))

    @pytest.mark.parametrize("N", range(3, 10))
    def test_key_commutation_is_the_dense_commutator(self, N):
        # H0, the bulk terms and each end's terms: _commutes is True exactly
        # where the dense commutator with the flip is zero, and H0 and the
        # bulk commute with all three
        rng = np.random.default_rng(N)
        flips = kit._zero_mode_flips(N)
        ops = {"H0": kit.kitaev_hamiltonian(N)}
        for name, (ends, _, _) in ENDS.items():
            ops[name] = kit._summed([kit.embed(mat, iv, N) for iv, mat in end_terms(N, rng, ends)],
                                    2 ** N)
        for name, op in ops.items():
            got = [kit._commutes(op, *flip) for flip in flips]
            W = dense(op)
            want = []
            for m, g in flips:
                F = dense(kit.FlipOperator(np.array([m]), g[None]))
                want.append(not np.any(W @ F - F @ W))
            assert got == want, name
            if name in ("H0", "bulk"):
                assert got == [True, True, True], name
        assert [kit._commutes(ops["left"], *flip) for flip in flips] == [True, False, False]
        assert [kit._commutes(ops["right"], *flip) for flip in flips] == [False, True, False]
        assert [kit._commutes(ops["both-ends"], *flip) for flip in flips] == [False, False, False]

    @pytest.mark.parametrize("case", list(ENDS))
    @pytest.mark.parametrize("N", range(3, 10))
    def test_spectrum_matches_the_two_block_reference(self, N, case):
        ends, majorana, zero_parity = ENDS[case]
        terms = end_terms(N, np.random.default_rng(N), ends)
        p = pencil(N, terms)
        assert (p.majorana, p.zero_parity) == (majorana, zero_parity)
        for beta in (0.01, 0.3):
            want = two_block_spectrum(perturbed_full_hamiltonian(N, terms, beta))
            assert np.max(np.abs(p.spectrum(beta) - want)) <= 1e-12 * max(1.0, abs(want).max())

    @pytest.mark.parametrize("N", [4, 7])
    def test_one_changed_entry_takes_the_two_block_path(self, N, monkeypatch):
        # a bulk-only pencil, with one diagonal entry of X moved: still even
        # and Hermitian, but no zero-mode flip commutes with it any more
        terms = end_terms(N, np.random.default_rng(N), ())
        X = dense(pencil(N, terms).X)
        X[5, 5] += 0.25
        p = kit.SectorPencil(kit.kitaev_hamiltonian(N), keyed(X))
        assert (p.majorana, p.zero_parity) == (False, False)
        sizes = recorded_eigvalsh_sizes(monkeypatch)
        got = p.spectrum(0.1)
        assert sizes == [2 ** (N - 1)] * 2
        want = two_block_spectrum(dense(kit.kitaev_hamiltonian(N)) + 0.1 * X)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, abs(want).max())

    @pytest.mark.parametrize("N", [4, 7])
    def test_the_zero_mode_parity_alone_halves_both_blocks(self, N, monkeypatch):
        # X = d^dag_0 d_0, a function of i gamma_(A,1) gamma_(B,N) that
        # anticommutes with each Majorana: four halves, none doubled
        dm = d_modes(kron_fermion_algebra(N))
        X = dense(dm.ddag(0) @ dm.d[0])
        p = kit.SectorPencil(kit.kitaev_hamiltonian(N), keyed(X))
        assert (p.majorana, p.zero_parity) == (False, True)
        sizes = recorded_eigvalsh_sizes(monkeypatch)
        got = p.spectrum(0.3)
        assert sizes == [2 ** (N - 2)] * 4
        want = two_block_spectrum(dense(kit.kitaev_hamiltonian(N)) + 0.3 * X)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, abs(want).max())

    def test_one_coupling_diagonalizes_one_block_and_two_halves(self, monkeypatch):
        # a kitaev_tsweep-shaped file at N = 9, bond terms on [2, 3]..[7, 8]
        # and [1, 2]: the boundary check diagonalizes the even block alone
        # (256), the doubling check the two halves of the bulk's (128 each),
        # besides what validating the restricted chain takes
        reduction = kit.build_kitaev_model(9, 0.01, bond_perturbations(9, seed=0)).reduce()
        beta = 0.04
        chain = replace(reduction.chain, t=beta * reduction.chain.seed_info["norm_scale"])
        restricted = ed_spectrum(chain)
        sizes = recorded_eigvalsh_sizes(monkeypatch)
        validate_chain_model(chain)
        chain_sizes = Counter(sizes)
        sizes.clear()
        _, block = reduction.at(beta)
        reduction.check_doubling(block, restricted)
        assert block["doubling_ok"] is True
        assert Counter(sizes) == chain_sizes + Counter({256: 1, 128: 2})

    def test_a_right_end_file_reports_an_exactly_degenerate_pair(self):
        reduction = load_model(CONFIGS / "kitaev_right_n7.json").reduce()
        assert (reduction.full.majorana, reduction.full.zero_parity) == (True, False)
        for beta in (0.01, 0.04):
            assert reduction.at(beta)[1]["boundary_splitting"] == 0.0


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
        restricted = ed_spectrum(chain)
        assert kit.doubling_check_terms(pencil(N, bulk), 0.3, restricted)
        dm = d_modes(kron_fermion_algebra(N))
        bad = (Interval(N - 1, 1), dm.ddag(0) @ dm.d[0])
        assert not kit.doubling_check_terms(pencil(N, bulk + [bad]), 0.3, restricted)

    def test_full_spectrum_ground_degeneracy_two(self):
        from lieschwinger.oracle import degeneracy_of_spectrum
        N = 5
        iv, mat = random_bulk_perturbation(N, seed=8)
        bulk, _ = kit.regroup_perturbations(
            N, kit.build_kitaev_model(N, 0.01, [(iv, mat)]).perturbations)
        H = perturbed_full_hamiltonian(N, bulk, 0.01)
        assert degeneracy_of_spectrum(dense_spectrum(H)) == 2


class TestDoublingIsOracleWork:
    """The doubling check reads the spectrum that ``compare`` computes, so it
    runs once the fit has reached the oracle, and only then."""

    @staticmethod
    def run(tmp_path, name, *flags):
        out = tmp_path / f"{name}{len(flags)}.json"
        code = main(["--config", str(CONFIGS / f"{name}.json"), *flags, "--report", str(out)])
        reports = json.loads(out.read_text())
        return code, reports if isinstance(reports, list) else [reports]

    def test_the_restricted_chain_is_assembled_once_per_coupling(self, tmp_path, monkeypatch):
        assemble, calls = oracle_module.assemble_direct, []

        def counted(model):
            calls.append(model.N)
            return assemble(model)

        monkeypatch.setattr(oracle_module, "assemble_direct", counted)
        code, reports = self.run(tmp_path, "kitaev_n7", "--t-sweep", "0.005,0.01,0.02")
        assert code == 0
        assert calls == [6, 6, 6]
        assert [r["kitaev"]["doubling_ok"] for r in reports] == [True, True, True]

    def test_oracle_off_runs_no_exact_diagonalization(self, tmp_path, monkeypatch):
        code, (default,) = self.run(tmp_path, "kitaev_n6")
        assert code == 0 and default["kitaev"]["boundary_terms"] == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("an exact diagonalization ran under --oracle off")

        monkeypatch.setattr(kit.SectorPencil, "spectrum", forbidden)
        monkeypatch.setattr(oracle_module, "assemble_direct", forbidden)
        code, (off,) = self.run(tmp_path, "kitaev_n6", "--oracle", "off")
        assert code == 0
        assert off["status"] == "ok" and off["oracle"] is None and off["controls"]["oracle"] == "off"
        assert off["kitaev"]["doubling_ok"] is None
        assert off["gap_report"] == default["gap_report"]
        assert {**off["kitaev"], "doubling_ok": True} == default["kitaev"]

    @pytest.mark.parametrize("name,flags,built", [
        pytest.param("kitaev_n6", ("--oracle", "off"), (0, 0), id="bulk-only-oracle-off"),
        pytest.param("kitaev_n7", ("--oracle", "off"), (1, 1), id="boundary-oracle-off"),
        pytest.param("kitaev_n7", (), (1, 2), id="boundary"),
    ])
    def test_pencils_are_built_on_first_read(self, tmp_path, monkeypatch, name, flags, built):
        # (H0s, pencils) a sweep builds: H0 is shared, the boundary check
        # reads the full pencil at each coupling, the doubling check the
        # bulk one after the oracle, and a bulk-only file under --oracle off
        # forms no 2^N operator
        hamiltonian, sector_pencil, calls = kit.kitaev_hamiltonian, kit.SectorPencil, Counter()

        def counted_hamiltonian(N):
            calls["H0"] += 1
            return hamiltonian(N)

        def counted_pencil(H0, X):
            calls["pencil"] += 1
            return sector_pencil(H0, X)

        monkeypatch.setattr(kit, "kitaev_hamiltonian", counted_hamiltonian)
        monkeypatch.setattr(kit, "SectorPencil", counted_pencil)
        code, reports = self.run(tmp_path, name, "--t-sweep", "0.01,0.05", *flags)
        assert code == 0
        assert (calls["H0"], calls["pencil"]) == built
        for report in reports:
            assert report["status"] == "ok"
            assert (report["oracle"] is None) is bool(flags)
            assert report["kitaev"]["doubling_ok"] is (None if flags else True)

    def test_a_failed_sweep_reports_no_doubling_check(self, tmp_path):
        code, reports = self.run(tmp_path, "kitaev_n7", "--t-sweep", "0.005,0.01", "--gap-min", "5")
        assert code == 4
        for report in reports:
            assert report["status"] == "failed" and report["oracle"] is None
            assert report["kitaev"]["doubling_ok"] is None
            assert report["kitaev"]["boundary_terms"] == 1
            assert report["kitaev"]["boundary_gap_above_pair"] >= 1.0
            assert report["kitaev"]["boundary_splitting"] <= 0.1


class TestFreeFermionReference:
    """Quadratic Kitaev files against ``kitaev_bdg_levels``, one eigvalsh at 2N."""

    @pytest.mark.parametrize("far_end", [False, True], ids=["near-end", "both-ends"])
    @pytest.mark.parametrize("N", [6, 8, 10])
    def test_lowest_levels_and_boundary_fields_match(self, tmp_path, N, far_end):
        beta = 0.05
        block = quadratic_kitaev_block(N, beta, seed=N, far_end=far_end)
        path = tmp_path / "quadratic.json"
        path.write_text(json.dumps({"version": "1", "kitaev": block}))
        reduction = load_model(path).reduce()
        want = kitaev_bdg_levels(block, beta)
        assert np.max(np.abs(reduction.full.spectrum(beta)[:5] - want)) <= 1e-12
        _, fields = reduction.at(beta)
        assert abs(fields["boundary_splitting"] - (want[1] - want[0])) <= 1e-12
        assert abs(fields["boundary_gap_above_pair"] - (want[2] - want[1])) <= 1e-12
        if not far_end:
            # no term on site N: the Majorana gamma_(B,N) commutes with H, and
            # maps each parity sector's levels onto the other's
            assert fields["boundary_splitting"] <= 1e-12
            assert want[1] - want[0] <= 1e-12

    def test_the_committed_file_keeps_an_exact_zero_mode(self):
        block = json.loads((CONFIGS / "kitaev_quad_n8.json").read_text())["kitaev"]
        assert block == quadratic_kitaev_block(8, 0.05, seed=8)
        assert all(8 not in pert["support"] for pert in block["perturbations"])
        _, fields = load_model(CONFIGS / "kitaev_quad_n8.json").reduce().at()
        want = kitaev_bdg_levels(block, block["beta"])
        assert fields["boundary_splitting"] <= 1e-12
        assert abs(fields["boundary_gap_above_pair"] - (want[2] - want[1])) <= 1e-12


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
