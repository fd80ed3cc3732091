from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from conftest import doubling_check, kitaev_spectrum_expected, random_bulk_perturbation
from lieschwinger import kitaev as kit
from lieschwinger.cli import load_model
from lieschwinger.errors import ValidationError
from lieschwinger.estimator import BlockDiagonalizer
from lieschwinger.intervals import Interval, iter_steps
from lieschwinger.oracle import ed_spectrum
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
        alg = kit.fermion_algebra(N)
        assert car_defect(list(alg.c)) <= 1e-12
        dmodes = kit.d_mode_algebra(alg)
        assert car_defect(list(dmodes.d)) <= 1e-12

    def test_car_large_chain(self):
        alg = kit.fermion_algebra(10)
        dmodes = kit.d_mode_algebra(alg)
        assert car_defect(list(alg.c)) <= 1e-12
        assert car_defect(list(dmodes.d)) <= 1e-12

    @pytest.mark.parametrize("N", [3, 5, 10])
    def test_inversion_identities(self, N):
        alg = kit.fermion_algebra(N)
        dm = kit.d_mode_algebra(alg)
        for j in range(1, N):
            diff = alg.c[j - 1] - 0.5 * (dm.d[j] + dm.ddag(j) + dm.ddag(j - 1) - dm.d[j - 1])
            assert abs(diff.toarray()).max() <= 1e-12
        diff = alg.c[N - 1] - 0.5 * (dm.d[0] + dm.ddag(0) + dm.ddag(N - 1) - dm.d[N - 1])
        assert abs(diff.toarray()).max() <= 1e-12

    def test_zero_mode_wraparound_form(self):
        N = 4
        alg = kit.fermion_algebra(N)
        dm = kit.d_mode_algebra(alg)
        expected = 0.5 * (-alg.cdag(1) + alg.c[0] + alg.cdag(N) + alg.c[N - 1])
        assert abs((dm.ddag(0) - expected).toarray()).max() <= 1e-12


class TestSweetSpotHamiltonian:
    def test_two_sites(self):
        np.testing.assert_allclose(
            np.linalg.eigvalsh(kit.fermion_frame(2).H0), [-1, -1, 1, 1], atol=1e-12
        )

    def test_four_sites_multiplicities(self):
        ev = np.linalg.eigvalsh(kit.fermion_frame(4).H0)
        np.testing.assert_allclose(ev, kitaev_spectrum_expected(4), atol=1e-12)

    @pytest.mark.parametrize("N", range(2, 9))
    def test_spectrum_matches_doubled_binomials(self, N):
        ev = np.linalg.eigvalsh(kit.fermion_frame(N).H0)
        np.testing.assert_allclose(ev, kitaev_spectrum_expected(N), atol=1e-9)

    def test_quadratic_form_agrees_at_sweet_spot(self):
        # oracle: the hopping+pairing Hamiltonian assembled from fermion
        # bilinears directly in this test
        N = 5
        alg = kit.fermion_algebra(N)
        H = sparse.csr_matrix((alg.dim, alg.dim), dtype=complex)
        for j in range(1, N):
            hop = alg.cdag(j) @ alg.c[j]  # c^dag_j c_{j+1}
            pairing = alg.c[j - 1] @ alg.c[j]
            H = H - (hop + hop.conj().T + pairing + pairing.conj().T)
        np.testing.assert_allclose(H.toarray(), kit.fermion_frame(N).H0, atol=1e-12)


class TestRegrouping:
    def test_empty(self):
        model = kit.build_kitaev_model(kit.fermion_frame(5), beta=0.01, perturbations=[])
        bulk, boundary = kit.regroup_perturbations(model)
        assert bulk == [] and boundary == []

    def test_single_density_term(self):
        # c^dag_i c_i with interior i maps to d-sites {i-1, i, i+1} and
        # commutes with the zero mode
        N, i = 6, 3
        alg = kit.fermion_algebra(N)
        mat = alg.cdag(i) @ alg.c[i - 1]
        model = kit.build_kitaev_model(kit.fermion_frame(N), 0.01, [(Interval(0, i), mat)])
        bulk, boundary = kit.regroup_perturbations(model)
        assert boundary == []
        (iv, m), = bulk
        assert iv == Interval(1, i - 1)  # d-sites i-1..i (edge count 0+1)
        dm = kit.d_mode_algebra(alg)
        comm = m @ dm.d[0] - dm.d[0] @ m
        assert abs(comm.toarray()).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_bulk_commutes_with_zero_mode(self, seed):
        N = 6
        iv, mat = random_bulk_perturbation(N, seed=seed)
        model = kit.build_kitaev_model(kit.fermion_frame(N), 0.01, [(iv, mat)])
        bulk, boundary = kit.regroup_perturbations(model)
        assert boundary == []
        dm = kit.d_mode_algebra(kit.fermion_algebra(N))
        for _, m in bulk:
            assert abs((m @ dm.d[0] - dm.d[0] @ m).toarray()).max() <= 1e-12

    def test_edge_terms_classified_as_boundary(self):
        N = 5
        alg = kit.fermion_algebra(N)
        left = alg.cdag(1) @ alg.c[0]
        right = alg.cdag(N) @ alg.c[N - 1]
        model = kit.build_kitaev_model(
            kit.fermion_frame(N), 0.01, [(Interval(0, 1), left), (Interval(0, N), right)]
        )
        bulk, boundary = kit.regroup_perturbations(model)
        assert bulk == [] and len(boundary) == 2

    def test_odd_perturbation_rejected(self):
        N = 4
        alg = kit.fermion_algebra(N)
        odd = alg.c[1] + alg.cdag(2)
        with pytest.raises(ValidationError, match="even"):
            kit.build_kitaev_model(kit.fermion_frame(N), 0.01, [(Interval(0, 2), odd)])


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
        model = kit.build_kitaev_model(kit.fermion_frame(N), beta=0.0, perturbations=[(iv, mat)])
        bulk, _ = kit.regroup_perturbations(model)
        chain = kit.restricted_chain_model(model.frame, bulk, beta=0.0)
        ev = ed_spectrum(chain)
        from math import comb
        expected = sorted(-(N - 1) + 2 * m for m in range(N) for _ in range(comb(N - 1, m)))
        np.testing.assert_allclose(ev, expected, atol=1e-9)

    def test_unperturbed_ground_and_gap(self):
        N = 4
        iv, mat = random_bulk_perturbation(N, seed=2)
        frame = kit.fermion_frame(N)
        bulk, _ = kit.regroup_perturbations(kit.build_kitaev_model(frame, 0.0, [(iv, mat)]))
        chain = kit.restricted_chain_model(frame, bulk, beta=0.0)
        ev = ed_spectrum(chain)
        assert ev[0] == pytest.approx(-3.0, abs=1e-12)
        assert ev[1] - ev[0] == pytest.approx(2.0, abs=1e-12)

    def test_restriction_reproduces_full_sector(self):
        # oracle: project the full Hamiltonian onto the zero-mode vacuum
        # sector and compare spectra
        N = 5
        beta = 0.01
        iv, mat = random_bulk_perturbation(N, seed=3)
        frame = kit.fermion_frame(N)
        bulk, _ = kit.regroup_perturbations(kit.build_kitaev_model(frame, beta, [(iv, mat)]))
        chain = kit.restricted_chain_model(frame, bulk, beta)
        dm = kit.d_mode_algebra(kit.fermion_algebra(N))
        R = kit.zero_sector_basis(dm)
        H = kit.perturbed_full_hamiltonian(frame, bulk, beta)
        np.testing.assert_allclose(
            ed_spectrum(chain), np.linalg.eigvalsh(R.conj().T @ H @ R), atol=1e-10
        )

    def test_interaction_norms_at_most_one(self):
        N = 6
        perts = [random_bulk_perturbation(N, seed=s, site=s + 2) for s in range(2)]
        frame = kit.fermion_frame(N)
        bulk, _ = kit.regroup_perturbations(kit.build_kitaev_model(frame, 0.02, perts))
        chain = kit.restricted_chain_model(frame, bulk, beta=0.02)
        for op in chain.interactions.values():
            assert np.max(np.abs(np.linalg.eigvalsh(op.matrix))) <= 1.0 + 1e-12

    def test_certified_gap_with_perturbation(self):
        N = 5
        beta = 0.01
        iv, mat = random_bulk_perturbation(N, seed=4)
        frame = kit.fermion_frame(N)
        bulk, _ = kit.regroup_perturbations(kit.build_kitaev_model(frame, beta, [(iv, mat)]))
        chain = kit.restricted_chain_model(frame, bulk, beta)
        fitted = BlockDiagonalizer().fit(chain)
        assert fitted.gap_ >= 1.0
        assert fitted.comparison_.spectrum_distance <= 1e-9
        assert fitted.comparison_.blockwise_match


class TestDoubling:
    def test_unperturbed(self):
        model = kit.build_kitaev_model(kit.fermion_frame(3), beta=0.0, perturbations=[])
        assert doubling_check(model)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_bulk_perturbation(self, seed):
        N = 4
        iv, mat = random_bulk_perturbation(N, seed=seed)
        model = kit.build_kitaev_model(kit.fermion_frame(N), beta=0.01, perturbations=[(iv, mat)])
        assert doubling_check(model)

    def test_zero_mode_term_breaks_doubling(self):
        # negative control: inject a term built from the zero mode directly
        N = 4
        frame = kit.fermion_frame(N)
        bad = frame.modes.ddag(0) @ frame.modes.d[0]
        assert not kit.doubling_check_terms(frame, [(Interval(1, 1), bad)], beta=0.3)

    def test_full_spectrum_ground_degeneracy_two(self):
        from lieschwinger.oracle import degeneracy_of_spectrum
        N = 5
        iv, mat = random_bulk_perturbation(N, seed=8)
        frame = kit.fermion_frame(N)
        bulk, _ = kit.regroup_perturbations(kit.build_kitaev_model(frame, 0.01, [(iv, mat)]))
        H = kit.perturbed_full_hamiltonian(frame, bulk, 0.01)
        assert degeneracy_of_spectrum(np.linalg.eigvalsh(H)) == 2


class TestBoundary:
    def test_boundary_terms_split_pair_below_unit_gap(self):
        # edge terms couple the zero mode: the ground pair splits by O(beta)
        # while the rest stays an order-1 gap above
        N = 5
        beta = 0.01
        alg = kit.fermion_algebra(N)
        edge = alg.cdag(1) @ alg.c[0] + alg.cdag(N) @ alg.c[N - 1]
        hop = alg.cdag(1) @ alg.c[N - 1]
        perts = [
            random_bulk_perturbation(N, seed=9),
            (Interval(N - 1, 1), edge + hop + hop.conj().T),
        ]
        model = kit.build_kitaev_model(kit.fermion_frame(N), beta, perts)
        _, boundary = kit.regroup_perturbations(model)
        assert boundary
        splitting, gap_above = kit.boundary_gap_check(model)
        assert splitting <= 4 * beta
        assert gap_above >= 1.0

    def test_without_boundary_terms_pair_is_degenerate(self):
        N = 4
        model = kit.build_kitaev_model(
            kit.fermion_frame(N), 0.01, [random_bulk_perturbation(N, seed=10)]
        )
        splitting, gap_above = kit.boundary_gap_check(model)
        assert splitting <= 1e-9
        assert gap_above >= 1.0


def test_sweet_spot_required():
    with pytest.raises(ValidationError, match="sweet spot"):
        kit.build_kitaev_model(kit.fermion_frame(4), beta=0.01, perturbations=[], mu=0.5)
