import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import SX, kron_chain, orthogonal_complement_basis, random_hermitian
from lieschwinger.errors import EmbeddingError, GeneratorError, ValidationError
from lieschwinger.intervals import Interval
from lieschwinger.operators import (
    LocalOperator,
    build_projectors,
    cholesky_solver,
    conjugate_by_unitary,
    embed,
    excited_spectrum,
    op_norm,
    parity_blocks,
    parity_eigvalsh,
    parity_sectors,
    require_hermitian,
    rotation_factors,
    spectral_range,
    unitary_exp,
    vacuum_shifted,
    vector_norm,
)
from lieschwinger.sweep import vacuum_energy


class TestLocalOperator:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (2,), (2, 3)])
    def test_plain_constructor_takes_a_square_matrix_only(self, shape):
        with pytest.raises(ValidationError, match="square matrix"):
            LocalOperator(Interval(1, 1), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(4, 4), (3, 2, 2), (2, 2, 3)])
    def test_from_blocks_takes_two_square_blocks_only(self, shape):
        with pytest.raises(ValidationError, match="parity blocks"):
            LocalOperator.from_blocks(Interval(1, 1), np.zeros(shape))

    def test_from_blocks_keeps_the_full_size_and_builds_the_matrix(self):
        m = np.diag([0.0, 1.0, 2.0, 3.0]) + np.kron(SX, SX)
        op = LocalOperator.from_blocks(Interval(1, 1), parity_blocks(m))
        assert op.graded and op.dim == 4
        assert np.array_equal(op.matrix, m)


class TestEmbed:
    def test_identity_pads_to_identity(self):
        op = LocalOperator(Interval(0, 1), np.eye(2))
        out = embed(op, Interval(1, 1), M=2)
        np.testing.assert_allclose(out.matrix, np.eye(4))

    def test_onsite_into_pair(self):
        op = LocalOperator(Interval(0, 1), np.diag([0.0, 1.0]))
        out = embed(op, Interval(1, 1), M=2)
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 0.0, 1.0, 1.0]))

    def test_norm_preserved(self, rng):
        # oracle: extreme eigenvalues before and after embedding
        V = random_hermitian(rng, 4)
        op = LocalOperator(Interval(1, 2), V)
        out = embed(op, Interval(3, 1), M=2)
        lo, hi = np.linalg.eigvalsh(V)[[0, -1]]
        eo = np.linalg.eigvalsh(out.matrix)
        assert eo[0] == pytest.approx(lo, abs=1e-12)
        assert eo[-1] == pytest.approx(hi, abs=1e-12)
        assert op_norm(out) == pytest.approx(op_norm(op), abs=1e-12)

    def test_homomorphism(self, rng):
        target = Interval(2, 1)
        for sup in (Interval(0, 2), Interval(1, 1), Interval(1, 2), Interval(2, 1)):
            d = sup.dim(2)
            A = random_hermitian(rng, d)
            B = random_hermitian(rng, d)
            ea = embed(LocalOperator(sup, A), target, 2).matrix
            eb = embed(LocalOperator(sup, B), target, 2).matrix
            eab = embed(LocalOperator(sup, A @ B), target, 2).matrix
            eplus = embed(LocalOperator(sup, A + B), target, 2).matrix
            np.testing.assert_allclose(eab, ea @ eb, atol=1e-12)
            np.testing.assert_allclose(eplus, ea + eb, atol=1e-12)
            np.testing.assert_allclose(
                embed(LocalOperator(sup, A.conj().T), target, 2).matrix, ea.conj().T,
                atol=1e-12,
            )

    def test_rejects_bad_target(self):
        op = LocalOperator(Interval(1, 2), np.eye(4))
        with pytest.raises(EmbeddingError):
            embed(op, Interval(1, 3), M=2)
        # partial overlap on either side, and a disjoint target
        for target in (Interval(1, 1), Interval(2, 3), Interval(0, 5)):
            with pytest.raises(EmbeddingError, match="not contained"):
                embed(op, target, M=2)
            with pytest.raises(EmbeddingError, match="not contained"):
                embed(op, target, M=2, out=np.zeros((8, 8), dtype=complex))

    def test_rejects_accumulator_of_wrong_shape(self):
        op = LocalOperator(Interval(1, 2), np.eye(4))
        with pytest.raises(EmbeddingError, match="accumulator shape"):
            embed(op, Interval(2, 1), M=2, out=np.zeros((4, 4), dtype=complex))

    @settings(max_examples=60, deadline=None)
    @given(M=st.sampled_from([2, 3]), n_sites=st.integers(1, 4), q=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.one_of(st.floats(-2, 2), st.complex_numbers(max_magnitude=2,
                                                                allow_nan=False,
                                                                allow_infinity=False)))
    def test_matches_kron_padding_bitwise(self, M, n_sites, q, seed, scale):
        # reference: Kronecker padding, for every support placement in the
        # target, including both ends and the target itself (L = R = 1)
        target = Interval(n_sites - 1, q)
        rng = np.random.default_rng(seed)
        D = target.dim(M)
        for first in range(q, target.last + 1):
            for last in range(first, target.last + 1):
                sup = Interval(last - first, first)
                A = rng.normal(size=(sup.dim(M),) * 2) + 1j * rng.normal(size=(sup.dim(M),) * 2)
                ref = np.kron(np.kron(np.eye(M ** (first - q), dtype=complex), A),
                              np.eye(M ** (target.last - last), dtype=complex))
                op = LocalOperator(sup, A)
                assert np.array_equal(embed(op, target, M).matrix, ref)
                acc = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
                expected = acc + scale * ref
                assert embed(op, target, M, out=acc, scale=scale) is acc
                assert np.array_equal(acc, expected)


class TestOpNorm:
    def test_sigma_pair(self):
        assert op_norm(LocalOperator(Interval(1, 1), np.kron(SX, SX))) == pytest.approx(1.0)

    def test_zero(self):
        assert op_norm(LocalOperator(Interval(1, 1), np.zeros((4, 4)))) == 0.0

    def test_matches_largest_singular_value(self, rng):
        for _ in range(10):
            V = random_hermitian(rng, 6)
            sv = np.linalg.svd(V, compute_uv=False)
            assert op_norm(V) == pytest.approx(sv[0], rel=1e-12)

    def test_is_the_larger_end_of_the_spectral_range(self, rng):
        # the ledger reads both ends from one eigvalsh and must get op_norm's value
        for shift in (-3.0, 0.0, 3.0):
            V = random_hermitian(rng, 6) + shift * np.eye(6)
            lo, hi = spectral_range(V)
            evals = np.linalg.eigvalsh(V)
            assert (lo, hi) == (evals[0], evals[-1])
            assert op_norm(V) == float(np.max(np.abs(evals))) == max(abs(lo), abs(hi))

    def test_rejects_non_normal(self):
        with pytest.raises(ValidationError):
            op_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_antihermitian(self, rng):
        with pytest.raises(ValidationError, match="Hermitian matrices only"):
            op_norm(1j * random_hermitian(rng, 4))

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_is_a_validation_error(self, entry):
        # inf - inf in m - m^dag is nan: the rule fails it with no numpy
        # warning, dense or sparse
        m = np.diag([0.0, entry])
        with pytest.raises(ValidationError, match="Hermitian matrices only"):
            op_norm(m)
        with pytest.raises(ValidationError, match="not Hermitian"):
            require_hermitian(sparse.csr_matrix(m), "not Hermitian")

    def test_exactly_hermitian_input_equals_symmetrized_path(self, rng):
        # an exactly Hermitian matrix skips the symmetrized copy, which
        # would equal it bit for bit
        V = random_hermitian(rng, 16)
        assert np.array_equal(V, V.conj().T)
        assert op_norm(V) == float(np.max(np.abs(np.linalg.eigvalsh((V + V.conj().T) / 2))))


class TestCholeskySolver:
    @pytest.mark.parametrize("D", [1, 2, 3, 63, 64, 65, 243, 512])
    def test_matches_dense_solve(self, D):
        # tiles of 64: one partial tile, exact tiles, and one entry past them
        rng = np.random.default_rng(D)
        U, _ = np.linalg.qr(rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D)))
        A = (U * rng.uniform(0.5, 5.0, size=D)) @ U.conj().T
        A = (A + A.conj().T) / 2
        solve = cholesky_solver(A)
        for _ in range(3):
            u = rng.normal(size=D) + 1j * rng.normal(size=D)
            want = np.linalg.solve(A, u)
            assert np.linalg.norm(solve(u) - want) <= 1e-13 * np.linalg.norm(want)

    def test_indefinite_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_solver(np.diag([1.0, -1e-3, 2.0]).astype(complex))


class TestProjectors:
    def test_single_site(self):
        vac = build_projectors(Interval(0, 3), np.array([1.0, 0.0]))
        np.testing.assert_allclose(np.outer(vac, vac.conj()), np.diag([1.0, 0.0]))

    def test_ranks(self):
        vac = build_projectors(Interval(1, 1), np.array([1.0, 0.0]))
        assert np.linalg.matrix_rank(np.outer(vac, vac.conj())) == 1
        Qp = orthogonal_complement_basis(vac)
        assert np.linalg.matrix_rank(Qp @ Qp.conj().T) == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_pair_invariants_random_omega(self, seed):
        rng = np.random.default_rng(seed)
        omega = rng.normal(size=3) + 1j * rng.normal(size=3)
        vac = build_projectors(Interval(1, 1), omega)
        pm = np.outer(vac, vac.conj())
        Qp = orthogonal_complement_basis(vac)
        pp = Qp @ Qp.conj().T
        np.testing.assert_allclose(pm @ pm, pm, atol=1e-12)
        np.testing.assert_allclose(pp @ pp, pp, atol=1e-12)
        np.testing.assert_allclose(pm @ pp, np.zeros_like(pm), atol=1e-12)
        np.testing.assert_allclose(pm + pp, np.eye(9), atol=1e-12)
        np.testing.assert_allclose(pm, pm.conj().T, atol=1e-12)

    def test_plus_basis_spans_complement(self, rng):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        Q = orthogonal_complement_basis(v)
        np.testing.assert_allclose(Q.conj().T @ Q, np.eye(7), atol=1e-12)
        np.testing.assert_allclose(Q.conj().T @ (v / np.linalg.norm(v)),
                                   np.zeros(7), atol=1e-12)


class TestExcitedSpectrum:
    @settings(max_examples=60, deadline=None)
    @given(M=st.sampled_from([2, 3]), k=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
           E=st.floats(-3, 3), norm=st.floats(0.1, 10))
    def test_matches_householder_reference(self, M, k, seed, E, norm):
        # G block-diagonal for a complex product vacuum that is no basis
        # vector; reference: eigvalsh of G compressed to the Householder basis
        rng = np.random.default_rng(seed)
        omega = rng.normal(size=M) + 1j * rng.normal(size=M)
        vac = build_projectors(Interval(k, 1), omega)
        Qp = orthogonal_complement_basis(vac)
        G = E * np.outer(vac, vac.conj()) + Qp @ random_hermitian(rng, Qp.shape[1], norm) @ Qp.conj().T
        G = (G + G.conj().T) / 2
        ref = np.linalg.eigvalsh(Qp.conj().T @ G @ Qp)
        out = excited_spectrum(G, vac, vacuum_energy(G, vac))
        assert out.shape == (M ** (k + 1) - 1,)
        assert np.max(np.abs(out - ref)) <= 1e-13 * max(1.0, op_norm(G))

    @settings(max_examples=30, deadline=None)
    @given(M=st.sampled_from([2, 3]), k=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
           E=st.floats(-3, 3), norm=st.floats(0.1, 10))
    def test_vacuum_shift_moves_the_vacuum_to_c(self, M, k, seed, E, norm):
        # vac is an eigenvector of the shifted matrix at c = 1 + ||G||_inf,
        # its other eigenvalues are the excited spectrum, and the matrix is
        # G + (c - E) vac vac^dag to the last bit
        rng = np.random.default_rng(seed)
        omega = rng.normal(size=M) + 1j * rng.normal(size=M)
        vac = build_projectors(Interval(k, 1), omega)
        Qp = orthogonal_complement_basis(vac)
        G = E * np.outer(vac, vac.conj()) + Qp @ random_hermitian(rng, Qp.shape[1], norm) @ Qp.conj().T
        G = (G + G.conj().T) / 2
        E = vacuum_energy(G, vac)
        c = 1.0 + float(np.linalg.norm(G, np.inf))
        A = vacuum_shifted(G, vac, E)
        assert A.tobytes() == (G + (c - E) * np.outer(vac, vac.conj())).tobytes()
        assert np.max(np.abs(A @ vac - c * vac)) <= 1e-13 * c
        evals = parity_eigvalsh(A)
        assert evals[-1] == pytest.approx(c, rel=1e-13)
        assert np.array_equal(evals[:-1], excited_spectrum(G, vac, E))


def random_even_hermitian(rng, n):
    """Random Hermitian matrix on n qubits with every entry across the
    popcount-parity split exactly 0.0."""
    even, odd = parity_sectors(n)
    m = random_hermitian(rng, 2 ** n)
    m[np.ix_(even, odd)] = m[np.ix_(odd, even)] = 0.0
    return m


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The sizes that np.linalg.eigvalsh is called on, in order."""
    sizes, original = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes


class TestParityEigvalsh:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_even_matrix_matches_eigvalsh_from_two_blocks(self, n, eigvalsh_sizes):
        # from 32 up as two blocks; smaller sizes take one eigvalsh, bit for bit
        m = random_even_hermitian(np.random.default_rng(n), n)
        want = np.linalg.eigvalsh(m)
        eigvalsh_sizes.clear()
        got = parity_eigvalsh(m)
        if 2 ** n < 32:
            assert eigvalsh_sizes == [2 ** n] and np.array_equal(got, want)
            return
        assert eigvalsh_sizes == [2 ** (n - 1)] * 2
        assert np.all(np.diff(got) >= 0)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))

    @pytest.mark.parametrize("entry", [1.0, 1e-300])
    @pytest.mark.parametrize("where", [(0, 1), (3, 1)], ids=["row-0", "inner"])
    def test_one_cross_entry_falls_back_bit_identically(self, entry, where, eigvalsh_sizes):
        # index 0 and 3 are even, index 1 odd: (3, 1) passes the row-0 look
        m = random_even_hermitian(np.random.default_rng(7), 5)
        m[where] = entry
        m[where[::-1]] = entry
        want = np.linalg.eigvalsh(m)
        eigvalsh_sizes.clear()
        assert np.array_equal(parity_eigvalsh(m), want)
        assert eigvalsh_sizes == [32]

    @pytest.mark.parametrize("D", [1, 3, 6, 9, 27])
    def test_size_not_a_power_of_two_takes_one_eigvalsh(self, D):
        m = random_hermitian(np.random.default_rng(D), D)
        assert np.array_equal(parity_eigvalsh(m), np.linalg.eigvalsh(m))

    @pytest.mark.parametrize("vac_index", [0, 5], ids=["even-vacuum", "odd-vacuum"])
    def test_excited_spectrum_with_a_basis_vacuum_in_either_sector(self, vac_index,
                                                                    eigvalsh_sizes):
        # G even and block-diagonal for a basis vacuum; reference: eigvalsh
        # of G with the vacuum's row and column deleted
        n, E = 6, -2.5
        G = random_even_hermitian(np.random.default_rng(vac_index), n)
        G[vac_index, :] = G[:, vac_index] = 0.0
        G[vac_index, vac_index] = E
        vac = np.zeros(2 ** n, dtype=complex)
        vac[vac_index] = 1.0
        rest = np.delete(np.arange(2 ** n), vac_index)
        want = np.linalg.eigvalsh(G[np.ix_(rest, rest)])
        eigvalsh_sizes.clear()
        got = excited_spectrum(G, vac, vacuum_energy(G, vac))
        assert eigvalsh_sizes == [2 ** (n - 1)] * 2
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, op_norm(G))

    def test_excited_spectrum_with_a_non_basis_vacuum(self, eigvalsh_sizes):
        # a vacuum across both sectors makes the shifted matrix odd: one
        # eigvalsh of the whole matrix, against the Householder reference
        rng = np.random.default_rng(11)
        n = 4
        vac = build_projectors(Interval(n - 1, 1), rng.normal(size=2) + 1j * rng.normal(size=2))
        Qp = orthogonal_complement_basis(vac)
        G = -1.0 * np.outer(vac, vac.conj()) + Qp @ random_hermitian(rng, 2 ** n - 1) @ Qp.conj().T
        G = (G + G.conj().T) / 2
        want = np.linalg.eigvalsh(Qp.conj().T @ G @ Qp)
        eigvalsh_sizes.clear()
        got = excited_spectrum(G, vac, vacuum_energy(G, vac))
        assert eigvalsh_sizes == [2 ** n]
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, op_norm(G))

    def test_excited_spectrum_keeps_the_other_block_above_the_shifted_level(self):
        # the vacuum's block diag(0, 4) shifts its vacuum level to
        # c = 1 + 4 = 5, below the other block's top eigenvalue 6: only the
        # shifted level is dropped, and 6 stays excited
        G_v, rest = np.diag([0.0, 4.0]).astype(complex), np.diag([6.0, 2.0]).astype(complex)
        vac = np.array([1.0, 0.0], dtype=complex)
        assert np.array_equal(excited_spectrum(G_v, vac, 0.0, rest), [2.0, 4.0, 6.0])

    @pytest.mark.parametrize("n", [5, 8])
    def test_op_norm_of_an_even_matrix(self, n, eigvalsh_sizes):
        m = random_even_hermitian(np.random.default_rng(100 + n), n)
        want = float(np.linalg.svd(m, compute_uv=False)[0])
        eigvalsh_sizes.clear()
        assert op_norm(m) == pytest.approx(want, rel=1e-13)
        assert eigvalsh_sizes == [2 ** (n - 1)] * 2


class TestUnitaryExp:
    def test_exactly_unitary_exponential(self, rng):
        S = 1j * random_hermitian(rng, 6)
        U = unitary_exp(S)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(6), atol=1e-13)


def random_rotation(rng, d, theta):
    """A generator y vac^dag - vac y^dag: complex unit vac, y orthogonal to it, ||y|| = theta."""
    vac = rng.normal(size=d) + 1j * rng.normal(size=d)
    vac = vac / np.linalg.norm(vac)
    y = rng.normal(size=d) + 1j * rng.normal(size=d)
    y = y - vac * np.vdot(vac, y)
    return theta * y / np.linalg.norm(y), vac


def dense_conjugation(U, A, L, R):
    """kron(1_L, U, 1_R) A kron(1_L, U, 1_R)^dag."""
    U_J = np.kron(np.kron(np.eye(L), U), np.eye(R))
    return U_J @ A @ U_J.conj().T


class TestRotation:
    @pytest.mark.parametrize("theta", [0.0, 1e-9, 1e-3, 0.3, 2.0])
    def test_factors_reproduce_eigendecomposition_exponential(self, rng, theta):
        for d in (2, 4, 9, 27):
            y, vac = random_rotation(rng, d, theta)
            W, C = rotation_factors(y, vac)
            U = np.eye(d) + W @ C @ W.conj().T
            S = np.outer(y, vac.conj()) - np.outer(vac, y.conj())
            assert np.max(np.abs(U - unitary_exp(S))) <= 1e-13
            assert np.max(np.abs(U.conj().T @ U - np.eye(d))) <= 1e-14

    @pytest.mark.parametrize("M", [2, 3])
    def test_local_kernel_matches_embedded_conjugation(self, rng, M):
        # oracle: kron(1_L, U, 1_R) A kron(1_L, U, 1_R)^dag with U from the
        # eigendecomposition route, for every placement of the rotated sites
        # in J, at a small and a large angle; D = 256 and 243 span several
        # tiles of the Hermitian sum, the second with partial ones
        n_sites = {2: 8, 3: 5}[M]
        D = M ** n_sites
        A = random_hermitian(rng, D, norm=1.0)
        for theta in (1e-4, 2.5):
            for n_rot in range(1, n_sites + 1):
                for n_left in range(n_sites - n_rot + 1):
                    L, d = M ** n_left, M ** n_rot
                    y, vac = random_rotation(rng, d, theta)
                    U = unitary_exp(np.outer(y, vac.conj()) - np.outer(vac, y.conj()))
                    out = conjugate_by_unitary(A, *rotation_factors(y, vac), left=L)
                    ref = dense_conjugation(U, A, L, D // (L * d))
                    assert np.max(np.abs(out - ref)) <= 1e-13, (theta, L, d)
                    assert np.array_equal(out, out.conj().T)

    @pytest.mark.parametrize("scale", [1.0, -0.25])
    def test_rows_add_the_update_of_a_second_operator(self, rng, scale):
        # U A U^dag + (U X U^dag - X) / scale from the rows W'^dag X alone
        M, D = 2, 32
        A, X = random_hermitian(rng, D, norm=1.0), random_hermitian(rng, D, norm=1.0)
        for L, d in ((1, 4), (2, 8), (8, 4), (1, 32)):
            R = D // (L * d)
            y, vac = random_rotation(rng, d, 0.7)
            W, C = rotation_factors(y, vac)
            U = unitary_exp(np.outer(y, vac.conj()) - np.outer(vac, y.conj()))
            W_J = np.kron(np.kron(np.eye(L), W), np.eye(R))
            out = conjugate_by_unitary(A, W, C, L, rows=W_J.conj().T @ X, rows_scale=scale)
            ref = dense_conjugation(U, A, L, R) + (dense_conjugation(U, X, L, R) - X) / scale
            assert np.max(np.abs(out - ref)) <= 1e-13, (L, d)
            assert np.array_equal(out, out.conj().T)

    @pytest.mark.parametrize("L,d,R", [(1, 4, 1), (1, 4, 128), (2, 4, 16), (4, 16, 8),
                                       (1, 256, 2), (8, 8, 4), (3, 9, 3)])
    def test_zero_view_conjugates_as_a_zero_matrix(self, rng, L, d, R):
        # a created potential starts from a read-only zero view; with and
        # without rows, the result equals that of np.zeros to the last bit
        D = L * d * R
        y, vac = random_rotation(rng, d, 0.7)
        W, C = rotation_factors(y, vac)
        W_J = np.kron(np.kron(np.eye(L), W), np.eye(R))
        rows = W_J.conj().T @ random_hermitian(rng, D, norm=1.0)
        view = np.broadcast_to(0j, (D, D))
        for extra in (None, rows):
            out = conjugate_by_unitary(view, W, C, L, rows=extra)
            ref = conjugate_by_unitary(np.zeros((D, D), dtype=complex), W, C, L, rows=extra)
            assert out.tobytes() == ref.tobytes(), (L, d, R, extra is None)

    @pytest.mark.parametrize("exponent", [0, -600, -900, -1060])
    def test_tiny_generator_keeps_its_norm_and_direction(self, rng, exponent):
        # 2**-600 y: the squares of its entries underflow; 2**-1060 y: the
        # entries themselves are subnormal
        y, vac = random_rotation(rng, 8, 0.3)
        tiny = np.ldexp(y.real, exponent) + 1j * np.ldexp(y.imag, exponent)
        W, C = rotation_factors(tiny, vac)
        theta = vector_norm(tiny)
        assert theta > 0.0 and C[1, 0] == np.sin(theta)
        if exponent >= -900:  # normal range: bit-identical to the unscaled norm
            assert theta == np.ldexp(np.linalg.norm(y), exponent)
            assert np.array_equal(W[:, 1], y / np.linalg.norm(y))
        else:
            assert abs(np.linalg.norm(W[:, 1]) - 1.0) <= 1e-14

    def test_rejects_generator_not_orthogonal_to_vacuum(self, rng):
        y, vac = random_rotation(rng, 4, 0.5)
        A = random_hermitian(rng, 8)
        with pytest.raises(GeneratorError, match="vacuum rotation"):
            conjugate_by_unitary(A, *rotation_factors(y + 1e-3 * vac, vac), left=2)


def test_embedding_of_exponential_is_exponential_of_embedding(rng):
    # kron with identity commutes with the spectral calculus
    S = 1j * random_hermitian(rng, 4)
    op = LocalOperator(Interval(1, 1), S)
    lhs = embed(LocalOperator(Interval(1, 1), unitary_exp(S)), Interval(2, 1), 2).matrix
    rhs = unitary_exp(embed(op, Interval(2, 1), 2).matrix)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_kron_convention_site_one_most_significant():
    # |site1 digit, site2 digit> ordering: embedding diag(0,1) at site 1 acts
    # on the most significant digit
    op = LocalOperator(Interval(0, 1), np.diag([0.0, 1.0]))
    out = embed(op, Interval(1, 1), 2).matrix
    expected = kron_chain([np.diag([0.0, 1.0]), np.eye(2)])
    np.testing.assert_allclose(out, expected)
