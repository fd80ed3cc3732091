import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SX, kron_chain, random_hermitian
from lieschwinger.errors import EmbeddingError, GeneratorError, ValidationError
from lieschwinger.intervals import Interval
from lieschwinger.operators import (
    LocalOperator,
    build_projectors,
    conjugate_by_unitary,
    embed,
    op_norm,
    orthogonal_complement_basis,
    rotation_factors,
    unitary_exp,
)


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

    def test_antihermitian_supported(self, rng):
        V = random_hermitian(rng, 4)
        S = 1j * V
        sv = np.linalg.svd(S, compute_uv=False)
        assert op_norm(S) == pytest.approx(sv[0], rel=1e-12)

    def test_rejects_non_normal(self):
        with pytest.raises(ValidationError):
            op_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestProjectors:
    def test_single_site(self):
        pair = build_projectors(Interval(0, 3), np.array([1.0, 0.0]))
        np.testing.assert_allclose(np.outer(pair.vac, pair.vac.conj()), np.diag([1.0, 0.0]))

    def test_ranks(self):
        pair = build_projectors(Interval(1, 1), np.array([1.0, 0.0]))
        assert np.linalg.matrix_rank(np.outer(pair.vac, pair.vac.conj())) == 1
        assert np.linalg.matrix_rank(pair.plus_basis @ pair.plus_basis.conj().T) == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_pair_invariants_random_omega(self, seed):
        rng = np.random.default_rng(seed)
        omega = rng.normal(size=3) + 1j * rng.normal(size=3)
        pair = build_projectors(Interval(1, 1), omega)
        pm = np.outer(pair.vac, pair.vac.conj())
        pp = pair.plus_basis @ pair.plus_basis.conj().T
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
        # oracle: embed exp(S) into J, then two dense products
        J = Interval(3, 1)
        A = random_hermitian(rng, J.dim(M), norm=1.0)
        # step interval at the left end of J, the right end, and inside it
        for I in (Interval(1, 1), Interval(1, 3), Interval(1, 2), Interval(0, 3)):
            y, vac = random_rotation(rng, I.dim(M), 0.4)
            S = np.outer(y, vac.conj()) - np.outer(vac, y.conj())
            UJ = embed(LocalOperator(I, unitary_exp(S)), J, M).matrix
            dense = UJ @ A @ UJ.conj().T
            dense = (dense + dense.conj().T) / 2
            out = conjugate_by_unitary(A, *rotation_factors(y, vac), left=M ** (I.q - J.q))
            assert np.max(np.abs(out - dense)) <= 1e-13
            assert np.array_equal(out, out.conj().T)

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
