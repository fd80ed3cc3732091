import dataclasses
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (SX, anchor_model, dense_generator, dense_generator_series,
                      ising_chain_model, kron_chain, looped_assemble_full,
                      looped_local_hamiltonian,
                      near_hermitian_chain_file, non_basis_vacuum_model,
                      one_table_generator_series, orthogonal_complement_basis, plus_block_eigh,
                      random_hermitian, run_series, s_term_norms, series_terms, state_before)
from lieschwinger.certify import certify
from lieschwinger.cli import load_model
from lieschwinger.errors import (DimensionError, GapError, OrderError, SeriesError,
                                 ValidationError)
from lieschwinger.estimator import BlockDiagonalizer
from lieschwinger.intervals import Interval, iter_steps
from lieschwinger.model import ChainModel, build_chain_model, random_chain_model
from lieschwinger.operators import (
    LocalOperator,
    build_projectors,
    embed,
    excited_spectrum,
    hermitian_defect,
    op_norm,
    parity_blocks,
    rotation_factors,
    unitary_exp,
    vacuum_part,
)
from lieschwinger.oracle import compare
from lieschwinger.sweep import (
    EXACT_DIM,
    BlockDiagState,
    _growth_sources,
    SeriesControls,
    advance,
    assemble_full,
    diagonalized_potential,
    initial_state,
    local_gap,
    local_hamiltonian,
    sweep,
    vacuum_energy,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def summed_diagonal_series(res, V, vac, t):
    """sum_j t^(j-1) D((V)_j), with D dropping the block off-diagonal parts."""
    out = np.zeros_like(V, dtype=complex)
    for j, X in enumerate(series_terms(res, V), start=1):
        u = X @ vac
        u = u - vac * (vac.conj() @ u)
        od = np.outer(u, vac.conj())
        out = out + t ** (j - 1) * (X - od - od.conj().T)
    return out


def plus_minus_block(vac, X):
    """P+ X P- with P- = vac vac^dag and P+ = 1 - P-."""
    pm = np.outer(vac, vac.conj())
    return (np.eye(pm.shape[0]) - pm) @ X @ pm


def anchor_pieces(t=0.1):
    """Local Hamiltonian, product vacuum, and interaction of the two-site anchor."""
    model = anchor_model(t)
    state = initial_state(model)
    I = Interval(1, 1)
    vac = build_projectors(I, model.omega)
    G = local_hamiltonian(state, model, I)
    V = state.potentials[I].matrix
    return model, state, I, G, vac, V


def gapped_local_problem(M, k, seed, E):
    """A complex non-basis product vacuum on Interval(k, 1), a local
    Hamiltonian G block-diagonal for it with vacuum energy E and gap at
    least 1, and a random Hermitian V of unit norm."""
    rng = np.random.default_rng(seed)
    omega = rng.normal(size=M) + 1j * rng.normal(size=M)
    vac = build_projectors(Interval(k, 1), omega)
    Qp = orthogonal_complement_basis(vac)
    U, _ = np.linalg.qr(rng.normal(size=(Qp.shape[1],) * 2)
                        + 1j * rng.normal(size=(Qp.shape[1],) * 2))
    H = (U * (E + 1.0 + rng.uniform(0.0, 3.0, size=Qp.shape[1]))) @ U.conj().T
    G = E * np.outer(vac, vac.conj()) + Qp @ H @ Qp.conj().T
    G = (G + G.conj().T) / 2
    return vac, G, random_hermitian(rng, G.shape[0], norm=1.0)


def vacuum_and_hamiltonian(rng, excited, E=0.0):
    """A random complex unit vacuum of dimension len(excited) + 1 and a
    Hermitian G with G vac = E vac and the spectrum ``excited`` on the
    complement of vac, in a random eigenbasis."""
    D = len(excited) + 1
    vac = rng.normal(size=D) + 1j * rng.normal(size=D)
    vac /= np.linalg.norm(vac)
    Qp = orthogonal_complement_basis(vac)
    U, _ = np.linalg.qr(rng.normal(size=(D - 1,) * 2) + 1j * rng.normal(size=(D - 1,) * 2))
    G = E * np.outer(vac, vac.conj()) + Qp @ ((U * excited) @ U.conj().T) @ Qp.conj().T
    return vac, (G + G.conj().T) / 2


def assert_matches_reference(reference, G, E, vac, V, t, controls=SeriesControls()):
    """generator_series (through ``run_series``) against a dense reference
    series: order, y, every (V)_j formed from the frame, and both norm
    lists to 1e-13.  The reference takes ||V|| exactly at order one, where
    generator_series bounds it, so the orders agreeing checks the order-one
    stop test."""
    res = run_series(G, E, vac, V, t, controls)
    order, y, v_terms, v_norms, s_norms = reference(G, E, vac, V, t, controls)
    assert res.order == order
    assert np.max(np.abs(res.y - y)) <= 1e-13
    terms = series_terms(res, V)
    assert len(terms) == len(v_terms)
    for X, ref in zip(terms, v_terms):
        assert np.max(np.abs(X - ref)) <= 1e-13
    np.testing.assert_allclose(res.v_term_norms, v_norms[1:], rtol=0, atol=1e-13)
    np.testing.assert_allclose(s_term_norms(res), s_norms, rtol=0, atol=1e-13)
    return res


class TestLocalHamiltonian:
    def test_single_edge_has_no_interactions(self):
        # on any coupling the one-edge local Hamiltonian is the two on-site terms
        model, state, I, G, vac, V = anchor_pieces(t=0.7)
        np.testing.assert_allclose(G.matrix, np.diag([0.0, 1.0, 1.0, 2.0]), atol=1e-15)

    def test_zero_coupling_eigenvalues_are_digit_sums(self):
        model = random_chain_model(4, 0.0, seed=5)
        I = Interval(2, 2)
        G = local_hamiltonian(state_before(model, I), model, I)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(G.matrix), sorted(a + b + c for a in (0, 1) for b in (0, 1) for c in (0, 1)),
            atol=1e-12,
        )

    def test_matches_brute_force_assembly(self):
        # oracle: direct 8x8 assembly by Kronecker products in this test
        t = 0.1
        model = build_chain_model(
            3, 2, np.diag([0.0, 1.0]),
            {Interval(1, 1): np.kron(SX, SX), Interval(1, 2): np.kron(SX, SX)}, t=t,
        )
        # complete the two k=1 steps so their potentials are block-diagonal
        state = initial_state(model)
        state = advance(state, model)
        state = advance(state, model)
        I = Interval(2, 1)
        G = local_hamiltonian(state, model, I)
        h = np.diag([0.0, 1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        brute = (kron_chain([h, eye, eye]) + kron_chain([eye, h, eye])
                 + kron_chain([eye, eye, h]))
        for iv in (Interval(1, 1), Interval(1, 2)):
            W = state.potentials[iv].matrix
            brute += t * (np.kron(W, eye) if iv.q == 1 else np.kron(eye, W))
        np.testing.assert_allclose(np.linalg.eigvalsh(G.matrix),
                                   np.linalg.eigvalsh(brute), atol=1e-12)

    def test_undiagonalized_subpotential_raises_order_error(self):
        # a hand-built state that claims the steps (1, 1) and (1, 2) but still
        # holds their potentials as given: the next step, (2, 1), is out of order
        model = non_basis_vacuum_model(3, 2, 1, 0.03, 0)
        state = BlockDiagState(Interval(1, 2), dict(model.interactions))
        with pytest.raises(OrderError, match="subinterval potentials"):
            advance(state, model)

    @pytest.mark.parametrize("N,step,named", [
        (3, Interval(2, 1), "[1, 2], [2, 3]"),
        (5, Interval(3, 1), "[1, 2], [2, 3], [3, 4], [1, 3], [2, 4]"),
    ])
    def test_a_swept_state_without_its_ledger_raises_order_error(self, N, step, named):
        # the same potentials the sweep holds before ``step``, every one of
        # them final, but with no ledger row: the order check reads the
        # ledger alone, never the potentials, and names every subinterval
        model = random_chain_model(N, 0.03, kbar=1, seed=N)
        state = state_before(model, step)
        advance(state, model)  # with its ledger the step runs
        bare = BlockDiagState(state.step, state.potentials)
        with pytest.raises(OrderError, match=re.escape(f"on {named} are not yet")):
            advance(bare, model)
        with pytest.raises(OrderError, match=re.escape(named)):
            local_hamiltonian(bare, model, step)


class TestVacuumEnergyAndGap:
    def test_zero_coupling(self):
        model, state, I, G, vac, V = anchor_pieces(t=0.0)
        E = vacuum_energy(G.matrix, vac)
        assert E == pytest.approx(0.0, abs=1e-14)
        assert local_gap(E, excited_spectrum(G.matrix, vac, E)) == pytest.approx(1.0, abs=1e-14)

    def test_sigma_interaction_has_zero_vacuum_diagonal(self):
        # <00| sx (x) sx |00> = 0, so adding it to G leaves E = 0
        t = 0.1
        G = LocalOperator(Interval(1, 1), np.diag([0.0, 1.0, 1.0, 2.0]) + t * np.kron(SX, SX))
        E = vacuum_energy(G.matrix, build_projectors(Interval(1, 1), np.array([1.0, 0.0])))
        assert E == pytest.approx(0.0, abs=1e-14)

    def test_vacuum_energy_matches_infspec_on_random_small_t(self, rng):
        for seed in range(5):
            model = random_chain_model(3, 1e-3, seed=seed)
            state = initial_state(model)
            I = Interval(1, 1)
            vac = build_projectors(I, model.omega)
            G = local_hamiltonian(state, model, I)
            E = vacuum_energy(G.matrix, vac)
            local_gap(E, excited_spectrum(G.matrix, vac, E))  # E is the ground energy
            assert E == pytest.approx(float(np.linalg.eigvalsh(G.matrix)[0]), abs=1e-10)

    def test_explicit_gap(self):
        G = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
        vac = build_projectors(Interval(1, 1), np.array([1.0, 0.0]))
        assert local_gap(0.0, excited_spectrum(G, vac, 0.0)) == pytest.approx(1.0)

    def test_anchor_gap_has_no_coupling_dependence(self):
        model, state, I, G, vac, V = anchor_pieces(t=0.1)
        E = vacuum_energy(G.matrix, vac)
        assert local_gap(E, excited_spectrum(G.matrix, vac, E)) == pytest.approx(1.0, abs=1e-14)

    def test_gap_below_threshold_aborts(self):
        G = np.diag([0.0, 0.3, 1.0, 2.0]).astype(complex)
        vac = build_projectors(Interval(1, 1), np.array([1.0, 0.0]))
        with pytest.raises(GapError, match="threshold"):
            local_gap(0.0, excited_spectrum(G, vac, 0.0), gap_min=0.5)

    def test_gap_assumption_violated_at_zero_threshold(self):
        # a degenerate vacuum passes gap_min = 0 but leaves no resolvent
        G = np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex)
        vac = build_projectors(Interval(1, 1), np.array([1.0, 0.0]))
        E = vacuum_energy(G, vac)
        with pytest.raises(GapError, match="reaches the vacuum energy") as info:
            local_gap(E, excited_spectrum(G, vac, E), gap_min=0.0)
        assert info.value.reason == "gap-assumption-violated"
        assert info.value.exit_code == 4

    def test_vacuum_not_ground_detected(self):
        # checked before the gap: at gap_min = -1 the gap of -0.5 would pass
        G = np.diag([0.0, -0.5, 1.0, 2.0]).astype(complex)
        vac = build_projectors(Interval(1, 1), np.array([1.0, 0.0]))
        E = vacuum_energy(G, vac)
        with pytest.raises(GapError, match="ground") as info:
            local_gap(E, excited_spectrum(G, vac, E), gap_min=-1.0)
        assert info.value.reason == "vacuum-not-ground" and info.value.value == 0.5


class TestGeneratorSeries:
    def test_block_diagonal_potential_gives_zero_generator(self, rng):
        model, state, I, G, vac, V = anchor_pieces()
        W = np.diag(rng.normal(size=4)).astype(complex)  # commutes with vac vac^dag
        res = run_series(G.matrix, 0.0, vac, W, 0.1, SeriesControls())
        assert not np.any(dense_generator(res))
        np.testing.assert_allclose(summed_diagonal_series(res, W, vac, 0.1), W, atol=1e-14)

    def test_anchor_first_order_generator(self):
        # hand evaluation: P+ V vac = |11>, (G - E)|11> = 2|11>,
        # so S_1 = (|11><00| - |00><11|)/2
        model, state, I, G, vac, V = anchor_pieces(t=1e-4)
        res = run_series(G.matrix, 0.0, vac, V, model.t, SeriesControls())
        S1 = np.zeros((4, 4), dtype=complex)
        S1[3, 0], S1[0, 3] = 0.5, -0.5
        np.testing.assert_allclose(dense_generator(res) / model.t, S1, atol=1e-7)

    def test_anchor_series_term_norms(self):
        # hand recursion on the {|00>,|11>} block gives ||(V)_j|| = 1, 1/2, 1/3
        # and ||S_j|| = 1/2, 0, 1/6 independent of the coupling
        model, state, I, G, vac, V = anchor_pieces(t=0.1)
        res = run_series(G.matrix, 0.0, vac, V, model.t, SeriesControls())
        assert op_norm(V) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(res.v_term_norms[:2], [0.5, 1.0 / 3.0], atol=1e-12)
        np.testing.assert_allclose(s_term_norms(res)[:3], [0.5, 0.0, 1.0 / 6.0], atol=1e-12)

    def test_anchor_generator_closed_form(self):
        # the summed series is the rotation angle arctan(t)/2 on the
        # {|00>,|11>} block, reproduced here from the 2x2 closed form
        t = 0.1
        model, state, I, G, vac, V = anchor_pieces(t)
        res = run_series(G.matrix, 0.0, vac, V, t, SeriesControls(jmax=60))
        theta = 0.5 * np.arctan(t)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 0], expected[0, 3] = theta, -theta
        np.testing.assert_allclose(dense_generator(res), expected, atol=1e-14)

    def test_generator_bound_from_gap(self):
        # ||S_j|| <= 2 ||(V)_j|| / gap, and gap = 1 here
        model, state, I, G, vac, V = anchor_pieces(t=0.01)
        res = run_series(G.matrix, 0.0, vac, V, model.t, SeriesControls())
        for vn, sn in zip((op_norm(V),) + res.v_term_norms, s_term_norms(res)):
            assert sn <= 2.0 * vn + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(M=st.sampled_from([2, 3]), k=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
           E=st.floats(-2, 2), t=st.floats(-0.05, 0.05))
    def test_matches_eigenbasis_resolvent(self, M, k, seed, E, t):
        # reference: each y_j from the eigendecomposition of the excited
        # block in the Householder basis, applied to the returned (V)_j
        vac, G, V = gapped_local_problem(M, k, seed, E)
        res = run_series(G, E, vac, V, t, SeriesControls())
        w, Z, Qp = plus_block_eigh(G, vac)

        def ref_y(X):
            u = X @ vac
            u = u - vac * (vac.conj() @ u)
            return Qp @ (Z @ ((Z.conj().T @ (Qp.conj().T @ u)) / (w - E)))

        terms = series_terms(res, V)
        y_ref = sum(t ** j * ref_y(X) for j, X in enumerate(terms, start=1))
        assert np.max(np.abs(res.y - y_ref)) <= 1e-13
        np.testing.assert_allclose(s_term_norms(res), [np.linalg.norm(ref_y(X)) for X in terms],
                                   rtol=0, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(M=st.sampled_from([2, 3]), k=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
           E=st.floats(-2, 2), t=st.floats(-0.05, 0.05))
    def test_matches_dense_two_table_reference(self, M, k, seed, E, t):
        # reference: dense S_j and two commutator tables, one for G and one for V
        vac, G, V = gapped_local_problem(M, k, seed, E)
        assert_matches_reference(dense_generator_series, G, E, vac, V, t)

    @settings(max_examples=40, deadline=None)
    @given(M=st.sampled_from([2, 3]), k=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
           E=st.floats(-2, 2), t=st.floats(-0.05, 0.05))
    def test_matches_one_table_reference(self, M, k, seed, E, t):
        # reference: the same table with dense D x D entries and a dense
        # op_norm per order
        vac, G, V = gapped_local_problem(M, k, seed, E)
        assert_matches_reference(one_table_generator_series, G, E, vac, V, t)

    @pytest.mark.parametrize("case", ["anchor", "block-diagonal", "basis-vacuum", "band-above",
                                      "band-below", "below-cutoff", "jmax-1"])
    def test_matches_one_table_reference_fixed_cases(self, case, rng):
        # the anchor has y_2 = 0 exactly, a block-diagonal V gives y = 0, and
        # a basis-vector vacuum makes G vac = E vac exactly: each leaves zero
        # or exactly dependent frame columns.  The other cases probe the
        # order-one stop test, which bounds ||V|| by ||V||_F from above and
        # by max(||V vac||, ||V||_F / 2) from below at D = 4
        model, state, I, G, vac, V = anchor_pieces(0.05)
        t, controls = 0.05, SeriesControls()
        if case == "block-diagonal":
            V = np.diag(rng.normal(size=4)).astype(complex)
        elif case == "basis-vacuum":
            V = random_hermitian(rng, 4, norm=1.0)
        elif case.startswith("band"):
            # V vac = 0 and ||V||_F = 1 leave |t| ||V|| in [0.75e-14, 1.5e-14],
            # across the cutoff 1e-14: ||V|| = 1/sqrt(2) is above it and
            # 1/sqrt(3) below, so only the exact norm decides
            V = np.zeros((4, 4), dtype=complex)
            if case == "band-above":
                V[1, 2] = V[2, 1] = 1 / np.sqrt(2)
            else:
                V[1:, 1:] = np.eye(3) / np.sqrt(3)
            t = 1.5e-14
        elif case == "below-cutoff":
            t = 1e-15  # |t| ||V||_F = 2e-15
        elif case == "jmax-1":
            # ||V vac|| and ||V||_F / 2 fall short of ||V|| for this V, so the
            # reported term is the exact one
            V = random_hermitian(rng, 4, norm=1.0)
            controls = SeriesControls(jmax=1)
            with pytest.raises(SeriesError) as info:
                run_series(G.matrix, 0.0, vac, V, t, controls)
            assert info.value.last_term_norm == abs(t) * op_norm(V)
            t = 1e-15  # below the cutoff the same controls converge at order one
        res = assert_matches_reference(one_table_generator_series, G.matrix, 0.0, vac, V, t,
                                       controls)
        if case == "anchor":
            assert s_term_norms(res)[1] == 0.0
        elif case == "block-diagonal":
            assert not np.any(res.y)
        elif case == "band-above":
            assert res.order == 2
        elif case in ("band-below", "below-cutoff", "jmax-1"):
            assert res.order == 1

    @pytest.mark.parametrize("M, kbar, N, t", [(2, 1, 6, 0.01), (3, 2, 4, 0.05)])
    def test_sweep_takes_no_dense_norm(self, monkeypatch, M, kbar, N, t):
        # on transport-like and series-like chains the bounds settle every
        # order-one stop test, so the sweep never calls op_norm
        def forbidden(*args, **kwargs):
            raise AssertionError("op_norm called in the sweep")

        monkeypatch.setattr("lieschwinger.sweep.op_norm", forbidden)
        model = random_chain_model(N, t, M=M, kbar=kbar, seed=0)
        state = sweep(model)
        assert len(state.diagnostics) == sum(1 for _ in iter_steps(N))
        assert max(d.series_order for d in state.diagnostics) >= 2

    def test_overflowing_powers_of_the_coupling(self, rng):
        # |t|^j overflows a float from j = 2 on: a block-diagonal potential
        # still gives the zero generator, and a generic one a SeriesError
        model, state, I, G, vac, V = anchor_pieces()
        W = np.diag(rng.normal(size=4)).astype(complex)
        res = run_series(G.matrix, 0.0, vac, W, 1e200, SeriesControls())
        assert res.order == 2 and not np.any(res.y)
        with pytest.raises(SeriesError, match="last term norm inf"):
            run_series(G.matrix, 0.0, vac, V, 1e200, SeriesControls())

    @pytest.mark.parametrize("D", [1, 2, 3, 63, 64, 65, 243, 512])
    def test_resolved_vectors_match_inverse(self, D):
        # reference: R = inv(G - E + vac vac^dag) applied to every series
        # term (V)_j, for a non-basis vacuum; each y_j is compared through y
        # and ||y_j||, relative to the vector R acts on (||R|| <= 2 here)
        rng = np.random.default_rng(D)
        E, t = -0.7, 0.03
        vac, G = vacuum_and_hamiltonian(rng, E + rng.uniform(0.5, 4.0, size=D - 1), E)
        V = random_hermitian(rng, D, norm=1.0)
        res = run_series(G, E, vac, V, t, SeriesControls())
        R = np.linalg.inv(G - E * np.eye(D) + np.outer(vac, vac.conj()))
        y_ref, scale = np.zeros(D, dtype=complex), 0.0
        for j, (X, norm) in enumerate(zip(series_terms(res, V), s_term_norms(res)), start=1):
            u = X @ vac
            u = u - vac * (vac.conj() @ u)
            x = R @ u
            y_j = x - vac * (vac.conj() @ x)
            assert abs(norm - np.linalg.norm(y_j)) <= 1e-13 * np.linalg.norm(X @ vac)
            y_ref += t ** j * y_j
            scale += abs(t) ** j * np.linalg.norm(X @ vac)
        assert D == 1 or res.order > 2
        assert np.linalg.norm(res.y - y_ref) <= 1e-13 * scale

    def test_indefinite_excited_block_raises_gap_error(self):
        vac = np.array([1.0, 0.0, 0.0], dtype=complex)
        G = np.diag([0.0, -1e-3, 2.0]).astype(complex)
        V = random_hermitian(np.random.default_rng(0), 3, norm=1.0)
        with pytest.raises(GapError, match="not positive definite") as info:
            run_series(G, 0.0, vac, V, 0.01, SeriesControls(), Interval(0, 1))
        assert info.value.reason == "gap-assumption-violated"
        assert info.value.step == Interval(0, 1)

    def test_rounding_level_gap_ends_in_gap_error(self):
        # gaps of 1e-18 to 1e-15 in a random eigenbasis: eigvalsh may still
        # report a positive gap, so local_gap at gap_min = 0 passes, while
        # the Cholesky factor of G - E + vac vac^dag fails.  Such a case
        # must end in GapError, never in LinAlgError; order one only
        # (t = 1e-16), so the reached cases stop there
        D, raised = 64, 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            excited = np.concatenate([[10 ** rng.uniform(-18, -15)], rng.uniform(1, 3, D - 2)])
            vac, G = vacuum_and_hamiltonian(rng, excited)
            E = vacuum_energy(G, vac)
            try:
                local_gap(E, excited_spectrum(G, vac, E), gap_min=0.0)
            except GapError:
                continue
            V = random_hermitian(rng, D, norm=1.0)
            try:
                run_series(G, E, vac, V, 1e-16, SeriesControls(gap_min=0.0))
            except GapError as err:
                assert err.reason == "gap-assumption-violated"
                raised += 1
        assert raised > 0

    def test_divergent_series_raises(self):
        model, state, I, G, vac, V = anchor_pieces(t=0.5)
        with pytest.raises(SeriesError, match="converge"):
            run_series(G.matrix, 0.0, vac, V, 0.5, SeriesControls())

    def test_overflowing_series_raises_series_error(self):
        # the frame's Gram matrix overflows at order one; eigvalsh on it
        # would end in LinAlgError instead
        G = np.diag([bin(i).count("1") for i in range(8)]).astype(complex)
        vac = build_projectors(Interval(2, 1), np.array([1.0, 0.0], dtype=complex))
        V = random_hermitian(np.random.default_rng(0), 8)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SeriesError) as info:
            run_series(G, 0.0, vac, 1e200 * V, 1.0, SeriesControls())
        assert info.value.last_term_norm == np.inf


class TestDiagonalizedPotential:
    def test_zero_generator_identity(self, rng):
        model, state, I, G, vac, V = anchor_pieces()
        W, C = rotation_factors(np.zeros(4), vac)
        out, residual = diagonalized_potential(G.matrix, V, W, C, 0.0, vac)
        np.testing.assert_array_equal(out, V)

    def test_anchor_vacuum_entry(self):
        # oracle: closed-form diagonalization of [[0, t], [t, 2]]
        t = 0.1
        model, state, I, G, vac, V = anchor_pieces(t)
        res = run_series(G.matrix, 0.0, vac, V, t, SeriesControls())
        out, residual = diagonalized_potential(G.matrix, V, *rotation_factors(res.y, vac), t, vac)
        assert out[0, 0].real == pytest.approx((1 - np.sqrt(1 + t * t)) / t, abs=1e-9)
        assert residual <= 1e-8
        assert op_norm(out) <= 2.0 * op_norm(V)

    def test_closed_form_matches_summed_diagonal_series(self):
        t = 0.01
        model, state, I, G, vac, V = anchor_pieces(t)
        res = run_series(G.matrix, 0.0, vac, V, t, SeriesControls())
        out, _ = diagonalized_potential(G.matrix, V, *rotation_factors(res.y, vac), t, vac)
        np.testing.assert_allclose(out, summed_diagonal_series(res, V, vac, t), atol=1e-10)


def _conjugated_full(state_before, model, S, interval):
    chain = Interval(model.N - 1, 1)
    U = embed(LocalOperator(interval, unitary_exp(S)), chain, model.M).matrix
    K = assemble_full(state_before, model).matrix
    return U @ K @ U.conj().T


class TestAdvance:
    def test_zero_coupling_is_noop(self):
        model = random_chain_model(4, 0.0, seed=2)
        state = initial_state(model)
        for _ in range(3):
            new = advance(state, model)
            assert new.potentials is state.potentials
            state = new

    def test_step_makes_potential_block_diagonal(self):
        model = random_chain_model(4, 1e-2, seed=3)
        state = advance(initial_state(model), model)
        I = Interval(1, 1)
        W = state.potentials[I].matrix
        assert np.linalg.norm(plus_minus_block(build_projectors(I, model.omega), W)) <= 1e-8

    def test_case_a_copies_are_same_objects(self):
        model = random_chain_model(5, 1e-2, seed=4)
        state = initial_state(model)
        untouched = Interval(1, 4)  # disjoint from the first step interval (1,1)
        before = state.potentials[untouched]
        after = advance(state, model).potentials[untouched]
        assert after is before

    def test_completed_potentials_never_change_again(self):
        model = random_chain_model(4, 1e-2, seed=6)
        state = initial_state(model)
        snapshots = {}
        for _ in range(6):  # all steps
            state = advance(state, model)
            iv = state.step
            if iv in state.potentials:
                snapshots.setdefault(iv, state.potentials[iv])
        for iv, op in snapshots.items():
            assert state.potentials[iv] is op

    def test_growth_creates_longer_intervals(self):
        model = random_chain_model(3, 1e-2, seed=7)
        state = initial_state(model)
        assert Interval(2, 1) not in state.potentials
        state = advance(state, model)
        assert Interval(2, 1) in state.potentials  # created by endpoint growth

    def test_piecewise_consistency_each_step(self):
        # after each step the reassembled pieces equal direct conjugation of
        # the previous full Hamiltonian by the embedded generator
        for N in (3, 4):
            model = random_chain_model(N, 1e-2, seed=N)
            state = initial_state(model)
            controls = SeriesControls()
            for _ in range(N * (N - 1) // 2):
                before = state
                state = advance(state, model, controls)
                I = state.step
                vac = build_projectors(I, model.omega)
                G = local_hamiltonian(before, model, I)
                E = vacuum_energy(G.matrix, vac)
                V = (before.potentials[I].matrix if I in before.potentials
                     else np.zeros((I.dim(2), I.dim(2)), dtype=complex))
                res = run_series(G.matrix, E, vac, V, model.t, controls)
                direct = _conjugated_full(before, model, dense_generator(res), I)
                np.testing.assert_allclose(assemble_full(state, model).matrix, direct, atol=1e-9)


def per_source_transport(state, model, controls):
    """Potentials on the intervals strictly containing the next step
    interval, transported one source at a time: each stored potential and
    each growth source is embedded and conjugated on its own by the dense
    kron(1_L, exp(S), 1_R), and the results are summed and re-symmetrized.
    Reference for ``advance``."""
    I = next(J for J in iter_steps(model.N) if state.step is None or J > state.step)
    vac = build_projectors(I, model.omega)
    G = local_hamiltonian(state, model, I).matrix
    E = vacuum_energy(G, vac)
    V = (state.potentials[I].matrix if I in state.potentials
         else np.zeros((I.dim(model.M),) * 2, dtype=complex))
    U = unitary_exp(dense_generator(run_series(G, E, vac, V, model.t, controls)))
    out = {}
    for J in iter_steps(model.N):
        if J == I or not J.contains(I):
            continue
        UJ = np.kron(np.kron(np.eye(model.M ** (I.q - J.q)), U),
                     np.eye(model.M ** (J.last - I.last)))
        acc = None
        if J in state.potentials:
            acc = UJ @ state.potentials[J].matrix @ UJ.conj().T
        for src in _growth_sources(I, J):
            if src in state.potentials:
                We = embed(state.potentials[src], J, model.M).matrix
                grown = UJ @ We @ UJ.conj().T - We
                acc = grown if acc is None else acc + grown
        if acc is not None:
            out[J] = (acc + acc.conj().T) / 2
    return out


def assert_transport_matches_reference(state, model, controls):
    """One ``advance`` against ``per_source_transport``; returns the new state."""
    expected = per_source_transport(state, model, controls)
    state = advance(state, model, controls)
    I = state.step
    containing = {J for J in state.potentials if J != I and J.contains(I)}
    assert containing == set(expected)
    for J, ref in expected.items():
        assert np.max(np.abs(state.potentials[J].matrix - ref)) <= 1e-13
    for op in state.potentials.values():
        assert np.array_equal(op.matrix, op.matrix.conj().T)
    return state


class TestTransport:
    @pytest.mark.parametrize("N,M,kbar", [(4, 2, 1), (5, 2, 2), (6, 2, 1), (6, 2, 2),
                                          (3, 3, 2), (4, 3, 1), (4, 3, 2), (5, 3, 2)])
    def test_single_conjugation_matches_per_source_reference(self, N, M, kbar):
        model = random_chain_model(N, 0.03, M=M, kbar=kbar, seed=N + 10 * M + 100 * kbar)
        controls = SeriesControls()
        state = initial_state(model)
        for _ in range(N * (N - 1) // 2):
            state = assert_transport_matches_reference(state, model, controls)

    # (step before I, stored supports): J has no potential of its own and is
    # created from its growth sources alone, which stick out to the right of
    # I = {1, 2} or {1, 2, 3}, or to the left of I = {2, 3} or {2, 3, 4},
    # over one or two shared sites
    @pytest.mark.parametrize("before,supports", [
        (None, [(1, 1), (1, 2)]),
        ((1, 3), [(2, 1), (2, 2), (1, 3)]),
        ((1, 1), [(1, 1), (1, 2)]),
        ((2, 1), [(2, 1), (2, 2), (1, 1)]),
    ], ids=["right-one-site", "right-two-sites", "left-one-site", "left-two-sites"])
    @pytest.mark.parametrize("M", [2, 3])
    def test_interval_created_from_sources_alone(self, before, supports, M):
        model = non_basis_vacuum_model(4, M, 2, 0.04, seed=M)
        state = BlockDiagState(before and Interval(*before),
                               {Interval(*iv): model.interactions[Interval(*iv)]
                                for iv in supports})
        stored = set(state.potentials)
        state = assert_transport_matches_reference(state, model, SeriesControls())
        assert set(state.potentials) - stored

    def test_near_hermitian_file_stays_exactly_hermitian_through_the_sweep(self, tmp_path):
        # the model stores its near-Hermitian interactions exactly Hermitian,
        # and no step adds an anti-Hermitian rounding part
        model = load_model(near_hermitian_chain_file(tmp_path / "near.json"))
        state = initial_state(model)
        for X in state.potentials.values():
            assert np.array_equal(X.matrix, X.matrix.conj().T)
        for _ in iter_steps(model.N):
            state = advance(state, model)
            for iv, X in state.potentials.items():
                assert np.array_equal(X.matrix, X.matrix.conj().T), (state.step, iv)


class TestSweep:
    def test_step_counts(self):
        for N, expected in ((2, 1), (5, 10)):
            model = random_chain_model(N, 1e-3, seed=N)
            final = sweep(model)
            assert len(final.diagnostics) == expected
            assert final.step == Interval(N - 1, 1)

    def test_anchor_ground_energy(self):
        model = anchor_model(0.1)
        final = sweep(model)
        K = assemble_full(final, model).matrix
        ground = vacuum_energy(K, build_projectors(Interval(1, 1), model.omega))
        assert ground == pytest.approx(1 - np.sqrt(1.01), abs=1e-10)

    def test_spectrum_preserved_across_sweep(self):
        model = random_chain_model(5, 1e-2, seed=9)
        ev0 = np.linalg.eigvalsh(assemble_full(initial_state(model), model).matrix)
        ev1 = np.linalg.eigvalsh(assemble_full(sweep(model), model).matrix)
        assert np.max(np.abs(ev0 - ev1)) <= 1e-9

    def test_all_completed_blocks_stay_block_diagonal(self):
        model = random_chain_model(4, 1e-2, seed=10)
        final = sweep(model)
        for iv, op in final.potentials.items():
            vac = build_projectors(iv, model.omega)
            assert np.linalg.norm(plus_minus_block(vac, op.matrix)) <= 1e-8

    def test_failed_sweep_reports_step_and_partial_state(self):
        model = anchor_model(0.5)
        with pytest.raises(SeriesError) as excinfo:
            sweep(model)
        assert excinfo.value.step == Interval(1, 1)
        assert excinfo.value.partial_state.step is None

    def test_replaced_onsite_matrix_carries_its_own_vacuum(self):
        # the vacuum is derived from the on-site matrix, so a model with a
        # replaced on-site matrix sweeps as one built with it
        base = random_chain_model(4, 0.03, M=3, kbar=2, seed=8)
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        H2 = Q @ np.diag([0.0, 1.0, 2.0]) @ Q.conj().T
        H2 = (H2 + H2.conj().T) / 2
        replaced = dataclasses.replace(base, onsite=H2)
        built = build_chain_model(4, 3, H2, {iv: op.matrix for iv, op in base.interactions.items()},
                                  base.t, base.kbar)
        got, want = sweep(replaced), sweep(built)
        assert got.diagnostics == want.diagnostics
        assert set(got.potentials) == set(want.potentials)
        for iv, op in want.potentials.items():
            assert np.array_equal(got.potentials[iv].matrix, op.matrix), iv
        assert np.count_nonzero(np.abs(replaced.omega) > 1e-3) == 3
        assert np.array_equal(replaced.omega, built.omega)

    def test_one_rotation_per_step_with_a_nonzero_generator(self, monkeypatch):
        # W and C of exp(S) are formed once per step and read by both the
        # replaced potential and the transport
        calls = []

        def counted(y, vac):
            calls.append(y)
            return rotation_factors(y, vac)

        monkeypatch.setattr("lieschwinger.sweep.rotation_factors", counted)
        model = random_chain_model(5, 0.02, M=2, kbar=2, seed=3)
        state = sweep(model)
        nonzero = sum(d.s_norm != 0.0 for d in state.diagnostics)
        assert nonzero == len(state.diagnostics) == 10
        assert len(calls) == nonzero


def _window(model, first, last):
    """The model restricted to sites first..last, relabelled from site 1."""
    interactions = {Interval(iv.k, iv.q - first + 1): op.matrix
                    for iv, op in model.interactions.items() if first <= iv.q and iv.last <= last}
    return build_chain_model(last - first + 1, model.M, model.onsite, interactions, model.t,
                             model.kbar)


@pytest.mark.parametrize("N,M,kbar", [(9, 2, 1), (7, 3, 2)])
def test_sweep_is_local_bit_for_bit(N, M, kbar):
    # a stored potential depends only on the model restricted to its
    # interval: sweeping a window reproduces the full chain's potential on
    # every interval inside it, to the bit
    model = random_chain_model(N, 0.05, M=M, kbar=kbar, seed=N)
    full = sweep(model).potentials
    rng = np.random.default_rng(N)
    for _ in range(3):
        first = int(rng.integers(1, N))
        last = int(rng.integers(first + 1, N + 1))
        window = sweep(_window(model, first, last)).potentials
        assert window
        for iv, op in window.items():
            assert np.array_equal(op.matrix, full[Interval(iv.k, iv.q + first - 1)].matrix), iv


class TestNonBasisVacuum:
    @pytest.mark.parametrize("N,M,kbar", [(5, 2, 1), (5, 2, 2), (4, 3, 1), (4, 3, 2), (5, 3, 2)])
    def test_sweep_matches_oracle_and_stays_block_diagonal(self, N, M, kbar):
        model = non_basis_vacuum_model(N, M, kbar, 0.02, seed=10 * N + M + kbar)
        assert np.count_nonzero(np.abs(model.omega) > 1e-3) == M
        controls = SeriesControls()
        final = sweep(model, controls)
        report = certify(final, model)
        cmp_ = compare(report, model)
        assert cmp_.spectrum_distance <= 1e-12
        assert cmp_.blockwise_match
        for iv, op in final.potentials.items():
            vac = build_projectors(iv, model.omega)
            assert hermitian_defect(op.matrix) <= controls.tol_od
            assert np.linalg.norm(plus_minus_block(vac, op.matrix)) <= controls.tol_od
        # the oracle reads the certificate's spectrum instead of
        # diagonalizing K again, so it must be spec K
        evals = np.linalg.eigvalsh(assemble_full(final, model).matrix)
        scale = max(1.0, float(np.max(np.abs(evals))))
        assert np.max(np.abs(report.spectrum - evals)) <= 1e-13 * scale
        assert report.ground_energy in report.spectrum

    # Couplings reach down to 1e-300, where the squares of the generator's
    # entries underflow; subnormal couplings keep only a few digits of y
    # and are left out (ROADMAP D).
    @settings(max_examples=15, deadline=None)
    @example(N=3, M=2, kbar=1, t=1e-12, seed=0)  # a small t over a rounding error of G
    @example(N=3, M=2, kbar=1, t=3.05e-275, seed=0)  # the squares of y underflow
    @given(N=st.sampled_from([3, 4]), M=st.sampled_from([2, 3]), kbar=st.sampled_from([1, 2]),
           t=st.floats(-0.05, 0.05).filter(lambda t: t == 0.0 or abs(t) >= 1e-300),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fit_matches_oracle_and_stays_block_diagonal(self, N, M, kbar, t, seed):
        model = non_basis_vacuum_model(N, M, kbar, t, seed)
        fitted = BlockDiagonalizer().fit(model)
        assert fitted.comparison_.spectrum_distance <= 1e-12
        assert fitted.comparison_.blockwise_match
        for iv, op in fitted.state_.potentials.items():
            assert np.array_equal(op.matrix, op.matrix.conj().T)
            if t != 0.0:  # at t = 0 the potentials carry no weight and stay as given
                vac = build_projectors(iv, model.omega)
                assert np.linalg.norm(plus_minus_block(vac, op.matrix)) <= fitted.controls.tol_od


class TestAssembleFull:
    def test_zero_coupling_is_onsite_sum(self):
        model = random_chain_model(3, 0.0, seed=1)
        K = assemble_full(initial_state(model), model).matrix
        h = np.diag([0.0, 1.0])
        eye = np.eye(2)
        expected = (kron_chain([h, eye, eye]) + kron_chain([eye, h, eye])
                    + kron_chain([eye, eye, h]))
        np.testing.assert_allclose(K, expected, atol=1e-14)

    def test_initial_state_matches_direct_model_assembly(self):
        from lieschwinger.oracle import assemble_direct
        model = random_chain_model(4, 0.3, seed=2)
        np.testing.assert_allclose(
            assemble_full(initial_state(model), model).matrix, assemble_direct(model), atol=1e-12
        )

    @pytest.mark.parametrize("source", ["random", "non_basis", "kitaev", "kitaev-dense"])
    def test_one_assembly_equals_the_embedding_loops_bitwise(self, source, monkeypatch):
        # local_hamiltonian's matrix at every step, and assemble_full before
        # and after the sweep, equal their own embedding loops to the last
        # bit, signs of zeros included; the Kitaev chain has a negative offset
        # and is graded: there the stored blocks equal the loops' blocks entry
        # for entry, the sign of a zero aside (a zero of the offset's sign
        # where the loop never writes, +0 in the blocks)
        configs = Path(__file__).resolve().parent.parent / "configs"
        if source == "kitaev-dense":
            _force_dense(monkeypatch)
        kitaev = lambda: load_model(configs / "kitaev_n6.json").reduce().at()[0]
        model = {"random": lambda: random_chain_model(5, 0.05, 2, 2, seed=3),
                 "non_basis": lambda: non_basis_vacuum_model(4, 3, 2, 0.03, 1),
                 "kitaev": kitaev, "kitaev-dense": kitaev}[source]()
        state = initial_state(model)
        assert model.exactly_even == (source == "kitaev")

        def same_bits(op, reference):
            if op.graded:
                return all(np.array_equal(a, b) for a, b in zip(op.data, parity_blocks(reference)))
            return op.data.tobytes() == reference.tobytes()

        assert same_bits(assemble_full(state, model), looped_assemble_full(state, model))
        for I in iter_steps(model.N):
            G = local_hamiltonian(state, model, I)
            assert same_bits(G, looped_local_hamiltonian(state, model, I)), I
            state = advance(state, model)
        assert same_bits(assemble_full(state, model), looped_assemble_full(state, model))

    def test_dimension_guard(self):
        model = random_chain_model(13, 1e-3, seed=0)
        with pytest.raises(DimensionError):
            assemble_full(initial_state(model), model).matrix


def _kitaev_chain(name):
    return load_model(CONFIGS / f"{name}.json").reduce().at()[0]


def _ising_with_one_cross_entry(N, t):
    """``ising_chain_model`` with one Hermitian pair of entries across parity,
    between 00 and 01, on its first edge, scaled to keep its norm below 1."""
    model = ising_chain_model(N, t)
    first = 0.9 * np.kron(SX, SX)
    first[0, 1] = first[1, 0] = 1e-3
    return build_chain_model(N, 2, model.onsite,
                             {**{iv: op.matrix for iv, op in model.interactions.items()},
                              Interval(1, 1): first}, t)


def _wide_onsite_chain():
    """N = 3 with on-site diag(0, 2) and XX bonds at t = 0.01: the vacuum's
    block of K has diagonal 0, 4, 4, 4, the other block's top is about 6."""
    return build_chain_model(3, 2, np.diag([0.0, 2.0]),
                             {Interval(1, q): np.kron(SX, SX) for q in (1, 2)}, 0.01)


def _force_dense(patch):
    """Patch the evenness predicate of every ChainModel to False, over any
    value a model has cached, which sends a fit down the dense path."""
    patch.setattr(ChainModel, "exactly_even", property(lambda model: False))


def _graded_and_dense(model, monkeypatch, controls=SeriesControls()):
    """The fit of an exactly even model, and the same fit with its evenness
    predicate patched to False, which forces the dense path."""
    graded = BlockDiagonalizer(controls, oracle="off").fit(model)
    with monkeypatch.context() as patch:
        _force_dense(patch)
        dense = BlockDiagonalizer(controls, oracle="off").fit(model)
    assert all(op.graded for op in graded.state_.potentials.values())
    assert not any(op.graded for op in dense.state_.potentials.values())
    return graded, dense


class TestGradedPath:
    """An exactly even chain keeps each potential as its two parity blocks;
    the potentials, spectra and certificate equal the dense path's to
    rounding."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: load_model(CONFIGS / "tfim_n8.json"), id="tfim_n8"),
        pytest.param(lambda: load_model(CONFIGS / "anchor_n2.json"), id="anchor_n2"),
        *(pytest.param(lambda name=name: _kitaev_chain(name), id=name)
          for name in ("kitaev_n6", "kitaev_n7", "kitaev_ends_n7", "kitaev_quad_n8",
                       "kitaev_right_n7")),
        *(pytest.param(lambda N=N, t=t: ising_chain_model(N, t), id=f"ising-N{N}-t{t}")
          for N in range(6, 11) for t in (0.1, 0.3)),
        # the vacuum |1...1> is odd on every interval of odd length
        pytest.param(lambda: build_chain_model(
            6, 2, np.diag([1.0, 0.0]), {Interval(1, q): np.kron(SX, SX) for q in range(1, 6)},
            0.1), id="odd-vacuum"),
        pytest.param(lambda: _wide_onsite_chain(), id="other-block-above-the-shift"),
    ])
    def test_matches_the_dense_path(self, make, monkeypatch):
        model = make()
        # at t = 0.3 the Ising series needs more than 20 orders, and the
        # local gaps fall below 0.5
        controls = (SeriesControls(jmax=60, gap_min=0.25) if abs(model.t) > 0.2
                    else SeriesControls())
        graded, dense = _graded_and_dense(model, monkeypatch, controls)

        def close(a, b, scale=1.0):
            return abs(a - b) <= 1e-14 * max(scale, abs(b))

        g, d = graded.report_, dense.report_
        scale = max(1.0, float(np.max(np.abs(d.spectrum))))
        assert np.max(np.abs(g.spectrum - d.spectrum)) <= 1e-14 * scale
        for a, b in zip(graded.state_.diagnostics, dense.state_.diagnostics, strict=True):
            assert a.step == b.step and a.series_order == b.series_order
            # a step's gap is its bound, or where that falls short its exact
            # gap: the dense path diagonalizes the step's whole matrix, of
            # scale (k + 1) max|onsite|, where the graded path takes its blocks
            step_scale = max(1.0, (a.step.k + 1) * float(np.max(np.abs(model.onsite))))
            assert close(a.gap, b.gap, step_scale) and close(a.E, b.E, step_scale)
        for a, b in zip(g.ledger, d.ledger, strict=True):
            assert a.interval == b.interval
            assert close(a.e, b.e, b.norm) and close(a.r, b.r, b.norm)
            D = a.interval.dim(2)
            if D <= EXACT_DIM:
                assert close(a.c, b.c, b.norm)
            else:
                # a Frobenius row's norm and c move with ||V_g - V_d||_F, at
                # most D times the entrywise rounding the potentials are
                # compared at below
                V = dense.state_.potentials[a.interval]
                tol = D * 1e-14 * max(1.0, op_norm(V))
                assert abs(a.norm - b.norm) <= tol and abs(a.c - b.c) <= tol
        assert close(g.gap_lower_bound, d.gap_lower_bound)
        for interval, op in graded.state_.potentials.items():
            assert op.graded and op.dim == interval.dim(2)
            np.testing.assert_allclose(op.matrix, dense.state_.potentials[interval].matrix,
                                       rtol=0, atol=1e-14 * max(1.0, op_norm(op)))

    def test_other_block_above_the_shifted_vacuum_level_matches_the_oracle(self):
        # K's vacuum block shifts its vacuum level to c = 1 + ||K_v||_inf,
        # about 5 here, below the other block's top, about 6: the certified
        # spectrum keeps that top, as ED does (the dense path's is compared
        # in test_matches_the_dense_path)
        model = _wide_onsite_chain()
        graded = BlockDiagonalizer(oracle="force").fit(model)
        K_v, _, K_rest = vacuum_part(assemble_full(graded.state_, model),
                                     build_projectors(Interval(2, 1), model.omega))
        assert np.linalg.eigvalsh(K_rest)[-1] > 1 + np.linalg.norm(K_v, np.inf) + 0.5
        assert graded.comparison_.spectrum_distance <= 1e-12

    def test_a_dense_state_of_an_even_chain_is_refused(self):
        model = ising_chain_model(4, 0.1)
        with pytest.raises(ValidationError, match="parity blocks"):
            advance(BlockDiagState(None, dict(model.interactions)), model)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: _ising_with_one_cross_entry(5, 0.1), id="one-cross-parity-entry"),
        pytest.param(lambda: load_model(CONFIGS / "chain_n5_m3_k2.json"), id="chain_n5_m3_k2"),
        pytest.param(lambda: load_model(CONFIGS / "nonbasis_n5_m3_k2.json"),
                     id="nonbasis_n5_m3_k2"),
    ])
    def test_any_other_chain_runs_the_dense_path(self, make):
        model = make()
        assert not model.exactly_even
        state = sweep(model)
        assert not any(op.graded for op in state.potentials.values())

    @pytest.mark.parametrize("make, force_dense", [
        pytest.param(lambda: ising_chain_model(8, 0.1), True, id="ising_n8-forced-dense"),
        pytest.param(lambda: random_chain_model(6, 0.05, seed=0), False, id="random_n6"),
    ])
    def test_a_dense_fit_looks_for_no_parity_blocks(self, make, force_dense, monkeypatch,
                                                    eigvalsh_sizes):
        # parity detection belongs to the oracle: once the model's evenness
        # is known, a fit without it calls parity_even and parity_blocks
        # nowhere, and diagonalizes every dense matrix whole, K's of 2^N too
        model = make()
        if force_dense:
            _force_dense(monkeypatch)
        assert not model.exactly_even
        calls = []
        for module in [m for name, m in sys.modules.items() if name.startswith("lieschwinger")]:
            for name in ("parity_even", "parity_blocks"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *args, name=name,
                                        f=getattr(module, name): calls.append(name) or f(*args))
        BlockDiagonalizer(oracle="off").fit(model)
        assert calls == []
        assert max(eigvalsh_sizes) == 2 ** model.N
