import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (SX, anchor_model, dense_generator, dense_generator_series, kron_chain,
                      near_hermitian_chain_file, one_table_generator_series,
                      orthogonal_complement_basis, plus_block_eigh, random_hermitian,
                      series_terms)
from lieschwinger.certify import certify
from lieschwinger.cli import load_model
from lieschwinger.errors import DimensionError, GapError, SeriesError
from lieschwinger.estimator import BlockDiagonalizer
from lieschwinger.intervals import Interval, StepIndex, iter_steps, successor
from lieschwinger.model import build_chain_model, random_chain_model
from lieschwinger.operators import (
    LocalOperator,
    build_projectors,
    embed,
    excited_spectrum,
    hermitian_defect,
    op_norm,
    unitary_exp,
)
from lieschwinger.oracle import compare
from lieschwinger.sweep import (
    BlockDiagState,
    _growth_sources,
    SeriesControls,
    advance,
    assemble_full,
    diagonalized_potential,
    generator_series,
    initial_state,
    local_gap,
    local_hamiltonian,
    sweep,
    vacuum_energy,
)


def summed_diagonal_series(res, V, pair, t):
    """sum_j t^(j-1) D((V)_j), with D dropping the block off-diagonal parts."""
    vac = pair.vac
    out = np.zeros_like(V, dtype=complex)
    for j, X in enumerate(series_terms(res, V), start=1):
        u = X @ vac
        u = u - vac * (vac.conj() @ u)
        od = np.outer(u, vac.conj())
        out = out + t ** (j - 1) * (X - od - od.conj().T)
    return out


def plus_minus_block(pair, X):
    """P+ X P- with P- = vac vac^dag and P+ = 1 - P-."""
    pm = np.outer(pair.vac, pair.vac.conj())
    return (np.eye(pm.shape[0]) - pm) @ X @ pm


def anchor_pieces(t=0.1):
    """Local Hamiltonian, projectors, and interaction of the two-site anchor."""
    model = anchor_model(t)
    state = initial_state(model)
    I = Interval(1, 1)
    pair = build_projectors(I, model.omega)
    G = local_hamiltonian(state, model, pair)
    V = state.potentials[I].matrix
    return model, state, I, G, pair, V


def gapped_local_problem(M, k, seed, E):
    """Projector pair of a complex non-basis vacuum on Interval(k, 1), a
    local Hamiltonian G block-diagonal for it with vacuum energy E and gap
    at least 1, and a random Hermitian V of unit norm."""
    rng = np.random.default_rng(seed)
    omega = rng.normal(size=M) + 1j * rng.normal(size=M)
    pair = build_projectors(Interval(k, 1), omega)
    vac = pair.vac
    Qp = orthogonal_complement_basis(vac)
    U, _ = np.linalg.qr(rng.normal(size=(Qp.shape[1],) * 2)
                        + 1j * rng.normal(size=(Qp.shape[1],) * 2))
    H = (U * (E + 1.0 + rng.uniform(0.0, 3.0, size=Qp.shape[1]))) @ U.conj().T
    G = E * np.outer(vac, vac.conj()) + Qp @ H @ Qp.conj().T
    G = (G + G.conj().T) / 2
    return pair, G, random_hermitian(rng, G.shape[0], norm=1.0)


def assert_matches_reference(reference, G, E, pair, V, t, controls=SeriesControls()):
    """generator_series against a dense reference series: order, y, every
    (V)_j formed from the frame, and both norm lists to 1e-13.  The
    reference takes ||V|| exactly at order one, where generator_series
    bounds it, so the orders agreeing checks the order-one stop test."""
    res = generator_series(G, E, pair, V, t, controls)
    order, y, v_terms, v_norms, s_norms = reference(G, E, pair, V, t, controls)
    assert res.order == order
    assert np.max(np.abs(res.y - y)) <= 1e-13
    terms = series_terms(res, V)
    assert len(terms) == len(v_terms)
    for X, ref in zip(terms, v_terms):
        assert np.max(np.abs(X - ref)) <= 1e-13
    np.testing.assert_allclose(res.v_term_norms, v_norms[1:], rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.s_term_norms, s_norms, rtol=0, atol=1e-13)
    return res


class TestLocalHamiltonian:
    def test_single_edge_has_no_interactions(self):
        # on any coupling the one-edge local Hamiltonian is the two on-site terms
        model, state, I, G, pair, V = anchor_pieces(t=0.7)
        np.testing.assert_allclose(G.matrix, np.diag([0.0, 1.0, 1.0, 2.0]), atol=1e-15)

    def test_zero_coupling_eigenvalues_are_digit_sums(self):
        model = random_chain_model(4, 0.0, seed=5)
        state = initial_state(model)
        G = local_hamiltonian(state, model, build_projectors(Interval(2, 2), model.omega))
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
        G = local_hamiltonian(state, model, build_projectors(Interval(2, 1), model.omega))
        h = np.diag([0.0, 1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        brute = (kron_chain([h, eye, eye]) + kron_chain([eye, h, eye])
                 + kron_chain([eye, eye, h]))
        for iv in (Interval(1, 1), Interval(1, 2)):
            W = state.potentials[iv].matrix
            brute += t * (np.kron(W, eye) if iv.q == 1 else np.kron(eye, W))
        np.testing.assert_allclose(np.linalg.eigvalsh(G.matrix),
                                   np.linalg.eigvalsh(brute), atol=1e-12)


class TestVacuumEnergyAndGap:
    def test_zero_coupling(self):
        model, state, I, G, pair, V = anchor_pieces(t=0.0)
        excited = excited_spectrum(G.matrix, pair.vac)
        assert vacuum_energy(G, pair, excited) == pytest.approx(0.0, abs=1e-14)
        assert local_gap(vacuum_energy(G, pair, excited), excited) == pytest.approx(1.0, abs=1e-14)

    def test_sigma_interaction_has_zero_vacuum_diagonal(self):
        # <00| sx (x) sx |00> = 0, so adding it to G leaves E = 0
        t = 0.1
        G = LocalOperator(Interval(1, 1), np.diag([0.0, 1.0, 1.0, 2.0]) + t * np.kron(SX, SX))
        pair = build_projectors(Interval(1, 1), np.array([1.0, 0.0]))
        E = float(np.real(pair.vac.conj() @ G.matrix @ pair.vac))
        assert E == pytest.approx(0.0, abs=1e-14)

    def test_vacuum_energy_matches_infspec_on_random_small_t(self, rng):
        for seed in range(5):
            model = random_chain_model(3, 1e-3, seed=seed)
            state = initial_state(model)
            pair = build_projectors(Interval(1, 1), model.omega)
            G = local_hamiltonian(state, model, pair)
            E = vacuum_energy(G, pair, excited_spectrum(G.matrix, pair.vac))
            assert E == pytest.approx(float(np.linalg.eigvalsh(G.matrix)[0]), abs=1e-10)

    def test_explicit_gap(self):
        G = LocalOperator(Interval(1, 1), np.diag([0.0, 1.0, 1.0, 2.0]))
        pair = build_projectors(Interval(1, 1), np.array([1.0, 0.0]))
        assert local_gap(0.0, excited_spectrum(G.matrix, pair.vac)) == pytest.approx(1.0)

    def test_anchor_gap_has_no_coupling_dependence(self):
        model, state, I, G, pair, V = anchor_pieces(t=0.1)
        excited = excited_spectrum(G.matrix, pair.vac)
        assert local_gap(vacuum_energy(G, pair, excited), excited) == pytest.approx(1.0, abs=1e-14)

    def test_gap_below_threshold_aborts(self):
        G = LocalOperator(Interval(1, 1), np.diag([0.0, 0.3, 1.0, 2.0]))
        pair = build_projectors(Interval(1, 1), np.array([1.0, 0.0]))
        with pytest.raises(GapError, match="threshold"):
            local_gap(0.0, excited_spectrum(G.matrix, pair.vac), gap_min=0.5)

    def test_gap_assumption_violated_at_zero_threshold(self):
        # a degenerate vacuum passes gap_min = 0 but leaves no resolvent
        G = LocalOperator(Interval(1, 1), np.diag([0.0, 0.0, 1.0, 2.0]))
        pair = build_projectors(Interval(1, 1), np.array([1.0, 0.0]))
        excited = excited_spectrum(G.matrix, pair.vac)
        with pytest.raises(GapError, match="reaches the vacuum energy") as info:
            local_gap(vacuum_energy(G, pair, excited), excited, gap_min=0.0)
        assert info.value.reason == "gap-assumption-violated"
        assert info.value.exit_code == 4

    def test_vacuum_not_ground_detected(self):
        G = LocalOperator(Interval(1, 1), np.diag([0.0, -0.5, 1.0, 2.0]))
        pair = build_projectors(Interval(1, 1), np.array([1.0, 0.0]))
        with pytest.raises(GapError, match="ground"):
            vacuum_energy(G, pair, excited_spectrum(G.matrix, pair.vac))


class TestGeneratorSeries:
    def test_block_diagonal_potential_gives_zero_generator(self, rng):
        model, state, I, G, pair, V = anchor_pieces()
        W = np.diag(rng.normal(size=4)).astype(complex)  # commutes with the pair
        res = generator_series(G.matrix, 0.0, pair, W, 0.1, SeriesControls())
        assert not np.any(dense_generator(res))
        np.testing.assert_allclose(summed_diagonal_series(res, W, pair, 0.1), W, atol=1e-14)

    def test_anchor_first_order_generator(self):
        # hand evaluation: P+ V vac = |11>, (G - E)|11> = 2|11>,
        # so S_1 = (|11><00| - |00><11|)/2
        model, state, I, G, pair, V = anchor_pieces(t=1e-4)
        res = generator_series(G.matrix, 0.0, pair, V, model.t, SeriesControls())
        S1 = np.zeros((4, 4), dtype=complex)
        S1[3, 0], S1[0, 3] = 0.5, -0.5
        np.testing.assert_allclose(dense_generator(res) / model.t, S1, atol=1e-7)

    def test_anchor_series_term_norms(self):
        # hand recursion on the {|00>,|11>} block gives ||(V)_j|| = 1, 1/2, 1/3
        # and ||S_j|| = 1/2, 0, 1/6 independent of the coupling
        model, state, I, G, pair, V = anchor_pieces(t=0.1)
        res = generator_series(G.matrix, 0.0, pair, V, model.t, SeriesControls())
        assert op_norm(V) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(res.v_term_norms[:2], [0.5, 1.0 / 3.0], atol=1e-12)
        np.testing.assert_allclose(res.s_term_norms[:3], [0.5, 0.0, 1.0 / 6.0], atol=1e-12)

    def test_anchor_generator_closed_form(self):
        # the summed series is the rotation angle arctan(t)/2 on the
        # {|00>,|11>} block, reproduced here from the 2x2 closed form
        t = 0.1
        model, state, I, G, pair, V = anchor_pieces(t)
        res = generator_series(G.matrix, 0.0, pair, V, t, SeriesControls(jmax=60))
        theta = 0.5 * np.arctan(t)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 0], expected[0, 3] = theta, -theta
        np.testing.assert_allclose(dense_generator(res), expected, atol=1e-14)

    def test_generator_bound_from_gap(self):
        # ||S_j|| <= 2 ||(V)_j|| / gap, and gap = 1 here
        model, state, I, G, pair, V = anchor_pieces(t=0.01)
        res = generator_series(G.matrix, 0.0, pair, V, model.t, SeriesControls())
        for vn, sn in zip((op_norm(V),) + res.v_term_norms, res.s_term_norms):
            assert sn <= 2.0 * vn + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(M=st.sampled_from([2, 3]), k=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
           E=st.floats(-2, 2), t=st.floats(-0.05, 0.05))
    def test_matches_eigenbasis_resolvent(self, M, k, seed, E, t):
        # reference: each y_j from the eigendecomposition of the excited
        # block in the Householder basis, applied to the returned (V)_j
        pair, G, V = gapped_local_problem(M, k, seed, E)
        vac = pair.vac
        res = generator_series(G, E, pair, V, t, SeriesControls())
        w, Z, Qp = plus_block_eigh(G, vac)

        def ref_y(X):
            u = X @ vac
            u = u - vac * (vac.conj() @ u)
            return Qp @ (Z @ ((Z.conj().T @ (Qp.conj().T @ u)) / (w - E)))

        terms = series_terms(res, V)
        y_ref = sum(t ** j * ref_y(X) for j, X in enumerate(terms, start=1))
        assert np.max(np.abs(res.y - y_ref)) <= 1e-13
        np.testing.assert_allclose(res.s_term_norms, [np.linalg.norm(ref_y(X)) for X in terms],
                                   rtol=0, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(M=st.sampled_from([2, 3]), k=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
           E=st.floats(-2, 2), t=st.floats(-0.05, 0.05))
    def test_matches_dense_two_table_reference(self, M, k, seed, E, t):
        # reference: dense S_j and two commutator tables, one for G and one for V
        pair, G, V = gapped_local_problem(M, k, seed, E)
        assert_matches_reference(dense_generator_series, G, E, pair, V, t)

    @settings(max_examples=40, deadline=None)
    @given(M=st.sampled_from([2, 3]), k=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
           E=st.floats(-2, 2), t=st.floats(-0.05, 0.05))
    def test_matches_one_table_reference(self, M, k, seed, E, t):
        # reference: the same table with dense D x D entries and a dense
        # op_norm per order
        pair, G, V = gapped_local_problem(M, k, seed, E)
        assert_matches_reference(one_table_generator_series, G, E, pair, V, t)

    @pytest.mark.parametrize("case", ["anchor", "block-diagonal", "basis-vacuum", "band-above",
                                      "band-below", "below-cutoff", "jmax-1"])
    def test_matches_one_table_reference_fixed_cases(self, case, rng):
        # the anchor has y_2 = 0 exactly, a block-diagonal V gives y = 0, and
        # a basis-vector vacuum makes G vac = E vac exactly: each leaves zero
        # or exactly dependent frame columns.  The other cases probe the
        # order-one stop test, which bounds ||V|| by ||V||_F from above and
        # by max(||V vac||, ||V||_F / 2) from below at D = 4
        model, state, I, G, pair, V = anchor_pieces(0.05)
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
                generator_series(G.matrix, 0.0, pair, V, t, controls)
            assert info.value.last_term_norm == abs(t) * op_norm(V)
            t = 1e-15  # below the cutoff the same controls converge at order one
        res = assert_matches_reference(one_table_generator_series, G.matrix, 0.0, pair, V, t,
                                       controls)
        if case == "anchor":
            assert res.s_term_norms[1] == 0.0
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
        model, state, I, G, pair, V = anchor_pieces()
        W = np.diag(rng.normal(size=4)).astype(complex)
        res = generator_series(G.matrix, 0.0, pair, W, 1e200, SeriesControls())
        assert res.order == 2 and not np.any(res.y)
        with pytest.raises(SeriesError, match="last term norm inf"):
            generator_series(G.matrix, 0.0, pair, V, 1e200, SeriesControls())

    def test_divergent_series_raises(self):
        model, state, I, G, pair, V = anchor_pieces(t=0.5)
        with pytest.raises(SeriesError, match="converge"):
            generator_series(G.matrix, 0.0, pair, V, 0.5, SeriesControls())


class TestDiagonalizedPotential:
    def test_zero_generator_identity(self, rng):
        model, state, I, G, pair, V = anchor_pieces()
        out, residual = diagonalized_potential(G.matrix, V, np.zeros(4), 0.0, pair)
        np.testing.assert_array_equal(out, V)

    def test_anchor_vacuum_entry(self):
        # oracle: closed-form diagonalization of [[0, t], [t, 2]]
        t = 0.1
        model, state, I, G, pair, V = anchor_pieces(t)
        res = generator_series(G.matrix, 0.0, pair, V, t, SeriesControls())
        out, residual = diagonalized_potential(G.matrix, V, res.y, t, pair)
        assert out[0, 0].real == pytest.approx((1 - np.sqrt(1 + t * t)) / t, abs=1e-9)
        assert residual <= 1e-8
        assert op_norm(out) <= 2.0 * op_norm(V)

    def test_closed_form_matches_summed_diagonal_series(self):
        t = 0.01
        model, state, I, G, pair, V = anchor_pieces(t)
        res = generator_series(G.matrix, 0.0, pair, V, t, SeriesControls())
        out, _ = diagonalized_potential(G.matrix, V, res.y, t, pair)
        np.testing.assert_allclose(out, summed_diagonal_series(res, V, pair, t), atol=1e-10)


def _conjugated_full(state_before, model, S, interval):
    chain = Interval(model.N - 1, 1)
    U = embed(LocalOperator(interval, unitary_exp(S)), chain, model.M).matrix
    K = assemble_full(state_before, model)
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
        pair = build_projectors(I, model.omega)
        W = state.potentials[I].matrix
        assert np.linalg.norm(plus_minus_block(pair, W)) <= 1e-8

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
            done = StepIndex(*state.step)
            iv = Interval(done.k, done.q)
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
                I = Interval(state.step.k, state.step.q)
                pair = build_projectors(I, model.omega)
                G = local_hamiltonian(before, model, pair)
                E = vacuum_energy(G, pair, excited_spectrum(G.matrix, pair.vac))
                V = (before.potentials[I].matrix if I in before.potentials
                     else np.zeros((I.dim(2), I.dim(2)), dtype=complex))
                res = generator_series(G.matrix, E, pair, V, model.t, controls)
                direct = _conjugated_full(before, model, dense_generator(res), I)
                np.testing.assert_allclose(assemble_full(state, model), direct, atol=1e-9)


def per_source_transport(state, model, controls):
    """Potentials on the intervals strictly containing the next step
    interval, transported one source at a time: each stored potential and
    each growth source is embedded and conjugated on its own by the dense
    kron(1_L, exp(S), 1_R), and the results are summed and re-symmetrized.
    Reference for ``advance``."""
    I = Interval(*successor(state.step, model.N))
    pair = build_projectors(I, model.omega)
    G = local_hamiltonian(state, model, pair, controls.tol_od).matrix
    E = float(np.real(pair.vac.conj() @ G @ pair.vac))
    V = (state.potentials[I].matrix if I in state.potentials
         else np.zeros((I.dim(model.M),) * 2, dtype=complex))
    U = unitary_exp(dense_generator(generator_series(G, E, pair, V, model.t, controls)))
    out = {}
    for J in (Interval(*s) for s in iter_steps(model.N)):
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
    I = Interval(*state.step)
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
        ((0, 4), [(1, 1), (1, 2)]),
        ((1, 3), [(2, 1), (2, 2), (1, 3)]),
        ((1, 1), [(1, 1), (1, 2)]),
        ((2, 1), [(2, 1), (2, 2), (1, 1)]),
    ], ids=["right-one-site", "right-two-sites", "left-one-site", "left-two-sites"])
    @pytest.mark.parametrize("M", [2, 3])
    def test_interval_created_from_sources_alone(self, before, supports, M):
        model = non_basis_vacuum_model(4, M, 2, 0.04, seed=M)
        state = BlockDiagState(StepIndex(*before),
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
            assert final.step == StepIndex(N - 1, 1)

    def test_anchor_ground_energy(self):
        model = anchor_model(0.1)
        final = sweep(model)
        K = assemble_full(final, model)
        pair = build_projectors(Interval(1, 1), model.omega)
        ground = float(np.real(pair.vac.conj() @ K @ pair.vac))
        assert ground == pytest.approx(1 - np.sqrt(1.01), abs=1e-10)

    def test_spectrum_preserved_across_sweep(self):
        model = random_chain_model(5, 1e-2, seed=9)
        ev0 = np.linalg.eigvalsh(assemble_full(initial_state(model), model))
        ev1 = np.linalg.eigvalsh(assemble_full(sweep(model), model))
        assert np.max(np.abs(ev0 - ev1)) <= 1e-9

    def test_all_completed_blocks_stay_block_diagonal(self):
        model = random_chain_model(4, 1e-2, seed=10)
        final = sweep(model)
        for iv, op in final.potentials.items():
            pair = build_projectors(iv, model.omega)
            assert np.linalg.norm(plus_minus_block(pair, op.matrix)) <= 1e-8

    def test_failed_sweep_reports_step_and_partial_state(self):
        model = anchor_model(0.5)
        with pytest.raises(SeriesError) as excinfo:
            sweep(model)
        assert excinfo.value.step == StepIndex(1, 1)
        assert excinfo.value.partial_state.step == StepIndex(0, 2)


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
            pair = build_projectors(iv, model.omega)
            assert hermitian_defect(op.matrix) <= controls.tol_od
            assert np.linalg.norm(plus_minus_block(pair, op.matrix)) <= controls.tol_od
        # the oracle reads the certificate's spectrum instead of
        # diagonalizing K again, so it must be spec K
        evals = np.linalg.eigvalsh(assemble_full(final, model))
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
                pair = build_projectors(iv, model.omega)
                assert np.linalg.norm(plus_minus_block(pair, op.matrix)) <= fitted.tol_od


class TestAssembleFull:
    def test_zero_coupling_is_onsite_sum(self):
        model = random_chain_model(3, 0.0, seed=1)
        K = assemble_full(initial_state(model), model)
        h = np.diag([0.0, 1.0])
        eye = np.eye(2)
        expected = (kron_chain([h, eye, eye]) + kron_chain([eye, h, eye])
                    + kron_chain([eye, eye, h]))
        np.testing.assert_allclose(K, expected, atol=1e-14)

    def test_initial_state_matches_direct_model_assembly(self):
        from lieschwinger.oracle import assemble_direct
        model = random_chain_model(4, 0.3, seed=2)
        np.testing.assert_allclose(
            assemble_full(initial_state(model), model), assemble_direct(model), atol=1e-12
        )

    def test_dimension_guard(self):
        model = random_chain_model(13, 1e-3, seed=0)
        with pytest.raises(DimensionError):
            assemble_full(initial_state(model), model)
