import sys
from math import factorial

import numpy as np
import pytest

from conftest import (SX, anchor_model, check_series_majorant, excited_block_lower_bound,
                      projector_inequalities, solve_majorant)
from lieschwinger.certify import check_ledger, certify, decay_bound
from lieschwinger.errors import ValidationError
from lieschwinger.intervals import Interval
from lieschwinger.model import build_chain_model, random_chain_model
from lieschwinger.operators import build_projectors, op_norm
from lieschwinger.sweep import SeriesControls, advance, generator_series, initial_state, local_hamiltonian, sweep


class TestLedger:
    def test_bound_values(self):
        assert decay_bound(1, 0.01) == pytest.approx(2.0)
        assert decay_bound(2, 0.001) == pytest.approx(8.0 * 0.1 / 9.0)
        assert decay_bound(1, -0.01) == pytest.approx(2.0)  # bound uses |t|

    @pytest.mark.parametrize("r,t", [(5, 1e300), (7, -1e200), (4, -1.7e308)])
    def test_bound_saturates_at_the_largest_float(self, r, t):
        # |t|^((r-1)/3) overflows a float, or 8 times it does (r = 4): every
        # float norm still meets the bound, and a report can hold it
        assert decay_bound(r, t) == sys.float_info.max

    def test_initial_interactions_within_r1_bound(self):
        model = random_chain_model(4, 0.01, seed=0)
        entries = check_ledger(initial_state(model), model.t)
        assert all(e.ok for e in entries)
        assert all(e.bound == pytest.approx(2.0) for e in entries)

    def test_full_sweep_ledger_all_ok(self):
        model = random_chain_model(5, 1e-3, seed=1)
        entries = check_ledger(sweep(model), model.t)
        assert len(entries) == 10  # every interval carries a potential by the end
        assert all(e.ok for e in entries)


class TestCertify:
    def test_zero_coupling(self):
        model = random_chain_model(3, 0.0, seed=2)
        report = certify(sweep(model), model)
        assert report.ground_energy == pytest.approx(0.0, abs=1e-12)
        assert report.gap == pytest.approx(1.0, abs=1e-12)
        assert report.unique_ground

    def test_anchor_closed_form(self):
        model = anchor_model(0.1)
        report = certify(sweep(model), model)
        assert report.ground_energy == pytest.approx(1 - np.sqrt(1.01), abs=1e-10)
        assert report.gap == pytest.approx(np.sqrt(1.01) - 0.1, abs=1e-10)

    def test_incomplete_sweep_rejected(self):
        model = random_chain_model(3, 1e-3, seed=3)
        with pytest.raises(ValidationError, match="incomplete"):
            certify(initial_state(model), model)

    def test_small_t_gap_at_least_half(self):
        for seed in range(3):
            model = random_chain_model(4, 1e-3, seed=seed)
            state = sweep(model)
            report = certify(state, model)
            assert report.gap >= 0.5
            assert all(d.gap >= 0.5 for d in state.diagnostics)


class TestMajorant:
    def test_root_of_defining_relation(self):
        params = solve_majorant(1.0)
        # oracle: the defining relation evaluated directly
        residual = (np.exp(8 * params.a) - 8 * params.a - 1) / params.a \
            + np.exp(8 * params.a) - 2.0
        assert abs(residual) <= 1e-12
        assert params.a == pytest.approx(0.0233, abs=1e-4)

    def test_radius_bound(self):
        for norm_v in (0.5, 1.0, 2.0):
            params = solve_majorant(norm_v)
            assert params.t0_bound == pytest.approx(params.a / (4 * norm_v))
            assert params.t0_bound >= params.a / 8 - 1e-15
        assert solve_majorant(2.0).t0_bound == pytest.approx(0.0029, abs=1e-4)

    def test_coefficients_match_taylor_series(self):
        # oracle: binomial expansion of sqrt(1 - c x) computed here
        norm_v = 1.7
        params = solve_majorant(norm_v, jmax=15)
        a, c = params.a, 4 * norm_v / params.a

        def taylor(j):
            num = 1.0
            for i in range(j):
                num *= 0.5 - i
            return -(a / 2) * num / factorial(j) * (-c) ** j

        for j in range(1, 16):
            assert params.B[j - 1] == pytest.approx(taylor(j), rel=1e-10)

    def test_partial_sums_match_truncated_taylor_series(self):
        # oracle: binomial-series coefficients of the square root, summed to
        # the same order
        params = solve_majorant(2.0, jmax=15)
        a, c = params.a, 4 * 2.0 / params.a
        x = params.t0_bound / 2
        taylor = 0.0
        num = 1.0
        for j in range(1, 16):
            num *= 0.5 - (j - 1)
            taylor += -(a / 2) * num / factorial(j) * (-c) ** j * x ** j
        partial = sum(b * x ** j for j, b in enumerate(params.B, start=1))
        assert partial == pytest.approx(taylor, abs=1e-10)
        # and the truncated sum sits within the tail of the closed form
        assert partial == pytest.approx(params.f(x), abs=1e-8)

    def test_rejects_zero_norm(self):
        with pytest.raises(ValidationError):
            solve_majorant(0.0)

    def test_first_coefficient_equality(self):
        assert solve_majorant(0.37).B[0] == 0.37

    def test_dominates_anchor_series(self):
        model = anchor_model(0.1)
        state = initial_state(model)
        I = Interval(1, 1)
        vac = build_projectors(I, model.omega)
        G = local_hamiltonian(state, model, I, vac)
        V = state.potentials[I].matrix
        res = generator_series(G.matrix, 0.0, vac, V, model.t, SeriesControls())
        norms = (op_norm(V),) + res.v_term_norms
        params = solve_majorant(norms[0], jmax=len(norms))
        assert check_series_majorant(norms, params)

    def test_detects_violation(self):
        params = solve_majorant(1.0, jmax=5)
        fake = (1.0, params.B[1] * 2.0)
        assert not check_series_majorant(fake, params)


class TestProjectorInequalities:
    def test_single_site_equality(self):
        # one site: the excited projector equals the vacuum complement exactly
        assert projector_inequalities(1, 2, r=0)

    def test_three_sites_minimum_eigenvalue_zero(self):
        # oracle: explicit eigenvalues of sum P_perp - P_vac_perp on 8 dims
        omega = np.array([1.0, 0.0])
        perp = np.diag([0.0, 1.0])
        eye = np.eye(2)
        total = (np.kron(perp, np.kron(eye, eye)) + np.kron(eye, np.kron(perp, eye))
                 + np.kron(eye, np.kron(eye, perp)))
        vac = np.zeros((8, 8))
        vac[0, 0] = 1.0
        evals = np.linalg.eigvalsh(total - (np.eye(8) - vac))
        assert evals[0] == pytest.approx(0.0, abs=1e-12)
        assert projector_inequalities(3, 2, r=1)

    @pytest.mark.parametrize("n,r", [(4, 1), (5, 2), (6, 3)])
    def test_window_inequality_random_omega(self, n, r):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            omega = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert projector_inequalities(n, 2, r=r, omega=omega)


class TestExcitedBlockBound:
    def test_zero_coupling(self):
        model = random_chain_model(3, 0.0, seed=4)
        state = initial_state(model)
        lhs, rhs = excited_block_lower_bound(state, model, Interval(2, 1))
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_scalar_formula_short_interval(self):
        # the length-3 correction sum is empty for a two-edge interval
        model = build_chain_model(
            3, 2, np.diag([0.0, 1.0]),
            {Interval(1, 1): np.kron(SX, SX), Interval(1, 2): np.kron(SX, SX)}, t=0.01,
        )
        state = initial_state(model)
        state = advance(state, model)
        state = advance(state, model)
        lhs, rhs = excited_block_lower_bound(state, model, Interval(2, 1))
        assert rhs == pytest.approx(0.92)
        assert lhs >= rhs

    def test_holds_on_random_small_t_models(self):
        for seed in range(3):
            model = random_chain_model(4, 1e-3, seed=seed)
            state = sweep(model)
            for interval in (Interval(2, 1), Interval(3, 1)):
                lhs, rhs = excited_block_lower_bound(state, model, interval)
                assert lhs >= rhs
