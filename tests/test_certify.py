import importlib.util
import json
import sys
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SX, anchor_model, check_series_majorant, excited_block_lower_bound,
                      ising_bdg, ising_chain_model, non_basis_vacuum_model,
                      projector_inequalities, run_series, solve_majorant, walked_gap_lower_bound)
from test_cli import GOLDEN

from lieschwinger.certify import BOUND_MARGIN, check_ledger, certify, decay_bound, gap_lower_bound
from lieschwinger.cli import emit, load_model, main, run
from lieschwinger.estimator import BlockDiagonalizer
from lieschwinger.errors import GapError, ValidationError
from lieschwinger.intervals import Interval, iter_steps
from lieschwinger.model import ChainModel, build_chain_model, random_chain_model
from lieschwinger.operators import build_projectors, op_norm, spectral_range
from lieschwinger.sweep import (EXACT_DIM, SeriesControls, _offdiag_norm, advance, initial_state,
                                local_hamiltonian, step_gap_bound, sweep, vacuum_energy)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        entries = check_ledger(initial_state(model), model)
        assert all(e.ok for e in entries)
        assert all(e.bound == pytest.approx(2.0) for e in entries)

    def test_full_sweep_ledger_all_ok(self):
        model = random_chain_model(5, 1e-3, seed=1)
        entries = check_ledger(sweep(model), model)
        assert len(entries) == 10  # every interval carries a potential by the end
        assert all(e.ok for e in entries)

    @pytest.mark.parametrize("swept", [False, True])
    def test_records_the_gap_bound_inputs(self, swept):
        # each entry keeps e_I, r_I and c_I of its stored potential, by the
        # formulas the gap bound reads (certify module docstring)
        model = non_basis_vacuum_model(4, 3, 2, 0.03, 1)
        state = sweep(model) if swept else initial_state(model)
        entries = check_ledger(state, model)
        assert [e.interval for e in entries] == sorted(state.potentials)
        for entry in entries:
            op = state.potentials[entry.interval].matrix
            vac = build_projectors(entry.interval, model.omega)
            e = vacuum_energy(op, vac)
            assert (entry.lo, entry.hi) == spectral_range(op)
            assert entry.e == e
            assert entry.r == _offdiag_norm(op, vac)
            assert entry.c == max(entry.hi - e, e - entry.lo) + BOUND_MARGIN * entry.norm


class TestTransport:
    @pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN
                                             if not name.startswith("kitaev")}) + ["kitaev_n6"])
    def test_each_potential_is_final_after_its_own_step(self, name):
        # no step touches a potential after that potential's own step: on
        # every chain golden and on kitaev_n6's restricted chain, each
        # ledger residual r is the od_residual of the step on its interval
        source = load_model(CONFIGS / f"{name}.json")
        model = source.reduce().chain if name.startswith("kitaev") else source
        fitted = BlockDiagonalizer(oracle="off").fit(model)
        residuals = {d.step: d.od_residual for d in fitted.state_.diagnostics}
        ledger = fitted.report_.ledger
        assert ledger
        for entry in ledger:
            assert entry.r == residuals[entry.interval], entry.interval


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
        res = run_series(G.matrix, 0.0, vac, V, model.t, SeriesControls())
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


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads


def _assert_bound_below(gap_report, gap_ed, where=""):
    assert gap_report["gap_lower_bound"] <= gap_report["gap"], where
    assert gap_report["gap_lower_bound"] <= gap_ed, where


class TestGapLowerBound:
    # (N, t, M, kbar) of random_chain_model(..., seed=0), with the certified
    # gap and the bound to five digits
    @pytest.mark.parametrize("N,t,M,kbar,gap,bound", [
        (6, 0.01, 2, 1, "0.98715", "0.98048"),
        (9, 0.01, 2, 1, "0.98715", "0.98048"),
        (9, 0.05, 2, 1, "0.93682", "0.89979"),
        (8, 0.1, 2, 1, "0.87669", "0.79174"),
        (6, 0.02, 3, 2, "0.98668", "0.89081"),
        (7, 0.05, 2, 2, "0.90932", "0.73893"),
        (9, 0.2, 2, 1, "0.76801", "0.54609"),
    ])
    def test_reproduces_the_table(self, N, t, M, kbar, gap, bound):
        report = BlockDiagonalizer().fit(random_chain_model(N, t, M, kbar, seed=0)).report_
        assert (f"{report.gap:.5f}", f"{report.gap_lower_bound:.5f}") == (gap, bound)

    def test_reproduces_the_table_with_a_non_basis_vacuum(self):
        report = BlockDiagonalizer().fit(non_basis_vacuum_model(5, 3, 2, 0.03, 1)).report_
        assert (f"{report.gap:.5f}", f"{report.gap_lower_bound:.5f}") == ("0.97160", "0.85373")

    # subnormal couplings are left out, as in the sweep's property test (ROADMAP D)
    @settings(max_examples=10, deadline=None)
    @given(N=st.integers(3, 6), M=st.sampled_from([2, 3]), kbar=st.sampled_from([1, 2]),
           t=st.floats(-0.1, 0.1).filter(lambda t: t == 0.0 or abs(t) >= 1e-300),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_lies_below_the_gap(self, N, M, kbar, t, seed):
        fitted = BlockDiagonalizer().fit(non_basis_vacuum_model(N, M, kbar, t, seed))
        report = fitted.report_
        assert report.gap_lower_bound <= report.gap
        assert report.gap_lower_bound <= fitted.comparison_.gap_ed
        E = report.ground_energy
        assert abs(report.vacuum_energy_bound - E) <= 1e-14 * max(1.0, abs(E))

    @settings(max_examples=10, deadline=None)
    @given(N=st.integers(3, 6), M=st.sampled_from([2, 3]), kbar=st.sampled_from([1, 2]),
           t=st.floats(-0.1, 0.1).filter(lambda t: t == 0.0 or abs(t) >= 1e-300),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_the_walked_reference(self, N, M, kbar, t, seed):
        # the bound from the ledger's records alone, bit for bit the bound
        # that rebuilds each vacuum, e_I and r_I from the stored potentials
        model = non_basis_vacuum_model(N, M, kbar, t, seed)
        state = sweep(model)
        ledger = check_ledger(state, model)
        out = gap_lower_bound(model, ledger)
        assert [x.hex() for x in out] == [x.hex() for x in walked_gap_lower_bound(state, model, ledger)]

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_lies_below_the_gap_on_every_config(self, tmp_path, config):
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--report", str(out)]) == 0
        report = json.loads(out.read_text())
        _assert_bound_below(report["gap_report"], report["oracle"]["gap_ed"], config.stem)

    def test_lies_below_the_gap_on_the_benchmark_inputs(self, tmp_path):
        workloads = _load_workloads()
        for model in (workloads.transport_inputs(0, False, tmp_path)
                      + workloads.series_inputs(0, False, tmp_path)):
            fitted = BlockDiagonalizer().fit(model)
            assert fitted.report_.gap_lower_bound <= fitted.report_.gap
            assert fitted.report_.gap_lower_bound <= fitted.comparison_.gap_ed
        (item,) = workloads.kitaev_inputs(0, False, tmp_path)
        assert len(item.couplings) == 4
        assert main(["--config", str(item.config), "--report", str(item.report),
                     "--t-sweep", ",".join(repr(t) for t in item.couplings)]) == 0
        for report in json.loads(item.report.read_text()):
            _assert_bound_below(report["gap_report"], report["oracle"]["gap_ed"],
                                report["kitaev"]["beta"])

    def test_below_the_exact_ising_gap(self):
        # configs/tfim_n8.json against its free-fermion solution
        model, ising = load_model(CONFIGS / "tfim_n8.json"), ising_chain_model(8, 0.2)
        assert (model.N, model.t) == (ising.N, ising.t) and np.array_equal(model.onsite, ising.onsite)
        assert model.interactions.keys() == ising.interactions.keys()
        assert all(np.array_equal(op.matrix, ising.interactions[iv].matrix)
                   for iv, op in model.interactions.items())
        report = json.loads((Path(__file__).parent / "data" / "tfim_n8_report.json").read_text())
        ground, gap = ising_bdg(8, 0.2)
        assert report["gap_report"]["gap"] == pytest.approx(gap, abs=1e-13)
        assert 0.0 < report["gap_report"]["gap_lower_bound"] < gap

    def test_adds_no_eigensolve_above_the_onsite_dimension(self, monkeypatch):
        # one fit of random_chain_model(9, 0.01, seed=0) made 174 eigvalsh
        # and eigh calls above M = 2 before the bound, which adds one at M,
        # for delta.  172 since the sweep bounds what lies above EXACT_DIM:
        # the last step's gap, by the bound from its subintervals' rows, and
        # the full-chain potential's ledger row, by its Frobenius norm, take
        # no eigvalsh at D = 512
        model = random_chain_model(9, 0.01, seed=0)
        sizes = []
        for name in ("eigvalsh", "eigh"):
            def counted(a, *args, _solve=getattr(np.linalg, name), **kwargs):
                sizes.append(np.shape(a)[-1])
                return _solve(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        BlockDiagonalizer().fit(model)
        assert sum(size > model.M for size in sizes) == 172

    def test_a_dense_n9_fit_diagonalizes_the_whole_space_twice(self, eigvalsh_sizes):
        # at D = 512 only K's excited spectrum (certify) and the oracle's ED
        # remain: the gap reported and its independent yardstick
        BlockDiagonalizer().fit(random_chain_model(9, 0.01, seed=0))
        assert eigvalsh_sizes.count(512) == 2 and max(eigvalsh_sizes) == 512

    def test_saturates_at_the_largest_float(self):
        # two block-diagonal interactions at t = 1e308 meet on site 1, so
        # |t| (c_[1,2] + c_[1,6]) = 2e308 lies past the float range
        V16 = np.zeros((64, 64))
        V16[63, 63] = 1.0
        model = build_chain_model(6, 2, np.diag([0.0, 1.0]),
                                  {Interval(5, 1): V16, Interval(1, 1): np.diag([0.0, 0.0, 1.0, 0.0])},
                                  1e308, kbar=5)
        report, code = run(model, SeriesControls())
        assert code == 0
        assert report["gap_report"]["gap_lower_bound"] == -sys.float_info.max
        assert report["gap_report"]["residual_term"] == 0.0
        assert json.loads(emit(report))["gap_report"]["gap_lower_bound"] == -sys.float_info.max


def _assert_step_bounds(model, controls=SeriesControls()):
    """Sweep ``model`` step by step: each step's bound from the ledger rows
    of its subintervals lies at most at the gap of its G from a dense
    eigvalsh, and where it is positive the vacuum is G's ground state.  Above
    EXACT_DIM a bound that reaches gap_min is the gap the step reports; any
    other step reports the exact gap."""
    state = initial_state(model)
    for I in iter_steps(model.N):
        vac = build_projectors(I, model.omega)
        G = local_hamiltonian(state, model, I, vac).matrix
        levels = np.linalg.eigvalsh(G)
        scale = max(1.0, float(np.max(np.abs(levels))))
        bound = step_gap_bound(state, model, I)
        assert bound <= levels[1] - levels[0], I
        if bound > 0:
            assert abs(vacuum_energy(G, vac) - levels[0]) <= 1e-12 * scale, I
        state = advance(state, model, controls)
        reported = state.diagnostics[-1].gap
        if I.dim(model.M) > EXACT_DIM and bound >= controls.gap_min:
            assert reported == bound, I
        else:
            assert abs(reported - (levels[1] - levels[0])) <= 1e-12 * scale, I


def _long_range_chain(t: float, sites: tuple[int, int]) -> ChainModel:
    """N = 9, M = 2, on-site diag(0, 1) and two interactions alone, on sites
    1-8 and 2-9: each is -|x><x| for x the basis state with one site
    excited, ``sites[0]`` and ``sites[1]``.  They are diagonal, so no step
    rotates, and no G but the last, the whole chain's, holds a potential:
    every other step has gap 1.  The last lowers those states by t each, to
    a gap of 1 - 2t where they are one state and 1 - t otherwise, and its
    bound from the two rows (c = 1 each, both on sites 2-8) is 1 - 2t."""
    interactions = {}
    for q, site in zip((1, 2), sites):
        V = np.zeros((256, 256))
        index = 1 << (8 - 1 - (site - q))  # sites are bits, the first the highest
        V[index, index] = -1.0
        interactions[Interval(7, q)] = V
    return build_chain_model(9, 2, np.diag([0.0, 1.0]), interactions, t, kbar=7)


class TestStepBound:
    """Above EXACT_DIM a step whose bound from the rows of its subintervals
    reaches gap_min takes no eigvalsh; the bound is K's per-site bound on the
    step interval."""

    @settings(max_examples=10, deadline=None)
    @given(N=st.integers(3, 6), M=st.sampled_from([2, 3]), kbar=st.sampled_from([1, 2]),
           t=st.floats(-0.1, 0.1).filter(lambda t: t == 0.0 or abs(t) >= 1e-300),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_lies_below_each_step_gap(self, N, M, kbar, t, seed):
        _assert_step_bounds(non_basis_vacuum_model(N, M, kbar, t, seed))

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_lies_below_each_step_gap_on_every_config(self, config):
        source = load_model(config)
        _assert_step_bounds(source.reduce().chain if config.stem.startswith("kitaev") else source)

    def test_lies_below_each_step_gap_on_frobenius_rows(self):
        # N = 10: the last step's bound reads the Frobenius rows of the two
        # potentials of dimension 512, and that step's 1024 exceeds EXACT_DIM
        _assert_step_bounds(ising_chain_model(10, 0.1))

    def test_reports_the_exact_gap_where_the_bound_falls_below_gap_min(self):
        # the last step's bound is 1 - 2t = 0.6 and its gap 1 - t = 0.8:
        # the bound below gap_min = 0.7 sends the step to the eigensolve
        model = _long_range_chain(0.2, (4, 6))
        gaps = {}
        for gap_min in (0.5, 0.7):
            state = sweep(model, SeriesControls(gap_min=gap_min))
            assert [d.gap for d in state.diagnostics[:-1]] == pytest.approx([1.0] * 35, abs=1e-12)
            gaps[gap_min] = state.diagnostics[-1].gap
        assert gaps[0.5] == pytest.approx(0.6, abs=1e-9) and gaps[0.5] < 0.6
        assert gaps[0.7] == pytest.approx(0.8, abs=1e-12)

    def test_a_gap_below_gap_min_fails_as_the_eigensolve_reports_it(self):
        # both potentials lower the state with site 5 excited: the last
        # step's gap is 0.6 < gap_min, which its eigensolve reports, with
        # the reason, value and exit code of the exact gap check
        model = _long_range_chain(0.2, (5, 5))
        controls = SeriesControls(gap_min=0.7)
        with pytest.raises(GapError) as info:
            sweep(model, controls)
        err = info.value
        assert (err.step, err.reason) == (Interval(8, 1), "gap-too-small")
        assert err.value == pytest.approx(0.6, abs=1e-12)
        report, code = run(model, controls)
        assert code == GapError.exit_code == 4
        assert report["error"]["step"] == [8, 1]
        assert report["error"]["message"] == (
            f"local gap {err.value:.6f} fell below the abort threshold 0.7")
