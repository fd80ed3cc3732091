"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
line per criterion alongside the pytest verdicts.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import (anchor_model, check_series_majorant, d_modes, dense_generator,
                      dense_spectrum, doubling_check, kitaev_spectrum_expected,
                      kron_fermion_algebra, projector_inequalities, random_bulk_perturbation,
                      run_series, s_term_norms, solve_majorant)
from lieschwinger import kitaev as kit
from lieschwinger.certify import GapReport, certify
from lieschwinger.intervals import Interval, iter_steps
from lieschwinger.model import ChainModel, random_chain_model
from lieschwinger.operators import LocalOperator, build_projectors, embed, op_norm, unitary_exp
from lieschwinger.oracle import OracleComparison, compare
from lieschwinger.sweep import (
    BlockDiagState,
    SeriesControls,
    advance,
    assemble_full,
    initial_state,
    local_hamiltonian,
    sweep,
    vacuum_energy,
)

SUITE_NS = (3, 4, 5, 6)
SUITE_SEEDS = range(20)
SUITE_TS = (1e-3, 1e-2)


@dataclass
class SuiteRun:
    model: ChainModel
    state: BlockDiagState
    report: GapReport
    comparison: OracleComparison


@pytest.fixture(scope="module")
def suite():
    """Twenty random nearest-neighbor models per size and coupling."""
    runs = {}
    started = time.perf_counter()
    for N in SUITE_NS:
        for seed in SUITE_SEEDS:
            for t in SUITE_TS:
                model = random_chain_model(N, t, seed=seed)
                state = sweep(model)
                report = certify(state, model)
                comparison = compare(report, model)
                runs[(N, seed, t)] = SuiteRun(model, state, report, comparison)
    elapsed = time.perf_counter() - started
    return runs, elapsed


def test_ac1_closed_form_anchor():
    started = time.perf_counter()
    model = anchor_model(0.1)
    state = sweep(model)
    report = certify(state, model)
    comparison = compare(report, model)
    elapsed = time.perf_counter() - started
    ground = 1 - np.sqrt(1.01)
    gap = np.sqrt(1.01) - 0.1
    assert abs(report.ground_energy - ground) <= 1e-8
    assert abs(report.gap - gap) <= 1e-8
    assert abs(comparison.ground_ed - ground) <= 1e-8
    assert abs(comparison.gap_ed - gap) <= 1e-8
    assert comparison.spectrum_distance <= 1e-8
    assert elapsed < 1.0
    print(f"\nAC-1 PASS: ground {report.ground_energy:.9f}, gap {report.gap:.9f}, "
          f"runtime {elapsed:.3f} s")


def test_ac2_unitary_invariance(suite):
    runs, elapsed = suite
    worst = max(r.comparison.spectrum_distance for r in runs.values())
    assert worst <= 1e-9
    assert elapsed < 120.0
    print(f"\nAC-2 PASS: {len(runs)} sweeps, worst spectrum distance {worst:.2e}, "
          f"suite runtime {elapsed:.1f} s")


def test_ac3_norm_ledger(suite):
    runs, _ = suite
    checked = violations = 0
    for (N, seed, t), r in runs.items():
        if t != 1e-3:
            continue
        for entry in r.report.ledger:
            checked += 1
            if not entry.ok:
                violations += 1
    assert checked > 0 and violations == 0
    print(f"\nAC-3 PASS: {checked} transported norms within "
          f"8 |t|^((r-1)/3)/(r+1)^2, zero violations")


def test_ac4_gap_claims(suite):
    runs, _ = suite
    n = 0
    for (N, seed, t), r in runs.items():
        if t != 1e-3:
            continue
        n += 1
        assert r.comparison.ground_degeneracy == 1
        assert r.report.unique_ground
        assert r.report.gap >= 0.5
        assert abs(r.report.gap - r.comparison.gap_ed) <= 1e-8
    print(f"\nAC-4 PASS: {n} models with unique ground state, "
          f"certified gap >= 1/2 matching exact diagonalization")


def test_ac5_per_step_gaps(suite):
    runs, _ = suite
    worst = 2.0
    steps = 0
    for (N, seed, t), r in runs.items():
        if t != 1e-3:
            continue
        for gap in (d.gap for d in r.state.diagnostics):
            steps += 1
            worst = min(worst, gap)
            assert gap >= 0.5
    print(f"\nAC-5 PASS: {steps} local Hamiltonians, smallest gap {worst:.4f} >= 1/2 "
          f"with vacuum ground state at every step")


def test_ac6_piecewise_conjugation_identity():
    worst = 0.0
    controls = SeriesControls()
    for N in (2, 3, 4, 5):
        model = random_chain_model(N, 1e-2, seed=100 + N)
        state = initial_state(model)
        chain = Interval(N - 1, 1)
        for _ in iter_steps(N):
            before = state
            state = advance(state, model, controls)
            I = state.step
            vac = build_projectors(I, model.omega)
            G = local_hamiltonian(before, model, I, vac)
            E = vacuum_energy(G.matrix, vac)
            dim = I.dim(model.M)
            V = (before.potentials[I].matrix if I in before.potentials
                 else np.zeros((dim, dim), dtype=complex))
            res = run_series(G.matrix, E, vac, V, model.t, controls)
            U = embed(LocalOperator(I, unitary_exp(dense_generator(res))), chain, model.M).matrix
            direct = U @ assemble_full(before, model).matrix @ U.conj().T
            dev = float(np.max(np.abs(assemble_full(state, model).matrix - direct)))
            worst = max(worst, dev)
            assert dev <= 1e-9
    print(f"\nAC-6 PASS: piecewise transport equals direct conjugation, "
          f"worst entrywise deviation {worst:.2e}")


def test_ac7_appendix_suite(suite):
    # projector inequalities over random on-site vacua
    checks = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        omega = rng.normal(size=2) + 1j * rng.normal(size=2)
        for n in range(2, 7):
            for r in range(1, min(3, n - 1) + 1):
                assert projector_inequalities(n, 2, r=r, omega=omega)
                checks += 1

    # majorant root reproduced by bisection to 1e-12 residual
    params = solve_majorant(1.0)
    residual = (np.exp(8 * params.a) - 8 * params.a - 1) / params.a \
        + np.exp(8 * params.a) - 2.0
    assert abs(residual) <= 1e-12
    assert abs(params.a - 0.0233) <= 1e-4

    # every series of the suite is dominated by its majorant, and the
    # generator terms obey the gap-controlled bound whenever the gap is at
    # least 1/2; each sweep is replayed step by step to read its series,
    # with B_1 = ||V|| taken here, since the sweep only bounds it
    runs, _ = suite
    controls = SeriesControls()
    series_checked = 0
    for r in runs.values():
        model = r.model
        state = initial_state(model)
        for _ in iter_steps(model.N):
            before = state
            state = advance(state, model, controls)
            diag = state.diagnostics[-1]
            I = diag.step
            if I not in before.potentials:
                continue
            vac = build_projectors(I, model.omega)
            G = local_hamiltonian(before, model, I, vac)
            V = before.potentials[I].matrix
            res = run_series(G.matrix, diag.E, vac, V, model.t, controls)
            vn = (op_norm(V),) + res.v_term_norms
            if vn[0] == 0.0:
                continue
            series_checked += 1
            assert check_series_majorant(vn, solve_majorant(vn[0], jmax=len(vn)))
            if diag.gap >= 0.5:
                for v, s in zip(vn, s_term_norms(res)):
                    assert s <= 4.0 * v * (1 + 1e-9)
        assert state.diagnostics == r.state.diagnostics
    print(f"\nAC-7 PASS: {checks} projector inequalities PSD, majorant root "
          f"a={params.a:.6f} (residual {abs(residual):.1e}), "
          f"{series_checked} series dominated")


def test_ac8_kitaev():
    # sweet-spot spectra with doubled binomial multiplicities
    for N in range(2, 9):
        ev = dense_spectrum(kit.kitaev_hamiltonian(N))
        assert np.max(np.abs(ev - kitaev_spectrum_expected(N))) <= 1e-9

    # algebra identities
    from test_kitaev import car_defect
    for N in (3, 6, 10):
        alg = kron_fermion_algebra(N)
        dm = d_modes(alg)
        assert car_defect(list(alg.c)) <= 1e-12
        assert car_defect(list(dm.d)) <= 1e-12
        for j in range(1, N):
            diff = alg.c[j - 1] - 0.5 * (dm.d[j] + dm.ddag(j) + dm.ddag(j - 1) - dm.d[j - 1])
            assert abs(diff.toarray()).max() <= 1e-12
        diff = alg.c[N - 1] - 0.5 * (dm.d[0] + dm.ddag(0) + dm.ddag(N - 1) - dm.d[N - 1])
        assert abs(diff.toarray()).max() <= 1e-12

    # doubling and certified gap for perturbed models
    beta = 0.01
    gaps = []
    for N in (5, 6):
        perts = [random_bulk_perturbation(N, seed=N * 10 + i, site=2 + i)
                 for i in range(2)]
        model = kit.build_kitaev_model(N, beta, perts)
        assert doubling_check(model)
        bulk, _ = kit.regroup_perturbations(model.N, model.perturbations)
        chain = kit.restricted_chain_model(model.N, bulk, beta)
        report = certify(sweep(chain), chain)
        comparison = compare(report, chain)
        assert report.gap >= 1.0
        assert comparison.spectrum_distance <= 1e-9
        gaps.append(report.gap)
    print(f"\nAC-8 PASS: spectra N=2..8 exact, algebra identities <= 1e-12, "
          f"doubling holds, certified gaps {[f'{g:.3f}' for g in gaps]} >= 1")


def test_ac9_robust_failure(tmp_path):
    from lieschwinger.cli import main

    def matrix_json(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]

    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    good = {
        "version": "1", "N": 2, "M": 2,
        "H": matrix_json(np.diag([0.0, 1.0])),
        "interactions": [{"support": [1, 2], "matrix": matrix_json(np.kron(sx, sx))}],
        "t": 0.1, "kbar": 1,
    }
    bad = dict(good)
    bad["H"] = matrix_json(np.diag([0.0, 0.5]))

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    out = tmp_path / "r1.json"
    assert main(["--config", str(bad_path), "--report", str(out)]) == 2
    rejected = json.loads(out.read_text())
    assert rejected["status"] == "failed"
    assert "gap" in rejected["error"]["message"]

    good_path = tmp_path / "good.json"
    good_path.write_text(json.dumps(good))
    out2 = tmp_path / "r2.json"
    assert main(["--config", str(good_path), "--t", "0.5", "--report", str(out2)]) == 3
    failed = json.loads(out2.read_text())
    assert failed["error"]["step"] == [1, 1]
    assert failed["error"]["type"] == "SeriesError"
    print("\nAC-9 PASS: sub-unit on-site gap rejected at load (exit 2); "
          "divergent series exits 3 naming step (1,1)")
