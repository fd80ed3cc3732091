import dataclasses

import numpy as np
import pytest

from conftest import SX, anchor_model, embed_full, ising_bdg, ising_chain_model, non_basis_vacuum_model
from lieschwinger import estimator
from lieschwinger.certify import certify
from lieschwinger.errors import DimensionError
from lieschwinger.estimator import BlockDiagonalizer
from lieschwinger.intervals import Interval
from lieschwinger.model import build_chain_model, random_chain_model
from lieschwinger.oracle import (
    assemble_direct,
    compare,
    degeneracy_of_spectrum,
    ed_spectrum,
)
from lieschwinger.sweep import SeriesControls, initial_state, sweep


def test_zero_coupling_spectrum_is_digit_sums():
    model = random_chain_model(3, 0.0, seed=0)
    np.testing.assert_allclose(ed_spectrum(model), [0, 1, 1, 1, 2, 2, 2, 3], atol=1e-12)


def test_anchor_spectrum_closed_form():
    model = anchor_model(0.1)
    s = np.sqrt(1.01)
    np.testing.assert_allclose(ed_spectrum(model), [1 - s, 0.9, 1.1, 1 + s], atol=1e-12)


def test_eigenvalue_count():
    model = random_chain_model(5, 1e-2, seed=1)
    assert ed_spectrum(model).shape == (2 ** 5,)


def test_spectrum_stable_under_interaction_order():
    rng = np.random.default_rng(7)
    mats = {}
    for q in (1, 2, 3):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        V = (A + A.conj().T) / 2
        mats[Interval(1, q)] = V / np.max(np.abs(np.linalg.eigvalsh(V)))
    onsite = np.diag([0.0, 1.0])
    forward = build_chain_model(4, 2, onsite, dict(mats), t=0.05)
    reversed_ = build_chain_model(4, 2, onsite, dict(reversed(list(mats.items()))), t=0.05)
    np.testing.assert_allclose(ed_spectrum(forward), ed_spectrum(reversed_), atol=1e-12)


def test_compare_zero_coupling():
    model = random_chain_model(3, 0.0, seed=2)
    state = sweep(model)
    out = compare(certify(state, model), model)
    assert out.spectrum_distance == pytest.approx(0.0, abs=1e-12)
    assert out.gap_ed == pytest.approx(1.0, abs=1e-12)
    assert out.ground_degeneracy == 1


def test_compare_anchor():
    model = anchor_model(0.1)
    state = sweep(model)
    out = compare(certify(state, model), model)
    assert out.gap_ed == pytest.approx(np.sqrt(1.01) - 0.1, abs=1e-12)
    assert out.blockwise_match
    assert out.spectrum_distance <= 1e-9


def test_blockwise_match_follows_tol_od(monkeypatch):
    # the certified ground energy matches within the fit's tol_od, not a
    # second fixed tolerance
    model = anchor_model(0.1)
    state = sweep(model)
    report = certify(state, model)
    ground = compare(report, model).ground_ed
    near = dataclasses.replace(report, ground_energy=ground + 1e-9)
    assert compare(near, model).blockwise_match
    assert not compare(near, model, tol_od=1e-10).blockwise_match
    assert compare(dataclasses.replace(report, ground_energy=ground + 1e-6), model,
                   tol_od=1e-5).blockwise_match
    seen = []

    def recording_compare(*args, **kwargs):
        seen.append(kwargs.get("tol_od"))
        return compare(*args, **kwargs)

    monkeypatch.setattr(estimator, "compare", recording_compare)
    BlockDiagonalizer(SeriesControls(tol_od=1e-5)).fit(model)
    assert seen == [1e-5]


@pytest.mark.parametrize("seed", range(3))
def test_compare_random_models(seed):
    model = random_chain_model(5, 1e-3, seed=seed)
    state = sweep(model)
    out = compare(certify(state, model), model)
    assert out.spectrum_distance <= 1e-9
    assert out.ground_degeneracy == 1
    assert out.blockwise_match


def test_degeneracy_zero_coupling():
    model = random_chain_model(3, 0.0, seed=3)
    assert degeneracy_of_spectrum(ed_spectrum(model)) == 1


def test_degeneracy_counts_clusters():
    assert degeneracy_of_spectrum(np.array([0.0, 1e-10, 5e-10, 1.0])) == 3
    assert degeneracy_of_spectrum(np.array([0.0, 1e-8, 1.0])) == 1
    # one level is every eigenvalue within the tolerance of its lowest, not a
    # chain of eigenvalues each within the tolerance of the next
    assert degeneracy_of_spectrum(np.array([0.0, 0.6e-9, 1.2e-9, 1.0])) == 2


def test_dimension_guard():
    model = random_chain_model(13, 1e-3, seed=0)
    with pytest.raises(DimensionError):
        ed_spectrum(model)


def test_direct_assembly_agrees_with_engine_embedding():
    # the two independent embedding implementations must produce the same
    # matrix on the untouched initial state
    from lieschwinger.sweep import assemble_full
    model = random_chain_model(4, 0.7, seed=4, kbar=2)
    np.testing.assert_allclose(
        assemble_direct(model), assemble_full(initial_state(model), model), atol=1e-12
    )


@pytest.mark.parametrize("N, M, kbar", [(4, 2, 1), (5, 2, 2), (3, 3, 1), (4, 3, 2)])
def test_direct_assembly_equals_dense_identity_padding(N, M, kbar):
    # the diagonal-view assembly adds the same entries in the same order as
    # the sum of dense identity (x) term (x) identity products, so K is equal
    # entry for entry; the on-site matrix is not diagonal here
    model = dataclasses.replace(non_basis_vacuum_model(N, M, kbar, 0.07, seed=N + M + kbar),
                                energy_offset=-1.75)
    K = model.energy_offset * np.eye(M ** N, dtype=complex)
    for site in range(1, N + 1):
        K += embed_full(model.onsite, site, site, N, M)
    for iv, op in model.interactions.items():
        K += model.t * embed_full(op.matrix, iv.q, iv.last, N, M)
    assert np.count_nonzero(model.onsite - np.diag(np.diag(model.onsite)))
    assert np.array_equal(assemble_direct(model), K)


def test_offset_shifts_spectrum():
    base = anchor_model(0.1)
    shifted = build_chain_model(
        2, 2, np.diag([0.0, 1.0]), {Interval(1, 1): np.kron(SX, SX)},
        t=0.1, energy_offset=-3.0,
    )
    np.testing.assert_allclose(ed_spectrum(shifted), ed_spectrum(base) - 3.0, atol=1e-12)


@pytest.mark.parametrize("t", [0.1, 0.3, -0.2])
@pytest.mark.parametrize("N", [6, 8, 10])
def test_ising_free_fermion_reference_matches_ed(N, t):
    # conftest.ising_bdg, one eigvalsh at 2N, is exact at any N; here it
    # meets the oracle's ground energy and gap
    evals = ed_spectrum(ising_chain_model(N, t))
    ground, gap = ising_bdg(N, t)
    assert abs(ground - evals[0]) <= 1e-13
    assert abs(gap - (evals[1] - evals[0])) <= 1e-13
