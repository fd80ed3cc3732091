import pickle
from dataclasses import replace

import numpy as np
import pytest

from conftest import SX, anchor_model, near_hermitian_chain_file
from lieschwinger.certify import certify
from lieschwinger.cli import load_model
from lieschwinger.estimator import BlockDiagonalizer
from lieschwinger.errors import ValidationError
from lieschwinger.intervals import Interval
from lieschwinger.model import build_chain_model, random_chain_model, validate_chain_model
from lieschwinger.oracle import compare
from lieschwinger.sweep import sweep


def test_anchor_model_validates():
    m = anchor_model()
    assert m.N == 2 and m.M == 2 and m.kbar == 1
    np.testing.assert_allclose(m.omega, [1.0, 0.0])


def test_rejects_small_onsite_gap():
    with pytest.raises(ValidationError, match="gap"):
        build_chain_model(2, 2, np.diag([0.0, 0.5]),
                          {Interval(1, 1): np.kron(SX, SX)}, t=0.1)


def test_rejects_interaction_norm_above_one():
    with pytest.raises(ValidationError, match="norm"):
        build_chain_model(2, 2, np.diag([0.0, 1.0]),
                          {Interval(1, 1): 1.2 * np.kron(SX, SX)}, t=0.1)


def test_rejects_negative_onsite():
    with pytest.raises(ValidationError, match="zero eigenvalue|semidefinite"):
        build_chain_model(2, 2, np.diag([-0.5, 1.0]),
                          {Interval(1, 1): np.kron(SX, SX)}, t=0.1)


def test_rejects_missing_kernel():
    with pytest.raises(ValidationError):
        build_chain_model(2, 2, np.diag([0.3, 1.3]),
                          {Interval(1, 1): np.kron(SX, SX)}, t=0.1)


def test_rejects_non_hermitian_interaction():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValidationError, match="Hermitian"):
        build_chain_model(2, 2, np.diag([0.0, 1.0]),
                          {Interval(1, 1): np.kron(bad, np.eye(2))}, t=0.1)


@pytest.mark.parametrize("operand,defect,error", [
    ("onsite", 5e-9, None),
    ("onsite", 2e-8, "on-site matrix is not Hermitian"),
    # an interaction of entry scale 10 passes the rule only to fail its norm bound
    ("interaction", 5e-9, "norm 10"),
    ("interaction", 2e-8, "interaction on .* is not Hermitian"),
])
def test_hermiticity_is_relative_to_the_entry_scale(operand, defect, error):
    H, V = np.diag([0.0, 10.0]), np.kron(SX, SX)
    if operand == "interaction":
        V = 10 * V
    (H if operand == "onsite" else V)[0, 1] += defect
    if error is None:
        build_chain_model(2, 2, H, {Interval(1, 1): V}, t=0.1)
        return
    with pytest.raises(ValidationError, match=error):
        build_chain_model(2, 2, H, {Interval(1, 1): V}, t=0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("operand,entry", [
    pytest.param("on-site matrix", (1, 1), id="onsite-diagonal"),
    pytest.param("on-site matrix", (0, 1), id="onsite-off-diagonal"),
    pytest.param("interaction", (0, 0), id="interaction-diagonal"),
    pytest.param("interaction", (1, 2), id="interaction-off-diagonal")])
def test_rejects_non_finite_entries(operand, entry, value):
    H, V = np.diag([0.0, 1.0]).astype(complex), np.kron(SX, SX).astype(complex)
    (H if operand == "on-site matrix" else V)[entry] = value
    with pytest.raises(ValidationError, match=f"^{operand}.*: matrix entries must be finite"):
        build_chain_model(2, 2, H, {Interval(1, 1): V}, t=0.1)


def test_validation_rejects_non_finite_onsite_of_a_built_model():
    model = replace(anchor_model(), onsite=np.diag([0.0, np.inf]).astype(complex))
    with pytest.raises(ValidationError, match="on-site matrix: matrix entries must be finite"):
        validate_chain_model(model)


def test_rejects_an_interaction_that_is_no_square_matrix():
    # a 2 x 2 x 2 array is not read as a pair of parity blocks
    with pytest.raises(ValidationError, match="square matrix"):
        build_chain_model(3, 2, np.diag([0.0, 1.0]), {Interval(1, 1): np.zeros((2, 2, 2))}, 0.1)


def test_rejects_support_outside_chain():
    with pytest.raises(ValidationError, match="fit"):
        build_chain_model(2, 2, np.diag([0.0, 1.0]),
                          {Interval(1, 2): np.kron(SX, SX)}, t=0.1)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_rejects_non_finite_coupling(t):
    with pytest.raises(ValidationError, match="finite"):
        build_chain_model(2, 2, np.diag([0.0, 1.0]),
                          {Interval(1, 1): np.kron(SX, SX)}, t=t)


def test_random_model_reproducible():
    a = random_chain_model(4, 1e-3, seed=11)
    b = random_chain_model(4, 1e-3, seed=11)
    for iv in a.interactions:
        np.testing.assert_array_equal(a.interactions[iv].matrix, b.interactions[iv].matrix)
    assert a.seed_info == {"generator": "numpy.default_rng(PCG64)", "seed": 11}


def test_random_model_interactions_unit_norm():
    m = random_chain_model(5, 1e-3, seed=3)
    for op in m.interactions.values():
        assert np.max(np.abs(np.linalg.eigvalsh(op.matrix))) == pytest.approx(1.0)


def test_near_hermitian_interactions_stored_exactly_hermitian(tmp_path):
    # accepted within tolerance, then stored as (m + m^dag)/2, so the sweep
    # and the oracle read the same operator
    model = load_model(near_hermitian_chain_file(tmp_path / "near.json"))
    state = sweep(model)
    assert compare(certify(state, model), model).spectrum_distance <= 1e-12
    for op in model.interactions.values():
        assert np.array_equal(op.matrix, op.matrix.conj().T)


def test_exactly_hermitian_input_stored_unchanged():
    base = random_chain_model(4, 0.1, M=3, kbar=2, seed=4)
    given = {iv: op.matrix.copy() for iv, op in base.interactions.items()}
    rebuilt = build_chain_model(4, 3, base.onsite, given, 0.1, 2)
    for iv, op in rebuilt.interactions.items():
        assert np.array_equal(op.matrix, given[iv])
    assert np.array_equal(rebuilt.onsite, base.onsite)
    assert np.array_equal(rebuilt.omega, base.omega)


def test_onsite_matrix_of_a_built_model_cannot_be_edited_in_place():
    # delta, omega and exactly_even are cached on first read: an on-site
    # entry changed in place after a fit would leave them stale, and the
    # refit would certify delta = 2 against an exact gap of 0.84
    onsite = np.diag([0.0, 2.0])
    model = build_chain_model(4, 2, onsite, {Interval(1, q): np.kron(SX, SX) for q in (1, 2, 3)},
                              t=0.1)
    BlockDiagonalizer().fit(model)
    with pytest.raises(ValueError, match="read-only"):
        model.onsite[1, 1] = 1.0
    onsite[1, 1] = 1.0  # the model keeps its own copy
    assert model.onsite[1, 1] == 2.0 and model.onsite_gap == pytest.approx(2.0)


def test_a_model_pickles_with_its_onsite_matrix_read_only():
    # fits may run in parallel across models, each model pickled to a worker
    model = random_chain_model(4, 0.03, seed=1)
    assert model.exactly_even is False
    copy = pickle.loads(pickle.dumps(model))
    assert np.array_equal(copy.onsite, model.onsite) and not copy.onsite.flags.writeable
    assert copy.interactions.keys() == model.interactions.keys()
    with pytest.raises(ValueError, match="read-only"):
        copy.onsite[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        replace(model, t=0.05).onsite[0, 0] = 1.0
