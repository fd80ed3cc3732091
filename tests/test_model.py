import numpy as np
import pytest

from conftest import SX, anchor_model
from lieschwinger.errors import ValidationError
from lieschwinger.intervals import Interval
from lieschwinger.model import build_chain_model, random_chain_model


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
