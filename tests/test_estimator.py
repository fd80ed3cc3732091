import numpy as np
import pytest

from conftest import anchor_model
from lieschwinger import estimator
from lieschwinger.errors import DimensionError, SeriesError, ValidationError
from lieschwinger.estimator import BlockDiagonalizer
from lieschwinger.model import random_chain_model
from lieschwinger.sweep import SeriesControls, sweep


def test_get_params_round_trip():
    controls = SeriesControls(jmax=12, tol_od=1e-7)
    est = BlockDiagonalizer(controls, oracle="off")
    params = est.get_params()
    assert params == {"controls": controls, "oracle": "off"}
    clone = BlockDiagonalizer(**params)
    assert clone.get_params() == params


def test_set_params_returns_self_and_validates():
    est = BlockDiagonalizer()
    controls = SeriesControls(gap_min=0.4)
    assert est.set_params(controls=controls) is est
    assert est.controls is controls
    with pytest.raises(ValueError, match="invalid parameter"):
        est.set_params(bogus=1)


def test_fit_anchor_attributes():
    est = BlockDiagonalizer().fit(anchor_model(0.1))
    assert est.ground_energy_ == pytest.approx(1 - np.sqrt(1.01), abs=1e-10)
    assert est.gap_ == pytest.approx(np.sqrt(1.01) - 0.1, abs=1e-10)
    assert est.comparison_.blockwise_match
    assert min(d.gap for d in est.state_.diagnostics) >= 0.5
    assert est.state_.step == (1, 1)


def test_oracle_off():
    est = BlockDiagonalizer(oracle="off").fit(anchor_model(0.1))
    assert est.comparison_ is None


def test_oracle_policy_validated():
    with pytest.raises(ValidationError, match="oracle"):
        BlockDiagonalizer(oracle="sometimes").fit(anchor_model(0.1))


def test_fit_propagates_series_failure():
    with pytest.raises(SeriesError):
        BlockDiagonalizer().fit(anchor_model(0.5))


def test_oversize_model_rejected_before_sweep():
    est = BlockDiagonalizer()
    with pytest.raises(DimensionError, match="8192"):
        est.fit(random_chain_model(13, 1e-3, seed=0))
    assert est.model_ is None and est.state_ is None


def test_controls_follow_params(monkeypatch):
    # the sweep runs the SeriesControls the estimator was given, as given
    controls = SeriesControls(jmax=30, tol_series=1e-10, tol_od=1e-6, gap_min=0.25)
    seen = []

    def recording_sweep(model, ctl):
        seen.append(ctl)
        return sweep(model, ctl)

    monkeypatch.setattr(estimator, "sweep", recording_sweep)
    BlockDiagonalizer(controls).fit(anchor_model(0.1))
    assert len(seen) == 1 and seen[0] is controls


@pytest.mark.parametrize("bad", [
    {"jmax": 2.5}, {"jmax": float("inf")}, {"jmax": "20"}, {"jmax": 0},
    {"tol_od": "1e-8"}, {"tol_series": None}, {"gap_min": 0.5j}, {"tol_od": float("nan")},
], ids=repr)
def test_bad_controls_raise_validation_error(bad):
    with pytest.raises(ValidationError):
        SeriesControls(**bad)
    est = BlockDiagonalizer(controls=bad)
    with pytest.raises(ValidationError, match="SeriesControls"):
        est.fit(anchor_model(0.1))
    assert est.state_ is None


def test_numpy_integer_jmax_accepted():
    assert SeriesControls(jmax=np.int64(7)).jmax == 7
    assert BlockDiagonalizer(SeriesControls(jmax=np.int32(20))).fit(anchor_model(0.1)).gap_ > 0


def test_refit_overwrites_state():
    est = BlockDiagonalizer()
    est.fit(random_chain_model(3, 1e-3, seed=0))
    first = est.ground_energy_
    est.fit(random_chain_model(3, 1e-3, seed=1))
    assert est.ground_energy_ != first
