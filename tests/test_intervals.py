import pytest

from conftest import anchor_model
from lieschwinger.errors import ValidationError
from lieschwinger.intervals import Interval, iter_steps
from lieschwinger.sweep import advance, sweep


def test_successor_examples():
    steps = list(iter_steps(5))
    assert steps[0] == Interval(1, 1)
    assert steps[steps.index(Interval(1, 1)) + 1] == Interval(1, 2)
    assert steps[steps.index(Interval(2, 3)) + 1] == Interval(3, 1)


def test_successor_past_final_raises():
    # a complete sweep has no next step
    model = anchor_model(0.1)
    state = sweep(model)
    assert state.step == Interval(1, 1)
    with pytest.raises(ValidationError, match="sweep complete"):
        advance(state, model)


@pytest.mark.parametrize("N,count", [(2, 1), (5, 10), (8, 28)])
def test_step_count(N, count):
    assert len(list(iter_steps(N))) == count == N * (N - 1) // 2


def test_step_count_rejects_tiny_chain():
    with pytest.raises(ValidationError):
        iter_steps(1)


@pytest.mark.parametrize("N", range(2, 9))
def test_successor_enumerates_each_step_once(N):
    seen = list(iter_steps(N))
    assert len(set(seen)) == len(seen)
    assert seen[0] == Interval(1, 1)
    assert seen[-1] == Interval(N - 1, 1)
    expected = {Interval(k, q) for k in range(1, N) for q in range(1, N - k + 1)}
    assert set(seen) == expected
    # the order is Interval's own tuple order
    assert seen == sorted(seen)
    assert all(s.fits(N) and s.k >= 1 for s in seen)


def test_interval_geometry():
    iv = Interval(2, 3)
    assert list(iv.sites) == [3, 4, 5]
    assert iv.last == 5
    assert iv.dim(2) == 8
    assert iv.contains(Interval(1, 3))
    assert iv.contains(Interval(1, 4))
    assert not iv.contains(Interval(2, 4))
    assert iv.fits(5) and not iv.fits(4)


def test_str_is_the_model_file_support_form():
    # messages name a support as a model file writes it; repr keeps the fields
    iv = Interval(1, 2)
    assert str(iv) == f"{iv}" == "[2, 3]"
    assert repr(iv) == "Interval(k=1, q=2)"
