import pytest

from lieschwinger.errors import ValidationError
from lieschwinger.intervals import (
    Interval,
    StepIndex,
    final_step,
    initial_step,
    iter_steps,
    step_count,
    successor,
)


def test_successor_examples():
    assert successor(StepIndex(0, 5), 5) == StepIndex(1, 1)
    assert successor(StepIndex(1, 1), 5) == StepIndex(1, 2)
    assert successor(StepIndex(2, 3), 5) == StepIndex(3, 1)


def test_successor_past_final_raises():
    with pytest.raises(ValidationError):
        successor(StepIndex(4, 1), 5)


@pytest.mark.parametrize("N,count", [(2, 1), (5, 10), (8, 28)])
def test_step_count(N, count):
    assert step_count(N) == count


def test_step_count_rejects_tiny_chain():
    with pytest.raises(ValidationError):
        step_count(1)


@pytest.mark.parametrize("N", range(2, 9))
def test_successor_enumerates_each_step_once(N):
    seen = list(iter_steps(N))
    assert len(seen) == step_count(N)
    assert len(set(seen)) == len(seen)
    assert seen[0] == StepIndex(1, 1)
    assert seen[-1] == final_step(N)
    expected = {StepIndex(k, q) for k in range(1, N) for q in range(1, N - k + 1)}
    assert set(seen) == expected
    # the order is strictly increasing
    prev = initial_step(N)
    for s in seen:
        assert s > prev
        prev = s


def test_interval_geometry():
    iv = Interval(2, 3)
    assert list(iv.sites) == [3, 4, 5]
    assert iv.last == 5
    assert iv.dim(2) == 8
    assert iv.contains(Interval(1, 3))
    assert iv.contains(Interval(1, 4))
    assert not iv.contains(Interval(2, 4))
    assert iv.fits(5) and not iv.fits(4)

