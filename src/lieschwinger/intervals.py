"""Connected chain intervals and the block-diagonalization step order.

An interval with ``k`` edges and left endpoint ``q`` covers the contiguous
sites ``{q, ..., q+k}``.  Steps are labelled by the interval they
block-diagonalize and are swept in the total order "shorter first, then
left to right"; the distinguished label ``(0, N)`` precedes every step.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import ValidationError


class Interval(NamedTuple):
    """Contiguous sites {q, ..., q+k}; k counts edges, q the left endpoint."""

    k: int
    q: int

    @property
    def last(self) -> int:
        return self.q + self.k

    @property
    def sites(self) -> range:
        return range(self.q, self.q + self.k + 1)

    def dim(self, M: int) -> int:
        return M ** (self.k + 1)

    def contains(self, other: "Interval") -> bool:
        return self.q <= other.q and other.last <= self.last

    def fits(self, N: int) -> bool:
        return self.q >= 1 and self.last <= N


class StepIndex(NamedTuple):
    """Sweep step label (k, q); tuple comparison realizes the step order."""

    k: int
    q: int


def initial_step(N: int) -> StepIndex:
    return StepIndex(0, N)


def final_step(N: int) -> StepIndex:
    return StepIndex(N - 1, 1)


def successor(step: StepIndex, N: int) -> StepIndex:
    """Next step in the order: (0,N) -> (1,1), (k,q) -> (k,q+1), (k,N-k) -> (k+1,1)."""
    k, q = step
    if k == 0:
        return StepIndex(1, 1)
    if step >= final_step(N):
        raise ValidationError(f"sweep complete: {step} has no successor for N={N}")
    if q < N - k:
        return StepIndex(k, q + 1)
    return StepIndex(k + 1, 1)


def step_count(N: int) -> int:
    """Number of steps from (1,1) through (N-1,1), i.e. N(N-1)/2."""
    if N < 2:
        raise ValidationError(f"chain needs at least 2 sites, got N={N}")
    return N * (N - 1) // 2


def iter_steps(N: int) -> Iterator[StepIndex]:
    """All steps after (0,N) in sweep order."""
    step = initial_step(N)
    for _ in range(step_count(N)):
        step = successor(step, N)
        yield step
