"""Connected chain intervals and the block-diagonalization step order.

An interval with ``k`` edges and left endpoint ``q`` covers the contiguous
sites ``{q, ..., q+k}``.  Each sweep step is the interval it
block-diagonalizes, and ``iter_steps`` is the one definition of their
order: every interval of at least two sites, shorter first, then left to
right, which is also the tuple order of ``Interval``.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import ValidationError


class Interval(NamedTuple):
    """Contiguous sites {q, ..., q+k}; k counts edges, q the left endpoint."""

    k: int
    q: int

    def __str__(self) -> str:
        """The sites as a model file writes a support, ``[q, last]``."""
        return f"[{self.q}, {self.last}]"

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


def iter_steps(N: int) -> Iterator[Interval]:
    """The steps of an N-site sweep, (1, 1) through (N-1, 1), in sweep order."""
    if N < 2:
        raise ValidationError(f"chain needs at least 2 sites, got N={N}")
    return (Interval(k, q) for k in range(1, N) for q in range(1, N - k + 1))
