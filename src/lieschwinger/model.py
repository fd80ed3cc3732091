"""Chain model container, validation, and reproducible random models.

A valid model has a positive semidefinite on-site matrix with a
one-dimensional kernel, on-site gap at least 1 above the kernel, and
interaction terms of operator norm at most 1 supported on contiguous
intervals of at most ``kbar`` edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .intervals import Interval
from .operators import BOUND_MARGIN, LocalOperator, op_norm, parity_even, require_hermitian

ONSITE_GAP_MIN = 1.0
_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChainModel:
    """N sites of local dimension M with on-site term ``onsite`` and
    interval-supported interactions scaled by the coupling t.

    ``energy_offset`` is an additive constant carried through assembly and
    reporting (used by restricted Kitaev models); it shifts every eigenvalue
    and no gap.
    """

    N: int
    M: int
    onsite: np.ndarray
    interactions: dict[Interval, LocalOperator]
    t: float
    kbar: int
    energy_offset: float = 0.0
    seed_info: dict = field(default_factory=dict)

    @cached_property
    def omega(self) -> np.ndarray:
        """The on-site vacuum, derived from ``onsite`` (``ground_vector``)."""
        return ground_vector(self.onsite)

    @cached_property
    def onsite_gap(self) -> float:
        """delta, the on-site gap every gap bound reads (``sweep.gap_bound``):
        the gap above the lowest eigenvalue of ``onsite``, less BOUND_MARGIN
        of its norm for rounding, from one eigvalsh, taken once."""
        levels = np.linalg.eigvalsh(self.onsite)
        return float(levels[1] - levels[0]) - BOUND_MARGIN * float(np.max(np.abs(levels)))

    @cached_property
    def exactly_even(self) -> bool:
        """Whether the sweep keeps every potential as its two parity blocks:
        M = 2, exact 0.0 entries across the popcount-parity split in the
        on-site matrix and in every interaction (``operators.parity_even``),
        and omega a basis vector.  Every vacuum is then a basis vector, and
        every generator and potential of the sweep stays exactly even."""
        return (self.M == 2 and np.count_nonzero(self.omega) == 1
                and parity_even(self.onsite)
                and all(parity_even(op.matrix) for op in self.interactions.values()))


def _require_finite(m: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{what}: matrix entries must be finite")


def ground_vector(onsite: np.ndarray) -> np.ndarray:
    """Normalized lowest eigenvector of the on-site matrix, phase-fixed."""
    v = np.linalg.eigh(onsite)[1][:, 0]
    pivot = v[int(np.argmax(np.abs(v)))]
    return v * (pivot.conjugate() / abs(pivot))


def build_chain_model(N, M, onsite, interactions, t, kbar=None,
                      energy_offset=0.0, seed_info=None) -> ChainModel:
    """Assemble and validate a ChainModel; interactions as {Interval: matrix}."""
    onsite = np.asarray(onsite, dtype=complex)
    ops = {}
    for iv, mat in interactions.items():
        iv = Interval(*iv)
        ops[iv] = mat if isinstance(mat, LocalOperator) else LocalOperator(iv, mat)
    if kbar is None:
        kbar = max((iv.k for iv in ops), default=1)
    model = ChainModel(
        N=int(N), M=int(M), onsite=onsite, interactions=ops, t=float(t), kbar=int(kbar),
        energy_offset=float(energy_offset), seed_info=dict(seed_info or {}),
    )
    validate_chain_model(model)
    # validated as given, stored exactly Hermitian: the sweep and the oracle
    # must read one operator
    onsite = (onsite + onsite.conj().T) / 2
    return replace(model, onsite=onsite, interactions={
        iv: LocalOperator(iv, (op.matrix + op.matrix.conj().T) / 2) for iv, op in ops.items()})


def validate_chain_model(model: ChainModel) -> None:
    """Raise ValidationError naming the first violated model constraint; each
    matrix is checked finite, Hermitian (``require_hermitian``), then bounded."""
    if not isinstance(model, ChainModel):
        raise ValidationError(
            f"expected a ChainModel, got {type(model).__name__}; the chain of a Kitaev "
            "file is KitaevModel.reduce().at(beta)[0]")
    if model.N < 2:
        raise ValidationError(f"need at least 2 sites, got N={model.N}")
    if model.M < 2:
        raise ValidationError(f"need on-site dimension >= 2, got M={model.M}")
    if not np.isfinite(model.t):
        raise ValidationError(f"coupling t must be finite, got t={model.t}")
    H = model.onsite
    if H.shape != (model.M, model.M):
        raise ValidationError(f"on-site matrix shape {H.shape} does not match M={model.M}")
    _require_finite(H, "on-site matrix")
    require_hermitian(H, "on-site matrix is not Hermitian")
    evals = np.linalg.eigvalsh(H)
    if evals[0] < -_TOL:
        raise ValidationError(f"on-site matrix not positive semidefinite: min {evals[0]:.3e}")
    if abs(evals[0]) > _TOL:
        raise ValidationError("on-site matrix has no zero ground eigenvalue")
    if evals.shape[0] < 2 or evals[1] < ONSITE_GAP_MIN - _TOL:
        raise ValidationError(
            f"on-site gap {evals[1]:.6f} is below the required minimum {ONSITE_GAP_MIN}"
        )
    for iv, op in model.interactions.items():
        if iv.k == 0:
            raise ValidationError(f"interaction support {iv} spans one site; an interaction "
                                  "must span at least two sites")
        if iv.k < 1 or not iv.fits(model.N):
            raise ValidationError(f"interaction support {iv} does not fit a chain of {model.N} sites")
        if iv.k > model.kbar:
            raise ValidationError(f"interaction support {iv} exceeds max range kbar={model.kbar}")
        # M >= 2, so M**n >= 2**n exceeds op.dim once n reaches its bit length
        n = iv.k + 1
        if n >= op.dim.bit_length() or model.M ** n != op.dim:
            raise ValidationError(
                f"interaction on {iv} has dimension {op.dim}, expected {model.M}**{n}")
        _require_finite(op.matrix, f"interaction on {iv}")
        require_hermitian(op.matrix, f"interaction on {iv} is not Hermitian")
        norm = op_norm(op)
        if norm > 1.0 + _TOL:
            raise ValidationError(f"interaction on {iv} has norm {norm:.6f} > 1")


def random_chain_model(N, t, M=2, kbar=1, seed=0) -> ChainModel:
    """Reproducible random model: on-site diag(0, 1, ..., M-1), Hermitian
    interactions drawn as (A + A^dag)/2 and normalized to unit norm.

    The generator name and seed are recorded on the model for reports.
    """
    rng = np.random.default_rng(seed)
    onsite = np.diag(np.arange(M, dtype=float)).astype(complex)
    interactions = {}
    for k in range(1, kbar + 1):
        for q in range(1, N - k + 1):
            d = M ** (k + 1)
            A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            V = (A + A.conj().T) / 2
            V = V / op_norm(V)
            interactions[Interval(k, q)] = V
    return build_chain_model(
        N, M, onsite, interactions, t, kbar,
        seed_info={"generator": "numpy.default_rng(PCG64)", "seed": int(seed)},
    )
