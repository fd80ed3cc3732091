"""Estimator-style front end over the sweep engine, and the one run pipeline.

Follows the scikit-learn parameter protocol (constructor hyperparameters,
``fit`` returning self, fitted attributes with trailing underscores,
``get_params`` / ``set_params``) so runs compose with grid tooling.  There
is no transform or predict surface: the accumulated global unitary is never
materialized, so the fitted artifacts are the state, the gap report, and
the optional oracle comparison, which reads the gap report's spectrum
rather than the state.  ``fit`` is the one run pipeline; the command line
calls it and only serializes what it fitted.
"""

from __future__ import annotations

import time

from .certify import certify
from .errors import ValidationError
from .model import ChainModel, validate_chain_model
from .operators import dense_dim
from .oracle import compare
from .sweep import SeriesControls, sweep

ORACLE_POLICIES = ("auto", "force", "off")


class BlockDiagonalizer:
    """Fit the block-diagonalizing sweep to a chain model and certify it.

    Parameters are the sweep's SeriesControls and the oracle policy: "auto"
    runs exact diagonalization when the full space fits the dense guard,
    "force" always runs it, "off" never does.  ``fit`` accepts only models
    whose full space fits the guard, so today "auto" and "force" both run it.
    """

    def __init__(self, controls=SeriesControls(), oracle="auto"):
        self.controls = controls
        self.oracle = oracle

    _param_names = ("controls", "oracle")

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(f"invalid parameter {name!r} for BlockDiagonalizer")
            setattr(self, name, value)
        return self

    def fit(self, model: ChainModel):
        """Validate, sweep, certify and, per the oracle policy, compare.

        A model whose full space exceeds the dense guard is rejected with
        DimensionError before the sweep starts, since certification must
        assemble that space anyway.

        Each fitted attribute is set as its stage completes, so after a
        failed fit the stages not reached are None."""
        self.model_ = self.state_ = self.report_ = self.comparison_ = None
        self.timings_ = {}
        if self.oracle not in ORACLE_POLICIES:
            raise ValidationError(f"oracle policy {self.oracle!r} not in auto/force/off")
        if not isinstance(self.controls, SeriesControls):
            raise ValidationError(f"controls must be a SeriesControls, got {self.controls!r}")
        validate_chain_model(model)
        dense_dim(model.M, model.N)
        self.model_ = model
        started = time.perf_counter()
        self.state_ = sweep(model, self.controls)
        self.timings_["sweep_s"] = time.perf_counter() - started
        self.report_ = certify(self.state_, model, self.controls.tol_od)
        if self.oracle != "off":
            self.comparison_ = compare(self.report_, model, tol_od=self.controls.tol_od)
        return self

    @property
    def ground_energy_(self) -> float:
        return self.report_.ground_energy

    @property
    def gap_(self) -> float:
        return self.report_.gap
