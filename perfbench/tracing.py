"""Spans and counters around the package's layers, for the traced run.

Each public function is wrapped where its caller looks it up: ``sweep``
imports ``conjugate_by_unitary`` into its own namespace, so the patch goes
on ``lieschwinger.sweep.conjugate_by_unitary``, not on ``operators``.  The
patches are installed only for the duration of one traced operation and
restored afterwards, so untraced operations run the package untouched.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
enclosing span (-1 at the top) and ``op`` is the operation it belongs to
(-1 during set-up).  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path on it, span name).  One span name may be patched at
# several lookup sites; no site is ever called from inside another with the
# same name, so inclusive totals never double count.
SITES = (
    ("lieschwinger.sweep", "conjugate_by_unitary", "operators.conjugate_by_unitary"),
    ("lieschwinger.sweep", "embed", "operators.embed"),
    ("lieschwinger.certify", "embed", "operators.embed"),
    ("lieschwinger.kitaev", "embed", "operators.embed"),
    ("lieschwinger.sweep", "unitary_exp", "operators.unitary_exp"),
    ("lieschwinger.sweep", "op_norm", "operators.op_norm"),
    ("lieschwinger.certify", "op_norm", "operators.op_norm"),
    ("lieschwinger.model", "op_norm", "operators.op_norm"),
    ("lieschwinger.sweep", "build_projectors", "operators.build_projectors"),
    ("lieschwinger.certify", "build_projectors", "operators.build_projectors"),
    ("lieschwinger.sweep", "local_hamiltonian", "sweep.local_hamiltonian"),
    ("lieschwinger.sweep", "vacuum_energy", "sweep.vacuum_energy"),
    ("lieschwinger.sweep", "local_gap", "sweep.local_gap"),
    ("lieschwinger.sweep", "generator_series", "sweep.generator_series"),
    ("lieschwinger.sweep", "diagonalized_potential", "sweep.diagonalized_potential"),
    ("lieschwinger.sweep", "advance", "sweep.advance"),
    ("lieschwinger.estimator", "sweep", "sweep.sweep"),
    ("lieschwinger.cli", "sweep", "sweep.sweep"),
    ("lieschwinger.sweep", "assemble_full", "sweep.assemble_full"),
    ("lieschwinger.certify", "assemble_full", "sweep.assemble_full"),
    ("numpy.linalg", "eigh", "linalg.eigensolve"),
    ("numpy.linalg", "eigvalsh", "linalg.eigensolve"),
    ("lieschwinger.estimator", "certify", "certify.certify"),
    ("lieschwinger.cli", "certify", "certify.certify"),
    ("lieschwinger.certify", "check_ledger", "certify.check_ledger"),
    ("lieschwinger.estimator", "compare", "oracle.compare"),
    ("lieschwinger.cli", "compare", "oracle.compare"),
    ("lieschwinger.oracle", "ed_spectrum", "oracle.ed_spectrum"),
    ("lieschwinger.oracle", "assemble_direct", "oracle.assemble_direct"),
    ("lieschwinger.kitaev", "build_kitaev_model", "kitaev.build_kitaev_model"),
    ("lieschwinger.kitaev", "regroup_perturbations", "kitaev.regroup_perturbations"),
    ("lieschwinger.kitaev", "restricted_chain_model", "kitaev.restricted_chain_model"),
    ("lieschwinger.kitaev", "doubling_check_terms", "kitaev.doubling_check_terms"),
    ("lieschwinger.kitaev", "boundary_gap_check", "kitaev.boundary_gap_check"),
    ("lieschwinger.kitaev", "zero_sector_basis", "kitaev.zero_sector_basis"),
    ("lieschwinger.cli", "load_model", "cli.load_model"),
    ("lieschwinger.cli", "run", "cli.run"),
    ("lieschwinger.cli", "emit", "cli.emit"),
    ("lieschwinger.estimator", "validate_chain_model", "estimator.validate"),
    ("lieschwinger.estimator", "BlockDiagonalizer.fit", "estimator.fit"),
    ("lieschwinger.model", "random_chain_model", "model.random_chain_model"),
)


def _conjugate(counts, args, result):
    counts["operators.conjugate_gflop"] += 16 * args[0].shape[0] ** 3 / 1e9


def _series(counts, args, result):
    counts["sweep.series_order_sum"] += result.order


def _local_dim(counts, args, result):
    counts["sweep.max_local_dim"] = max(counts["sweep.max_local_dim"], result.dim)


def _stored(counts, args, result):
    counts["sweep.stored_potentials"] = max(counts["sweep.stored_potentials"],
                                            len(result.potentials))


def _report_bytes(counts, args, result):
    counts["cli.report_bytes"] += len(result.encode())


# Counters taken from arguments or results, keyed by span name.
COUNTERS = {
    "operators.conjugate_by_unitary": _conjugate,
    "sweep.generator_series": _series,
    "sweep.local_hamiltonian": _local_dim,
    "sweep.sweep": _stored,
    "cli.emit": _report_bytes,
}

# Per-layer metric -> (span name, "total" or "self"); seconds per operation.
TIMES = {
    "operators.conjugate_by_unitary_s": ("operators.conjugate_by_unitary", "total"),
    "operators.embed_s": ("operators.embed", "total"),
    "operators.unitary_exp_s": ("operators.unitary_exp", "total"),
    "operators.op_norm_s": ("operators.op_norm", "total"),
    "operators.build_projectors_s": ("operators.build_projectors", "total"),
    "sweep.local_hamiltonian_s": ("sweep.local_hamiltonian", "total"),
    "sweep.vacuum_energy_s": ("sweep.vacuum_energy", "total"),
    "sweep.local_gap_s": ("sweep.local_gap", "total"),
    "sweep.generator_series.self_s": ("sweep.generator_series", "self"),
    "sweep.diagonalized_potential.self_s": ("sweep.diagonalized_potential", "self"),
    "sweep.advance.self_s": ("sweep.advance", "self"),
    "linalg.eigensolve_s": ("linalg.eigensolve", "total"),
    "certify.certify_s": ("certify.certify", "total"),
    "certify.check_ledger_s": ("certify.check_ledger", "total"),
    "sweep.assemble_full_s": ("sweep.assemble_full", "total"),
    "oracle.compare_s": ("oracle.compare", "total"),
    "oracle.assemble_direct_s": ("oracle.assemble_direct", "total"),
    "oracle.ed_spectrum_s": ("oracle.ed_spectrum", "total"),
    "kitaev.build_kitaev_model_s": ("kitaev.build_kitaev_model", "total"),
    "kitaev.regroup_perturbations_s": ("kitaev.regroup_perturbations", "total"),
    "kitaev.restricted_chain_model_s": ("kitaev.restricted_chain_model", "total"),
    "kitaev.doubling_check_terms_s": ("kitaev.doubling_check_terms", "total"),
    "kitaev.boundary_gap_check_s": ("kitaev.boundary_gap_check", "total"),
    "cli.load_model_s": ("cli.load_model", "total"),
    "cli.run.self_s": ("cli.run", "self"),
    "cli.emit_s": ("cli.emit", "total"),
    "estimator.validate_s": ("estimator.validate", "total"),
    "estimator.fit.self_s": ("estimator.fit", "self"),
}

# Per-layer metric -> span name whose calls it counts, per operation.
CALLS = {
    "operators.conjugate_by_unitary.calls": "operators.conjugate_by_unitary",
    "sweep.steps": "sweep.advance",
    "linalg.eigensolves": "linalg.eigensolve",
    "kitaev.zero_sector_basis.calls": "kitaev.zero_sector_basis",
}

# Counter-fed metrics; the maxima are not divided by the operation count.
SUMMED = ("operators.conjugate_gflop", "sweep.series_order_sum", "cli.report_bytes")
MAXIMA = ("sweep.max_local_dim", "sweep.stored_potentials")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("gflop"):
        return "GFLOP"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("over_ed"):
        return "ratio"
    return "count"


class Tracer:
    """Collects spans and counters while its patches are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = -1

    @contextmanager
    def active(self, op: int, name: str = "bench.operation"):
        """Install every patch, record a root span for ``op``, then restore."""
        self._op = op
        try:
            for module, path, span in SITES:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                self._patch(owner, attr, span)
            with self.span(name):
                yield
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self._op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        count = COUNTERS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None and self._op >= 0:
                count(self.counts, args, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def totals(self, setup: bool = False):
        """Inclusive seconds, self seconds and calls per span name, over the
        operations' spans or, with ``setup``, over the set-up spans."""
        total: dict[str, float] = defaultdict(float)
        self_: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if (op < 0) == setup:
                total[name] += end - start
                self_[name] += end - start - child[i]
                calls[name] += 1
        return total, self_, calls

    def layer_metrics(self, n_ops: int, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric, per traced operation unless noted."""
        total, self_, calls = self.totals()
        out = {}
        for metric, (span, kind) in TIMES.items():
            out[metric] = (total if kind == "total" else self_)[span] / n_ops
        for metric, span in CALLS.items():
            out[metric] = calls[span] / n_ops
        for metric in SUMMED:
            out[metric] = self.counts[metric] / n_ops
        for metric in MAXIMA:
            out[metric] = self.counts[metric]
        ed = total["oracle.ed_spectrum"]
        out["oracle.sweep_over_ed"] = total["sweep.sweep"] / ed if ed else 0.0
        # Models are generated during set-up: seconds per generated model.
        setup_total, _, setup_calls = self.totals(setup=True)
        gen = "model.random_chain_model"
        out["model.random_chain_model_s"] = (
            setup_total[gen] / setup_calls[gen] if setup_calls[gen] else 0.0)
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path, header: dict) -> None:
        path.write_text(json.dumps({**header, "fields": ["name", "start", "end", "parent", "op"],
                                    "spans": self.spans}))
