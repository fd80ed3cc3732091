"""Command-line runner: load a model file, run the estimator's pipeline
(sweep, certify, compare) once per coupling, and report.

A Kitaev file is parsed by ``_load_kitaev``, which holds the one import of
the ``kitaev`` module, so a chain-file run does not load it.  ``main``
reduces the file once, whatever the couplings; ``_prepare_model`` takes the
reduction's chain and ``kitaev`` block at each coupling, and ``run`` its
doubling check.

Reports serialize deterministically: keys are emitted in sorted order and
floats with 17 significant digits, so identical inputs and flags reproduce
byte-identical output apart from the "timings" section.  A report names its
model by its scalars and ``seed_info`` (a file's sha256), not its matrices.

Exit codes: 0 success, 2 validation or parse failure or a failed
certification, 3 series not converged, 4 gap assumption violated, 1 an
internal invariant failed; each is the ``exit_code`` of the raised error,
and a ``MemoryError`` (a model the host cannot hold) ends in 2.  Every
failure still writes a report, except for flags that argparse rejects and
a ``--report`` path that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .certify import certify  # unused here; perfbench/tracing.py patches it on this module
from .errors import ChainError, ValidationError
from .estimator import ORACLE_POLICIES, BlockDiagonalizer
from .intervals import Interval
from .model import ChainModel, build_chain_model, validate_chain_model
from .oracle import compare  # unused here; perfbench/tracing.py patches it on this module
from .sweep import SeriesControls, sweep  # sweep: as for compare

MODEL_FILE_VERSION = "1"  # the "version" a model file must give
REPORT_VERSION = "2"  # a report's "version": 2 dropped the model's matrices

# A report row's fields, in CSV column order.  Each row kind starts with its
# interval's k and q; the rest are attributes of the same name on a step's
# StepDiagnostics or a ledger's NormLedgerEntry.
STEP_FIELDS = ("k", "q", "E", "gap", "series_order", "od_residual", "s_norm")
LEDGER_FIELDS = ("r", "interval_q", "norm", "bound", "ok")


# ---------------------------------------------------------------------------
# model file parsing

def _parse_matrix(rows, what: str) -> np.ndarray:
    try:
        mat = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as err:
        raise ValidationError(f"{what}: matrix entries must be [re, im] pairs") from err
    except OverflowError as err:  # an integer past the float range
        raise ValidationError(f"{what}: matrix entries must be finite") from err
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{what}: matrix must be square, got shape {mat.shape}")
    return mat


_REQUIRED = object()
_NUMBER = (int, float)


def _field(block, key: str, kind, where: str, default=_REQUIRED):
    """``block[key]`` from a JSON object, checked to be an instance of ``kind``."""
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be a JSON object")
    value = block.get(key, default)
    if value is _REQUIRED:
        raise ValidationError(f"{where} missing required field {key!r}")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"{where} field {key!r} has the wrong type: {value!r}")
    if kind is _NUMBER:
        try:
            return float(value)
        except OverflowError as err:  # an integer past the float range
            raise ValidationError(f"{where} field {key!r} must be finite") from err
    return value


def _support(entry, where: str) -> Interval:
    support = _field(entry, "support", list, where)
    if len(support) != 2 or not all(type(site) is int for site in support):
        raise ValidationError(f"{where} field 'support' must be [first_site, last_site]")
    first, last = support
    return Interval(last - first, first)


def load_model(path):
    """Parse and validate a model file; returns ChainModel or KitaevModel,
    whose ``seed_info`` holds the SHA-256 of the parsed file as canonical JSON.

    Every malformed or invalid file raises ValidationError naming the
    offending field.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"model file not found: {path}")
    try:
        spec = json.loads(path.read_text())
    # not JSON, not UTF-8, an integer past Python's digit limit, or a directory
    except (OSError, ValueError) as err:
        raise ValidationError(f"model file is not readable JSON: {err}") from err
    if not isinstance(spec, dict):
        raise ValidationError("model file must be a JSON object")
    if spec.get("version") != MODEL_FILE_VERSION:
        raise ValidationError(f"unsupported model file version {spec.get('version')!r}")
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    seed_info = {"sha256": hashlib.sha256(canonical.encode()).hexdigest()}
    if "kitaev" in spec:
        return _load_kitaev(spec["kitaev"], seed_info)
    return _load_chain(spec, seed_info)


def _load_chain(spec, seed_info) -> ChainModel:
    where = "model file"
    H = _parse_matrix(_field(spec, "H", list, where), "on-site matrix")
    interactions = {}
    for entry in _field(spec, "interactions", list, where):
        iv = _support(entry, "interaction")
        if iv in interactions:
            raise ValidationError(f"interaction support {iv} appears twice; "
                                  "give one entry per support")
        interactions[iv] = _parse_matrix(_field(entry, "matrix", list, f"interaction on {iv}"),
                                         f"interaction on {iv}")
    return build_chain_model(
        N=_field(spec, "N", int, where), M=_field(spec, "M", int, where), onsite=H,
        interactions=interactions, t=_field(spec, "t", _NUMBER, where),
        kbar=_field(spec, "kbar", (int, type(None)), where, None), seed_info=seed_info,
    )


def _load_kitaev(block, seed_info):
    from . import kitaev as kit  # the one import of kitaev in a run

    where = "kitaev block"
    N = kit.fermion_sites(_field(block, "N", int, where))  # 2^N under the guard, before any term
    perts = []
    for entry in _field(block, "perturbations", list, where):
        iv = _support(entry, "perturbation")
        terms = _field(entry, "terms", list, f"perturbation on {iv}")
        try:
            perts.append((iv, kit.local_perturbation(iv, terms, N)))
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as err:
            raise ValidationError(f"perturbation on {iv}: malformed field 'terms' ({err!r})") from err
    return kit.build_kitaev_model(
        N, beta=_field(block, "beta", _NUMBER, where), perturbations=perts,
        mu=_field(block, "mu", _NUMBER, where, 0.0), tau=_field(block, "tau", _NUMBER, where, 1.0),
        delta=_field(block, "delta", _NUMBER, where, 1.0), seed_info=seed_info,
    )


# ---------------------------------------------------------------------------
# deterministic serialization

def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValidationError("reports must not contain NaN or infinite values")
    return format(float(x), ".17g")


def _scalar(obj) -> str:
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    return json.dumps(str(obj))


def _cell(value) -> str:
    """A CSV cell: a scalar as JSON writes it, an absent value empty."""
    return "" if value is None else _scalar(value)


def _write_json(obj, out, indent: int) -> None:
    if isinstance(obj, (dict, list, tuple)):
        # (key prefix, value) per entry; objects in sorted key order
        if isinstance(obj, dict):
            entries, brackets = [(json.dumps(str(k)) + ": ", obj[k]) for k in sorted(obj)], "{}"
        else:
            entries, brackets = [("", item) for item in obj], "[]"
        if not entries:
            out.append(brackets)
            return
        pad = " " * indent
        out.append(brackets[0] + "\n")
        for i, (prefix, value) in enumerate(entries):
            out.append(pad + "  " + prefix)
            _write_json(value, out, indent + 2)
            out.append(",\n" if i < len(entries) - 1 else "\n")
        out.append(pad + brackets[1])
    else:
        out.append(_scalar(obj))


def emit(report, fmt: str = "json") -> str:
    """Serialize a report (or list of reports) as JSON or CSV."""
    if fmt == "json":
        out: list[str] = []
        _write_json(report, out, 0)
        out.append("\n")
        return "".join(out)
    if fmt == "csv":
        reports = report if isinstance(report, list) else [report]
        columns = STEP_FIELDS + LEDGER_FIELDS
        lines = [",".join(("kind", "t", *columns))]
        for rep in reports:
            ts = _cell((rep.get("controls") or {}).get("t"))
            for kind, key in (("step", "steps"), ("ledger", "ledger")):
                for row in rep.get(key, []):
                    lines.append(",".join((kind, ts, *(_cell(row.get(name)) for name in columns))))
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unsupported report format {fmt!r}")


# ---------------------------------------------------------------------------
# run orchestration

def _row(fields, interval: Interval, entry) -> dict:
    k, q, *rest = fields
    return {k: interval.k, q: interval.q, **{name: getattr(entry, name) for name in rest}}


def _steps_json(state) -> list:
    return [_row(STEP_FIELDS, d.step, d) for d in state.diagnostics]


def _model_echo(model: ChainModel) -> dict:
    return {
        "N": model.N, "M": model.M, "t": model.t, "kbar": model.kbar,
        "energy_offset": model.energy_offset, "seed_info": dict(model.seed_info),
    }


def _report(model=None, controls=None, kitaev=None) -> dict:
    """A report with every key present, before any stage of a run has filled it."""
    return {
        "version": REPORT_VERSION, "status": "ok", "error": None,
        "model": model, "controls": controls, "steps": [], "ledger": [],
        "gap_report": None, "oracle": None, "kitaev": kitaev, "timings": {},
    }


# What a run turns into a failed report; anything else is a bug and propagates.
_FAILURES = (ChainError, MemoryError)


def _record_failure(report: dict, err: ChainError | MemoryError) -> int:
    """Mark ``report`` failed: error block, exit code, and the steps reached
    before the failure if the error carries them.  Returns the exit code.

    A MemoryError ends in exit 2, as a model past the dense guard does."""
    out_of_memory = isinstance(err, MemoryError)
    code = ValidationError.exit_code if out_of_memory else err.exit_code
    step = getattr(err, "step", None)
    report["status"] = "failed"
    report["error"] = {
        # numpy raises a private MemoryError subclass
        "type": "MemoryError" if out_of_memory else type(err).__name__,
        "message": str(err) or "out of memory",
        "step": [step.k, step.q] if step is not None else None,
        "exit_code": code,
    }
    partial = getattr(err, "partial_state", None)
    if partial is not None:
        report["steps"] = _steps_json(partial)
    return code


def run(model, controls: SeriesControls, oracle_policy: str = "auto",
        seed=None, kitaev_extra=None, reduction=None):
    """Fit the pipeline to ``model``, serialize every stage it reached and, after
    the oracle, a Kitaev ``reduction``'s doubling check; returns (report, exit code)."""
    started = time.perf_counter()
    report = _report(
        model=_model_echo(model),
        controls={**dataclasses.asdict(controls), "oracle": oracle_policy, "seed": seed,
                  "t": model.t},
        kitaev=kitaev_extra,
    )
    est = BlockDiagonalizer(controls, oracle_policy)
    code = 0
    try:
        est.fit(model)
        if reduction is not None and est.comparison_ is not None:
            reduction.check_doubling(kitaev_extra, est.comparison_.spectrum)
    except _FAILURES as err:
        code = _record_failure(report, err)
    if est.state_ is not None:
        report["steps"] = _steps_json(est.state_)
    if est.report_ is not None:
        report["ledger"] = [_row(LEDGER_FIELDS, e.interval, e) for e in est.report_.ledger]
        report["gap_report"] = {key: getattr(est.report_, key) for key in
                                ("ground_energy", "gap", "unique_ground", "od_residual",
                                 "gap_lower_bound", "vacuum_energy_bound", "residual_term")}
    if est.comparison_ is not None:
        report["oracle"] = {key: getattr(est.comparison_, key) for key in
                            ("spectrum_distance", "gap_ed", "ground_degeneracy",
                             "blockwise_match", "ground_ed", "low_spectrum")}
    report["timings"] = {**est.timings_, "total_s": time.perf_counter() - started}
    return report, code


def _prepare_model(source, t_value):
    """The validated chain at an optional coupling override, and the report's
    ``kitaev`` block (None for a chain file).  ``source`` is a ChainModel or
    a Kitaev file's reduction."""
    if not isinstance(source, ChainModel):
        return source.at(t_value)
    model = source if t_value is None else dataclasses.replace(source, t=float(t_value))
    validate_chain_model(model)
    return model, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lieschwinger",
        description="Block-diagonalize a gapped chain model and certify its spectral gap.",
    )
    parser.add_argument("--config", required=True, help="model file (JSON)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--t", type=float, default=None,
                       help="override coupling; write a negative one as --t=-1e-3")
    group.add_argument("--t-sweep", default=None,
                       help="comma-separated couplings; emits one report per value; write a "
                            "list that starts with a negative one as --t-sweep=-0.01,0.01")
    control_fields = dataclasses.fields(SeriesControls)  # one flag per field, named after it
    for control in control_fields:
        parser.add_argument("--" + control.name.replace("_", "-"), type=type(control.default),
                            default=control.default, help="default %(default)s")
    parser.add_argument("--oracle", choices=ORACLE_POLICIES, default="auto",
                        help="exact-diagonalization checks: compare, doubling_ok; off runs none")
    parser.add_argument("--report", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--seed", type=int, default=None,
                        help="echoed into the report controls")
    args = parser.parse_args(argv)

    def emit_out(payload, code: int) -> int:
        text = emit(payload, args.format)
        if not args.report:
            sys.stdout.write(text)
            return code
        try:
            Path(args.report).write_text(text)
        except OSError as err:
            print(f"lieschwinger: error: cannot write report: {err}", file=sys.stderr)
            return ValidationError.exit_code
        return code

    try:
        controls = SeriesControls(**{control.name: getattr(args, control.name)
                                     for control in control_fields})
        t_values = [args.t]
        if args.t_sweep is not None:
            try:
                t_values = [float(v) for v in args.t_sweep.split(",") if v.strip()]
            except ValueError:
                t_values = []
            if not t_values:
                raise ValidationError("--t-sweep expects one or more comma-separated numbers")
        source = load_model(args.config)
        if not isinstance(source, ChainModel):
            source = source.reduce()  # once per file, whatever the couplings
    except _FAILURES as err:
        report = _report()
        return emit_out(report, _record_failure(report, err))

    reports, worst = [], 0
    for t_value in t_values:
        try:
            model, kitaev_extra = _prepare_model(source, t_value)
        except _FAILURES as err:
            # reports never hold NaN or infinity, so a non-finite coupling is echoed as null
            finite = t_value is None or np.isfinite(t_value)
            report = _report(controls={"t": t_value if finite else None})
            code = _record_failure(report, err)
        else:
            report, code = run(model, controls, args.oracle, args.seed, kitaev_extra,
                               None if kitaev_extra is None else source)
        reports.append(report)
        worst = worst or code
    return emit_out(reports if len(reports) > 1 else reports[0], worst)


if __name__ == "__main__":
    sys.exit(main())
