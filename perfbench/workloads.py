"""Seeded inputs, one operation and its output checks, per workload.

Every operation enters the package through a public entry point:
``BlockDiagonalizer.fit`` for ``transport`` and ``series``, ``cli.main``
for ``kitaev_tsweep``.  Package functions are looked up on their modules
at call time, so the tracer's patches see every call.

Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

cli = importlib.import_module("lieschwinger.cli")
estimator = importlib.import_module("lieschwinger.estimator")
model_mod = importlib.import_module("lieschwinger.model")

SPECTRUM_TOL = 1e-12
GAP_MIN = 0.5
SERIES_COUPLINGS = (0.01, 0.03, 0.05)
# All four certify with a gap near 2 on every seed tried; larger couplings
# lengthen the generator series of the restricted chain.
KITAEV_COUPLINGS = (0.01, 0.02, 0.04, 0.08)


@dataclass(frozen=True)
class Outcome:
    """Result of one operation: models certified, output digest, failed checks."""

    certified: int
    digest: str
    problems: tuple[str, ...]


@dataclass(frozen=True)
class KitaevInput:
    config: Path
    report: Path
    couplings: tuple[float, ...]


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int, bool, Path], list]
    run: Callable[[object], Outcome]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _model_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# ---------------------------------------------------------------------------
# inputs

def transport_inputs(seed: int, tiny: bool, workdir: Path) -> list:
    """Two N=9, M=2, kbar=1 chains at t=0.01 (N=4 when tiny)."""
    N = 4 if tiny else 9
    return [model_mod.random_chain_model(N, 0.01, M=2, kbar=1, seed=s)
            for s in _model_seeds(seed, 2)]


def series_inputs(seed: int, tiny: bool, workdir: Path) -> list:
    """N=5, M=3, kbar=2 chains, every coupling times four seeds (N=3, one seed when tiny)."""
    N, n_seeds = (3, 1) if tiny else (5, 4)
    seeds = _model_seeds(seed, n_seeds)
    return [model_mod.random_chain_model(N, t, M=3, kbar=2, seed=s)
            for t in SERIES_COUPLINGS for s in seeds]


def _bond_terms(rng: np.random.Generator, i: int) -> list[dict]:
    """Random even Hermitian term on fermion sites i, i+1 with coefficient 1-norm 1.

    The seven real coefficients weigh n_i, n_j, n_i n_j, the real and
    imaginary hopping and the real and imaginary pairing; each monomial
    pair has norm at most 1, so the term has norm at most 1.
    """
    j = i + 1
    a = rng.normal(size=7)
    a = a / np.sum(np.abs(a))

    def term(re, im, *ops):
        return {"coeff": [float(re), float(im)], "ops": [list(op) for op in ops]}

    return [
        term(a[0], 0, ("cdag", i), ("c", i)),
        term(a[1], 0, ("cdag", j), ("c", j)),
        term(a[2], 0, ("cdag", i), ("c", i), ("cdag", j), ("c", j)),
        term(a[3], 0, ("cdag", i), ("c", j)), term(a[3], 0, ("cdag", j), ("c", i)),
        term(0, a[4], ("cdag", i), ("c", j)), term(0, -a[4], ("cdag", j), ("c", i)),
        term(a[5], 0, ("c", i), ("c", j)), term(a[5], 0, ("cdag", j), ("cdag", i)),
        term(0, a[6], ("c", i), ("c", j)), term(0, -a[6], ("cdag", j), ("cdag", i)),
    ]


def kitaev_config(seed: int, N: int) -> dict:
    """Model file: one even term on every interior bond plus one boundary term."""
    rng = np.random.default_rng(seed)
    perts = [{"support": [i, i + 1], "terms": _bond_terms(rng, i)} for i in range(2, N - 1)]
    perts.append({"support": [1, 2], "terms": _bond_terms(rng, 1)})
    return {"version": "1",
            "kitaev": {"N": N, "beta": KITAEV_COUPLINGS[0], "perturbations": perts}}


def kitaev_inputs(seed: int, tiny: bool, workdir: Path) -> list:
    """One generated N=9 Kitaev file (N=5 and two couplings when tiny)."""
    N, couplings = (5, KITAEV_COUPLINGS[:2]) if tiny else (9, KITAEV_COUPLINGS)
    config = workdir / "kitaev.json"
    config.write_text(json.dumps(kitaev_config(seed, N)))
    return [KitaevInput(config, workdir / "report.json", couplings)]


# ---------------------------------------------------------------------------
# operations and checks

def fit_op(model) -> Outcome:
    """Fit with the default estimator (oracle "auto") and check the result."""
    fitted = estimator.BlockDiagonalizer().fit(model)
    report, cmp_ = fitted.report_, fitted.comparison_
    problems = []
    if cmp_ is None:
        problems.append("oracle did not run")
    else:
        if not cmp_.spectrum_distance <= SPECTRUM_TOL:
            problems.append(f"spectrum_distance {cmp_.spectrum_distance:.3e}")
        if not cmp_.blockwise_match:
            problems.append("blockwise_match false")
    if not report.unique_ground:
        problems.append("unique_ground false")
    if not report.gap >= GAP_MIN:
        problems.append(f"gap {report.gap:.6f} below {GAP_MIN}")
    digest = _sha256(f"{report.ground_energy:.17g} {report.gap:.17g}")
    return Outcome(int(not problems), digest, tuple(problems))


def _report_problems(rep: dict) -> list[str]:
    if rep.get("status") != "ok":
        return [f"status {rep.get('status')}: {rep.get('error')}"]
    problems = []
    oracle, gap = rep["oracle"], rep["gap_report"]
    if oracle is None:
        problems.append("oracle did not run")
    else:
        if not oracle["spectrum_distance"] <= SPECTRUM_TOL:
            problems.append(f"spectrum_distance {oracle['spectrum_distance']:.3e}")
        if not oracle["blockwise_match"]:
            problems.append("blockwise_match false")
    if not gap["unique_ground"]:
        problems.append("unique_ground false")
    if not gap["gap"] >= GAP_MIN:
        problems.append(f"gap {gap['gap']:.6f} below {GAP_MIN}")
    if (rep.get("kitaev") or {}).get("doubling_ok") is not True:
        problems.append("doubling_ok not true")
    return problems


def cli_op(item: KitaevInput) -> Outcome:
    """One ``cli.main --t-sweep`` call; every coupling's report is checked."""
    code = cli.main(["--config", str(item.config),
                     "--t-sweep", ",".join(repr(t) for t in item.couplings),
                     "--report", str(item.report)])
    reports = json.loads(item.report.read_text())
    if isinstance(reports, dict):
        reports = [reports]
    problems = [] if code == 0 else [f"exit code {code}"]
    if len(reports) != len(item.couplings):
        problems.append(f"{len(reports)} reports for {len(item.couplings)} couplings")
    certified = 0
    for rep in reports:
        found = _report_problems(rep)
        certified += not found
        t = (rep.get("controls") or {}).get("t")
        problems += [f"t={t}: {p}" for p in found]
        rep.pop("timings", None)
    digest = _sha256(json.dumps(reports, sort_keys=True))
    return Outcome(certified, digest, tuple(problems))


WORKLOADS = {
    "transport": Workload(transport_inputs, fit_op),
    "series": Workload(series_inputs, fit_op),
    "kitaev_tsweep": Workload(kitaev_inputs, cli_op),
}
