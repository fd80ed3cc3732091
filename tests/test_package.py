"""Package-level structure: submodule imports, the benchmark tracer's lookup
sites and one traced run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def test_submodules_are_not_shadowed():
    import lieschwinger.certify as certify_module
    import lieschwinger.sweep as sweep_module

    assert isinstance(sweep_module, types.ModuleType)
    assert isinstance(certify_module, types.ModuleType)


def test_cli_import_leaves_out_scipy_linalg():
    # scipy.linalg adds about 8 MB of resident memory to every run; the
    # sweep's linear algebra is numpy only
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, lieschwinger.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_site_resolves_to_a_callable():
    # The benchmark's traced run patches these names; a missing one kills it.
    tracing = _load_tracing()
    for module, path, _ in tracing.SITES:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path}"


def test_traced_run_matches_untraced(tmp_path):
    # A changed return shape breaks the benchmark's traced run through its
    # counters, so run one fit and one Kitaev sweep under the tracer.
    from lieschwinger.cli import main
    from lieschwinger.estimator import BlockDiagonalizer
    from lieschwinger.model import random_chain_model
    from test_cli import _kitaev_file

    tracing = _load_tracing()
    model = random_chain_model(3, 0.01, M=2, kbar=2, seed=0)
    config = _kitaev_file(tmp_path, supports=[(3, 4), (1, 2)])

    def run_once(tag):
        fitted = BlockDiagonalizer().fit(model)
        out = tmp_path / f"{tag}.json"
        assert main(["--config", str(config), "--t-sweep", "0.01,0.02",
                     "--report", str(out)]) == 0
        reports = json.loads(out.read_text())
        for rep in reports:
            del rep["timings"]
        return (fitted.ground_energy_, fitted.gap_, fitted.report_.ledger), reports

    untraced = run_once("untraced")
    tracer = tracing.Tracer()
    with tracer.active(0):
        traced = run_once("traced")
    assert traced == untraced
    metrics = tracing.SUMMED + tracing.MAXIMA
    assert all(tracer.counts[metric] > 0 for metric in metrics), dict(tracer.counts)
