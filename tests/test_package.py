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


def test_cli_import_leaves_out_scipy_linalg(tmp_path):
    # scipy.linalg adds about 8 MB of resident memory to every run; the
    # sweep's linear algebra is numpy only.  The subprocesses import the
    # package this test imported: src/, or an installed copy
    import lieschwinger
    from test_cli import GOLDEN, _assert_report_matches, golden_path, read_report

    package_parent = Path(lieschwinger.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(package_parent), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, lieschwinger.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"

    # no run imports scipy: with it unimportable, a chain-file run writes
    # the golden report without loading kitaev, and each golden Kitaev case
    # writes its own
    report = tmp_path / "report.json"
    argv = ["--config", str(ROOT / "configs" / "anchor_n2.json"), "--report", str(report)]
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from lieschwinger.cli import main\n"
            f"print(main({argv!r}), 'lieschwinger.kitaev' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "0 False"
    fresh = json.loads(report.read_text())
    del fresh["timings"]
    golden = json.loads((ROOT / "tests" / "data" / "anchor_n2_report.json").read_text())
    _assert_report_matches(fresh, golden)
    for name, flags in [case for case in GOLDEN if case[0].startswith("kitaev")]:
        argv = ["--config", str(ROOT / "configs" / f"{name}.json"), *flags, "--report", str(report)]
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from lieschwinger.cli import main\n"
                f"print(main({argv!r}))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "0", name
        _assert_report_matches(read_report(report), read_report(golden_path(name, flags)), name)


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
    # counters, so run one fit of a dense and one of a graded (exactly even)
    # chain, and one Kitaev sweep, under the tracer.
    from conftest import ising_chain_model
    from lieschwinger.cli import main
    from lieschwinger.estimator import BlockDiagonalizer
    from lieschwinger.model import random_chain_model
    from test_cli import _kitaev_file

    tracing = _load_tracing()
    models = random_chain_model(3, 0.01, M=2, kbar=2, seed=0), ising_chain_model(5, 0.1)
    config = _kitaev_file(tmp_path, supports=[(3, 4), (1, 2)])

    def run_once(tag):
        fits = [BlockDiagonalizer().fit(model) for model in models]
        assert [all(op.graded for op in fitted.state_.potentials.values())
                for fitted in fits] == [False, True]
        out = tmp_path / f"{tag}.json"
        assert main(["--config", str(config), "--t-sweep", "0.01,0.02",
                     "--report", str(out)]) == 0
        reports = json.loads(out.read_text())
        for rep in reports:
            del rep["timings"]
        return [(fitted.ground_energy_, fitted.gap_, fitted.report_.ledger)
                for fitted in fits], reports

    untraced = run_once("untraced")
    tracer = tracing.Tracer()
    with tracer.active(0):
        traced = run_once("traced")
    assert traced == untraced
    metrics = tracing.SUMMED + tracing.MAXIMA
    assert all(tracer.counts[metric] > 0 for metric in metrics), dict(tracer.counts)


def test_readme_quick_start_runs_and_states_the_anchor_values():
    # every python block of the "Library quick start" section, run as written
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = [part.split("```", 1)[0] for part in section.split("```python\n")[1:]]
    assert len(blocks) >= 2
    assert "fitted.ground_energy_   # 1 - sqrt(1.01)" in blocks[0]
    assert "fitted.gap_             # sqrt(1.01) - 0.1" in blocks[0]
    namespace = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    fitted = namespace["fitted"]
    assert abs(fitted.ground_energy_ - (1 - 1.01 ** 0.5)) <= 1e-12
    assert abs(fitted.gap_ - (1.01 ** 0.5 - 0.1)) <= 1e-12
