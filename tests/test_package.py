"""Package-level structure: submodule imports and the benchmark tracer's lookup sites."""

import importlib
import importlib.util
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_submodules_are_not_shadowed():
    import lieschwinger.certify as certify_module
    import lieschwinger.sweep as sweep_module

    assert isinstance(sweep_module, types.ModuleType)
    assert isinstance(certify_module, types.ModuleType)


def test_every_traced_site_resolves_to_a_callable():
    # The benchmark's traced run patches these names; a missing one kills it.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, path, _ in tracing.SITES:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path}"
