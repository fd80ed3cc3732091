"""Write the golden reports of tests/test_cli.py's GOLDEN table: every case,
or only the cases of the names given.

    python tests/regenerate_golden.py [NAME ...]

Each case runs through ``cli.main`` under GOLDEN_ENV (set before numpy
loads, by importing conftest first), and its report, with "timings" removed
from every JSON report, replaces tests/data/<name>_report.json or .csv.
Run it only with a change meant to move outputs, and first show that the
fresh reports equal the committed ones apart from the parts that change;
name a new case to write its report alone.
"""

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

import conftest  # noqa: E402,F401  sets GOLDEN_ENV before numpy loads
from test_cli import CONFIGS, GOLDEN, golden_path  # noqa: E402

from lieschwinger.cli import emit, main  # noqa: E402


def regenerate(names=()) -> None:
    unknown = set(names) - {name for name, _ in GOLDEN}
    if unknown:
        raise SystemExit(f"no GOLDEN case named {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in GOLDEN:
            if names and name not in names:
                continue
            golden = golden_path(name, flags)
            out = Path(tmp) / golden.name
            code = main(["--config", str(CONFIGS / f"{name}.json"), *flags, "--report", str(out)])
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            text = out.read_text()
            if golden.suffix == ".json":
                # a float -0.0 is written "-0", which JSON reads as the integer 0
                report = json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))
                for rep in report if isinstance(report, list) else [report]:
                    del rep["timings"]
                text = emit(report)
            golden.write_text(text)
            print(f"wrote {golden.relative_to(TESTS.parent)} ({len(text)} bytes)")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
