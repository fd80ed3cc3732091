"""Write the golden reports of tests/test_cli.py's GOLDEN table: every case,
or only the cases of the names given; or, with --check, compare them.

    python tests/regenerate_golden.py [NAME ...]
    python tests/regenerate_golden.py --check [NAME ...]

Each case runs through ``cli.main`` under GOLDEN_ENV (set before numpy
loads, by importing conftest first), and its report, with "timings" removed
from every JSON report, replaces tests/data/<name>_report.json or .csv.
Run it only with a change meant to move outputs, and first show that the
fresh reports equal the committed ones apart from the parts that change;
name a new case to write its report alone.

--check writes nothing: it compares each fresh report byte for byte with
the one in tests/data/, lists the files that differ and exits 1 if any do.
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


def fresh_reports(names=()):
    """(golden path, fresh report text) for each GOLDEN case named, or every
    case, each run in a temporary directory."""
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
            yield golden, text


def regenerate(names=()) -> None:
    for golden, text in fresh_reports(names):
        golden.write_text(text)
        print(f"wrote {golden.relative_to(TESTS.parent)} ({len(text)} bytes)")


def check(names=()) -> int:
    """1 if any fresh report differs from tests/data/ by a byte, else 0."""
    checked, differ = 0, []
    for golden, text in fresh_reports(names):
        checked += 1
        if not golden.is_file() or golden.read_bytes() != text.encode():
            differ.append(golden)
            print(f"differs: {golden.relative_to(TESTS.parent)}")
    print(f"{checked - len(differ)} of {checked} golden reports byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--check"]:
        sys.exit(check(args[1:]))
    regenerate(args)
