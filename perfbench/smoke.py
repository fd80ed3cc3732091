"""Smoke check of the benchmark: every workload at a tiny size, traced and not.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Asserts that each run exits 0, prints a correct result with no failed
operation, and emits exactly the metrics BENCHMARK.json names for its mode,
each with the unit given there.  Takes about half a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"missing {sorted(set(expected) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{name}: value {value!r} is not a number")
        if name in expected and entry.get("unit") != expected[name]:
            errors.append(f"{name}: unit {entry.get('unit')!r}, expected {expected[name]!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check(spec, workload, trace)
            failures += bool(errors)
            print(f"{'FAIL' if errors else 'ok'}  {workload} --trace {trace}")
            for err in errors:
                print(f"      {err}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
