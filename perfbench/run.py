"""Benchmark of the lieschwinger package, one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload transport --seed 0 --seconds 20 --trace 0

Closed loop with one caller: each operation starts when the previous one
has returned.  Inputs are generated from ``--seed``; operations run over
them in whole passes until ``--seconds`` have elapsed, and every output is
checked.  The last line of standard output is the result, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is a record of the environment, sample counts and output
digests.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
every operation twice, untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  See README.md next to this file.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# BLAS and OpenMP read these once, when numpy loads, so they are set first.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
NUMPY_PRELOADED = "numpy" in sys.modules
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("transport", "series", "kitaev_tsweep")
SETUP_REPEATS = 5
MAX_PROBLEMS = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit; used to "
                             "repeat set-up in fresh processes")
    return parser.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "threads_set_before_numpy": not NUMPY_PRELOADED,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "seed": seed,
        "git_commit": git_commit(),
    }


def child_setup_s(args) -> float:
    """Set-up time of a fresh process: import, input generation, config file."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, inputs, seconds: float, tracer):
    """Run whole passes over ``inputs`` until ``seconds`` have elapsed.

    A pass runs every input once.  With a tracer every input runs untraced
    and then traced; only the untraced wall times are samples, and the pair
    gives the overhead.
    """
    from workloads import Outcome

    def run(item):
        t0 = time.perf_counter()
        try:
            out = workload.run(item)
        except Exception as err:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            out = Outcome(0, "", (f"{type(err).__name__}: {err}",))
        return out, time.perf_counter() - t0

    stats = {"samples": [], "pass_means": [], "overheads": [], "outcomes": [], "digests": {}}
    start = time.perf_counter()
    while True:
        for i, item in enumerate(inputs):
            out, wall = run(item)
            stats["samples"].append(wall)
            stats["outcomes"].append(out)
            stats["digests"].setdefault(i, set()).add(out.digest)
            if tracer is not None:
                with tracer.active(len(stats["overheads"])):
                    traced, traced_wall = run(item)
                stats["overheads"].append(traced_wall - wall)
                stats["outcomes"].append(traced)
                stats["digests"][i].add(traced.digest)
        stats["pass_means"].append(statistics.fmean(stats["samples"][-len(inputs):]))
        if time.perf_counter() - start >= seconds:
            break
    stats["phase_s"] = time.perf_counter() - start
    return stats


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lieschwinger" / "__init__.py").is_file():
        print(f"run.py: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        with tracer.active(-1, "bench.setup") if tracer else nullcontext():
            inputs = workload.make_inputs(args.seed, args.tiny, Path(tmp))
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # Half the fresh set-ups run before the timed phase and half after,
        # so the median does not rest on one moment of the host's speed.
        children = 0 if args.trace else SETUP_REPEATS - 1
        setup_samples = [setup_s] + [child_setup_s(args) for _ in range(children // 2)]
        stats = measure(workload, inputs, args.seconds, tracer)
        setup_samples += [child_setup_s(args) for _ in range(children - children // 2)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcomes = stats["outcomes"]
    problems = [p for out in outcomes for p in out.problems]
    failed = sum(1 for out in outcomes if out.problems)
    certified_models = sum(out.certified for out in outcomes)
    samples = stats["samples"]
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "env": environment(args.seed),
        "operations": len(outcomes), "solve_samples": len(samples),
        "passes": len(stats["pass_means"]), "solve_s_pass_means": stats["pass_means"],
        "solve_s_quartiles": statistics.quantiles(samples, n=4) if len(samples) > 1 else samples,
        "setup_s_samples": setup_samples, "timed_phase_s": stats["phase_s"],
        "certified_models": certified_models,
        "digests": {str(i): sorted(d) for i, d in stats["digests"].items()},
        "digests_stable": all(len(d) == 1 for d in stats["digests"].values()),
        "problems": problems[:MAX_PROBLEMS],
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            # On a shared host the CPU speed can change every few seconds, so
            # short operations come out bimodal; a pass mean averages that out.
            "solve_s": (statistics.median(stats["pass_means"]), "s"),
            "models_per_s": (certified_models / stats["phase_s"], "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "certified_frac": ((len(outcomes) - failed) / len(outcomes), "ratio"),
        }
    else:
        n_traced = len(stats["overheads"])
        overhead = sum(stats["overheads"]) / n_traced
        values = tracer.layer_metrics(n_traced, overhead)
        metrics = {name: (value, tracing.unit(name)) for name, value in values.items()}
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file, {"workload": args.workload, "seed": args.seed})
        record["trace_file"] = str(trace_file.relative_to(ROOT))
        record["traced_operations"] = n_traced
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
