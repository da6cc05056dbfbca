"""The benchmark of the compiler's user paths, in one command.

    python3 perfbench/run.py --workload recompile --seed 1 --seconds 20 \\
        --trace 0

Workloads: ``recompile``, ``compile-run``, ``explore``, ``serve``, or
``all`` of them in turn (see NOTES.md for why each exists and which
layer figures should move which end-to-end figure).  Run from the repository root or anywhere: the
package under ``src/`` is imported from this checkout, and every file
the run writes lands under ``perfbench/.work/`` and is removed at exit
(bytecode caches excepted).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end figures with
``--trace 0``, the per-layer figures with ``--trace 1``.  The exit code
is 1 when any output check failed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before imports
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"

#: Set-ups per full-size run (this process's own plus fresh processes);
#: ``setup_s`` is their median.
SETUPS = 3

WORKLOAD_NAMES = ("recompile", "compile-run", "explore", "serve")


def _isolate() -> None:
    """Import the program from this checkout's ``src/`` and keep its
    bytecode caches under ``perfbench/.work``."""
    sys.pycache_prefix = str(WORK / "pycache")
    os.environ["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark the compiler's user paths.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny drops the heavy inputs (self-tests)")
    parser.add_argument("--chrome-trace", metavar="FILE",
                        help="with --trace 1 and one workload, write the "
                             "traced passes' spans as a Chrome trace")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_in_fresh_process(args) -> float:
    """One more set-up, in a new interpreter, so imports count again."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def provenance(args) -> dict:
    """What the numbers were measured on."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "size": args.size,
            "trace": args.trace}


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter so that its
    set-up, memory peak and process state are its own; 1 if any run
    failed."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size], cwd=ROOT)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _isolate()
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    guard = run_dir / "default-cache"
    os.environ["REPRO_CACHE_DIR"] = str(guard)
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = None
    try:
        import repro
        from perfbench.layers import PER_LAYER
        from perfbench.metrics import END_TO_END, end_to_end, overheads
        from perfbench.workloads import NEEDS_NUMPY, OPERATION, WORKLOADS
        from repro.sim import NUMPY_AVAILABLE

        if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"benchmarking {repro.__file__}, not this "
                             f"checkout's src/repro")
        if args.workload in NEEDS_NUMPY and not NUMPY_AVAILABLE:
            raise SystemExit(f"the {args.workload} workload runs the numpy "
                             f"batch engine: numpy is required")

        workload = WORKLOADS[args.workload](args.seed, args.size, run_dir)
        setups = [time.perf_counter() - STARTED]
        if args.setup_only:
            print(setups[0])
            return 0
        if args.size == "full":
            setups += [_setup_in_fresh_process(args)
                       for _ in range(SETUPS - 1)]
        workload.prepare_checks()
        measurement = workload.measure(args.seconds, bool(args.trace))
        workload.finish(measurement)
    finally:
        if workload is not None:
            workload.close()
        isolated = not guard.exists()
        shutil.rmtree(run_dir, ignore_errors=True)
    checks = workload.checks
    checks.record(isolated, "the run wrote to the default cache directory")

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s,"
          f" size {args.size}, trace {args.trace}")
    print(f"  operation: {OPERATION[args.workload]}")
    e2e = end_to_end(measurement.plain, setups)
    for name, (value, note) in e2e.items():
        print(f"  {name:<18} {value:14.4f} {END_TO_END[name]:<7} ({note})")
    print(f"  error_rate         {checks.failed}/{checks.attempted} "
          f"operations failed or mismatched")
    for error in checks.errors:
        print(f"    ! {error}")
    if args.trace:
        figures = dict(measurement.layers)
        figures.update(overheads(measurement.plain, measurement.traced))
        print(f"  per layer, per pass ({len(measurement.traced.passes)} "
              f"traced passes):")
        for name, unit in sorted(PER_LAYER.items()):
            print(f"    {name:<40} {figures[name]:14.4f} {unit}")
        for source, layers in sorted(measurement.sources.items()):
            shown = ", ".join(f"{layer} {ms:.1f}" for layer, ms in
                              sorted(layers.items()))
            print(f"    source {source} (ms per pass): {shown}")
        if args.chrome_trace:
            from repro.obs import write_chrome_trace
            write_chrome_trace(measurement.telemetry, args.chrome_trace)
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, (value, _) in e2e.items()}
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
