"""End-to-end and per-layer benchmark of ``frequc study``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload day-optimised --seed 1 --seconds 45 --trace 0

The benchmark writes a seeded input set (see ``inputs.py``), checks it with
``frequc validate``, then drives the user's command
``frequc.cli.main(["study", ..., "--backend", "highs"])`` in this process.

``--trace 0`` repeats the study call for ``--seconds`` and reports the
end-to-end metrics: median ``study_s``, median ``setup_s`` over fresh
interpreters that import the CLI and solver stack and load the inputs,
the summed ``cost_of_freq_services`` and the peak resident memory.
``--trace 1`` makes one plain and one traced call, reports the per-layer
metrics (``tracing.py``), re-checks every secured window and realized path
with the swing equation, and writes the spans to ``.perfbench-spans/``.

Every call passes the correctness gate in ``check_study``.  The last line
of standard output is one JSON object with ``correct``, ``attempted`` and
``failed`` (study cells) and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-spans"
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, study_cells, write_inputs  # noqa: E402

BACKEND = "highs"
SETUP_REPEATS = 5
SWING_TOL = 1e-6  # the acceptance test's tolerance for swing re-checks

# Runs in a fresh interpreter: what every CLI invocation pays before solving.
SETUP_PROBE = """
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import frequc.cli
import scipy.optimize
with contextlib.redirect_stdout(io.StringIO()):
    rc = frequc.cli.main(["validate", sys.argv[2], sys.argv[3],
                          "--study", sys.argv[4]])
print(rc, time.perf_counter() - start)
"""


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numba": numba_version,
            "backend": BACKEND}


def measure_setup(inputs) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(inputs.system),
         str(inputs.scenarios), str(inputs.config)],
        capture_output=True, text=True, timeout=120, check=True)
    rc, seconds = proc.stdout.split()
    if rc != "0":
        raise RuntimeError(f"frequc validate failed in set-up probe: {proc.stdout}")
    return float(seconds)


def run_study(main, inputs, out: Path, seed: int) -> int:
    """One ``frequc study`` call; the program's stdout goes to our stderr."""
    argv = ["study", str(inputs.system), str(inputs.scenarios),
            str(inputs.config), "-o", str(out), "--backend", BACKEND,
            "--seed", str(seed)]
    with contextlib.redirect_stdout(sys.stderr):
        try:
            return main(argv)
        except Exception:  # a crash fails every cell of the call
            traceback.print_exc()
            return -1


def check_study(rc: int, out: Path, cells) -> tuple[int, float]:
    """Correctness gate for one study call: (failed cells, summed cost).

    A cell fails unless the call exited 0 and ``study.txt`` holds exactly
    one finite row for it, with ``cost_of_freq_services`` at least
    -1e-6 of the cell's realized operating cost and the largest unit's
    load factor in [0, 1].
    """
    path = out / "study.txt"
    if rc != 0 or not path.is_file():
        return len(cells), math.nan
    lines = path.read_text().split("\n")
    header = lines[0].split()
    rows = [dict(zip(header, line.split())) for line in lines[1:]
            if len(line.split()) == len(header)]
    failed, total = 0, 0.0
    for wind, mode in cells:
        match = [r for r in rows if r.get("wind_capacity_mw") == f"{wind:g}"
                 and r.get("mode") == mode]
        try:
            row, = match
            cost = float(row["cost_of_freq_services"])
            lf = float(row["largest_unit_load_factor"])
            values = [float(row[k]) for k in header[2:]]
            op_cost = _trajectory_cost(
                out / f"trajectory_w{wind:g}_{mode}.txt")
        except (ValueError, KeyError, OSError):
            failed += 1
            continue
        if (not all(math.isfinite(v) for v in values)
                or not math.isfinite(op_cost)
                or cost < -1e-6 * abs(op_cost) or not 0.0 <= lf <= 1.0):
            failed += 1
            continue
        total += cost
    return failed, total


def _trajectory_cost(path: Path) -> float:
    """Realized operating cost of a cell: the sum of its trajectory's costs."""
    lines = [line.split() for line in path.read_text().split("\n") if line]
    col = lines[0].index("cost")
    return sum(float(row[col]) for row in lines[1:])


def swing_recheck(secured_runs) -> tuple[int, int]:
    """Swing-check every secured window and realized path: (checks, failures)."""
    from frequc.scheduler import verify_solution, verify_trajectory

    checks = failures = 0
    for system, run in secured_runs:
        reports = [verify_solution(w, system, tol=SWING_TOL)
                   for w in run.windows]
        reports.append(verify_trajectory(run.trajectory, system, tol=SWING_TOL))
        checks += sum(len(r.checks) for r in reports)
        failures += sum(len(r.failures()) for r in reports)
    return checks, failures


def timed_runs(main, inputs, work: Path, args, cells) -> dict:
    """Untraced study calls for ``args.seconds``; end-to-end metrics."""
    setup = [measure_setup(inputs) for _ in range(SETUP_REPEATS)]
    durations, costs = [], []
    attempted = failed = 0
    begin = time.perf_counter()
    # Start another call only if it should end within the measuring time.
    while not durations or (time.perf_counter() - begin
                            + statistics.median(durations) <= args.seconds):
        out = work / f"study{len(durations)}"
        start = time.perf_counter()
        rc = run_study(main, inputs, out, args.seed)
        durations.append(time.perf_counter() - start)
        n_failed, cost = check_study(rc, out, cells)
        attempted += len(cells)
        failed += n_failed
        costs.append(cost)
        shutil.rmtree(out, ignore_errors=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": attempted, "failed": failed,
        "samples": " ".join(f"{d:.3f}" for d in durations),
        "metrics": {
            "study_s": (statistics.median(durations), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "freq_services_cost": (statistics.median(costs), "currency"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        },
    }


def traced_run(main, inputs, work: Path, args, cells) -> dict:
    """One plain and one traced study call; per-layer metrics."""
    from tracing import Tracer, layer_metrics

    start = time.perf_counter()
    rc = run_study(main, inputs, work / "plain", args.seed)
    plain_s = time.perf_counter() - start
    failed, _ = check_study(rc, work / "plain", cells)

    tracer = Tracer()
    with tracer.patched():
        traced_main = tracer.wrap("cli", main)
        start = time.perf_counter()
        rc = run_study(traced_main, inputs, work / "traced", args.seed)
        traced_s = time.perf_counter() - start
    n_failed, _ = check_study(rc, work / "traced", cells)
    failed += n_failed
    checks, insecure = swing_recheck(tracer.secured_runs)
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.dump(SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl")

    metrics = layer_metrics(tracer, traced_s, plain_s)
    metrics["freqdyn.insecure"] = (insecure, "count")
    metrics["gate.swing_checks"] = (checks, "count")
    metrics["cli.cells"] = (len(cells), "count")
    return {"attempted": 2 * len(cells), "failed": failed,
            "samples": f"{plain_s:.3f} plain, {traced_s:.3f} traced",
            "insecure": insecure, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "frequc" / "cli.py").is_file():
        print(f"error: no frequc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import frequc
    import frequc.cli
    import scipy.optimize  # noqa: F401  # lazily imported by the first solve

    if Path(frequc.__file__).resolve().parent != SRC / "frequc":
        print(f"error: imported frequc from {frequc.__file__}", file=sys.stderr)
        return 2

    cells = study_cells(args.workload)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs = write_inputs(ROOT, args.workload, args.seed, work / "inputs")
        with contextlib.redirect_stdout(sys.stderr):
            rc = frequc.cli.main(["validate", str(inputs.system),
                                  str(inputs.scenarios), "--study",
                                  str(inputs.config)])
        if rc != 0:
            print("error: generated inputs fail frequc validate",
                  file=sys.stderr)
            return 2
        run = (traced_run if args.trace else timed_runs)(
            frequc.cli.main, inputs, work, args, cells)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = run["failed"] == 0 and run.get("insecure", 0) == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"study calls (s) {run['samples']}  machine {json.dumps(machine_facts())}")
    print(f"correct {correct}  failed_share {run['failed']}/{run['attempted']}"
          f" = {run['failed'] / run['attempted']:g}")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:26s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
