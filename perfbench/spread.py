"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload week-fixed --seeds 1-10 [--trace 1] [--out FILE]

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread
as a share of the median, which is what a metric's ``bound`` in
``BENCHMARK.json`` is compared against.  ``--out`` writes the machine
facts, the per-seed results and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import machine_facts  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs, values = [], {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0], None, vals[0])
        spread = (q3 - q1) / abs(median) if median else None
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread}
        print(f"{name:26s} median {median:14.6g}  q1 {q1:14.6g}  "
              f"q3 {q3:14.6g}  spread "
              + ("-" if spread is None else f"{spread:.4f}"))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace,
             "machine": machine_facts(), "runs": runs,
             "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
