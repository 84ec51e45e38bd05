"""Seeded input sets for the benchmark workloads.

Every workload starts from the bundled day (``data/toy_system.yaml`` and
``data/toy_scenarios.txt``).  A seed draws, per day, a demand scale and a
wind-share scale and applies them to the demand profile and to the wind
part (demand minus net demand) of every quantile column, so the quantile
rows stay ordered.  Seed 0 repeats the bundled day unchanged.  The program
only ever sees the files written here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# Per-day jitter half-widths.  Small enough that the schedule's shape (and
# so the solver's work) stays close to the bundled day's from seed to seed.
DEMAND_JITTER = 0.0025
WIND_JITTER = 0.01


# The study section of each workload's config; ``periods`` sets how many
# seeded days (24 periods each) the input set holds.
WORKLOADS = {
    # One cell, 48 solves; nearly all time is HiGHS branch and bound over
    # the nadir segment binaries.  Horizon 2 rather than 4 halves the call,
    # so that a run holds several study calls.
    "day-optimised": {
        "wind_capacities": [3000.0], "modes": ["optimised"], "periods": 24,
        "horizon": 2, "first_stage": 2, "deloading_enabled": True,
    },
    # Three independent cells of many small fixed-mode solves; frequc's own
    # Python (build, CSR assembly, extract) is a large share.  Three days
    # rather than a week, so that a run holds several study calls.
    "week-fixed": {
        "wind_capacities": [700.0, 1850.0, 3000.0], "modes": ["fixed"],
        "periods": 72, "horizon": 4, "first_stage": 4,
        "deloading_enabled": True,
    },
    # Harness smoke input: about a second per study call.
    "smoke": {
        "wind_capacities": [1850.0], "modes": ["fixed"], "periods": 24,
        "horizon": 2, "first_stage": 2, "deloading_enabled": True,
    },
}


def study_cells(name: str) -> list[tuple[float, str]]:
    """The (wind capacity, mode) cells a workload's study reports."""
    study = WORKLOADS[name]
    return [(w, m) for w in study["wind_capacities"] for m in study["modes"]]


@dataclass(frozen=True)
class InputSet:
    system: Path
    scenarios: Path
    config: Path


def _read_table(path: Path) -> tuple[list[float], np.ndarray]:
    """Quantile levels and rows, read without frequc: the generator must not
    depend on the code it benchmarks."""
    rows = []
    for line in path.read_text().splitlines():
        body = line.split("#", 1)[0].split()
        if body:
            rows.append([float(tok) for tok in body])
    return rows[0], np.array(rows[1:])


def write_inputs(root: Path, name: str, seed: int, dest: Path) -> InputSet:
    """Write the system YAML, quantile table and study config for a run."""
    study = WORKLOADS[name]
    bundled_system = root / "data" / "toy_system.yaml"
    bundled_table = root / "data" / "toy_scenarios.txt"
    out = InputSet(dest / "system.yaml", dest / "scenarios.txt",
                   dest / "study.yaml")
    dest.mkdir(parents=True, exist_ok=True)
    out.config.write_text(yaml.safe_dump({"study": study}, sort_keys=False))

    doc = yaml.safe_load(bundled_system.read_text())
    levels, table = _read_table(bundled_table)
    demand = np.array(doc["demand"]["profile"], dtype=float)
    wind = demand[:, None] - table
    rng = np.random.default_rng(seed)
    jitter = 0.0 if seed == 0 else 1.0
    days_demand, days_table = [], []
    for _ in range(math.ceil(study["periods"] / len(demand))):
        d_scale = 1.0 + jitter * rng.uniform(-DEMAND_JITTER, DEMAND_JITTER)
        w_scale = 1.0 + jitter * rng.uniform(-WIND_JITTER, WIND_JITTER)
        day = np.round(demand * d_scale, 1)
        days_demand.append(day)
        days_table.append(np.round(day[:, None] - wind * w_scale, 1))
    doc["demand"]["profile"] = [float(v) for v in np.concatenate(days_demand)]
    out.system.write_text(yaml.safe_dump(doc, sort_keys=False))
    lines = ["  ".join(f"{lv:g}" for lv in levels)]
    lines += ["  ".join(f"{v:.1f}" for v in row)
              for row in np.concatenate(days_table)]
    out.scenarios.write_text("\n".join(lines) + "\n")
    return out
