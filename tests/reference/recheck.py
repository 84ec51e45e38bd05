"""The feasibility re-check as a loop over variables and rows.

``LaidOutModel.check_feasible`` computes the same messages from the
laid-out model's arrays; the tests require the two lists to be equal.  Every test
asks for the value to be inside its bound, so a NaN value or activity is
reported.
"""

from __future__ import annotations

import math

import numpy as np

from frequc.milp import MilpModel
from frequc.milp.model import SENSE_EQ, SENSE_GE, SENSE_LE


def check_feasible_loop(model: MilpModel, x: np.ndarray, tol: float = 1e-6) -> list[str]:
    """Return human-readable violation messages for point x (empty if ok)."""
    bad: list[str] = []
    for j, name in enumerate(model.names):
        value, lb, ub = float(x[j]), float(model.lb[j]), float(model.ub[j])
        if not lb - tol <= value <= ub + tol:
            bad.append(f"bound {name}: {value!r} outside [{lb}, {ub}]")
        if model.integrality[j] and (not math.isfinite(value)
                                     or not abs(value - round(value)) <= tol):
            bad.append(f"integrality {name}: {value!r}")
    for row in model.rows:
        act = float(sum(c * x[j] for j, c in row.coeffs.items()))
        scale = max(1.0, abs(row.rhs))
        if row.sense == SENSE_LE and not act <= row.rhs + tol * scale:
            bad.append(f"row {row.label}: {act!r} > {row.rhs!r}")
        elif row.sense == SENSE_GE and not act >= row.rhs - tol * scale:
            bad.append(f"row {row.label}: {act!r} < {row.rhs!r}")
        elif row.sense == SENSE_EQ and not abs(act - row.rhs) <= tol * scale:
            bad.append(f"row {row.label}: {act!r} != {row.rhs!r}")
    return bad
