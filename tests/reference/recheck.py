"""The feasibility re-check as a loop over variables and rows.

``MilpModel.check_feasible`` computes the same messages from the compiled
arrays; the tests require the two lists to be equal.
"""

from __future__ import annotations

import numpy as np

from frequc.milp import MilpModel
from frequc.milp.model import SENSE_EQ, SENSE_GE, SENSE_LE


def check_feasible_loop(model: MilpModel, x: np.ndarray, tol: float = 1e-6) -> list[str]:
    """Return human-readable violation messages for point x (empty if ok)."""
    bad: list[str] = []
    for v in model.variables:
        value = float(x[v.index])
        if value < v.lb - tol or value > v.ub + tol:
            bad.append(f"bound {v.name}: {value!r} outside [{v.lb}, {v.ub}]")
        if v.is_integer and abs(value - round(value)) > tol:
            bad.append(f"integrality {v.name}: {value!r}")
    for row in model.rows:
        act = model.row_activity(row, x)
        scale = max(1.0, abs(row.rhs))
        if row.sense == SENSE_LE and act > row.rhs + tol * scale:
            bad.append(f"row {row.label}: {act!r} > {row.rhs!r}")
        elif row.sense == SENSE_GE and act < row.rhs - tol * scale:
            bad.append(f"row {row.label}: {act!r} < {row.rhs!r}")
        elif row.sense == SENSE_EQ and abs(act - row.rhs) > tol * scale:
            bad.append(f"row {row.label}: {act!r} != {row.rhs!r}")
    return bad
