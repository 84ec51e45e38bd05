"""Mixed-integer linear programming layer: model container, HiGHS solving
with an independent re-check on the laid-out model, whose numbers are
checked when it is made, and LP text export."""

from .branch_bound import MilpSolution, SolverError, solve
from .lpio import export_model
from .model import LinearRow, MilpModel, ModelError

__all__ = [
    "LinearRow",
    "MilpModel",
    "MilpSolution",
    "ModelError",
    "SolverError",
    "export_model",
    "solve",
]
