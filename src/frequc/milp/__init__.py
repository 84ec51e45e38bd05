"""Mixed-integer linear programming layer: model container, HiGHS solving
with an independent re-check, an exhaustive oracle on a dense simplex, and
LP text exchange."""

from .branch_bound import (MilpSolution, SolveOptions, SolverError, solve,
                           solve_exhaustive)
from .lpio import LpioError, export_model, import_model, models_equivalent
from .model import LinearRow, LinExpr, MilpModel, ModelError, Variable
from .simplex import LpResult, solve_lp

__all__ = [
    "LinearRow",
    "LinExpr",
    "LpResult",
    "LpioError",
    "MilpModel",
    "MilpSolution",
    "ModelError",
    "SolveOptions",
    "SolverError",
    "Variable",
    "export_model",
    "import_model",
    "models_equivalent",
    "solve",
    "solve_exhaustive",
    "solve_lp",
]
