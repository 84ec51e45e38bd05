"""HiGHS through ``scipy.optimize.milp``: how ``frequc.milp`` called the
solver before it passed the compiled arrays to HiGHS itself.  The two
routes differ in one setting of HiGHS's search: ``scipy.optimize.milp``
runs the feasibility-jump heuristic, which ``run_highs`` turns off.  The
tests still require both routes to return the same status, point,
objective, bound, gap and node count, bit for bit, on the same arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from frequc.milp import MilpSolution, SolveOptions
from frequc.milp.model import CompiledModel


def solve_with_scipy(compiled: CompiledModel, integrality: np.ndarray,
                     options: SolveOptions) -> MilpSolution:
    """What ``frequc.milp.branch_bound.run_highs`` returns, read from
    ``scipy.optimize.milp``: no objective constant, no bound for an LP."""
    constraints = []
    if compiled.a.shape[0]:
        constraints = [optimize.LinearConstraint(compiled.a, compiled.lo,
                                                 compiled.hi)]
    res = optimize.milp(
        c=compiled.c, constraints=constraints, integrality=integrality,
        bounds=optimize.Bounds(compiled.lb, compiled.ub),
        options={"presolve": True, "mip_rel_gap": options.opt_gap,
                 "node_limit": options.max_nodes})
    status = {0: "optimal", 1: "limit", 2: "infeasible",
              3: "unbounded"}.get(res.status, "limit")
    if res.x is None:
        return MilpSolution(status)
    return MilpSolution(
        status, float(res.fun), np.asarray(res.x, dtype=float),
        None if res.mip_dual_bound is None else float(res.mip_dual_bound),
        0.0 if res.mip_gap is None else float(res.mip_gap),
        0 if res.mip_node_count is None else int(res.mip_node_count))
