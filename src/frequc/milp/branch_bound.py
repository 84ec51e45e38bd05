"""Exact MILP solving over :class:`MilpModel`.

``solve`` compiles the model once into arrays (:meth:`MilpModel.compile`),
hands them to HiGHS through ``scipy.optimize.milp``, rounds the binaries of
the answer and re-checks every bound and row against the same arrays.  A
solution that fails the re-check is not reported optimal; an exception
inside HiGHS is raised as :class:`SolverError`.  A model whose binaries are
all fixed by their bounds, such as a re-dispatch, is solved as an LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import CompiledModel, MilpModel


class SolverError(RuntimeError):
    """Raised when the solver itself fails, as opposed to returning a status."""


@dataclass
class SolveOptions:
    feas_tol: float = 1e-6
    opt_gap: float = 1e-6
    max_nodes: int = 200_000


@dataclass
class MilpSolution:
    # "optimal" | "infeasible" | "limit" | "unbounded", or "violated" when
    # the returned point breaks a bound or row of the model
    status: str
    objective: float | None = None
    values: np.ndarray | None = None
    bound: float | None = None
    gap: float | None = None
    nodes: int = 0
    violations: list[str] = field(default_factory=list)


def solve(model: MilpModel, options: SolveOptions | None = None) -> MilpSolution:
    """Solve the model with HiGHS and re-check feasibility of the answer."""
    options = options or SolveOptions()
    compiled = model.compile()
    sol = _solve_highs(model, compiled, options)
    if sol.values is not None:
        integer = compiled.integrality > 0
        # + 0.0 turns a rounded -0.0 into 0.0
        sol.values[integer] = np.round(sol.values[integer]) + 0.0
        sol.violations = compiled.check_feasible(sol.values,
                                                 tol=10 * options.feas_tol)
        if sol.violations and sol.status == "optimal":
            sol.status = "violated"
    return sol


def _solve_highs(model: MilpModel, compiled: CompiledModel,
                 options: SolveOptions) -> MilpSolution:
    from scipy import optimize

    lb, ub = compiled.lb, compiled.ub
    # an integer column whose bounds pin it to one integer needs no
    # branching; with none left free HiGHS solves the model as an LP
    free = (compiled.integrality > 0) & ((lb != ub) | (lb != np.round(lb)))
    integrality = (compiled.integrality if free.any()
                   else np.zeros_like(compiled.integrality))
    constraints = []
    if compiled.a.shape[0]:
        constraints = [optimize.LinearConstraint(compiled.a, compiled.lo,
                                                 compiled.hi)]
    try:
        res = optimize.milp(
            c=compiled.c,
            constraints=constraints,
            integrality=integrality,
            bounds=optimize.Bounds(lb, ub),
            options={"presolve": True, "mip_rel_gap": options.opt_gap,
                     "node_limit": options.max_nodes},
        )
    except Exception as exc:  # raised by the solver, not returned as a status
        raise SolverError(f"HiGHS failed on {model.name}: {exc}") from exc
    status_map = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded"}
    status = status_map.get(res.status, "limit")
    if res.x is None:
        return MilpSolution(status)
    obj = float(res.fun) + model.objective_constant
    gap = float(res.mip_gap) if res.mip_gap is not None else 0.0
    nodes = int(res.mip_node_count) if res.mip_node_count is not None else 0
    # HiGHS reports no dual bound for a model it solved as an LP, whose
    # optimum is its own bound
    if res.mip_dual_bound is None:
        bound = obj
    else:
        bound = float(res.mip_dual_bound) + model.objective_constant
    return MilpSolution(status, obj, np.asarray(res.x, dtype=float), bound,
                        gap, nodes)
