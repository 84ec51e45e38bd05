"""Exact MILP solving over :class:`MilpModel`.

Two routes:

* ``solve`` -- the solver: HiGHS through ``scipy.optimize.milp``, followed
  by rounding of the binaries and an independent re-check of every bound
  and row.  A solution that fails the re-check is not reported optimal;
  an exception inside HiGHS is raised as :class:`SolverError`.
* ``solve_exhaustive`` -- enumerates every binary assignment (capped at 20)
  and solves the continuous remainder with the dense simplex in
  :mod:`.simplex`.  It shares no code with HiGHS, which makes it the
  reference the solver is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .model import MilpModel
from .simplex import solve_lp


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
    model.validate()
    sol = _solve_highs(model, options)
    if sol.values is not None:
        for j in model.binary_indices():
            sol.values[j] = float(round(sol.values[j]))
        sol.violations = model.check_feasible(sol.values, tol=10 * options.feas_tol)
        if sol.violations and sol.status == "optimal":
            sol.status = "violated"
    return sol


# -- exhaustive oracle ---------------------------------------------------------


def solve_exhaustive(model: MilpModel) -> MilpSolution:
    """Enumerate all binary assignments; independent of HiGHS.

    Only intended for small models; refuses more than 20 binaries.
    """
    model.validate()
    bins = model.binary_indices()
    if len(bins) > 20:
        raise ValueError(f"exhaustive enumeration capped at 20 binaries, got {len(bins)}")
    cont = [v.index for v in model.variables if not v.is_integer]
    a, senses, rhs = model.dense_rows()
    c = model.objective_vector()
    lb, ub = model.bounds_arrays()
    a_bin = a[:, bins] if bins else np.zeros((a.shape[0], 0))
    a_cont = a[:, cont]
    c_bin = c[bins]
    c_cont = c[cont]

    best_obj = np.inf
    best_x: np.ndarray | None = None
    for assign in itertools.product((0.0, 1.0), repeat=len(bins)):
        vec = np.array(assign)
        ok = True
        for k, j in enumerate(bins):
            if vec[k] < lb[j] - 1e-12 or vec[k] > ub[j] + 1e-12:
                ok = False
                break
        if not ok:
            continue
        rhs_adj = rhs - (a_bin @ vec if bins else 0.0)
        res = solve_lp(c_cont, a_cont, senses, rhs_adj, lb[cont], ub[cont])
        if res.status != "optimal":
            continue
        obj = res.objective + float(c_bin @ vec) + model.objective_constant
        if obj < best_obj - 1e-12:
            best_obj = obj
            x = np.empty(model.n_vars)
            x[bins] = vec
            x[cont] = res.x
            best_x = x
    if best_x is None:
        return MilpSolution("infeasible", nodes=2 ** len(bins))
    return MilpSolution("optimal", best_obj, best_x, best_obj, 0.0, 2 ** len(bins))


# -- HiGHS ---------------------------------------------------------------------


def _solve_highs(model: MilpModel, options: SolveOptions) -> MilpSolution:
    import scipy.sparse as sp
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = model.n_vars
    lb, ub = model.bounds_arrays()
    c = model.objective_vector()
    integrality = np.zeros(n)
    for j in model.binary_indices():
        integrality[j] = 1

    constraints = []
    if model.rows:
        data, rows_idx, cols_idx = [], [], []
        lo = np.empty(len(model.rows))
        hi = np.empty(len(model.rows))
        for i, row in enumerate(model.rows):
            for j, v in row.coeffs.items():
                rows_idx.append(i)
                cols_idx.append(j)
                data.append(v)
            if row.sense == "<=":
                lo[i], hi[i] = -np.inf, row.rhs
            elif row.sense == ">=":
                lo[i], hi[i] = row.rhs, np.inf
            else:
                lo[i] = hi[i] = row.rhs
        a = sp.csr_matrix((data, (rows_idx, cols_idx)), shape=(len(model.rows), n))
        constraints = [LinearConstraint(a, lo, hi)]

    try:
        res = milp(
            c=c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lb, ub),
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
    # HiGHS reports no dual bound for a model without binaries: it solved
    # an LP, whose optimum is its own bound
    if res.mip_dual_bound is None:
        bound = obj
    else:
        bound = float(res.mip_dual_bound) + model.objective_constant
    return MilpSolution(status, obj, np.asarray(res.x, dtype=float), bound,
                        gap, nodes)
