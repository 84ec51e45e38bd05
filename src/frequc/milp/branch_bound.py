"""Exact MILP solving over a :class:`MilpModel` or a :class:`LaidOutModel`.

``solve`` compiles the model once into arrays (its ``compile``),
hands them to HiGHS in one array call through :func:`run_highs`, rounds the
binaries of the answer and re-checks every bound and row against the same
arrays.  A solution that fails the re-check is not reported optimal; an
exception inside HiGHS is raised as :class:`SolverError`.  Every model
goes to HiGHS as its LP relaxation first.  A model whose binaries are all
fixed by their bounds, such as a re-dispatch, is an LP, and the
relaxation is its answer.  Otherwise a relaxation that is optimal and
integral is the answer too: its optimum is a bound on the MILP's, and an
integral one is a point of the MILP.  Any other relaxation is followed by
the MILP, solved cold.

The relaxation may start from a simplex ``basis`` of an earlier LP with
the same columns and rows, such as the last window of the same layout in
a rolling run; every optimal LP returns its final basis for the next.
Warm started, HiGHS skips presolve and needs a few dozen simplex
iterations where a cold start needs hundreds.

HiGHS is reached through the binding that scipy (>= 1.17) bundles,
``scipy.optimize._highspy._core``.  It is private to scipy, so only
:func:`run_highs` imports it.  :func:`run_highs` sets HiGHS's options
``output_flag`` (off), ``presolve`` (on), ``mip_rel_gap`` (``OPT_GAP``),
``mip_max_nodes`` (``MAX_NODES``) and ``mip_heuristic_run_feasibility_jump``
(off).  Feasibility jump is a
primal heuristic HiGHS runs before the root LP of every MIP; the window
MIPs close at the root, and without it HiGHS's other heuristics reach the
same optima on the bundled and benchmark windows, so it only adds time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import CompiledModel, LaidOutModel, MilpModel


# How far from an integer a free integer column of an LP relaxation may lie
# for the relaxation to count as integral.
INTEGRAL_TOL = 1e-9
# HiGHS's relative MIP gap and node limit, set by run_highs
OPT_GAP = 1e-6
MAX_NODES = 200_000
# The re-check holds a solution's bounds and rows to 10 * FEAS_TOL
FEAS_TOL = 1e-6


class SolverError(RuntimeError):
    """Raised when the solver itself fails, as opposed to returning a status."""


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
    # HiGHS's simplex iterations, summed over the solve's calls
    iterations: int = 0
    # the final basis of the solve's optimal LP, a HighsBasis: the start
    # of the next LP with the same columns and rows
    basis: object = None


def solve(model: MilpModel | LaidOutModel, *, basis=None) -> MilpSolution:
    """Solve the model with HiGHS and re-check feasibility of the answer.

    The LP relaxation is solved first, from ``basis`` when one is given
    (the ``basis`` of an earlier solve of a model with the same columns
    and rows).  When it is optimal with every free integer column within
    ``INTEGRAL_TOL`` of an integer, it is the MILP's optimum too and is
    returned, with no nodes and no gap.  Otherwise the MILP is solved
    cold, and its answer carries the relaxation's basis.
    """
    compiled = model.compile()
    sol = _solve_highs(model, compiled, basis)
    if sol.values is not None:
        integer = compiled.integrality > 0
        # + 0.0 turns a rounded -0.0 into 0.0
        sol.values[integer] = np.round(sol.values[integer]) + 0.0
        sol.violations = compiled.check_feasible(sol.values,
                                                 tol=10 * FEAS_TOL)
        if sol.violations and sol.status == "optimal":
            sol.status = "violated"
    return sol


def _solve_highs(model: MilpModel | LaidOutModel, compiled: CompiledModel,
                 basis) -> MilpSolution:
    lb, ub = compiled.lb, compiled.ub
    # an integer column whose bounds pin it to one integer needs no
    # branching; with none left free the relaxation is the model
    free = (compiled.integrality > 0) & ((lb != ub) | (lb != np.round(lb)))
    try:
        sol = run_highs(compiled, np.zeros_like(compiled.integrality), basis)
        # an optimal relaxation that is integral is the MILP's optimum
        if free.any() and not (sol.status == "optimal" and np.all(
                np.abs(sol.values[free] - np.round(sol.values[free]))
                <= INTEGRAL_TOL)):
            lp, sol = sol, run_highs(compiled, compiled.integrality)
            sol.iterations += lp.iterations
            sol.basis = lp.basis
    except Exception as exc:  # raised by the solver, not returned as a status
        raise SolverError(f"HiGHS failed on {model.name}: {exc}") from exc
    if sol.values is not None and sol.bound is None:
        sol.bound = sol.objective  # a model solved as an LP is its own bound
    return sol


def run_highs(compiled: CompiledModel, integrality: np.ndarray,
              basis=None) -> MilpSolution:
    """Solve the compiled arrays with ``integrality`` in one HiGHS call.

    Returns HiGHS's status, its simplex ``iterations`` and, where it has
    one, its point and objective.  For a MIP ``bound``, ``gap`` and
    ``nodes`` are HiGHS's; for an LP ``bound`` is None, and an optimal LP
    also returns its final ``basis``.  Values are
    returned when HiGHS is optimal, and for a MIP also on a time,
    iteration or solution limit with a finite objective.  An LP starts
    from ``basis`` when one is given.  Raises :class:`SolverError` when
    HiGHS rejects an option, the model or the basis.

    The options are fixed: no log, presolve on, the gap ``OPT_GAP``, the
    node limit ``MAX_NODES``, and no feasibility-jump heuristic, which
    costs a quarter to a third of HiGHS's time on the secured windows and
    changes none of their optima.  The tests compare
    the answers bit for bit with scipy's ``milp``, which still runs it.
    """
    from scipy.optimize._highspy import _core

    status = _core.HighsStatus
    model_status = _core.HighsModelStatus
    highs = _core._Highs()
    # the value's Python type selects the binding's overload
    for name, value in (("output_flag", False), ("presolve", "on"),
                        ("mip_rel_gap", float(OPT_GAP)),
                        ("mip_max_nodes", int(MAX_NODES)),
                        ("mip_heuristic_run_feasibility_jump", False)):
        if highs.setOptionValue(name, value) == status.kError:
            raise SolverError(f"HiGHS rejected option {name} = {value!r}")

    a = compiled.a
    n_rows, n_cols = a.shape
    if highs.passModel(
            n_cols, n_rows, a.nnz, _core.MatrixFormat.kRowwise,
            _core.ObjSense.kMinimize, 0.0, compiled.c, compiled.lb,
            compiled.ub, compiled.lo, compiled.hi,
            a.indptr.astype(np.int32, copy=False),
            a.indices.astype(np.int32, copy=False),
            a.data.astype(np.float64, copy=False),
            integrality.astype(np.int32)) == status.kError:
        raise SolverError("HiGHS rejected the model")
    if basis is not None and highs.setBasis(basis) == status.kError:
        raise SolverError("HiGHS rejected the starting basis")
    ran = highs.run()
    got = highs.getModelStatus()
    state = {model_status.kOptimal: "optimal",
             model_status.kInfeasible: "infeasible",
             model_status.kModelError: "infeasible",
             model_status.kUnbounded: "unbounded"}.get(got, "limit")
    info = highs.getInfo()
    objective = info.objective_function_value
    is_mip = bool(integrality.any())
    limits = (model_status.kTimeLimit, model_status.kIterationLimit,
              model_status.kSolutionLimit)
    # HiGHS reads -1 for a count it has not set
    iterations = max(info.simplex_iteration_count, 0)
    if ran == status.kError or not (
            got == model_status.kOptimal
            or (is_mip and got in limits and math.isfinite(objective))):
        return MilpSolution(state, iterations=iterations)
    values = np.array(highs.getSolution().col_value)
    if not is_mip:
        return MilpSolution(state, objective, values, None, 0.0, 0,
                            iterations=iterations, basis=highs.getBasis())
    return MilpSolution(state, objective, values, info.mip_dual_bound,
                        info.mip_gap, info.mip_node_count,
                        iterations=iterations)
