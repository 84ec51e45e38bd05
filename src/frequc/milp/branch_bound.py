"""Exact MILP solving over :class:`MilpModel`.

``solve`` compiles the model once into arrays (:meth:`MilpModel.compile`),
hands them to HiGHS in one array call through :func:`run_highs`, rounds the
binaries of the answer and re-checks every bound and row against the same
arrays.  A solution that fails the re-check is not reported optimal; an
exception inside HiGHS is raised as :class:`SolverError`.  A model whose
binaries are all fixed by their bounds, such as a re-dispatch, is solved as
an LP.  With ``relax_first`` the LP relaxation goes first and, when it is
optimal and integral, is the answer: a relaxation's optimum is a bound on
the MILP's, and an integral one is a point of the MILP too.

HiGHS is reached through the binding that scipy (>= 1.17) bundles,
``scipy.optimize._highspy._core``.  It is private to scipy, so only
:func:`run_highs` imports it.  :func:`run_highs` sets HiGHS's options
``output_flag`` (off), ``presolve`` (on), ``mip_rel_gap``, ``mip_max_nodes``
and ``mip_heuristic_run_feasibility_jump`` (off).  Feasibility jump is a
primal heuristic HiGHS runs before the root LP of every MIP; the window
MIPs close at the root, and without it HiGHS's other heuristics reach the
same optima on the bundled and benchmark windows, so it only adds time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import CompiledModel, MilpModel


# How far from an integer a free integer column of an LP relaxation may lie
# for the relaxation to count as integral.
INTEGRAL_TOL = 1e-9


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


def solve(model: MilpModel, options: SolveOptions | None = None, *,
          relax_first: bool = False) -> MilpSolution:
    """Solve the model with HiGHS and re-check feasibility of the answer.

    With ``relax_first`` the LP relaxation is solved first; when it is
    optimal with every free integer column within ``INTEGRAL_TOL`` of an
    integer, it is the MILP's optimum too and is returned, with no nodes
    and no gap.  Otherwise the MILP is solved as without it.
    """
    options = options or SolveOptions()
    compiled = model.compile()
    sol = _solve_highs(model, compiled, options, relax_first)
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
                 options: SolveOptions, relax_first: bool) -> MilpSolution:
    lb, ub = compiled.lb, compiled.ub
    # an integer column whose bounds pin it to one integer needs no
    # branching; with none left free HiGHS solves the model as an LP
    free = (compiled.integrality > 0) & ((lb != ub) | (lb != np.round(lb)))
    relaxed = np.zeros_like(compiled.integrality)
    try:
        if not free.any():
            sol = run_highs(compiled, relaxed, options)
        else:
            sol = run_highs(compiled, relaxed, options) if relax_first else None
            # an optimal relaxation that is integral is the MILP's optimum
            if sol is None or not (sol.status == "optimal" and np.all(
                    np.abs(sol.values[free] - np.round(sol.values[free]))
                    <= INTEGRAL_TOL)):
                sol = run_highs(compiled, compiled.integrality, options)
    except Exception as exc:  # raised by the solver, not returned as a status
        raise SolverError(f"HiGHS failed on {model.name}: {exc}") from exc
    if sol.values is None:
        return sol
    sol.objective += model.objective_constant
    # a model solved as an LP is its own bound
    sol.bound = (sol.objective if sol.bound is None
                 else sol.bound + model.objective_constant)
    return sol


def run_highs(compiled: CompiledModel, integrality: np.ndarray,
              options: SolveOptions) -> MilpSolution:
    """Solve the compiled arrays with ``integrality`` in one HiGHS call.

    Returns HiGHS's status and, where it has one, its point with the
    objective without the model's constant.  For a MIP ``bound``, ``gap``
    and ``nodes`` are HiGHS's; for an LP ``bound`` is None.  Values are
    returned when HiGHS is optimal, and for a MIP also on a time,
    iteration or solution limit with a finite objective.  Raises
    :class:`SolverError` when HiGHS rejects an option or the model.

    The options are fixed, apart from the gap and node limit that
    ``options`` carries: no log, presolve on, and no feasibility-jump
    heuristic, which costs a quarter to a third of HiGHS's time on the
    secured windows and changes none of their optima.  The tests compare
    the answers bit for bit with scipy's ``milp``, which still runs it.
    """
    from scipy.optimize._highspy import _core

    status = _core.HighsStatus
    model_status = _core.HighsModelStatus
    highs = _core._Highs()
    # the value's Python type selects the binding's overload
    for name, value in (("output_flag", False), ("presolve", "on"),
                        ("mip_rel_gap", float(options.opt_gap)),
                        ("mip_max_nodes", int(options.max_nodes)),
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
    if ran == status.kError or not (
            got == model_status.kOptimal
            or (is_mip and got in limits and math.isfinite(objective))):
        return MilpSolution(state)
    values = np.array(highs.getSolution().col_value)
    if not is_mip:
        return MilpSolution(state, objective, values, None, 0.0, 0)
    return MilpSolution(state, objective, values, info.mip_dual_bound,
                        info.mip_gap, info.mip_node_count)
