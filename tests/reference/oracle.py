"""Exhaustive MILP oracle: every binary assignment, each continuous
remainder solved by the dense simplex in :mod:`.simplex`.

It shares no code with HiGHS, which makes it the reference the solver is
tested against.  Only for small models: it refuses more than 20 binaries.
"""

from __future__ import annotations

import itertools

import numpy as np

from frequc.milp import MilpModel, MilpSolution
from frequc.milp.model import SENSE_EQ, SENSE_GE, SENSE_LE

from .simplex import solve_lp


def dense_rows(model: MilpModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (A, senses, rhs) with senses coded 0 '<=', 1 '>=', 2 '='."""
    a = np.zeros((len(model.rows), model.n_vars), dtype=float)
    senses = np.empty(len(model.rows), dtype=np.int64)
    rhs = np.empty(len(model.rows), dtype=float)
    code = {SENSE_LE: 0, SENSE_GE: 1, SENSE_EQ: 2}
    for i, row in enumerate(model.rows):
        for j, c in row.coeffs.items():
            a[i, j] = c
        senses[i] = code[row.sense]
        rhs[i] = row.rhs
    return a, senses, rhs


def solve_exhaustive(model: MilpModel) -> MilpSolution:
    """Enumerate all binary assignments; independent of HiGHS.

    Only intended for small models; refuses more than 20 binaries.
    """
    model.compile()
    bins = model.binary_indices()
    if len(bins) > 20:
        raise ValueError(f"exhaustive enumeration capped at 20 binaries, got {len(bins)}")
    cont = np.flatnonzero(model.integrality == 0).tolist()
    a, senses, rhs = dense_rows(model)
    c = np.zeros(model.n_vars)
    for j, v in model.objective.items():
        c[j] = v
    lb, ub = model.lb, model.ub
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
        obj = res.objective + float(c_bin @ vec)
        if obj < best_obj - 1e-12:
            best_obj = obj
            x = np.empty(model.n_vars)
            x[bins] = vec
            x[cont] = res.x
            best_x = x
    if best_x is None:
        return MilpSolution("infeasible", nodes=2 ** len(bins))
    return MilpSolution("optimal", best_obj, best_x, best_obj, 0.0, 2 ** len(bins))
