"""Exhaustive MILP oracle: every binary assignment, each continuous
remainder solved by the dense simplex in :mod:`.simplex`.

It shares no code with HiGHS, which makes it the reference the solver is
tested against.  Only for small models: it refuses more than 20 binaries.

``fewest_secure_units`` enumerates every set of units a period may commit
against the security requirements ``freqsec.must_run`` screens with: the
reference for the fewest units it counts.
"""

from __future__ import annotations

import itertools

import numpy as np

from frequc.freqsec import lost_inertia, period_constants, rocof_slope
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


def fewest_secure_units(fleet, freq, demand: float, loss_floor: float,
                        upper, largest) -> tuple[int, int]:
    """The fewest units besides ``largest`` that a secure commitment has on,
    by enumeration of every set of the other units that may run
    (``upper > 0``), ``largest`` committed.

    A set is secure when its inertia ``H`` (less the inertia ``largest``
    takes with it) and its summed ``pfr_max`` ``R`` meet, at the loss
    ``loss_floor`` and to the screen's 1e-9, the RoCoF requirement, the
    QSS requirement where the period has one and the nadir envelope
    ``H * R >= max chord``.  Returns ``(exact, relaxed)``: the fewest
    units of a secure set, and the fewest ``k`` for which the most
    inertia and the most response of any ``k`` units, taken apart, would
    be; each is the number of units that may run when no ``k`` works.
    """
    constants = period_constants(fleet, freq, demand)
    big = [g.id for g in fleet].index(largest.id)
    nadir = max([slope * loss_floor + icpt
                 for slope, icpt in constants.chords], default=0.0)

    def secure(h, r):
        def meets(have, need):
            return have >= need - 1e-9 * max(1.0, abs(need))
        return (meets(h, rocof_slope(freq) * loss_floor) and meets(h * r, nadir)
                and (constants.qss is None
                     or meets(r, loss_floor + constants.qss)))

    others = [i for i in range(len(fleet)) if i != big and upper[i] > 0.0]
    exact = relaxed = len(others)
    for k in reversed(range(len(others) + 1)):
        picks = list(itertools.combinations(others, k))
        h = [constants.inertia[big] - lost_inertia(freq)
             + sum(constants.inertia[i] for i in pick) for pick in picks]
        r = [fleet[big].pfr_max + sum(fleet[i].pfr_max for i in pick)
             for pick in picks]
        if any(secure(*cell) for cell in zip(h, r)):
            exact = k
        if secure(max(h), max(r)):
            relaxed = k
    return exact, relaxed
