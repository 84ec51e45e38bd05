"""Exhaustive MILP oracle: every binary assignment, each continuous
remainder solved by the dense simplex in :mod:`.simplex`.

It shares no code with HiGHS, which makes it the reference the solver is
tested against.  Only for small models: it refuses more than 20 binaries.

``fewest_secure_units`` enumerates every set of units a period may commit
and asks, of each, one linear program over the loss whether it meets the
security requirements and carries the net demand: the reference for the
fewest units ``freqsec.security_count`` counts.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

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


def _secure(freq, constants, loss_floor: float, h: float, units,
            net: float | None) -> bool:
    """Whether ``units``, ``(p_max, pfr_max, sets the loss)`` with the
    largest first and committed, and post-loss inertia ``h`` admit one
    point of a period's rows, by one linear program over the loss ``P``,
    each unit's output and response and a margin ``m``, maximised: the
    RoCoF row, the QSS row where the period has one, the nadir envelope
    ``h * R >= chord(P)``, and, unless ``net`` is None, ``sum p >= net``,
    each held with ``m`` times the requirement's size at the rating to
    spare; ``p + r <= p_max`` for each unit, the largest's output at least
    ``loss_floor`` and ``P`` at least every output that sets the loss.
    The point counts when ``m >= -1e-9``: the screen's 1e-9."""
    rating, n = freq.largest_unit_rating, len(units)
    # columns: P, m, then each unit's output, then each unit's response
    rows, rhs = [], []

    def row(p_loss=0.0, margin=0.0, outputs=0.0, responses=0.0, bound=0.0):
        rows.append(np.concatenate((
            [p_loss, margin], np.broadcast_to(outputs, n),
            np.broadcast_to(responses, n))))
        rhs.append(bound)

    slope = rocof_slope(freq)
    row(p_loss=slope, margin=max(1.0, slope * rating), bound=h)
    if constants.qss is not None:
        row(p_loss=1.0, margin=max(1.0, abs(rating + constants.qss)),
            responses=-1.0, bound=-constants.qss)
    top = max([a * rating + b for a, b in constants.chords], default=0.0)
    for a, b in constants.chords or [(0.0, 0.0)]:
        row(p_loss=a, margin=max(1.0, abs(top)), responses=-h, bound=-b)
    if net is not None:
        row(margin=max(1.0, abs(net)), outputs=-1.0, bound=-net)
    for i, (p_max, _, sets_loss) in enumerate(units):
        row(outputs=np.eye(n)[i], responses=np.eye(n)[i], bound=p_max)
        if sets_loss:
            row(p_loss=-1.0, outputs=np.eye(n)[i])
    bounds = ([(loss_floor, rating), (None, 1.0), (loss_floor, None)]
              + [(0.0, None)] * (n - 1) + [(0.0, pfr) for _, pfr, _ in units])
    result = linprog(np.eye(2 + 2 * n)[1] * -1.0, A_ub=np.array(rows),
                     b_ub=rhs, bounds=bounds, method="highs")
    assert result.status in (0, 2), result.message
    return result.status == 0 and -result.fun >= -1e-9


def fewest_secure_units(fleet, freq, demand: float, loss_floor: float,
                        upper, largest, *, net: float | None
                        ) -> tuple[int, int]:
    """The fewest units besides ``largest`` that a secure commitment has on,
    by enumeration of every set of the other units that may run
    (``upper > 0``), ``largest`` committed, in a period of demand
    ``demand`` whose highest net demand is ``net``.

    A set is secure when one linear program over the loss, the outputs and
    the responses finds a point of the period's rows (see
    :func:`_secure`): its inertia ``H`` (less the inertia ``largest``
    takes with it) and responses ``R`` meet, at some loss ``P`` in
    ``[loss_floor, rating]``, the RoCoF requirement, the QSS requirement
    where the period has one and the nadir envelope ``H * R >= max
    chord(P)``, while its outputs, each within its rating less its
    response, carry ``net``; a unit rated above ``loss_floor`` produces at
    most ``P``.  ``net`` None leaves the net demand out.  Returns
    ``(exact, relaxed)``: the fewest units of a secure set, and the fewest
    ``k`` for which one unit with the most rating, the most inertia and
    the most response of any ``k`` units, taken apart, and setting no loss,
    would be; each is the number of units that may run when no ``k``
    works.
    """
    constants = period_constants(fleet, freq, demand)
    big = [g.id for g in fleet].index(largest.id)
    others = [i for i in range(len(fleet)) if i != big and upper[i] > 0.0]
    first = (fleet[big].p_max, fleet[big].pfr_max, True)
    h0 = constants.inertia[big] - lost_inertia(freq)

    def secure(h, units):
        return _secure(freq, constants, loss_floor, h, [first] + units, net)

    def most(values, k):  # the k largest of the others' values, summed
        return sum(sorted((values[i] for i in others), reverse=True)[:k])

    inertia = constants.inertia
    ratings, responses = ([getattr(g, name) for g in fleet]
                          for name in ("p_max", "pfr_max"))
    exact = relaxed = None
    for k in range(len(others) + 1):
        picks = {tuple(sorted((inertia[i], ratings[i], responses[i])
                              for i in pick))
                 for pick in itertools.combinations(others, k)}
        if exact is None and any(
                secure(h0 + sum(c for c, _, _ in pick),
                       [(p_max, pfr, p_max > loss_floor)
                        for _, p_max, pfr in pick])
                for pick in picks):
            exact = k
        if relaxed is None and secure(
                h0 + most(inertia, k),
                [(most(ratings, k), most(responses, k), False)]):
            relaxed = k
    return (len(others) if exact is None else exact,
            len(others) if relaxed is None else relaxed)
