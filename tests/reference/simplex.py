"""Bounded-variable primal simplex on a dense tableau.

This is the LP engine of the exhaustive oracle
(:func:`reference.oracle.solve_exhaustive`), kept separate from
HiGHS so that the oracle shares no code with the solver it checks.  It
suits small models only: the tableau is dense.

All variables carry finite bounds, which keeps the method simple: a pricing
step can always be answered by either a basis exchange or by moving a
nonbasic variable across to its opposite bound, and no ray can escape to
infinity.  Feasibility is obtained with one artificial variable per row
(phase one minimizes their sum); phase two then optimizes the real cost with
the artificials pinned at zero.

Dantzig pricing is used until a run of degenerate steps suggests cycling, at
which point the code switches to Bland's rule, which terminates finitely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AT_LB = 0
AT_UB = 1
BASIC = 2

_DEGEN_SWITCH = 60  # consecutive degenerate pivots before Bland's rule


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "limit"
    objective: float | None
    x: np.ndarray | None


# -- tableau kernels --------------------------------------------------------


def _pivot_update(tab, ip, j):
    piv = tab[ip, j]
    tab[ip, :] /= piv
    col = tab[:, j].copy()
    col[ip] = 0.0
    tab -= np.outer(col, tab[ip, :])


def _ratio_limits(direction, x_basic, lb_basic, ub_basic, eps, limits):
    limits.fill(np.inf)
    pos = direction > eps
    neg = direction < -eps
    limits[pos] = (x_basic[pos] - lb_basic[pos]) / direction[pos]
    limits[neg] = (x_basic[neg] - ub_basic[neg]) / direction[neg]


# -- problem assembly -------------------------------------------------------


def _row_activity_range(a_row, lb, ub):
    lo = np.where(a_row >= 0.0, a_row * lb, a_row * ub).sum()
    hi = np.where(a_row >= 0.0, a_row * ub, a_row * lb).sum()
    return lo, hi


def _slack_bounds(a, senses, rhs, lb, ub):
    """Finite slack bounds per row, or None when a row is unsatisfiable.

    Row i is rewritten as a.x + s = rhs; the structural bounds give the
    reachable activity range, which makes the slack range finite.
    """
    m = a.shape[0]
    s_lb = np.zeros(m)
    s_ub = np.zeros(m)
    for i in range(m):
        lo, hi = _row_activity_range(a[i], lb, ub)
        tol = 1e-9 * max(1.0, abs(rhs[i]), abs(lo), abs(hi))
        if senses[i] == 0:  # <=  : s in [0, rhs - lo]
            if rhs[i] - lo < -tol:
                return None, i
            s_lb[i], s_ub[i] = 0.0, max(0.0, rhs[i] - lo)
        elif senses[i] == 1:  # >= : s in [rhs - hi, 0]
            if rhs[i] - hi > tol:
                return None, i
            s_lb[i], s_ub[i] = min(0.0, rhs[i] - hi), 0.0
        else:  # =
            if rhs[i] < lo - tol or rhs[i] > hi + tol:
                return None, i
            s_lb[i] = s_ub[i] = 0.0
    return (s_lb, s_ub), -1


def _box_minimum(c, lb, ub):
    x = np.where(c > 0.0, lb, np.where(c < 0.0, ub, np.clip(0.0, lb, ub)))
    return x


# -- core iteration ----------------------------------------------------------


class _Core:
    """Mutable simplex state over the full column set (structurals,
    slacks, artificials)."""

    def __init__(self, a_full, b, lb, ub, basis, vstat, x_basic):
        self.a_full = a_full
        self.b = b
        self.lb = lb
        self.ub = ub
        self.basis = basis
        self.vstat = vstat
        self.x_basic = x_basic
        self.tab = None
        self.iterations = 0

    def refresh(self):
        """Recompute the tableau and basic values from scratch."""
        bmat = self.a_full[:, self.basis]
        self.tab = np.linalg.solve(bmat, self.a_full)
        nb_vals = np.where(self.vstat == AT_UB, self.ub, self.lb)
        nb_mask = self.vstat != BASIC
        rhs_eff = self.b - self.a_full[:, nb_mask] @ nb_vals[nb_mask]
        self.x_basic = np.linalg.solve(bmat, rhs_eff)

    def nonbasic_values(self):
        vals = np.where(self.vstat == AT_UB, self.ub, self.lb)
        vals[self.basis] = self.x_basic
        return vals

    def run(self, costs, max_iter, opt_tol=1e-9):
        """Minimize costs.x from the current basis; returns "optimal"/"limit"."""
        m, n_all = self.tab.shape
        bland = False
        degen_run = 0
        limits = np.empty(m)
        while True:
            if self.iterations >= max_iter:
                return "limit"
            self.iterations += 1
            if self.iterations % 200 == 0:
                self.refresh()

            y = costs[self.basis] @ self.tab
            red = costs - y
            movable = (self.ub - self.lb) > 1e-15
            at_lb = (self.vstat == AT_LB) & movable
            at_ub = (self.vstat == AT_UB) & movable
            improving = (at_lb & (red < -opt_tol)) | (at_ub & (red > opt_tol))
            if not improving.any():
                return "optimal"
            if bland:
                j = int(np.flatnonzero(improving)[0])
            else:
                scores = np.where(improving, np.abs(red), -1.0)
                j = int(np.argmax(scores))

            sigma = 1.0 if self.vstat[j] == AT_LB else -1.0
            direction = sigma * self.tab[:, j]
            lb_b = self.lb[self.basis]
            ub_b = self.ub[self.basis]
            _ratio_limits(direction, self.x_basic, lb_b, ub_b, 1e-10, limits)
            span = self.ub[j] - self.lb[j]
            min_limit = limits.min() if m else np.inf
            step = min(span, min_limit)
            if step < 0.0:
                step = 0.0

            if degen_run > _DEGEN_SWITCH:
                bland = True

            if span <= min_limit + 1e-9:
                # move j across to its other bound; basis unchanged
                self.x_basic -= direction * span
                self.vstat[j] = AT_UB if self.vstat[j] == AT_LB else AT_LB
                degen_run = degen_run + 1 if span <= 1e-10 else 0
                continue

            tie = limits <= min_limit + 1e-9
            tie_idx = np.flatnonzero(tie)
            if bland:
                leave_pos = int(tie_idx[np.argmin(self.basis[tie_idx])])
            else:
                rates = np.abs(direction[tie_idx])
                leave_pos = int(tie_idx[np.argmax(rates)])
            degen_run = degen_run + 1 if step <= 1e-10 else 0

            leaving = self.basis[leave_pos]
            enter_val = (self.lb[j] if sigma > 0 else self.ub[j]) + sigma * step
            self.x_basic -= direction * step
            hit_lower = direction[leave_pos] > 0
            self.vstat[leaving] = AT_LB if hit_lower else AT_UB
            self.vstat[j] = BASIC
            self.basis[leave_pos] = j
            self.x_basic[leave_pos] = enter_val
            _pivot_update(self.tab, leave_pos, j)


# -- public entry ------------------------------------------------------------


def solve_lp(c, a, senses, rhs, lb, ub, *, feas_tol=1e-7):
    """Minimize c.x subject to rows (a, senses, rhs) and finite bounds.

    senses are coded 0 '<=', 1 '>=', 2 '='.  Returns an LpResult.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    n = c.shape[0]
    m = a.shape[0] if a.ndim == 2 else 0

    if np.any(lb > ub + 1e-12):
        return LpResult("infeasible", None, None)
    if m == 0:
        x = _box_minimum(c, lb, ub)
        return LpResult("optimal", float(c @ x), x)

    sb, bad_row = _slack_bounds(a, senses, rhs, lb, ub)
    if sb is None:
        return LpResult("infeasible", None, None)
    s_lb, s_ub = sb

    max_iter = 2000 + 60 * (n + m)

    # full column order: structurals, slacks, artificials.
    # every nonbasic variable must rest exactly at a bound; structurals take
    # the bound nearest zero, slacks the bound nearest their implied value.
    take_ub = np.abs(ub) < np.abs(lb)
    x0 = np.where(take_ub, ub, lb)
    s_implied = rhs - a @ x0
    s0 = np.where(np.abs(s_ub - s_implied) < np.abs(s_lb - s_implied), s_ub, s_lb)
    resid = rhs - a @ x0 - s0
    art_sign = np.where(resid >= 0.0, 1.0, -1.0)

    a_full = np.hstack([a, np.eye(m), np.diag(art_sign)])
    lb_full = np.concatenate([lb, s_lb, np.zeros(m)])
    ub_full = np.concatenate([ub, s_ub, np.abs(resid)])
    basis = np.arange(n + m, n + 2 * m, dtype=np.int64)
    vstat = np.full(n + 2 * m, AT_LB, dtype=np.int64)
    vstat[:n][take_ub] = AT_UB
    for i in range(m):
        if s0[i] == s_ub[i] and s_ub[i] != s_lb[i]:
            vstat[n + i] = AT_UB
    vstat[basis] = BASIC

    core = _Core(a_full, rhs, lb_full, ub_full, basis, vstat, np.abs(resid).copy())
    core.tab = a_full * art_sign[:, None]  # diag(sign) @ a_full

    phase1 = np.zeros(n + 2 * m)
    phase1[n + m:] = 1.0
    status = core.run(phase1, max_iter)
    if status == "limit":
        return LpResult("limit", None, None)
    infeas = float(core.nonbasic_values()[n + m:].sum())
    if infeas > feas_tol * max(1.0, np.abs(rhs).max() if m else 1.0):
        return LpResult("infeasible", None, None)

    core.ub[n + m:] = 0.0  # pin artificials
    core.x_basic = np.where(
        (core.basis >= n + m), np.minimum(core.x_basic, 0.0), core.x_basic
    )
    phase2 = np.concatenate([c, np.zeros(2 * m)])
    status = core.run(phase2, max_iter)
    if status == "limit":
        return LpResult("limit", None, None)

    core.refresh()
    x_full = core.nonbasic_values()
    x = x_full[:n]
    np.clip(x, lb, ub, out=x)
    return LpResult("optimal", float(c @ x), x)
