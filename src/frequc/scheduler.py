"""Frequency-secured stochastic unit commitment and rolling simulation.

``build_uc`` assembles one scheduling window as a mixed-integer model.
It takes a scenario tree that spans the demand profile, and a window that
starts at period ``t0`` reads the tree's rows ``[t0, t0 + T)``, ``T`` its
horizon cut at the profile's end.  Commitments (and the implied
start/stop indicators) are first-stage decisions shared by every
net-demand branch; dispatch, response holdings
and the sizable-loss quantities are recourse, one copy per period and
branch.  Every pin is a column bound: the commitments' bounds are
``(units, T)`` arrays (the largest plant committed, the minimum times the
carried state owes, a pinned schedule, and the free units that
:func:`frequc.freqsec.must_run` finds forced on), and the largest plant's
operating mode is its output's lower bound.  With frequency constraints,
each period's cells get their loss, summed-response and product
variables, as arrays, from :func:`frequc.freqsec.register_decisions` and
their rows, every branch's for one period as one block, from its
:func:`frequc.freqsec.period_template`; the nadir rows are the chord
envelope of the convex requirement, so a solution is secure by
construction at every loss.  Every row family is added as one block of
arrays.  Each period's ``cover`` row asks for the fewest units besides
the largest whose ratings reach the period's highest net demand minus
the largest rating or, with frequency constraints, the more of that and
the fewest that :func:`frequc.freqsec.security_count` counts any secure
commitment carrying that net demand needing: valid for every integer
schedule, it only tightens the relaxation.

A window is its numbers written into a layout.  The layout, a
:class:`frequc.milp.model.ModelLayout` with the column ids a window
carries and the places its numbers go, depends only on the window's
shape: the options, the periods and branches, which synchronous
commitments the pins leave free, which cover rows exist, and the kinds
and zero pattern of each period's frequency rows; it writes those rows
from the templates of the window that laid it out.  The numbers are the
column bounds, right-hand sides, objective and the frequency rows'
numbers, written with array operations; the frequency rows, added last,
take theirs from each window's templates as one tail.  A
:class:`WindowLayouts`, one per rolling run, keeps the layouts its
windows and re-dispatches met, the period constants they share and each
layout's last LP basis; a ``build_uc`` call without one lays out afresh.

``solve_uc`` builds, solves and unpacks one window into a
:class:`UcSolution`, arrays with the period axis first and the units in
fleet order.  The solve tries the window's LP relaxation first, which is
often integral; in a rolling run it starts from the basis of the run's
last LP of the same layout.  ``cost_coefficients`` holds each unit's
cost coefficients; the objective and ``period_costs``, the one cost
formula after the solve, both read them.

``solve_rolling_horizon`` walks a longer span window by window, passing
the whole tree and the run's :class:`WindowLayouts` to each, and
re-dispatches the committed periods against
the realized net demand, a one-branch tree built once per run, with the
window's ``(T, units)`` commitments pinned, and carries the units' state
``(on, hours)`` from window to window.  The run's path is those one-branch
re-dispatches joined period by period (:func:`concatenate`), a
:class:`UcSolution` like any window, from which the study metrics (load
factors, emissions) are read.  The cost of frequency services is the gap
between the expected costs of a secured and an unsecured run.

``verify_solution`` swing-checks every cell of a window or of a rolling
path; it is the judge of security, not the linear rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import freqsec
from .freqdyn import certify_operating_point
from .milp import MilpModel, solve
from .milp.model import (SENSE_CODE, SENSE_EQ, SENSE_GE, SENSE_LE,
                         LaidOutModel, ModelLayout, period_tag,
                         template_numbers, template_rows)
from .sysmodel import ScenarioTree, largest_unit

LOSS_MODES = ("fixed", "optimised")

_LE, _GE, _EQ = (SENSE_CODE[s] for s in (SENSE_LE, SENSE_GE, SENSE_EQ))


class SchedulerError(ValueError):
    """Raised for inconsistent scheduling inputs or unusable windows."""


@dataclass(frozen=True)
class UcOptions:
    """Knobs for one scheduling window.

    ``largest_loss_mode`` selects how the largest plant is operated:
    ``fixed`` pins it at maximum output, ``optimised`` lets the solver
    deload it (when the unit allows deloading) so the sizable loss
    becomes a decision.  The plant is committed in both modes; to keep
    it at full output, choose ``fixed``.
    """

    frequency_constraints: bool = True
    horizon: int = 8
    first_stage: int = 1
    largest_loss_mode: str = "optimised"

    def __post_init__(self):
        if self.horizon < 1:
            raise SchedulerError("options: horizon must be at least 1 period")
        if not (1 <= self.first_stage <= self.horizon):
            raise SchedulerError(
                "options: first_stage must lie in [1, horizon], got "
                f"{self.first_stage} with horizon {self.horizon}"
            )
        if self.largest_loss_mode not in LOSS_MODES:
            raise SchedulerError(
                f"options: unknown largest_loss_mode {self.largest_loss_mode!r}"
            )


def default_initial_state(system):
    """Everything off, long enough ago that no minimum-time carry applies,
    as the carried state ``(on, hours)``: two arrays in fleet order."""
    units = len(system.generators)
    return np.zeros(units, dtype=bool), np.full(units, 10_000)


def _window_net(system, tree, start_period: int, horizon: int):
    """The demand and the ``(T, S)`` net demand of the window of up to
    ``horizon`` periods from ``start_period``, read from ``tree``, which
    spans the demand profile, with feasibility screens."""
    n = system.n_periods
    if tree.n_periods != n:
        raise SchedulerError(
            f"scenario tree covers {tree.n_periods} periods, the demand "
            f"profile {n}"
        )
    if not 0 <= start_period < n:
        raise SchedulerError(
            f"window start {start_period} falls outside the {n}-period "
            "demand profile"
        )
    stop = start_period + min(horizon, n - start_period)
    demand = np.array(system.demand_profile[start_period:stop])
    net = tree.net[start_period:stop]
    cap = sum(g.p_max for g in system.generators)
    over_cap = net > cap + 1e-9
    bad = np.argwhere(over_cap | (net > demand[:, None] + 1e-9))
    if len(bad):  # the first offending cell in (period, branch) order
        t, s = bad[0].tolist()
        if over_cap[t, s]:
            raise SchedulerError(
                f"period {start_period + t}, branch {s}: net demand "
                f"{net[t, s]:.1f} MW exceeds dispatchable capacity {cap:.1f} MW"
            )
        raise SchedulerError(
            f"period {start_period + t}, branch {s}: net demand "
            f"{net[t, s]:.1f} MW exceeds demand {demand[t]:.1f} MW "
            "(negative wind availability)"
        )
    return demand, net


def _commitment_bounds(fleet, big_i, state, fixed_commitments,
                       start_period: int, T: int):
    """The carried state ``(on, hours)``, checked, and the lower and upper
    bounds ``(units, T)`` of the window's commitments: the largest plant
    committed, the minimum up/down times the state still owes and a
    pinned ``fixed_commitments`` schedule ``(T, units)``, each of which
    must agree with those before."""
    G = len(fleet)
    try:
        on, hours = (np.asarray(part, dtype=float) for part in state)
        whole = np.isfinite(hours) & (hours >= 0) & (hours == np.floor(hours))
        valid = on.shape == hours.shape == (G,) \
            and ((on == 0.0) | (on == 1.0)).all() and whole.all()
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise SchedulerError(
            f"initial state must be a pair (on, hours) of {G} values each: "
            "on 0 or 1, hours whole numbers >= 0")
    lo, hi = np.zeros((G, T)), np.ones((G, T))
    lo[big_i] = 1.0

    def pin(where, value):
        if not where.any():
            return
        value = np.broadcast_to(value, lo.shape)
        bad = where & ((value < lo) | (value > hi))
        if bad.any():
            i, t = np.argwhere(bad)[0].tolist()
            raise SchedulerError(
                f"commitment requirements conflict: variable x[{fleet[i].id}]"
                f"[{start_period + t}]: cannot fix to {value[i, t]}, outside "
                f"[{lo[i, t]}, {hi[i, t]}]")
        lo[where] = hi[where] = value[where]

    # at window period t a unit has held its carried state hours + t
    elapsed = hours[:, None] + np.arange(T)
    on = on == 1.0
    times = np.array([[g.min_up, g.min_down] for g in fleet], dtype=float)
    pin(on[:, None] & (elapsed < times[:, :1]), 1.0)
    pin(~on[:, None] & (elapsed < times[:, 1:]), 0.0)
    if fixed_commitments is not None:
        try:
            values = np.asarray(fixed_commitments, dtype=float)
        except (TypeError, ValueError):
            values = np.full((), np.nan)
        if (values.ndim != 2 or values.shape[1] != G or len(values) < T
                or not np.isfinite(values[:T]).all()):
            raise SchedulerError(
                f"fixed commitments of shape {values.shape} do not hold "
                f"finite values for the {T} window periods of {G} units")
        pin(np.ones((G, T), dtype=bool), np.round(values[:T].T) + 0.0)
    return on, lo, hi


def _largest_runs_deloaded(options: UcOptions, big) -> bool:
    return options.largest_loss_mode == "optimised" and big.deloadable


def _units_to_cover(ratings, need: float) -> int:
    """Fewest of ``ratings`` that sum to at least ``need``, to the capacity
    screen's 1e-9 MW: the largest first."""
    count, total = 0, 0.0
    for rating in sorted(ratings, reverse=True):
        if total >= need - 1e-9:
            break
        total += rating
        count += 1
    return count


class UcModel(LaidOutModel):
    """A window's model with what :func:`extract_solution` reads: the
    column ids ``commit`` and ``startup`` of shape ``(T, units)``,
    ``output`` and ``pfr`` of shape ``(T, units, S)``, ``wind`` and
    ``loss`` of shape ``(T, S)`` (``loss`` is None without frequency
    constraints), and the window's ``periods``, ``demand``, ``net`` demand
    and branch ``probabilities``."""

    commit: np.ndarray
    startup: np.ndarray
    output: np.ndarray
    pfr: np.ndarray
    wind: np.ndarray
    loss: np.ndarray | None
    periods: np.ndarray
    demand: np.ndarray
    net: np.ndarray
    probabilities: np.ndarray


class WindowLayouts:
    """What the windows and re-dispatches of one rolling run of ``system``
    share: the layout of each window shape met so far, keyed by everything
    that sets a window's structure (see :func:`build_uc`), each profile
    period's :class:`frequc.freqsec.PeriodConstants`, and ``bases``, the
    final simplex basis of the last LP that :func:`solve_uc` solved in
    each layout, keyed by its model's layout, which is one per window key.

    :func:`solve_rolling_horizon` makes one per run, so runs on other
    threads share nothing; a ``build_uc`` or ``solve_uc`` call without one
    lays its window out afresh and solves it cold.
    """

    def __init__(self, system):
        self.system = system
        self.bases = {}
        self._layouts = {}
        self._constants = {}

    def constants(self, period: int):
        """The frequency constants of profile period ``period``; a segment
        grid that enters the decreasing region raises
        :class:`SchedulerError`."""
        shared = self._constants.get(period)
        if shared is None:
            system = self.system
            try:
                shared = freqsec.period_constants(
                    system.generators, system.frequency,
                    system.demand_profile[period])
            except ValueError as exc:  # the grid check, an input error
                raise SchedulerError(f"period {period}: {exc}") from exc
            self._constants[period] = shared
        return shared

    def layout(self, window) -> _WindowLayout:
        layout = self._layouts.get(window.key)
        if layout is None:
            layout = self._layouts[window.key] = _WindowLayout(self.system,
                                                               window)
        return layout


@dataclass
class _Window:
    """One window's numbers, and ``key``, everything that sets its
    structure: the options, the shape ``(T, S)``, which synchronous
    commitments are still free after the pins, which periods have a cover
    row, and the kinds and zero pattern of the frequency rows.  Those
    rows are each period's :func:`frequc.freqsec.period_template`
    (``templates``), whose numbers, every branch's, are ``freq_vals`` and
    ``freq_rhs``, as the layout's blocks hold them."""

    start: int
    options: UcOptions
    demand: np.ndarray
    net: np.ndarray
    probabilities: np.ndarray
    floor_big: float
    on: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    needs: np.ndarray
    big_i: int
    r_max: float
    constants: list
    templates: list
    freq_vals: np.ndarray
    freq_rhs: np.ndarray
    key: tuple


def _window(layouts: WindowLayouts, tree, options: UcOptions,
            start_period: int, initial_state, fixed_commitments) -> _Window:
    """The numbers of the window of ``options.horizon`` periods from
    ``start_period``, checked."""
    system = layouts.system
    fleet = system.generators
    freq = system.frequency
    big = largest_unit(fleet)
    demand, net = _window_net(system, tree, start_period, options.horizon)
    # array shapes: G units, T periods, S branches
    G, (T, S) = len(fleet), net.shape

    floor_big = ((1.0 - big.max_deload_fraction) * big.p_max
                 if _largest_runs_deloaded(options, big) else big.p_max)
    for t in range(T):
        if floor_big > demand[t] + 1e-9:
            raise SchedulerError(
                f"period {start_period + t}: demand {demand[t]:.1f} MW cannot "
                f"absorb the committed largest plant minimum {floor_big:.1f} MW"
            )

    r_max = sum(g.pfr_max for g in fleet)
    if options.frequency_constraints and r_max <= 0.0:
        raise SchedulerError(
            "frequency constraints need at least one unit with response capability"
        )

    # the commitment bounds (G, T), then, in each period where one is still
    # free, each commitment the security rows force on, and, where one is
    # free after those pins, the fewest other units that carry the
    # period's highest net demand securely, ``secure[t]``
    big_i = [g.id for g in fleet].index(big.id)
    on, lo, hi = _commitment_bounds(
        fleet, big_i, default_initial_state(system) if initial_state is None
        else initial_state, fixed_commitments, start_period, T)
    constants, secure, templates, free = [], [0] * T, [], None
    if options.frequency_constraints:
        constants = [layouts.constants(start_period + t) for t in range(T)]
        for t in np.flatnonzero((lo != hi).any(axis=0)).tolist():
            pins = freqsec.must_run(fleet, freq, constants[t], floor_big,
                                    hi[:, t], largest=big)
            lo[pins & (lo[:, t] != hi[:, t]), t] = 1.0
            if (lo[:, t] != hi[:, t]).any():
                secure[t] = freqsec.security_count(
                    fleet, freq, constants[t], floor_big, hi[:, t],
                    largest=big, net=float(net[t].max()))
        sync = np.array([[g.synchronous] for g in fleet])
        free = sync & (lo != hi)
        fixed_on = (sync & (lo == 1.0) & (hi == 1.0)).T.tolist()
        templates = [freqsec.period_template(
                         fleet, freq, shared, r_max, free=period_free,
                         fixed_on=period_on, largest=big,
                         loss_floor=floor_big)
                     for shared, period_free, period_on in zip(
                         constants, free.T.tolist(), fixed_on)]

    # cover: every branch's thermal output reaches its net demand, the
    # largest unit gives at most its rating and every other unit at most
    # its committed rating, and a secured period has at least ``secure[t]``
    # of them on, enough to carry that net demand and the response its
    # loss asks for, so at least k_t of them are on
    others = [g.p_max for i, g in enumerate(fleet) if i != big_i]
    needs = np.array([max(_units_to_cover(others, most - big.p_max), count)
                      for most, count in zip(net.max(axis=1).tolist(),
                                             secure)])

    # the frequency rows' numbers, every branch's, as the blocks hold them
    numbers = [template_numbers((floor, 1), (body, S))
               for floor, body in templates]
    vals = np.concatenate([np.empty(0)] + [v.ravel() for v, _, _ in numbers])
    rhs = np.concatenate([np.empty(0)] + [r for _, _, r in numbers])
    key = (options, T, S, None if free is None else free.tobytes(),
           (needs > 0).tobytes(),
           tuple(row[0] for floor, body in templates for row in floor + body),
           (vals != 0.0).tobytes())
    return _Window(start_period, options, demand, net, tree.probabilities,
                   floor_big, on, lo, hi, needs, big_i, r_max, constants,
                   templates, vals, rhs, key)


class _WindowLayout:
    """The structure of the windows with one key (see :class:`_Window`):
    the model's :class:`frequc.milp.model.ModelLayout`, the column ids
    :class:`UcModel` carries, and where each window's numbers go.  It is
    laid out from ``window``; :meth:`write` then writes every window's
    numbers, ``window``'s too."""

    def __init__(self, system, window: _Window):
        fleet = system.generators
        freq = system.frequency
        ids = [g.id for g in fleet]
        big_i, r_max = window.big_i, window.r_max
        G, (T, S) = len(fleet), window.net.shape
        secured = window.options.frequency_constraints
        model = MilpModel()
        tags = [period_tag(t) for t in range(T)]

        # first-stage commitment, start and stop indicators (shared by
        # branches)
        heads = [(f"x[{gid}]", f"su[{gid}]", f"sd[{gid}]") for gid in ids]
        first = model.add_variables(
            [head + f"[{tag}]" for unit in heads for tag in tags
             for head in unit],
            0.0, 1.0, integer=np.tile([True, False, False], G * T),
        ).reshape(G, T, 3)
        x, su, sd = first[..., 0], first[..., 1], first[..., 2]

        # recourse per period and branch: each unit's output and response,
        # then the wind, whose bound each window writes
        ub = np.zeros((T, S, 2 * G + 1))
        ub[..., 0:2 * G:2] = [g.p_max for g in fleet]
        ub[..., 1:2 * G:2] = [g.pfr_max for g in fleet]
        heads = [head for gid in ids for head in (f"p[{gid}]", f"r[{gid}]")]
        heads.append("wind")
        recourse = model.add_variables(
            [head + f"[{tag}][{s}]" for tag in tags for s in range(S)
             for head in heads],
            0.0, ub.ravel(),
        ).reshape(T, S, 2 * G + 1)
        p = recourse[..., 0:2 * G:2].transpose(2, 0, 1)
        r = recourse[..., 1:2 * G:2].transpose(2, 0, 1)
        wind = recourse[..., 2 * G]

        # the pins are bounds, and which commitments they leave free sets
        # the cells' columns; the largest plant's output is held at or
        # above its floor, which is its rating when it is not deloaded
        model.lb[x], model.ub[x] = window.lo, window.hi
        model.lb[p[big_i]] = window.floor_big

        # each period's security variables, one cell per branch: a unit
        # committed by a fixed bound needs no product auxiliary
        cells = [freqsec.register_decisions(
                     model, fleet, freq, shared, r_max, period=tag,
                     commit=x[:, t], output=p[:, t].T, pfr=r[:, t].T)
                 for t, (tag, shared) in enumerate(zip(tags,
                                                       window.constants))]

        # power balance and unit limits: the same rows in every cell, over
        # the cell's columns [p..., r..., wind, x...]; each window writes
        # the balance's right-hand side
        cell_cols = np.concatenate(
            [p.transpose(1, 2, 0), r.transpose(1, 2, 0), wind[..., None],
             np.repeat(x.T[:, None, :], S, axis=1)], axis=2)
        P, R, W, X = 0, G, 2 * G, 2 * G + 1  # offsets in a cell's columns
        template = [("balance", "", _EQ, [P + i for i in range(G)] + [W],
                     [1.0] * (G + 1), 0.0)]
        for i, g in enumerate(fleet):
            if g.p_min > 0.0:
                template.append((f"pmin[{g.id}]", "", _GE, [P + i, X + i],
                                 [1.0, -g.p_min], 0.0))
            template.append((f"headroom[{g.id}]", "", _LE,
                             [P + i, R + i, X + i], [1.0, 1.0, -g.p_max], 0.0))
            if g.pfr_max > 0.0:
                template.append((f"pfr_cap[{g.id}]", "", _LE, [R + i, X + i],
                                 [1.0, -g.pfr_max], 0.0))
        rows = model.add_block(template_rows(
            cell_cols.reshape(T * S, -1),
            (template, [f"[{tag}][{s}]" for tag in tags for s in range(S)])))
        self.balance = np.arange(rows.start, rows.stop,
                                 len(template)).reshape(T, S)

        # cover: at least k_t units besides the largest on, in each period
        # whose count is not 0; each window writes k_t
        others = [i for i in range(G) if i != big_i]
        self.covered = np.flatnonzero(window.needs > 0)
        self.cover = np.arange(model.n_rows, model.n_rows + len(self.covered))
        if len(self.covered):
            model.add_rows(
                x[others][:, self.covered].T,
                np.ones((len(self.covered), len(others))), SENSE_GE, 0.0,
                [f"cover[{tags[t]}]" for t in self.covered])

        # start/stop linking and minimum up/down times, unit by unit: T
        # link rows, then T min_up and T min_down rows where the minimum
        # time exceeds one period.  Slot w of a minimum-time row holds the
        # indicator of period t - T + 1 + w, a zero coefficient where that
        # lies outside the window or the minimum time, and its last slot
        # the commitment.  Each window writes the first link row's
        # right-hand side, the carried state.
        step = np.arange(T)
        tau = step - T + 1 + step[:, None]
        self.link = []
        for i, g in enumerate(fleet):
            self.link.append(model.add_rows(
                np.stack([x[i], su[i], sd[i], x[i, step - 1]], axis=1),
                [[1.0, -1.0, 1.0, -1.0 if t else 0.0] for t in step],
                SENSE_EQ, 0.0, [f"commit_link[{g.id}][{tag}]" for tag in tags],
            ).start)
            for kind, ind, time, sign, rhs in (
                    ("min_up", su[i], g.min_up, -1.0, 0.0),
                    ("min_down", sd[i], g.min_down, 1.0, 1.0)):
                if time > 1:
                    inside = (tau >= 0) & (tau > step[:, None] - time)
                    model.add_rows(
                        np.hstack([ind[np.clip(tau, 0, None)], x[i, :, None]]),
                        np.hstack([inside, np.full((T, 1), sign)]),
                        SENSE_LE, rhs,
                        [f"{kind}[{g.id}][{tag}]" for tag in tags])

        # frequency-security rows: per period the inertia floor, then each
        # branch's cell rows, written from the window's templates.  They
        # are the last rows added, so their numbers are one tail of the
        # layout's, which each window writes whole.
        self.freq_vals = sum(b.vals.size for b in model.blocks)
        self.freq_rows = model.n_rows
        for period_cells, template in zip(cells, window.templates):
            model.add_block(freqsec.period_rows(period_cells, template))

        # probability-weighted operating cost: each window writes the fuel
        # cost, weighted by its branches' probabilities
        no_load, startup, fuel = cost_coefficients(system)
        model.set_objective(dict(zip(
            np.concatenate([x[no_load > 0.0].ravel(),
                            su[startup > 0.0].ravel()]).tolist(),
            np.concatenate([np.repeat(no_load[no_load > 0.0], T),
                            np.repeat(startup[startup > 0.0], T)]).tolist())))
        self.fuel, self.fuel_cost = p[fuel != 0.0], fuel[fuel != 0.0]

        self.model = ModelLayout(model)
        self.shape = T, S
        self.commit_bounds = x
        self.columns = dict(
            commit=x.T, startup=su.T, wind=wind, output=p.transpose(1, 0, 2),
            pfr=r.transpose(1, 0, 2),
            loss=np.array([period.loss for period in cells]) if secured
            else None)

    def write(self, window: _Window) -> UcModel:
        """``window``'s model: the layout with its numbers written, and
        checked as its :class:`frequc.milp.model.LaidOutModel` is made."""
        lb, ub, vals, rhs, c = self.model.numbers()
        lb[self.commit_bounds], ub[self.commit_bounds] = window.lo, window.hi
        avail = window.demand[:, None] - window.net
        ub[self.columns["wind"]] = np.where(0.0 > avail, 0.0, avail)
        rhs[self.balance] = window.demand[:, None]
        rhs[self.cover] = window.needs[self.covered]
        rhs[self.link] = window.on
        vals[self.freq_vals:] = window.freq_vals
        rhs[self.freq_rows:] = window.freq_rhs
        c[self.fuel] = window.probabilities * self.fuel_cost[:, None, None]
        T, S = self.shape
        model = UcModel(self.model, f"uc_p{window.start}_{T}x{S}",
                        window.start, lb, ub, vals, rhs, c)
        for name, ids in self.columns.items():
            setattr(model, name, ids)
        model.periods = np.arange(window.start, window.start + T)
        model.demand, model.net = window.demand, window.net
        model.probabilities = window.probabilities
        return model


def build_uc(system, tree, options: UcOptions, *, start_period: int = 0,
             initial_state=None, fixed_commitments=None,
             layouts: WindowLayouts | None = None) -> UcModel:
    """Assemble the scheduling model for one window.

    ``tree`` spans the demand profile, and the window reads its periods
    ``[start_period, start_period + T)``, ``T = min(options.horizon,
    n - start_period)`` for an ``n``-period profile.
    ``initial_state`` is the carried ``(on, hours)``; ``fixed_commitments``,
    0/1 values of shape ``(T, units)`` with the units in fleet order, pins
    the commitment variables; the rolling solver uses this for the
    realized re-dispatch.  A malformed or contradictory pin raises
    :class:`SchedulerError`.

    A window is its numbers written into a layout.  The layout depends
    only on the window's shape: the fleet and frequency settings, the
    options, ``T`` and the branch count, which synchronous commitments are
    still free after the pins, which cover rows exist, and the kinds and
    zero pattern of each period's frequency rows (which QSS rows, nadir
    chords and hyperbolic cuts exist).  It holds the column and row index
    arrays, senses, integrality, name and label templates and the CSR
    pattern, its frequency rows written from the window that laid it
    out.  The numbers are the column bounds, right-hand sides, objective
    and the frequency rows' numbers, which every window makes from each
    period's :func:`frequc.freqsec.period_template` and writes as one
    tail; they are written with array operations.  ``layouts``, one per
    rolling run, keeps the layouts met so far; without it the window is
    laid out afresh.

    Each row family repeats one pattern per cell or per unit, so it is
    added as one block of arrays, written from a template by
    :func:`frequc.milp.model.template_rows`;
    :func:`frequc.freqsec.period_rows` writes each period's template as
    its frequency rows, every branch's, in one block.  With
    frequency constraints, a commitment left free by the other pins that
    :func:`frequc.freqsec.must_run` finds forced on is pinned on: no
    schedule the rows admit has it off, and its cells need no product
    auxiliary.  With the loss fixed at the full rating, the bundled fleet
    has every unit pinned, so such a window is an LP.

    Each period's ``cover[t]`` row, ``sum_{g != largest} x[g][t] >= k_t``,
    asks for the fewest other units whose ratings reach the period's
    highest net demand less the largest rating and, with frequency
    constraints and a commitment still free after the pins, at least
    :func:`frequc.freqsec.security_count`, computed there alone: the
    fewest other units that carry that net demand, less the largest's
    output (at most the loss ``P``), plus the response ``R`` the nadir,
    QSS and RoCoF rows ask at some ``P`` in ``[floor, rating]``.  It
    follows from the balance (``sum p >= net``, the wind at most its
    availability), ``headroom`` (``p + r <= p_max x``), ``pfr_sum``,
    ``pfr_cap`` and ``loss_bound`` (``p(largest) <= P``).  Both counts
    hold for every schedule the other rows admit, so the row only
    tightens the relaxation; a period whose count is 0 has no row.
    """
    if layouts is None:
        layouts = WindowLayouts(system)
    elif layouts.system is not system:
        raise SchedulerError("window layouts of another system")
    window = _window(layouts, tree, options, start_period, initial_state,
                     fixed_commitments)
    return layouts.layout(window).write(window)


@dataclass
class UcSolution:
    """A solved window, or a rolling path, as arrays with the period axis
    first and the units in fleet order.

    ``periods`` and ``demand`` have shape ``(T,)``; ``commit`` and
    ``startup`` ``(T, units)``; ``output`` and ``pfr`` ``(T, units, S)``;
    ``net``, ``wind_used`` and ``loss`` ``(T, S)``; ``probabilities``
    ``(S,)``.  ``loss`` is NaN when the window was built without frequency
    constraints.  A rolling path has one branch (see :func:`concatenate`).
    """

    periods: np.ndarray
    demand: np.ndarray
    net: np.ndarray
    commit: np.ndarray
    startup: np.ndarray
    output: np.ndarray
    pfr: np.ndarray
    wind_used: np.ndarray
    loss: np.ndarray
    probabilities: np.ndarray
    expected_cost: float
    status: str
    gap: float
    nodes: int

    @property
    def curtailment(self) -> np.ndarray:
        """Wind available in each cell but not used, ``(T, S)``."""
        return self.demand[:, None] - self.net - self.wind_used


# the fields whose first axis is the period
PERIOD_FIELDS = ("periods", "demand", "net", "commit", "startup", "output",
                 "pfr", "wind_used", "loss")


def extract_solution(model: UcModel, result) -> UcSolution:
    """Read a solver result back into the window's arrays."""
    if result.values is None:
        raise SchedulerError(f"cannot extract values from a {result.status} result")
    values = result.values
    return UcSolution(
        periods=model.periods,
        demand=model.demand,
        net=model.net,
        commit=values[model.commit],
        startup=values[model.startup],
        output=values[model.output],
        pfr=values[model.pfr],
        wind_used=values[model.wind],
        loss=(np.full(model.net.shape, np.nan) if model.loss is None
              else values[model.loss]),
        probabilities=model.probabilities,
        expected_cost=float(result.objective),
        status=result.status,
        gap=result.gap,
        nodes=result.nodes,
    )


def concatenate(solutions) -> UcSolution:
    """Consecutive solutions of the same branches as one, each field with a
    period axis joined along it: a rolling run's path is its one-branch
    re-dispatches joined this way.  Costs and node counts add up; the gap
    is the largest."""
    return UcSolution(
        **{name: np.concatenate([getattr(sol, name) for sol in solutions])
           for name in PERIOD_FIELDS},
        probabilities=solutions[0].probabilities,
        expected_cost=sum(sol.expected_cost for sol in solutions),
        status=solutions[0].status,
        gap=max(sol.gap for sol in solutions),
        nodes=sum(sol.nodes for sol in solutions),
    )


def solve_uc(system, tree, options: UcOptions, *, start_period: int = 0,
             initial_state=None, fixed_commitments=None, layouts=None):
    """Build, solve and unpack one window; returns (solution, model, raw).
    ``layouts`` is passed to :func:`build_uc`.

    The window is tried as an LP first (see :func:`frequc.milp.solve`):
    its relaxation is often integral, and then it is the answer.  With
    ``layouts`` the relaxation starts from the basis of the last LP
    solved in the window's layout, and the solve's basis is kept for the
    next; without it the window is solved cold."""
    model = build_uc(system, tree, options, start_period=start_period,
                     initial_state=initial_state,
                     fixed_commitments=fixed_commitments, layouts=layouts)
    bases = {} if layouts is None else layouts.bases
    raw = solve(model, basis=bases.get(model.layout))
    bases[model.layout] = raw.basis
    if raw.status != "optimal":
        return None, model, raw
    return extract_solution(model, raw), model, raw


# -- costs --------------------------------------------------------------------

def cost_coefficients(system):
    """Each unit's no-load cost per committed period, start-up cost per
    start and fuel cost per MW dispatched for a period, in fleet order: the
    objective's coefficients, and :func:`period_costs`'s."""
    hours = system.period_hours
    fleet = system.generators
    return (np.array([g.no_load_cost * hours for g in fleet]),
            np.array([g.startup_cost for g in fleet]),
            np.array([g.marginal_cost * hours for g in fleet]))


def _unit_sum(values):
    """Sum over the unit axis (axis 1), adding one unit at a time in fleet
    order; numpy's pairwise sum would change the last digits."""
    total = 0.0
    for i in range(values.shape[1]):
        total = total + values[:, i]
    return total


def period_costs(solution: UcSolution, system):
    """No-load and start-up cost of each period, ``(T,)``, and fuel cost of
    each period in each branch, ``(T, S)``.  The probability-weighted sum
    of all three is the window's ``expected_cost``."""
    no_load, startup, fuel = cost_coefficients(system)
    return (_unit_sum(solution.commit * no_load),
            _unit_sum(solution.startup * startup),
            _unit_sum(solution.output * fuel[:, None]))


# -- post-solve security verification ---------------------------------------

@dataclass(frozen=True)
class CellCheck:
    period: int
    scenario: int
    inertia: float
    pfr: float
    loss: float
    report: object


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.report.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.report.ok]


def committed_inertia(system, commit) -> np.ndarray:
    """Post-loss inertia (MW s^2) of each period's commitments, ``commit``
    of shape ``(T, units)``."""
    freq = system.frequency
    coefficients = freqsec.inertia_coefficients(system.generators, freq)
    return _unit_sum(commit * coefficients) - freqsec.lost_inertia(freq)


def verify_solution(solution: UcSolution, system,
                    tol: float = 1e-9) -> VerificationReport:
    """Swing-check every period and branch of a window or a rolling path.

    A NaN loss (no loss variable: frequency constraints off) is graded at
    the largest single-unit output, so the report grades what a cost-only
    schedule would actually risk.
    """
    freq = system.frequency
    inertia = committed_inertia(system, solution.commit).tolist()
    response = _unit_sum(solution.pfr).tolist()
    losses = np.where(np.isnan(solution.loss), solution.output.max(axis=1),
                      solution.loss).tolist()
    report = VerificationReport()
    for t, period in enumerate(solution.periods.tolist()):
        damping_product = freq.damping * solution.demand[t]
        for s, loss in enumerate(losses[t]):
            _, sec = certify_operating_point(
                inertia[t], damping_product, response[t][s], freq.t_d, loss,
                freq, tol=tol)
            report.checks.append(CellCheck(
                period=period, scenario=s, inertia=inertia[t],
                pfr=response[t][s], loss=loss, report=sec))
    return report


# The rolling study's name for the same check; ``perfbench/`` imports it and
# traces the study's verify layer through it.
verify_trajectory = verify_solution


# -- rolling horizon ---------------------------------------------------------

def realized_series(tree: ScenarioTree) -> np.ndarray:
    """Median net-demand path used as the out-turn in simulations."""
    levels = np.array(tree.quantile_levels)
    return np.array([float(np.interp(0.5, levels, row)) for row in tree.net])


def _advance_state(state, commit):
    """The carried state ``(on, hours)`` after the committed periods
    ``commit`` ``(steps, units)``: each unit's last value and last run,
    added to the carried hours when it spans every step in that state."""
    on, hours = state
    commit = np.round(np.asarray(commit, dtype=float)) != 0.0
    steps, last = len(commit), commit[-1]
    changed = commit[::-1] != last
    run = np.where(changed.any(axis=0), changed.argmax(axis=0), steps)
    return last, np.where((run == steps) & (on == last), run + hours, run)


@dataclass
class RollingResult:
    windows: list
    trajectory: UcSolution | None  # the path: see solve_rolling_horizon
    status: str
    message: str = ""
    expected_cost: float = float("nan")

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def solve_rolling_horizon(system, scenarios: ScenarioTree, options: UcOptions,
                          initial_state=None) -> RollingResult:
    """Window-by-window simulation over the whole demand profile.

    Each window solves the stochastic model, commits its first
    ``options.first_stage`` periods, re-dispatches those periods against
    the realized (median) net demand with commitments pinned, then rolls
    forward.  One :class:`WindowLayouts` serves the run's windows and
    re-dispatches, and hands each LP the basis of the run's last LP of
    the same layout.  The run's ``trajectory`` is its re-dispatches joined by
    :func:`concatenate`, and its ``expected_cost`` the summed expected cost
    of every window's committed periods.  A window the solver cannot close
    aborts the run; the partial trajectory and the failing status are
    returned for diagnosis.
    """
    state = initial_state if initial_state is not None \
        else default_initial_state(system)
    realized = ScenarioTree(net=realized_series(scenarios)[:, None],
                            probabilities=(1.0,), quantile_levels=(0.5,))
    n = system.n_periods
    layouts = WindowLayouts(system)
    windows = []
    pieces = []
    expected = 0.0

    def partial():
        return concatenate(pieces) if pieces else None

    t0 = 0
    while t0 < n:
        commit_len = min(options.first_stage, n - t0)
        solution, _, raw = solve_uc(
            system, scenarios, options, start_period=t0, initial_state=state,
            layouts=layouts)
        if solution is None:
            return RollingResult(
                windows, partial(), status="solver",
                message=f"window at period {t0}: {raw.status}")
        windows.append(solution)
        no_load, startup, fuel = period_costs(solution, system)
        expected += float((no_load + startup + fuel @ solution.probabilities)
                          [:commit_len].sum())

        commit = solution.commit[:commit_len]
        ropts = replace(options, horizon=commit_len, first_stage=commit_len)
        redispatch, _, raw = solve_uc(
            system, realized, ropts, start_period=t0, initial_state=state,
            fixed_commitments=commit, layouts=layouts)
        if redispatch is None:
            return RollingResult(
                windows, partial(), status="solver",
                message=f"re-dispatch at period {t0}: {raw.status}")
        pieces.append(redispatch)
        state = _advance_state(state, commit)
        t0 += commit_len

    return RollingResult(windows, concatenate(pieces), status="ok",
                         expected_cost=expected)


# -- study metrics ------------------------------------------------------------

def load_factor(path: UcSolution, system, unit_id: str) -> float:
    """Energy a unit produced over a path divided by its maximum energy."""
    ids = [g.id for g in system.generators]
    if unit_id not in ids:
        raise KeyError(f"unknown unit {unit_id!r}")
    i = ids.index(unit_id)
    hours = system.period_hours
    energy = float(path.output[:, i].sum()) * hours
    ceiling = system.generators[i].p_max * hours * len(path.periods)
    return energy / ceiling


def emissions(path: UcSolution, system) -> float:
    """Total emissions (tCO2) of the energy dispatched along a path."""
    total = 0.0
    for i, g in enumerate(system.generators):
        total += g.emissions_rate * float(path.output[:, i].sum()) \
            * system.period_hours
    return total
