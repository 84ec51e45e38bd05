"""Post-fault frequency dynamics for a single aggregated system.

Solves the swing model

    2 H dDf/dt + d * Df(t) = ramp(t) - loss,   Df(0) = 0

where ``d`` is the load-damping product (damping constant times demand,
MW/Hz) and ``ramp(t)`` is the primary-response delivery: R * t / T_d up
to the delivery time, R afterwards.  The solution is piecewise closed
form (:func:`deviation_curve`), which lets the nadir be located by
stationarity instead of sampling: :func:`simulate_swing` reads the curve
only where its minimum over the first ``HORIZON`` seconds can sit, and at
``HORIZON`` itself, where the quasi-steady-state limit is checked.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Seconds after the loss that the swing check reads: the nadir is sought
# up to it, and the quasi-steady-state limit is checked at it.
HORIZON = 60.0


@dataclass(frozen=True)
class SwingInputs:
    inertia: float          # MW*s^2, post-loss system inertia H
    damping: float          # MW/Hz, damping constant times demand
    pfr: float              # MW, total primary response R
    delivery_time: float    # s
    loss: float             # MW

    def __post_init__(self):
        if self.inertia <= 0.0:
            raise ValueError("inertia must be positive")
        if self.delivery_time <= 0.0:
            raise ValueError("delivery_time must be positive")
        if self.pfr < 0.0:
            raise ValueError("pfr must be >= 0")
        if self.loss < 0.0:
            raise ValueError("loss must be >= 0")
        if self.damping < 0.0:
            raise ValueError("damping must be >= 0")


@dataclass(frozen=True)
class SwingTrace:
    nadir: float            # Hz, minimum of the continuous trajectory
    nadir_time: float       # s
    initial_rocof: float    # Hz/s
    deviation_60: float     # Hz, deviation 60 s after the loss
    diverges: bool          # no recovery without damping: R < loss, d = 0


def deviation_curve(inp: SwingInputs, t):
    """Closed-form deviation at times ``t`` (scalar or array).

    Each piece is evaluated only on its own times: the post-delivery
    exponential overflows when read far before the delivery time.
    """
    t = np.asarray(t, dtype=float)
    h2 = 2.0 * inp.inertia
    d = inp.damping
    r = inp.pfr
    td = inp.delivery_time
    p = inp.loss
    ramp = t <= td
    t_ramp, t_step = t[ramp], t[~ramp]
    out = np.empty_like(t)

    if d == 0.0:
        out[ramp] = (r * t_ramp * t_ramp / (2.0 * td) - p * t_ramp) / h2
        f_td = (r * td / 2.0 - p * td) / h2
        out[~ramp] = f_td + (r - p) * (t_step - td) / h2
    else:
        a = d / h2
        alpha = r / (td * d)
        gamma = -p / d - h2 * r / (td * d * d)
        c0 = -gamma
        out[ramp] = c0 * np.exp(-a * t_ramp) + alpha * t_ramp + gamma
        f_td = c0 * math.exp(-a * td) + alpha * td + gamma
        f_ss = (r - p) / d
        out[~ramp] = f_ss + (f_td - f_ss) * np.exp(-a * (t_step - td))
    return out


def _ramp_stationary_time(inp: SwingInputs):
    """Interior stationary point of the delivery-phase piece, if any."""
    if inp.pfr <= 0.0 or inp.loss <= 0.0:
        return None
    if inp.damping == 0.0:
        return inp.loss * inp.delivery_time / inp.pfr
    h2 = 2.0 * inp.inertia
    arg = 1.0 + inp.delivery_time * inp.loss * inp.damping / (h2 * inp.pfr)
    return (h2 / inp.damping) * math.log(arg)


def simulate_swing(inputs: SwingInputs) -> SwingTrace:
    """The closed-form trajectory's nadir over the first ``HORIZON``
    seconds, located analytically, and its deviation at ``HORIZON``, the
    last of the times read."""
    td = inputs.delivery_time
    candidates = [0.0, min(td, HORIZON)]
    t_star = _ramp_stationary_time(inputs)
    if t_star is not None and 0.0 < t_star < min(td, HORIZON):
        candidates.append(t_star)
    if HORIZON > td:
        # the post-delivery piece is monotone, so its extremes sit at the ends
        candidates.append(HORIZON)
    cand = np.array(sorted(candidates))
    vals = deviation_curve(inputs, cand)
    k = int(np.argmin(vals))
    diverges = (inputs.damping == 0.0 and inputs.loss > 0.0
                and inputs.pfr < inputs.loss)
    return SwingTrace(
        nadir=float(vals[k]),
        nadir_time=float(cand[k]),
        initial_rocof=-inputs.loss / (2.0 * inputs.inertia),
        deviation_60=float(vals[-1]),
        diverges=diverges,
    )


@dataclass(frozen=True)
class SecurityReport:
    rocof_ok: bool
    nadir_ok: bool
    qss_ok: bool
    rocof_margin: float   # Hz/s above the limit (negative when violated)
    nadir_margin: float   # Hz above the nadir limit
    qss_margin: float     # Hz above the quasi-steady-state limit

    @property
    def ok(self) -> bool:
        return self.rocof_ok and self.nadir_ok and self.qss_ok


def check_security(trace: SwingTrace, freq, *, tol: float = 1e-9) -> SecurityReport:
    """Grade a trajectory against the frequency limits in ``freq``.

    ``freq`` needs ``rocof_max``, ``df_max`` and ``df_ss_max`` attributes.
    The damping product is already folded into the trace.
    """
    rocof_margin = freq.rocof_max - abs(trace.initial_rocof)
    nadir_margin = trace.nadir - (-freq.df_max)
    qss_margin = trace.deviation_60 - (-freq.df_ss_max)
    return SecurityReport(
        rocof_ok=rocof_margin >= -tol,
        nadir_ok=nadir_margin >= -tol,
        qss_ok=qss_margin >= -tol and not trace.diverges,
        rocof_margin=float(rocof_margin),
        nadir_margin=float(nadir_margin),
        qss_margin=float(qss_margin),
    )


def certify_operating_point(inertia, damping_product, pfr, delivery_time,
                            loss, freq, tol: float = 1e-9):
    """Security report for raw scheduling quantities.

    Handles the degenerate commitments a schedule can produce: no loss at
    all is trivially secure, while a positive loss with no inertia fails
    everything.  Returns ``(trace, report)`` with ``trace = None`` in the
    degenerate cases.
    """
    if loss <= tol:
        report = SecurityReport(
            rocof_ok=True, nadir_ok=True, qss_ok=True,
            rocof_margin=freq.rocof_max, nadir_margin=freq.df_max,
            qss_margin=freq.df_ss_max,
        )
        return None, report
    if inertia <= 0.0:
        report = SecurityReport(
            rocof_ok=False, nadir_ok=False, qss_ok=False,
            rocof_margin=-math.inf, nadir_margin=-math.inf,
            qss_margin=-math.inf,
        )
        return None, report
    inputs = SwingInputs(
        inertia=float(inertia), damping=float(max(damping_product, 0.0)),
        pfr=float(max(pfr, 0.0)), delivery_time=float(delivery_time),
        loss=float(loss),
    )
    trace = simulate_swing(inputs)
    return trace, check_security(trace, freq, tol=tol)


def exact_nadir_feasible(inertia, pfr, loss, damping, delivery_time, df_max) -> bool:
    """Exact (logarithmic) nadir-security test for one operating point.

    For zero damping this reduces to the quadratic comparison
    H*R >= loss^2 * T_d / (4 * df_max).  A vanishing H*R with a positive
    loss is always insecure (no bounded nadir without response).
    """
    if loss <= 0.0:
        return True
    hr = inertia * pfr
    if hr <= 0.0:
        return False
    if damping == 0.0:
        req = loss * loss * delivery_time / (4.0 * df_max)
        return hr >= req - 1e-9 * max(1.0, req)
    arg = 1.0 + delivery_time * loss * damping / (2.0 * hr)
    if arg <= 0.0:
        warnings.warn("nadir feasibility: non-positive logarithm argument")
        return False
    lhs = (2.0 * hr / delivery_time) * math.log(arg)
    rhs = loss * damping - damping * damping * df_max
    return lhs >= rhs - 1e-9 * max(1.0, abs(rhs))


def region_curve(loss, delivery_time, df_max, damping_products,
                 rel_tol: float = 1e-12):
    """Minimal H*R for security across a sweep of damping products.

    Returns an array with one row per damping product and columns
    (damping product, exact boundary H*R, linear-rule H*R).  The exact
    boundary is found by bisection on the monotone feasibility test; the
    linear rule is the chord approximation whose zero-damping value
    matches the quadratic requirement.
    """
    damping_products = np.asarray(damping_products, dtype=float)
    if loss <= 0.0 or delivery_time <= 0.0 or df_max <= 0.0:
        raise ValueError("loss, delivery_time and df_max must be positive")
    if np.any(damping_products < 0.0):
        raise ValueError("damping products must be >= 0")
    hr_cap = loss * loss * delivery_time / (4.0 * df_max)
    rows = np.empty((damping_products.size, 3))
    for i, d in enumerate(damping_products):
        if d == 0.0:
            exact = hr_cap
        else:
            lo, hi = 0.0, hr_cap
            # inertia=1, pfr=hr: only the product enters the test
            while hi - lo > rel_tol * hr_cap:
                mid = 0.5 * (lo + hi)
                if mid > 0.0 and exact_nadir_feasible(1.0, mid, loss, d,
                                                      delivery_time, df_max):
                    hi = mid
                else:
                    lo = mid
            exact = hi
        linear = max(0.0, hr_cap - (d * delivery_time / 4.0) * loss)
        rows[i] = (d, exact, linear)
    return rows
