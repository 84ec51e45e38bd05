"""Fixed-step RK4 integration of the swing model in ``frequc.freqdyn``:
the independent numerical check of its closed form."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from frequc.freqdyn import HORIZON, SwingInputs


class NumericTrace(NamedTuple):
    deviation: np.ndarray   # Hz, every step from 0 to HORIZON
    nadir: float            # Hz, the least sample
    deviation_60: float     # Hz, the last sample, 60 s after the loss


def _rk4(h2, d, r, td, p, step, n_steps):
    out = np.empty(n_steps + 1)
    out[0] = 0.0
    f = 0.0
    for k in range(n_steps):
        t = k * step
        t_half = t + 0.5 * step
        t_full = t + step
        ramp0 = r * t / td if t < td else r
        ramp_h = r * t_half / td if t_half < td else r
        ramp1 = r * t_full / td if t_full < td else r
        k1 = (ramp0 - p - d * f) / h2
        k2 = (ramp_h - p - d * (f + 0.5 * step * k1)) / h2
        k3 = (ramp_h - p - d * (f + 0.5 * step * k2)) / h2
        k4 = (ramp1 - p - d * (f + step * k3)) / h2
        f += step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out[k + 1] = f
    return out


def simulate_swing_numeric(inputs: SwingInputs,
                           step: float = 1e-4) -> NumericTrace:
    """Fixed-step RK4 integration of the same model (cross-check path)."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    n_steps = int(round(HORIZON / step))
    out = _rk4(2.0 * inputs.inertia, inputs.damping, inputs.pfr,
               inputs.delivery_time, inputs.loss, step, n_steps)
    return NumericTrace(deviation=out, nadir=float(out.min()),
                        deviation_60=float(out[-1]))
