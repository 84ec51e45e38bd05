import math
import warnings

import numpy as np
import pytest

from frequc.freqdyn import (
    SwingInputs,
    certify_operating_point,
    check_security,
    deviation_curve,
    exact_nadir_feasible,
    region_curve,
    simulate_swing,
)
from reference.swing_rk4 import simulate_swing_numeric


class Limits:
    def __init__(self, rocof_max, df_max, df_ss_max):
        self.rocof_max = rocof_max
        self.df_max = df_max
        self.df_ss_max = df_ss_max


BOUNDARY = SwingInputs(inertia=5062.5, damping=0.0, pfr=2000.0,
                       delivery_time=10.0, loss=1800.0)


def sampled(inputs, step=0.01):
    """The closed-form deviation every ``step`` seconds up to 60 s."""
    return deviation_curve(inputs, np.arange(0.0, 60.0 + 0.5 * step, step))


def test_boundary_case_closed_form():
    tr = simulate_swing(BOUNDARY)
    assert tr.nadir == pytest.approx(-0.8, abs=1e-12)
    assert tr.nadir_time == pytest.approx(9.0, abs=1e-9)
    assert tr.initial_rocof == pytest.approx(-1800.0 / 10125.0, abs=1e-15)
    assert sampled(BOUNDARY)[0] == 0.0
    assert not tr.diverges


def test_damped_case_matches_frozen_numbers():
    # independently frozen from a step-1e-4 RK4 run
    inp = SwingInputs(inertia=5062.5, damping=200.0, pfr=2000.0,
                      delivery_time=10.0, loss=1800.0)
    tr = simulate_swing(inp)
    assert tr.nadir == pytest.approx(-0.716260421031, abs=1e-9)
    assert tr.nadir_time == pytest.approx(8.283740, abs=1e-5)
    assert tr.deviation_60 == pytest.approx(0.371493811014, abs=1e-9)


def test_damping_strictly_helps():
    tr0 = simulate_swing(BOUNDARY)
    tr1 = simulate_swing(SwingInputs(inertia=5062.5, damping=200.0, pfr=2000.0,
                                     delivery_time=10.0, loss=1800.0))
    assert tr1.nadir > tr0.nadir


def test_divergent_decline_is_flagged():
    inp = SwingInputs(inertia=5062.5, damping=0.0, pfr=1500.0,
                      delivery_time=10.0, loss=1800.0)
    tr = simulate_swing(inp)
    assert tr.diverges
    assert tr.nadir_time == pytest.approx(60.0)
    assert tr.nadir == pytest.approx(-2.518518518519, abs=1e-9)
    assert tr.deviation_60 == pytest.approx(tr.nadir, abs=1e-12)


def test_zero_loss_trajectory_is_flat():
    inp = SwingInputs(inertia=4000.0, damping=100.0, pfr=500.0,
                      delivery_time=10.0, loss=0.0)
    tr = simulate_swing(inp)
    assert tr.nadir == 0.0
    assert np.all(sampled(inp) >= 0.0)


def test_extreme_point_evaluates_without_overflow():
    """Low inertia, heavy damping and a late delivery: the post-delivery
    exponential would overflow if it were read before the delivery time."""
    inp = SwingInputs(inertia=1.0, damping=300.0, pfr=10.0,
                      delivery_time=20.0, loss=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = simulate_swing(inp)
        deviation = sampled(inp)
    assert np.all(np.isfinite(deviation))
    # the deviation settles at (R - P) / D once the ramp passes the loss
    assert trace.deviation_60 == pytest.approx(5.0 / 300.0, rel=1e-12)
    assert -1e-12 <= deviation.min() - trace.nadir <= 1e-6


def test_inputs_validated():
    with pytest.raises(ValueError):
        SwingInputs(inertia=0.0, damping=0.0, pfr=1.0, delivery_time=10.0, loss=1.0)
    with pytest.raises(ValueError):
        SwingInputs(inertia=1.0, damping=0.0, pfr=1.0, delivery_time=0.0, loss=1.0)
    with pytest.raises(ValueError):
        SwingInputs(inertia=1.0, damping=0.0, pfr=1.0, delivery_time=10.0, loss=-1.0)


def test_closed_form_matches_rk4_on_random_inputs():
    rng = np.random.default_rng(77)
    for _ in range(8):
        inp = SwingInputs(
            inertia=float(rng.uniform(2000.0, 20000.0)),
            damping=float(rng.choice([0.0, rng.uniform(10.0, 500.0)])),
            pfr=float(rng.uniform(500.0, 3000.0)),
            delivery_time=float(rng.uniform(5.0, 15.0)),
            loss=float(rng.uniform(0.0, 2500.0)),
        )
        closed = simulate_swing(inp)
        numeric = simulate_swing_numeric(inp, step=1e-4)
        # both curves share the 0.01 s grid every 100 numeric steps
        gap = np.abs(sampled(inp, 0.01) - numeric.deviation[::100])
        assert gap.max() < 1e-6
        assert abs(closed.nadir - numeric.nadir) < 1e-6
        assert abs(closed.deviation_60 - numeric.deviation_60) < 1e-6


def test_nadir_below_all_samples():
    inp = SwingInputs(inertia=3000.0, damping=40.0, pfr=1200.0,
                      delivery_time=8.0, loss=1100.0)
    tr = simulate_swing(inp)
    assert tr.nadir <= sampled(inp).min() + 1e-12


def test_security_margins_at_the_boundary():
    tr = simulate_swing(BOUNDARY)
    limits = Limits(rocof_max=0.5, df_max=0.8, df_ss_max=0.5)
    rep = check_security(tr, limits)
    assert rep.nadir_ok and rep.rocof_ok and rep.qss_ok and rep.ok
    assert rep.nadir_margin == pytest.approx(0.0, abs=1e-9)
    tight = Limits(rocof_max=0.5, df_max=0.79, df_ss_max=0.5)
    assert not check_security(tr, tight).nadir_ok


def test_security_rocof_failure():
    tr = simulate_swing(BOUNDARY)
    # |rocof| = 0.1778 Hz/s
    assert not check_security(tr, Limits(0.1, 0.8, 0.5)).rocof_ok


def test_security_qss_failure_when_response_short():
    inp = SwingInputs(inertia=5062.5, damping=0.0, pfr=1500.0,
                      delivery_time=10.0, loss=1800.0)
    rep = check_security(simulate_swing(inp), Limits(0.5, 3.0, 0.5))
    assert not rep.qss_ok


def test_certify_degenerate_points():
    limits = Limits(0.5, 0.8, 0.5)
    trace, rep = certify_operating_point(0.0, 0.0, 0.0, 10.0, 0.0, limits)
    assert trace is None and rep.ok
    trace, rep = certify_operating_point(0.0, 0.0, 500.0, 10.0, 900.0, limits)
    assert trace is None and not rep.ok
    trace, rep = certify_operating_point(5062.5, 0.0, 2000.0, 10.0, 1800.0, limits)
    assert trace is not None and rep.ok


def test_exact_feasibility_special_cases():
    assert exact_nadir_feasible(5062.5, 2000.0, 1800.0, 0.0, 10.0, 0.8)
    assert not exact_nadir_feasible(5000.0, 2000.0, 1800.0, 0.0, 10.0, 0.8)
    assert not exact_nadir_feasible(0.0, 2000.0, 1800.0, 100.0, 10.0, 0.8)
    assert not exact_nadir_feasible(5062.5, 0.0, 1800.0, 100.0, 10.0, 0.8)
    assert exact_nadir_feasible(1.0, 1.0, 0.0, 0.0, 10.0, 0.8)
    # a little damping relaxes the zero-damping boundary point
    assert exact_nadir_feasible(5062.5, 2000.0, 1800.0, 1.0, 10.0, 0.8)


def eq9_requirement(loss, damping, t_d, df_max):
    return loss * loss * t_d / (4.0 * df_max) - (damping * t_d / 4.0) * loss


def test_feasibility_chain_on_recoverable_points():
    """Linear rule -> exact rule -> simulated nadir, on qss-safe samples."""
    rng = np.random.default_rng(2024)
    t_d, df_max, df_ss_max = 10.0, 0.8, 0.5
    exact_hits = 0
    for _ in range(200):
        loss = float(rng.uniform(100.0, 2000.0))
        damping = float(rng.uniform(0.0, 600.0))
        inertia = float(rng.uniform(1000.0, 20000.0))
        base = max(0.0, loss - damping * df_ss_max)
        pfr = base + float(rng.uniform(0.0, 2000.0))
        if eq9_requirement(loss, damping, t_d, df_max) <= inertia * pfr:
            assert exact_nadir_feasible(inertia, pfr, loss, damping, t_d, df_max)
        if exact_nadir_feasible(inertia, pfr, loss, damping, t_d, df_max):
            exact_hits += 1
            inp = SwingInputs(inertia=inertia, damping=damping, pfr=pfr,
                              delivery_time=t_d, loss=loss)
            assert simulate_swing(inp).nadir >= -df_max - 1e-9
    assert exact_hits >= 20


def test_exact_rule_is_tight_for_interior_stationary_points():
    # when the stationary point falls inside the delivery window, the rule
    # is an if-and-only-if for the simulated nadir
    rng = np.random.default_rng(31)
    t_d, df_max = 10.0, 0.8
    both = 0
    for _ in range(200):
        loss = float(rng.uniform(200.0, 2000.0))
        damping = float(rng.uniform(1.0, 500.0))
        inertia = float(rng.uniform(1000.0, 15000.0))
        pfr = float(rng.uniform(200.0, 3000.0))
        hr = inertia * pfr
        t_star = (2 * inertia / damping) * math.log(
            1.0 + t_d * loss * damping / (2.0 * hr))
        if t_star > t_d:
            continue
        both += 1
        inp = SwingInputs(inertia=inertia, damping=damping, pfr=pfr,
                          delivery_time=t_d, loss=loss)
        nadir = simulate_swing(inp).nadir
        feasible = exact_nadir_feasible(inertia, pfr, loss, damping, t_d, df_max)
        if feasible:
            assert nadir >= -df_max - 1e-7
        elif nadir > -df_max + 1e-7:
            pytest.fail(f"exact rule too conservative: nadir={nadir}")
    assert both >= 50


def test_region_curve_properties():
    loss, t_d, df_max = 1800.0, 10.0, 0.8
    sweep = np.linspace(0.0, 500.0, 11)
    rows = region_curve(loss, t_d, df_max, sweep)
    cap = loss * loss * t_d / (4.0 * df_max)
    assert rows[0, 1] == pytest.approx(cap, rel=1e-9)
    assert rows[0, 2] == pytest.approx(cap, rel=1e-12)
    assert np.all(np.diff(rows[:, 1]) <= 1e-6)          # exact boundary shrinks
    assert np.all(rows[:, 2] >= rows[:, 1] - 1e-6)      # linear stays above
    smaller = region_curve(1200.0, t_d, df_max, sweep)
    assert np.all(rows[:, 1] >= smaller[:, 1] - 1e-9)   # larger loss, higher curve


def test_region_curve_validates_inputs():
    with pytest.raises(ValueError):
        region_curve(0.0, 10.0, 0.8, [0.0])
    with pytest.raises(ValueError):
        region_curve(1800.0, 10.0, 0.8, [-1.0])
