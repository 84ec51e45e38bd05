"""The carried commitment state advanced one unit at a time: the loop
``frequc.scheduler._advance_state`` ran before it was written over arrays.
A state is a pair ``(on, hours)`` of per-unit sequences in fleet order."""

from __future__ import annotations

import numpy as np


def advance_state_loop(state, commit):
    """The state after the committed periods ``commit`` ``(steps, units)``."""
    on, hours = state
    next_on, next_hours = [], []
    for i, values in enumerate(np.asarray(commit, dtype=float).T.tolist()):
        last = bool(round(values[-1]))
        run = 0
        for v in reversed(values):
            if bool(round(v)) != last:
                break
            run += 1
        if run == len(values) and bool(on[i]) == last:
            run += int(hours[i])
        next_on.append(last)
        next_hours.append(run)
    return next_on, next_hours
