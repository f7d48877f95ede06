"""Definition-level oracles of the window estimators.

They follow the definitions in `sharkfin.filtered` one window at a time,
with plain Python loops and sums, and share no code with the prefix-sum
arithmetic of `window_estimate_series` that the tests compare them with.
"""

import math
from typing import NamedTuple

import numpy as np


class BruteWindow(NamedTuple):
    mean_hat: float
    var_hat: float
    count: int


def brute_window_stats(events, lo_t, hi_t):
    """Definition-level oracle: life times of the window's events, first one
    (the one straddling the left edge) excluded."""
    events = list(events)
    life = np.diff([0.0] + events)
    inside = [i for i, s in enumerate(events) if lo_t < s <= hi_t]
    count = len(inside)
    kept = [life[i] for i in inside[1:]]
    mean = sum(kept) / len(kept) if count > 1 else 0.0
    var = (sum((x - mean) ** 2 for x in kept) / (len(kept) - 1)
           if count > 2 else 0.0)
    return BruteWindow(mean, var, count)


def brute_s_hat(events, t, h, n=1):
    """sqrt((v_ri/m_ri^3 + v_le/m_le^3) * n * h) from the two oracle windows;
    a window whose mean or variance is zero contributes nothing."""
    def term(ws):
        if ws.mean_hat <= 0.0 or ws.var_hat <= 0.0:
            return 0.0
        return ws.var_hat / ws.mean_hat**3
    right = brute_window_stats(events, n * t, n * (t + h))
    left = brute_window_stats(events, n * (t - h), n * t)
    return math.sqrt((term(right) + term(left)) * n * h)
