"""Windowed life-time statistics and filtered-derivative processes.

At an analysis time t with window size h and scale n, the statistic
compares the event count of the right window (nt, n(t+h)] with the count
of the left window (n(t-h), nt].  Three normalisations of that count
difference are provided:

* D: divided by the known constant scaling sqrt(2nh sigma2/mu^3),
* Gamma: centered by the expectation hat m_t and divided by the
  time-dependent scaling s_t (both require the generating model),
* G: divided by the estimated scaling s_hat built from the empirical
  mean and variance of the life times inside each window half.

The life time straddling a window's left edge belongs to an event before
the window, so it is excluded from the window estimators: a window with
k events contributes k-1 life times to the mean (divisor k-1) and the
same k-1 squared deviations to the variance (divisor k-2).  Windows with
too few events fall back to the zero convention, and a zero mean or zero
variance makes the window contribute nothing to s_hat.

The three processes evaluate on the grid of a `WindowConfig`, where
t - h, t and t + h are lattice nodes: they read every window as a lattice
interval, from one `EventSequence.lattice` record of the counts and squared
life-time prefix at the lattice nodes that all window sizes share, and
compute each interval's half-window statistics once.  `window_estimate_series`
serves arbitrary nodes.  Both gather the sums for one half-window formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .renewal import EventSequence, WindowConfig, ChangePointModel
from .series import StatisticSeries, read_series_csv, write_series_csv
from .theory import TheoryParams, m_function, s_function

__all__ = [
    "WindowEstimateSeries",
    "StatisticSeries",
    "s_hat",
    "window_estimate_series",
    "D_process",
    "G_process",
    "Gamma_process",
    "read_series_csv",
    "write_series_csv",
]

_EDGE_TOL = 1e-9


def _check_window(seq: EventSequence, n: int, lo_t: float, hi_t: float) -> None:
    tol = _EDGE_TOL * max(1.0, seq.horizon)
    if n * hi_t > seq.horizon + tol:
        raise ValueError(
            f"window end {n * hi_t} exceeds event horizon {seq.horizon}")
    if n * lo_t < -tol:
        raise ValueError(f"window start {n * lo_t} lies before time zero")


# ---------------------------------------------------------------------------
# vectorised evaluation over a grid


@dataclass(frozen=True, eq=False)
class WindowEstimateSeries:
    """Per-node window statistics over a grid (arrays share the grid's length)."""

    grid: np.ndarray
    count_left: np.ndarray
    count_right: np.ndarray
    mean_left: np.ndarray
    mean_right: np.ndarray
    var_left: np.ndarray
    var_right: np.ndarray
    count_diff: np.ndarray   # right count minus left count
    s_hat: np.ndarray        # estimated scaling, 0 where undefined


def _half_windows(s: np.ndarray, lo: np.ndarray, hi: np.ndarray, totsq: np.ndarray):
    """Count, mean and variance of the windows holding events lo..hi-1.

    lo and hi are event counts N at the window edges, so the window
    (a, b] holds the events with 0-based indices lo = N_a .. hi - 1 = N_b - 1,
    and totsq is the sum of the squares of their life times after the
    first, read only where the window holds more than two events.
    """
    cnt = hi - lo
    many = cnt > 1
    # sum of life times with 0-based index in [lo+1, hi-1] via event-time
    # partial sums; gather is clipped and masked where cnt <= 1, which is
    # everywhere if there are no events
    last = s.size - 1
    tot = s[np.clip(hi - 1, 0, last)] - s[np.clip(lo, 0, last)] if s.size else 0.0
    mean = np.where(many, tot / np.maximum(cnt - 1, 1), 0.0)
    var = (totsq - np.maximum(cnt - 1, 1) * mean**2) / np.maximum(cnt - 2, 1)
    var = np.where(cnt > 2, np.maximum(var, 0.0), 0.0)
    return cnt, mean, var


def _scaling_term(mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """One window's share var/mean^3 of s_hat^2/(n h); 0 where mean or var is 0."""
    ok = (mean > 0.0) & (var > 0.0)
    return np.where(ok, var / np.where(ok, mean, 1.0) ** 3, 0.0)


def window_estimate_series(seq: EventSequence, grid: np.ndarray, h: float,
                           n: int = 1) -> WindowEstimateSeries:
    """Evaluate both window halves at every grid node in O(log N) per node.

    Each call builds the O(N) squared life-time prefix: pass all nodes at
    once.  Serves arbitrary nodes; the statistic processes, whose nodes are
    the lattice of a `WindowConfig`, read theirs from `_lattice_windows`.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size:
        _check_window(seq, n, grid[0] - h, grid[-1] + h)
    s = seq.events
    sq = seq.life_time_square_prefix()
    le = np.searchsorted(s, n * (grid - h), side="right")
    mi = np.searchsorted(s, n * grid, side="right")
    ri = np.searchsorted(s, n * (grid + h), side="right")
    cnt_l, mean_l, var_l = _half_windows(s, le, mi, sq[mi] - sq[np.minimum(le + 1, mi)])
    cnt_r, mean_r, var_r = _half_windows(s, mi, ri, sq[ri] - sq[np.minimum(mi + 1, ri)])
    shat = np.sqrt((_scaling_term(mean_r, var_r) + _scaling_term(mean_l, var_l))
                   * n * h)
    return WindowEstimateSeries(
        grid=grid, count_left=cnt_l, count_right=cnt_r,
        mean_left=mean_l, mean_right=mean_r, var_left=var_l, var_right=var_r,
        count_diff=(cnt_r - cnt_l).astype(float), s_hat=shat)


def _lattice_windows(seq: EventSequence, cfg: WindowConfig, h: float, n: int):
    """Grid, count difference and s_hat of window size h on cfg.grid(h).

    With h = k * grid_step, node j's halves are the lattice intervals
    (x_{j-k}, x_j] and (x_j, x_{j+k}].  The half-window formula runs once
    per interval (x_a, x_{a+k}], on the record `seq.lattice` looked up
    once for all window sizes; node j reads entry j - k (left half) and
    entry j (right half).
    """
    j = cfg.grid_indices(h)
    grid = j * cfg.grid_step
    _check_window(seq, n, grid[0] - h, grid[-1] + h)
    k = int(j[0])                     # the grid starts at node h = k * grid_step
    lat = seq.lattice(cfg.grid_step, int(j[-1]) + k, n)
    cnt, mean, var = _half_windows(seq.events, lat.counts[:-k], lat.counts[k:],
                                   lat.sq[k:] - lat.sq_next[:-k])
    term = _scaling_term(mean, var)
    shat = np.sqrt((term[k:] + term[:-k]) * n * h)
    return grid, (cnt[k:] - cnt[:-k]).astype(float), shat


def s_hat(seq: EventSequence, t: float, h: float, n: int = 1) -> float:
    """Estimated scaling sqrt((v_ri/m_ri^3 + v_le/m_le^3) * n * h) at one time t.

    A window half whose mean or variance estimate is zero contributes
    nothing; 0.0 therefore signals that the statistic is undefined at t.
    Each call costs O(N): for many nodes, call `window_estimate_series` once.
    """
    return float(window_estimate_series(seq, np.array([float(t)]), h, n).s_hat[0])


# ---------------------------------------------------------------------------
# the three statistic processes


def D_process(seq: EventSequence, cfg: WindowConfig, h: float, n: int,
              mu: float, sigma2: float) -> StatisticSeries:
    """Count difference scaled by the known constant sqrt(2nh sigma2/mu^3)."""
    if not (mu > 0 and math.isfinite(mu)):
        raise ValueError(f"mu must be positive, got {mu}")
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    grid, count_diff, _ = _lattice_windows(seq, cfg, h, n)
    scale = math.sqrt(2.0 * n * h * sigma2 / mu**3)
    return StatisticSeries(grid=grid, values=count_diff / scale,
                           valid=np.ones(grid.size, dtype=bool),
                           h=h, n=n, grid_step=cfg.grid_step)


def Gamma_process(seq: EventSequence, cfg: WindowConfig, h: float, n: int,
                  model: ChangePointModel) -> StatisticSeries:
    """Count difference centered by m_t and scaled by s_t of the model.

    Requires the generating model (laboratory use); the given scale n
    overrides the model's own and must match the simulated sequence.
    """
    p = TheoryParams.from_model(model, h=h, n=n)
    grid, count_diff, _ = _lattice_windows(seq, cfg, h, n)
    values = (count_diff - m_function(grid, p)) / s_function(grid, p)
    return StatisticSeries(grid=grid, values=values,
                           valid=np.ones(grid.size, dtype=bool),
                           h=h, n=n, grid_step=cfg.grid_step)


def G_process(seq: EventSequence, cfg: WindowConfig, h: float, n: int) -> StatisticSeries:
    """Count difference scaled by the estimated s_hat.

    Nodes where s_hat is zero carry value 0.0 and valid=False instead of
    aborting the path: a single empty window must not kill the series.
    """
    grid, count_diff, shat = _lattice_windows(seq, cfg, h, n)
    valid = shat > 0.0
    values = np.where(valid, count_diff / np.where(valid, shat, 1.0), 0.0)
    return StatisticSeries(grid=grid, values=values, valid=valid,
                           h=h, n=n, grid_step=cfg.grid_step)
