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

Every estimate runs one half-window formula on one kind of record, an
`EventSequence` `Lattice` of the counts and squared life-time prefix at the
window edges, and computes each interval's statistics once.  The three
processes evaluate on the grid of a `WindowConfig`, where t - h, t and t + h
are lattice nodes, and read the record that the sequence caches for the
lattice all window sizes share; `window_estimate_series` serves arbitrary
nodes from a record built per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .renewal import EventSequence, Lattice, WindowConfig, ChangePointModel
from .series import StatisticSeries
from .theory import TheoryParams, m_function, s_function

__all__ = [
    "WindowEstimateSeries",
    "s_hat",
    "window_estimate_series",
    "D_process",
    "G_process",
    "Gamma_process",
]

_EDGE_TOL = 1e-9


def _check_window(seq: EventSequence, n: int, lo_t: float, hi_t: float) -> None:
    if not (math.isfinite(lo_t) and math.isfinite(hi_t)):
        raise ValueError(f"window bounds must be finite, got {lo_t} and {hi_t}")
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
    """One window's share var/mean^3 of s_hat^2/(n h); 0 where var or mean^3
    is 0, the latter also where a tiny mean's cube underflows."""
    cube = mean**3
    ok = (cube > 0.0) & (var > 0.0)
    return np.where(ok, var / np.where(ok, cube, 1.0), 0.0)


def _estimates(seq: EventSequence, lat: Lattice, k: int, grid: np.ndarray,
               h: float, n: int) -> WindowEstimateSeries:
    """Both window halves at every grid node from the record lat of nodes x.

    Node j's halves are the intervals (x_{j-k}, x_j] and (x_j, x_{j+k}]: the
    formula runs once per interval (x_a, x_{a+k}], and node j reads entry
    j - k (left half) and entry j (right half); k = 0 only for no nodes.
    """
    cnt, mean, var = _half_windows(seq.events, lat.counts[:-k], lat.counts[k:],
                                   lat.sq[k:] - lat.sq_next[:-k])
    term = _scaling_term(mean, var)
    return WindowEstimateSeries(
        grid=grid, count_left=cnt[:-k], count_right=cnt[k:],
        mean_left=mean[:-k], mean_right=mean[k:], var_left=var[:-k], var_right=var[k:],
        count_diff=(cnt[k:] - cnt[:-k]).astype(float),
        s_hat=np.sqrt((term[k:] + term[:-k]) * n * h))


def window_estimate_series(seq: EventSequence, grid: np.ndarray, h: float,
                           n: int = 1) -> WindowEstimateSeries:
    """Evaluate both window halves at the m grid nodes, in any order.

    In the record of n * (grid - h, grid, grid + h), node a's halves are
    intervals a and m + a.  Each call sums the squared life-time prefix up
    to the last window's end in fixed-size blocks, O(N) time and no O(N)
    memory: pass all nodes at once.
    """
    grid = np.asarray(grid, dtype=float)
    if not h > 0:
        raise ValueError(f"window size h must be positive, got {h}")
    if grid.size:
        _check_window(seq, n, grid.min() - h, grid.max() + h)
    lat = seq.lattice_at(n * np.concatenate((grid - h, grid, grid + h)))
    return _estimates(seq, lat, grid.size, grid, h, n)


def _lattice_windows(seq: EventSequence, cfg: WindowConfig, h: float,
                     n: int) -> WindowEstimateSeries:
    """Both window halves on cfg.grid(h), from the record `seq.lattice`
    looked up once for all window sizes: h is k lattice steps."""
    j = cfg.grid_indices(h)
    grid = j * cfg.grid_step
    _check_window(seq, n, grid[0] - h, grid[-1] + h)
    k = int(j[0])                     # the grid starts at node h = k * grid_step
    return _estimates(seq, seq.lattice(cfg.grid_step, int(j[-1]) + k, n), k, grid, h, n)


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
    est = _lattice_windows(seq, cfg, h, n)
    scale = math.sqrt(2.0 * n * h * sigma2 / mu**3)
    return StatisticSeries(grid=est.grid, values=est.count_diff / scale,
                           valid=np.ones(est.grid.size, dtype=bool),
                           h=h, n=n, grid_step=cfg.grid_step)


def Gamma_process(seq: EventSequence, cfg: WindowConfig, h: float, n: int,
                  model: ChangePointModel) -> StatisticSeries:
    """Count difference centered by m_t and scaled by s_t of the model.

    Requires the generating model (laboratory use); the given scale n
    overrides the model's own and must match the simulated sequence.
    """
    p = TheoryParams.from_model(model, h=h, n=n)
    est = _lattice_windows(seq, cfg, h, n)
    values = (est.count_diff - m_function(est.grid, p)) / s_function(est.grid, p)
    return StatisticSeries(grid=est.grid, values=values,
                           valid=np.ones(est.grid.size, dtype=bool),
                           h=h, n=n, grid_step=cfg.grid_step)


def G_process(seq: EventSequence, cfg: WindowConfig, h: float, n: int) -> StatisticSeries:
    """Count difference scaled by the estimated s_hat.

    Nodes where s_hat is zero carry value 0.0 and valid=False instead of
    aborting the path: a single empty window must not kill the series.
    """
    est = _lattice_windows(seq, cfg, h, n)
    valid = est.s_hat > 0.0
    values = np.where(valid, est.count_diff / np.where(valid, est.s_hat, 1.0), 0.0)
    return StatisticSeries(grid=est.grid, values=values, valid=valid,
                           h=h, n=n, grid_step=cfg.grid_step)
