"""Monte-Carlo rejection threshold and the multiple-filter change-point test.

The null hypothesis of constant rate is rejected when the largest
absolute value of the estimated-scaling statistic over all grid times
and all window sizes exceeds a threshold Q.  Q is the empirical upper
quantile of that maximum under the null, obtained by simulating the
Gaussian limit process: each replicate draws one Brownian path shared by
every window size, as the multiple-filter construction requires.  The
replicates are drawn in blocks, each from its own substream, on one
process per available CPU, so Q is the same at any worker count.

After a rejection, change points are located per window size by
successive argmax: take the largest remaining |G|, record its time,
retire the surrounding h-neighbourhood, and repeat while the maximum
still exceeds Q.  Estimates from different window sizes are then merged,
smallest window first, dropping any estimate that lands within
min(h, h') of one already accepted (finer windows localise better).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .filtered import G_process
from .renewal import (ConfigurationError, EventSequence, WindowConfig, process_map,
                      substream, worker_count)
from .series import StatisticSeries
from .theory import brownian_blocks

__all__ = [
    "ThresholdTable",
    "ChangePointEstimate",
    "DetectionResult",
    "simulate_threshold",
    "threshold_cache_key",
    "detect",
    "estimate_change_points",
    "merge_across_windows",
]


# Version of the threshold simulation and of the table file.  Raise it
# whenever a change to the simulation can change Q or the quantiles, so a
# cached table written before that change is never reused.
TABLE_VERSION = 1


def threshold_cache_key(T, h_set, grid_step, alpha, n_sims, seed) -> str:
    """Content hash identifying a threshold configuration for caching."""
    blob = json.dumps({"T": float(T), "alpha": float(alpha),
                       "grid_step": float(grid_step),
                       "h_set": sorted(float(h) for h in h_set),
                       "n_sims": int(n_sims), "seed": int(seed),
                       "version": TABLE_VERSION},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]

# Replicates are simulated in fixed-size blocks with one RNG sub-stream per
# block, so results are identical for any worker count.
_BLOCK = 1024


def _upper_quantile(values: np.ndarray, alpha: float) -> float:
    """Order statistic at rank ceil((1-alpha)*n); conservative and exact."""
    v = np.sort(values)
    k = int(math.ceil((1.0 - alpha) * v.size - 1e-9))
    return float(v[min(max(k, 1), v.size) - 1])


def _h0_block(cfg: WindowConfig, seed: int, block: int, size: int) -> np.ndarray:
    """Per-window-size maxima of |L| for one block of null replicates."""
    # The grid of window h is j = k, ..., k+m-1 with k = h/grid_step, so the
    # path at j+k, j and j-k is read as the slices [2k, 2k+m), [k, k+m), [0, m).
    windows = [(cfg.lattice_index(h, "window size"), cfg.grid_indices(h).size,
                math.sqrt(2.0 * h)) for h in cfg.h_set]
    out = np.empty((size, len(windows)))
    for rows, w, spare in brownian_blocks(substream(seed, block), size,
                                          cfg.lattice_size(), cfg.grid_step):
        for i, (k, m, norm) in enumerate(windows):
            d = spare[:, :m]
            np.multiply(w[:, k:k + m], 2.0, out=d)
            np.subtract(w[:, 2 * k:2 * k + m], d, out=d)
            np.add(d, w[:, :m], out=d)
            np.abs(d, out=d)
            # dividing by a positive constant commutes exactly with the max
            out[rows, i] = d.max(axis=1) / norm
    return out


@dataclass(frozen=True)
class ThresholdTable:
    """Null-distribution quantiles of the multi-window maximum statistic."""

    alpha: float
    h_set: tuple
    T: float
    grid_step: float
    n_sims: int
    seed: int
    Q: float
    per_h_max_quantiles: dict

    def cache_key(self) -> str:
        return threshold_cache_key(self.T, self.h_set, self.grid_step,
                                   self.alpha, self.n_sims, self.seed)

    def to_json(self) -> str:
        # json.dumps(sort_keys=True) orders float keys numerically before it
        # converts them, so the quantiles are keyed by their sorted repr here
        d = dict(asdict(self), version=TABLE_VERSION,
                 per_h_max_quantiles={repr(h): q for h, q in
                                      sorted(self.per_h_max_quantiles.items())})
        return json.dumps(d, sort_keys=True, indent=2)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ThresholdTable":
        """Read a table written by `save`; ConfigurationError if it is unusable."""
        with open(path) as fh:
            try:
                d = json.load(fh)
            except ValueError as exc:
                raise ConfigurationError(f"threshold table {path}: not JSON: {exc}") from None

        def field(name, convert):
            try:
                return convert(d[name])
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"threshold table {path}: bad or missing field {name!r}") from exc

        def require(ok, name, why):
            if not ok:
                raise ConfigurationError(f"threshold table {path}: {name} {why}")

        if not isinstance(d, dict):
            raise ConfigurationError(f"threshold table {path}: not a JSON object")
        require(d.get("version") == TABLE_VERSION, "version",
                f"must be {TABLE_VERSION}, got {d.get('version')!r}; rebuild the table")
        table = cls(alpha=field("alpha", float),
                    h_set=field("h_set", lambda v: tuple(sorted(float(h) for h in v))),
                    T=field("T", float), grid_step=field("grid_step", float),
                    n_sims=field("n_sims", int), seed=field("seed", int),
                    Q=field("Q", float),
                    per_h_max_quantiles=field("per_h_max_quantiles", lambda v: {
                        float(h): float(q) for h, q in v.items()}))
        require(math.isfinite(table.Q), "Q", f"must be finite, got {table.Q}")
        for name in ("T", "grid_step"):
            value = getattr(table, name)
            require(0.0 < value < math.inf, name, f"must be finite and positive, got {value}")
        require(0.0 < table.alpha < 1.0, "alpha",
                f"must lie in (0, 1), got {table.alpha}")
        require(table.n_sims >= 100, "n_sims",
                f"must be at least 100, got {table.n_sims}")
        require(len(table.h_set) > 0, "h_set", "must not be empty")
        require(set(table.per_h_max_quantiles) == set(table.h_set),
                "per_h_max_quantiles", f"keys {sorted(table.per_h_max_quantiles)} "
                f"differ from h_set {list(table.h_set)}")
        require(all(math.isfinite(q) for q in table.per_h_max_quantiles.values()),
                "per_h_max_quantiles", "must all be finite")
        return table


def simulate_threshold(T: float, h_set, grid_step: float, alpha: float, n_sims: int,
                       seed: int, workers: int | None = None) -> ThresholdTable:
    """Empirical (1-alpha)-quantile of max over (h, t) of |L| under the null.

    The blocks of 1024 replicates run on a `process_map` of `workers`
    forked processes, by default one per available CPU (`worker_count`),
    never more than there are blocks; workers=1 runs them in-process.
    Deterministic given the seed, independent of the worker count.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    if n_sims < 100:
        raise ConfigurationError(f"need at least 100 simulations, got {n_sims}")
    workers = worker_count() if workers is None else workers
    if workers < 1:
        raise ConfigurationError(f"need at least 1 worker, got {workers}")
    cfg = WindowConfig(T, h_set, grid_step)

    sizes = [_BLOCK] * (n_sims // _BLOCK)
    if n_sims % _BLOCK:
        sizes.append(n_sims % _BLOCK)
    jobs = [(cfg, seed, b, size) for b, size in enumerate(sizes)]
    # the pool starts all its processes at once, so it gets no more than blocks
    with process_map(min(workers, len(jobs))) as pmap:
        parts = list(pmap(_h0_block, *zip(*jobs)))
    per_h = np.vstack(parts)

    maxima = per_h.max(axis=1)
    return ThresholdTable(
        alpha=alpha, h_set=cfg.h_set, T=T, grid_step=grid_step, n_sims=n_sims,
        seed=seed, Q=_upper_quantile(maxima, alpha),
        per_h_max_quantiles={h: _upper_quantile(per_h[:, i], alpha)
                             for i, h in enumerate(cfg.h_set)})


# ---------------------------------------------------------------------------
# detection and estimation


class ChangePointEstimate(NamedTuple):
    location: float
    h: float
    value: float


@dataclass(frozen=True, eq=False)
class DetectionResult:
    reject: bool
    Q: float
    global_max: float
    change_points: tuple
    per_h_series: dict

    def to_json_dict(self, series_paths: Mapping[float, str] | None = None) -> dict:
        d = {
            "reject": self.reject,
            "Q": self.Q,
            "global_max": self.global_max,
            "change_points": [cp._asdict() for cp in self.change_points],
        }
        if series_paths is not None:
            d["series"] = {repr(h): str(series_paths[h]) for h in sorted(series_paths)}
        return d


def estimate_change_points(series: StatisticSeries, Q: float, h: float) -> list:
    """Successive argmax estimation on one statistic series.

    Returns the ascending list of grid times found before the remaining
    maximum drops to Q or below.  Each accepted time retires all grid
    nodes in the open interval (t*-h, t*+h), so within one window size
    the estimates are pairwise at least h apart.
    """
    magnitude = np.abs(series.values)
    alive = series.valid.copy()
    found = []
    while alive.any():
        masked = np.where(alive, magnitude, -np.inf)
        idx = int(np.argmax(masked))
        if masked[idx] <= Q:
            break
        t_star = float(series.grid[idx])
        found.append(t_star)
        alive &= ~((series.grid > t_star - h) & (series.grid < t_star + h))
    return sorted(found)


def merge_across_windows(per_h: Mapping[float, Iterable[float]]) -> list:
    """Combine per-window-size estimates into one ordered list of (c, h).

    Window sizes are processed in ascending order; an estimate is dropped
    when it lies within min(h, h') of an already accepted one, so the
    finer window wins ties on the same change point.
    """
    accepted: list = []
    for h in sorted(per_h):
        for cand in sorted(per_h[h]):
            if all(abs(cand - loc) >= min(h, h_prev) for loc, h_prev in accepted):
                accepted.append((float(cand), float(h)))
    return sorted(accepted)


def detect(seq: EventSequence, T: float, n: int, h_set,
           table: ThresholdTable) -> DetectionResult:
    """Run the multiple-filter test on an event sequence.

    The statistic uses the estimated scaling, as parameters are unknown
    in practice.  Deterministic given (seq, table).
    """
    cfg = WindowConfig(T, h_set, table.grid_step)
    if not math.isclose(table.T, T, rel_tol=1e-12):
        raise ConfigurationError(
            f"threshold table was built for T={table.T}, not T={T}")
    if len(table.h_set) != len(cfg.h_set) or any(
            not math.isclose(a, b, rel_tol=1e-12)
            for a, b in zip(table.h_set, cfg.h_set)):
        raise ConfigurationError(
            f"threshold table windows {table.h_set} != requested {cfg.h_set}")
    if not math.isclose(seq.horizon, n * T, rel_tol=1e-9):
        raise ConfigurationError(
            f"event horizon {seq.horizon} does not match n*T = {n * T}")

    per_h_series = {h: G_process(seq, cfg, h, n) for h in cfg.h_set}
    global_max = max(series.max_abs() for series in per_h_series.values())
    reject = global_max > table.Q

    change_points = ()
    if reject:
        per_h_estimates = {h: estimate_change_points(series, table.Q, h)
                           for h, series in per_h_series.items()}
        merged = merge_across_windows(per_h_estimates)
        out = []
        for loc, h in merged:
            series = per_h_series[h]
            idx = int(round((loc - series.grid[0]) / table.grid_step))
            out.append(ChangePointEstimate(loc, h, float(series.values[idx])))
        change_points = tuple(out)
    return DetectionResult(reject=reject, Q=table.Q, global_max=global_max,
                           change_points=change_points, per_h_series=per_h_series)
