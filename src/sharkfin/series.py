"""Statistic sample paths on an analysis grid, and their CSV writer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StatisticSeries", "write_series_csv"]


@dataclass(frozen=True, eq=False)
class StatisticSeries:
    """A statistic evaluated on a time grid, with a per-node validity flag.

    Invalid nodes carry value 0.0 and mark grid times where the statistic
    is undefined (an empty estimation window); values are finite wherever
    valid.  Instances are immutable and safe to share across threads: a
    read-only input array is shared and a writable one copied, so the
    caller's arrays are never frozen nor aliased.
    """

    grid: np.ndarray
    values: np.ndarray
    valid: np.ndarray
    h: float
    n: int
    grid_step: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        valid = np.asarray(self.valid, dtype=bool)
        if not (grid.shape == values.shape == valid.shape) or grid.ndim != 1:
            raise ValueError("grid, values and valid must be 1-d arrays of equal length")
        if not np.all(np.isfinite(values[valid])):
            raise ValueError("statistic values must be finite wherever valid")
        for arr, name in ((grid, "grid"), (values, "values"), (valid, "valid")):
            if arr.flags.writeable:  # a copy: the caller's array stays theirs
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.grid.size)

    def max_abs(self) -> float:
        """Largest |value| over valid nodes; 0.0 when nothing is valid."""
        if not self.valid.any():
            return 0.0
        return float(np.max(np.abs(self.values[self.valid])))


def write_series_csv(path, series: StatisticSeries) -> None:
    """Columns t,value,valid after a '# h=..,n=..,delta=..' metadata line."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# h={float(series.h)!r},n={int(series.n)},"
                 f"delta={float(series.grid_step)!r}\n")
        fh.write("t,value,valid\n")
        for t, v, ok in zip(series.grid, series.values, series.valid):
            fh.write(f"{float(t)!r},{float(v)!r},{int(ok)}\n")

