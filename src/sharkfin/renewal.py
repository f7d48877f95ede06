"""Renewal point processes with an optional rate/variance change point.

A point process on the positive line is stored as its increasing event
times 0 < S_1 < S_2 < ... <= horizon.  Equivalent views are the life
times xi_j = S_j - S_{j-1} (with xi_1 = S_1) and the counting process
N_t = #{j : S_j <= t}.  A renewal process has i.i.d. positive life times
with mean mu and variance sigma2 > 0; its rate is 1/mu.

A change-point model glues two independent renewal processes: events on
(0, n*c] come from the first process, events on (n*c, n*T] from an
independent second process restricted to that interval.  The integer
scale n stretches horizon and change point together and is what the
convergence checks in `lab` vary.

All simulation is driven by a single master seed plus integer stream
labels, so every replicate and every segment of a compound simulation
is independently reproducible and safe to run in parallel.
"""

from __future__ import annotations

import io
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "ConfigurationError",
    "RenewalSpec",
    "EventSequence",
    "ChangePointModel",
    "WindowConfig",
    "substream",
    "worker_count",
    "process_map",
    "simulate_renewal",
    "simulate_compound",
    "write_event_file",
    "read_event_file",
]

# Relative tolerance used whenever a real value must sit on the grid lattice.
_ALIGN_RTOL = 1e-9


class ConfigurationError(ValueError):
    """Inconsistent run configuration (grid misalignment, table mismatch...)."""


def substream(seed: int, *labels: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *labels).

    Distinct label tuples yield statistically independent streams, which
    keeps parallel Monte Carlo replicates and the two segments of a
    compound simulation individually reproducible.
    """
    return np.random.default_rng([int(seed), *[int(x) for x in labels]])


def worker_count() -> int:
    """The CPUs this process may run on; where the system does not say
    (macOS, Windows), the CPUs of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextmanager
def process_map(workers: int):
    """A `map` over `workers` forked processes, in input order, that are
    shut down on leaving, on error too; the builtin `map` for one worker
    or where fork is missing.  The workers fork at the first map, so call
    it while this process runs no other thread.
    """
    pool = None
    if workers > 1:
        # imported here: the process pool modules cost every import of the package
        import multiprocessing
        # fork, not spawn: a spawned worker imports numpy again (50-220 ms a
        # pool on 2 cores, against 15-25 ms to fork)
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        yield map if pool is None else pool.map
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# life-time distributions


@dataclass(frozen=True)
class RenewalSpec:
    """Gamma life-time law of a renewal process: shape p, rate lam.

    mu and sigma2, the mean p/lam and variance p/lam**2 of one life time,
    are derived from shape and rate, so they always agree with the draws.
    """

    mu: float = field(init=False)
    sigma2: float = field(init=False)
    shape: float
    rate: float

    def __post_init__(self):
        try:
            mu, sigma2 = self.shape / self.rate, self.shape / self.rate**2
        except (ZeroDivisionError, OverflowError):  # rate 0, or rate**2 out of range
            mu = sigma2 = math.nan
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", sigma2)
        if not all(x > 0 and math.isfinite(x) for x in (self.shape, self.rate, mu, sigma2)):
            raise ValueError(f"gamma shape, rate and moments must be finite and positive, "
                             f"got shape={self.shape}, rate={self.rate}, mu={mu}, "
                             f"sigma2={sigma2}")

    @classmethod
    def gamma(cls, shape: float, rate: float) -> "RenewalSpec":
        return cls(shape, rate)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` i.i.d. life times."""
        out = rng.gamma(self.shape, 1.0 / self.rate, size)
        # exact zeros are measure-zero artifacts of float underflow; redraw them
        bad = np.flatnonzero(out <= 0.0)
        while bad.size:
            out[bad] = self.draw(rng, bad.size)
            bad = bad[out[bad] <= 0.0]
        return out

    def to_dict(self) -> dict:
        return {"family": "gamma", **asdict(self)}


# ---------------------------------------------------------------------------
# event sequences


def _enforce_strict_increase(times: np.ndarray) -> np.ndarray:
    """Bump float-rounding ties up by one ulp so times strictly increase.

    Consecutive events closer than one ulp of the running sum collapse to
    equal floats when life times are accumulated.  The bump moves an event
    by <= a few ulp, which no windowed count at O(1) resolution can see,
    and it preserves the event count, unlike dropping the tie.

    Works in place on a writable array of non-negative finite times and
    returns it.  Such doubles are ordered like their int64 bit patterns,
    and nextafter(x, inf) is the pattern plus one, so the fixed point
    t'[i] = max(t[i], nextafter(t'[i-1], inf)) is a running maximum of
    bits[i] - i, shifted back by i.
    """
    bits = times.view(np.int64)
    i = np.arange(bits.size, dtype=np.int64)
    bits -= i
    np.maximum.accumulate(bits, out=bits)
    bits += i
    return times


class Lattice(NamedTuple):
    """Event counts at lattice nodes and the squared life-time prefix there."""

    counts: np.ndarray    # N at each node
    sq: np.ndarray        # life_time_square_prefix()[counts]
    sq_next: np.ndarray   # life_time_square_prefix()[min(counts + 1, N)]


@dataclass(frozen=True, eq=False)
class EventSequence:
    """Strictly increasing event times on (0, horizon]; a read-only float
    array is shared, any other input copied, so no caller's array is frozen."""

    events: np.ndarray
    horizon: float

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=float)
        if ev.ndim != 1:
            raise ValueError("event times must form a one-dimensional sequence")
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise ValueError(f"horizon must be finite and non-negative, got {self.horizon}")
        if ev.size:
            if not np.all(np.isfinite(ev)):
                raise ValueError("event times must be finite")
            if ev[0] <= 0.0:
                raise ValueError(f"event times must be positive, got {ev[0]}")
            if ev[-1] > self.horizon:
                raise ValueError(f"event time {ev[-1]} exceeds horizon {self.horizon}")
            # one byte per event: a float np.diff would cost eight
            bad = ev[1:] <= ev[:-1]
            if bad.any():
                i = int(bad.argmax()) + 1
                raise ValueError(
                    f"event times must strictly increase; duplicate or decreasing "
                    f"time {ev[i]} at index {i}")
        if ev.flags.writeable:  # a copy: the caller's array stays theirs
            ev = ev.copy()
            ev.flags.writeable = False
        object.__setattr__(self, "events", ev)

    def __len__(self) -> int:
        return int(self.events.size)

    def life_time_square_prefix(self) -> np.ndarray:
        """Partial sums [0, xi_1^2, xi_1^2 + xi_2^2, ...] of length N+1, fresh
        on each call."""
        # one (N+1) buffer: [0, xi_1, ..., xi_N], squared and summed in place,
        # so this path never materialises the life times themselves
        s = self.events
        out = np.empty(s.size + 1)
        out[0] = 0.0
        if s.size:
            out[1] = s[0]
            np.subtract(s[1:], s[:-1], out=out[2:])
        np.multiply(out, out, out=out)
        np.cumsum(out, out=out)
        return out

    @cached_property
    def _lattice_cache(self) -> dict:
        return {}

    def lattice(self, step: float, size: int, n: float = 1) -> Lattice:
        """The `Lattice` of the nodes n * (j * step) for j = 0..size.

        Cached read-only per (step, size, n), so the statistic processes of
        every window size over one `WindowConfig` share one search.  The
        squared life-time prefix is built for the lookup and dropped, so a
        sequence holds O(size) floats per lattice, not O(N).
        """
        key = (step, size, n)
        lat = self._lattice_cache.get(key)
        if lat is None:
            counts = np.searchsorted(self.events, n * (np.arange(size + 1) * step),
                                     side="right")
            sq = self.life_time_square_prefix()
            lat = Lattice(counts, sq[counts], sq[np.minimum(counts + 1, len(self))])
            for a in lat:
                a.flags.writeable = False
            self._lattice_cache[key] = lat
        return lat


def _trusted_sequence(events: np.ndarray, horizon: float) -> EventSequence:
    """EventSequence over times this module built valid; skips __post_init__."""
    events.flags.writeable = False
    seq = object.__new__(EventSequence)
    object.__setattr__(seq, "events", events)
    object.__setattr__(seq, "horizon", horizon)
    return seq


# ---------------------------------------------------------------------------
# models and simulation


@dataclass(frozen=True)
class ChangePointModel:
    """Two renewal laws glued at time n*c inside the horizon n*T.

    c == T is allowed and means the second law never takes effect; the
    compound simulation then reproduces the plain phi1 simulation on the
    same stream exactly.
    """

    phi1: RenewalSpec
    phi2: RenewalSpec
    c: float
    T: float
    n: int = 1

    def __post_init__(self):
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if not (0 < self.c <= self.T):
            raise ValueError(f"change point must lie in (0, T], got c={self.c}, T={self.T}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"scale n must be a positive integer, got {self.n}")

    def with_scale(self, n: int) -> "ChangePointModel":
        return replace(self, n=int(n))

    def to_dict(self) -> dict:
        return {**asdict(self), "phi1": self.phi1.to_dict(),
                "phi2": self.phi2.to_dict(), "n": int(self.n)}


def _skip_count(spec: RenewalSpec, lo: float) -> int:
    """Life times that end before lo except with negligible probability.

    K sits 8 standard deviations of the renewal count N(lo) below its mean
    lo/mu, so S_K > lo is rare; when it happens, the caller rebuilds the
    events in (lo, S_K] exactly.
    """
    return max(0, math.floor(lo / spec.mu - 8.0 * math.sqrt(lo * spec.sigma2 / spec.mu**3)))


def _may_tie(life_times: np.ndarray, hi: float) -> bool:
    """Whether summing these life times can give a tie at or below hi.

    A sum s + x rounds back to s only if x <= spacing(s)/2, and
    spacing(s) <= spacing(hi) for s <= hi; so when every life time
    exceeds spacing(hi), the strictness pass would change nothing.
    """
    return bool(life_times.min() <= np.spacing(hi))


def _events_between(spec: RenewalSpec, rng: np.random.Generator, lo: float,
                    hi: float) -> np.ndarray:
    """Strictly increasing events in (lo, hi] of a renewal process started at 0.

    Life times come from rng in chunks and are accumulated in one running
    sum until it passes hi.  The first chunk covers the mean count of
    the span plus six standard deviations, so a second chunk is rare.
    Strict increase is enforced once, on the times up to hi that were
    drawn, and only if a tie is possible there (see _may_tie); the
    result is the part in (lo, hi].

    For lo > 0, the first K = _skip_count(spec, lo) renewals are skipped:
    S_K, a sum of K i.i.d. Gamma(p, rate) life times, is drawn in one
    call as Gamma(K*p, rate), which is exact in law.  If S_K > lo, the
    partial sums S_1..S_K are rebuilt given S_K, as S_K times the
    normalised cumulative sums of K Gamma(p, 1) draws (a Dirichlet
    bridge).  lo = 0 draws the full path, so its stream is that of a
    plain simulation.
    """
    if hi <= lo:
        return np.empty(0)
    start = 0.0
    parts = []
    k = _skip_count(spec, lo) if lo > 0 else 0
    if k:
        start = float(rng.gamma(k * spec.shape, 1.0 / spec.rate))
        if start > lo:
            sums = np.cumsum(rng.standard_gamma(spec.shape, k))
            parts.append(sums / sums[-1] * start)
    span = max(hi - start, 0.0)
    chunk = int(span / spec.mu + 6.0 * math.sqrt(span * spec.sigma2 / spec.mu**3)) + 16
    total = start
    ties = bool(parts)      # the bridge's scaled sums may tie
    while total <= hi:
        xi = spec.draw(rng, chunk)
        ties = ties or _may_tie(xi, hi)
        xi[0] += total
        np.cumsum(xi, out=xi)
        parts.append(xi)
        total = float(xi[-1])
        chunk = max(chunk // 4, 1024)
    times = parts[0] if len(parts) == 1 else np.concatenate(parts)
    times = times[:np.searchsorted(times, hi, side="right")]
    if ties:
        times = _enforce_strict_increase(times)
    return times[np.searchsorted(times, lo, side="right"):
                 np.searchsorted(times, hi, side="right")]


def simulate_renewal(spec: RenewalSpec, horizon: float, seed: int,
                     stream: Iterable[int] = ()) -> EventSequence:
    """Simulate a renewal process on (0, horizon].

    Event times are cumulative sums of i.i.d. life times drawn from the
    stream (seed, *stream), truncated at the horizon.  Deterministic for
    fixed (spec, horizon, seed, stream).
    """
    if horizon < 0 or not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite and non-negative, got {horizon}")
    rng = substream(seed, *stream)
    if horizon == 0:
        return _trusted_sequence(np.empty(0), 0.0)
    return _trusted_sequence(_events_between(spec, rng, 0.0, horizon), horizon)


def simulate_compound(model: ChangePointModel, seed: int,
                      stream: Iterable[int] = ()) -> EventSequence:
    """Simulate a change-point model on (0, n*T].

    The first segment is a phi1 process on (0, n*c]; the second is an
    independent phi2 process started at 0 and restricted to (n*c, n*T].
    An event landing exactly on n*c belongs to the first segment.  The two
    segments use the sub-streams (*stream, 1) and (*stream, 2).
    """
    nc = model.n * model.c
    nT = model.n * model.T
    left = _events_between(model.phi1, substream(seed, *stream, 1), 0.0, nc)
    right = _events_between(model.phi2, substream(seed, *stream, 2), nc, nT)
    return _trusted_sequence(np.concatenate([left, right]), nT)


# ---------------------------------------------------------------------------
# analysis grids


def _align_ratio(x: float, step: float, what: str) -> int:
    """x/step as an exact integer, or raise ConfigurationError."""
    ratio = x / step
    k = round(ratio)
    if abs(ratio - k) > _ALIGN_RTOL * max(1.0, abs(ratio)):
        raise ConfigurationError(
            f"{what} {x} is not a multiple of grid step {step}")
    return int(k)


@dataclass(frozen=True)
class WindowConfig:
    """Analysis grid: window sizes h and a uniform step over [h, T-h].

    Every grid node sits on the lattice {j * grid_step}; each window size
    must be a positive integral number of steps so that t - h, t and t + h
    are all lattice nodes.  That is what lets the limit-process simulation
    resolve the window offsets by pure index arithmetic, and what lets the
    statistic processes of `filtered` read every window as a lattice
    interval from one lookup of the event counts at the lattice nodes.
    """

    T: float
    h_set: tuple
    grid_step: float

    def __post_init__(self):
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if not (self.grid_step > 0 and math.isfinite(self.grid_step)):
            raise ValueError(f"grid step must be positive, got {self.grid_step}")
        hs = tuple(sorted(float(h) for h in self.h_set))
        if not hs:
            raise ValueError("h_set must not be empty")
        if len(set(hs)) != len(hs):
            raise ValueError(f"window sizes must be distinct, got {hs}")
        for h in hs:
            if not (0 < h <= self.T / 2):
                raise ValueError(f"window size must lie in (0, T/2], got h={h}, T={self.T}")
            self._window_steps(h)
        object.__setattr__(self, "h_set", hs)

    def lattice_size(self) -> int:
        """Largest lattice index j with j * grid_step <= T."""
        return int(math.floor(self.T / self.grid_step + _ALIGN_RTOL))

    def _window_steps(self, h: float) -> int:
        """The number k >= 1 of grid steps in window size h."""
        k = _align_ratio(h, self.grid_step, "window size")
        if k < 1:
            raise ConfigurationError(
                f"window size {h} is shorter than one grid step {self.grid_step}")
        return k

    def grid_indices(self, h: float) -> np.ndarray:
        """Lattice indices of the analysis region [h, T-h] for window h."""
        if not (0 < h <= self.T / 2):
            raise ValueError(f"window size must lie in (0, T/2], got h={h}, T={self.T}")
        j0 = self._window_steps(h)
        j1 = int(math.floor((self.T - h) / self.grid_step + _ALIGN_RTOL))
        return np.arange(j0, j1 + 1)

    def grid(self, h: float) -> np.ndarray:
        """Grid nodes covering the analysis region [h, T-h] for window h."""
        return self.grid_indices(h) * self.grid_step

    def snap(self, t: float) -> float:
        """Nearest lattice node; attach change points to the grid with this."""
        return round(t / self.grid_step) * self.grid_step

    def lattice_index(self, t: float, what: str = "time") -> int:
        """Lattice index of t; raises ConfigurationError if t is off-lattice."""
        return _align_ratio(t, self.grid_step, what)


# ---------------------------------------------------------------------------
# event file I/O

# Format: a '# horizon=<value>' header, then one ascending decimal event
# time per line.  '#' starts a comment anywhere and blank lines are skipped;
# before the header only comment and blank lines may stand, after it a
# '# horizon=' line is one more comment.  The writer holds one block of
# _IO_BLOCK lines (under 0.5 MiB).  The reader converts the times with one
# np.loadtxt call, so the event array is the only buffer that grows with a
# seekable file (a pipe is buffered whole first), and reads the input a second
# time, line by line, only to name the line of an error.
_IO_BLOCK = 1 << 12


def write_event_file(path, seq: EventSequence) -> None:
    with open(path, "w") as fh:
        fh.write(f"# horizon={float(seq.horizon)!r}\n")
        for i in range(0, len(seq), _IO_BLOCK):
            fh.write("\n".join(map(repr, seq.events[i:i + _IO_BLOCK].tolist())) + "\n")


def _horizon(path, fh) -> float:
    """The value of the '# horizon=' header, the lines of fh read up to it."""
    for number, line in enumerate(fh, 1):
        text = line.strip()
        if text[:1] != "#":
            if text:
                raise ValueError(f"{path}: line {number}: missing '# horizon=' header "
                                 f"before {text!r}")
        elif text[1:].lstrip().startswith("horizon="):
            try:
                horizon = float(text.split("=", 1)[1])
            except ValueError:
                horizon = math.nan
            if not (math.isfinite(horizon) and horizon >= 0):
                raise ValueError(f"{path}: line {number}: bad horizon header {text!r}")
            return horizon
    raise ValueError(f"{path}: missing '# horizon=' header")


def _name_bad_line(path, fh) -> None:
    """Raise an error naming the first bad event line of fh, if it has one."""
    prev = 0.0
    for number, line in enumerate(fh, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        where = f"{path}: line {number}"
        try:
            time = float(text)
        except ValueError:
            raise ValueError(f"{where}: not a number: {text!r}") from None
        if not math.isfinite(time):
            raise ValueError(f"{where}: event time must be finite, got {text!r}")
        if time <= prev:
            raise ValueError(f"{where}: event time {time} does not increase past {prev}")
        prev = time


def read_event_file(path) -> EventSequence:
    """Read an event file; errors name the file and the line."""
    with open(path) as file:
        # a pipe is buffered whole, so that an error can be read again
        fh = file if file.seekable() else io.StringIO(file.read())
        horizon = _horizon(path, fh)
        try:
            with warnings.catch_warnings():  # a header-only file holds no events
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                events = np.loadtxt(fh, comments="#", ndmin=1)
            events.flags.writeable = False  # so the sequence shares this one buffer
            return EventSequence(events, horizon)
        except ValueError as exc:
            fh.seek(0)
            _name_bad_line(path, fh)
            raise ValueError(f"{path}: {exc}") from None
