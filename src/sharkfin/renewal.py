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
            # the count-variance rate that sizes every simulation and limit
            count_rate = sigma2 / mu**3
        except (ZeroDivisionError, OverflowError):  # rate 0, or a power out of range
            mu = sigma2 = count_rate = math.nan
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", sigma2)
        if not all(x > 0 and math.isfinite(x)
                   for x in (self.shape, self.rate, mu, sigma2, count_rate)):
            raise ValueError(f"gamma shape, rate, moments and sigma2/mu**3 must be finite "
                             f"and positive, got shape={self.shape}, rate={self.rate}, "
                             f"mu={mu}, sigma2={sigma2}, sigma2/mu**3={count_rate}")

    @classmethod
    def gamma(cls, shape: float, rate: float) -> "RenewalSpec":
        return cls(shape, rate)

    def draw(self, rng: np.random.Generator, size: int,
             out: np.ndarray | None = None) -> np.ndarray:
        """Draw `size` i.i.d. life times, into the float array `out` if given.

        Standard gamma draws times 1/rate are the bits of `rng.gamma`.
        """
        out = rng.standard_gamma(self.shape, size, out=out)
        out *= 1.0 / self.rate
        # exact zeros are measure-zero artifacts of float underflow; redraw
        # them, and build a mask only when one is there
        if out.size and out.min() <= 0.0:
            bad = np.flatnonzero(out <= 0.0)
            out[bad] = self.draw(rng, bad.size)  # returns no zeros: one round
        return out

    def to_dict(self) -> dict:
        return {"family": "gamma", **asdict(self)}


# ---------------------------------------------------------------------------
# event sequences


# Length of the fixed-size blocks in which the tie repair and the squared
# life-time prefix work, so neither holds a temporary as long as the events.
_BLOCK = 1 << 14


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
    bits[i] - i, shifted back by i.  The recurrence is causal and the times
    before the first tie already are its fixed point, so the maximum starts
    at the first tie; without a tie, one comparison pass returns the array.
    Search and maximum run over blocks of _BLOCK times, and each block
    starts from the recurrence applied to the last repaired time before it.
    """
    for a in range(0, times.size - 1, _BLOCK):
        b = min(a + _BLOCK, times.size - 1)
        tie = times[a + 1:b + 1] <= times[a:b]
        if tie.any():
            first = a + int(tie.argmax())
            break
    else:
        return times
    bits = times.view(np.int64)
    i = np.arange(min(_BLOCK, bits.size - first), dtype=np.int64)
    last = bits[first] - 1
    for a in range(first, bits.size, _BLOCK):
        block = bits[a:a + _BLOCK]
        block -= i[:block.size]
        block[0] = max(block[0], last + 1)
        np.maximum.accumulate(block, out=block)
        block += i[:block.size]
        last = block[-1]
    return times


class Lattice(NamedTuple):
    """Event counts at a set of nodes and the squared life-time prefix there."""

    counts: np.ndarray    # N at each node
    sq: np.ndarray        # square_prefix(counts)
    sq_next: np.ndarray   # square_prefix(min(counts + 1, N))


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

    def square_prefix(self, counts: np.ndarray) -> np.ndarray:
        """The sums xi_1^2 + ... + xi_k^2 at the counts k in 0..N, shaped as counts.

        The prefix is summed over blocks of _BLOCK entries up to the largest
        count, each block's first term plus the sum before it, so every value
        has the bits of np.cumsum over all N + 1 entries [0, xi_1^2, ...] while
        no buffer grows with N.
        """
        counts = np.asarray(counts)
        out = np.empty(counts.shape)
        if not counts.size:
            return out
        order = np.argsort(counts, axis=None, kind="stable")
        wanted = counts.ravel()[order]
        if wanted[0] < 0 or wanted[-1] > len(self):
            raise ValueError(f"counts must lie in 0..{len(self)}, got "
                             f"{wanted[0] if wanted[0] < 0 else wanted[-1]}")
        out_flat = out.reshape(-1)
        s = self.events
        top = int(wanted[-1]) + 1
        buf = np.empty(min(_BLOCK, top))
        carry = 0.0
        j = 0
        for a in range(0, top, _BLOCK):
            b = min(a + _BLOCK, top)
            # times S_{a-2} .. S_{b-1}, with S_{-1} = S_0 = 0 in the first block,
            # whose differences are the life times xi_a .. xi_{b-1} (xi_0 = 0)
            times = s[a - 2:b - 1] if a else np.concatenate(([0.0, 0.0], s[:b - 1]))
            block = np.subtract(times[1:], times[:-1], out=buf[:b - a])
            np.multiply(block, block, out=block)
            block[0] += carry
            np.cumsum(block, out=block)
            carry = block[-1]
            k = j + int(np.searchsorted(wanted[j:], b))
            out_flat[order[j:k]] = block[wanted[j:k] - a]
            j = k
        return out

    @cached_property
    def _lattice_cache(self) -> dict:
        return {}

    def lattice_at(self, nodes: np.ndarray) -> Lattice:
        """The read-only `Lattice` of nodes in any order, repeats allowed: one
        search and one `square_prefix` lookup, no buffer that grows with N."""
        counts = np.searchsorted(self.events, nodes, side="right")
        lat = Lattice(counts, *self.square_prefix(
            np.stack((counts, np.minimum(counts + 1, len(self))))))
        for a in lat:
            a.flags.writeable = False
        return lat

    def lattice(self, step: float, size: int, n: float = 1) -> Lattice:
        """`lattice_at` the nodes n * (j * step) for j = 0..size.

        Cached per (step, size, n), so the statistic processes of every
        window size over one `WindowConfig` share one search, and the
        sequence keeps O(size) floats per lattice, not O(N).
        """
        key = (step, size, n)
        lat = self._lattice_cache.get(key)
        if lat is None:
            lat = self._lattice_cache[key] = self.lattice_at(
                n * (np.arange(size + 1) * step))
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


def _events_between(spec: RenewalSpec, rng: np.random.Generator, lo: float,
                    hi: float, before: int = 0, after: int = 0) -> np.ndarray:
    """Strictly increasing events in (lo, hi] of a renewal process started at 0,
    with `before` free slots ahead of them and `after` free slots behind.

    Life times come from rng in chunks and are accumulated in one running
    sum until it passes hi.  The first chunk covers the mean count of
    the span plus six standard deviations, so a second chunk is rare; it is
    drawn in place into one buffer that also holds the free slots, so the
    result is a view of that buffer.  Only a second chunk or the bridge
    below joins the parts in a new buffer.  Strict increase is enforced on
    every path, once, on the times up to hi that were drawn (see
    _enforce_strict_increase); the result is the part in (lo, hi], cut
    after the repair, since a bump at hi can pass hi.  The free slots hold
    no events: a caller fills them with another segment's events.

    The first K = _skip_count(spec, lo) renewals are skipped: S_K, a sum
    of K i.i.d. Gamma(p, rate) life times, is drawn in one call as
    Gamma(K*p, rate), which is exact in law.  If S_K > lo, the partial
    sums S_1..S_K are rebuilt given S_K, as S_K times the normalised
    cumulative sums of K Gamma(p, 1) draws (a Dirichlet bridge).  K is 0
    for lo = 0, so that path is drawn in full and its stream is that of a
    plain simulation.  The whole call holds the result's buffer, one
    comparison block and, where ties occur, one int64 block.
    """
    if hi <= lo:
        return np.empty(before + after)
    start = 0.0
    parts = []
    k = _skip_count(spec, lo)
    if k:
        start = float(rng.gamma(k * spec.shape, 1.0 / spec.rate))
        if start > lo:
            sums = np.cumsum(rng.standard_gamma(spec.shape, k))
            parts.append(sums / sums[-1] * start)
    span = max(hi - start, 0.0)
    chunk = int(span / spec.mu + 6.0 * math.sqrt(span * spec.sigma2 / spec.mu**3)) + 16
    buf = np.empty(before + chunk + after)
    out = buf[before:before + chunk]  # where the first chunk is drawn
    total = start
    while total <= hi:
        xi = spec.draw(rng, chunk, out=out)
        xi[0] += total
        np.cumsum(xi, out=xi)
        parts.append(xi)
        total = float(xi[-1])
        chunk = max(chunk // 4, 1024)
        out = None
    # rare: a second chunk, or the bridge (alone if it passes hi, out unused)
    if len(parts) > 1 or out is not None:
        buf = np.concatenate([np.empty(before), *parts, np.empty(after)])
    times = buf[before:buf.size - after]
    times = _enforce_strict_increase(times[:np.searchsorted(times, hi, side="right")])
    i = np.searchsorted(times, lo, side="right")
    j = np.searchsorted(times, hi, side="right")
    return buf[i:before + j + after]


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
    return _trusted_sequence(_events_between(spec, rng, 0.0, horizon), horizon)


def simulate_compound(model: ChangePointModel, seed: int,
                      stream: Iterable[int] = ()) -> EventSequence:
    """Simulate a change-point model on (0, n*T].

    The first segment is a phi1 process on (0, n*c]; the second is an
    independent phi2 process started at 0 and restricted to (n*c, n*T].
    An event landing exactly on n*c belongs to the first segment.  The two
    segments use the sub-streams (*stream, 1) and (*stream, 2).

    The segment with fewer expected events is drawn first, into its own
    array; the other is drawn into a buffer with room for it on its side,
    where it is copied, so the sequence is built in one buffer.
    """
    nc = model.n * model.c
    nT = model.n * model.T
    rng1, rng2 = substream(seed, *stream, 1), substream(seed, *stream, 2)
    if nc / model.phi1.mu >= (nT - nc) / model.phi2.mu:
        right = _events_between(model.phi2, rng2, nc, nT)
        events = _events_between(model.phi1, rng1, 0.0, nc, after=right.size)
        events[events.size - right.size:] = right
    else:
        left = _events_between(model.phi1, rng1, 0.0, nc)
        events = _events_between(model.phi2, rng2, nc, nT, before=left.size)
        events[:left.size] = left
    return _trusted_sequence(events, nT)


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
