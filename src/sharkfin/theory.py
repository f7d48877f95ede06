"""Deterministic theory of the filtered-derivative statistic near a change point.

For a change point at c where the life-time law switches from
(mu1, sigma1_sq) to (mu2, sigma2_sq), the windowed count difference has

* an expectation (hat function) m_t that is zero outside the
  h-neighbourhood of c and peaks at c with height n*(1/mu2 - 1/mu1)*h,
* a standard deviation s_t that is flat at sqrt(2nh sigma_i^2/mu_i^3) on
  either side and linearly interpolated (in the variance) across the
  neighbourhood.

Their ratio Lambda = m/s is the systematic deviation of the statistic
with known scaling: hat shaped when only the rate changes, shaped like a
shark's fin when the variance changes too, with its largest deviation
always at c.

When the scaling must be estimated from the data, the windowed mean and
variance estimators are biased inside the h-neighbourhood.  Their limits
are the interpolations mu_ri/mu_le (harmonic in the expected counts) and
sigma2_ri/sigma2_le (a two-population mixture variance), and the induced
multiplicative error on the statistic is the distortion
delta_t = s_t / s_tilde_t, identically 1 away from c and exactly 1 at c.
The statistic with estimated scaling follows the distorted mean
delta_t * Lambda_t, which need not peak at c: when the law turns from
bursty to regular, the distortion can lift it above its value at c
inside (c, c + h).

The zero-mean, unit-variance Gaussian limit process of the statistic is
built from increments of a single Brownian path over the two windows,
each increment weighted by the law in force on its side of c.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, Optional

import numpy as np

from .renewal import ChangePointModel, ConfigurationError, WindowConfig, substream

__all__ = [
    "TheoryParams",
    "SharkShape",
    "m_function",
    "s_function",
    "shark_fin",
    "classify_shark",
    "mu_ri_theory",
    "mu_le_theory",
    "sigma2_ri_theory",
    "sigma2_le_theory",
    "s_tilde",
    "distortion",
    "normal_cdf",
    "detection_bound",
    "brownian_blocks",
    "simulate_L_paths",
]

_REL_TOL = 1e-12


@dataclass(frozen=True)
class TheoryParams:
    """Process parameters entering the closed-form theory objects."""

    mu1: float
    mu2: float
    sigma1_sq: float
    sigma2_sq: float
    c: float
    T: float
    h: float
    n: int = 1

    def __post_init__(self):
        for name in ("mu1", "mu2", "sigma1_sq", "sigma2_sq"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive, got {v}")
        if not (self.T > 0 and 0 < self.c <= self.T):
            raise ValueError(f"need 0 < c <= T, got c={self.c}, T={self.T}")
        if not (0 < self.h <= self.T / 2):
            raise ValueError(f"window size must lie in (0, T/2], got h={self.h}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"scale n must be a positive integer, got {self.n}")

    @classmethod
    def from_model(cls, model: ChangePointModel, h: float,
                   n: Optional[int] = None) -> "TheoryParams":
        return cls(model.phi1.mu, model.phi2.mu, model.phi1.sigma2, model.phi2.sigma2,
                   model.c, model.T, h, int(model.n if n is None else n))

    @property
    def ratio1(self) -> float:
        """sigma1^2 / mu1^3, the count-variance rate of the first law."""
        return self.sigma1_sq / self.mu1**3

    @property
    def ratio2(self) -> float:
        return self.sigma2_sq / self.mu2**3

    def at_scale(self, n: int) -> "TheoryParams":
        return replace(self, n=int(n))


class SharkShape(Enum):
    """Orientation of the systematic deviation m/s near the change point."""

    FLAT = "flat"                          # no rate change: identically zero
    HAT = "hat"                            # rate change, constant scaling
    WEST_FIN = "west_fin"                  # m >= 0, s increasing
    EAST_FIN = "east_fin"                  # m >= 0, s decreasing
    WEST_FIN_INVERTED = "west_fin_inverted"  # m <= 0, s increasing
    EAST_FIN_INVERTED = "east_fin_inverted"  # m <= 0, s decreasing


def _scalar_or_array(fn):
    """Run fn on t viewed as a 1-d float array; a scalar t gives a float."""
    @functools.wraps(fn)
    def wrapper(t, *args, **kwargs):
        out = fn(np.atleast_1d(np.asarray(t, dtype=float)), *args, **kwargs)
        return float(out[0]) if np.ndim(t) == 0 else out
    return wrapper


@_scalar_or_array
def m_function(t, p: TheoryParams):
    """Expected windowed count difference; a hat over (c-h, c+h), else 0."""
    gap = np.abs(t - p.c)
    return np.where(gap > p.h, 0.0, p.n * (1.0 / p.mu2 - 1.0 / p.mu1) * (p.h - gap))


@_scalar_or_array
def s_function(t, p: TheoryParams):
    """Standard deviation of the windowed count difference.

    Flat at sqrt(2nh sigma_i^2/mu_i^3) outside the h-neighbourhood of c;
    the variance is linearly interpolated across it.
    """
    r1, r2 = p.ratio1, p.ratio2
    var = np.where(
        np.abs(t - p.c) <= p.h,
        p.n * ((t + p.h - p.c) * r2 + (p.c - (t - p.h)) * r1),
        np.where(t < p.c, 2.0 * p.n * p.h * r1, 2.0 * p.n * p.h * r2))
    return np.sqrt(var)


@_scalar_or_array
def shark_fin(t, p: TheoryParams):
    """Systematic deviation m/s of the statistic; peaks in magnitude at c."""
    return m_function(t, p) / s_function(t, p)


def classify_shark(p: TheoryParams) -> SharkShape:
    """Orientation of the m/s curve from the four sign/monotonicity cases."""
    if math.isclose(p.mu1, p.mu2, rel_tol=_REL_TOL):
        return SharkShape.FLAT
    if math.isclose(p.ratio1, p.ratio2, rel_tol=_REL_TOL):
        return SharkShape.HAT
    rate_up = p.mu2 < p.mu1          # m >= 0
    s_increasing = p.ratio2 > p.ratio1
    if rate_up:
        return SharkShape.WEST_FIN if s_increasing else SharkShape.EAST_FIN
    return SharkShape.WEST_FIN_INVERTED if s_increasing else SharkShape.EAST_FIN_INVERTED


# ---------------------------------------------------------------------------
# limits of the windowed estimators


@_scalar_or_array
def _window_limit(t, p: TheoryParams, right: bool, first: float, second: float,
                  mix):
    """Limit of a window estimator of the right window (t, t+h] or the left
    window (t-h, t].

    `first` while the window lies before c, `second` once it lies after c,
    and mix(a, b) while it straddles c, where a and b are the expected event
    counts of the first and second segment inside the window, both
    multiplied by mu1*mu2.
    """
    if right:   # straddles c for t in (c-h, c]
        before, after = t <= p.c - p.h, t > p.c
        a, b = (p.c - t) * p.mu2, (t + p.h - p.c) * p.mu1
    else:       # straddles c for t in (c, c+h)
        before, after = t <= p.c, t >= p.c + p.h
        a, b = (p.c + p.h - t) * p.mu2, (t - p.c) * p.mu1
    mid = ~(before | after)
    out = np.empty_like(t)
    out[before] = first
    out[after] = second
    out[mid] = mix(a[mid], b[mid])
    return out


def _harmonic_mean(p: TheoryParams):
    return lambda a, b: p.h * p.mu1 * p.mu2 / (a + b)


def mu_ri_theory(t, p: TheoryParams):
    """Limit of the right-window life-time mean estimator.

    mu1 while the right window (t, t+h] sits left of c, mu2 once t has
    passed c, and in between the harmonic interpolation weighted by the
    expected event counts of the two segments.
    """
    return _window_limit(t, p, True, p.mu1, p.mu2, _harmonic_mean(p))


def mu_le_theory(t, p: TheoryParams):
    """Limit of the left-window life-time mean estimator (mirror of mu_ri)."""
    return _window_limit(t, p, False, p.mu1, p.mu2, _harmonic_mean(p))


def _mixture_var(a, b, p: TheoryParams, sum_cross_term: bool):
    """Variance of the two-population life-time mixture with weights a, b.

    a weights the first law, b the second.  The cross term carries
    (mu1 - mu2)^2: it is the between-population variance of the mixture
    and the only reading that reduces to sigma^2 when the two laws share
    mu and sigma2.  With sum_cross_term=True the cross term uses
    (mu1 + mu2)^2 instead; that variant exists only so the verification
    lab can document that it disagrees with simulation.
    """
    tot = a + b
    if sum_cross_term:
        s1, s2 = math.sqrt(p.sigma1_sq), math.sqrt(p.sigma2_sq)
        return (a * b * ((s1 - s2) ** 2 + (p.mu1 + p.mu2) ** 2)
                + (a * s1 + b * s2) ** 2) / tot**2
    return ((a * p.sigma1_sq + b * p.sigma2_sq) / tot
            + a * b * (p.mu1 - p.mu2) ** 2 / tot**2)


def sigma2_ri_theory(t, p: TheoryParams, sum_cross_term: bool = False):
    """Limit of the right-window life-time variance estimator."""
    return _window_limit(t, p, True, p.sigma1_sq, p.sigma2_sq,
                         lambda a, b: _mixture_var(a, b, p, sum_cross_term))


def sigma2_le_theory(t, p: TheoryParams):
    """Limit of the left-window life-time variance estimator."""
    return _window_limit(t, p, False, p.sigma1_sq, p.sigma2_sq,
                         lambda a, b: _mixture_var(a, b, p, False))


@_scalar_or_array
def s_tilde(t, p: TheoryParams):
    """Deterministic limit of the estimated scaling s_hat."""
    return np.sqrt((sigma2_ri_theory(t, p) / mu_ri_theory(t, p) ** 3
                    + sigma2_le_theory(t, p) / mu_le_theory(t, p) ** 3) * p.n * p.h)


@_scalar_or_array
def distortion(t, p: TheoryParams):
    """Multiplicative estimation error s/s_tilde near the change point.

    Continuous, identically 1 outside (c-h, c+h) and exactly 1 at c,
    where the two window halves each see a single population.
    """
    p1 = p.at_scale(1)
    return s_function(t, p1) / s_tilde(t, p1)


# ---------------------------------------------------------------------------
# detection probability


def normal_cdf(x: float) -> float:
    """Standard normal distribution function 0.5*erfc(-x/sqrt(2)) of a scalar.

    The erfc form keeps its relative accuracy deep in the lower tail.
    """
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def detection_bound(Q: float, p: TheoryParams) -> float:
    """Lower bound on the probability that max_t of the statistic exceeds Q.

    At the change point the statistic is asymptotically normal with unit
    variance and mean |Lambda_c| = |1/mu2 - 1/mu1| / sqrt(r2 + r1) * sqrt(nh),
    so the exceedance probability at c alone already bounds the maximum.
    """
    if Q < 0:
        raise ValueError(f"threshold must be non-negative, got {Q}")
    return float(1.0 - normal_cdf(Q - abs(shark_fin(p.c, p))))


# ---------------------------------------------------------------------------
# Gaussian limit process


# Paths per chunk of `brownian_blocks`: about 0.5 MiB of path.  A block holds
# four buffers of that size, three of increments and one of paths, and lends
# the spent increments buffer to its caller as scratch, so about 2 MiB in all;
# 0.25 MiB chunks saved another 0.5 MB of peak RSS but ran 5-10 % slower.
_CHUNK_BYTES = 2**19


def brownian_blocks(rng: np.random.Generator, n_paths: int, n_steps: int,
                    step: float) -> Iterator[tuple]:
    """Standard Brownian paths sampled every `step`, in row chunks.

    Yields (rows, w, spare) triples: `w` holds paths `rows` (a slice of
    range n_paths) with shape (len, n_steps+1) and w[:, 0] = 0.  The values
    are those of one (n_paths, n_steps) draw of increments, because numpy's
    `standard_normal` fills rows identically however a draw is split; so
    seeded results do not depend on the chunking.  `w` is one reused
    buffer, overwritten by the next chunk.  `spare`, of shape
    (len, n_steps), is the chunk's own increments buffer, lent to the
    caller as scratch: its increments are already summed into `w`, and no
    draw writes into it until the caller resumes the generator.

    Three increment buffers of about 0.5 MiB each take the chunks in turn.
    One helper thread draws them, two chunks ahead: once chunk i is summed,
    the draw of chunk i+2 is queued into the buffer of chunk i-1, which the
    caller gave back by resuming, so the helper always has a draw waiting
    while this thread scales and sums a chunk and the caller reads it.
    The sums (one 2-D `np.cumsum`) hold the GIL for most of their run, so a
    draw overlaps mainly the scaling and the reads.  The draws still run
    one at a time and in chunk order, so the values, and the state of
    `rng` after a full pass, are those of the serial draw.  After an early
    close, `rng` has drawn the chunks yielded plus two more (fewer if the
    paths end first).  Every caller in this package draws from a fresh
    substream and reads it to the end.
    """
    # imported here: the thread pool module costs every import of the package
    from concurrent.futures import ThreadPoolExecutor

    rows = max(1, min(n_paths, _CHUNK_BYTES // (8 * (n_steps + 1))))
    starts = range(0, n_paths, rows)
    incs = [np.empty((rows, n_steps)) for _ in range(min(3, len(starts)))]
    w = np.empty((rows, n_steps + 1))
    w[:, 0] = 0.0
    scale = math.sqrt(step)

    def draw(i):
        buf = incs[i % 3][:min(rows, n_paths - starts[i])]
        rng.standard_normal(out=buf)
        return buf

    # leaving the block waits for the queued draws, also on an early close
    with ThreadPoolExecutor(1) as pool:
        queued = [pool.submit(draw, i) for i in range(min(2, len(starts)))]
        for i, start in enumerate(starts):
            chunk = queued.pop(0).result()
            chunk *= scale
            r = len(chunk)
            np.cumsum(chunk, axis=1, out=w[:r, 1:])
            if i + 2 < len(starts):
                queued.append(pool.submit(draw, i + 2))
            yield slice(start, start + r), w[:r], chunk


def simulate_L_paths(cfg: WindowConfig, p: TheoryParams, seed: int,
                     n_paths: int, stream: Iterable[int] = ()) -> tuple:
    """Discretised sample paths of the Gaussian limit process.

    Returns (grid, values) where values has shape (n_paths, len(grid)).
    One Brownian path W per replicate is sampled on the full lattice over
    [0, T] with independent N(0, grid_step) increments; window offsets
    and the change point are resolved by lattice index arithmetic, which
    is why h and c must be multiples of the grid step.  L_t is W's increment
    over (t, t+h] minus that over (t-h, t], over s_t at n = 1, each step
    weighted by sqrt(sigma_i^2/mu_i^3) of the law in force on its side of c.
    """
    if abs(p.T - cfg.T) > 1e-9 * max(1.0, cfg.T):
        raise ConfigurationError(f"params horizon {p.T} != grid horizon {cfg.T}")
    jg = cfg.grid_indices(p.h)
    kh = cfg.lattice_index(p.h, "window size")
    kc = cfg.lattice_index(p.c, "change point")
    grid = jg * cfg.grid_step
    ju, jv = np.clip(kc, jg, jg + kh), np.clip(kc, jg - kh, jg)
    g1, g2 = math.sqrt(p.ratio1), math.sqrt(p.ratio2)
    s = s_function(grid, p.at_scale(1))

    m = jg.size
    values = np.empty((n_paths, m))
    rng = substream(seed, *stream)
    for rows, w, spare in brownian_blocks(rng, n_paths, cfg.lattice_size(),
                                          cfg.grid_step):
        # the grid is jg = kh, ..., kh+m-1, so w at jg+kh, jg, jg-kh are slices
        wp, wt, wm = w[:, 2 * kh:2 * kh + m], w[:, kh:kh + m], w[:, :m]
        # W where c splits the right and left half; W_u is gathered into the
        # lent scratch (ju is in range, and `take` buffers its output in raise
        # mode or when `out` is not C-contiguous)
        wu = np.take(w, ju, axis=1, mode="clip",
                     out=spare.reshape(-1)[:len(w) * m].reshape(len(w), m))
        wv = w[:, jv]
        out = values[rows]
        # L s = g1 (W_j-kh - W_j + D) + g2 (W_j+kh - W_j - D), D = W_u - W_v
        wu -= wv
        np.subtract(wm, wt, out=out)
        out += wu
        out *= g1
        np.subtract(wp, wt, out=wv)
        wv -= wu
        wv *= g2
        out += wv
        out /= s
    return grid, values
