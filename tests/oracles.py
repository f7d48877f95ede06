"""Definition-level oracles that the tests compare the package with.

The window-estimator oracles follow the definitions in `sharkfin.filtered`
one window at a time, with plain Python loops and sums, and share no code
with the prefix-sum arithmetic of `window_estimate_series`.  The others
state a count, the life times and their squared prefix, a one-sample KS
test and the closed-form law of the null maximum straight from their
definitions.
"""

import math
from typing import NamedTuple

import numpy as np


def brute_count(events, a, b):
    """Number of events in the half-open interval (a, b]."""
    return sum(1 for s in events if a < s <= b)


def life_times(events):
    """Life times xi_j = S_j - S_{j-1} with xi_1 = S_1."""
    return np.diff(events, prepend=0.0)


def square_prefix(events):
    """[0, xi_1^2, xi_1^2 + xi_2^2, ...]: np.cumsum over all N + 1 entries."""
    return np.cumsum(np.diff(events, prepend=(0.0, 0.0)) ** 2)


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


def brute_L_covariance(p, step, t, u):
    """Cov(L_t, L_u) of the Gaussian limit process from its definition.

    L_t = sum_i a_t(i) dW_i over the lattice steps i, each step
    ((i-1)*step, i*step] with Var dW_i = step.  a_t(i) = +g(i)/s_t on the
    right window half (t, t+h], -g(i)/s_t on the left half (t-h, t] and 0
    elsewhere, with g(i)^2 = sigma1^2/mu1^3 for a step that ends at or
    before c and sigma2^2/mu2^3 after it, and s_t^2 = step * sum of g(i)^2
    over both halves.  So the covariance is step * sum_i a_t(i) a_u(i); it
    is summed here in g(i)^2, where the step cancels.
    """
    r1 = p.sigma1_sq / p.mu1**3
    r2 = p.sigma2_sq / p.mu2**3
    kc, kh = round(p.c / step), round(p.h / step)

    def signs(x):
        """step index -> +1 on the right half of node x, -1 on the left."""
        j = round(x / step)
        return {i: 1 if i > j else -1 for i in range(j - kh + 1, j + kh + 1)}

    def g_sq(i):
        return r1 if i <= kc else r2

    st, su = signs(t), signs(u)
    var_t = sum(g_sq(i) for i in st)
    var_u = sum(g_sq(i) for i in su)
    cross = sum(st[i] * su[i] * g_sq(i) for i in st if i in su)
    return cross / math.sqrt(var_t * var_u)


def _normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def ks_statistic_normal(x):
    """One-sample KS statistic of the sample x against the standard normal law."""
    cdf = [_normal_cdf(v) for v in sorted(map(float, x))]
    n = len(cdf)
    return max(max((i + 1) / n - c, c - i / n) for i, c in enumerate(cdf))


def ks_critical_normal(alpha, n):
    """One-sample KS critical value at level alpha, with Stephens'
    finite-sample correction of the Kolmogorov quantile."""
    return (math.sqrt(-math.log(alpha / 2.0) / 2.0)
            / (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)))


def null_max_tail(u, T, h, delta):
    """P(max_j |L_j| > u) over the grid nodes of [h, T - h] with step delta,
    for the null-form limit L of window h.

    Near 0 its correlation is 1 - C|tau| with C = 3/(2h), so Pickands'
    tail C (T - 2h) u phi(u), doubled for |L|, applies; Siegmund's factor
    nu(u sqrt(2 C delta)) corrects it for sampling on the grid, and the
    exponent turns the expected number of upcrossings into a probability.
    """
    C = 3.0 / (2.0 * h)
    x = u * math.sqrt(2.0 * C * delta)
    nu = (2.0 / x) * (_normal_cdf(x / 2) - 0.5) / ((x / 2) * _normal_cdf(x / 2)
                                                     + _normal_pdf(x / 2))
    return 1.0 - math.exp(-2.0 * C * (T - 2.0 * h) * u * _normal_pdf(u) * nu)


def null_max_quantile(T, h, delta, alpha):
    """The u with null_max_tail(u, T, h, delta) = alpha, by bisection."""
    lo, hi = 1.0, 10.0   # the tail decreases in u over this bracket
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if null_max_tail(mid, T, h, delta) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
