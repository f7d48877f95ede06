import hashlib
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geometry import check_fin_geometry
from oracles import brute_L_covariance
from sharkfin.presets import (DEFAULT_H, DISTORTION_A, DISTORTION_B,
                              ORIENTATION_MODELS, SHARK_EAST,
                              SHARK_EAST_INVERTED, SHARK_WEST,
                              SHARK_WEST_INVERTED)
from sharkfin.renewal import (ConfigurationError, RenewalSpec, WindowConfig,
                              simulate_compound)
from sharkfin.filtered import window_estimate_series
from sharkfin.theory import (SharkShape, TheoryParams, classify_shark,
                             detection_bound, distortion, m_function,
                             mu_le_theory, mu_ri_theory, normal_cdf,
                             s_function, s_tilde, shark_fin, sigma2_le_theory,
                             sigma2_ri_theory, simulate_L_paths)

ROW_A = TheoryParams.from_model(SHARK_WEST, 150.0)
FLAT = TheoryParams(1.0, 1.0, 1.0, 1.0, c=500.0, T=1000.0, h=150.0)


def mixture_sigma2_oracle(t, p):
    """Independent derivation: variance of the two-population life-time mix
    via E[X^2] - E[X]^2 with expected-count weights."""
    w1 = (p.c - t) / p.mu1
    w2 = (t + p.h - p.c) / p.mu2
    w1, w2 = w1 / (w1 + w2), w2 / (w1 + w2)
    ex = w1 * p.mu1 + w2 * p.mu2
    ex2 = w1 * (p.sigma1_sq + p.mu1**2) + w2 * (p.sigma2_sq + p.mu2**2)
    return ex2 - ex**2


# ---------------------------------------------------------------------------
# hat and scaling functions


def test_m_zero_without_rate_change():
    ts = np.linspace(150, 850, 101)
    assert np.all(m_function(ts, FLAT) == 0.0)


def test_m_peak_and_support():
    assert m_function(500.0, ROW_A) == 2850.0          # (20 - 1) * 150
    assert m_function(350.0, ROW_A) == 0.0             # t = c - h
    assert m_function(650.0, ROW_A) == 0.0             # t = c + h
    assert m_function(200.0, ROW_A) == 0.0
    assert m_function(425.0, ROW_A) == pytest.approx(19.0 * 75.0)


def test_s_at_change_point_and_flats():
    assert s_function(500.0, ROW_A) == pytest.approx(math.sqrt(3150.0), rel=1e-14)
    assert s_function(200.0, ROW_A) == pytest.approx(math.sqrt(300.0), rel=1e-14)
    assert s_function(800.0, ROW_A) == pytest.approx(math.sqrt(300.0 * 20), rel=1e-14)
    ts = np.linspace(150, 850, 101)
    assert np.allclose(s_function(ts, FLAT), math.sqrt(300.0), rtol=1e-14)


def test_s_continuous_at_neighbourhood_boundary():
    for t in (350.0, 650.0):
        inner = s_function(t, ROW_A)
        outer = s_function(t - 1e-9 if t < 500 else t + 1e-9, ROW_A)
        assert inner == pytest.approx(outer, rel=1e-6)
    # both branch expressions agree exactly at the boundary
    assert s_function(350.0, ROW_A) == pytest.approx(math.sqrt(300.0), rel=1e-12)


def test_fin_peak_value_and_trivial_zero():
    lam_c = shark_fin(500.0, ROW_A)
    assert lam_c == pytest.approx(2850.0 / math.sqrt(3150.0), rel=1e-14)
    assert lam_c == pytest.approx(19.0 / math.sqrt(21.0) * math.sqrt(150.0), rel=1e-12)
    ts = np.linspace(150, 850, 101)
    assert np.all(shark_fin(ts, FLAT) == 0.0)


def test_fin_argmax_at_change_point():
    grid = np.arange(150.0, 850.0 + 1, 1.0)
    assert grid[np.argmax(np.abs(shark_fin(grid, ROW_A)))] == 500.0
    # change point before the analysis region: maximum at the left edge
    p_lo = TheoryParams(1.0, 0.05, 1.0, 1 / 400, c=100.0, T=1000.0, h=150.0)
    assert grid[np.argmax(np.abs(shark_fin(grid, p_lo)))] == 150.0
    p_hi = TheoryParams(1.0, 0.05, 1.0, 1 / 400, c=900.0, T=1000.0, h=150.0)
    assert grid[np.argmax(np.abs(shark_fin(grid, p_hi)))] == 850.0


def gamma_params(shape1, rate1, shape2, rate2):
    phi1, phi2 = RenewalSpec.gamma(shape1, rate1), RenewalSpec.gamma(shape2, rate2)
    return TheoryParams(phi1.mu, phi2.mu, phi1.sigma2, phi2.sigma2,
                        c=500.0, T=1000.0, h=150.0)


CV = st.floats(0.2, 5.0)  # coefficient of variation 1/sqrt(shape)
MEAN = st.floats(0.05, 20.0)


@settings(max_examples=200, deadline=None)
@given(cv1=CV, mean1=MEAN, cv2=CV, mean2=MEAN)
def test_fin_peaks_at_the_change_point_for_every_gamma_pair(cv1, mean1, cv2, mean2):
    # the hat m falls off linearly faster than s can shrink on either side
    assume(abs(math.log(mean1 / mean2)) > 1e-3)
    shape1, shape2 = cv1 ** -2, cv2 ** -2
    p = gamma_params(shape1, shape1 / mean1, shape2, shape2 / mean2)
    grid = np.arange(150.0, 850.0 + 0.5, 1.0)
    assert grid[np.argmax(np.abs(shark_fin(grid, p)))] == 500.0


def test_distorted_fin_can_peak_off_the_change_point():
    # bursty rate 4 to regular rate 1/4: |distortion * fin| peaks at
    # t = 595.73, about 0.64 h after c, while the fin itself peaks at c
    p = gamma_params(1 / 25, 0.16, 25, 6.25)
    step = 0.25
    grid = np.arange(150.0, 850.0 + step / 2, step)
    distorted = np.abs(distortion(grid, p) * shark_fin(grid, p))
    peak = np.argmax(distorted)
    assert grid[peak] == pytest.approx(595.73, abs=step)
    at_c = abs(distortion(500.0, p) * shark_fin(500.0, p))
    assert distorted[peak] / at_c == pytest.approx(1.075, abs=1e-3)
    assert grid[np.argmax(np.abs(shark_fin(grid, p)))] == 500.0


def test_fin_continuity_refines_with_grid():
    gaps = []
    for step in (4.0, 1.0, 0.25):
        grid = np.arange(150.0, 850.0 + step / 2, step)
        gaps.append(np.max(np.abs(np.diff(shark_fin(grid, ROW_A)))))
    assert gaps[2] < gaps[1] < gaps[0]


def test_fin_scaling_law():
    lam1 = abs(shark_fin(500.0, ROW_A))
    lam4n = abs(shark_fin(500.0, ROW_A.at_scale(4)))
    assert abs(lam4n / lam1 - 2.0) < 1e-12
    p_h4 = TheoryParams(ROW_A.mu1, ROW_A.mu2, ROW_A.sigma1_sq, ROW_A.sigma2_sq,
                        c=500.0, T=4000.0, h=600.0)
    p_h1 = TheoryParams(ROW_A.mu1, ROW_A.mu2, ROW_A.sigma1_sq, ROW_A.sigma2_sq,
                        c=500.0, T=4000.0, h=150.0)
    assert abs(abs(shark_fin(500.0, p_h4)) / abs(shark_fin(500.0, p_h1)) - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# shape classification and geometry


def test_classify_orientations():
    assert classify_shark(TheoryParams.from_model(SHARK_WEST, 150.0)) is SharkShape.WEST_FIN
    assert classify_shark(TheoryParams.from_model(SHARK_EAST, 150.0)) is SharkShape.EAST_FIN
    assert classify_shark(TheoryParams.from_model(SHARK_WEST_INVERTED, 150.0)) \
        is SharkShape.WEST_FIN_INVERTED
    assert classify_shark(TheoryParams.from_model(SHARK_EAST_INVERTED, 150.0)) \
        is SharkShape.EAST_FIN_INVERTED


def test_classify_flat_and_hat():
    assert classify_shark(FLAT) is SharkShape.FLAT
    # rate changes but sigma2/mu^3 stays constant: gamma rate = shape**2
    hat = TheoryParams(1.0, 0.5, 1.0, 0.125, c=500.0, T=1000.0, h=150.0)
    assert math.isclose(hat.ratio1, hat.ratio2)
    assert classify_shark(hat) is SharkShape.HAT
    ts = np.linspace(350, 650, 301)
    lam = shark_fin(ts, hat)
    # hat shape: piecewise linear, so interior second differences vanish
    left = lam[(ts >= 350) & (ts <= 500)]
    assert np.allclose(np.diff(left, 2), 0.0, atol=1e-10)


def test_fin_geometry_all_orientations():
    for name, model in ORIENTATION_MODELS.items():
        p = TheoryParams.from_model(model, 150.0)
        failures = check_fin_geometry(p, classify_shark(p))
        assert not failures, f"{name}: {failures}"


# ---------------------------------------------------------------------------
# estimator limits


def test_mu_ri_boundaries_and_interior():
    p = TheoryParams(1.0, 0.05, 1.0, 1 / 400, c=500.0, T=1000.0, h=150.0)
    assert mu_ri_theory(500.0, p) == pytest.approx(0.05, rel=1e-14)   # t = c
    assert mu_ri_theory(350.0, p) == 1.0                              # t = c - h
    assert mu_ri_theory(200.0, p) == 1.0
    assert mu_ri_theory(700.0, p) == 0.05
    assert mu_ri_theory(425.0, p) == pytest.approx(2.0 / 21.0, rel=1e-14)


def test_mu_le_mirrors_mu_ri():
    p = TheoryParams(1.0, 0.05, 1.0, 1 / 400, c=500.0, T=1000.0, h=150.0)
    assert mu_le_theory(500.0, p) == 1.0                 # left window still before c
    assert mu_le_theory(650.0, p) == pytest.approx(0.05, rel=1e-14)
    assert mu_le_theory(150.0, p) == 1.0
    # reflection symmetry: left limits of the reversed model mirror right limits
    q = TheoryParams(p.mu2, p.mu1, p.sigma2_sq, p.sigma1_sq, c=p.T - p.c,
                     T=p.T, h=p.h)
    for t in (380.0, 425.0, 470.0, 500.0):
        assert mu_le_theory(p.T - t, q) == pytest.approx(mu_ri_theory(t, p), rel=1e-12)
        assert sigma2_le_theory(p.T - t, q) == pytest.approx(
            sigma2_ri_theory(t, p), rel=1e-12)


def test_sigma2_boundaries_under_both_readings():
    p = TheoryParams.from_model(DISTORTION_A, 150.0)
    for sum_cross in (False, True):
        assert sigma2_ri_theory(500.0, p, sum_cross) == pytest.approx(
            p.sigma2_sq, rel=1e-12)
        assert sigma2_ri_theory(350.0, p, sum_cross) == pytest.approx(
            p.sigma1_sq, rel=1e-12)


def test_sigma2_degenerate_mixture():
    ts = np.linspace(150, 850, 201)
    assert np.allclose(sigma2_ri_theory(ts, FLAT), 1.0, rtol=1e-12)
    assert np.allclose(sigma2_le_theory(ts, FLAT), 1.0, rtol=1e-12)


def test_sigma2_interior_matches_independent_mixture_algebra():
    p = TheoryParams.from_model(DISTORTION_A, 150.0)
    for t in (380.0, 425.0, 470.0, 499.0):
        assert sigma2_ri_theory(t, p) == pytest.approx(
            mixture_sigma2_oracle(t, p), rel=1e-12)


def test_sigma2_interior_matches_simulation():
    # replicate-averaged window variance vs the mixture form, 2 relative %
    model, h, t = DISTORTION_A, 150.0, 425.0
    p = TheoryParams.from_model(model, h)
    acc = 0.0
    n_reps = 400
    for r in range(n_reps):
        seq = simulate_compound(model, seed=60, stream=(r,))
        acc += window_estimate_series(seq, np.array([t]), h, 1).var_right[0]
    emp = acc / n_reps
    assert abs(emp / sigma2_ri_theory(t, p) - 1.0) < 0.02
    assert abs(emp / sigma2_ri_theory(t, p, sum_cross_term=True) - 1.0) > 0.02


def test_s_tilde_flat_branches_equal_s():
    p = TheoryParams.from_model(DISTORTION_A, 150.0)
    for t in (200.0, 349.0, 651.0, 800.0):
        assert s_tilde(t, p) == pytest.approx(s_function(t, p), rel=1e-12)
    ts = np.linspace(150, 850, 101)
    assert np.allclose(s_tilde(ts, FLAT), math.sqrt(300.0), rtol=1e-12)


def test_s_tilde_interior_against_oracle():
    p = TheoryParams.from_model(DISTORTION_A, 150.0)
    for t in (400.0, 450.0, 499.0):
        sig_ri = mixture_sigma2_oracle(t, p)
        mu_ri = mu_ri_theory(t, p)
        expected = math.sqrt((sig_ri / mu_ri**3
                              + p.sigma1_sq / p.mu1**3) * p.n * p.h)
        assert s_tilde(t, p) == pytest.approx(expected, rel=1e-12)
        assert s_tilde(t, p) > 0.0


LIMIT_CASES = {name: TheoryParams.from_model(model, DEFAULT_H)
               for name, model in {**ORIENTATION_MODELS, "distortion_a": DISTORTION_A,
                                   "distortion_b": DISTORTION_B}.items()}
# On the presets' integral c and h most algebraic rewrites of the window
# weights (for example the left window as the right window at t - h) round
# exactly as the original; at this small c and h they do not.
LIMIT_CASES["distortion_a_small"] = replace(
    TheoryParams.from_model(DISTORTION_A, 0.1), c=0.3, T=1.0)

# sha256 of the float64 bytes of mu_ri, mu_le, sigma2_ri, sigma2_le and the
# sum-cross-term sigma2_ri on limit_grid(p), recorded from four separately
# written limit functions: a rewrite of the limits must reproduce them bit
# for bit
LIMIT_HASHES = {
    "west_fin": "ea553fa09d77de2d319f44e05e2665bd0c85c369773f44c012d8dcaaf10af17c",
    "east_fin": "a256a07f80edb96e4e85a7ef43d14506583e14a01491f8520b23a17346b62e8e",
    "west_fin_inverted":
        "97f307fae2109c78a0a48528671767e0a6e43ee08a88258bd8c82a706486ebd3",
    "east_fin_inverted":
        "281fdda4363c0ddcc6a42d3381a0c512a0e27dd442720665353406585d1fbbc6",
    "distortion_a": "3623d86899dae130aca80d0519ed2e94943fc2762e7cb1c631143aa0be436af3",
    "distortion_b": "f27eb636ab3e179c4aebac55a26faafce3b5cba51152e308caaa5cd1bbc961f5",
    "distortion_a_small":
        "8b142cec52580761fe4418b683cfe3dc185b000e99ba4ba5543effb3561a050e",
}


def limit_grid(p):
    """Dense grid over c +- 3h/2 that holds every branch edge and c +- h/2."""
    return np.union1d(np.linspace(p.c - 1.5 * p.h, p.c + 1.5 * p.h, 3001),
                      [p.c - p.h, p.c - p.h / 2, p.c, p.c + p.h / 2, p.c + p.h])


@pytest.mark.parametrize("name", sorted(LIMIT_CASES))
def test_limits_match_recorded_bits(name):
    p = LIMIT_CASES[name]
    ts = limit_grid(p)
    values = [mu_ri_theory(ts, p), mu_le_theory(ts, p), sigma2_ri_theory(ts, p),
              sigma2_le_theory(ts, p), sigma2_ri_theory(ts, p, sum_cross_term=True)]
    raw = np.concatenate(values).astype("<f8").tobytes()
    assert hashlib.sha256(raw).hexdigest() == LIMIT_HASHES[name]


# ---------------------------------------------------------------------------
# distortion


def test_distortion_unity_cases():
    p = TheoryParams.from_model(DISTORTION_A, 150.0)
    assert distortion(500.0, p) == pytest.approx(1.0, abs=1e-12)
    for t in (150.0, 349.999, 650.001, 850.0):
        assert distortion(t, p) == pytest.approx(1.0, abs=1e-12)
    # no rate change: unity everywhere regardless of the variances
    p_eq = TheoryParams(0.2, 0.2, 0.02, 0.08, c=500.0, T=1000.0, h=150.0)
    ts = np.linspace(150, 850, 401)
    assert np.allclose(distortion(ts, p_eq), 1.0, atol=1e-12)


def test_distortion_band_and_continuity():
    p = TheoryParams.from_model(DISTORTION_A, 150.0)
    ts = np.linspace(150, 850, 7001)
    dev = np.abs(distortion(ts, p) - 1.0)
    assert 0.01 <= dev.max() <= 0.25
    assert np.max(np.abs(np.diff(distortion(ts, p)))) < 0.005  # continuous


def test_distortion_is_scale_free():
    p = TheoryParams.from_model(DISTORTION_A, 150.0)
    for t in (400.0, 520.0):
        assert distortion(t, p) == pytest.approx(distortion(t, p.at_scale(8)), rel=1e-14)


# ---------------------------------------------------------------------------
# detection bound


def test_normal_cdf_against_mpmath():
    for x in (-8.0, -2.5, -0.3, 0.0, 0.7, 1.96, 6.0):
        assert normal_cdf(x) == pytest.approx(float(mpmath.ncdf(x)), abs=1e-12)


def test_normal_cdf_tail_accuracy():
    # relative accuracy through the lower tail (an ndtr-style cdf underflows
    # to 0 near x = -38), absolute accuracy on the upper half
    for x in np.linspace(-30.0, 0.0, 601):
        ref = float(mpmath.ncdf(x))
        assert abs(normal_cdf(x) - ref) <= 1e-12 * ref
    for x in np.linspace(0.0, 10.0, 201):
        assert abs(normal_cdf(x) - float(mpmath.ncdf(x))) <= 1e-15
    assert normal_cdf(-38.0) > 0.0


def test_normal_cdf_types():
    assert type(normal_cdf(0.5)) is float
    assert type(normal_cdf(np.float64(-1.0))) is float
    assert type(normal_cdf(np.array(2.0))) is float


def test_detection_bound_cases():
    assert detection_bound(3.0, FLAT) == pytest.approx(1.0 - normal_cdf(3.0), rel=1e-12)
    assert detection_bound(3.0, ROW_A) == pytest.approx(1.0, abs=1e-15)
    qs = np.arange(0.0, 60.0, 5.0)
    vals = [detection_bound(q, ROW_A) for q in qs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))   # monotone in Q
    assert vals[-1] < 1e-3
    with pytest.raises(ValueError):
        detection_bound(-1.0, ROW_A)


# ---------------------------------------------------------------------------
# limit process simulation


def test_simulate_L_deterministic_and_flat_reduces_to_null_form():
    _, a = simulate_L_paths(ROW_A, 5.0, seed=5, n_paths=1)
    _, b = simulate_L_paths(ROW_A, 5.0, seed=5, n_paths=1)
    assert np.array_equal(a, b)
    # without a change every lattice step has the same weight, so the
    # path cannot depend on where c sits
    _, flat1 = simulate_L_paths(FLAT, 5.0, seed=6, n_paths=1)
    _, flat2 = simulate_L_paths(TheoryParams(1.0, 1.0, 1.0, 1.0, c=250.0,
                                             T=1000.0, h=150.0), 5.0,
                                seed=6, n_paths=1)
    assert np.allclose(flat1, flat2, atol=1e-10)


def test_simulate_L_paths_do_not_depend_on_chunking():
    # T/step = 1000 lattice steps: 300 paths span several row chunks
    grid, many = simulate_L_paths(ROW_A, 1.0, seed=8, n_paths=300)
    _, few = simulate_L_paths(ROW_A, 1.0, seed=8, n_paths=7)
    assert np.array_equal(many[:7], few)
    assert np.array_equal(simulate_L_paths(ROW_A, 1.0, seed=8, n_paths=1)[1], few[:1])
    assert np.isfinite(many).all() and grid.size == many.shape[1]


def test_simulate_L_rejects_misaligned_configuration():
    off = TheoryParams(1.0, 0.05, 1.0, 1 / 400, c=501.0, T=1000.0, h=150.0)
    with pytest.raises(ConfigurationError, match="change point 501.0"):
        simulate_L_paths(off, 5.0, seed=1, n_paths=1)


def test_simulate_L_lag_decorrelation():
    p = TheoryParams.from_model(DISTORTION_A, 150.0)
    grid, paths = simulate_L_paths(p, 5.0, seed=12, n_paths=10000)
    j1 = np.searchsorted(grid, 150.0)
    j2 = np.searchsorted(grid, 850.0)
    corr = np.corrcoef(paths[:, j1], paths[:, j2])[0, 1]
    assert abs(corr) < 0.05


def test_simulate_L_unit_variance_quick():
    p = TheoryParams.from_model(DISTORTION_A, 150.0)
    grid, paths = simulate_L_paths(p, 5.0, seed=13, n_paths=4000)
    for t in (150.0, 500.0, 850.0):
        v = paths[:, np.searchsorted(grid, t)].var(ddof=1)
        assert abs(v - 1.0) < 0.08


def null_L_covariance(tau, h):
    """Cov(L_t, L_t+tau) of the null form, from the overlaps of the windows."""
    tau = abs(tau)
    if tau <= h:
        return (2 * h - 3 * tau) / (2 * h)
    return (tau - 2 * h) / (2 * h) if tau <= 2 * h else 0.0


@pytest.mark.parametrize("p", [FLAT, TheoryParams(0.5, 0.5, 0.25, 0.25, c=300.0,
                                                  T=1000.0, h=150.0)],
                         ids=["unit", "r=2"])
def test_L_covariance_oracle_is_the_null_form_without_a_change(p):
    # equal laws on both sides of c: every weight is the same, and the
    # oracle must give the closed form exactly, across c and at every lag
    grid = WindowConfig(1000.0, (150.0,), 5.0).grid(150.0)
    for t in (150.0, 295.0, 300.0, 500.0):
        for u in grid:
            assert brute_L_covariance(p, 5.0, t, u) == null_L_covariance(u - t, 150.0)


L_COV_PATHS = 20_000
# fixed before the first run: the mean of L_t * L_u over n paths has
# standard deviation sqrt((1 + rho^2) / n) <= sqrt(2 / n), so this bound
# is over four standard deviations
L_COV_BOUND = 6.0 / math.sqrt(L_COV_PATHS)
L_COV_CASES = {**ORIENTATION_MODELS, "distortion_a": DISTORTION_A,
               "distortion_b": DISTORTION_B}


@pytest.mark.parametrize("name", sorted(L_COV_CASES))
def test_simulate_L_covariance_matches_definition(name):
    p = TheoryParams.from_model(L_COV_CASES[name], 150.0)
    grid, paths = simulate_L_paths(p, 5.0, seed=19, n_paths=L_COV_PATHS)
    h, lo, hi = p.h, grid[0], grid[-1]
    nodes = (p.c - h, p.c - h / 2, p.c, p.c + h / 2, p.c + h)
    lags = (0.0, h / 2, h, 3 * h / 2, 2 * h, 5 * h / 2)
    pairs = sorted({(t, t + sign * lag) for t in nodes for lag in lags
                    for sign in (1, -1) if lo <= t + sign * lag <= hi})
    weighted = 0
    for t, u in pairs:
        want = brute_L_covariance(p, 5.0, t, u)
        x, y = paths[:, np.searchsorted(grid, t)], paths[:, np.searchsorted(grid, u)]
        assert abs(np.mean(x * y) - want) < L_COV_BOUND, (t, u, want)
        weighted += abs(want - null_L_covariance(u - t, h)) > 2 * L_COV_BOUND
    # the pairs see the weights of the change-point neighbourhood: where the
    # oracle is over 2 bounds from the null form, a sampler of the null form
    # (within one bound of it) misses the oracle by over one bound
    assert weighted > 0


# ---------------------------------------------------------------------------
# parameter validation


def test_theory_params_validation():
    with pytest.raises(ValueError):
        TheoryParams(0.0, 1.0, 1.0, 1.0, c=1.0, T=2.0, h=1.0)
    with pytest.raises(ValueError):
        TheoryParams(1.0, 1.0, 1.0, 1.0, c=3.0, T=2.0, h=1.0)
    with pytest.raises(ValueError):
        TheoryParams(1.0, 1.0, 1.0, 1.0, c=1.0, T=2.0, h=1.5)
    p = TheoryParams.from_model(SHARK_WEST, 150.0, n=4)
    assert (p.mu1, p.mu2, p.n) == (1.0, 0.05, 4)
    assert p.sigma2_sq == pytest.approx(1 / 400)
