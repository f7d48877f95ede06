import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_count, brute_s_hat, brute_window_stats
from sharkfin import presets
from sharkfin.filtered import (D_process, G_process, Gamma_process, WindowEstimateSeries,
                               s_hat, window_estimate_series)
from sharkfin.presets import DISTORTION_A
from sharkfin.renewal import (ChangePointModel, EventSequence, RenewalSpec,
                              WindowConfig, simulate_compound, simulate_renewal)
from sharkfin.series import StatisticSeries, write_series_csv
from sharkfin.theory import (TheoryParams, distortion, m_function,
                            s_function, shark_fin)


def test_window_stats_right_hand_case():
    seq = EventSequence(np.array([5.0, 6.0, 7.0, 8.0, 10.0]), 10.0)
    est = window_estimate_series(seq, np.array([4.5]), h=4.0)
    assert est.count_right[0] == 4
    assert est.mean_right[0] == 1.0    # ((6-5)+(7-6)+(8-7))/3
    assert est.var_right[0] == 0.0     # all included life times equal
    assert est.count_left[0] == 0      # (0.5, 4.5] holds no event


def test_window_stats_empty_window():
    seq = EventSequence(np.array([1.0, 2.0]), 10.0)
    est = window_estimate_series(seq, np.array([1.0, 2.0, 5.0, 8.0]), h=1.0)
    assert est.count_left.tolist() == [1, 1, 0, 0]
    assert est.count_right.tolist() == [1, 0, 0, 0]
    # windows with at most one event fall back to the zero convention
    for arr in (est.mean_left, est.mean_right, est.var_left, est.var_right,
                est.s_hat):
        assert np.all(arr == 0.0)


def test_window_stats_left_hand_case():
    seq = EventSequence(np.array([1.0, 2.0, 3.0, 4.0]), 4.0)
    est = window_estimate_series(seq, np.array([2.0]), h=2.0)
    assert est.count_left[0] == 2
    assert est.mean_left[0] == 1.0     # only the second life time enters
    assert est.var_left[0] == 0.0      # count <= 2 convention


def test_window_stats_out_of_range():
    seq = EventSequence(np.array([1.0]), 10.0)
    for estimate in (lambda t: window_estimate_series(seq, np.array([t]), 2.0),
                     lambda t: s_hat(seq, t, 2.0)):
        with pytest.raises(ValueError, match="exceeds event horizon"):
            estimate(9.0)
        with pytest.raises(ValueError, match="before time zero"):
            estimate(1.0)


def test_window_estimates_refuse_unsorted_out_of_range_and_non_finite_input():
    seq = EventSequence(np.arange(1.0, 900.0), 900.0)
    with pytest.raises(ValueError, match="window end 950.0 exceeds event horizon 900.0"):
        window_estimate_series(seq, np.array([800.0, 200.0]), 150.0)
    with pytest.raises(ValueError, match="before time zero"):
        window_estimate_series(seq, np.array([700.0, 100.0]), 150.0)
    for grid in ([np.nan], [300.0, np.nan], [np.inf]):
        with pytest.raises(ValueError, match="window bounds must be finite"):
            window_estimate_series(seq, np.array(grid), 150.0)
    for h in (0.0, -150.0, np.nan):
        with pytest.raises(ValueError, match="window size h must be positive"):
            s_hat(seq, 500.0, h)


def test_window_stats_of_an_empty_grid():
    seq = simulate_renewal(RenewalSpec.gamma(1, 1), 100.0, seed=3)
    est = window_estimate_series(seq, np.array([]), 10.0)
    for name in WindowEstimateSeries.__dataclass_fields__:
        assert getattr(est, name).shape == (0,)


def test_window_stats_of_one_node_equal_s_hat_and_the_grid():
    seq = simulate_compound(presets.SHARK_WEST.with_scale(4), seed=5)
    for h, grid in ((150.0, np.array([600.0, 150.0, 425.0, 600.0])),
                    (149.3, np.array([600.37, 150.37, 425.37]))):
        est = window_estimate_series(seq, grid, h, 4)
        for i, t in enumerate(grid):
            one = window_estimate_series(seq, np.array([t]), h, 4).s_hat
            assert one.view(np.int64)[0] == est.s_hat.view(np.int64)[i]
            assert np.float64(s_hat(seq, t, h, 4)).view(np.int64) == one.view(np.int64)[0]


def test_window_stats_match_definition_oracle():
    seq = simulate_renewal(RenewalSpec.gamma(0.5, 2), 200.0, seed=4)
    rng = np.random.default_rng(0)
    for _ in range(30):
        # both windows of t lie in [0, 200]
        t = rng.uniform(45, 150)
        h = rng.uniform(1, 40)
        est = window_estimate_series(seq, np.array([t]), h)
        for count, mean, var, (lo, hi) in (
                (est.count_right, est.mean_right, est.var_right, (t, t + h)),
                (est.count_left, est.mean_left, est.var_left, (t - h, t))):
            ref = brute_window_stats(seq.events, lo, hi)
            assert count[0] == ref.count
            assert math.isclose(mean[0], ref.mean_hat, rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(var[0], ref.var_hat, rel_tol=1e-9, abs_tol=1e-15)


def test_window_stats_left_window_lln():
    seq = simulate_renewal(RenewalSpec.gamma(1, 1), 1000.0, seed=21)
    est = window_estimate_series(seq, np.array([500.0]), 150.0)
    assert abs(est.mean_left[0] - 1.0) < 0.1


def test_s_hat_zero_convention_and_magnitude():
    empty = EventSequence(np.empty(0), 1000.0)
    assert s_hat(empty, 500.0, 150.0) == 0.0
    seq = simulate_renewal(RenewalSpec.gamma(1, 1), 1000.0, seed=22)
    val = s_hat(seq, 500.0, 150.0)
    assert abs(val / math.sqrt(300.0) - 1.0) < 0.10


def test_s_hat_consistency_under_null():
    # sup_t |s_hat/s - 1| shrinks as the scale grows
    spec = RenewalSpec.gamma(1, 1)
    cfg = WindowConfig(1000.0, (150.0,), 10.0)
    grid = cfg.grid(150.0)
    sups = []
    for li, n in enumerate((1, 4, 16)):
        seq = simulate_renewal(spec, n * 1000.0, seed=30, stream=(li,))
        est = window_estimate_series(seq, grid, 150.0, n)
        s_true = math.sqrt(2 * n * 150.0)
        sups.append(np.max(np.abs(est.s_hat / s_true - 1.0)))
    assert sups[2] < sups[1] < sups[0]
    assert sups[2] < 0.05


def test_vectorised_estimates_match_scalar_path():
    seq = simulate_renewal(RenewalSpec.gamma(0.25, 5), 2000.0, seed=6)
    cfg = WindowConfig(2000.0, (150.0,), 25.0)
    grid = cfg.grid(150.0)
    est = window_estimate_series(seq, grid, 150.0, 1)
    for j in (0, 5, 17, len(grid) - 1):
        t = grid[j]
        ri = brute_window_stats(seq.events, t, t + 150.0)
        le = brute_window_stats(seq.events, t - 150.0, t)
        assert est.count_right[j] == ri.count
        assert est.count_left[j] == le.count
        assert np.isclose(est.mean_right[j], ri.mean_hat, rtol=1e-9)
        assert np.isclose(est.var_right[j], ri.var_hat, rtol=1e-9)
        assert np.isclose(est.mean_left[j], le.mean_hat, rtol=1e-9)
        assert np.isclose(est.var_left[j], le.var_hat, rtol=1e-9)
        assert np.isclose(est.s_hat[j], brute_s_hat(seq.events, t, 150.0), rtol=1e-9)
        assert np.isclose(est.s_hat[j], s_hat(seq, t, 150.0), rtol=1e-9)


# ---------------------------------------------------------------------------
# statistic processes


def _two_block_sequence():
    # left window (0,150] holds 10 events, right window (150,300] holds 20
    left = 15.0 * np.arange(1, 11)
    right = 150.0 + 5.0 * np.arange(1, 21)
    return EventSequence(np.concatenate([left, right]), 1000.0)


def test_D_symmetric_counts_give_zero():
    events = np.concatenate([50.0 + np.arange(10), 160.0 + np.arange(10)])
    seq = EventSequence(events, 1000.0)
    cfg = WindowConfig(1000.0, (150.0,), 150.0)
    d = D_process(seq, cfg, 150.0, 1, mu=1.0, sigma2=1.0)
    assert d.values[np.searchsorted(d.grid, 150.0)] == 0.0


def test_D_hand_value():
    seq = _two_block_sequence()
    cfg = WindowConfig(1000.0, (150.0,), 150.0)
    d = D_process(seq, cfg, 150.0, 1, mu=1.0, sigma2=1.0)
    j = np.searchsorted(d.grid, 150.0)
    assert np.isclose(d.values[j], 10.0 / math.sqrt(300.0), rtol=1e-12)
    with pytest.raises(ValueError):
        D_process(seq, cfg, 150.0, 1, mu=0.0, sigma2=1.0)


def test_D_unit_variance_under_null():
    # empirical variance of D at a fixed interior time over 1000 replicates
    spec = RenewalSpec.gamma(1, 1)
    cfg = WindowConfig(1000.0, (150.0,), 50.0)
    vals = []
    for r in range(1000):
        seq = simulate_renewal(spec, 1000.0, seed=40, stream=(r,))
        d = D_process(seq, cfg, 150.0, 1, mu=1.0, sigma2=1.0)
        vals.append(d.values[np.searchsorted(d.grid, 500.0)])
    assert abs(np.var(vals, ddof=1) - 1.0) < 0.1


def test_G_empty_sequence_all_invalid():
    seq = EventSequence(np.empty(0), 1000.0)
    cfg = WindowConfig(1000.0, (150.0,), 50.0)
    g = G_process(seq, cfg, 150.0, 1)
    assert not g.valid.any()
    assert np.all(g.values == 0.0)
    assert g.max_abs() == 0.0


def test_window_whose_mean_cube_underflows_contributes_nothing():
    # the left half of t = 1 has mean life time 2e-120, whose cube underflows
    # to 0, so it counts as a zero mean; the right half holds one event
    seq = EventSequence(np.array([1e-120, 2e-120, 4e-120, 7e-120, 2.0, 2.5, 3.0]), 4.0)
    est = window_estimate_series(seq, [1.0], 1.0)
    assert est.mean_left[0] == 2e-120 and est.var_left[0] > 0.0
    assert est.s_hat.tolist() == [0.0]
    g = G_process(seq, WindowConfig(4.0, (1.0,), 1.0), 1.0, 1)
    assert g.grid.tolist() == [1.0, 2.0, 3.0]
    assert not g.valid.any() and np.all(g.values == 0.0)


def test_G_numerator_identity_and_validity_mask():
    seq = simulate_renewal(RenewalSpec.gamma(1, 1), 1000.0, seed=41)
    cfg = WindowConfig(1000.0, (150.0,), 10.0)
    g = G_process(seq, cfg, 150.0, 1)
    d = D_process(seq, cfg, 150.0, 1, mu=1.0, sigma2=1.0)
    est = window_estimate_series(seq, cfg.grid(150.0), 150.0, 1)
    s_const = math.sqrt(300.0)
    # G*s_hat and D*s both recover the integer count difference exactly
    assert np.allclose(g.values * est.s_hat, est.count_diff, rtol=1e-12, atol=1e-9)
    assert np.allclose(d.values * s_const, est.count_diff, rtol=1e-12, atol=1e-9)
    assert np.array_equal(g.valid, est.s_hat > 0.0)
    assert np.all(np.isfinite(g.values))


def test_G_matches_D_when_params_equal_window_estimates():
    seq = simulate_renewal(RenewalSpec.gamma(1, 1), 1000.0, seed=42)
    cfg = WindowConfig(1000.0, (150.0,), 50.0)
    g = G_process(seq, cfg, 150.0, 1)
    j = np.searchsorted(g.grid, 500.0)
    shat = s_hat(seq, 500.0, 150.0)
    # choose (mu, sigma2) so the known scaling equals the estimate at t
    d = D_process(seq, cfg, 150.0, 1, mu=1.0, sigma2=shat**2 / 300.0)
    assert np.isclose(d.values[j], g.values[j], rtol=1e-12)


def test_G_variance_under_null():
    spec = RenewalSpec.gamma(1, 1)
    cfg = WindowConfig(1000.0, (150.0,), 50.0)
    vals = []
    for r in range(1000):
        seq = simulate_renewal(spec, 1000.0, seed=43, stream=(r,))
        g = G_process(seq, cfg, 150.0, 1)
        j = np.searchsorted(g.grid, 500.0)
        assert g.valid[j]
        vals.append(g.values[j])
    assert abs(np.var(vals, ddof=1) - 1.0) < 0.15


def test_Gamma_reduces_to_D_without_change():
    spec = RenewalSpec.gamma(1, 2)
    model = ChangePointModel(spec, spec, c=500.0, T=1000.0)
    seq = simulate_compound(model, seed=44)
    cfg = WindowConfig(1000.0, (150.0,), 10.0)
    gam = Gamma_process(seq, cfg, 150.0, 1, model)
    d = D_process(seq, cfg, 150.0, 1, mu=spec.mu, sigma2=spec.sigma2)
    assert np.allclose(gam.values, d.values, rtol=1e-12)


def test_Gamma_centers_at_change_point():
    model = ChangePointModel(RenewalSpec.gamma(1, 1), RenewalSpec.gamma(1, 20),
                             c=500.0, T=1000.0)
    seq = simulate_compound(model, seed=45)
    cfg = WindowConfig(1000.0, (150.0,), 50.0)
    gam = Gamma_process(seq, cfg, 150.0, 1, model)
    j = np.searchsorted(gam.grid, 500.0)
    diff = brute_count(seq.events, 500, 650) - brute_count(seq.events, 350, 500)
    assert np.isclose(gam.values[j], (diff - 2850.0) / math.sqrt(3150.0), rtol=1e-12)


def test_Gamma_zero_mean_at_change_point():
    model = ChangePointModel(RenewalSpec.gamma(1, 1), RenewalSpec.gamma(1, 20),
                             c=500.0, T=1000.0)
    cfg = WindowConfig(1000.0, (150.0,), 50.0)
    vals = []
    for r in range(1000):
        seq = simulate_compound(model, seed=46, stream=(r,))
        gam = Gamma_process(seq, cfg, 150.0, 1, model)
        vals.append(gam.values[np.searchsorted(gam.grid, 500.0)])
    assert abs(np.mean(vals)) < 0.1


def test_G_mean_traces_distorted_fin():
    # replicate average of G at probes follows distortion * fin shape
    model, h = DISTORTION_A, 150.0
    p = TheoryParams.from_model(model, h)
    cfg = WindowConfig(1000.0, (h,), 25.0)
    probes = np.array([425.0, 500.0, 575.0])
    cols = np.searchsorted(cfg.grid(h), probes)
    acc = np.zeros(3)
    n_reps = 600
    for r in range(n_reps):
        seq = simulate_compound(model, seed=47, stream=(r,))
        g = G_process(seq, cfg, h, 1)
        acc += g.values[cols]
    target = np.array([distortion(t, p) * shark_fin(t, p) for t in probes])
    assert np.all(np.abs(acc / n_reps - target) < 0.2)


# ---------------------------------------------------------------------------
# the statistic processes read their windows from one lattice lookup


def _processes_from_series(seq, cfg, h, n, model):
    """G, D and Gamma values (and G's mask) rebuilt from window_estimate_series."""
    grid = cfg.grid(h)
    est = window_estimate_series(seq, grid, h, n)
    valid = est.s_hat > 0.0
    g = np.where(valid, est.count_diff / np.where(valid, est.s_hat, 1.0), 0.0)
    d = est.count_diff / math.sqrt(2.0 * n * h)       # D at mu = sigma2 = 1
    out = {"G": g, "D": d, "valid": valid, "grid": grid}
    if model is not None:
        p = TheoryParams.from_model(model, h=h, n=n)
        out["Gamma"] = (est.count_diff - m_function(grid, p)) / s_function(grid, p)
    return out


def _assert_lattice_matches_series(seq, cfg, n, model=None):
    for h in cfg.h_set:
        want = _processes_from_series(seq, cfg, h, n, model)
        g = G_process(seq, cfg, h, n)
        d = D_process(seq, cfg, h, n, mu=1.0, sigma2=1.0)
        assert np.array_equal(g.grid, want["grid"])
        assert np.array_equal(g.values, want["G"]), h
        assert np.array_equal(g.valid, want["valid"]), h
        assert np.array_equal(d.values, want["D"]), h
        if model is not None:
            gam = Gamma_process(seq, cfg, h, n, model)
            assert np.array_equal(gam.values, want["Gamma"]), h


_PRESET_MODELS = {**presets.ORIENTATION_MODELS,
                  "distortion_a": presets.DISTORTION_A,
                  "distortion_b": presets.DISTORTION_B}


@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize("name", sorted(_PRESET_MODELS))
def test_processes_on_lattice_equal_window_estimate_series(name, n):
    # delta = 1 and delta = h/30 = 5 for h = 150; both grids share h = 50
    model = _PRESET_MODELS[name]
    seq = simulate_compound(model.with_scale(n), seed=60, stream=(n,))
    for step in (1.0, presets.DEFAULT_H / 30):
        cfg = WindowConfig(1000.0, (50.0, presets.DEFAULT_H), step)
        _assert_lattice_matches_series(seq, cfg, n, model)


@st.composite
def lattice_cases(draw):
    """A short lattice and a few events, some exactly on lattice nodes."""
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    size = draw(st.integers(2, 12))
    k = draw(st.integers(1, size // 2))
    n = draw(st.sampled_from([1, 3]))
    horizon = n * (size * step)
    on_nodes = draw(st.lists(st.integers(1, size), max_size=6))
    free = draw(st.lists(st.floats(0.0, horizon, exclude_min=True), max_size=6))
    events = np.unique(np.array([n * (j * step) for j in on_nodes] + free, dtype=float))
    cfg = WindowConfig(size * step, (k * step,), step)
    return EventSequence(events, horizon), cfg, n


@settings(max_examples=300, deadline=None)
@given(case=lattice_cases())
def test_processes_on_lattice_property(case):
    seq, cfg, n = case
    _assert_lattice_matches_series(seq, cfg, n)
    # the (a, b] edge rule: counts agree with the definition-level oracle
    h = cfg.h_set[0]
    d = D_process(seq, cfg, h, n, mu=1.0, sigma2=1.0)
    for t, value in zip(d.grid, d.values):
        right = brute_window_stats(seq.events, n * t, n * (t + h)).count
        left = brute_window_stats(seq.events, n * (t - h), n * t).count
        assert value * math.sqrt(2.0 * n * h) == pytest.approx(right - left, abs=1e-9)


def test_processes_refuse_a_horizon_shorter_than_n_T():
    seq = simulate_renewal(RenewalSpec.gamma(1, 1), 900.0, seed=61)
    cfg = WindowConfig(1000.0, (150.0,), 5.0)
    with pytest.raises(ValueError) as ref:
        window_estimate_series(seq, cfg.grid(150.0), 150.0, 1)
    assert "exceeds event horizon" in str(ref.value)
    for process in (lambda: G_process(seq, cfg, 150.0, 1),
                    lambda: D_process(seq, cfg, 150.0, 1, mu=1.0, sigma2=1.0),
                    lambda: Gamma_process(seq, cfg, 150.0, 1, presets.SHARK_WEST)):
        with pytest.raises(ValueError) as err:
            process()
        assert str(err.value) == str(ref.value)


# ---------------------------------------------------------------------------
# serialization


def test_series_csv_roundtrip(tmp_path):
    seq = simulate_renewal(RenewalSpec.gamma(1, 1), 1000.0, seed=48)
    cfg = WindowConfig(1000.0, (150.0,), 50.0)
    g = G_process(seq, cfg, 150.0, 1)
    path = tmp_path / "series.csv"
    write_series_csv(path, g)
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# h=150.0,n=1,delta=50.0", "t,value,valid"]
    t, value, valid = np.loadtxt(path, delimiter=",", skiprows=2, unpack=True)
    assert np.array_equal(t, g.grid)
    assert np.array_equal(value, g.values)
    assert np.array_equal(valid.astype(bool), g.valid) and set(valid) <= {0.0, 1.0}


def test_series_validation():
    with pytest.raises(ValueError):
        StatisticSeries(grid=np.array([1.0, 2.0]), values=np.array([np.nan, 0.0]),
                        valid=np.array([True, True]), h=1.0, n=1, grid_step=1.0)
    # invalid nodes may carry any placeholder value
    s = StatisticSeries(grid=np.array([1.0]), values=np.array([0.0]),
                        valid=np.array([False]), h=1.0, n=1, grid_step=1.0)
    assert s.max_abs() == 0.0


def test_series_copies_writable_arrays_and_shares_read_only_ones():
    grid, values, valid = np.array([1.0, 2.0]), np.array([0.5, -1.0]), np.array([True, True])
    s = StatisticSeries(grid=grid, values=values, valid=valid, h=1.0, n=1, grid_step=1.0)
    for mine, held in ((grid, s.grid), (values, s.values), (valid, s.valid)):
        assert mine.flags.writeable and held is not mine and not held.flags.writeable
    grid[0], values[0], valid[0] = 9.0, 9.0, False
    assert s.grid.tolist() == [1.0, 2.0] and s.values.tolist() == [0.5, -1.0]
    assert s.valid.tolist() == [True, True]
    again = StatisticSeries(grid=s.grid, values=s.values, valid=s.valid, h=1.0, n=1,
                            grid_step=1.0)
    assert again.grid is s.grid and again.values is s.values and again.valid is s.valid
