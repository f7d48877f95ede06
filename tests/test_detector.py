import contextlib
import hashlib
import json
import math
import multiprocessing
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import null_max_quantile, null_max_tail
from sharkfin import detector
from sharkfin.detector import (TABLE_VERSION, ThresholdTable, _h0_block, detect,
                               estimate_change_points, merge_across_windows,
                               simulate_threshold, threshold_cache_key)
from sharkfin import presets
from sharkfin.presets import SHARK_WEST
from sharkfin.renewal import (ConfigurationError, EventSequence, RenewalSpec,
                              WindowConfig, simulate_compound, simulate_renewal,
                              substream)
from sharkfin.series import StatisticSeries
from sharkfin.theory import TheoryParams, brownian_blocks, simulate_L_paths


def make_series(grid, values, valid=None, h=150.0, step=None):
    grid = np.asarray(grid, dtype=float)
    if valid is None:
        valid = np.ones(grid.size, dtype=bool)
    step = step if step is not None else float(grid[1] - grid[0])
    return StatisticSeries(grid=grid, values=np.asarray(values, dtype=float),
                           valid=np.asarray(valid, dtype=bool), h=h, n=1,
                           grid_step=step)


# ---------------------------------------------------------------------------
# threshold simulation


def test_threshold_alpha_monotonicity():
    strict = simulate_threshold(1000.0, [150.0], 5.0, 0.01, 2000, seed=9)
    loose = simulate_threshold(1000.0, [150.0], 5.0, 0.05, 2000, seed=9)
    assert strict.Q >= loose.Q


def test_threshold_multi_window_dominates_single():
    single = simulate_threshold(1000.0, [150.0], 5.0, 0.05, 2000, seed=10)
    multi = simulate_threshold(1000.0, [100.0, 150.0, 200.0], 5.0, 0.05, 2000, seed=10)
    assert multi.Q >= single.Q
    # shared Brownian path per replicate: the per-window quantile of the
    # common window must coincide with the single-window run
    assert multi.per_h_max_quantiles[150.0] == single.per_h_max_quantiles[150.0]


def test_threshold_reproducible_and_bracketed():
    a = simulate_threshold(1000.0, [150.0], 3.0, 0.05, 10000, seed=42)
    b = simulate_threshold(1000.0, [150.0], 3.0, 0.05, 10000, seed=42)
    assert a.Q == b.Q
    assert 2.0 <= a.Q <= 5.0


@pytest.mark.parametrize("h_set, step", [
    ([150.0], 5.0),
    # many row chunks per block on a fine lattice
    ([50.0, 100.0, 150.0], 1.0),
], ids=["single_window", "multi_window_fine"])
def test_threshold_workers_do_not_change_result(h_set, step):
    # three blocks, so three workers each get one; None is one per CPU
    a = simulate_threshold(1000.0, h_set, step, 0.05, 2100, seed=11, workers=1)
    for workers in (2, 3, None):
        b = simulate_threshold(1000.0, h_set, step, 0.05, 2100, seed=11, workers=workers)
        assert a == b, f"workers={workers}"
        assert multiprocessing.active_children() == []


def test_threshold_golden_values():
    # pins the seeded stream; the 1024 + 476 path blocks cross chunk boundaries
    table = simulate_threshold(1000.0, [50.0, 100.0, 150.0], 1.0, 0.05, 1500, seed=5)
    assert table.Q == 3.8139341643069167
    assert table.per_h_max_quantiles == {50.0: 3.7188528441920297,
                                         100.0: 3.4850144817344573,
                                         150.0: 3.3209650430533846}
    # the table file's bytes: key order, quantile key text and float repr
    assert hashlib.sha256(table.to_json().encode()).hexdigest() == (
        "f12cf4cc71ffd0f554e8d6505a74736d7cf5bfeb0c1e424ea7ab77215bb62323")


def test_threshold_per_h_quantiles_match_closed_form():
    """The law of the kernel's per-window maxima, not its bytes.

    Band, fixed before the first run: 4 standard errors of an empirical
    quantile, sqrt(alpha (1 - alpha) / n_sims) over the closed-form density
    of max |L| at the quantile, plus 0.015 for the approximation itself
    (it sat within -0.006 .. +0.011 of quantiles from 10^5 paths).
    """
    T, delta, alpha, n_sims = 1000.0, 1.0, 0.05, 20000
    table = simulate_threshold(T, (50.0, 150.0), delta, alpha, n_sims, seed=2014)
    for h, q in table.per_h_max_quantiles.items():
        u = null_max_quantile(T, h, delta, alpha)
        density = (null_max_tail(u - 1e-4, T, h, delta)
                   - null_max_tail(u + 1e-4, T, h, delta)) / 2e-4
        se = math.sqrt(alpha * (1.0 - alpha) / n_sims) / density
        assert abs(q - u) <= 4.0 * se + 0.015, (h, q, u, se)


def _brownian_paths(rng, n_paths, n_steps, step):
    """Oracle: the whole (n_paths, n_steps+1) path matrix in one draw."""
    incs = rng.standard_normal((n_paths, n_steps)) * math.sqrt(step)
    w = np.empty((n_paths, n_steps + 1))
    w[:, 0] = 0.0
    np.cumsum(incs, axis=1, out=w[:, 1:])
    return w


def _h0_block_oracle(cfg, seed, block, size):
    """Oracle: per-window maxima from the full matrix and index gathers."""
    w = _brownian_paths(substream(seed, block), size, cfg.lattice_size(), cfg.grid_step)
    out = np.empty((size, len(cfg.h_set)))
    for i, h in enumerate(cfg.h_set):
        jg = cfg.grid_indices(h)
        k = cfg.lattice_index(h, "window size")
        paths = (w[:, jg + k] - 2.0 * w[:, jg] + w[:, jg - k]) / math.sqrt(2.0 * h)
        out[:, i] = np.max(np.abs(paths), axis=1)
    return out


@pytest.mark.parametrize("chunks", [0.5, 1.0, 2.6])
def test_brownian_kernel_matches_full_matrix_oracle(chunks):
    n_steps = 1000
    chunk_rows = len(next(brownian_blocks(substream(1), 10**6, n_steps, 1.0))[1])
    assert 8 * (n_steps + 1) * chunk_rows <= 2**19
    n_paths = max(1, int(chunks * chunk_rows))

    expect = _brownian_paths(substream(4, 2), n_paths, n_steps, 0.5)
    got = np.empty_like(expect)
    covered = 0
    for rows, w, spare in brownian_blocks(substream(4, 2), n_paths, n_steps, 0.5):
        assert len(w) <= chunk_rows and spare.shape == (len(w), n_steps)
        got[rows] = w
        covered += len(w)
    assert covered == n_paths
    assert np.array_equal(got, expect)

    args = (WindowConfig(1000.0, (50.0, 100.0, 150.0), 1.0), 8, 3, n_paths)
    assert np.array_equal(_h0_block(*args), _h0_block_oracle(*args))


@pytest.mark.parametrize("chunks", [0.5, 1.0, 2.6, 3.4])
def test_brownian_kernel_lends_a_buffer_no_draw_writes(chunks):
    # 3.4 chunks reuse the first of the three increment buffers; _h0_block
    # computes its second differences in the lent buffer
    n_steps = 1000
    chunk_rows = len(next(brownian_blocks(substream(1), 10**6, n_steps, 1.0))[1])
    n_paths = max(1, int(chunks * chunk_rows))
    expect = _brownian_paths(substream(4, 7), n_paths, n_steps, 0.5)
    got = np.empty_like(expect)
    for rows, w, spare in brownian_blocks(substream(4, 7), n_paths, n_steps, 0.5):
        spare.fill(np.nan)
        got[rows] = w
    assert np.array_equal(got, expect)

    args = (WindowConfig(1000.0, (50.0, 100.0, 150.0), 1.0), 8, 4, n_paths)
    assert np.array_equal(_h0_block(*args), _h0_block_oracle(*args))


def test_brownian_kernel_leaves_the_state_of_one_draw():
    # a short switch interval makes the two threads interleave finely
    n_steps = 1000
    rng, ref = substream(4, 3), substream(4, 3)
    n_paths = 3 * len(next(brownian_blocks(substream(1), 10**6, n_steps, 1.0))[1]) + 7
    expect = _brownian_paths(ref, n_paths, n_steps, 0.5)
    got = np.empty_like(expect)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rows, w, _ in brownian_blocks(rng, n_paths, n_steps, 0.5):
            got[rows] = w
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, expect)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_brownian_kernel_stops_its_helper_thread_on_early_exit():
    n_steps = 1000
    baseline = threading.active_count()
    rng, ref = substream(4, 4), substream(4, 4)
    blocks = brownian_blocks(rng, 10**4, n_steps, 1.0)
    rows = len(next(blocks)[1])
    assert threading.active_count() == baseline + 1
    blocks.close()
    assert threading.active_count() == baseline
    # the helper had drawn two chunks ahead of the one yielded
    ref.standard_normal((3 * rows, n_steps))
    assert rng.bit_generator.state == ref.bit_generator.state

    with pytest.raises(KeyError):
        for rows, w, _ in brownian_blocks(substream(4, 5), 10**4, n_steps, 1.0):
            if rows.start > 0:
                raise KeyError(rows)
    assert threading.active_count() == baseline


def test_brownian_kernel_finishes_its_queued_draws_when_the_caller_raises():
    # on its first chunk the caller raises while the draws of chunks 1 and 2
    # are queued; leaving the generator waits for both and stops the helper
    n_steps = 1000
    baseline = threading.active_count()
    rng, ref = substream(4, 6), substream(4, 6)
    with pytest.raises(KeyError):
        for rows, w, _ in brownian_blocks(rng, 10**4, n_steps, 1.0):
            assert threading.active_count() == baseline + 1
            raise KeyError(rows)
    assert threading.active_count() == baseline
    ref.standard_normal((3 * len(w), n_steps))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("workers, n_sims, pools", [
    (8, 1000, [1]), (8, 2100, [3]), (2, 5000, [2]), (1, 5000, [1])])
def test_threshold_pool_gets_no_more_workers_than_blocks(workers, n_sims, pools,
                                                          monkeypatch):
    # the sizes asked of the shared pool; process_map(1) opens none
    sizes = []

    @contextlib.contextmanager
    def recording_map(size):
        sizes.append(size)
        yield map

    monkeypatch.setattr(detector, "process_map", recording_map)
    table = simulate_threshold(1000.0, [150.0], 5.0, 0.05, n_sims, seed=3,
                               workers=workers)
    assert sizes == pools
    assert table == simulate_threshold(1000.0, [150.0], 5.0, 0.05, n_sims, seed=3,
                                       workers=1)


@pytest.mark.parametrize("workers", [0, -3])
def test_threshold_refuses_non_positive_workers(workers):
    with pytest.raises(ConfigurationError, match="worker"):
        simulate_threshold(1000.0, [150.0], 5.0, 0.05, 1000, seed=3, workers=workers)


def test_threshold_block_memory_is_bounded():
    # the full-matrix block held about 385 MB here
    cfg = WindowConfig(1e4, (50.0, 100.0, 150.0, 200.0), 1.0)
    tracemalloc.start()
    try:
        _h0_block(cfg, 1, 0, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_threshold_block_holds_four_half_mebibyte_buffers():
    # three increment buffers and one path buffer of 6 x 10001 floats:
    # measured 1.88 MiB, where two 1 MiB increment buffers, a 1 MiB path
    # buffer and a 1 MiB buffer of second differences held 4.01 MiB
    _h0_block(WindowConfig(1000.0, (50.0,), 1.0), 1, 0, 8)  # first-call imports
    cfg = WindowConfig(1e4, (50.0, 100.0, 150.0, 200.0), 1.0)
    tracemalloc.start()
    try:
        _h0_block(cfg, 1, 0, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * 2**20


@pytest.mark.parametrize("name", ["SHARK_WEST", "SHARK_EAST", "SHARK_WEST_INVERTED",
                                  "SHARK_EAST_INVERTED", "DISTORTION_A", "DISTORTION_B"])
def test_detect_memory_does_not_grow_with_the_events(name):
    # 0.48-0.80 million events at n = 64 (3.7-6.1 MB); the squared life-time
    # prefix is summed in fixed-size blocks, so detect holds about 0.27 MiB
    # where one prefix of N + 1 floats held as much as the events
    h_set = (50.0, 100.0, 150.0)
    table = ThresholdTable(alpha=0.05, h_set=h_set, T=1000.0, grid_step=5.0,
                           n_sims=1000, seed=0, Q=3.0,
                           per_h_max_quantiles={h: 3.0 for h in h_set})
    model = getattr(presets, name)
    detect(simulate_compound(model, seed=0), 1000.0, 1, h_set, table)  # first-call allocations
    seq = simulate_compound(model.with_scale(64), seed=11)
    tracemalloc.start()
    try:
        detect(seq, 1000.0, 64, h_set, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_threshold_validation():
    with pytest.raises(ConfigurationError):
        simulate_threshold(1000.0, [150.0], 5.0, 1.5, 1000, seed=1)
    with pytest.raises(ConfigurationError):
        simulate_threshold(1000.0, [150.0], 5.0, 0.05, 50, seed=1)
    with pytest.raises(ValueError):
        simulate_threshold(1000.0, [600.0], 5.0, 0.05, 1000, seed=1)


def test_threshold_table_roundtrip(tmp_path):
    table = simulate_threshold(1000.0, [100.0, 150.0], 5.0, 0.05, 500, seed=12)
    path = tmp_path / "table.json"
    table.save(path)
    back = ThresholdTable.load(path)
    assert back == table
    assert back.cache_key() == table.cache_key()
    assert threshold_cache_key(1000.0, [150.0, 100.0], 5.0, 0.05, 500, 12) \
        == table.cache_key()


def test_threshold_table_version(monkeypatch):
    table = simulate_threshold(1000.0, [150.0], 5.0, 0.05, 500, seed=12)
    assert json.loads(table.to_json())["version"] == TABLE_VERSION
    # the key changes with the version, so a file cached by another version
    # is never found
    key = table.cache_key()
    monkeypatch.setattr(detector, "TABLE_VERSION", TABLE_VERSION + 1)
    assert table.cache_key() != key


@pytest.mark.parametrize("version, shown", [(None, "None"), (TABLE_VERSION + 1,
                                                             repr(TABLE_VERSION + 1))],
                         ids=["missing", "other"])
def test_threshold_table_load_rejects_other_version(tmp_path, version, shown):
    table = simulate_threshold(1000.0, [150.0], 5.0, 0.05, 500, seed=12)
    d = json.loads(table.to_json())
    if version is None:
        del d["version"]
    else:
        d["version"] = version
    path = tmp_path / "table.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ConfigurationError) as err:
        ThresholdTable.load(path)
    assert str(path) in str(err.value)
    assert f"version must be {TABLE_VERSION}, got {shown}" in str(err.value)


@pytest.mark.parametrize("field, value, message", [
    ("Q", float("nan"), "Q must be finite"),
    ("alpha", 1.5, "alpha must lie in (0, 1)"),
    ("n_sims", 50, "n_sims must be at least 100"),
    ("h_set", [], "h_set must not be empty"),
    ("per_h_max_quantiles", {"100.0": 3.0}, "differ from h_set"),
    ("per_h_max_quantiles", {"100.0": 3.0, "150.0": float("inf")}, "finite"),
    ("Q", None, "'Q'"),
    ("T", -1000.0, "T must be finite and positive, got -1000.0"),
    ("T", float("inf"), "T must be finite and positive, got inf"),
    ("grid_step", 0.0, "grid_step must be finite and positive, got 0.0"),
    ("grid_step", -5.0, "grid_step must be finite and positive, got -5.0"),
    ("grid_step", float("nan"), "grid_step must be finite and positive, got nan"),
    ("grid_step", 1e309, "grid_step must be finite and positive, got inf"),
])
def test_threshold_table_load_rejects_unusable_fields(tmp_path, field, value,
                                                      message):
    table = simulate_threshold(1000.0, [100.0, 150.0], 5.0, 0.05, 500, seed=12)
    d = json.loads(table.to_json())
    d[field] = value
    path = tmp_path / "table.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ConfigurationError) as err:
        ThresholdTable.load(path)
    assert str(path) in str(err.value) and message in str(err.value)


# T and h lie within the alignment tolerance below 1000 and 150 steps: the
# lattice ends at node 999, and the grid of h must end at node 849
EDGE_T, EDGE_H = 999.99999995, 149.9999999


def test_windows_at_the_alignment_tolerance_end_on_the_lattice():
    cfg = WindowConfig(EDGE_T, (EDGE_H,), 1.0)
    assert cfg.lattice_size() == 999 and cfg.grid_indices(EDGE_H)[-1] == 849
    table = simulate_threshold(EDGE_T, (EDGE_H,), 1.0, 0.05, 200, seed=3, workers=1)
    assert math.isfinite(table.Q)
    assert np.array_equal(_h0_block(cfg, 3, 0, 8), _h0_block_oracle(cfg, 3, 0, 8))
    p = TheoryParams(1.0, 0.5, 1.0, 0.25, c=500.0, T=EDGE_T, h=EDGE_H)
    grid, paths = simulate_L_paths(p, 1.0, seed=3, n_paths=4)
    assert np.array_equal(grid, cfg.grid(EDGE_H)) and paths.shape == (4, grid.size)
    assert np.isfinite(paths).all()


def test_detect_caches_one_lattice_record_for_all_windows():
    h_set = (50.0, 100.0, EDGE_H, 200.0)
    table = ThresholdTable(alpha=0.05, h_set=h_set, T=EDGE_T, grid_step=1.0,
                           n_sims=1000, seed=0, Q=3.0,
                           per_h_max_quantiles={h: 3.0 for h in h_set})
    seq = simulate_renewal(RenewalSpec.gamma(2, 2), EDGE_T, seed=5)
    res = detect(seq, EDGE_T, 1, h_set, table)
    assert len(res.per_h_series) == 4
    assert list(seq._lattice_cache) == [(1.0, 999, 1)]


# ---------------------------------------------------------------------------
# successive argmax estimation


def test_estimate_two_separated_peaks():
    grid = np.arange(0.0, 1001.0, 10.0)
    values = np.zeros(grid.size)
    values[np.searchsorted(grid, 300.0)] = 10.0
    values[np.searchsorted(grid, 700.0)] = -8.0
    found = estimate_change_points(make_series(grid, values), Q=3.0, h=150.0)
    assert found == [300.0, 700.0]


def test_estimate_excludes_nearby_secondary_peak():
    grid = np.arange(0.0, 1001.0, 10.0)
    values = np.zeros(grid.size)
    values[np.searchsorted(grid, 300.0)] = 10.0
    values[np.searchsorted(grid, 380.0)] = 8.0     # within h of the first
    found = estimate_change_points(make_series(grid, values), Q=3.0, h=150.0)
    assert found == [300.0]


def test_estimate_exclusion_interval_is_open():
    grid = np.arange(0.0, 1001.0, 10.0)
    values = np.zeros(grid.size)
    values[np.searchsorted(grid, 300.0)] = 10.0
    values[np.searchsorted(grid, 450.0)] = 8.0     # exactly h away: kept
    found = estimate_change_points(make_series(grid, values), Q=3.0, h=150.0)
    assert found == [300.0, 450.0]


def test_estimate_nothing_above_threshold():
    grid = np.arange(0.0, 1001.0, 10.0)
    found = estimate_change_points(make_series(grid, np.ones(grid.size)),
                                   Q=3.0, h=150.0)
    assert found == []


def test_estimate_ignores_invalid_nodes():
    grid = np.arange(0.0, 1001.0, 10.0)
    values = np.zeros(grid.size)
    values[5] = 50.0
    valid = np.ones(grid.size, dtype=bool)
    valid[5] = False
    found = estimate_change_points(make_series(grid, values, valid), Q=3.0, h=150.0)
    assert found == []


def test_estimates_pairwise_separated_property():
    rng = np.random.default_rng(3)
    grid = np.arange(0.0, 2001.0, 5.0)
    for _ in range(10):
        values = rng.normal(0, 3, grid.size)
        found = estimate_change_points(make_series(grid, values), Q=2.0, h=100.0)
        gaps = np.diff(found)
        assert np.all(gaps >= 100.0)


# Grid steps and window sizes below are multiples of 1/4, so grid times,
# t* +- h and differences of grid times are all exact.
@st.composite
def statistic_series(draw):
    step = draw(st.sampled_from([0.25, 1.0, 5.0]))
    size = draw(st.integers(1, 120))
    grid = draw(st.integers(0, 40)) * step + np.arange(size) * step
    values = np.array(draw(st.lists(
        st.floats(-10.0, 10.0, allow_nan=False), min_size=size, max_size=size)))
    valid = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    return make_series(grid, values, valid, step=step)


@settings(max_examples=200, deadline=None)
@given(series=statistic_series(), h_steps=st.integers(1, 30),
       Q=st.floats(0.0, 8.0))
def test_estimates_property(series, h_steps, Q):
    h = h_steps * series.grid_step
    found = estimate_change_points(series, Q, h)
    assert found == sorted(found)
    assert all(b - a >= h for a, b in zip(found, found[1:]))
    for t in found:
        (idx,) = np.flatnonzero(series.grid == t)
        assert series.valid[idx] and abs(series.values[idx]) > Q
    # the search stops only when every valid node above Q is retired
    for t, v, ok in zip(series.grid, series.values, series.valid):
        if ok and abs(v) > Q:
            assert any(abs(t - s) < h for s in found)


@st.composite
def per_window_estimates(draw):
    """Estimates of up to four window sizes, each list at least h apart,
    as `estimate_change_points` returns them."""
    hs = draw(st.lists(st.integers(1, 200), min_size=1, max_size=4, unique=True))
    out = {}
    for h in hs:
        gaps = draw(st.lists(st.integers(0, 300), max_size=8))
        start = draw(st.integers(0, 500))
        out[float(h)] = [float(start + i * h + sum(gaps[:i + 1]))
                         for i in range(len(gaps))]
    return out


@settings(max_examples=300, deadline=None)
@given(per_h=per_window_estimates())
def test_merge_property(per_h):
    merged = merge_across_windows(per_h)
    assert merged == sorted(merged)
    for i, (a, ha) in enumerate(merged):
        assert a in per_h[ha]
        for b, hb in merged[i + 1:]:
            assert abs(a - b) >= min(ha, hb)
    finest = min(per_h)
    assert [t for t, h in merged if h == finest] == per_h[finest]


# ---------------------------------------------------------------------------
# merging across window sizes


def test_merge_single_window_is_identity():
    assert merge_across_windows({150.0: [200.0, 600.0]}) \
        == [(200.0, 150.0), (600.0, 150.0)]


def test_merge_prefers_smaller_window():
    merged = merge_across_windows({100.0: [500.0], 200.0: [510.0]})
    assert merged == [(500.0, 100.0)]


def test_merge_disjoint_union_sorted():
    merged = merge_across_windows({100.0: [700.0], 200.0: [300.0]})
    assert merged == [(300.0, 200.0), (700.0, 100.0)]


# ---------------------------------------------------------------------------
# detection


@pytest.fixture(scope="module")
def table_150():
    return simulate_threshold(1000.0, [150.0], 5.0, 0.05, 4000, seed=20)


def test_detect_empty_sequence(table_150):
    empty = EventSequence(np.empty(0), 1000.0)
    res = detect(empty, 1000.0, 1, [150.0], table_150)
    assert not res.reject
    assert res.global_max == 0.0
    assert res.change_points == ()


def test_detect_mismatched_table(table_150):
    seq = simulate_renewal(RenewalSpec.gamma(1, 1), 1000.0, seed=21)
    with pytest.raises(ConfigurationError):
        detect(seq, 1000.0, 1, [100.0], table_150)
    with pytest.raises(ConfigurationError):
        detect(seq, 500.0, 1, [150.0], table_150)
    with pytest.raises(ConfigurationError):
        detect(seq, 1000.0, 2, [150.0], table_150)   # horizon != n*T


def test_detect_deterministic(table_150):
    seq = simulate_compound(SHARK_WEST, seed=22)
    r1 = detect(seq, 1000.0, 1, [150.0], table_150)
    r2 = detect(seq, 1000.0, 1, [150.0], table_150)
    assert r1.reject == r2.reject
    assert r1.global_max == r2.global_max
    assert r1.change_points == r2.change_points
    assert np.array_equal(r1.per_h_series[150.0].values,
                          r2.per_h_series[150.0].values)


def test_detect_strong_change(table_150):
    seq = simulate_compound(SHARK_WEST, seed=23)
    res = detect(seq, 1000.0, 1, [150.0], table_150)
    assert res.reject
    assert res.global_max > res.Q
    primary = max(res.change_points, key=lambda cp: abs(cp.value))
    assert abs(primary.location - 500.0) <= 30.0
    assert abs(primary.value) == pytest.approx(res.global_max)


def test_detect_level_smoke(table_150):
    spec = RenewalSpec.gamma(1, 1)
    rejects = sum(
        detect(simulate_renewal(spec, 1000.0, seed=24, stream=(r,)),
               1000.0, 1, [150.0], table_150).reject
        for r in range(200))
    assert 0.0 <= rejects / 200 <= 0.12


def test_detect_json_dict(table_150):
    seq = simulate_compound(SHARK_WEST, seed=25)
    res = detect(seq, 1000.0, 1, [150.0], table_150)
    d = res.to_json_dict({150.0: "G_h150.csv"})
    assert d["reject"] is True
    assert d["series"] == {"150.0": "G_h150.csv"}
    assert all(set(cp) == {"location", "h", "value"} for cp in d["change_points"])


# The power-study mix: null gamma(1,1), SHARK_WEST, SHARK_EAST and
# DISTORTION_A, each at n = 1 and n = 16, on T = 1000 with four windows at
# delta = 1 against a 10^4-path table; replicate j draws substream (j, 1)
# (null) or (j,) (change models) of seed 1.
POWER_H = (50.0, 100.0, 150.0, 200.0)
POWER_MIX = [(model, n) for model in (None, presets.SHARK_WEST, presets.SHARK_EAST,
                                      presets.DISTORTION_A) for n in (1, 16)]


def _power_replicate(j, model, n):
    if model is None:
        return simulate_renewal(RenewalSpec.gamma(1, 1), n * 1000.0, 1, stream=(j, 1))
    return simulate_compound(model.with_scale(n), 1, stream=(j,))


@pytest.fixture(scope="module")
def power_table():
    return simulate_threshold(1000.0, POWER_H, 1.0, 0.05, 10_000, seed=1)


# sha256 over the mix of every G series' values and valid bytes (ascending
# h; the benchmark's power_study `G_series` hash at seed 1), and of each
# DetectionResult.to_json_dict() as sorted-key JSON.  Like the lab pins they
# depend on numpy's generator streams.
DETECT_G_SHA256 = "3ebfe3b2de4d0ffa92e92d67a1e924c345be8a86570efd083e8e0a572a3d4787"
DETECT_RESULT_SHA256 = "4ccb230d826051bda45e657884165773ff301641690332454793734e47365477"


def test_detect_power_mix_is_pinned(power_table):
    g_hash, result_hash = hashlib.sha256(), hashlib.sha256()
    for j, (model, n) in enumerate(POWER_MIX):
        res = detect(_power_replicate(j, model, n), 1000.0, n, POWER_H, power_table)
        for h in sorted(res.per_h_series):
            series = res.per_h_series[h]
            g_hash.update(series.values.tobytes() + series.valid.tobytes())
        result_hash.update(json.dumps(res.to_json_dict(), sort_keys=True).encode())
    assert g_hash.hexdigest() == DETECT_G_SHA256
    assert result_hash.hexdigest() == DETECT_RESULT_SHA256


def test_detect_looks_events_up_once_for_all_windows(power_table, monkeypatch):
    seq = _power_replicate(3, presets.SHARK_WEST, 16)
    searches = []
    search = np.searchsorted

    def spy(a, v, *args, **kwargs):
        if a is seq.events:
            searches.append(np.size(v))
        return search(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    res = detect(seq, 1000.0, 16, POWER_H, power_table)
    assert res.reject and len(res.per_h_series) == 4
    assert searches == [1001]             # one lookup over the lattice 0..T
