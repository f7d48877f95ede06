"""Property tests of the vectorised window estimators.

`window_estimate_series` works with partial sums over the whole sequence
(event times for the life-time sums, the squared life-time prefix for the
sums of squares); the definition-level oracles in `oracles.py`
sum the life times of one window directly.  Both must agree on every
count exactly and on every estimate up to the rounding error of the
prefix sums, which the tolerances below bound from the data.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_s_hat, brute_window_stats, square_prefix
from sharkfin.detector import ThresholdTable, detect
from sharkfin.filtered import window_estimate_series
from sharkfin.presets import SHARK_EAST, SHARK_WEST
from sharkfin.renewal import (EventSequence, RenewalSpec, _BLOCK, _enforce_strict_increase,
                              simulate_compound, simulate_renewal, substream)

EPS = np.finfo(float).eps
T = 12.0
STEP = 0.25   # dyadic, so grid nodes and window edges n*(t +- h) are exact


@st.composite
def sequences(draw):
    """Event sequences on (0, n*T] mixing a gamma renewal sample (shape 1/20,
    1 or 20; from dense to so sparse that windows hold 0, 1 or 2 events)
    with events placed exactly on grid-node multiples, i.e. on window edges."""
    n = draw(st.sampled_from([1, 2, 3]))
    h = draw(st.sampled_from([0.5, 1.0, 2.0, 3.75]))
    shape = draw(st.sampled_from([1 / 20, 1.0, 20.0]))
    mean_life = n * draw(st.sampled_from([0.02, 0.3, 3.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    horizon = n * T
    sample = simulate_renewal(RenewalSpec.gamma(shape, shape / mean_life),
                              horizon, seed).events
    nodes = np.arange(1, int(T / STEP) + 1) * STEP
    on_edges = n * nodes[draw(st.lists(st.integers(0, nodes.size - 1),
                                       max_size=12, unique=True))]
    events = np.union1d(sample, on_edges)
    return EventSequence(events, horizon), h, n


def estimate_tolerances(seq, lo, hi):
    """Rounding bounds of one window half with events (lo, hi] by count index.

    The mean telescopes to one difference of event times in the vectorised
    path and is a sum of cnt-1 positive life times in the oracle, so
    the two agree to about cnt ulps.  The vectorised sum of squares is a
    difference of two prefix sums over up to N squared life times, so its
    error scales with N ulps of the prefix at the window's right end.
    """
    cnt = hi - lo
    m_rtol = 4.0 * (cnt + 2) * EPS
    prefix = square_prefix(seq.events)
    v_atol = 16.0 * len(seq) * EPS * prefix[hi] / max(cnt - 2, 1)
    return m_rtol, v_atol


def check_against_oracle(seq, h, n):
    grid = np.arange(h, T - h + STEP / 2, STEP)
    est = window_estimate_series(seq, grid, h, n)
    for j, t in enumerate(grid):
        term_gap = 0.0
        for side, ws, count, mean, var, (a, b) in (
                ("right", brute_window_stats(seq.events, n * t, n * (t + h)),
                 est.count_right[j], est.mean_right[j], est.var_right[j], (t, t + h)),
                ("left", brute_window_stats(seq.events, n * (t - h), n * t),
                 est.count_left[j], est.mean_left[j], est.var_left[j], (t - h, t))):
            lo, hi = np.searchsorted(seq.events, [n * a, n * b], side="right")
            assert count == ws.count == hi - lo, (side, t)
            m_rtol, v_atol = estimate_tolerances(seq, lo, hi)
            if ws.count <= 1:
                assert mean == ws.mean_hat == 0.0
            else:
                assert abs(mean - ws.mean_hat) <= m_rtol * ws.mean_hat, (side, t)
            if ws.count <= 2:
                assert var == ws.var_hat == 0.0
            else:
                assert abs(var - ws.var_hat) <= v_atol, (side, t)
            if ws.count > 2:
                # error of v/m^3 from the bounds on v and m
                term = ws.var_hat / ws.mean_hat**3
                term_gap += v_atol / ws.mean_hat**3 + term * (3.5 * m_rtol)
        ref = brute_s_hat(seq.events, t, h, n)
        assert abs(est.s_hat[j]**2 - ref**2) <= n * h * term_gap + 8 * EPS * ref**2, t


@settings(max_examples=60, deadline=None)
@given(case=sequences())
def test_vectorised_estimators_match_scalar_oracle(case):
    check_against_oracle(*case)


@pytest.mark.parametrize("events, h, n, counts", [
    # every event on a window edge; windows hold 0, 1 or 2 events
    ([1.0, 2.0, 4.0, 4.5, 9.0, 11.0], 1.0, 1, {0, 1, 2}),
    ([2.0, 4.0, 8.0, 9.0, 18.0], 1.0, 2, {0, 1, 2}),
    ([3.0, 3.25, 3.5, 6.0, 6.5, 7.0, 7.25], 0.5, 1, {0, 1, 2}),
    ([], 2.0, 1, {0}),
    ([5.0], 2.0, 1, {0, 1}),
])
def test_sparse_windows_on_edges_match_oracle(events, h, n, counts):
    seq = EventSequence(np.array(events, dtype=float), n * T)
    check_against_oracle(seq, h, n)
    est = window_estimate_series(seq, np.arange(h, T - h + STEP / 2, STEP), h, n)
    assert set(np.concatenate([est.count_left, est.count_right]).tolist()) == counts


# ---------------------------------------------------------------------------
# the squared life-time prefix and the lattice record


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(case=sequences(), data=st.data())
def test_square_prefix_is_bit_identical_to_per_call_expression(case, data):
    seq, _, _ = case
    expected = square_prefix(seq.events)
    assert same_bits(seq.square_prefix(np.arange(len(seq) + 1)), expected)
    # any counts in any order and shape, each read where it lies
    counts = np.array(data.draw(st.lists(st.integers(0, len(seq)), min_size=1,
                                         max_size=24)))
    got = seq.square_prefix(counts.reshape(-1, 1))
    assert same_bits(got, expected[counts].reshape(-1, 1))


@pytest.mark.parametrize("events", [[], [0.75], [0.75, 2.0], [1e-300, 1e-10, 3.0]])
def test_square_prefix_small_sequences(events):
    seq = EventSequence(np.array(events, dtype=float), 5.0)
    assert same_bits(seq.square_prefix(np.arange(len(seq) + 1)), square_prefix(seq.events))
    assert seq.square_prefix(np.array([], dtype=int)).shape == (0,)


@pytest.mark.parametrize("counts", [[-1], [0, 4], [2, -3, 1]])
def test_square_prefix_refuses_counts_outside_the_sequence(counts):
    seq = EventSequence(np.array([0.75, 2.0, 2.5]), 5.0)
    with pytest.raises(ValueError, match="counts must lie in 0..3"):
        seq.square_prefix(np.array(counts))


@pytest.mark.parametrize("size", [0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_blocked_square_prefix_at_block_edges(size):
    # gamma(1/20) life times span many magnitudes, so the order of the
    # additions shows in the bits; their float ties are repaired
    events = _enforce_strict_increase(np.cumsum(substream(size, 3).gamma(1 / 20, 20.0, size)))
    seq = EventSequence(events, float(events[-1]) if size else 1.0)
    expected = square_prefix(events)
    assert same_bits(seq.square_prefix(np.arange(size + 1)[::-1]), expected[::-1])
    for k in {0, size, max(size - 1, 0), min(_BLOCK, size), min(_BLOCK + 1, size)}:
        assert same_bits(seq.square_prefix(np.array([k])), expected[[k]])


# west-32 has the size of the cli_pipeline input, about 336,000 events, where
# a cache of O(N) floats would hold 2.7 MB
@pytest.mark.parametrize("model, n", [(SHARK_WEST, 2), (SHARK_EAST, 2), (SHARK_WEST, 32)],
                         ids=["west", "east", "west-32"])
def test_detect_does_not_depend_on_prefix_cache(model, n):
    h_set = (50.0, 100.0, 150.0)
    table = ThresholdTable(alpha=0.05, h_set=h_set, T=1000.0, grid_step=5.0,
                           n_sims=1000, seed=0, Q=3.0,
                           per_h_max_quantiles={h: 3.0 for h in h_set})
    events = simulate_compound(model.with_scale(n), seed=11).events
    cold = EventSequence(events, n * 1000.0)
    warm = EventSequence(events, n * 1000.0)
    tracemalloc.start()
    try:
        detect(warm, 1000.0, n, h_set, table)  # the result is dropped at once
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # what warm holds now is its one lattice record, O(lattice) and not O(N)
    assert held < 2**20
    (lat,) = warm._lattice_cache.values()
    nodes = n * 5.0 * np.arange(201)  # the lattice 0, 5, ..., 1000 at scale n
    assert np.array_equal(lat.counts, np.searchsorted(events, nodes, side="right"))
    prefix = square_prefix(events)
    assert np.array_equal(lat.sq.view(np.int64), prefix[lat.counts].view(np.int64))
    assert np.array_equal(lat.sq_next.view(np.int64),
                          prefix[np.minimum(lat.counts + 1, len(warm))].view(np.int64))
    # detect on the cached record gives the bits of detect on a fresh sequence
    results = [detect(seq, 1000.0, n, h_set, table) for seq in (cold, warm)]
    assert results[1].global_max == results[0].global_max
    assert results[1].change_points == results[0].change_points
    for h in h_set:
        a, b = results[0].per_h_series[h], results[1].per_h_series[h]
        assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))
        assert np.array_equal(a.valid, b.valid)
    assert results[0].reject
