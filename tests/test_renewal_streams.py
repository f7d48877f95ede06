"""Stream contract and law of the event simulation.

The oracles below are the straightforward simulation: draw life times
from 0, accumulate them, bump ties with a per-tie loop, truncate.  Every
output except the second segment of a compound model must match them bit
for bit; that segment skips ahead exactly in law and is compared with the
full path by two-sample KS tests.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharkfin import renewal
from sharkfin.lab import ks_critical_2samp, ks_statistic_2samp
from sharkfin.presets import (DEFAULT_H, DISTORTION_A, DISTORTION_B, SHARK_EAST,
                              SHARK_EAST_INVERTED, SHARK_WEST, SHARK_WEST_INVERTED)
from sharkfin.renewal import (ChangePointModel, RenewalSpec, simulate_compound,
                              simulate_renewal, substream)


def oracle_strict_increase(times):
    if times.size < 2:
        return times
    while True:
        bad = np.flatnonzero(np.diff(times) <= 0.0)
        if bad.size == 0:
            return times
        times = times.copy() if not times.flags.writeable else times
        for i in bad:
            times[i + 1] = np.nextafter(times[i], np.inf)


def oracle_simulate_renewal(spec, horizon, seed, stream=()):
    rng = substream(seed, *stream)
    if horizon == 0:
        return np.empty(0)
    parts = []
    total = 0.0
    chunk = max(int(horizon / spec.mu * 1.25) + 16, 16)
    while total <= horizon:
        xi = spec.draw(rng, chunk)
        parts.append(xi)
        total += float(xi.sum())
        chunk = max(chunk // 4, 1024)
    times = oracle_strict_increase(np.cumsum(np.concatenate(parts)))
    return times[times <= horizon]


def oracle_simulate_compound(model, seed, stream=()):
    nc = model.n * model.c
    nT = model.n * model.T
    left = oracle_simulate_renewal(model.phi1, nc, seed, stream=(*stream, 1))
    right = oracle_simulate_renewal(model.phi2, nT, seed, stream=(*stream, 2))
    return oracle_strict_increase(np.concatenate([left, right[right > nc]]))


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def overstated_mean(shape, rate, factor=10.0):
    """Gamma(shape, rate) life times whose declared mean is `factor` times
    the true one, so every chunk sized from it covers too little time."""
    spec = RenewalSpec.gamma(shape, rate)
    object.__setattr__(spec, "mu", factor * spec.mu)
    return spec


# ---------------------------------------------------------------------------
# strictness pass


@pytest.mark.parametrize("seed", range(4))
def test_strict_increase_matches_loop_oracle(seed):
    # gamma(1/20) life times tie on about a quarter of the events near t ~ 1e4
    times = np.cumsum(substream(seed, 99).gamma(1 / 20, 20.0, 20_000))
    expected = oracle_strict_increase(times.copy())
    assert np.count_nonzero(np.diff(times) <= 0) > 1000
    assert same_bits(renewal._enforce_strict_increase(times.copy()), expected)


def up(x, k):
    """x moved up by k ulps."""
    for _ in range(k):
        x = np.nextafter(x, np.inf)
    return x


def test_strict_increase_tie_run_cascades_past_next_value():
    times = np.array([1.0, 1.0, 1.0, 1.0, up(1.0, 2), 2.0, 2.0])
    expected = np.array([1.0, up(1.0, 1), up(1.0, 2), up(1.0, 3), up(1.0, 4),
                         2.0, up(2.0, 1)])
    assert same_bits(oracle_strict_increase(times.copy()), expected)
    assert same_bits(renewal._enforce_strict_increase(times.copy()), expected)
    for short in (np.empty(0), np.array([3.0])):
        assert same_bits(renewal._enforce_strict_increase(short.copy()), short)


def spy_strictness_pass(monkeypatch):
    """Record the size of every strictness pass that runs."""
    calls, real = [], renewal._enforce_strict_increase
    monkeypatch.setattr(renewal, "_enforce_strict_increase",
                        lambda times: calls.append(times.size) or real(times))
    return calls


def test_tie_prone_draws_take_the_strictness_pass(monkeypatch):
    calls = spy_strictness_pass(monkeypatch)
    spec = RenewalSpec.gamma(1 / 20, 1 / 20)
    for seed in (0, 1):
        seq = simulate_renewal(spec, 2000.0, seed, stream=(4,))
        assert same_bits(seq.events, oracle_simulate_renewal(spec, 2000.0, seed, (4,)))
    assert len(calls) == 2
    # DISTORTION_A's gamma(1/4) second law draws life times below
    # spacing(n*T); its exponential first law does not
    simulate_compound(DISTORTION_A.with_scale(16), seed=1)
    assert len(calls) == 3


@pytest.mark.parametrize("name", ["gamma_1", "gamma_20"])
def test_skipped_strictness_pass_changes_no_bit(name, monkeypatch):
    spec = RENEWAL_SPECS[name]
    runs = [(lo, hi, seed) for lo, hi in ((0.0, 2000.0), (500.0, 620.0)) for seed in range(3)]
    calls = spy_strictness_pass(monkeypatch)
    skipped = [renewal._events_between(spec, substream(seed, 8), lo, hi)
               for lo, hi, seed in runs]
    assert calls == []
    monkeypatch.setattr(renewal, "_may_tie", lambda life_times, hi: True)
    for (lo, hi, seed), got in zip(runs, skipped):
        assert same_bits(got, renewal._events_between(spec, substream(seed, 8), lo, hi))
    assert len(calls) == len(runs)


def test_dirichlet_bridge_takes_the_strictness_pass(monkeypatch):
    # S_600 of gamma(20, 20) life times lies near 600 > lo, so the bridge runs
    monkeypatch.setattr(renewal, "_skip_count", lambda spec, lo: 600)
    calls = spy_strictness_pass(monkeypatch)
    spec = RENEWAL_SPECS["gamma_20"]
    assert renewal._events_between(spec, substream(2), 500.0, 620.0).size
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# bit-identical outputs


RENEWAL_SPECS = {
    "gamma_1/20": RenewalSpec.gamma(1 / 20, 1 / 20),
    "gamma_1/4": RenewalSpec.gamma(1 / 4, 1 / 4),
    "gamma_1": RenewalSpec.gamma(1, 1),
    "gamma_20": RenewalSpec.gamma(20, 20),
    "exponential": RenewalSpec.gamma(1.0, 2.0),
}


@pytest.mark.parametrize("rate", [0.5, 2.0, 20.0])
def test_exponential_draws_are_numpys_exponential(rate):
    # exponential life times are gamma(1, rate); numpy draws gamma of shape 1
    # through its exponential sampler, so the stream is that of rng.exponential
    for seed in (0, 1):
        for size in (1, 1000, 100_003):
            a, b = substream(seed, 5), substream(seed, 5)
            got = RenewalSpec.gamma(1.0, rate).draw(a, size)
            assert same_bits(got, b.exponential(1.0 / rate, size))
            assert a.random() == b.random()


@pytest.mark.parametrize("horizon", [0.5, 10.0, 2000.0])
@pytest.mark.parametrize("name", sorted(RENEWAL_SPECS))
def test_simulate_renewal_bit_identical_to_oracle(name, horizon):
    spec = RENEWAL_SPECS[name]
    for seed in (0, 1):
        seq = simulate_renewal(spec, horizon, seed, stream=(4,))
        assert same_bits(seq.events, oracle_simulate_renewal(spec, horizon, seed, (4,)))


def test_simulate_renewal_bit_identical_when_first_chunk_falls_short(monkeypatch):
    # the declared mean is 10x the true one, so the first chunk covers a tenth
    spec = overstated_mean(2.0, 2.0)
    sizes, draw = [], RenewalSpec.draw
    monkeypatch.setattr(RenewalSpec, "draw",
                        lambda self, rng, size: sizes.append(size) or draw(self, rng, size))
    seq = simulate_renewal(spec, 3000.0, seed=6)
    assert len(sizes) > 2
    assert same_bits(seq.events, oracle_simulate_renewal(spec, 3000.0, 6))


@pytest.mark.parametrize("model", [SHARK_WEST, SHARK_EAST, SHARK_WEST_INVERTED,
                                   DISTORTION_A, DISTORTION_B])
@pytest.mark.parametrize("n", [1, 4])
def test_compound_first_segment_bit_identical(model, n):
    model = model.with_scale(n)
    nc = model.n * model.c
    events = simulate_compound(model, seed=12, stream=(n,)).events
    expected = oracle_simulate_compound(model, seed=12, stream=(n,))
    assert same_bits(events[events <= nc], expected[expected <= nc])


def test_compound_change_at_horizon_bit_identical():
    model = ChangePointModel(RenewalSpec.gamma(1 / 20, 1 / 20), RenewalSpec.gamma(1, 20),
                             c=300.0, T=300.0, n=2)
    assert same_bits(simulate_compound(model, seed=8).events,
                     oracle_simulate_compound(model, seed=8))


def test_compound_without_skip_is_bit_identical():
    # shape 1/20 after c = 500: 500/mu lies less than 8 count sd above 0, so K = 0
    assert renewal._skip_count(SHARK_WEST_INVERTED.phi2, 500.0) == 0
    assert same_bits(simulate_compound(SHARK_WEST_INVERTED, seed=2).events,
                     oracle_simulate_compound(SHARK_WEST_INVERTED, seed=2))


# ---------------------------------------------------------------------------
# horizon cut: a model cut at T' gives the full run's events up to n*T'


def assert_cut_is_prefix(model, seed, stream=()):
    full = simulate_compound(model, seed, stream).events
    for T_cut in sorted({model.c, model.c + DEFAULT_H / 2, model.c + 1.5 * DEFAULT_H,
                         model.T}):
        T_cut = min(T_cut, model.T)
        cut = simulate_compound(replace(model, T=T_cut), seed, stream)
        assert cut.horizon == model.n * T_cut
        assert same_bits(cut.events, full[full <= model.n * T_cut])


@pytest.mark.parametrize("model", [SHARK_WEST, SHARK_EAST, SHARK_WEST_INVERTED,
                                   SHARK_EAST_INVERTED, DISTORTION_A, DISTORTION_B],
                         ids=["west", "east", "west_inverted", "east_inverted",
                              "distortion_a", "distortion_b"])
@pytest.mark.parametrize("n", [1, 4])
def test_horizon_cut_is_prefix_of_full_run(model, n):
    for seed in (0, 1):
        assert_cut_is_prefix(model.with_scale(n), seed, stream=(n, 5))


def test_horizon_cut_is_prefix_with_differing_chunk_sizes():
    # the second law overstates its mean 10x, so both runs draw many
    # chunks after the skip and their chunk sizes differ
    model = ChangePointModel(RenewalSpec.gamma(1, 1), overstated_mean(2.0, 20.0),
                             c=500.0, T=1000.0, n=2)
    for seed in range(2):
        assert_cut_is_prefix(model, seed)


def test_horizon_cut_is_prefix_without_skip():
    assert renewal._skip_count(SHARK_WEST_INVERTED.phi2, 500.0) == 0
    assert_cut_is_prefix(SHARK_WEST_INVERTED, seed=3)


# ---------------------------------------------------------------------------
# skip-ahead law


PHI2 = DISTORTION_A.phi2
LO, HI, H = 500.0, 620.0, 5.0
REPS = 300


def segment_summaries(spec, seed):
    """First event after LO minus LO, and the counts in (LO, LO + H] and (HI - H, HI]."""
    out = []
    for r in range(REPS):
        ev = renewal._events_between(spec, substream(seed, r), LO, HI)
        assert ev.size and ev[0] > LO and ev[-1] <= HI and np.all(np.diff(ev) > 0)
        out.append([ev[0] - LO, np.searchsorted(ev, LO + H, side="right"),
                    ev.size - np.searchsorted(ev, HI - H, side="right")])
    return np.array(out).T


@pytest.fixture(scope="module")
def full_path_summaries():
    # with K = 0 the segment draws every life time from 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(renewal, "_skip_count", lambda spec, lo: 0)
        return segment_summaries(PHI2, seed=31)


def assert_same_law(sample, reference):
    critical = ks_critical_2samp(0.01, REPS, REPS)
    for x, y in zip(sample, reference):
        assert ks_statistic_2samp(x, y) < critical


def test_skip_ahead_matches_full_path_in_law(full_path_summaries):
    assert renewal._skip_count(PHI2, LO) > 0.8 * LO / PHI2.mu
    assert_same_law(segment_summaries(PHI2, seed=32), full_path_summaries)


def test_dirichlet_bridge_matches_full_path_in_law(full_path_summaries, monkeypatch):
    # K sits 8 count sd above the mean N(LO), so S_K > LO and the bridge
    # runs; S_K is near 580 < HI - H, so the path also continues past it
    def beyond_lo(spec, lo):
        return math.ceil(lo / spec.mu + 8.0 * math.sqrt(lo * spec.sigma2 / spec.mu**3))

    monkeypatch.setattr(renewal, "_skip_count", beyond_lo)
    assert_same_law(segment_summaries(PHI2, seed=33), full_path_summaries)


@settings(max_examples=40, deadline=None)
@given(shapes=st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)),
       means=st.tuples(st.floats(0.02, 1.0), st.floats(0.02, 1.0)),
       T=st.floats(1.0, 300.0), c_frac=st.floats(0.01, 1.0),
       n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_compound_invariants_property(shapes, means, T, c_frac, n, seed):
    phi1, phi2 = (RenewalSpec.gamma(p, p / m) for p, m in zip(shapes, means))
    model = ChangePointModel(phi1, phi2, c=c_frac * T, T=T, n=n)
    nc, nT = n * model.c, n * T
    events = simulate_compound(model, seed).events
    if events.size:
        assert events[0] > 0 and events[-1] <= nT
        assert np.all(np.diff(events) > 0)
    right = renewal._events_between(phi2, substream(seed, 2), nc, nT)
    assert np.all(right > nc) and np.all(right <= nT) and np.all(np.diff(right) > 0)
