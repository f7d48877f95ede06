"""Metamorphic invariants: time reversal and change of time unit.

Each identity relates two runs of the package to each other, so it needs
no seed band or statistical tolerance beyond rounding (Chen, Cheung and
Yiu, metamorphic testing).  A wrong window edge convention or an
asymmetric index breaks one of them, where a statistical gate would
absorb it.
"""

import numpy as np
import pytest

from sharkfin.detector import detect, simulate_threshold
from sharkfin.filtered import G_process
from sharkfin.presets import (DISTORTION_A, ORIENTATION_MODELS, SHARK_EAST,
                              SHARK_EAST_INVERTED, SHARK_WEST, SHARK_WEST_INVERTED)
from sharkfin.renewal import EventSequence, WindowConfig, simulate_compound
from sharkfin.theory import (SharkShape, TheoryParams, classify_shark, distortion,
                             shark_fin)

STEP = 5.0
# SHARK_EAST is left out of the data reversal: its gamma(1/20) life times put
# neighbouring events so close that nT - S rounds them onto one float
REVERSIBLE = {"west": SHARK_WEST, "west_inverted": SHARK_WEST_INVERTED,
              "east_inverted": SHARK_EAST_INVERTED, "distortion_a": DISTORTION_A}
ORIENTED = {**REVERSIBLE, "east": SHARK_EAST}
MIRROR_SHAPE = {SharkShape.WEST_FIN: SharkShape.EAST_FIN_INVERTED,
                SharkShape.EAST_FIN_INVERTED: SharkShape.WEST_FIN,
                SharkShape.WEST_FIN_INVERTED: SharkShape.EAST_FIN,
                SharkShape.EAST_FIN: SharkShape.WEST_FIN_INVERTED}


def reversed_params(p):
    """The parameters of the time-reversed model: laws swapped, c -> T - c."""
    return TheoryParams(p.mu2, p.mu1, p.sigma2_sq, p.sigma1_sq, p.T - p.c, p.T, p.h, p.n)


@pytest.mark.parametrize("name", sorted(REVERSIBLE))
@pytest.mark.parametrize("n", [1, 4])
def test_G_of_reversed_events_is_mirrored_and_negated(name, n):
    model = REVERSIBLE[name].with_scale(n)
    seq = simulate_compound(model, seed=11)
    nT = n * model.T
    rev = EventSequence(nT - seq.events[::-1], nT)
    cfg = WindowConfig(model.T, (50.0, 150.0), STEP)
    for h in cfg.h_set:
        G, G_rev = G_process(seq, cfg, h, n), G_process(rev, cfg, h, n)
        assert np.array_equal(model.T - G_rev.grid[::-1], G.grid)
        assert np.array_equal(G_rev.valid[::-1], G.valid)
        scale = np.max(np.abs(G.values))
        assert scale > 0
        assert np.max(np.abs(G.values + G_rev.values[::-1])) <= 1e-9 * scale


@pytest.fixture(scope="module")
def table():
    return simulate_threshold(1000.0, (50.0, 150.0), STEP, 0.05, 2048, seed=3, workers=1)


@pytest.mark.parametrize("name", sorted(REVERSIBLE))
@pytest.mark.parametrize("n", [1, 4])
def test_detect_on_reversed_events_finds_the_mirrored_change_points(name, n, table):
    # measured on seeds 0-24 of these laws: each estimate maps to T - location
    # with its window and a negated value; argmax ties on equal |G| would
    # break this, and none occurs on these paths
    model = REVERSIBLE[name].with_scale(n)
    seq = simulate_compound(model, seed=11)
    nT = n * model.T
    rev = EventSequence(nT - seq.events[::-1], nT)
    got, got_rev = (detect(s, model.T, n, table.h_set, table) for s in (seq, rev))
    assert got.reject and got_rev.reject
    assert abs(got.global_max - got_rev.global_max) <= 1e-9 * got.global_max
    mirrored = sorted((model.T - cp.location, cp.h, -cp.value) for cp in got_rev.change_points)
    assert [cp[:2] for cp in got.change_points] == [cp[:2] for cp in mirrored]
    assert np.allclose([cp.value for cp in got.change_points], [cp[2] for cp in mirrored],
                       rtol=0.0, atol=1e-9 * got.global_max)


@pytest.mark.parametrize("name", sorted(ORIENTED))
def test_theory_of_reversed_model_is_mirrored(name):
    p = TheoryParams.from_model(ORIENTED[name], 150.0)
    p_rev = reversed_params(p)
    t = np.arange(0.0, p.T + STEP / 2, STEP)
    assert np.array_equal(shark_fin(p.T - t, p_rev), -shark_fin(t, p))
    assert np.array_equal(distortion(p.T - t, p_rev), distortion(t, p))


@pytest.mark.parametrize("name", sorted(ORIENTATION_MODELS))
def test_reversal_mirrors_the_fin_orientation(name):
    p = TheoryParams.from_model(ORIENTATION_MODELS[name], 150.0)
    assert classify_shark(p) is SharkShape(name)
    assert classify_shark(reversed_params(p)) is MIRROR_SHAPE[SharkShape(name)]


@pytest.mark.parametrize("n", [1, 4])
def test_G_is_invariant_under_doubling_the_time_unit(n):
    model = DISTORTION_A.with_scale(n)
    seq = simulate_compound(model, seed=3)
    nT = n * model.T
    doubled = EventSequence(2.0 * seq.events, 2.0 * nT)
    cfg = WindowConfig(model.T, (50.0, 150.0), STEP)
    cfg2 = WindowConfig(2.0 * model.T, (100.0, 300.0), 2.0 * STEP)
    for h in cfg.h_set:
        G, G2 = G_process(seq, cfg, h, n), G_process(doubled, cfg2, 2.0 * h, n)
        assert np.array_equal(G2.grid, 2.0 * G.grid)
        assert G2.values.tobytes() == G.values.tobytes()
        assert np.array_equal(G2.valid, G.valid)


def test_threshold_is_invariant_under_doubling_the_time_unit():
    one = simulate_threshold(1000.0, (50.0, 150.0), 5.0, 0.05, 2048, seed=3, workers=1)
    two = simulate_threshold(2000.0, (100.0, 300.0), 10.0, 0.05, 2048, seed=3, workers=1)
    pairs = [(one.Q, two.Q)] + [(one.per_h_max_quantiles[h], two.per_h_max_quantiles[2 * h])
                                for h in one.h_set]
    for a, b in pairs:
        assert abs(a - b) <= np.spacing(max(a, b))
