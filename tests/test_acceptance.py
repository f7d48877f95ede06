"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s or read the captured
output) and asserts the criterion.  Monte Carlo criteria use fixed seeds
so the suite is deterministic; the heavier shared simulations live in
module-scoped fixtures.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from geometry import check_fin_geometry
from oracles import ks_critical_normal, ks_statistic_normal
from sharkfin.detector import detect, simulate_threshold
from sharkfin.filtered import window_estimate_series
from sharkfin.lab import (check_estimator_consistency,
                          check_window_variance_forms, ks_critical_2samp,
                          ks_statistic_2samp)
from sharkfin.presets import (DISTORTION_A, DISTORTION_B, ORIENTATION_MODELS,
                              SHARK_WEST)
from sharkfin.renewal import (ChangePointModel, RenewalSpec, WindowConfig,
                              simulate_compound, simulate_renewal)
from sharkfin.theory import (SharkShape, TheoryParams, classify_shark,
                             detection_bound, distortion, shark_fin,
                             simulate_L_paths)

H = 150.0
T = 1000.0
C = 500.0


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def acceptance_table():
    # T=1000, h={150}, delta=3, alpha=0.05, 1e4 null limit paths
    return simulate_threshold(T, [H], 3.0, 0.05, 10000, seed=42)


@pytest.fixture(scope="module")
def strong_change_detections(acceptance_table):
    results = []
    for r in range(500):
        seq = simulate_compound(SHARK_WEST, seed=321, stream=(r,))
        results.append(detect(seq, T, 1, [H], acceptance_table))
    return results


def test_01_level_control(acceptance_table):
    spec = RenewalSpec.gamma(1, 1)
    rejects = sum(
        detect(simulate_renewal(spec, T, seed=123, stream=(r,)),
               T, 1, [H], acceptance_table).reject
        for r in range(1000))
    rate = rejects / 1000
    report(1, "level control", 0.03 <= rate <= 0.07,
           f"H0 rejection rate {rate:.3f} in [0.03, 0.07], Q={acceptance_table.Q:.4f}")


def test_02_power_meets_bound(acceptance_table, strong_change_detections):
    rate = np.mean([res.reject for res in strong_change_detections])
    bound = detection_bound(acceptance_table.Q,
                            TheoryParams.from_model(SHARK_WEST, H))
    se = math.sqrt(max(rate * (1 - rate), 1e-12) / 500)
    ok = rate >= bound - 3 * se and rate >= 0.99
    report(2, "power vs bound", ok,
           f"detection rate {rate:.4f} >= bound {bound:.4f} - 3se and >= 0.99")


def test_03_localization(strong_change_detections):
    hits, detections = 0, 0
    for res in strong_change_detections:
        if res.reject and res.change_points:
            detections += 1
            primary = max(res.change_points, key=lambda cp: abs(cp.value))
            hits += abs(primary.location - C) <= 30.0
    frac = hits / detections
    report(3, "localization", frac >= 0.95,
           f"estimate within c +- 30 in {frac:.3f} of {detections} detections")


def test_04_fin_geometry():
    expected = {
        "west_fin": SharkShape.WEST_FIN,
        "east_fin": SharkShape.EAST_FIN,
        "west_fin_inverted": SharkShape.WEST_FIN_INVERTED,
        "east_fin_inverted": SharkShape.EAST_FIN_INVERTED,
    }
    problems = []
    for name, model in ORIENTATION_MODELS.items():
        p = TheoryParams.from_model(model, H)
        got = classify_shark(p)
        if got is not expected[name]:
            problems.append(f"{name} classified {got}")
        problems += [f"{name}: {msg}" for msg in check_fin_geometry(p, expected[name])]
    report(4, "fin geometry", not problems,
           "4 orientations classified and profiled" if not problems else str(problems))


def test_05_scaling_law():
    p = TheoryParams.from_model(SHARK_WEST, H)
    r_n = abs(shark_fin(C, p.at_scale(4))) / abs(shark_fin(C, p))
    p_big = TheoryParams(p.mu1, p.mu2, p.sigma1_sq, p.sigma2_sq,
                         c=C, T=4000.0, h=4 * H)
    p_ref = TheoryParams(p.mu1, p.mu2, p.sigma1_sq, p.sigma2_sq,
                         c=C, T=4000.0, h=H)
    r_h = abs(shark_fin(C, p_big)) / abs(shark_fin(C, p_ref))
    ok = abs(r_n - 2.0) < 1e-12 and abs(r_h - 2.0) < 1e-12
    report(5, "scaling law", ok,
           f"|fin(c)| ratio at 4x scale: {r_n:.15f} (n), {r_h:.15f} (h)")


def test_06_distortion_anchors():
    p = TheoryParams.from_model(DISTORTION_A, H)
    outside = np.concatenate([np.linspace(H, C - H - 1e-9, 2001),
                              np.linspace(C + H + 1e-9, T - H, 2001)])
    dev_outside = np.abs(distortion(outside, p) - 1.0).max()
    dev_at_c = abs(distortion(C, p) - 1.0)
    p_flat = TheoryParams(0.2, 0.2, 0.02, 0.08, c=C, T=T, h=H)
    dev_flat = np.abs(distortion(np.linspace(H, T - H, 2001), p_flat) - 1.0).max()
    inside = np.linspace(H, T - H, 14001)
    peak = np.abs(distortion(inside, p) - 1.0).max()
    ok = (dev_outside <= 1e-12 and dev_at_c <= 1e-12 and dev_flat <= 1e-12
          and 0.01 <= peak <= 0.25)
    report(6, "distortion anchors", ok,
           f"unity deviations <= {max(dev_outside, dev_at_c, dev_flat):.1e}; "
           f"max |distortion-1| = {peak:.4f} in [0.01, 0.25]")


def test_07_limit_marginals():
    p = TheoryParams.from_model(DISTORTION_A, H)
    cfg = WindowConfig(T, (H,), 5.0)
    grid, paths = simulate_L_paths(cfg, p, seed=11, n_paths=10000)
    crit = ks_critical_normal(0.01, 10000)
    rows = []
    ok = True
    for t in (150.0, 425.0, 500.0, 575.0, 850.0):
        col = paths[:, int(np.searchsorted(grid, t))]
        var = col.var(ddof=1)
        ks = ks_statistic_normal(col)
        ok &= 0.95 <= var <= 1.05 and ks < crit
        rows.append(f"t={t:g}: var={var:.3f}, KS={ks:.4f}")
    report(7, "limit-process marginals", ok,
           "; ".join(rows) + f" (KS crit {crit:.4f})")


def test_08_estimator_consistency():
    ok = True
    parts = []
    for label, model in (("shape-change", DISTORTION_A), ("rate-change", DISTORTION_B)):
        rep = check_estimator_consistency(model, H, (1, 4, 16), seed=5)
        strict = all(
            b < a for key in ("sup_mu_right_error", "sup_sigma2_right_error",
                              "sup_scaling_ratio_error")
            for a, b in zip(rep.metrics[key], rep.metrics[key][1:]))
        final = rep.metrics["sup_scaling_ratio_error"][-1]
        ok &= strict and final < 0.05
        parts.append(f"{label}: strict decrease {strict}, final ratio sup {final:.4f}")
    report(8, "estimator consistency", ok, "; ".join(parts))


def test_09_variance_form_adjudication():
    rep = check_window_variance_forms(DISTORTION_A, H, seed=99, n_reps=1000)
    mix = rep.metrics["max_rel_dev_mixture"][0]
    alt = rep.metrics["max_rel_dev_sum_variant"][0]
    ok = rep.passed and mix <= 0.02 and alt > 0.02
    report(9, "window-variance form", ok,
           f"mixture form max rel dev {mix:.4f} <= 2%; "
           f"sum-cross-term variant max rel dev {alt:.4f} > 2% "
           f"(per-probe: {[f'{d:.3f}' for d in rep.details['rel_dev_sum_variant']]})")


def test_10_distributional_identity():
    model, n = DISTORTION_A, 16
    p1 = TheoryParams.from_model(model, H, n=1)
    lam_c = shark_fin(C, p1.at_scale(n))
    delta_c = distortion(C, p1)
    # the statistic at c reads no event after n(c + h), and the simulation
    # cut there draws the same events up to that time as the full one
    observed = replace(model.with_scale(n), T=C + H)
    vals = np.empty(500)
    for r in range(500):
        seq = simulate_compound(observed, seed=555, stream=(r,))
        est = window_estimate_series(seq, np.array([C]), H, n)
        vals[r] = est.count_diff[0] / est.s_hat[0] - delta_c * lam_c
    cfg = WindowConfig(T, (H,), 5.0)
    grid, ref = simulate_L_paths(cfg, p1, seed=777, n_paths=2000)
    ref_c = delta_c * ref[:, int(np.searchsorted(grid, C))]
    ks = ks_statistic_2samp(vals, ref_c)
    crit = ks_critical_2samp(0.01, 500, 2000)
    report(10, "distributional identity", ks < crit,
           f"two-sample KS {ks:.4f} < 1% critical {crit:.4f} at scale n={n}")


@pytest.fixture(scope="module")
def prediction_table():
    # T=1000, h={150}, delta=5, alpha=0.05, 1e4 null limit paths
    return simulate_threshold(T, (H,), 5.0, 0.05, 10000, seed=42, workers=1)


@pytest.mark.parametrize("phi1, phi2", [
    (RenewalSpec.gamma(1, 1), RenewalSpec.gamma(1, 1.3)),
    (RenewalSpec.gamma(4, 4), RenewalSpec.gamma(1 / 4, 0.3125)),
], ids=["exponential_rate_up", "regular_to_bursty"])
def test_power_matches_distorted_fin_prediction(prediction_table, phi1, phi2):
    # G ~ distortion * (fin + L): the power of the test on simulated
    # sequences matches the exceedance share of max_t |distortion (fin + L)|
    model = ChangePointModel(phi1, phi2, c=C, T=T)
    Q = prediction_table.Q
    emp = np.mean([detect(simulate_compound(model, 2014, stream=(r,)),
                          T, 1, [H], prediction_table).reject for r in range(600)])
    p = TheoryParams.from_model(model, H)
    grid, L = simulate_L_paths(WindowConfig(T, (H,), 5.0), p, 7, 4000)
    G = distortion(grid, p) * (shark_fin(grid, p) + L)
    pred = np.mean(np.abs(G).max(axis=1) > Q)
    band = 4 * math.sqrt(pred * (1 - pred) * (1 / 600 + 1 / 4000))
    print(f"power {emp:.4f} predicted {pred:.4f} band {band:.4f} "
          f"(detection bound at c {detection_bound(Q, p):.4f})")
    assert abs(emp - pred) <= band
