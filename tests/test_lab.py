import functools
import hashlib
import json
import math
import multiprocessing
import os
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ks_critical_normal, ks_statistic_normal
from sharkfin import lab
from sharkfin.filtered import window_estimate_series
from sharkfin.lab import (check_H0_limit, check_alternative_limit,
                          check_estimator_consistency, check_window_lln,
                          check_window_variance_forms, ks_critical_2samp,
                          ks_statistic_2samp, run_verification_suite)
from sharkfin.presets import DISTORTION_A, DISTORTION_B, SHARK_WEST
from sharkfin.renewal import (ChangePointModel, RenewalSpec, process_map,
                              simulate_compound, simulate_renewal, worker_count)
from sharkfin.theory import (TheoryParams, distortion, shark_fin,
                             sigma2_ri_theory, simulate_L_paths)


def report_json(report):
    """A report's JSON text: its to_json_dict with sorted keys, indent 2."""
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2)


def brute_ks_2samp(x, y):
    pts = sorted(set(list(x) + list(y)))
    best = 0.0
    for t in pts:
        fx = sum(1 for v in x if v <= t) / len(x)
        fy = sum(1 for v in y if v <= t) / len(y)
        best = max(best, abs(fx - fy))
    return best


# ---------------------------------------------------------------------------
# KS utilities


def test_ks_2samp_matches_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(0, 1, 40)
        y = rng.normal(0.3, 1.2, 55)
        assert ks_statistic_2samp(x, y) == pytest.approx(brute_ks_2samp(x, y))


def test_ks_normal_statistic():
    # the one-sample oracle that acceptance 7 reads, against mpmath
    x = np.array([-1.0, 0.0, 1.0])
    cdf = [float(mpmath.ncdf(v)) for v in np.sort(x)]
    expected = max(max((i + 1) / 3 - c for i, c in enumerate(cdf)),
                   max(c - i / 3 for i, c in enumerate(cdf)))
    assert ks_statistic_normal(x) == pytest.approx(expected)
    draws = np.random.default_rng(2).standard_normal(5000)
    assert ks_statistic_normal(draws) < ks_critical_normal(0.01, 5000)


def test_ks_critical_values():
    # c(0.05) = 1.3581, c(0.01) = 1.6276 up to rounding
    assert ks_critical_2samp(0.05, 100, 100) == pytest.approx(
        1.3581 * math.sqrt(0.02), rel=1e-3)
    assert ks_critical_normal(0.01, 10000) == pytest.approx(
        1.6276 / (100.0 + 0.12 + 0.0011), rel=1e-3)


# ---------------------------------------------------------------------------
# degenerate inputs


def test_insufficient_replicates_fail_with_note():
    rep = check_H0_limit(RenewalSpec.gamma(1, 1), 1000.0, 150.0, (1, 4, 16),
                         n_reps=1, seed=0)
    assert not rep.passed
    assert any("insufficient" in note for note in rep.notes)
    rep = check_alternative_limit(SHARK_WEST, 150.0, (1, 4), n_reps=1, seed=0)
    assert not rep.passed and rep.notes


@pytest.mark.parametrize("n_reps", [0, -3])
def test_window_variance_forms_without_replicates_fail_with_note(n_reps):
    # no replicate mean to compare: no division by zero, no NaN metric
    rep = check_window_variance_forms(SHARK_WEST, 150.0, seed=0, n_reps=n_reps)
    assert not rep.passed and not rep.metrics
    assert rep.notes == [f"insufficient replicates (n_reps={n_reps})"]


def test_alternative_limit_without_estimated_sample_fails_with_note():
    # life times of mean 200, then 100: a window of h = 150 often holds
    # none, and s_hat is 0 at c - h/2 in every replicate at scale 1
    model = ChangePointModel(RenewalSpec(1, 0.005), RenewalSpec(1, 0.01), 500.0, 1000.0)
    rep = check_alternative_limit(model, 150.0, (1, 4, 16), n_reps=5, seed=1)
    assert not rep.passed and "criteria" not in rep.details
    assert rep.notes == ["s_hat is 0 at probe 425.0 in every replicate at scale 1: "
                         "no estimated-scaling sample"]


# life times of mean 1000: the windows of h = 150 hold almost no events
SPARSE = RenewalSpec(1, 0.001)
SPARSE_MODEL = ChangePointModel(SPARSE, SPARSE, 500.0, 1000.0)


@pytest.mark.parametrize("run", [
    lambda: check_H0_limit(SPARSE, 1000.0, 150.0, (1, 4, 16), n_reps=20, seed=1),
    lambda: check_alternative_limit(SPARSE_MODEL, 150.0, (1, 4, 16), n_reps=20, seed=1),
    lambda: check_window_lln(SPARSE_MODEL, 150.0, (1, 4, 16), seed=1),
    lambda: check_estimator_consistency(SPARSE_MODEL, 150.0, (1, 4, 16), seed=1),
    lambda: check_window_variance_forms(SPARSE_MODEL, 150.0, seed=1, n_reps=20),
], ids=["h0_limit", "alternative_limit", "window_lln", "estimator_consistency",
        "window_variance_forms"])
def test_checks_on_a_sparse_law_return_reports(run):
    assert isinstance(run(), lab.LabReport)


def test_estimator_consistency_without_scaling_ratio_fails_with_note():
    # s_hat is 0 at every grid node of some replicate at scales 1 and 4,
    # where that replicate's ratio error, and so the scale's mean, is nan
    rep = check_estimator_consistency(SPARSE_MODEL, 150.0, (1, 4, 16), seed=1)
    ratio = rep.metrics["sup_scaling_ratio_error"]
    assert math.isnan(ratio[0]) and math.isnan(ratio[1]) and math.isfinite(ratio[2])
    assert not rep.passed
    assert {f"sup_scaling_ratio_error is undefined in some replicate at scale {n}"
            for n in (1, 4)} <= set(rep.notes)


def test_estimator_errors_skip_windows_without_an_estimate():
    # the right window of h = 150 holds fewer than two events at most
    # nodes: a mean or variance there is undefined, not an error of the
    # whole limit (1000 for the mean, 10**6 for the variance)
    rep = check_estimator_consistency(SPARSE_MODEL, 150.0, (1, 4, 16), seed=1)
    for name, limit in (("sup_mu_right_error", 1000.0), ("sup_sigma2_right_error", 1e6)):
        errors = rep.metrics[name]
        assert math.isnan(errors[0]) and math.isnan(errors[1])
        assert math.isfinite(errors[2]) and errors[2] != limit
        assert f"{name} is undefined in some replicate at scale 1" in rep.notes


@pytest.mark.parametrize("n_reps", [-1, 0, 1, 2, 3])
def test_h0_limit_fails_where_no_ks_gate_can_fail(n_reps):
    # a KS distance is at most 1: with 5 probes at level 0.05 and 4 limit
    # paths per replicate, the final critical value is 1.287 at 2
    # replicates and 1.051 at 3, and every gate would pass
    rep = check_H0_limit(RenewalSpec(1, 0.005), 1000.0, 150.0, (1, 4, 16), n_reps, 1)
    crit = ks_critical_2samp(0.05 / 5, n_reps, 4 * n_reps) if n_reps > 0 else math.inf
    assert crit >= 1.0 and not rep.passed and not rep.metrics
    assert rep.notes == [f"insufficient replicates (n_reps={n_reps}): the final KS "
                         f"critical value {crit:.4g} is at least 1, which no KS "
                         "distance exceeds"]


@pytest.mark.parametrize("n_reps", [0, 2, 4])
def test_alternative_limit_fails_where_no_ks_gate_can_fail(n_reps):
    # 6 tests at level 0.01: the final critical value is 1.489 at 2
    # replicates and 1.053 at 4
    model = ChangePointModel(RenewalSpec(1, 0.02), RenewalSpec(1, 0.04), 500.0, 1000.0)
    rep = check_alternative_limit(model, 150.0, (1, 4, 16), n_reps, 1)
    crit = ks_critical_2samp(0.01 / 6, n_reps, 4 * n_reps) if n_reps > 0 else math.inf
    assert crit >= 1.0 and not rep.passed and not rep.metrics
    assert rep.notes == [f"insufficient replicates (n_reps={n_reps}): the final KS "
                         f"critical value {crit:.4g} is at least 1, which no KS "
                         "distance exceeds"]
    assert check_alternative_limit(model, 150.0, (1, 4, 16), 5, 1).thresholds[
        "final_critical"] < 1.0


@pytest.mark.parametrize("check, kwargs", [
    (check_alternative_limit, dict(n_reps=5)),
    (check_window_lln, dict()),
    (check_estimator_consistency, dict()),
], ids=["alternative_limit", "window_lln", "estimator_consistency"])
def test_off_grid_change_point_is_snapped_with_note(check, kwargs):
    off = ChangePointModel(DISTORTION_A.phi1, DISTORTION_A.phi2, 501.0, 1000.0)
    snapped = check(off, 150.0, (1, 2), seed=3, **kwargs)
    on_grid = check(DISTORTION_A, 150.0, (1, 2), seed=3, **kwargs)
    assert snapped.notes[0] == "change point snapped to grid: 501.0 -> 500.0"
    assert snapped.notes[1:] == on_grid.notes
    assert snapped.metrics == on_grid.metrics
    assert snapped.details == on_grid.details


# ---------------------------------------------------------------------------
# null-hypothesis limit


def test_h0_probes_exchangeable_under_null():
    # stationarity: marginals at distant probes share one distribution
    spec = RenewalSpec.gamma(1, 1)
    scale = math.sqrt(300.0)
    samples = np.empty((400, 2))
    for r in range(400):
        seq = simulate_renewal(spec, 1000.0, seed=70, stream=(r,))
        ev = seq.events
        for j, t in enumerate((300.0, 700.0)):
            diff = (np.searchsorted(ev, t + 150.0, side="right")
                    - 2 * np.searchsorted(ev, t, side="right")
                    + np.searchsorted(ev, t - 150.0, side="right"))
            samples[r, j] = diff / scale
    ks = ks_statistic_2samp(samples[:, 0], samples[:, 1])
    assert ks < ks_critical_2samp(0.01, 400, 400)


def test_h0_limit_example_configuration():
    rep = check_H0_limit(RenewalSpec.gamma(1, 1), 1000.0, 150.0, (1, 4, 16),
                         n_reps=500, seed=1)
    assert rep.passed
    assert rep.metrics["mean_ks"][-1] < rep.metrics["mean_ks"][0]
    # final level also clears the plain 5% two-sample critical value
    crit = ks_critical_2samp(0.05, rep.details["n_reps"], rep.details["n_ref"])
    assert rep.metrics["max_ks"][-1] < crit
    assert json.loads(report_json(rep))["experiment"] == "h0_limit"


# ---------------------------------------------------------------------------
# alternative limit


def test_alternative_limit_smoke_passes():
    rep = check_alternative_limit(DISTORTION_A, 150.0, (1, 4, 16), n_reps=150,
                                  seed=3)
    assert rep.passed
    assert set(rep.metrics) == {"ks_gamma_vs_limit",
                                "ks_estimated_vs_distorted_limit"}


def test_corollary_case_estimated_statistic_matches_plain_limit():
    # equal means, different variances: no systematic term, no distortion
    phi1 = RenewalSpec.gamma(2, 10)      # mu 0.2, sigma2 0.02
    phi2 = RenewalSpec.gamma(0.5, 2.5)   # mu 0.2, sigma2 0.08
    model = ChangePointModel(phi1, phi2, c=500.0, T=1000.0)
    h = 150.0
    p = TheoryParams.from_model(model, h)
    assert shark_fin(500.0, p) == 0.0
    assert distortion(500.0, p) == pytest.approx(1.0, abs=1e-12)

    vals = []
    for r in range(300):
        seq = simulate_compound(model, seed=71, stream=(r,))
        est = window_estimate_series(seq, np.array([500.0]), h, 1)
        vals.append(est.count_diff[0] / est.s_hat[0])
    ref_c = simulate_L_paths(p, 5.0, seed=72, n_paths=1200, t=[500.0])[:, 0]
    assert ks_statistic_2samp(np.asarray(vals), ref_c) \
        < ks_critical_2samp(0.01, 300, 1200)


# ---------------------------------------------------------------------------
# horizon cut: the lab reads only its probe windows


def run_cut_and_full(monkeypatch, check, model, *args, **kwargs):
    """Reports with the horizon cut and without it, and the simulated horizons."""
    horizons = []

    def recording(m, seed, stream=()):
        horizons.append(m.T)
        return simulate_compound(m, seed, stream)

    with monkeypatch.context() as m:
        m.setattr(lab, "simulate_compound", recording)
        cut = check(model, *args, **kwargs).to_json_dict()
    with monkeypatch.context() as m:
        m.setattr(lab, "_observed", lambda model, probes, h: model)
        full = check(model, *args, **kwargs).to_json_dict()
    return cut, full, set(horizons)


@pytest.mark.parametrize("model, cut_T", [
    (DISTORTION_A, 725.0),                      # c + h/2 + h
    (replace(DISTORTION_A, c=502.5), 725.0),    # off-grid c, snapped to 500
    (replace(DISTORTION_A, c=800.0), 1000.0),   # c + h/2 clamped to T - h
], ids=["distortion_a", "off_grid_c", "clamped"])
@pytest.mark.parametrize("seed", [2, 11])
def test_alternative_limit_cut_equals_full_horizon(monkeypatch, model, cut_T, seed):
    cut, full, horizons = run_cut_and_full(
        monkeypatch, check_alternative_limit, model, 150.0, (1, 2), n_reps=6,
        seed=seed)
    assert horizons == {cut_T}
    assert cut == full


@pytest.mark.parametrize("model, cut_T", [
    (DISTORTION_A, 625.0),                                  # last probe c - h/6
    (replace(DISTORTION_A, c=501.3), 501.3 - 150.0 / 6 + 150.0),  # c - h/6 + h
    (replace(DISTORTION_A, c=875.0), 1000.0),               # last window ends at T
], ids=["distortion_a", "off_grid_c", "window_at_T"])
@pytest.mark.parametrize("seed", [2, 11])
def test_window_variance_forms_cut_equals_full_horizon(monkeypatch, model, cut_T, seed):
    cut, full, horizons = run_cut_and_full(
        monkeypatch, check_window_variance_forms, model, 150.0, seed=seed,
        n_reps=20)
    assert horizons == {cut_T}
    assert cut == full


# ---------------------------------------------------------------------------
# laws of large numbers and estimator consistency


def test_window_lln_strong_change_decreases():
    rep = check_window_lln(SHARK_WEST, 150.0, (1, 4, 16), seed=4)
    sups = rep.metrics["sup_rate_error_right"]
    assert sups[2] < sups[1] < sups[0]
    # rate reaches 20, so the absolute tolerance gate is out of reach here
    assert not rep.passed


def test_window_lln_flat_model_compares_to_constant_rate():
    spec = RenewalSpec.gamma(1, 2)
    model = ChangePointModel(spec, spec, c=500.0, T=1000.0)
    rep = check_window_lln(model, 150.0, (4, 16, 64), seed=5)
    assert rep.passed


def test_estimator_consistency_passes_for_distortion_models():
    for model in (DISTORTION_A, DISTORTION_B):
        rep = check_estimator_consistency(model, 150.0, (1, 4, 16), seed=6)
        assert rep.passed, rep.notes
        for key in ("sup_mu_right_error", "sup_sigma2_right_error",
                    "sup_scaling_ratio_error"):
            vals = rep.metrics[key]
            assert vals[2] < vals[1] < vals[0]
        assert rep.metrics["sup_scaling_ratio_error"][-1] < 0.05


# ---------------------------------------------------------------------------
# variance-form adjudication


def test_window_variance_forms_smoke():
    rep = check_window_variance_forms(DISTORTION_A, 150.0, seed=7, n_reps=200)
    assert rep.passed
    assert rep.metrics["max_rel_dev_mixture"][0] < 0.02
    assert rep.metrics["max_rel_dev_sum_variant"][0] > 0.02
    assert len(rep.details["probes"]) == 5


# ---------------------------------------------------------------------------
# verdicts at their recorded thresholds: no simulation

TOL = 0.05
BELOW, ABOVE = np.nextafter(TOL, 0.0), np.nextafter(TOL, 1.0)


def verdict(n_levels=(1, 4, 16), thresholds=None, **criteria):
    report = lab.LabReport("gate", 0, list(n_levels),
                           thresholds={"tol": TOL} if thresholds is None else thresholds)
    return lab._verdict(report, **criteria)


@pytest.mark.parametrize("relation, values, holds", [
    ("<", [BELOW], True), ("<", [TOL], False), ("<", [ABOVE], False),
    ("<=", [BELOW], True), ("<=", [TOL], True), ("<=", [ABOVE], False),
    (">", [BELOW], False), (">", [TOL], False), (">", [ABOVE], True),
    # "<" and "<=" hold for every value, ">" for some; NaN compares false
    ("<", [0.0, ABOVE], False), ("<", [0.0, np.nan], False),
    ("<=", [[0.0, 0.0], [0.0, ABOVE]], False), ("<=", [np.nan], False),
    (">", [0.0, ABOVE], True), (">", [np.nan, ABOVE], True), (">", [np.nan], False),
])
def test_verdict_flips_at_the_recorded_threshold(relation, values, holds):
    rep = verdict(gate=(values, relation, "tol", "gate missed"))
    assert rep.passed is holds
    assert rep.details["criteria"] == {"gate": holds}
    assert rep.notes == ([] if holds else ["gate missed"])


A = 0.25  # a per-step allowance


@pytest.mark.parametrize("values, key, holds", [
    # net decrease: rises up to the allowance, last below first
    ([1.0, 1.0 + A, 0.5], "step_allowance", True),
    ([1.0, np.nextafter(1.0 + A, 2.0), 0.5], "step_allowance", False),
    ([1.0, 0.75, np.nextafter(1.0, 0.0)], "step_allowance", True),
    ([1.0, 0.75, 1.0], "step_allowance", False),
    # strict decrease without a key: an equal step fails
    ([3.0, 2.0, 1.0], None, True),
    ([3.0, 2.0, 2.0], None, False),
    ([[3.0, 2.0, 1.0], [3.0, 3.0, 1.0]], None, False),
])
def test_trend_flips_at_the_recorded_allowance(values, key, holds):
    rep = verdict(thresholds={"step_allowance": A},
                  trend=(values, "decreasing", key, "no decrease"))
    assert rep.passed is holds
    assert rep.notes == ([] if holds else ["no decrease"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, math.inf, math.nan]),
                min_size=1, max_size=5),
       st.sampled_from([None, 0.0, A]))
def test_trend_matches_the_step_loops(values, allowance):
    # the loops the trend predicate replaced, NaN and infinities included
    steps = zip(values, values[1:])
    if allowance is None:
        expected = all(b < a for a, b in steps)
    else:
        expected = values[-1] < values[0] and all(b <= a + allowance for a, b in steps)
    key = None if allowance is None else "step_allowance"
    rep = verdict(thresholds={"step_allowance": allowance},
                  trend=(values, "decreasing", key, "no decrease"))
    assert rep.passed is expected


@pytest.mark.parametrize("waived_at, holds", [(BELOW, True), (TOL, False)])
def test_trend_waived_where_every_distance_is_below_the_threshold(waived_at, holds):
    rep = verdict(thresholds={"tol": TOL, "step_allowance": A},
                  waiver=([[0.0, waived_at], [0.0, 0.0], [0.0, 0.0]], "<", "tol",
                          "converged"),
                  trend=([0.1, 0.2, 0.3], "decreasing", "step_allowance", "no decrease"))
    assert rep.passed is holds
    assert rep.notes == (["converged"] if holds else ["no decrease"])


def test_trend_needs_three_scales_whatever_it_says():
    rep = verdict(n_levels=(1, 4), thresholds={"tol": TOL},
                  waiver=([0.0], "<", "tol", "converged"),
                  trend=([2.0, 1.0], "decreasing", None, "no decrease"),
                  final_level=([0.0], "<", "tol", "final level missed"))
    assert not rep.passed
    assert rep.details["criteria"] == {"trend": False, "final_level": True}
    assert rep.notes == ["a trend needs at least three scales, got 2"]


@pytest.mark.parametrize("criteria", [
    dict(final_level=([0.0], "<", "final_tol", "missed")),
    dict(waiver=([0.0], "<", "final_critical", "converged"),
         trend=([3.0, 2.0, 1.0], "decreasing", None, "no decrease")),
], ids=["criterion", "waiver"])
def test_verdict_raises_on_an_unrecorded_threshold(criteria):
    with pytest.raises(KeyError):
        verdict(**criteria)


def replicate_rows_returning(monkeypatch, levels):
    """Make every check read `levels`, a list per level of replicate rows."""
    monkeypatch.setattr(lab, "_replicate_rows", lambda row, n_levels, n_reps: levels)


@pytest.mark.parametrize("factor, holds", [(0.99, True), (1.01, False), (1.5, False)])
def test_window_lln_gates_every_final_error_at_final_tol(monkeypatch, factor, holds):
    tol = 0.12
    for gated in ("sup_rate_error_right", "sup_rate_error_left"):
        errors = [{"sup_rate_error_right": e, "sup_rate_error_left": e}
                  for e in (4 * tol, 2 * tol, 0.5 * tol)]
        errors[-1][gated] = factor * tol
        replicate_rows_returning(monkeypatch, [[e] * 3 for e in errors])
        rep = check_window_lln(DISTORTION_B, 150.0, (4, 16, 64), seed=1, final_tol=tol)
        assert rep.thresholds["final_tol"] == tol
        assert rep.details["criteria"] == {"trend": True, "final_level": holds}
        assert rep.notes == ([] if holds else [f"final sup-norm rate error above {tol}"])


@pytest.mark.parametrize("factor, holds", [(0.99, True), (1.01, False), (2.0, False)])
def test_estimator_consistency_gates_the_final_ratio_error(monkeypatch, factor, holds):
    # only the scaling-ratio error is gated; every error must fall strictly
    tol = 0.05
    errors = [{"sup_mu_right_error": e, "sup_sigma2_right_error": e,
               "sup_scaling_ratio_error": e} for e in (40 * tol, 20 * tol, 10 * tol)]
    errors[-1]["sup_scaling_ratio_error"] = factor * tol
    replicate_rows_returning(monkeypatch, [[e] * 3 for e in errors])
    rep = check_estimator_consistency(DISTORTION_A, 150.0, (1, 4, 16), seed=1)
    assert rep.thresholds["final_tol"] == tol
    assert rep.details["criteria"] == {"trend": True, "final_level": holds}
    errors[1]["sup_mu_right_error"] = errors[0]["sup_mu_right_error"]
    replicate_rows_returning(monkeypatch, [[e] * 3 for e in errors])
    rep = check_estimator_consistency(DISTORTION_A, 150.0, (1, 4, 16), seed=1)
    assert rep.details["criteria"] == {"trend": False, "final_level": holds}
    assert rep.notes[0] == "some sup-norm error did not decrease strictly"


@pytest.mark.parametrize("factor, holds", [(0.99, True), (1.01, False), (1.5, False)])
def test_ks_final_level_gates_at_the_critical_value(factor, holds):
    # 600 replicates against 2400 reference paths, 5 probes at level 0.05
    crit = ks_critical_2samp(0.05 / 5, 600, 2400)
    per_level = [[0.5] * 5, [0.25] * 5, [0.0] * 4 + [factor * crit]]
    rep = lab._ks_verdict(lab.LabReport("h0_limit", 0, [1, 4, 16]), 600, 2400, 0.05,
                          crit, "mean_ks", per_level, per_level[-1],
                          tests_key="bonferroni_probes", converged_note="converged",
                          trend_note="no decrease")
    assert rep.thresholds["final_critical"] == crit
    assert rep.details["criteria"] == {"trend": True, "final_level": holds}
    assert rep.notes == ([] if holds else ["final-level KS above critical value"])


@pytest.mark.parametrize("form, dev, criteria", [
    ("mixture", 0.01, {"mixture_within_tol": True, "sum_variant_rejected": True}),
    ("mixture", 0.03, {"mixture_within_tol": False, "sum_variant_rejected": True}),
    ("sum_variant", 0.01, {"mixture_within_tol": False, "sum_variant_rejected": False}),
    ("sum_variant", 0.03, {"mixture_within_tol": False, "sum_variant_rejected": True}),
])
def test_window_variance_forms_gate_at_rel_tol(monkeypatch, form, dev, criteria):
    # one replicate whose right-window variances miss one form by dev at
    # the middle probe and match it elsewhere, against rel_tol 0.02
    h = 150.0
    c = DISTORTION_A.c
    probes = np.array([c - 5 * h / 6, c - 2 * h / 3, c - h / 2, c - h / 3, c - h / 6])
    p1 = TheoryParams.from_model(DISTORTION_A, h, n=1)
    var = sigma2_ri_theory(probes, p1, sum_cross_term=form == "sum_variant")
    replicate_rows_returning(monkeypatch, [[var * np.array([1, 1, 1 + dev, 1, 1])]])
    rep = check_window_variance_forms(DISTORTION_A, h, seed=0, n_reps=1)
    assert rep.thresholds["rel_tol"] == 0.02
    assert rep.details["criteria"] == criteria
    assert rep.passed is all(criteria.values())


# ---------------------------------------------------------------------------
# packaged suite


# sha256 of each smoke report's report_json at DEFAULT_SUITE_SEED.  The pins
# depend on numpy's generator streams (PCG64 and its gamma, normal and
# exponential samplers): a numpy release that changes a stream moves them.
SMOKE_REPORT_SHA256 = {
    "h0_limit": "e49f4766532532e774ae6460c62725b2ec0d812c20d5d0a55a54e71e273e8065",
    "alternative_limit":
        "eb0f9db4d8c02e59c6db1533d360e32c7abcb43750385bb59ab8a93a0fb5dfac",
    "window_lln": "0ebd5dacdb89fcd00cc8d5cfef7d9231328199751a30e5c89da7a8d38d18bd4b",
    "estimator_consistency_shape_change":
        "1984997c329170ba871c5a38c8d4b380d799e11785f2fcfff7fcc1da96e66ec4",
    "estimator_consistency_rate_change":
        "b3ce74a81b3e414b56b82fdbec92d5fc8b3d98586bf027ce002025f7e6699e38",
    "window_variance_forms":
        "a28aaafa6ddf73bb8d6bea0dd180d5aabdb5f1d533a3f4ee154a6df4a25da60e",
}


def test_verification_suite_smoke_all_pass(monkeypatch):
    reports = smoke_suite(monkeypatch, lab.DEFAULT_SUITE_SEED, worker_count())
    names = [r.experiment for r in reports]
    assert names == ["h0_limit", "alternative_limit", "window_lln",
                     "estimator_consistency_shape_change",
                     "estimator_consistency_rate_change",
                     "window_variance_forms"]
    assert all(r.passed for r in reports), [
        (r.experiment, r.notes) for r in reports if not r.passed]
    # reports serialize and summarize
    for r in reports:
        assert json.loads(report_json(r))["passed"] is True
        assert "PASS" in r.summary()
    # the report bytes are pinned
    assert {r.experiment: hashlib.sha256(report_json(r).encode()).hexdigest()
            for r in reports} == SMOKE_REPORT_SHA256


def test_verification_suite_rejects_unknown_scale():
    with pytest.raises(ValueError):
        run_verification_suite(scale="huge")


def test_reports_reproducible_bit_exactly():
    kwargs = dict(n_reps=60, seed=9)
    a = check_H0_limit(RenewalSpec.gamma(1, 1), 1000.0, 150.0, (1, 2), **kwargs)
    b = check_H0_limit(RenewalSpec.gamma(1, 1), 1000.0, 150.0, (1, 2), **kwargs)
    assert report_json(a) == report_json(b)


def test_trend_criteria_require_three_levels():
    # two scales are never enough to claim a convergence trend, and the
    # report says so, also where both scales converged or both errors fell
    note = "a trend needs at least three scales, got 2"
    rep = check_H0_limit(RenewalSpec.gamma(1, 1), 1000.0, 150.0, (1, 16),
                         n_reps=200, seed=10)
    assert not rep.passed and note in rep.notes
    for rep in (check_H0_limit(RenewalSpec.gamma(1, 1), 1000.0, 150.0, (4, 16),
                               n_reps=60, seed=3),
                check_alternative_limit(DISTORTION_A, 150.0, (4, 16), n_reps=60, seed=3),
                check_window_lln(DISTORTION_B, 150.0, (16, 64), seed=3)):
        assert not rep.passed and not rep.details["criteria"]["trend"]
        assert note in rep.notes, (rep.experiment, rep.notes)
        assert not any("pure noise" in n for n in rep.notes), rep.notes


# ---------------------------------------------------------------------------
# the suite's process pool


def direct_smoke_reports(seed):
    """The smoke suite's checks called one by one, outside the suite."""
    h = 150.0
    return [
        check_H0_limit(RenewalSpec.gamma(1, 1), 1000.0, h, (1, 4, 16), n_reps=600,
                       seed=seed),
        check_alternative_limit(DISTORTION_A, h, (1, 4, 16), n_reps=120, seed=seed),
        check_window_lln(DISTORTION_B, h, (4, 16, 64), seed=seed, final_tol=0.12),
        replace(check_estimator_consistency(DISTORTION_A, h, (1, 4, 16), seed=seed),
                experiment="estimator_consistency_shape_change"),
        replace(check_estimator_consistency(DISTORTION_B, h, (1, 4, 16), seed=seed),
                experiment="estimator_consistency_rate_change"),
        check_window_variance_forms(DISTORTION_A, h, seed=seed, n_reps=200),
    ]


def use_cpus(monkeypatch, count):
    """Make the shared worker count read `count` available CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    assert worker_count() == count


_SMOKE_SUITES = {}


def smoke_suite(monkeypatch, seed, workers):
    """The smoke suite's reports at seed on `workers` CPUs, run once per
    (seed, workers) in this module; no worker may outlive that run."""
    use_cpus(monkeypatch, workers)
    if (seed, workers) not in _SMOKE_SUITES:
        _SMOKE_SUITES[seed, workers] = run_verification_suite(seed, scale="smoke")
        assert multiprocessing.active_children() == []
    return _SMOKE_SUITES[seed, workers]


@pytest.mark.parametrize("seed", [lab.DEFAULT_SUITE_SEED, 7])
def test_suite_reports_independent_of_pool_size(monkeypatch, seed):
    # a pool of one is the builtin map (pinned by test_renewal.py::
    # test_process_map_keeps_input_order_and_leaves_no_worker), the suite
    # map's default, so a one-worker suite is the direct path compared here
    direct = [report_json(r) for r in direct_smoke_reports(seed)]
    for workers in (2, 3):
        suite = [report_json(r) for r in smoke_suite(monkeypatch, seed, workers)]
        assert suite == direct, f"pool size {workers}"


def test_replicate_rows_come_back_in_replicate_order(monkeypatch):
    # uneven blocks: 7 replicates over 3 workers, and fewer replicates than workers
    row = functools.partial(_tagged_row, 100)
    expected = [[100 + 1000 * li + 10 * n + r for r in range(7)]
                for li, n in enumerate((2, 5))]
    assert lab._replicate_rows(row, (2, 5), 7) == expected
    use_cpus(monkeypatch, 3)
    with process_map(worker_count()) as pmap:
        token = lab._SUITE_MAP.set((pmap, 3))
        try:
            assert lab._replicate_rows(row, (2, 5), 7) == expected
            assert lab._replicate_rows(row, (2, 5), 2) == [e[:2] for e in expected]
            assert lab._replicate_rows(row, (), 7) == []
        finally:
            lab._SUITE_MAP.reset(token)
    assert multiprocessing.active_children() == []


def _tagged_row(base, li, n, r):
    return base + 1000 * li + 10 * n + r


class RowFailure(Exception):
    pass


def _fail_in_worker(parent_pid, *args, **kwargs):
    if os.getpid() != parent_pid:
        raise RowFailure("raised in a worker")
    return simulate_renewal(*args, **kwargs)


def test_no_worker_outlives_the_suite(monkeypatch):
    smoke_suite(monkeypatch, lab.DEFAULT_SUITE_SEED, 2)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(lab, "simulate_renewal",
                        functools.partial(_fail_in_worker, os.getpid()))
    with pytest.raises(RowFailure, match="raised in a worker"):
        run_verification_suite(scale="smoke")
    assert multiprocessing.active_children() == []
    assert lab._SUITE_MAP.get() == (map, 1)
