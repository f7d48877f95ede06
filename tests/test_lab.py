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
                             simulate_L_paths)


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


@pytest.mark.parametrize("check, kwargs", [
    (check_alternative_limit, dict(n_reps=4)),
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
    grid, ref = simulate_L_paths(p, 5.0, seed=72, n_paths=1200)
    ref_c = ref[:, np.searchsorted(grid, 500.0)]
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
