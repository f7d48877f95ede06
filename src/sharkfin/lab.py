"""Empirical verification harness for the limit and consistency statements.

Each check runs a seeded Monte Carlo experiment across several scales n,
reduces it to one metric per scale, and reports pass/fail against fixed,
recorded thresholds.  Two kinds of criteria appear:

* convergence trends: the metric must decrease across the scales.  For
  estimator sup-norm errors the decrease is required strictly.  For
  Kolmogorov-Smirnov distances the two-sample statistic saturates at its
  sampling noise floor once the distributions are close, so the trend is
  judged as a net decrease from first to last scale with per-step
  increases bounded by twice the KS noise standard deviation
  0.26*sqrt((m+n)/(m*n)); and when every scale already beats the final
  critical value, the distance is statistically indistinguishable from
  zero throughout and no ordering is demanded of pure noise.
* final-level gates: the last scale must beat a fixed threshold (a KS
  critical value, Bonferroni-corrected across probes, or an absolute
  sup-norm bound).

One caveat is recorded rather than tested away: with estimated scaling,
the statistic centered by the distorted systematic term keeps an O(1)
remainder near the change point (the systematic term grows like
sqrt(n*h) while the scaling estimator's fluctuation shrinks like
1/sqrt(n*h), so their product does not vanish).  That suite therefore
faces only the final-level KS gate, never a trend requirement.

Every experiment is reproducible bit-exactly from (experiment id, seed);
probe times are fixed and seed-independent so reports are comparable
across runs.  Trend criteria always use at least three scales.
Change-point replicates that are read only at probe windows are
simulated up to the last time a window reads; the events there are
those of the full-horizon run, bit for bit (see `_observed`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .filtered import window_estimate_series
from .presets import DISTORTION_A, DISTORTION_B
from .renewal import (ChangePointModel, RenewalSpec, WindowConfig,
                      simulate_compound, simulate_renewal, substream)
from .theory import (TheoryParams, brownian_blocks, distortion, m_function,
                     mu_le_theory, mu_ri_theory, normal_cdf, s_function,
                     shark_fin, sigma2_ri_theory, simulate_L_paths)

__all__ = [
    "LabReport",
    "ks_statistic_2samp",
    "ks_statistic_normal",
    "ks_critical_2samp",
    "ks_critical_normal",
    "check_H0_limit",
    "check_alternative_limit",
    "check_window_lln",
    "check_estimator_consistency",
    "check_window_variance_forms",
    "run_verification_suite",
]

# KS statistic sd under the null is about 0.26*sqrt((m+n)/(m*n)); used to
# size the per-step noise allowance of trend criteria.
_KS_SD = 0.26

DEFAULT_SUITE_SEED = 20260811


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov utilities


def ks_statistic_2samp(x, y) -> float:
    """Two-sample KS statistic sup |F_x - F_y|."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ValueError("KS statistic needs non-empty samples")
    both = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, both, side="right") / x.size
    cdf_y = np.searchsorted(y, both, side="right") / y.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def ks_statistic_normal(x) -> float:
    """One-sample KS statistic against the standard normal law."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("KS statistic needs a non-empty sample")
    cdf = normal_cdf(x)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n))))


def _ks_scale(alpha: float) -> float:
    # upper quantile of the Kolmogorov distribution
    return math.sqrt(-math.log(alpha / 2.0) / 2.0)


def ks_critical_2samp(alpha: float, m: int, n: int) -> float:
    """Asymptotic two-sample critical value at level alpha."""
    return _ks_scale(alpha) * math.sqrt((m + n) / (m * n))


def ks_critical_normal(alpha: float, n: int) -> float:
    """One-sample critical value with the Stephens finite-sample correction."""
    return _ks_scale(alpha) / (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))


# ---------------------------------------------------------------------------
# reports


@dataclass
class LabReport:
    """Outcome of one verification experiment."""

    experiment: str
    seed: int
    n_levels: list
    metrics: dict = field(default_factory=dict)     # name -> value per level
    thresholds: dict = field(default_factory=dict)  # recorded pass criteria
    passed: bool = False
    notes: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "n_levels": list(self.n_levels),
            "metrics": self.metrics,
            "thresholds": self.thresholds,
            "passed": self.passed,
            "notes": list(self.notes),
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def summary(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.experiment} "
                 f"(seed {self.seed}, scales {list(self.n_levels)})"]
        for name, vals in self.metrics.items():
            shown = ", ".join(f"{v:.5g}" for v in vals)
            lines.append(f"    {name}: {shown}")
        for note in self.notes:
            lines.append(f"    note: {note}")
        return "\n".join(lines)


def _net_decrease_ok(values, allowance: float) -> bool:
    """Net decrease first->last with per-step increases within the allowance."""
    if len(values) < 2:
        return False
    steps_ok = all(b <= a + allowance for a, b in zip(values, values[1:]))
    return values[-1] < values[0] and steps_ok


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# shared sampling helpers


def _probe_count_diffs(events: np.ndarray, probes: np.ndarray, h: float,
                       n: int) -> np.ndarray:
    np_ = np.searchsorted(events, n * (probes + h), side="right")
    nt = np.searchsorted(events, n * probes, side="right")
    nm = np.searchsorted(events, n * (probes - h), side="right")
    return (np_ - nt) - (nt - nm)


def _h0_probe_samples(T: float, h: float, grid_step: float, probes: np.ndarray,
                      n_paths: int, seed: int, stream: tuple) -> np.ndarray:
    """Null limit-process marginals at the probe times, one row per path."""
    cfg = WindowConfig(T, (h,), grid_step)
    idx = np.array([cfg.lattice_index(t, "probe time") for t in probes])
    k = cfg.lattice_index(h, "window size")
    out = np.empty((n_paths, idx.size))
    for rows, w in brownian_blocks(substream(seed, *stream), n_paths,
                                   cfg.lattice_size(), grid_step):
        out[rows] = (w[:, idx + k] - 2.0 * w[:, idx] + w[:, idx - k]) / math.sqrt(2.0 * h)
    return out


def _snap_probes(cfg: WindowConfig, h: float, probes) -> np.ndarray:
    lo, hi = h, cfg.T - h
    out = []
    for t in probes:
        t = cfg.snap(min(max(t, lo), hi))
        out.append(t)
    return np.array(sorted(set(out)))


def _snap_change_point(model: ChangePointModel, cfg: WindowConfig,
                       report: LabReport) -> ChangePointModel:
    """The model with c moved to the nearest grid node, noted in the report."""
    c = cfg.snap(model.c)
    if c == model.c:
        return model
    report.notes.append(f"change point snapped to grid: {model.c} -> {c}")
    return replace(model, c=c)


def _observed(model: ChangePointModel, probes: np.ndarray, h: float) -> ChangePointModel:
    """The model cut at the last time a window (t-h, t+h] around a probe reads.

    The cut keeps (0, c], so the phi1 segment is untouched, and the phi2
    segment draws from its own substream with a skip-ahead that depends
    on n*c only.  Chunked draws are prefix-consistent, so the events in
    (0, n*T'] equal those of the full-horizon simulation bit for bit.
    """
    return replace(model, T=min(model.T, max(model.c, float(probes.max()) + h)))


# ---------------------------------------------------------------------------
# experiments


def check_H0_limit(spec: RenewalSpec, T: float, h: float, n_levels, n_reps: int,
                   seed: int, grid_step: float | None = None, probes=None,
                   alpha: float = 0.05, n_ref: int | None = None) -> LabReport:
    """Marginals of the known-scaling statistic approach the null limit.

    At each scale, two-sample KS distances between statistic marginals
    (n_reps replicates) and simulated limit marginals are computed at
    five probe times; the trend of their probe average must decrease and
    every final-level probe must pass the KS test at level alpha
    (Bonferroni-corrected across probes).
    """
    n_levels = [int(n) for n in n_levels]
    report = LabReport("h0_limit", seed, n_levels)
    if n_reps < 2:
        report.notes.append(f"insufficient replicates (n_reps={n_reps}); "
                            "no distribution comparison possible")
        return report
    grid_step = h / 30 if grid_step is None else grid_step
    cfg = WindowConfig(T, (h,), grid_step)
    if probes is None:
        probes = [h, T / 4, T / 2, 3 * T / 4, T - h]
    probes = _snap_probes(cfg, h, probes)
    n_ref = 4 * n_reps if n_ref is None else n_ref

    ref = _h0_probe_samples(T, h, grid_step, probes, n_ref, seed, stream=(90,))
    scale_count = math.sqrt(2.0 * h * spec.sigma2 / spec.mu**3)

    per_level = []
    for li, n in enumerate(n_levels):
        samples = np.empty((n_reps, probes.size))
        for r in range(n_reps):
            seq = simulate_renewal(spec, n * T, seed, stream=(li, r))
            diffs = _probe_count_diffs(seq.events, probes, h, n)
            samples[r] = diffs / (scale_count * math.sqrt(n))
        per_level.append([ks_statistic_2samp(samples[:, j], ref[:, j])
                          for j in range(probes.size)])

    mean_ks = [float(np.mean(row)) for row in per_level]
    allowance = 2.0 * _KS_SD * math.sqrt((n_reps + n_ref) / (n_reps * n_ref))
    critical = ks_critical_2samp(alpha / probes.size, n_reps, n_ref)

    max_ks = [float(np.max(row)) for row in per_level]
    report.metrics["mean_ks"] = mean_ks
    report.metrics["max_ks"] = max_ks
    report.thresholds = {"alpha": alpha, "bonferroni_probes": int(probes.size),
                         "final_critical": critical, "step_allowance": allowance}
    report.details = {"probes": probes.tolist(), "ks_per_probe": per_level,
                      "n_reps": n_reps, "n_ref": n_ref}
    converged_throughout = all(v < critical for v in max_ks)
    trend_ok = len(n_levels) >= 3 and (
        converged_throughout or _net_decrease_ok(mean_ks, allowance))
    final_ok = max_ks[-1] < critical
    report.details["criteria"] = {"trend": trend_ok, "final_level": final_ok}
    report.passed = trend_ok and final_ok
    if converged_throughout:
        report.notes.append("all scales below the critical value; "
                            "no trend demanded of pure noise")
    elif not trend_ok:
        report.notes.append("KS trend did not decrease across scales")
    if not final_ok:
        report.notes.append("final-level KS above critical value")
    return report


def check_alternative_limit(model: ChangePointModel, h: float, n_levels,
                            n_reps: int, seed: int,
                            grid_step: float | None = None, probes=None,
                            alpha: float = 0.01,
                            n_ref: int | None = None) -> LabReport:
    """Statistic marginals near the change point approach the limit process.

    Two suites per probe and scale: the centered known-scaling statistic
    against simulated limit marginals, and the estimated-scaling
    statistic minus the distorted systematic term against the distortion
    times the limit.  The trend criterion applies to the first suite
    only (the second keeps an O(1) remainder near the change point, see
    the module docstring); the final scale must pass per-probe KS gates
    in both suites.
    """
    n_levels = [int(n) for n in n_levels]
    report = LabReport("alternative_limit", seed, n_levels)
    if n_reps < 2:
        report.notes.append(f"insufficient replicates (n_reps={n_reps})")
        return report
    grid_step = h / 30 if grid_step is None else grid_step
    cfg = WindowConfig(model.T, (h,), grid_step)
    model = _snap_change_point(model, cfg, report)
    if probes is None:
        probes = [model.c - h / 2, model.c, model.c + h / 2]
    probes = _snap_probes(cfg, h, probes)
    n_ref = 4 * n_reps if n_ref is None else n_ref

    p1 = TheoryParams.from_model(model, h, n=1)
    grid, ref_paths = simulate_L_paths(cfg, p1, seed, n_ref, stream=(91,))
    probe_col = np.searchsorted(grid, probes)
    ref = ref_paths[:, probe_col]
    delta_t = distortion(probes, p1)
    observed = _observed(model, probes, h)

    ks_gamma, ks_g = [], []
    for li, n in enumerate(n_levels):
        p_n = p1.at_scale(n)
        m_t, s_t, fin_t = (f(probes, p_n) for f in (m_function, s_function, shark_fin))
        gam = np.empty((n_reps, probes.size))
        gcen = np.full((n_reps, probes.size), np.nan)
        for r in range(n_reps):
            seq = simulate_compound(observed.with_scale(n), seed, stream=(li, r))
            est = window_estimate_series(seq, probes, h, n)
            gam[r] = (est.count_diff - m_t) / s_t
            ok = est.s_hat > 0.0
            gcen[r, ok] = est.count_diff[ok] / est.s_hat[ok] - delta_t[ok] * fin_t[ok]
        ks_gamma.append([ks_statistic_2samp(gam[:, j], ref[:, j])
                         for j in range(probes.size)])
        ks_g.append([ks_statistic_2samp(gcen[~np.isnan(gcen[:, j]), j],
                                        delta_t[j] * ref[:, j])
                     for j in range(probes.size)])

    mean_gamma = [float(np.mean(row)) for row in ks_gamma]
    mean_g = [float(np.mean(row)) for row in ks_g]
    allowance = 2.0 * _KS_SD * math.sqrt((n_reps + n_ref) / (n_reps * n_ref))
    critical = ks_critical_2samp(alpha / (2 * probes.size), n_reps, n_ref)

    report.metrics["ks_gamma_vs_limit"] = mean_gamma
    report.metrics["ks_estimated_vs_distorted_limit"] = mean_g
    report.thresholds = {"alpha": alpha, "bonferroni_tests": int(2 * probes.size),
                         "final_critical": critical, "step_allowance": allowance}
    report.details = {"probes": probes.tolist(), "ks_gamma": ks_gamma,
                      "ks_estimated": ks_g, "n_reps": n_reps, "n_ref": n_ref}
    gamma_max = [float(np.max(row)) for row in ks_gamma]
    gamma_converged = all(v < critical for v in gamma_max)
    trend_ok = len(n_levels) >= 3 and (
        gamma_converged or _net_decrease_ok(mean_gamma, allowance))
    final_ok = gamma_max[-1] < critical and max(ks_g[-1]) < critical
    report.details["criteria"] = {"trend": trend_ok, "final_level": final_ok}
    report.passed = trend_ok and final_ok
    if gamma_converged:
        report.notes.append("centered-statistic suite below the critical value "
                            "at all scales; no trend demanded of pure noise")
    elif not trend_ok:
        report.notes.append("centered-statistic KS trend did not decrease across scales")
    if not final_ok:
        report.notes.append("final-level KS above critical value")
    return report


def check_window_lln(model: ChangePointModel, h: float, n_levels, seed: int,
                     grid_step: float | None = None, n_reps: int = 3,
                     final_tol: float = 0.05) -> LabReport:
    """Windowed counts over nh converge uniformly to the local rate limits."""
    n_levels = [int(n) for n in n_levels]
    report = LabReport("window_lln", seed, n_levels)
    grid_step = h / 30 if grid_step is None else grid_step
    cfg = WindowConfig(model.T, (h,), grid_step)
    model = _snap_change_point(model, cfg, report)
    grid = cfg.grid(h)
    p1 = TheoryParams.from_model(model, h, n=1)
    rate_ri = 1.0 / mu_ri_theory(grid, p1)
    rate_le = 1.0 / mu_le_theory(grid, p1)

    sup_right, sup_left = [], []
    for li, n in enumerate(n_levels):
        errs_r, errs_l = [], []
        for r in range(n_reps):
            seq = simulate_compound(model.with_scale(n), seed, stream=(li, r))
            est = window_estimate_series(seq, grid, h, n)
            errs_r.append(np.max(np.abs(est.count_right / (n * h) - rate_ri)))
            errs_l.append(np.max(np.abs(est.count_left / (n * h) - rate_le)))
        sup_right.append(float(np.mean(errs_r)))
        sup_left.append(float(np.mean(errs_l)))

    report.metrics["sup_rate_error_right"] = sup_right
    report.metrics["sup_rate_error_left"] = sup_left
    report.thresholds = {"final_tol": final_tol, "n_reps": n_reps}
    trend_ok = (_strictly_decreasing(sup_right) and _strictly_decreasing(sup_left)
                and len(n_levels) >= 3)
    final_ok = sup_right[-1] < final_tol and sup_left[-1] < final_tol
    report.details["criteria"] = {"trend": trend_ok, "final_level": final_ok}
    report.passed = trend_ok and final_ok
    if not trend_ok:
        report.notes.append("sup-norm rate error did not decrease across scales")
    if not final_ok:
        report.notes.append(f"final sup-norm rate error above {final_tol}")
    return report


def check_estimator_consistency(model: ChangePointModel, h: float, n_levels,
                                seed: int, grid_step: float | None = None,
                                n_reps: int = 3,
                                final_tol: float = 0.05) -> LabReport:
    """Windowed estimators converge to their interpolated limits.

    Tracks sup-norm errors of the right-window mean and variance
    estimators against their theoretical limits and of the scaling ratio
    s/s_hat against the distortion; all three must decrease strictly
    across scales and the final ratio error must beat final_tol.
    """
    n_levels = [int(n) for n in n_levels]
    report = LabReport("estimator_consistency", seed, n_levels)
    grid_step = h / 30 if grid_step is None else grid_step
    cfg = WindowConfig(model.T, (h,), grid_step)
    model = _snap_change_point(model, cfg, report)
    grid = cfg.grid(h)
    p1 = TheoryParams.from_model(model, h, n=1)
    mu_ri = mu_ri_theory(grid, p1)
    sig_ri = sigma2_ri_theory(grid, p1)
    delta_t = distortion(grid, p1)

    sup_mu, sup_sig, sup_ratio = [], [], []
    for li, n in enumerate(n_levels):
        p_n = p1.at_scale(n)
        s_n = s_function(grid, p_n)
        errs = np.empty((n_reps, 3))
        for r in range(n_reps):
            seq = simulate_compound(model.with_scale(n), seed, stream=(li, r))
            est = window_estimate_series(seq, grid, h, n)
            ok = est.s_hat > 0.0
            errs[r, 0] = np.max(np.abs(est.mean_right - mu_ri))
            errs[r, 1] = np.max(np.abs(est.var_right - sig_ri))
            errs[r, 2] = np.max(np.abs(s_n[ok] / est.s_hat[ok] - delta_t[ok]))
        sup_mu.append(float(errs[:, 0].mean()))
        sup_sig.append(float(errs[:, 1].mean()))
        sup_ratio.append(float(errs[:, 2].mean()))

    report.metrics["sup_mu_right_error"] = sup_mu
    report.metrics["sup_sigma2_right_error"] = sup_sig
    report.metrics["sup_scaling_ratio_error"] = sup_ratio
    report.thresholds = {"final_tol": final_tol, "n_reps": n_reps}
    trend_ok = (len(n_levels) >= 3 and _strictly_decreasing(sup_mu)
                and _strictly_decreasing(sup_sig)
                and _strictly_decreasing(sup_ratio))
    final_ok = sup_ratio[-1] < final_tol
    report.details["criteria"] = {"trend": trend_ok, "final_level": final_ok}
    report.passed = trend_ok and final_ok
    if not trend_ok:
        report.notes.append("some sup-norm error did not decrease strictly")
    if not final_ok:
        report.notes.append(f"final scaling-ratio error above {final_tol}")
    return report


def check_window_variance_forms(model: ChangePointModel, h: float, seed: int,
                                n_reps: int = 1000, probes=None,
                                rel_tol: float = 0.02) -> LabReport:
    """Adjudicate the two readings of the window-variance interpolation.

    The replicate-averaged right-window variance estimator at interior
    probe times is compared against the mixture interpolation (cross
    term (mu1-mu2)^2) and against the variant with cross term
    (mu1+mu2)^2.  Passing means: the mixture form matches simulation
    within rel_tol at every probe while the variant misses at one or
    more probes.
    """
    report = LabReport("window_variance_forms", seed, [1])
    c, T = model.c, model.T
    if probes is None:
        probes = [c - 5 * h / 6, c - 2 * h / 3, c - h / 2, c - h / 3, c - h / 6]
    probes = np.asarray(sorted(probes), dtype=float)
    if np.any(probes <= c - h) or np.any(probes > c):
        raise ValueError("probes must lie inside the interpolation interval (c-h, c]")
    p1 = TheoryParams.from_model(model, h, n=1)
    mix = sigma2_ri_theory(probes, p1)
    alt = sigma2_ri_theory(probes, p1, sum_cross_term=True)

    observed = _observed(model, probes, h).with_scale(1)
    acc = np.zeros(probes.size)
    for r in range(n_reps):
        seq = simulate_compound(observed, seed, stream=(r,))
        acc += window_estimate_series(seq, probes, h, 1).var_right
    emp = acc / n_reps

    dev_mix = np.abs(emp / mix - 1.0)
    dev_alt = np.abs(emp / alt - 1.0)
    report.metrics["max_rel_dev_mixture"] = [float(dev_mix.max())]
    report.metrics["max_rel_dev_sum_variant"] = [float(dev_alt.max())]
    report.thresholds = {"rel_tol": rel_tol, "n_reps": n_reps}
    report.details = {
        "probes": probes.tolist(), "empirical": emp.tolist(),
        "mixture_form": mix.tolist(), "sum_variant": alt.tolist(),
        "rel_dev_mixture": dev_mix.tolist(), "rel_dev_sum_variant": dev_alt.tolist(),
    }
    mixture_ok = bool(np.all(dev_mix <= rel_tol))
    variant_rejected = bool(np.any(dev_alt > rel_tol))
    report.details["criteria"] = {"mixture_within_tol": mixture_ok,
                                  "sum_variant_rejected": variant_rejected}
    report.passed = mixture_ok and variant_rejected
    if not mixture_ok:
        report.notes.append("mixture form missed the simulated window variance")
    if not variant_rejected:
        report.notes.append("sum-cross-term variant was not distinguishable")
    if math.isclose(model.phi1.mu, model.phi2.mu, rel_tol=1e-12):
        report.notes.append("mu1 == mu2: the two forms coincide; adjudication is vacuous")
    return report


# ---------------------------------------------------------------------------
# packaged suite


def run_verification_suite(seed: int = DEFAULT_SUITE_SEED,
                           scale: str = "full") -> list:
    """Run the default verification experiments and return their reports.

    scale="full" uses replication levels sized so that every criterion
    is met with margin; "smoke" is a fast variant for CI-style runs.
    """
    if scale not in ("full", "smoke"):
        raise ValueError(f"scale must be 'full' or 'smoke', got {scale!r}")
    full = scale == "full"
    h = 150.0
    reports = [
        check_H0_limit(RenewalSpec.gamma(1, 1), 1000.0, h,
                       n_levels=(1, 4, 16),
                       n_reps=6000 if full else 600,
                       seed=seed, grid_step=5.0),
        check_alternative_limit(DISTORTION_A, h, n_levels=(1, 4, 16),
                                n_reps=400 if full else 120,
                                seed=seed, grid_step=5.0),
        check_window_lln(DISTORTION_B, h, n_levels=(16, 64, 256) if full
                         else (4, 16, 64),
                         seed=seed, grid_step=5.0,
                         final_tol=0.05 if full else 0.12),
        replace(check_estimator_consistency(DISTORTION_A, h, n_levels=(1, 4, 16),
                                            seed=seed, grid_step=5.0),
                experiment="estimator_consistency_shape_change"),
        replace(check_estimator_consistency(DISTORTION_B, h, n_levels=(1, 4, 16),
                                            seed=seed, grid_step=5.0),
                experiment="estimator_consistency_rate_change"),
        check_window_variance_forms(DISTORTION_A, h, seed=seed,
                                    n_reps=1000 if full else 200),
    ]
    return reports
