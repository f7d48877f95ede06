"""Empirical verification harness for the limit and consistency statements.

Each check runs a seeded Monte Carlo experiment across several scales n,
reduces it to one metric per scale, and reports pass/fail against fixed,
recorded thresholds.  Two kinds of criteria appear:

* convergence trends: the metric must decrease across the scales.  For
  estimator sup-norm errors, each averaged over a fixed three replicates
  per scale (recorded as n_reps), the decrease is required strictly.  For
  Kolmogorov-Smirnov distances the two-sample statistic saturates at its
  sampling noise floor once the distributions are close, so the trend is
  judged as a net decrease from first to last scale with per-step
  increases bounded by twice the KS noise standard deviation
  0.26*sqrt((m+n)/(m*n)); and when every scale already beats the final
  critical value, the distance is statistically indistinguishable from
  zero throughout and no ordering is demanded of pure noise.
* final-level gates: the last scale must beat a fixed threshold (a KS
  critical value at level 0.05 or 0.01, Bonferroni-corrected across
  probes, or an absolute sup-norm bound).  Probes, change points and
  grids sit on a lattice of fixed step h/30.

One caveat is recorded rather than tested away: with estimated scaling,
the statistic centered by the distorted systematic term keeps an O(1)
remainder near the change point (the systematic term grows like
sqrt(n*h) while the scaling estimator's fluctuation shrinks like
1/sqrt(n*h), so their product does not vanish).  That suite therefore
faces only the final-level KS gate, never a trend requirement.

Every experiment is reproducible bit-exactly from (experiment id, seed).
Probe times are fixed and seed-independent, so reports are comparable
across runs: h, T/4, T/2, 3T/4 and T-h for the null limit; c-h/2, c and
c+h/2 for the alternative limit (both clamped to [h, T-h], snapped to the
grid and compared with n_ref = 4*n_reps limit paths); and c-kh/6 for
k = 5, ..., 1, inside (c-h, c], for the window-variance forms.  Reports
record their probes, and n_ref, in `details`.  Trend criteria always use
at least three scales.
Change-point replicates that are read only at probe windows are
simulated up to the last time a window reads; the events there are
those of the full-horizon run, bit for bit (see `_observed`).

Replicate r of level li draws from its own substream (li, r), so the
replicates run in any order and in any process.  `run_verification_suite`
runs contiguous replicate blocks of every level on one `process_map`
(the package's process pool, with one worker per available CPU, as for
the null threshold) and reduces the rows in replicate order, so its
reports are byte-identical at every pool size.  A check called directly
runs its replicates in-process.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .filtered import window_estimate_series
from .presets import DEFAULT_H, DEFAULT_SUITE_SEED, DISTORTION_A, DISTORTION_B
from .renewal import (ChangePointModel, RenewalSpec, WindowConfig, process_map,
                      simulate_compound, simulate_renewal, substream, worker_count)
from .theory import (TheoryParams, brownian_blocks, distortion, m_function,
                     mu_le_theory, mu_ri_theory, s_function, shark_fin,
                     sigma2_ri_theory, simulate_L_paths)

__all__ = [
    "LabReport",
    "ks_statistic_2samp",
    "ks_critical_2samp",
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

# Fixed settings of the checks: grid step h/30, limit reference paths per
# replicate, replicates per scale of the sup-norm checks, KS levels of the
# null and alternative limits, variance-form match and final scaling-ratio
# error.
_STEPS_PER_WINDOW = 30
_REF_PER_REPLICATE = 4
_SUP_NORM_REPS = 3
_H0_ALPHA = 0.05
_ALTERNATIVE_ALPHA = 0.01
_VARIANCE_REL_TOL = 0.02
_RATIO_FINAL_TOL = 0.05


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


def ks_critical_2samp(alpha: float, m: int, n: int) -> float:
    """Asymptotic two-sample critical value at level alpha: the upper alpha
    quantile of the Kolmogorov distribution, scaled."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) * math.sqrt((m + n) / (m * n))


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
        return asdict(self)

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
    steps_ok = all(b <= a + allowance for a, b in zip(values, values[1:]))
    return values[-1] < values[0] and steps_ok


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _verdict(report: LabReport, **criteria) -> LabReport:
    """Record criteria given as name=(holds, note if it fails); pass iff all hold.
    A trend criterion fails below three scales, whatever it says."""
    if "trend" in criteria and len(report.n_levels) < 3:
        criteria["trend"] = (False, "a trend needs at least three scales, "
                                    f"got {len(report.n_levels)}")
    report.details["criteria"] = {name: ok for name, (ok, _) in criteria.items()}
    report.passed = all(ok for ok, _ in criteria.values())
    report.notes += [note for ok, note in criteria.values() if not ok and note]
    return report


def _ks_verdict(report: LabReport, n_reps: int, n_ref: int, alpha: float,
                trend_metric: str, trend_ks, final_ks, *, tests_key: str,
                converged_note: str, trend_note: str) -> LabReport:
    """The KS criteria of the limit checks.

    trend_ks holds, per scale, the per-probe KS distances of the suite
    whose probe mean (recorded as trend_metric) must show a net decrease
    with per-step increases within the allowance, unless every scale is
    already below the critical value.  Every distance in final_ks (the
    last scale of every suite) must beat the critical value at level
    alpha, Bonferroni-corrected over len(final_ks) tests.
    """
    allowance = 2.0 * _KS_SD * math.sqrt((n_reps + n_ref) / (n_reps * n_ref))
    critical = ks_critical_2samp(alpha / len(final_ks), n_reps, n_ref)
    means = report.metrics[trend_metric] = [float(np.mean(row)) for row in trend_ks]
    report.thresholds = {"alpha": alpha, tests_key: len(final_ks),
                         "final_critical": critical, "step_allowance": allowance}
    report.details.update(n_reps=n_reps, n_ref=n_ref)
    converged = all(max(row) < critical for row in trend_ks)
    if converged and len(report.n_levels) >= 3:
        report.notes.append(f"{converged_note}; no trend demanded of pure noise")
    trend_ok = converged or _net_decrease_ok(means, allowance)
    return _verdict(report, trend=(trend_ok, None if converged else trend_note),
                    final_level=(max(final_ks) < critical,
                                 "final-level KS above critical value"))


# ---------------------------------------------------------------------------
# replicate rows

# (map, workers) of the running suite; checks called directly see the
# default and run their replicates in-process.
_SUITE_MAP: ContextVar = ContextVar("sharkfin_lab_map", default=(map, 1))


def _block_rows(task) -> list:
    row, li, n, r0, r1 = task
    return [row(li, n, r) for r in range(r0, r1)]


def _replicate_rows(row, n_levels, n_reps: int) -> list:
    """For each level li at scale n, the rows row(li, n, r), r < n_reps.

    row is a module-level function, or a partial of one, so that the
    suite's pool can pickle it.  Each level is split into
    min(workers, n_reps) contiguous replicate blocks, which the suite's
    map returns in order; checks called directly map them in-process.
    """
    pmap, workers = _SUITE_MAP.get()
    k = max(1, min(workers, n_reps))
    tasks = [(row, li, n, n_reps * b // k, n_reps * (b + 1) // k)
             for li, n in enumerate(n_levels) for b in range(k)]
    blocks = iter(pmap(_block_rows, tasks))
    return [[x for _ in range(k) for x in next(blocks)] for _ in n_levels]


# ---------------------------------------------------------------------------
# shared sampling helpers


def _setup(experiment: str, seed: int, n_levels, h: float, T: float,
           model: ChangePointModel | None = None):
    """The report, the WindowConfig at step h/30 and, given a model, the
    model with c snapped to that grid (noted in the report) and its
    scale-1 TheoryParams."""
    report = LabReport(experiment, seed, [int(n) for n in n_levels])
    cfg = WindowConfig(T, (h,), h / _STEPS_PER_WINDOW)
    if model is None:
        return report, cfg, None, None
    c = cfg.snap(model.c)
    if c != model.c:
        report.notes.append(f"change point snapped to grid: {model.c} -> {c}")
        model = replace(model, c=c)
    return report, cfg, model, TheoryParams.from_model(model, h, n=1)


def _probe_count_diffs(events: np.ndarray, probes: np.ndarray, h: float,
                       n: int) -> np.ndarray:
    np_ = np.searchsorted(events, n * (probes + h), side="right")
    nt = np.searchsorted(events, n * probes, side="right")
    nm = np.searchsorted(events, n * (probes - h), side="right")
    return (np_ - nt) - (nt - nm)


def _h0_probe_samples(cfg: WindowConfig, h: float, probes: np.ndarray,
                      n_paths: int, seed: int, stream: tuple) -> np.ndarray:
    """Null limit-process marginals at the probe times, one row per path."""
    idx = np.array([cfg.lattice_index(t, "probe time") for t in probes])
    k = cfg.lattice_index(h, "window size")
    out = np.empty((n_paths, idx.size))
    for rows, w, _ in brownian_blocks(substream(seed, *stream), n_paths,
                                      cfg.lattice_size(), cfg.grid_step):
        out[rows] = (w[:, idx + k] - 2.0 * w[:, idx] + w[:, idx - k]) / math.sqrt(2.0 * h)
    return out


def _snap_probes(cfg: WindowConfig, h: float, probes) -> np.ndarray:
    """Probe times clamped to [h, T-h], snapped to the grid, sorted, unique."""
    return np.unique([cfg.snap(t) for t in np.clip(probes, h, cfg.T - h)])


def _observed(model: ChangePointModel, probes: np.ndarray, h: float) -> ChangePointModel:
    """The model cut at the last time a window (t-h, t+h] around a probe reads.

    Each probe layout of the checks ends its last window after c, so the
    cut keeps (0, c] and the phi1 segment is untouched; the phi2 segment
    draws from its own substream with a skip-ahead that depends on n*c
    only.  Chunked draws are prefix-consistent and the tie repair is causal
    (a time depends on none after it), so the events in (0, n*T'] equal
    those of the full-horizon simulation bit for bit.
    """
    return replace(model, T=min(model.T, float(probes.max()) + h))


def _sup_norm_row(model, h, grid, seed, errors, li, n, r) -> dict:
    seq = simulate_compound(model.with_scale(n), seed, stream=(li, r))
    return errors(window_estimate_series(seq, grid, h, n), n)


def _sup_norm_trend(report: LabReport, model: ChangePointModel, h: float,
                    grid: np.ndarray, seed: int, final_tol: float, errors) -> bool:
    """Record, per scale, the mean over _SUP_NORM_REPS replicates of each
    sup-norm error on grid.

    errors(est, n), a partial of a module-level function, maps one
    replicate's window estimates at scale n to {metric name: sup-norm
    error}.  Returns the trend criterion: every error decreasing strictly
    across the scales.
    """
    row = partial(_sup_norm_row, model, h, grid, seed, errors)
    for reps in _replicate_rows(row, report.n_levels, _SUP_NORM_REPS):
        for name in reps[0]:
            report.metrics.setdefault(name, []).append(
                float(np.mean([e[name] for e in reps])))
    report.thresholds = {"final_tol": final_tol, "n_reps": _SUP_NORM_REPS}
    return all(_strictly_decreasing(v) for v in report.metrics.values())


# ---------------------------------------------------------------------------
# experiments


def _h0_row(spec, T, h, probes, scale_count, seed, li, n, r) -> np.ndarray:
    seq = simulate_renewal(spec, n * T, seed, stream=(li, r))
    return _probe_count_diffs(seq.events, probes, h, n) / (scale_count * math.sqrt(n))


def check_H0_limit(spec: RenewalSpec, T: float, h: float, n_levels, n_reps: int,
                   seed: int) -> LabReport:
    """Marginals of the known-scaling statistic approach the null limit.

    At each scale, two-sample KS distances between statistic marginals
    (n_reps replicates) and simulated limit marginals are computed at
    five probe times on the grid of step h/30; the trend of their probe
    average must decrease and every final-level probe must pass the KS
    test at level 0.05 (Bonferroni-corrected across probes).
    """
    report, cfg, _, _ = _setup("h0_limit", seed, n_levels, h, T)
    if n_reps < 2:
        report.notes.append(f"insufficient replicates (n_reps={n_reps}); "
                            "no distribution comparison possible")
        return report
    probes = _snap_probes(cfg, h, [h, T / 4, T / 2, 3 * T / 4, T - h])
    n_ref = _REF_PER_REPLICATE * n_reps

    ref = _h0_probe_samples(cfg, h, probes, n_ref, seed, stream=(90,))
    scale_count = math.sqrt(2.0 * h * spec.sigma2 / spec.mu**3)

    per_level = []
    row = partial(_h0_row, spec, T, h, probes, scale_count, seed)
    for rows in _replicate_rows(row, report.n_levels, n_reps):
        samples = np.array(rows)
        per_level.append([ks_statistic_2samp(samples[:, j], ref[:, j])
                          for j in range(probes.size)])

    report.details = {"probes": probes.tolist(), "ks_per_probe": per_level}
    _ks_verdict(report, n_reps, n_ref, _H0_ALPHA, "mean_ks", per_level, per_level[-1],
                tests_key="bonferroni_probes",
                converged_note="all scales below the critical value",
                trend_note="KS trend did not decrease across scales")
    report.metrics["max_ks"] = [float(np.max(row)) for row in per_level]
    return report


def _alternative_row(observed, p1, probes, h, delta_t, seed, li, n, r) -> np.ndarray:
    """The centered known-scaling statistic and, where s_hat > 0, the
    estimated-scaling one minus the distorted systematic term (else nan)."""
    p_n = p1.at_scale(n)
    m_t, s_t, fin_t = (f(probes, p_n) for f in (m_function, s_function, shark_fin))
    seq = simulate_compound(observed.with_scale(n), seed, stream=(li, r))
    est = window_estimate_series(seq, probes, h, n)
    gcen = np.full(probes.size, np.nan)
    ok = est.s_hat > 0.0
    gcen[ok] = est.count_diff[ok] / est.s_hat[ok] - delta_t[ok] * fin_t[ok]
    return np.stack(((est.count_diff - m_t) / s_t, gcen))


def check_alternative_limit(model: ChangePointModel, h: float, n_levels,
                            n_reps: int, seed: int) -> LabReport:
    """Statistic marginals near the change point approach the limit process.

    Two suites per probe and scale: the centered known-scaling statistic
    against simulated limit marginals, and the estimated-scaling
    statistic minus the distorted systematic term against the distortion
    times the limit.  The trend criterion applies to the first suite
    only (the second keeps an O(1) remainder near the change point, see
    the module docstring); the final scale must pass per-probe KS gates
    in both suites at level 0.01, Bonferroni-corrected across all tests.
    Probes and the change point sit on the grid of step h/30.
    """
    report, cfg, model, p1 = _setup("alternative_limit", seed, n_levels, h,
                                    model.T, model)
    if n_reps < 2:
        report.notes.append(f"insufficient replicates (n_reps={n_reps})")
        return report
    probes = _snap_probes(cfg, h, [model.c - h / 2, model.c, model.c + h / 2])
    n_ref = _REF_PER_REPLICATE * n_reps

    grid, ref_paths = simulate_L_paths(p1, cfg.grid_step, seed, n_ref, stream=(91,))
    ref = ref_paths[:, np.searchsorted(grid, probes)]
    delta_t = distortion(probes, p1)
    row = partial(_alternative_row, _observed(model, probes, h), p1, probes, h,
                  delta_t, seed)

    ks_gamma, ks_g = [], []
    for rows in _replicate_rows(row, report.n_levels, n_reps):
        gam, gcen = np.array(rows).transpose(1, 0, 2)
        ks_gamma.append([ks_statistic_2samp(gam[:, j], ref[:, j])
                         for j in range(probes.size)])
        ks_g.append([ks_statistic_2samp(gcen[~np.isnan(gcen[:, j]), j],
                                        delta_t[j] * ref[:, j])
                     for j in range(probes.size)])

    report.details = {"probes": probes.tolist(), "ks_gamma": ks_gamma,
                      "ks_estimated": ks_g}
    _ks_verdict(report, n_reps, n_ref, _ALTERNATIVE_ALPHA, "ks_gamma_vs_limit",
                ks_gamma, ks_gamma[-1] + ks_g[-1], tests_key="bonferroni_tests",
                converged_note="centered-statistic suite below the critical value "
                               "at all scales",
                trend_note="centered-statistic KS trend did not decrease across scales")
    report.metrics["ks_estimated_vs_distorted_limit"] = [
        float(np.mean(row)) for row in ks_g]
    return report


def _rate_errors(h, rate_ri, rate_le, est, n) -> dict:
    return {"sup_rate_error_right": np.max(np.abs(est.count_right / (n * h) - rate_ri)),
            "sup_rate_error_left": np.max(np.abs(est.count_left / (n * h) - rate_le))}


def check_window_lln(model: ChangePointModel, h: float, n_levels, seed: int,
                     final_tol: float = 0.05) -> LabReport:
    """Windowed counts over nh converge uniformly to the local rate limits.

    Sup-norm errors over the grid of step h/30 must decrease strictly
    across scales and the final ones must beat final_tol.
    """
    report, cfg, model, p1 = _setup("window_lln", seed, n_levels, h, model.T, model)
    grid = cfg.grid(h)
    errors = partial(_rate_errors, h, 1.0 / mu_ri_theory(grid, p1),
                     1.0 / mu_le_theory(grid, p1))
    trend_ok = _sup_norm_trend(report, model, h, grid, seed, final_tol, errors)
    return _verdict(
        report, trend=(trend_ok, "sup-norm rate error did not decrease across scales"),
        final_level=(all(v[-1] < final_tol for v in report.metrics.values()),
                     f"final sup-norm rate error above {final_tol}"))


def _estimator_errors(grid, p1, mu_ri, sig_ri, delta_t, est, n) -> dict:
    s_n = s_function(grid, p1.at_scale(n))
    ok = est.s_hat > 0.0
    return {"sup_mu_right_error": np.max(np.abs(est.mean_right - mu_ri)),
            "sup_sigma2_right_error": np.max(np.abs(est.var_right - sig_ri)),
            "sup_scaling_ratio_error": np.max(np.abs(s_n[ok] / est.s_hat[ok] - delta_t[ok]))}


def check_estimator_consistency(model: ChangePointModel, h: float, n_levels,
                                seed: int) -> LabReport:
    """Windowed estimators converge to their interpolated limits.

    Tracks sup-norm errors over the grid of step h/30 of the right-window
    mean and variance estimators against their theoretical limits and of
    the scaling ratio s/s_hat against the distortion; all three must
    decrease strictly across scales and the final ratio error must beat
    0.05.
    """
    report, cfg, model, p1 = _setup("estimator_consistency", seed, n_levels, h,
                                    model.T, model)
    grid = cfg.grid(h)
    errors = partial(_estimator_errors, grid, p1, mu_ri_theory(grid, p1),
                     sigma2_ri_theory(grid, p1), distortion(grid, p1))
    trend_ok = _sup_norm_trend(report, model, h, grid, seed, _RATIO_FINAL_TOL, errors)
    return _verdict(
        report, trend=(trend_ok, "some sup-norm error did not decrease strictly"),
        final_level=(report.metrics["sup_scaling_ratio_error"][-1] < _RATIO_FINAL_TOL,
                     f"final scaling-ratio error above {_RATIO_FINAL_TOL}"))


def _variance_row(observed, probes, h, seed, li, n, r) -> np.ndarray:
    # one level at scale 1, whose replicates draw from substreams (r,)
    seq = simulate_compound(observed.with_scale(n), seed, stream=(r,))
    return window_estimate_series(seq, probes, h, n).var_right


def check_window_variance_forms(model: ChangePointModel, h: float, seed: int,
                                n_reps: int = 1000) -> LabReport:
    """Adjudicate the two readings of the window-variance interpolation.

    The replicate-averaged right-window variance estimator at interior
    probe times is compared against the mixture interpolation (cross
    term (mu1-mu2)^2) and against the variant with cross term
    (mu1+mu2)^2.  Passing means: the mixture form matches simulation
    within 2 % at every probe while the variant misses at one or more
    probes.
    """
    report = LabReport("window_variance_forms", seed, [1])
    if n_reps < 1:
        report.notes.append(f"insufficient replicates (n_reps={n_reps})")
        return report
    c = model.c
    probes = np.array([c - 5 * h / 6, c - 2 * h / 3, c - h / 2, c - h / 3, c - h / 6])
    p1 = TheoryParams.from_model(model, h, n=1)
    mix = sigma2_ri_theory(probes, p1)
    alt = sigma2_ri_theory(probes, p1, sum_cross_term=True)

    row = partial(_variance_row, _observed(model, probes, h), probes, h, seed)
    acc = np.zeros(probes.size)
    for var_right in _replicate_rows(row, [1], n_reps)[0]:
        acc += var_right
    emp = acc / n_reps

    dev_mix = np.abs(emp / mix - 1.0)
    dev_alt = np.abs(emp / alt - 1.0)
    report.metrics["max_rel_dev_mixture"] = [float(dev_mix.max())]
    report.metrics["max_rel_dev_sum_variant"] = [float(dev_alt.max())]
    report.thresholds = {"rel_tol": _VARIANCE_REL_TOL, "n_reps": n_reps}
    report.details = {
        "probes": probes.tolist(), "empirical": emp.tolist(),
        "mixture_form": mix.tolist(), "sum_variant": alt.tolist(),
        "rel_dev_mixture": dev_mix.tolist(), "rel_dev_sum_variant": dev_alt.tolist(),
    }
    _verdict(report,
             mixture_within_tol=(bool(np.all(dev_mix <= _VARIANCE_REL_TOL)),
                                 "mixture form missed the simulated window variance"),
             sum_variant_rejected=(bool(np.any(dev_alt > _VARIANCE_REL_TOL)),
                                   "sum-cross-term variant was not distinguishable"))
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
    The replicates run on one `process_map` with a worker per available
    CPU (`worker_count`); the reports are byte-identical to those of the
    checks called directly, which run in-process.
    """
    if scale not in ("full", "smoke"):
        raise ValueError(f"scale must be 'full' or 'smoke', got {scale!r}")
    full = scale == "full"
    h = DEFAULT_H
    workers = worker_count()
    with process_map(workers) as pmap:
        token = _SUITE_MAP.set((pmap, workers))
        try:
            return [
                check_H0_limit(RenewalSpec.gamma(1, 1), 1000.0, h, n_levels=(1, 4, 16),
                               n_reps=6000 if full else 600, seed=seed),
                check_alternative_limit(DISTORTION_A, h, n_levels=(1, 4, 16),
                                        n_reps=400 if full else 120, seed=seed),
                check_window_lln(DISTORTION_B, h, n_levels=(16, 64, 256) if full
                                 else (4, 16, 64),
                                 seed=seed, final_tol=0.05 if full else 0.12),
                replace(check_estimator_consistency(DISTORTION_A, h, n_levels=(1, 4, 16),
                                                    seed=seed),
                        experiment="estimator_consistency_shape_change"),
                replace(check_estimator_consistency(DISTORTION_B, h, n_levels=(1, 4, 16),
                                                    seed=seed),
                        experiment="estimator_consistency_rate_change"),
                check_window_variance_forms(DISTORTION_A, h, seed=seed,
                                            n_reps=1000 if full else 200),
            ]
        finally:
            _SUITE_MAP.reset(token)
