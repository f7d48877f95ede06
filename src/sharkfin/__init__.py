"""Filtered-derivative change-point analysis for renewal point processes.

The package simulates renewal processes with an optional rate/variance
change point, computes windowed filtered-derivative statistics under
known and estimated scaling, evaluates the closed-form theory of the
statistic near a change point (hat and fin shaped systematic deviation,
estimation distortion, detection-probability bound), simulates the
Gaussian limit process, runs the Monte-Carlo thresholded multiple-filter
test with successive-argmax change-point estimation, and ships an
empirical verification lab for the convergence statements.

`import sharkfin` loads no module, numpy included.  Each name below is
looked up in its module on every access (PEP 562), so the first use of a
name loads that module and what it imports, and a name patched in its
module is what `sharkfin.<name>` returns.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "detector": ("ChangePointEstimate", "DetectionResult", "ThresholdTable", "detect",
                 "estimate_change_points", "merge_across_windows", "simulate_threshold",
                 "threshold_cache_key"),
    "filtered": ("D_process", "G_process", "Gamma_process", "WindowEstimateSeries",
                 "s_hat", "window_estimate_series"),
    "lab": ("LabReport", "check_H0_limit", "check_alternative_limit",
            "check_estimator_consistency", "check_window_lln",
            "check_window_variance_forms", "ks_critical_2samp", "ks_statistic_2samp",
            "run_verification_suite"),
    "presets": ("DISTORTION_A", "DISTORTION_B", "ORIENTATION_MODELS", "SHARK_EAST",
                "SHARK_EAST_INVERTED", "SHARK_WEST", "SHARK_WEST_INVERTED"),
    "renewal": ("ChangePointModel", "ConfigurationError", "EventSequence", "RenewalSpec",
                "WindowConfig", "read_event_file", "register_sampler", "simulate_compound",
                "simulate_renewal", "substream", "write_event_file"),
    "series": ("StatisticSeries", "write_series_csv"),
    "theory": ("SharkShape", "TheoryParams", "brownian_blocks", "classify_shark",
               "detection_bound", "distortion", "m_function", "mu_le_theory",
               "mu_ri_theory", "normal_cdf", "s_function", "s_tilde", "shark_fin",
               "sigma2_le_theory", "sigma2_ri_theory", "simulate_L_paths"),
}
# each public name -> the module that defines it; a module name maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names)}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_MODULE_OF[name]}")
    return module if name == _MODULE_OF[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
